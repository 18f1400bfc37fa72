"""Model definitions: SSH and Kitaev chains, momentum grids, Bloch vectors,
and real-space single-particle Hamiltonians: the L x L matrix of hopping,
onsite and pairing terms (its Majorana form is in :mod:`chainent.reference`).

Conventions
-----------
* SSH: cell ``n`` holds two sites ``a_n`` (fermionic mode ``2n``) and ``b_n``
  (mode ``2n+1``), 0-based.  Hoppings are ``t1 = 1 - lambda`` inside a cell
  and ``t2 = 1 + lambda`` between cells.
* Kitaev: mode ``n`` is site ``n``.  The chain is
  ``H = sum_n [-t(a_n^ a_{n+1} + h.c.) + delta(a_n a_{n+1} + h.c.)] - mu sum_n a_n^ a_n``
  so the momentum-space Bloch vector reads ``hz = -mu/2 - t cos k``,
  ``hy = delta sin k``, ``hx = 0``, and the band touching sits at ``k = pi``
  when ``mu = 2t`` (mirroring the SSH even-N mechanism).
* Majorana operators: mode ``j`` owns ``c_{2j}`` and ``c_{2j+1}`` with
  ``a_j = (c_{2j} + i c_{2j+1}) / 2`` (0-based), and a quadratic Hamiltonian
  is ``H = (i/4) c^T M c`` with ``M`` real skew-symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DisorderUnsupportedError, GaplessError

GAP_TOL = 1e-12


class Family(str, Enum):
    SSH = "ssh"
    KITAEV = "kitaev"


class Boundary(str, Enum):
    PERIODIC = "periodic"
    OPEN = "open"


@dataclass(frozen=True)
class DisorderSpec:
    """Uniform onsite disorder: energies drawn from ``[-amplitude, amplitude]``.

    The same (seed, amplitude) pair always reproduces the same realization.
    """

    amplitude: float
    seed: int

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("disorder amplitude must be nonnegative")

    def onsite_energies(self, num_sites: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return self.amplitude * rng.uniform(-1.0, 1.0, size=num_sites)


@dataclass(frozen=True)
class ModelSpec:
    """Which chain to build and with which parameters.

    For SSH, ``N`` counts unit cells (two sites each) and ``lam`` is the
    single control parameter; for Kitaev, ``N`` counts sites and
    ``(t, delta, mu)`` are the hopping, pairing and chemical potential.
    """

    family: Family
    N: int
    lam: float | None = None
    t: float | None = None
    delta: float | None = None
    mu: float | None = None
    boundary: Boundary = Boundary.PERIODIC
    disorder: DisorderSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.family is Family.SSH:
            if self.lam is None:
                raise ValueError("SSH spec requires lambda")
            if not -1.0 <= self.lam <= 1.0:
                raise ValueError("lambda must lie in [-1, 1]")
            if any(v is not None for v in (self.t, self.delta, self.mu)):
                raise ValueError("Kitaev fields must be unset for SSH")
        else:
            if any(v is None for v in (self.t, self.delta, self.mu)):
                raise ValueError("Kitaev spec requires t, delta and mu")
            if self.lam is not None:
                raise ValueError("lambda must be unset for Kitaev")

    @classmethod
    def ssh(cls, N, lam, boundary=Boundary.PERIODIC, disorder=None) -> "ModelSpec":
        return cls(Family.SSH, N, lam=lam, boundary=boundary, disorder=disorder)

    @classmethod
    def kitaev(cls, N, t=1.0, delta=1.0, mu=0.0,
               boundary=Boundary.PERIODIC, disorder=None) -> "ModelSpec":
        return cls(Family.KITAEV, N, t=t, delta=delta, mu=mu,
                   boundary=boundary, disorder=disorder)

    @property
    def t1(self) -> float:
        return 1.0 - self.lam

    @property
    def t2(self) -> float:
        return 1.0 + self.lam

    @property
    def num_modes(self) -> int:
        """Number of fermionic modes L (2N for SSH, N for Kitaev)."""
        return 2 * self.N if self.family is Family.SSH else self.N

    @property
    def clean_periodic(self) -> bool:
        return self.disorder is None and self.boundary is Boundary.PERIODIC


def momentum_grid(N: int) -> np.ndarray:
    """Momenta ``k_j = 2 pi j / N`` for ``j = 0..N-1``.

    Contains ``k = pi`` iff ``N`` is even, which is the root of the
    even/odd dichotomy in every finite-size result.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    return 2.0 * np.pi * np.arange(N) / N


# Bloch vectors: plain components (hx, hy, hz), with the model parameter
# broadcast against k: a column of parameters against a row of momenta gives
# a whole (parameter, k) grid.  A constant zero component is the scalar 0.0.

def ssh_bloch(lam, k):
    """SSH ``h(k) = (t1 + t2 cos k, t2 sin k, 0)``, ``t1, t2 = 1 -+ lambda``."""
    t2 = 1.0 + lam
    return 1.0 - lam + t2 * np.cos(k), t2 * np.sin(k), 0.0


def kitaev_bloch(mu, k, t=1.0, delta=1.0):
    """Kitaev ``h(k) = (0, delta sin k, -mu/2 - t cos k)``."""
    return 0.0, delta * np.sin(k), -mu / 2.0 - t * np.cos(k)


def kitaev_scale(mu, t, delta, amplitude=0.0) -> float:
    """1/8 where |mu| + 2(|t| + |delta| + amplitude), a bound on |h(k)| and on the
    real-space levels, overflows at the largest |mu| of ``mu``, else 1: the bound is
    at most 7 times the largest float, and a power of two is exact (h/|h| and the
    eigenvectors do not change), so every input that cannot overflow keeps its bits."""
    t, delta, amplitude = (abs(float(x)) for x in (t, delta, amplitude))  # Python floats:
    bound = float(np.max(np.abs(mu), initial=0.0)) + 2.0 * (t + delta + amplitude)  # inf, unwarned
    return 0.125 if bound == math.inf else 1.0


def bloch_vector(spec: ModelSpec, k):
    """Components (hx, hy, hz) of h(k) of a clean periodic chain."""
    if spec.disorder is not None:
        raise DisorderUnsupportedError("momentum space requires translation invariance")
    if spec.boundary is not Boundary.PERIODIC:
        raise DisorderUnsupportedError("momentum space requires periodic boundaries")
    if spec.family is Family.SSH:
        return ssh_bloch(spec.lam, k)
    return kitaev_bloch(spec.mu, k, spec.t, spec.delta)


def bloch_norm(h):
    """|h| of a component triple; where a square overflows, 2^e |h / 2^e| with 2^e
    the largest component's power of two, which is exact: h/|h| is unchanged and
    every norm that does not overflow keeps its bits.  One momentum (quad's
    integrand) runs in Python floats, which overflow to inf without a warning."""
    hx, hy, hz = h
    if isinstance(hx, float) and isinstance(hy, float) and isinstance(hz, float):
        x, y, z = float(hx), float(hy), float(hz)
        if (r := math.sqrt(x * x + y * y + z * z)) < math.inf:
            return r
    else:
        with np.errstate(over="ignore"):
            r = np.sqrt(hx * hx + hy * hy + hz * hz)
        if not np.isinf(r).any():
            return r
    e = np.frexp(np.maximum(np.maximum(np.abs(hx), np.abs(hy)), np.abs(hz)))[1]
    x, y, z = (np.ldexp(c, -e) for c in (hx, hy, hz))
    return np.where(np.isinf(r), np.ldexp(np.sqrt(x * x + y * y + z * z), e), r)[()]


def unit_derivative(h, r, bloch, k):
    """Components of d(h/|h|)/dp = (h x dh) x h / |h|^3 at h = bloch(p, k),
    |h| = r.

    Bloch vectors are linear in their first argument p, so the kernel gives
    dh/dp = bloch(1, k) - bloch(0, k) directly.
    """
    hx, hy, hz = h
    dx, dy, dz = [a - b for a, b in zip(bloch(1.0, k), bloch(0.0, k))]
    cx, cy, cz = hy * dz - hz * dy, hz * dx - hx * dz, hx * dy - hy * dx
    r3 = r * r * r
    return (cy * hz - cz * hy) / r3, (cz * hx - cx * hz) / r3, (cx * hy - cy * hx) / r3


def bz_mean(term, bloch, N: int | None = None, points=None) -> float:
    """Brillouin-zone mean of ``term(k, h, r)`` with ``h = bloch(k)`` and
    ``r = |h|``.

    Finite ``N`` averages over ``momentum_grid(N)`` and raises GaplessError
    when |h| < GAP_TOL at a grid momentum.  ``N = None`` integrates over
    [0, pi] (every term is even about k = pi) with ``points`` passed to
    ``quad``; the gap is not checked there, callers exclude the touching.
    SSH chains take the closed forms below instead.
    """
    if N is None:
        from scipy.integrate import quad  # here: `import chainent` loads numpy only
        def integrand(k):
            h = bloch(k)
            return term(k, h, bloch_norm(h))
        val, _ = quad(integrand, 0.0, np.pi, points=points,
                      epsabs=1e-12, epsrel=1e-12, limit=400)
        return val / np.pi
    return float(np.mean(term(*gapped_grid(bloch, N))))


def band_touching(r, k) -> str:
    """Message of the GaplessError for |h(k)| = r < GAP_TOL."""
    return f"|h(k)| = {r:g} at k = {k:g}: band touching"


def gapped_grid(bloch, N: int):
    """``k = momentum_grid(N)``, ``h = bloch(k)`` and ``|h|``; GaplessError
    when |h| < GAP_TOL at a grid momentum."""
    k = momentum_grid(N)
    h = bloch(k)
    r = bloch_norm(h)
    i = int(np.argmin(r))
    if r[i] < GAP_TOL:
        raise GaplessError(band_touching(r[i], k[i]))
    return k, h, r


# SSH thermodynamic limit.  With m = t1 t2 = 1 - lambda^2 and theta = k/2,
# |h| = 2 sqrt(1 - m sin^2 theta) and h_x = 2 - 2 t2 sin^2 theta, so the zone
# means are complete elliptic integrals: K(m) = R_F(0, 1 - m, 1) and
# D(m) = (K - E)/m = R_D(0, 1 - m, 1)/3 (DLMF §19.2, 19.25.1).

def ssh_eta1_limit(lam):
    """N -> infinity eta1 = (2/pi)[K(m) - t2 D(m)] elementwise, exactly 0 at
    lambda = 1 and 1 at lambda = -1; eta2(lambda) = eta1(-lambda).  K is
    ``ellipkm1(lambda^2)``: ``ellipk(1 - lambda^2)`` loses 7e-12 at 1e-6."""
    from scipy.special import ellipkm1, elliprd
    y = np.square(lam)
    return 2.0 / np.pi * (ellipkm1(y) - (1.0 + lam) * elliprd(0.0, y, 1.0) / 3.0)


def ssh_deta1_limit(lam):
    """N -> infinity d(eta1)/d(lambda) = (2/pi)(K - 2D)/t1 elementwise.  The
    descending Landen transformation (DLMF §19.8) removes the cancellation of
    K - 2D = O(m) as |lambda| -> 1: with a = |lambda| it is the product
    -(4/3pi) t2 R_D(0, 4a/(1 + a)^2, 1)/(1 + a)^3, -1/4 at lambda = 1."""
    from scipy.special import elliprd
    a = np.abs(lam)
    return (-4.0 / (3.0 * np.pi) * (1.0 + lam)
            * elliprd(0.0, 4.0 * a / (1.0 + a) ** 2, 1.0) / (1.0 + a) ** 3)


def particle_matrix(spec: ModelSpec) -> np.ndarray:
    """Real L x L matrix ``A + B`` of
    ``H = sum_ij [A_ij a_i^ a_j + (B_ij / 2)(a_i a_j + h.c.)]``: symmetric
    hopping and onsite terms A (with the disorder on the diagonal) plus the
    antisymmetric Kitaev pairing B, ``B_{n,n+1} = delta``.  The SSH chain
    has no pairing, so this is its particle matrix, tridiagonal when open:
    t1 on a_n -- b_n, t2 on b_n -- a_{n+1} and on the wrap bond of a ring.
    """
    L = spec.num_modes
    n = np.arange(L if spec.boundary is Boundary.PERIODIC else L - 1)
    m = (n + 1) % L
    if spec.family is Family.SSH:
        hop, pair, onsite = np.resize([spec.t1, spec.t2], len(n)), 0.0, 0.0
    else:
        hop, pair, onsite = -spec.t, spec.delta, -spec.mu
    H = np.diag(np.full(L, onsite))
    if spec.disorder is not None:
        H += np.diag(spec.disorder.onsite_energies(L))
    H[n, m] += hop + pair  # bonds are distinct, so += adds each once
    H[m, n] += hop - pair
    return H

"""Model definitions: SSH and Kitaev chains, momentum grids, Bloch vectors,
and real-space single-particle Hamiltonians in the Majorana representation.

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

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import quad

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
# broadcast against k.  ``quad`` calls them once per point, so they stack
# nothing; a constant zero component is the scalar 0.0.

def ssh_bloch(lam, k):
    """SSH ``h(k) = (t1 + t2 cos k, t2 sin k, 0)``, ``t1, t2 = 1 -+ lambda``."""
    t2 = 1.0 + lam
    return 1.0 - lam + t2 * np.cos(k), t2 * np.sin(k), 0.0


def kitaev_bloch(mu, k, t=1.0, delta=1.0):
    """Kitaev ``h(k) = (0, delta sin k, -mu/2 - t cos k)``."""
    return 0.0, delta * np.sin(k), -mu / 2.0 - t * np.cos(k)


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
    """|h| of a component triple."""
    hx, hy, hz = h
    return np.sqrt(hx * hx + hy * hy + hz * hz)


def unit_derivative(h, bloch, k):
    """Components of d(h/|h|)/dp = (h x dh) x h / |h|^3 at h = bloch(p, k).

    Bloch vectors are linear in their first argument p, so the kernel gives
    dh/dp = bloch(1, k) - bloch(0, k) directly.
    """
    hx, hy, hz = h
    dx, dy, dz = [a - b for a, b in zip(bloch(1.0, k), bloch(0.0, k))]
    cx, cy, cz = hy * dz - hz * dy, hz * dx - hx * dz, hx * dy - hy * dx
    r2 = hx * hx + hy * hy + hz * hz
    r3 = r2 * np.sqrt(r2)
    return (cy * hz - cz * hy) / r3, (cz * hx - cx * hz) / r3, (cx * hy - cy * hx) / r3


def bz_mean(term, bloch, N: int | None = None, points=None) -> float:
    """Brillouin-zone mean of ``term(k, h)`` with ``h = bloch(k)``.

    Finite ``N`` averages over ``momentum_grid(N)`` and raises GaplessError
    when |h| < GAP_TOL at a grid momentum.  ``N = None`` integrates over
    [0, pi] (every term is even about k = pi) with ``points`` passed to
    ``quad``; the gap is not checked there, callers exclude the touching.
    """
    if N is None:
        val, _ = quad(lambda k: term(k, bloch(k)), 0.0, np.pi, points=points,
                      epsabs=1e-12, epsrel=1e-12, limit=400)
        return val / np.pi
    k, h, _ = gapped_grid(bloch, N)
    return float(np.mean(term(k, h)))


def gapped_grid(bloch, N: int):
    """``k = momentum_grid(N)``, ``h = bloch(k)`` and ``|h|``; GaplessError
    when |h| < GAP_TOL at a grid momentum."""
    k = momentum_grid(N)
    h = bloch(k)
    r = bloch_norm(h)
    i = int(np.argmin(r))
    if r[i] < GAP_TOL:
        raise GaplessError(f"|h(k)| = {r[i]:g} at k = {k[i]:g}: band touching")
    return k, h, r


def _add_onsite(M: np.ndarray, i: int, e: float) -> None:
    # e * a_i^ a_i  ->  (e/2) i c_{2i} c_{2i+1} + const
    M[2 * i, 2 * i + 1] += e
    M[2 * i + 1, 2 * i] -= e


def _add_hopping(M: np.ndarray, i: int, j: int, t: float) -> None:
    # t * (a_i^ a_j + a_j^ a_i), t real, i != j
    M[2 * i, 2 * j + 1] += t
    M[2 * j + 1, 2 * i] -= t
    M[2 * i + 1, 2 * j] -= t
    M[2 * j, 2 * i + 1] += t


def _add_pairing(M: np.ndarray, i: int, j: int, p: float) -> None:
    # p * (a_i a_j + a_j^ a_i^), p real, i != j
    M[2 * i, 2 * j + 1] += p
    M[2 * j + 1, 2 * i] -= p
    M[2 * i + 1, 2 * j] += p
    M[2 * j, 2 * i + 1] -= p


def realspace_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Real skew-symmetric M with ``H = (i/4) c^T M c`` equal to the model
    Hamiltonian (plus onsite disorder when present).

    Works for any boundary condition and disorder realization.  The matrix is
    exactly skew-symmetric as constructed.
    """
    L = spec.num_modes
    M = np.zeros((2 * L, 2 * L))
    periodic = spec.boundary is Boundary.PERIODIC
    if spec.family is Family.SSH:
        N = spec.N
        for n in range(N):
            _add_hopping(M, 2 * n, 2 * n + 1, spec.t1)           # a_n -- b_n
        for n in range(N if periodic else N - 1):
            _add_hopping(M, 2 * n + 1, (2 * n + 2) % L, spec.t2)  # b_n -- a_{n+1}
    else:
        N = spec.N
        for n in range(N):
            _add_onsite(M, n, -spec.mu)
        for n in range(N if periodic else N - 1):
            m = (n + 1) % N
            _add_hopping(M, n, m, -spec.t)
            # delta * (a_n a_{n+1} + h.c.); the wrap bond keeps the bond
            # orientation n -> n+1, handled by the sign flip below.
            if m > n:
                _add_pairing(M, n, m, spec.delta)
            else:
                _add_pairing(M, m, n, -spec.delta)
    if spec.disorder is not None:
        for i, e in enumerate(spec.disorder.onsite_energies(L)):
            _add_onsite(M, i, e)
    return M

"""Parameter sweeps, critical-point extraction, finite-size studies and the
Kitaev density/compressibility analog.

Finite-N quantities are Brillouin-zone sums, a whole grid of parameters at a
time; "thermodynamic" means the N -> infinity integral (not a huge-N sum):
the elliptic closed forms of :mod:`models` for the SSH chain, adaptive
quadrature for the Kitaev chain.  All routines are pure functions of their
arguments; sweep points and disorder realizations are independent and may be
evaluated in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .entanglement import (
    _ground_state,
    concurrence_from_eta,
    eta_summand,
    mode_index,
    x_concurrence,
)
from .errors import (
    GaplessError,
    GridTooCoarseError,
    NoRootError,
    ParityError,
    WindowError,
)
from .gaussian import open_ssh_wick, pair_projector
from .models import (
    Boundary,
    GAP_TOL,
    DisorderSpec,
    ModelSpec,
    band_touching,
    bloch_norm,
    bz_mean,
    kitaev_bloch,
    kitaev_scale,
    linspace,
    momentum_grid,
    ssh_bloch,
    ssh_deta1_limit,
    ssh_eta1_limit,
    unit_derivative,
)

SQRT2_MINUS_1 = np.sqrt(2.0) - 1.0
LAMBDA_PLUS_LIMIT = 0.13829001106285124  # N = infinity root of eta1 = sqrt(2) - 1 (40-digit mpmath)
FIT_WINDOW = (1e-5, 1e-3)
CRITICAL_POINT = "lambda = 0 is the critical point"


# ---------------------------------------------------------------- eta values

def eta1(lam: float, N: int | None = None) -> float:
    """eta1 = BZ average of normalized h_x; the elliptic closed form when N is None."""
    return _eta(lam, N, d=0)


def eta2(lam: float, N: int | None = None) -> float:
    return _eta(lam, N, d=-1)


def _eta(lam, N, d: int) -> float:
    """eta_{a_n b_{n+d}}, d = 0 (eta1) or -1 (eta2), as the zone mean of
    reference.eta_analytic with ModelSpec.ssh's errors; when N is None, the closed form
    :func:`models.ssh_eta1_limit` at lambda, or at -lambda for eta2, and a
    GaplessError at the critical point."""
    if (N is None or N >= 2) and not -1.0 <= lam <= 1.0:  # N < 2 raises first, in momentum_grid
        raise ValueError("lambda must lie in [-1, 1]")
    if N is None:
        if abs(lam) < GAP_TOL:
            raise GaplessError(CRITICAL_POINT)
        return float(ssh_eta1_limit(-lam if d else lam))
    return bz_mean(partial(eta_summand, d=d), partial(ssh_bloch, lam), N)


def deta1(lam: float, N: int | None = None) -> float:
    """d(eta1)/d(lambda), exact per momentum (no finite differences); the
    closed form :func:`models.ssh_deta1_limit` when N is None."""
    if not -1.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [-1, 1]")
    if abs(lam) < GAP_TOL:
        raise GaplessError("derivative undefined at lambda = 0")
    return float(_deta1(np.array([lam]), N)[0])


def _deta1(lams, N):
    """deta1 on a grid of lambda in [-1, 1], none gapless (|h| >= 2|lambda|)."""
    if N is None:
        return ssh_deta1_limit(lams)
    return _grid_means(lams, N, ssh_bloch, _deta1_term)[0][0]


def _deta1_term(k, h, r):
    return unit_derivative(h, r, ssh_bloch, k)[0]


_STACK_BYTES = 8 << 20  # cap on one (parameter, k) array or one matrix stack


def _grid_means(params, N: int, bloch, *terms):
    """Zone means over ``momentum_grid(N)`` of each ``term(k, h, r)``,
    ``h = bloch(p, k)`` and ``r = |h|`` computed once, one row per term, for
    all p in ``params`` by (p, k) broadcasts of at most _STACK_BYTES per
    array.  Gapless points are NaN and listed as ``(p, message)``, the
    message of :func:`models.gapped_grid`."""
    k = momentum_grid(N)
    means = np.empty((len(terms), len(params)))  # every slice of every row is set
    errors = []
    step = max(1, _STACK_BYTES // (8 * N))
    for s in range(0, len(params), step):
        p = params[s:s + step]
        h = bloch(p[:, None], k)
        r = bloch_norm(h)
        i, rmin = r.argmin(axis=1), r.min(axis=1)
        gapless = rmin < GAP_TOL
        errors += [(float(p[j]), band_touching(rmin[j], k[i[j]]))
                   for j in gapless.nonzero()[0]]
        with np.errstate(all="ignore"):
            for row, term in zip(means, terms):
                row[s:s + step] = np.where(gapless, np.nan, term(k, h, r).mean(axis=1))
    return means, errors


# -------------------------------------------------------------------- sweeps

@dataclass
class SweepResult:
    """Per-lambda eta and concurrence columns of one sweep.

    ``N`` is None for the thermodynamic limit.  Points where the gap closes
    are recorded in ``errors`` as (lambda, message) and carry NaN columns.
    """

    lambdas: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    N: int | None
    dc2_dlambda: np.ndarray | None = None
    errors: list = field(default_factory=list)


def sweep(lambda_grid, N: int | None = None,
          with_derivative: bool = True) -> SweepResult:
    """eta1/eta2/C1/C2 over a lambda grid for a clean periodic SSH chain,
    the whole grid at once."""
    lams = np.asarray(lambda_grid, dtype=float)
    if (lams[1:] - lams[:-1] <= 0).any():
        raise ValueError("lambda grid must be strictly increasing")
    if not (np.abs(lams) <= 1.0).all():
        raise ValueError("lambda must lie in [-1, 1]")
    if N is None:
        gapped = np.abs(lams) >= GAP_TOL
        etas = np.zeros((2, len(lams))) + np.nan
        etas[:, gapped] = ssh_eta1_limit(lams[gapped]), ssh_eta1_limit(-lams[gapped])
        errors = [(float(lam), CRITICAL_POINT) for lam in lams[~gapped]]
    else:
        # eta1 pairs a_n b_n, eta2 pairs b_n a_{n+1} = a_{n+1} b_n
        etas, errors = _grid_means(lams, N, ssh_bloch,
                                   partial(eta_summand, d=0),
                                   partial(eta_summand, d=-1))
    c1, c2 = concurrence_from_eta(etas)
    result = SweepResult(lambdas=lams, eta1=etas[0], eta2=etas[1], c1=c1, c2=c2,
                         N=N, errors=errors)
    if with_derivative and len(lams) >= 3:
        result.dc2_dlambda = derivative(result.c2, lams)
    return result


def derivative(values, grid) -> np.ndarray:
    """Centered finite differences on a uniform grid; endpoints are NaN."""
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 3:
        raise GridTooCoarseError("need at least 3 points")
    steps = grid[1:] - grid[:-1]
    if np.abs(steps - steps[0]).max() > 1e-9 * max(abs(steps[0]), 1e-300):
        raise ValueError("derivative requires a uniform grid")
    return _centred_difference(values, grid)


def _centred_difference(values, grid) -> np.ndarray:
    """(values[i+1] - values[i-1]) / (grid[i+1] - grid[i-1]); NaN at the
    endpoints, so all NaN below 3 points."""
    out = values + np.nan
    out[1:-1] = (values[2:] - values[:-2]) / (grid[2:] - grid[:-2])
    return out


# --------------------------------------------------------- critical analysis

def _lambda_plus(N, fit_lams):
    """(lambda_plus, deta1 at the last iterate, deta1 at ``fit_lams``): Newton from
    the N = infinity root (0.757^N / sqrt(N) off), one (eta1, deta1) zone pass per
    step, the first one also at the bracket ends and ``fit_lams``; a step out of
    the sign-change bracket bisects it.  It stops at a step under 1.5e-13, where
    deta1 at the last iterate is within 1e-12 of deta1 at the root too."""
    def zone_pass(lams):
        if N is None:
            return ssh_eta1_limit(lams) - SQRT2_MINUS_1, ssh_deta1_limit(lams)
        (eta, slope), _ = _grid_means(lams, N, ssh_bloch, partial(eta_summand, d=0),
                                      _deta1_term)
        return eta - SQRT2_MINUS_1, slope
    lo, hi = 1e-6, 0.9
    f, df = zone_pass(np.array([LAMBDA_PLUS_LIMIT, lo, hi, *fit_lams]))
    if f[1] * f[2] > 0:
        raise NoRootError("eta1 - (sqrt(2)-1) does not change sign on (1e-06, 0.9)")
    x, fx, dfx = LAMBDA_PLUS_LIMIT, f[0], df[0]
    while True:
        lo, hi = (x, hi) if (fx > 0) == (f[1] > 0) else (lo, x)
        step = min(max(-fx / dfx, lo - x), hi - x)
        if abs(step) <= 1.5e-13:
            return float(x + step), dfx, df[3:]
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        (fx,), (dfx,) = zone_pass(np.array([x]))


def jump_at_zero(N: int) -> float:
    """Discontinuity |eta1(0+) - eta1(0-)| of an even-N chain; equals 2/N.

    Evaluated through the one-sided limits: away from k = pi the normalized
    h_x is continuous at lambda = 0, while the k = pi term contributes
    -sign(lambda).  Odd N (no k = pi on the grid) raises ParityError.
    """
    if N % 2:
        raise ParityError("eta1 is continuous for odd N")
    ks = momentum_grid(N)
    h = ssh_bloch(0.0, ks[np.abs(ks - np.pi) > 1e-12])
    smooth = float((h[0] / bloch_norm(h)).sum())
    eta_plus = (smooth - 1.0) / N
    eta_minus = (smooth + 1.0) / N
    return abs(eta_plus - eta_minus)


@dataclass(frozen=True)
class LogFitResult:
    slope: float
    intercept: float
    max_residual: float
    asymptotic: bool


def logfit(window=FIT_WINDOW, N: int | None = None) -> LogFitResult:
    """Least-squares fit of d(eta1)/d(lambda) against ln(lambda) at 9
    geometrically spaced points of the window.

    In the thermodynamic limit the slope approaches 2/pi and the intercept
    (2/pi) ln(e/2)^2; the fit is meaningful only for |lambda| << 1, so a
    window outside the asymptotic regime is flagged (``asymptotic=False``).
    """
    lams = _fit_lambdas(window)
    return _fit_log(np.log(lams), _deta1(lams, N))


def _fit_lambdas(window):
    lo, hi = window
    if lo <= 0 or hi <= 0:
        raise WindowError("fit window must not touch lambda = 0")
    if lo >= hi:
        raise WindowError("empty fit window")
    return _fit_points(lo, hi)


def _fit_points(lo, hi):
    """The 9 fit points ``np.geomspace(lo, hi, 9)``, bit for bit, 0 < lo < hi."""
    out = 10.0 ** linspace(np.log10(lo), np.log10(hi), 9)
    out[0], out[-1] = lo, hi
    return out


def _fit_log(x, y) -> LogFitResult:
    """Least-squares y = slope * x + intercept about the means, in Python floats,
    flagged asymptotic when the worst residual stays under 1% of max |y|."""
    x, y = x.tolist(), y.tolist()
    mx, my = sum(x) / len(x), sum(y) / len(y)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)
    intercept = my - slope * mx
    resid = max(abs(slope * a + intercept - b) for a, b in zip(x, y))
    return LogFitResult(slope=slope, intercept=intercept, max_residual=resid,
                        asymptotic=resid < 0.01 * max(*map(abs, y), 1e-300))


@dataclass(frozen=True)
class CriticalReport:
    lambda_plus: float
    lambda_minus: float
    slope_at_plus: float
    logfit_slope: float
    logfit_intercept: float
    logfit_asymptotic: bool
    jump_delta: float | None  # even finite N only
    N: int | None


def critical_report(N: int | None = None) -> CriticalReport:
    """lambda_plus (the root of eta1 = sqrt(2) - 1 on (0, 1), where C1 dies), its C1
    slope sqrt(2) deta1 from below and the log fit, from the zone passes of one root
    solve.  C2 dies at lambda_minus = -lambda_plus: swapping a ring's sublattices swaps
    t1 and t2, so eta2(lambda) = eta1(-lambda).  N in {2, 4} has no root: NoRootError."""
    fit_lams = _fit_lambdas(FIT_WINDOW)
    lp, deta, fit_deta = _lambda_plus(N, fit_lams)  # lambda_minus = -lambda_plus
    fit = _fit_log(np.log(fit_lams), fit_deta)
    jump = jump_at_zero(N) if (N is not None and N % 2 == 0) else None
    return CriticalReport(lambda_plus=lp, lambda_minus=-lp,
                          slope_at_plus=float(np.sqrt(2.0) * deta),
                          logfit_slope=fit.slope, logfit_intercept=fit.intercept,
                          logfit_asymptotic=fit.asymptotic,
                          jump_delta=jump, N=N)


# -------------------------------------------------------- free-energy check

def free_energy_check(N: int, lam: float):
    """Compare dE/dlambda (centered difference) of the T -> 0 free energy
    E(lambda) = -sum_k |h(k)| with N (eta1 - eta2).  Returns (lhs, rhs, |difference|)."""
    h = 1e-5
    if abs(lam) < 10 * h:
        raise GaplessError("step straddles the critical point")
    minus_e = [bloch_norm(ssh_bloch(x, momentum_grid(N))).sum() for x in (lam - h, lam + h)]
    lhs = float(minus_e[0] - minus_e[1]) / (2.0 * h)
    rhs = N * (eta1(lam, N) - eta2(lam, N))
    return lhs, rhs, abs(lhs - rhs)


# ------------------------------------------------------------- Kitaev analog

def _unit_z(k, h, r):
    return h[2] / r


def kitaev_eta_z(mu: float, t: float = 1.0, delta: float = 1.0,
                 N: int | None = None) -> float:
    """BZ average of the normalized h_z of the Kitaev chain."""
    return bz_mean(_unit_z, partial(kitaev_bloch, mu, t=t, delta=delta), N)


@dataclass
class KitaevDensityTable:
    mus: np.ndarray
    eta_z: np.ndarray
    density: np.ndarray
    compressibility: np.ndarray  # dn/dmu, NaN at endpoints / failed points
    N: int | None
    errors: list = field(default_factory=list)


def kitaev_density(mu_grid, t: float = 1.0, delta: float = 1.0,
                   N: int | None = None) -> KitaevDensityTable:
    """Local density n = (1 - eta_z) / 2 and compressibility over a mu sweep, on energies
    scaled by :func:`models.kitaev_scale`; GaplessError at t = delta = mu = 0.  For even N,
    n jumps by 0.5 * jump_at_zero(N) = 1/N across mu = 2t: the k = pi term of eta_z flips
    sign, as for the SSH eta1, and every other grid term is continuous; odd N has no jump."""
    mus = np.asarray(mu_grid, dtype=float)
    if t == 0 and delta == 0 and (mus == 0).any():
        raise GaplessError("t = delta = mu = 0: the Hamiltonian is zero")
    s = kitaev_scale(mus, t, delta)
    if N is None:
        eta_z, errors = np.array([kitaev_eta_z(s * mu, s * t, s * delta) for mu in mus]), []
    else:
        (eta_z,), errors = _grid_means(
            s * mus, N, partial(kitaev_bloch, t=s * t, delta=s * delta), _unit_z)
    density = 0.5 * (1.0 - eta_z)
    return KitaevDensityTable(mus=mus, eta_z=eta_z, density=density,
                              compressibility=_centred_difference(density, mus),
                              N=N, errors=errors)


def kitaev_compressibility_logfit(window=(1e-5, 1e-3), t: float = 1.0,
                                  delta: float = 1.0) -> LogFitResult:
    """Fit of the thermodynamic dn/dmu against ln|mu - mu_c| near mu_c = 2t,
    at 9 geometrically spaced points of the window.

    The divergence is logarithmic.  Under this parametrization the exact
    prefactor is 1/(4 pi delta): dn/dmu = -(1/2) d(eta_z)/dmu and the k = pi
    expansion carries d(h_z)/dmu = -1/2 (against -2 for the SSH d(h_x)/dlambda).
    At t = delta the map mu = 2t (1 - lambda)/(1 + lambda) gives
    eta_z(mu) = -eta1(lambda) exactly, and the chain rule carries the SSH
    asymptote (2/pi) ln[(e/2)^2 |lambda|] over to the full asymptote

        dn/dmu -> -(1/(4 pi t)) ln[(e/4)^2 |mu - 2t| / t],

    i.e. slope -1/(4 pi t) and intercept -(1/(4 pi t)) ln[(e/4)^2 / t].
    """
    lo, hi = window
    if lo <= 0 or hi <= 0 or lo >= hi:
        raise WindowError("fit window must not touch mu_c")
    mus = 2.0 * t - _fit_points(lo, hi)
    bloch = partial(kitaev_bloch, t=t, delta=delta)

    def dn_dmu(mu):
        # n = (1 - eta_z)/2, so dn/dmu is -1/2 times the zone mean of du_z/dmu
        return -0.5 * bz_mean(lambda k, h, r: unit_derivative(h, r, bloch, k)[2],
                              partial(bloch, mu), None, points=[np.pi])

    return _fit_log(np.log(np.abs(mus - 2.0 * t)),
                    np.array([dn_dmu(mu) for mu in mus]))


# -------------------------------------------------- disorder / open boundary

def _central_pair(N: int):
    """Modes of the central inter-cell pair (b_c, a_{c+1})."""
    c = N // 2 - 1 if N % 2 == 0 else N // 2
    return mode_index((c, "b")), mode_index((c + 1, "a"))


def central_pair_concurrence(spec: ModelSpec, fill: int | None = None) -> float:
    """Concurrence of the central inter-cell pair of an SSH chain's ground
    state (``entanglement._ground_state``), from the closed form of its X state."""
    return float(x_concurrence(*_ground_state(spec, fill)(*_central_pair(spec.N))))


@dataclass
class DisorderTable:
    lambdas: np.ndarray
    mean_c2: np.ndarray
    std_c2: np.ndarray
    per_seed: np.ndarray  # shape (num_realizations, len(lambdas))
    seeds: np.ndarray
    N: int
    amplitude: float


def disorder_ensemble(N: int, lambda_grid, amplitude: float = 0.1,
                      num_realizations: int = 100, base_seed: int = 20260826,
                      boundary: Boundary = Boundary.PERIODIC) -> DisorderTable:
    """Mean and standard deviation of the central-bond C2 over disorder seeds.

    Seeds are ``base_seed + i``; identical inputs give identical tables.
    Each seed's onsite energies are drawn once and put on the chain of every
    lambda; :func:`gaussian.pair_projector` solves all lambda x realization
    chains, O(N) each per Zolotarev pole (``eigh`` where it cannot certify the
    gap), in batches of at most :func:`_disorder_batch` chains.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if num_realizations < 1:
        raise ValueError("need at least one disorder realization")
    lams = np.asarray(lambda_grid, dtype=float)
    seeds = base_seed + np.arange(num_realizations)
    energies = np.array([DisorderSpec(amplitude=amplitude, seed=int(seed))
                         .onsite_energies(2 * N) for seed in seeds])
    if not (np.abs(lams) <= 1.0).all():  # NaN too
        raise ValueError("lambda must lie in [-1, 1]")
    bonds = 1.0 + lams[:, None] * (np.arange(2 * N) % 2 * 2.0 - 1.0)  # t1, t2, ... (ModelSpec.ssh)
    bonds[:, -1] *= Boundary(boundary) is Boundary.PERIODIC  # bond n joins n, n + 1 mod 2N
    per_seed, p = np.empty((len(lams), num_realizations)), _central_pair(N)[0]
    step = _disorder_batch(N)
    for s in range(0, per_seed.size, step):
        j, i = np.divmod(np.arange(s, min(s + step, per_seed.size)), num_realizations)
        per_seed[j, i] = x_concurrence(*pair_projector(energies[i], bonds[j], p))
    per_seed = per_seed.T
    # std of each column scaled by a power of two, which is exact: squared deviations of
    # C2 below ~1e-154 (amplitudes above ~1e154) would underflow to a std of 0
    scale = np.frexp(np.abs(per_seed).max(axis=0))[1]
    return DisorderTable(lambdas=lams, mean_c2=per_seed.mean(axis=0),
                         std_c2=np.ldexp(np.ldexp(per_seed, -scale).std(axis=0), scale),
                         per_seed=per_seed,
                         seeds=seeds, N=N, amplitude=amplitude)


def _disorder_batch(N: int) -> int:  # 2N-site rows and a few dozen poles per chain
    return max(1, _STACK_BYTES // (16 * (2 * N + 512)))


def obc_fill_count(N: int, lam, fill: str):
    """Occupation count placing the Fermi level below or above the two
    midgap states of an open chain (lam > 0); below the gap otherwise.
    Elementwise over an array of lam."""
    if fill not in ("below", "above"):
        raise ValueError("fill must be 'below' or 'above'")
    return np.where(np.asarray(lam) <= 0, N, N - 1 if fill == "below" else N + 1)


@dataclass
class ObcTable:
    lambdas: np.ndarray
    c2: np.ndarray
    dc2_dlambda: np.ndarray
    peak_lambda: float
    peak_height: float
    N: int
    fill: str


def obc_center_derivative(N: int, lambda_grid, fill: str = "below") -> ObcTable:
    """dC2/dlambda of the central pair of an open chain, plus peak location.

    The grid must increase strictly; log-spaced grids resolve the peak near 0.
    dC2 is np.gradient's on the actual grid (:func:`_gradient`).  C2 comes from batched
    :func:`gaussian.open_ssh_wick` solves of _STACK_BYTES // (128 N)
    lambdas (16 length-N floats each) or fewer: one at a time above N = 32,768.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    if len(lams) < 3:
        raise GridTooCoarseError("need at least 3 points")
    if N < 2:
        raise ValueError("N must be at least 2")
    if not np.abs(lams).max() <= 1.0:  # NaN too
        raise ValueError("lambda must lie in [-1, 1]")
    if any(b <= a for a, b in zip(lams[:-1], lams[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    fills, pair = obc_fill_count(N, lams, fill), _central_pair(N)
    c2, step = np.empty(len(lams)), max(1, _STACK_BYTES // (128 * N))
    for s in range(0, len(lams), step):
        lam = lams[s:s + step]  # the solve is dropped before the next one starts
        wick = open_ssh_wick(N, 1.0 - lam, 1.0 + lam, fills[s:s + step])[1](*pair)
        c2[s:s + step] = x_concurrence(*wick)
    dc2 = _gradient(list(c2), list(lams))
    ipk = max((i for i, d in enumerate(dc2) if d == d), key=dc2.__getitem__)  # nanargmax
    return ObcTable(lambdas=lams, c2=c2, dc2_dlambda=np.array(dc2),
                    peak_lambda=float(lams[ipk]), peak_height=float(dc2[ipk]),
                    N=N, fill=fill)


def _gradient(f, x) -> list:
    """``np.gradient(f, x)`` bit for bit in float64 scalars, cheaper on a few points."""
    h = [b - a for a, b in zip(x, x[1:])]
    mid = ([(c - a) / (2.0 * h[0]) for a, c in zip(f, f[2:])] if all(d == h[0] for d in h) else
           [-q / (p * (p + q)) * a + (q - p) / (p * q) * b + p / (q * (p + q)) * c
            for p, q, a, b, c in zip(h, h[1:], f, f[1:], f[2:])])
    return [(f[1] - f[0]) / h[0], *mid, (f[-1] - f[-2]) / h[-1]]

"""Gaussian-state machinery for quadratic fermion Hamiltonians: the run-time solvers.

Number-conserving chains are solved as L x L particle matrices
(:func:`particle_ground_state`, :func:`particle_correlations`), clean open SSH
chains in closed form (:func:`open_ssh_ground_state`), and one neighbour pair of
many chains in O(L) each from resolvents of A / W (:func:`pair_projector`); Kitaev
chains read their Wick data off the particle matrix's polar factor
(:func:`_polar_wick`).  Every route returns the Wick data ``(n_i, n_j, G_ij, F_ij)``
of mode pairs.  Their oracle, the dense Majorana route (spectral flattening,
restriction, the Fock-space RDM, Pfaffians), is :mod:`chainent.reference`.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache, partial

import numpy as np

from .errors import DegenerateFillError, GaplessError, SizeError

SKEW_TOL = 1e-12
ZERO_TOL = 1e-12
DEGENERACY_TOL = 1e-10


def _check_pairs(i, j, num_modes: int):
    i, j = np.asarray(i, dtype=int), np.asarray(j, dtype=int)
    if (i == j).any():
        raise IndexError("a pair needs two distinct modes")
    if ((np.minimum(i, j) < 0) | (np.maximum(i, j) >= num_modes)).any():
        raise IndexError("mode index out of range")
    return i, j


def particle_ground_state(A: np.ndarray, fill: int | None = None):
    """Ascending levels and eigenvectors (columns of empty levels zeroed) of
    ``H = sum A_ij a_i^ a_j`` filling the ``fill`` lowest levels, or every
    negative one.  ``A`` is real symmetric, L x L or a stack (..., L, L),
    solved by one (stacked) ``eigh``; a non-symmetric ``A`` (pairing) raises
    ValueError.  ``fill=None`` raises GaplessError as
    ``reference.spectral_flatten`` does (``eig(iM) = +-levels``); an explicit fill
    raises ValueError outside 0..L and DegenerateFillError inside a
    degenerate pair.  Clean open SSH chains take the closed form,
    :func:`open_ssh_ground_state`; this full-size solve is its test oracle."""
    A = np.asarray(A, dtype=float)
    if (np.max(np.abs(A - np.swapaxes(A, -1, -2)), initial=0.0)
            > SKEW_TOL * max(1.0, np.max(np.abs(A)))):
        raise ValueError("matrix carries pairing terms; particle filling undefined")
    levels, V = np.linalg.eigh(A)
    V *= (np.arange(A.shape[-1]) < _filled(levels, fill)[..., None])[..., None, :]
    return levels, V


def physical_memory() -> int:
    """Bytes of physical memory, the bound of every memory check."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def pair_projector(onsite, bonds, p: int):
    """Wick data ``(n_p, n_q, G_pq, 0)`` of the sites p, q = p + 1 in the ground
    state P = (1 - sign A) / 2 of each chain A of a batch (``onsite[b, s]`` on
    site s, ``bonds[b, s]`` joining s and s + 1 mod L, 0 on an open chain's wrap),
    O(L) per chain and pole on A / W, W the largest absolute row sum, so at any finite
    scale: sign(A) ~ M A / W + sum_j w_j Re (A / W - i omega_j)^-1 on the pair
    (:func:`_zolotarev` on 4^-k <= |x| <= 1) for the least k <= 5 with W 4^-k > 2
    ZERO_TOL max(1, W) and no level of A / W in [-4^-k, 4^-k): k = 1 where Weyl and
    Gershgorin on T^2 prove it, A / W = diag(o) + T, min |E| >= sqrt(min_s (t_{s-1}^2
    + t_s^2 - |t_{s-1} t_{s-2}| - |t_s t_{s+1}|)) - max |o| >= (1 + 1e-9) / 4, else by
    Sylvester's inertia (:func:`_pair_schur`).  Other chains go unscaled to
    :func:`particle_ground_state`.  A chain's value is the same alone or in any batch."""
    onsite, bonds = (np.asarray(a, dtype=float).T for a in (onsite, bonds))  # a row per site
    prev = np.roll(bonds, 1, axis=0)  # bond s - 1
    W = np.max(np.abs(onsite) + np.abs(bonds) + np.abs(prev), axis=0)
    scale = np.where(W > 0.0, W, 1.0)  # a zero chain stays 0
    o, t, prev = onsite / scale, bonds / scale, prev / scale  # A / W
    gap, out = 4.0 ** -np.arange(1, 6)[:, None], np.empty((3, len(W)))
    certified = W * gap > 2.0 * ZERO_TOL * np.maximum(1.0, W)
    gersh = prev * prev + t * t - np.abs(prev * np.roll(t, 2, 0)) - np.abs(t * np.roll(t, -1, 0))
    bound = np.sqrt(np.maximum(np.min(gersh, axis=0), 0.0)) - np.max(np.abs(o), axis=0)
    if (rest := ~(certified[0] & (bound >= (1.0 + 1e-9) * gap[0]))).any():  # unproven
        below = _pair_schur(o[:, rest], t[:, rest], p, np.concatenate([gap, -gap]))[3]
        certified[:, rest] &= below[:5] == below[5:]
    level = np.where(certified.any(axis=0), np.argmax(certified, axis=0) + 1, 0)  # widest gap
    if (level == 0).any() and 32 * len(o) ** 2 > (memory := physical_memory()):
        raise SizeError(f"a {len(o)}-site chain the resolvent cannot certify needs an eigh of "
                        f"{32 * len(o) ** 2 / 1e9:.3g} GB, more than the {memory / 1e9:.3g} GB "
                        "of memory")  # eigh's traced 24 L^2 bytes and the matrix
    for b in np.flatnonzero(level == 0):
        A = np.roll(np.diag(bonds[:, b]), 1, axis=1)  # bond s joins s and s + 1
        A = A + A.T + np.diag(onsite[:, b])
        out[:, b] = particle_correlations(particle_ground_state(A)[1], p, p + 1)[:3]
    for k in np.unique(level[level > 0]):  # one resolvent pass per level
        M, omega, w = _zolotarev(k)
        at = level == k
        z = 1j * omega[:, None].astype(np.longdouble if k >= 4 else float)  # rounding ~ eps 4^k
        S = _pair_schur(o[:, at], t[:, at], p, z)[:3]
        R = (np.stack([S[1], S[0], -S[2]]) / (S[0] * S[1] - S[2] * S[2])).real  # (A / W - z)^-1
        sign = M * np.stack([o[p, at], o[p + 1, at], t[p, at]])
        for j in range(len(w)):  # pole by pole: each chain sums as alone
            sign += w[j] * R[:, j]
        out[:, at] = (np.array([[1.0], [1.0], [0.0]]) - sign) / 2.0
    return out[0], out[1], out[2], 0.0


def _pair_schur(o, t, p: int, z):
    """Schur complement ``(S_pp, S_qq, S_pq)`` of A - z on p, q = p + 1 (chains as
    in :func:`pair_projector`, a row per site) at shifts z (K, chains or 1), and for
    real z the levels below z: its negative pivots (by :func:`_block_count` past a zero
    one).  Sites q + 1 .. L - 1, 0 .. p - 1 go in turn: pivot d, fill-in t^2 / d on the
    next site, and b, q's coupling to the next site, adds b^2 / d to q, becomes -b t / d."""
    L, q, real = len(o), p + 1, not np.iscomplexobj(z)
    o, t, z = (np.ascontiguousarray(x, z.dtype) for x in (o, t, z))  # C order, as the work arrays
    c, acc, neg, d, e, u = (np.zeros((len(z), o.shape[1]), z.dtype) for _ in range(6))
    b, t2, mt = t[q] + c, t * t, -t
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in (*range(q + 1, L), *range(p)):
            np.subtract(o[s], z, out=d)
            d -= c
            if real:
                neg += np.copysign(1.0, d, out=u)
            np.divide(1.0, d, out=e)
            np.multiply(t2[s], e, out=c)
            e *= b
            acc += np.multiply(b, e, out=u)
            np.multiply(mt[s], e, out=b)
        S = o[p] - z - c, o[q] - z - acc, t[p] + b
        if real:  # the last two pivots, S_pp and S_qq - S_pq^2 / S_pp
            last = S[1] - S[2] ** 2 / S[0]
            neg += np.copysign(1.0, S[0]) + np.copysign(1.0, last)
            neg = np.where(np.isfinite(last), (L - neg) / 2.0, np.nan)
            for k, c in zip(*np.nonzero(np.isnan(neg))):  # an exact zero pivot: in 2 x 2 blocks
                neg[k, c] = _block_count(list(o[:, c]), list(t[:, c]), p, z[k, c % len(z[0])])
    return (*S, neg)


def _block_count(o, t, p: int, z) -> float:
    """Levels below z of one chain (lists) eliminated as in :func:`_pair_schur`, p and q
    last, an exact zero pivot with the next site: [[0, t], [t, d]] has a level on each
    side of z, fills nothing in, turns q's coupling v into -v t' / t.  NaN if singular."""
    order, n, c, acc, v = iter([*range(p + 2, len(o)), *range(p + 1)]), 0, 0.0, 0.0, t[p + 1]
    for s in order:
        v, d = v + t[p] * (s == p), o[s] - z - c  # q couples to s, and by its bond to p
        if d != 0.0:
            n, c, acc, v = n + (d < 0), t[s] ** 2 / d, acc + v * v / d, -t[s] * v / d
        elif (u := next(order, None)) is not None and t[s] != 0.0:
            acc -= v * (v * (o[u] - z) - 2.0 * t[p] * (u == p) * t[s]) / t[s] ** 2
            n, c, v = n + 1, 0.0, -v * t[u] / t[s]
        else:
            return math.nan
    return n + (o[p + 1] - z - acc < 0.0)


@lru_cache(maxsize=None)
def _zolotarev(k: int):
    """``(M, omega, w)`` of Zolotarev's best sign(x) ~ M x + sum_j w_j x / (x^2 +
    omega_j^2) on ell = 4^-k <= |x| <= 1 (Nakatsukasa & Freund, SIAM Rev. 58, 461
    (2016)) with the fewest poles r for an error under 2e-15: omega_j^2 =
    c_{2j-1}, c_i = ell^2 sc^2(i K / (2r + 1)) at the modulus sqrt(1 - ell^2), or
    1 / sc^2((2r + 1 - i) K / (2r + 1)) for i > r; the weights as products of O(1)
    ratios.  In extended precision where numpy has it."""
    ell = np.longdouble(4.0) ** -k
    for r in range(1, 64):
        _, sn, cn = _sncn(np.arange(1, r + 1, dtype=np.longdouble) / (2 * r + 1), ell)
        c = np.concatenate([(ell * sn / cn) ** 2, (cn / sn)[::-1] ** 2])
        odd, even = c[0::2], c[1::2]
        R = [x * np.prod((x * x + even) / (x * x + odd)) for x in (ell, 1)]  # its extremes
        if R[1] - R[0] < 2e-15 * (R[1] + R[0]):
            break
    ratios = (odd[:, None] - even) / np.where(np.eye(r, dtype=bool), 1, odd[:, None] - odd)
    M = 2 / (R[0] + R[1])
    return float(M), np.sqrt(odd).astype(float), (-M * np.prod(ratios, axis=1)).astype(float)


def _sncn(frac, kc):
    """K(k) and the Jacobi sn, cn at u = frac K(k), k = sqrt(1 - kc^2), from the
    AGM seeded with the complementary modulus kc (Bulirsch's sncndn, Numer. Math.
    7, 78 (1965)): cn keeps its relative accuracy as k -> 1."""
    a, b, means = kc ** 0, kc, [(kc ** 0, kc)]
    while abs(a - b) > 1e-10 * a:  # then the next mean is exact: quadratic convergence
        a, b = (a + b) / 2, np.sqrt(a * b)
        means.append((a, b))
    agm, pi = (a + b) / 2, 4 * np.arctan(kc ** 0)  # pi in the precision of kc
    x = 1 / np.tan(pi * np.asarray(frac) / 2)  # u agm = frac pi / 2
    c, dn = agm * x, 1
    for a, b in reversed(means):
        x, c = x * c, c * dn
        dn, x = (b + x) / (a + x), c / a
    sn = 1 / np.sqrt(1 + c * c)  # c = cn / sn
    return pi / (2 * agm), sn, c * sn


def _filled(levels: np.ndarray, fill):
    """How many of the ascending ``levels`` are filled (last axis; one fill, or one
    per stacked row): ``fill``, checked at its boundary levels[F] - levels[F - 1]
    alone, or every negative one, with the errors of :func:`particle_ground_state`."""
    if fill is None:
        scale = np.maximum(1.0, np.max(np.abs(levels), axis=-1))
        if np.any(np.min(np.abs(levels), axis=-1) <= ZERO_TOL * scale):
            raise GaplessError("Hamiltonian is gapless; flattening undefined")
        return np.count_nonzero(levels < 0, axis=-1)
    L, F = levels.shape[-1], np.asarray(fill)
    fills, flat = F.ravel().tolist() * (levels.size // L // F.size), levels.ravel()  # one a row
    if min(fills, default=0) < 0 or max(fills, default=0) > L:
        raise ValueError("num_filled out of range")
    at = [b * L + f for b, f in enumerate(fills) if 0 < f < L]  # levels[F] of each row, flat
    if (flat[at] - flat[[a - 1 for a in at]] < DEGENERACY_TOL).any():
        raise DegenerateFillError("filling boundary splits a degenerate level "
                                  "pair; choose a filling below or above it")
    return F


def _last_root(N: int, t1: float, t2: float):
    """``(kappa, 0, level)`` of the edge pair ``k = pi + i kappa`` of
    :func:`open_ssh_ground_state` (t1, t2 >= 0) if ``t2 N > t1 (N + 1)``, else
    ``(0, q, level)`` of ``k = pi - q``.  At that threshold the root merges with
    x = 0, so Newton runs on u = x^2 with x = 0 divided out (the slope at small
    u from its series); concave in u, it lands at or below the root, then climbs."""
    s, top = N + 0.5, t2 * N > t1 * (N + 1)
    c, half = (t2 + t1) / (t2 - t1) if t2 != t1 else math.inf, (math.pi / (2 * N + 1)) ** 2
    if top and c == 1.0:  # t1 under half an ulp of t2: tanh(kappa / 2) = 1 / c, e^-kappa = t1 / t2
        x = math.log(t2 / t1) if t1 else 800.0  # bare end sites: kappa = inf, e^-800 = 0
        return x, 0.0, (t1 / t2) ** N * (t2 - t1 - t1 * math.expm1(-x))
    # q = pi / (2N + 1) at t1 = t2 splits the q of t2 > t1 from the others
    lo, u = ((1e-300, math.log(t2 / t1) ** 2) if top else (1e-300, half) if t2 > t1
             else (half, (math.pi / (N + 1)) ** 2))
    for _ in range(64):
        x = math.sqrt(u)
        if top:  # f = 1/2 - r, r = artanh(tanh(s kappa) / c) / kappa; b its slope at u = 0
            T = math.tanh(s * x)
            r, dr = math.atanh(T / c) / x, s * c * (1.0 - T * T) / (c * c - T * T)
            f, small, b = 0.5 - r, s * s * u < 1e-4, s ** 3 * (c * c - 1.0) / (3.0 * c ** 3)
        else:  # f = s - r, r = arg((t2 - t1) cos(q / 2) + i (t1 + t2) sin(q / 2)) / q
            sin = math.sin(x / 2.0)
            r = math.atan2((t1 + t2) * sin, (t2 - t1) * math.cos(x / 2.0)) / x
            dr = (t2 * t2 - t1 * t1) / (2.0 * ((t2 - t1) ** 2 + 4.0 * t1 * t2 * sin ** 2))
            f, small, b = s - r, t2 > t1 and c * c * u < 1e-4, c * (c * c - 1.0) / 24.0
        new = max(u - f / (b if small else (r - dr) / (2.0 * u)), lo)  # dr: d(x r)/dx
        if abs(new - u) <= 4e-15 * (u + 1.0 / (s * s)):
            break
        u = new
    x = math.sqrt(new)
    if top:
        return x, 0.0, math.exp(-N * x) * (t2 - t1 - t1 * math.expm1(-x))
    return 0.0, x, math.sqrt((t2 - t1) ** 2 + 4.0 * t1 * t2 * math.sin(x / 2.0) ** 2)


def _bulk_roots(N: int, t1, t2):
    """Roots k_j of :func:`open_ssh_ground_state` (t1, t2 >= 0, scalars or (B, 1)
    columns), the slope N + psi' and psi at each: Newton on f = N k + psi - j pi
    from j pi / N, a root stopping at its first step within f / slope's rounding."""
    jpi, sq, cross = np.arange(1, N) * np.pi, t1 * t1 + t2 * t2, 2.0 * t1 * t2
    k = jpi / N
    tol = 8e-16 * np.maximum(k, 1.0)
    for _ in range(64):
        cos = np.cos(k)
        psi = np.arctan2(t1 * np.sin(k), t2 + t1 * cos)
        slope = N + t1 * (t1 + t2 * cos) / (sq + cross * cos)
        new = k - (N * k + psi - jpi) / slope
        if (done := np.abs(new - k) <= tol).all():
            break
        k = np.where(done, k, new)  # so a chain solved in a batch = solved alone
    return k, slope, psi


def open_ssh_ground_state(N: int, t1, t2, fill=None):
    """Ascending levels and Wick data ``corr(i, j)`` (as
    :func:`particle_correlations`) of the clean open SSH chain of N cells,
    bonds t1, t2, ..., t1, from its standing waves (Delplace, Ullmo &
    Montambaux, PRB 84, 195452 (2011)): levels ``+-|t1 + t2 e^{ik}|`` over
    the roots of ``t1 sin((N+1)k) + t2 sin(Nk)``, one per
    ``(j pi/(N+1), j pi/N)``, j < N (:func:`_bulk_roots`: plain Newton on
    ``f = N k + psi - j pi``, psi = arg(t2 + t1 e^{ik}), from j pi/N, where f
    = psi > 0; psi' >= 0 on [0, pi/2] and >= 1/2 - 1/(2 sin k) beyond, so f' >
    (1 - 1/(2 pi)) N on [0, (N-1) pi/N] for every N, and f'' = t1 t2 (t1^2 -
    t2^2) sin k / |t2 + t1 e^{ik}|^4 keeps one sign on (0, pi): the steps fall
    onto the root, t1 > t2, or pass it once and climb back), then ``k = pi - q`` or, if
    ``t2 N > t1 (N+1)``, the edge pair ``k = pi + i kappa``
    (:func:`_last_root`, one chain at a time in Python floats).  ``fill`` and the
    errors are those of :func:`particle_ground_state`, checked at the boundary alone.
    The Wick data are two half-sums, the filled -eps and +eps levels, over the rows of
    the requested modes: bulk columns plus the edge pair's.  A negative bond is gauged away.
    ``t1``, ``t2`` and ``fill`` may also be 1-D arrays over B chains, solved
    together and each as alone: levels (B, 2N), Wick data (B, pairs).  The
    solve holds about 16 length-N floats per chain."""
    if not np.isscalar(t1):  # a batch: (B, 1) columns against the roots
        t1, t2 = np.asarray(t1, float).reshape(-1, 1), np.asarray(t2, float).reshape(-1, 1)
    neg1, neg2, t1, t2 = t1 < 0, t2 < 0, abs(t1), abs(t2)
    root, y = np.arange(1, N), np.arange(1, N + 1)
    k, norm2, psi = _bulk_roots(N, t1, t2)
    roots = [_last_root(N, a, b) for a, b in zip(np.ravel(t1).tolist(), np.ravel(t2).tolist())]
    kappa, q, level = np.array(roots).T.reshape(3, *np.shape(t1)[:-1], -1)  # (B, 1) or (1,)
    # 2 e^{-N kappa} sinh(kappa y) of the edge pair, or sin(q y)
    last = np.exp(kappa * (y - N)) * (np.sin(q * y) - np.expm1(-2.0 * kappa * y))
    eps = np.concatenate([np.sqrt((t1 - t2) ** 2 + 4.0 * t1 * t2 * np.cos(k / 2.0) ** 2),
                          level], axis=-1)  # descending
    levels = np.concatenate([-eps, eps[..., ::-1]], axis=-1)
    if fill is None:  # levels[N - 1] = -eps[-1] and eps[0]: the least and greatest |level|
        _filled(levels[..., N - 1::N], None)
    F = np.asarray(N if fill is None else _filled(levels, fill))[..., None, None]  # per chain
    last /= np.sqrt(2.0 * (last * last).sum(axis=-1, keepdims=True))
    norm = np.sqrt(norm2)[..., None, :]
    # filled: at -eps columns c < F (the edge pair's from N), at +eps c >= 2N - F (from N + 1)
    lo, hi = min(F.flat), max(F.flat)  # a mask only where some chain needs one
    low = None if lo >= N - 1 else np.arange(N - 1) < F
    high = np.arange(N - 1) >= 2 * N - F if hi > N + 1 else None

    def gram(x):  # of the rows of modes x = 2(n - 1) + b of cell n, one per chain
        n, b = np.divmod(x, 2)
        m, flip = n + b, 2.0 * b - 1.0  # the level -eps flips every a_n
        h = flip * (-1.0) ** (m * neg1 + n * neg2)  # times the gauge of negative bonds
        # a_n ~ sin(k(n-1) + psi), b_n ~ sin(kn), of norm^2 N + dpsi/dk, with
        # k m reduced mod 2 pi exactly: k = (j pi - psi) / N; a_n = +-b_{N+1-n}
        R = np.sin(np.pi / N * (m[:, None] * root % (2 * N))
                   + (1 - b - m / N)[:, None] * psi[..., None, :]) / norm * h[..., None]
        e = (-1.0) ** n * h * last[..., np.where(b, n, N - 1 - n)]
        E = e[..., :, None] * e[..., None, :]
        H = (R if low is None else R * low) @ R.swapaxes(-1, -2) + (F >= N) * E
        if hi > N:  # the +eps half, its a_n flipped back
            H += flip[:, None] * flip * ((F > N) * E + (
                0.0 if high is None else (R * high) @ R.swapaxes(-1, -2)))
        return H

    return levels, partial(_gram_wick, gram, 2 * N)


def particle_correlations(V: np.ndarray, i, j):
    """Wick data ``(n_i, n_j, G_ij, 0)`` of mode pairs from the eigenvectors
    of :func:`particle_ground_state`: ``n_i = sum V_i^2``, ``G_ij = sum V_i
    V_j``; elementwise over index arrays and over a stack of states."""
    return _gram_wick(lambda r: (R := V[..., r, :]) @ np.swapaxes(R, -1, -2), V.shape[-2], i, j)


def _gram_wick(gram, num_modes: int, i, j):
    """:func:`particle_correlations` from ``gram(r)``, the Gram matrix of the
    filled eigenvector rows of the modes r: one over the distinct modes the
    pairs touch, indexed for n and G."""
    i, j = _check_pairs(i, j, num_modes)
    touched = np.zeros(num_modes, dtype=int)
    touched[i] = touched[j] = 1
    H = gram(touched.nonzero()[0])
    at = touched.cumsum() - 1  # mode -> its row of the Gram matrix
    a, b = at[i], at[j]
    return H[..., a, a], H[..., b, b], H[..., a, b], 0.0


def _polar_wick(Q: np.ndarray, i, j):
    """``reference.pair_correlations`` of ``majorana_matrix(Q)`` read off the L x L Q:
    n = (1 - Q_ii) / 2, G_ij = -(Q_ij + Q_ji) / 4, F_ij = (Q_ji - Q_ij) / 4."""
    i, j = _check_pairs(i, j, len(Q))
    n = (1.0 - np.diagonal(Q)) / 2.0
    return n[i], n[j], -(Q[i, j] + Q[j, i]) / 4.0, (Q[j, i] - Q[i, j]) / 4.0

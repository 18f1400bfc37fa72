"""Gaussian-state machinery for quadratic fermion Hamiltonians.

Number-conserving chains are solved as L x L particle matrices
(:func:`particle_ground_state`, :func:`particle_correlations`), clean open
SSH chains in closed form (:func:`open_ssh_ground_state`).  The rest
operates on real skew-symmetric matrices in the Majorana convention of
:mod:`chainent.models` (mode ``j`` owns Majorana indices ``2j`` and
``2j+1``).  The chain of operations

    real-space M  ->  spectral flattening  ->  restriction  ->  dense RDM

reconstructs the reduced density matrix of the ground state on any small
subsystem; two-site states need only :func:`pair_correlations`.
Higher-order ground-state correlators come out of Pfaffians of Mbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    DegenerateFillError,
    GaplessError,
    InvalidStateError,
    OddDimensionError,
    SizeError,
)
from .models import majorana_matrix

SKEW_TOL = 1e-12
ZERO_TOL = 1e-12
DEGENERACY_TOL = 1e-10
RDM_MODE_CAP = 10


def _require_skew(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.shape[0] % 2:
        raise OddDimensionError("Majorana matrices have even dimension")
    if np.max(np.abs(M + M.T)) > SKEW_TOL * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not skew-symmetric")
    return M


def _check_pairs(i, j, num_modes: int):
    i, j = np.asarray(i, dtype=int), np.asarray(j, dtype=int)
    if (i == j).any():
        raise IndexError("a pair needs two distinct modes")
    if ((np.minimum(i, j) < 0) | (np.maximum(i, j) >= num_modes)).any():
        raise IndexError("mode index out of range")
    return i, j


@dataclass(frozen=True)
class BlockDiagonalization:
    """Real orthogonal W and nonnegative epsilons with
    ``W M W^T = blockdiag([[0, eps_j], [-eps_j, 0]])``, eps ascending."""

    W: np.ndarray
    epsilons: np.ndarray


def canonical_blocks(epsilons: np.ndarray) -> np.ndarray:
    """Block-diagonal skew matrix with blocks [[0, eps], [-eps, 0]]."""
    L = len(epsilons)
    B = np.zeros((2 * L, 2 * L))
    B[2 * np.arange(L), 2 * np.arange(L) + 1] = epsilons
    B[2 * np.arange(L) + 1, 2 * np.arange(L)] = -np.asarray(epsilons)
    return B


def block_diagonalize(M: np.ndarray) -> BlockDiagonalization:
    """Canonical block form of a real skew-symmetric matrix.

    Realized through the eigendecomposition of the Hermitian matrix iM:
    each eigenvector v with eigenvalue eps > 0 yields the real orthonormal
    pair (sqrt(2) Im v, sqrt(2) Re v); the (near-)zero eigenspace is
    re-orthonormalized over the reals.  Deterministic given M: LAPACK
    ordering, a fixed eigenvector phase, and a lexicographic tie-break on
    degenerate epsilons.
    """
    M = _require_skew(M)
    dim = M.shape[0]
    L = dim // 2
    vals, vecs = np.linalg.eigh(1j * M)
    scale = max(1.0, np.max(np.abs(vals)))
    zero = np.abs(vals) <= ZERO_TOL * scale

    pairs = []  # (eps, u1, u2) with M u1 = -eps u2, M u2 = eps u1
    for idx in np.nonzero(vals > ZERO_TOL * scale)[0]:
        v = vecs[:, idx]
        # fix the phase: largest-magnitude component made positive real
        j = int(np.argmax(np.abs(v)))
        v = v * (np.abs(v[j]) / v[j])
        pairs.append((float(vals[idx]), np.sqrt(2.0) * v.imag, np.sqrt(2.0) * v.real))

    nzero = int(np.count_nonzero(zero))
    if nzero:
        # real orthonormal basis of the zero space
        Z = vecs[:, zero]
        raw = np.hstack([Z.real, Z.imag])
        # rank of raw is exactly nzero; SVD gives a deterministic real
        # orthonormal basis regardless of which columns are degenerate
        u, s, _ = np.linalg.svd(raw, full_matrices=False)
        if nzero < len(s) and s[nzero] > 1e-8:  # pragma: no cover - defensive
            raise RuntimeError("failed to build real zero-space basis")
        q = u[:, :nzero]
        for j in range(nzero):  # fix each column's sign deterministically
            i = int(np.argmax(np.abs(q[:, j])))
            if q[i, j] < 0:
                q[:, j] = -q[:, j]
        for j in range(0, nzero, 2):
            pairs.append((0.0, q[:, j], q[:, j + 1]))

    pairs.sort(key=lambda p: (round(p[0], 12),
                              tuple(np.round(p[1][:4], 9)),
                              tuple(np.round(p[2][:4], 9))))
    W = np.empty((dim, dim))
    eps = np.empty(L)
    for j, (e, u1, u2) in enumerate(pairs):
        eps[j] = e
        W[2 * j] = u1
        W[2 * j + 1] = u2
    return BlockDiagonalization(W=W, epsilons=eps)


def spectral_flatten(M: np.ndarray) -> np.ndarray:
    """Replace every quasiparticle energy by 1: with ``iM = V diag(lam) V^+``,
    ``Mbar = Im(V sign(lam) V^+)``, the real part of -i sign(iM).

    ``Mbar`` is the ground-state Majorana correlation matrix,
    ``Mbar_jk = -i <c_j c_k>`` for ``j != k``, and satisfies
    ``Mbar^2 = -I``.
    """
    M = _require_skew(M)
    vals, V = np.linalg.eigh(1j * M)
    if np.min(np.abs(vals)) <= ZERO_TOL * max(1.0, np.max(np.abs(vals))):
        raise GaplessError("Hamiltonian is gapless; flattening undefined")
    Mbar = ((V * np.sign(vals)) @ V.conj().T).imag
    return (Mbar - Mbar.T) / 2.0  # exact skew-symmetry


def particle_ground_state(A: np.ndarray, fill: int | None = None):
    """Ascending levels and eigenvectors (columns of empty levels zeroed) of
    ``H = sum A_ij a_i^ a_j`` filling the ``fill`` lowest levels, or every
    negative one.  ``A`` is real symmetric, L x L or a stack (..., L, L),
    solved by one (stacked) ``eigh``; a non-symmetric ``A`` (pairing) raises
    ValueError.  ``fill=None`` raises GaplessError as
    :func:`spectral_flatten` does (``eig(iM) = +-levels``); an explicit fill
    raises ValueError outside 0..L and DegenerateFillError inside a
    degenerate pair.  Clean open SSH chains take the closed form,
    :func:`open_ssh_ground_state`; this full-size solve is its test oracle."""
    A = np.asarray(A, dtype=float)
    asym = np.max(np.abs(A - np.swapaxes(A, -1, -2)), initial=0.0)
    if asym > SKEW_TOL * max(1.0, np.max(np.abs(A))):
        raise ValueError("matrix carries pairing terms; particle filling undefined")
    levels, V = np.linalg.eigh(A)
    V *= _filled(levels, fill)[..., None, :]
    return levels, V


def _filled(levels: np.ndarray, fill: int | None) -> np.ndarray:
    """Mask of the ``fill`` lowest of the ascending ``levels`` (last axis),
    or of every negative one, with the errors of
    :func:`particle_ground_state`."""
    L = levels.shape[-1]
    if fill is not None and not 0 <= fill <= L:
        raise ValueError("num_filled out of range")
    scale = np.maximum(1.0, np.max(np.abs(levels), axis=-1))
    if fill is None and np.any(np.min(np.abs(levels), axis=-1) <= ZERO_TOL * scale):
        raise GaplessError("Hamiltonian is gapless; flattening undefined")
    if fill is not None and 0 < fill < L and np.any(
            levels[..., fill] - levels[..., fill - 1] < DEGENERACY_TOL):
        raise DegenerateFillError("filling boundary splits a degenerate level "
                                  "pair; choose a filling below or above it")
    return levels < 0 if fill is None else np.arange(L) < fill


def _newton(f, lo, hi):
    """Root x of each increasing ``f`` (value, slope, ...) on [lo, hi], and
    f(x): Newton steps from hi, bisecting where a step leaves the bracket,
    until no step exceeds 8e-16 max(|hi|, 1), the rounding of f / slope."""
    tol = 8e-16 * np.maximum(np.abs(hi), 1.0)
    x, lo, hi = hi, lo - tol, hi + tol
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            fx = f(x)
            lo, hi = np.where(fx[0] < 0, x, lo), np.where(fx[0] > 0, x, hi)
            new = x - fx[0] / fx[1]
            new = np.where((lo <= new) & (new <= hi), new, (lo + hi) / 2.0)
            if (np.abs(new - x) <= tol).all():
                break
            x = new
    return x, fx


def open_ssh_ground_state(N: int, t1: float, t2: float, fill: int | None = None):
    """Ascending levels and Wick data ``corr(i, j)`` (as
    :func:`particle_correlations`) of the clean open SSH chain of N cells,
    bonds t1, t2, ..., t1, from its standing waves (Delplace, Ullmo &
    Montambaux, PRB 84, 195452 (2011)): levels ``+-|t1 + t2 e^{ik}|`` over
    the roots of ``t1 sin((N+1)k) + t2 sin(Nk)``, one per
    ``(j pi/(N+1), j pi/N)``, j < N, then ``k = pi - q`` or, if
    ``t2 N > t1 (N+1)``, the edge pair ``k = pi + i kappa``.  Only the rows
    of the requested pairs are formed.  A negative bond is gauged away.
    ``fill`` and the errors are those of :func:`particle_ground_state`."""
    sign1, sign2, t1, t2 = np.sign(t1) or 1.0, np.sign(t2) or 1.0, abs(t1), abs(t2)
    j, y = np.arange(1, N), np.arange(1, N + 1)

    def phase(k):  # N k + psi - j pi, its slope, psi
        cos = np.cos(k)
        psi = np.arctan2(t1 * np.sin(k), t2 + t1 * cos)
        slope = N + t1 * (t1 + t2 * cos) / (t1 * t1 + t2 * t2 + 2.0 * t1 * t2 * cos)
        return N * k + psi - j * np.pi, slope, psi

    def edge(x):  # tanh((N + 1/2) x) = c tanh(x/2), c = (t1 + t2) / (t2 - t1)
        T, c = np.tanh((N + 0.5) * x), (t1 + t2) / (t2 - t1)
        return (x / 2.0 - np.arctanh(T / c),
                0.5 - (N + 0.5) * c * (1.0 - T * T) / (c * c - T * T))

    def trivial(x):  # (t2 - t1) tan((N + 1/2) x) = (t1 + t2) tan(x/2), and eps^2
        eps2 = (t2 - t1) ** 2 + 4.0 * t1 * t2 * np.sin(x / 2.0) ** 2
        return ((N + 0.5) * x - np.arctan2((t1 + t2) * np.sin(x / 2.0),
                                           (t2 - t1) * np.cos(x / 2.0)),
                N + 0.5 - (t2 * t2 - t1 * t1) / (2.0 * eps2), eps2)

    k, (_, norm2, psi) = _newton(phase, j * np.pi / (N + 1), j * np.pi / N)
    if t2 * N > t1 * (N + 1):  # t1 = 0 leaves the end sites bare: e^-800 = 0
        kappa = _newton(edge, 0.0, np.log(t2 / t1))[0] if t1 else 800.0
        last = -np.exp(kappa * (y - N)) * np.expm1(-2.0 * kappa * y)  # ~ sinh(kappa y)
        level = np.exp(-N * kappa) * (t2 - t1 - t1 * np.expm1(-kappa))
    else:
        q, (_, _, eps2) = _newton(trivial, 0.0, np.pi / (N + 1))
        last, level = np.sin(q * y), np.sqrt(eps2)
    eps = np.append(np.sqrt((t1 - t2) ** 2 + 4.0 * t1 * t2 * np.cos(k / 2.0) ** 2),
                    level)  # descending
    levels = np.concatenate([-eps, eps[::-1]])
    filled = _filled(levels, fill)
    last /= np.sqrt(2.0 * last @ last)

    def rows(x):  # of mode x = 2(n - 1) + b of cell n
        a, m, n = x % 2 == 0, (x + 1) // 2, x // 2
        s = np.empty((len(x), N))
        # a_n ~ sin(k(n-1) + psi), b_n ~ sin(kn), of norm^2 N + dpsi/dk, with
        # k m reduced mod 2 pi exactly: k = (j pi - psi) / N
        s[:, :-1] = np.sin(np.pi / N * (np.outer(m, j) % (2 * N))
                           + np.outer(a - m / N, psi)) / np.sqrt(norm2)
        s[:, -1] = (-1.0) ** n * last[np.where(a, N - 1 - n, n)]  # a_n = +-b_{N+1-n}
        g = (sign1 ** m * sign2 ** n)[:, None]
        # the level -eps flips every a_n
        return np.hstack([s * np.where(a[:, None], -g, g) * filled[:N],
                          s * g * filled[:N - 1:-1]])

    return levels, partial(_gram_wick, rows, 2 * N)


def particle_correlations(V: np.ndarray, i, j):
    """Wick data ``(n_i, n_j, G_ij, 0)`` of mode pairs from the eigenvectors
    of :func:`particle_ground_state`: ``n_i = sum V_i^2``, ``G_ij = sum V_i
    V_j``; elementwise over index arrays and over a stack of states."""
    return _gram_wick(lambda r: V[..., r, :], V.shape[-2], i, j)


def _gram_wick(rows, num_modes: int, i, j):
    """:func:`particle_correlations` from ``rows(r)``, the filled
    eigenvector rows of the modes r: one Gram product over the distinct
    modes the pairs touch, indexed for n and G."""
    i, j = _check_pairs(i, j, num_modes)
    touched = np.zeros(num_modes, dtype=int)
    touched[i] = touched[j] = 1
    R = rows(np.flatnonzero(touched))
    gram = R @ np.swapaxes(R, -1, -2)
    at = np.cumsum(touched) - 1  # mode -> its row of R
    a, b = at[i], at[j]
    return gram[..., a, a], gram[..., b, b], gram[..., a, b], 0.0


def flatten_from_fill(M: np.ndarray, num_filled: int) -> np.ndarray:
    """Correlation matrix of the state filling the ``num_filled`` lowest
    single-particle levels of a number-conserving Hamiltonian: the Majorana
    form of :func:`particle_ground_state`.

    Coincides with :func:`spectral_flatten` when ``num_filled`` equals the
    number of negative levels, but also covers fillings that place the Fermi
    level above or below midgap states (open-boundary zero modes).
    """
    M = _require_skew(M)
    A = M[0::2, 1::2]
    if np.max(np.abs(M - majorana_matrix(A))) > SKEW_TOL * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix carries pairing terms; particle filling undefined")
    _, V = particle_ground_state(A, num_filled)  # rejects pairing in A
    return majorana_matrix(np.eye(len(A)) - 2.0 * (V @ V.T))  # I - 2P


def mode_majorana_indices(modes) -> np.ndarray:
    """Majorana indices (2j, 2j+1) for each fermionic mode j, in order."""
    out = []
    for m in modes:
        out.extend((2 * m, 2 * m + 1))
    return np.array(out, dtype=int)


def restrict(Mbar: np.ndarray, modes) -> np.ndarray:
    """Principal submatrix of ``Mbar`` on the given fermionic modes.

    The mode order is kept: mode ``modes[0]`` becomes mode 0 of the
    subsystem (and the least significant bit of the Fock basis built by
    :func:`rdm_from_restriction`).
    """
    Mbar = _require_skew(Mbar)
    L = Mbar.shape[0] // 2
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise IndexError("duplicate modes in restriction")
    if any(not 0 <= m < L for m in modes):
        raise IndexError("mode index out of range")
    idx = mode_majorana_indices(modes)
    return Mbar[np.ix_(idx, idx)]


def pair_correlations(Mbar: np.ndarray, i, j):
    """Wick data ``(n_i, n_j, G_ij, F_ij)`` of mode pairs, elementwise over
    index arrays: ``n = <a^+ a>``, ``G_ij = <a_i^+ a_j>``, ``F_ij = <a_i a_j>``.
    ``Mbar`` and the modes are validated as in :func:`restrict`."""
    return _majorana_wick(_require_skew(Mbar), i, j)


def _majorana_wick(Mbar: np.ndarray, i, j):
    """:func:`pair_correlations` on an ``Mbar`` this package built."""
    i, j = _check_pairs(i, j, Mbar.shape[0] // 2)
    # <c_p c_q> = i Mbar_pq for p != q, and a_j = (c_{2j} + i c_{2j+1}) / 2
    A, B, C, D = (Mbar[2 * i + s, 2 * j + t] for s, t in ((0, 0), (0, 1), (1, 0), (1, 1)))
    n = (1.0 - np.diagonal(Mbar, 1)[0::2]) / 2.0
    return n[i], n[j], (C - B + 1j * (A + D)) / 4.0, (1j * (A - D) - B - C) / 4.0


@lru_cache(maxsize=16)
def fock_majoranas(num_modes: int) -> tuple:
    """Dense Majorana operators for ``num_modes`` fermionic modes.

    Occupation bitstrings index the basis with mode 0 as the least
    significant bit; ``a_j = (c_{2j} + i c_{2j+1}) / 2`` with a Jordan-Wigner
    string over the modes below ``j``.
    """
    I2 = np.eye(2)
    Z = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # annihilates |1>
    ops = []
    for j in range(num_modes):
        factors = [I2] * num_modes
        for l in range(j):
            factors[l] = Z
        factors[j] = lower
        a = np.ones((1, 1))
        for f in reversed(factors):  # mode 0 least significant
            a = np.kron(a, f)
        ops.append((a + a.T.conj(), -1j * (a - a.T.conj())))
    return tuple(c for pair in ops for c in pair)


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Dense reduced density matrix together with its eta spectrum.

    ``matrix`` lives in the occupation basis with the first restricted mode
    as the least significant bit; its eigenvalues are
    ``prod_j (1 +/- eta_j) / 2`` over all sign choices.
    """

    num_modes: int
    etas: np.ndarray
    matrix: np.ndarray


def rdm_from_restriction(MbarA: np.ndarray,
                         max_modes: int = RDM_MODE_CAP) -> ReducedDensityMatrix:
    """Reconstruct ``rho_A = prod_j (1/2 - i (eta_j/2) c'_{2j} c'_{2j+1})``
    from a restricted correlation matrix."""
    MbarA = _require_skew(MbarA)
    NA = MbarA.shape[0] // 2
    if NA > max_modes:
        raise SizeError(f"{NA} modes exceeds the dense-RDM cap of {max_modes}")
    bd = block_diagonalize(MbarA)
    etas = bd.epsilons
    if np.max(etas, initial=0.0) > 1.0 + 1e-10:
        raise InvalidStateError("eta spectrum exceeds 1 beyond tolerance")
    etas = np.clip(etas, 0.0, 1.0)
    c = fock_majoranas(NA)
    dim = 2 ** NA
    rho = np.eye(dim, dtype=complex)
    for j in range(NA):
        c1 = sum(bd.W[2 * j, l] * c[l] for l in range(2 * NA))
        c2 = sum(bd.W[2 * j + 1, l] * c[l] for l in range(2 * NA))
        rho = rho @ (0.5 * np.eye(dim) - 0.5j * etas[j] * (c1 @ c2))
    rho = (rho + rho.T.conj()) / 2.0
    return ReducedDensityMatrix(num_modes=NA, etas=etas, matrix=rho)


def pfaffian(A: np.ndarray) -> float:
    """Pfaffian of a real skew-symmetric matrix.

    Skew-symmetric tridiagonalization with partial pivoting; stable at the
    small sizes used here.  ``Pf(A)^2 = det(A)``.
    """
    A = _require_skew(A).copy()
    n = A.shape[0]
    if n == 0:
        return 1.0
    pf = 1.0
    for k in range(0, n - 2, 2):
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if kp != k + 1:
            A[[k + 1, kp]] = A[[kp, k + 1]]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            pf = -pf
        piv = A[k + 1, k]
        if piv == 0.0:
            return 0.0
        pf *= A[k, k + 1]
        tau = A[k + 2:, k] / piv
        A[k + 2:, k + 2:] += (np.outer(tau, A[k + 2:, k + 1])
                              - np.outer(A[k + 2:, k + 1], tau))
    return pf * A[n - 2, n - 1]


def majorana_correlator(Mbar: np.ndarray, indices) -> float:
    """Pfaffian part of a 2n-point ground-state Majorana correlator.

    For strictly increasing Majorana indices ``j_1 < ... < j_{2n}``,
    ``Tr(rho_0 c_{j_1} ... c_{j_2n}) = i^n * majorana_correlator(...)``.
    Odd-order correlators vanish identically and are rejected.  The
    two-point case returns the matrix entry ``Mbar[j, k]`` itself.
    """
    Mbar = _require_skew(Mbar)
    idx = list(indices)
    if len(idx) % 2:
        raise OddDimensionError("odd-order Majorana correlators vanish")
    if any(not 0 <= j < Mbar.shape[0] for j in idx):
        raise IndexError("Majorana index out of range")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise IndexError("indices must be strictly increasing")
    if not idx:
        return 1.0
    return pfaffian(Mbar[np.ix_(idx, idx)])

"""Dense oracles, the independent routes that check the run-time modules.

The run-time modules import nothing from here; ``chainent verify``
(:func:`verify_checks`) and the tests call it.  It holds the dense route of the
Majorana convention of :mod:`chainent.models` (real-space M, its spectral flattening,
restriction, the Fock-space RDM and Pfaffians of Mbar), the two-site RDM
:func:`rdm_pair` and Wootters' :func:`concurrence`, the zone sum
:func:`eta_analytic`, and the writer oracles :func:`fmt` and :func:`read_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import analysis
from .entanglement import (PSD_TOL, Site, _ground_state, _populations, eta_summand,
                           mode_index, x_concurrence)
from .errors import GaplessError, InvalidStateError, OddDimensionError, SizeError
from .gaussian import SKEW_TOL, ZERO_TOL, _check_pairs
from .models import Family, ModelSpec, bz_mean, particle_matrix, ssh_bloch
from .serialize import _FLOATS

RDM_MODE_CAP = 10


def majorana_matrix(H: np.ndarray) -> np.ndarray:
    """Real skew-symmetric M with ``(i/4) c^T M c`` equal to the Hamiltonian
    of the single-particle matrix ``H = A + B`` (see
    :func:`models.particle_matrix`) up to a constant: ``M[0::2, 1::2] = H``,
    ``M[1::2, 0::2] = -H^T``."""
    L = len(H)
    M = np.zeros((2 * L, 2 * L))
    M[0::2, 1::2] = H
    M[1::2, 0::2] = -H.T
    return M


def realspace_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Real skew-symmetric M with ``H = (i/4) c^T M c`` equal to the model
    Hamiltonian (plus onsite disorder when present), for any boundary
    condition and disorder realization."""
    return majorana_matrix(particle_matrix(spec))


def _require_skew(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.shape[0] % 2:
        raise OddDimensionError("Majorana matrices have even dimension")
    if np.max(np.abs(M + M.T)) > SKEW_TOL * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not skew-symmetric")
    return M


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
    ``Mbar^2 = -I``.  A state filling other than every negative level is the
    flattening of M with the Fermi level moved into its gap.
    """
    M = _require_skew(M)
    vals, V = np.linalg.eigh(1j * M)
    if np.min(np.abs(vals)) <= ZERO_TOL * max(1.0, np.max(np.abs(vals))):
        raise GaplessError("Hamiltonian is gapless; flattening undefined")
    Mbar = ((V * np.sign(vals)) @ V.conj().T).imag
    return (Mbar - Mbar.T) / 2.0  # exact skew-symmetry


def restrict(Mbar: np.ndarray, modes) -> np.ndarray:
    """Principal submatrix of ``Mbar`` on the given fermionic modes, their
    Majorana indices (2j, 2j+1) in order.

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
    idx = (2 * np.array(modes, dtype=int)[:, None] + [0, 1]).ravel()
    return Mbar[np.ix_(idx, idx)]


def pair_correlations(Mbar: np.ndarray, i, j):
    """Wick data ``(n_i, n_j, G_ij, F_ij)`` of mode pairs, elementwise over
    index arrays: ``n = <a^+ a>``, ``G_ij = <a_i^+ a_j>``, ``F_ij = <a_i a_j>``.
    ``Mbar`` and the modes are validated as in :func:`restrict`."""
    Mbar = _require_skew(Mbar)
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


def rdm_from_restriction(MbarA: np.ndarray) -> ReducedDensityMatrix:
    """Reconstruct ``rho_A = prod_j (1/2 - i (eta_j/2) c'_{2j} c'_{2j+1})``
    from a restricted correlation matrix."""
    MbarA = _require_skew(MbarA)
    NA = MbarA.shape[0] // 2
    if NA > RDM_MODE_CAP:
        raise SizeError(f"{NA} modes exceeds the dense-RDM cap of {RDM_MODE_CAP}")
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


def eta_analytic(spec: ModelSpec, site1: Site, site2: Site) -> float:
    """Brillouin-zone-sum eta coefficient of a clean periodic SSH pair.

    eta_{a_n b_m} = (1/N) sum_k cos[k (m - n) + phi(k)]; same-sublattice
    pairs give exactly zero.  Sites are checked as on the real-space route:
    ValueError for a sublattice other than 'a' or 'b', IndexError for a cell
    outside 0..N-1 or a site paired with itself.  Raises GaplessError at the
    band touching (lambda = 0 with even N).
    """
    if spec.family is not Family.SSH:
        raise ValueError("eta_analytic applies to SSH specs")
    if not spec.clean_periodic:
        raise ValueError("analytic route requires a clean periodic chain")
    i, j = map(int, _check_pairs(mode_index(site1), mode_index(site2), spec.num_modes))
    if i % 2 == j % 2:
        return 0.0
    if i % 2:  # eta_{b_n a_m} = eta_{a_m b_n}
        i, j = j, i
    return bz_mean(partial(eta_summand, d=j // 2 - i // 2),
                   partial(ssh_bloch, spec.lam), spec.N)


@dataclass(frozen=True)
class TwoSiteRDM:
    """4x4 two-site reduced density matrix in the occupation basis, the
    first listed site the least significant bit.

    ``eta`` is set when the matrix has the one-parameter form
    (1/4) [[1-eta^2,,,], [, 1+eta^2, -2 eta,], [, -2 eta, 1+eta^2,], [,,, 1-eta^2]].
    """

    matrix: np.ndarray
    sites: tuple
    eta: float | None = None


def x_state(n_i, n_j, G, F) -> np.ndarray:
    """Two-site RDM from the Wick data of :func:`pair_correlations`,
    site i the least significant bit: diag(p00, p10, p01, p11) with
    ``p11 = n_i n_j - |G|^2 + |F|^2``, ``rho[2, 1] = G``, ``rho[3, 0] = -F``."""
    m = np.diag(np.array(_populations(n_i, n_j, G, F), dtype=complex))
    m[2, 1], m[1, 2], m[3, 0], m[0, 3] = G, np.conj(G), -F, -np.conj(F)
    return m


def rdm_matrix_from_eta(eta: float) -> np.ndarray:
    """The X state at half filling without pairing: n = 1/2, G = -eta/2, F = 0."""
    return x_state(0.5, 0.5, -0.5 * eta, 0.0)


def rdm_pair(spec: ModelSpec, site1: Site, site2: Site,
             fill: int | None = None) -> TwoSiteRDM:
    """Two-site reduced density matrix of the ground state
    (:func:`entanglement._ground_state`), sites labelled as in
    :func:`entanglement.mode_index`.  ``fill`` selects the number of occupied
    single-particle levels for fillings other than "all negative levels"
    (open-boundary zero modes).
    """
    n1, n2, G, F = _ground_state(spec, fill)(mode_index(site1, spec.family),
                                            mode_index(site2, spec.family))
    eta = None
    if abs(F) < 1e-12 and abs(n1 - n2) < 1e-12 and abs(1.0 - n1 - n2) < 1e-12:
        eta = float(-2.0 * G.real)
    return TwoSiteRDM(x_state(n1, n2, G, F), (site1, site2), eta=eta)


_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real


def concurrence(rdm) -> float:
    """Two-qubit concurrence (spin-flip construction).

    Accepts a :class:`TwoSiteRDM` or a bare 4x4 matrix.  Validates trace,
    hermiticity and positivity before evaluating.
    """
    rho = rdm.matrix if isinstance(rdm, TwoSiteRDM) else np.asarray(rdm, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError("two-site RDM must be 4x4")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise InvalidStateError("trace differs from 1 beyond tolerance")
    if np.max(np.abs(rho - rho.T.conj())) > 1e-8:
        raise InvalidStateError("matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(rho)) < -PSD_TOL:
        raise InvalidStateError("matrix is not positive semidefinite")
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    mu = np.linalg.eigvals(rho @ rho_tilde)
    roots = np.sqrt(np.clip(mu.real, 0.0, None))
    roots.sort()
    return float(max(0.0, roots[-1] - roots[-3] - roots[-2] - roots[0]))


def fmt(x) -> str:
    """A CSV cell: empty for None, ``%.17g`` for floats, ``str`` otherwise."""
    if x is None:
        return ""
    if isinstance(x, _FLOATS):
        return "%.17g" % float(x)
    return str(x)


def _cell(text):
    try:
        return float(text) if text else None
    except ValueError:
        return text


def read_csv(path):
    """Read back a file written by write_csv; floats recover bit-exactly."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, [list(map(_cell, line.rstrip("\n").split(","))) for line in fh]


def verify_checks():
    """(name, check, tolerance) triples of ``chainent verify``: each check
    computes its residual explicitly and passes when it is at most the
    tolerance (not NaN)."""
    A = np.random.default_rng(7).normal(size=(8, 8))

    def flat_involution():
        Mbar = spectral_flatten(realspace_hamiltonian(ModelSpec.ssh(12, 0.3)))
        return max(np.max(np.abs(Mbar @ Mbar + np.eye(len(Mbar)))),
                   np.max(np.abs(spectral_flatten(Mbar) - Mbar)))

    def block_roundtrip():
        M = realspace_hamiltonian(ModelSpec.ssh(10, -0.4))
        bd = block_diagonalize(M)
        return np.max(np.abs(bd.W.T @ canonical_blocks(bd.epsilons) @ bd.W - M))

    def rdm_consistency():  # the FFT route of a clean ring against eta_analytic's zone sum
        spec = ModelSpec.ssh(8, 0.5)
        rdm = rdm_pair(spec, (0, "a"), (0, "b"))
        eta = eta_analytic(spec, (0, "a"), (0, "b"))
        return max(np.max(np.abs(rdm.matrix - rdm_matrix_from_eta(eta))),
                   abs(np.trace(rdm.matrix) - 1.0))

    def polar_route():  # rdm_pair of an open Kitaev chain against its Majorana flattening
        spec = ModelSpec.kitaev(8, delta=0.7, mu=1.2, boundary="open")
        Mbar = spectral_flatten(realspace_hamiltonian(spec))
        return max(np.max(np.abs(rdm_pair(spec, (i, "s"), (j, "s")).matrix
                                 - x_state(*pair_correlations(Mbar, i, j))))
                   for i, j in zip(*np.triu_indices(spec.N, k=1)))

    def closed_form_pairs():
        worst = 0.0
        for spec in (ModelSpec.ssh(6, 0.3, boundary="open"),
                     ModelSpec.kitaev(7, delta=0.7, mu=1.2)):
            Mbar = spectral_flatten(realspace_hamiltonian(spec))
            for i, j in zip(*np.triu_indices(spec.num_modes, k=1)):
                dense = rdm_from_restriction(restrict(Mbar, [i, j]))
                wick = pair_correlations(Mbar, i, j)
                worst = max(worst, abs(concurrence(dense.matrix) - x_concurrence(*wick)))
        return worst

    return [("flattened matrix squares to -identity", flat_involution, 1e-12),
            ("block diagonalization round trip", block_roundtrip, 1e-12),
            ("pfaffian squared equals determinant",
             lambda: abs(pfaffian(A - A.T) ** 2 - np.linalg.det(A - A.T)), 1e-9),
            ("two-site RDM matches analytic form", rdm_consistency, 1e-12),
            ("open Kitaev pair RDM matches flattened Majorana matrix", polar_route, 1e-12),
            ("closed-form pair concurrence equals dense RDM concurrence",
             closed_form_pairs, 1e-12),
            ("even-N jump equals 2/N", lambda: max(
                abs(analysis.jump_at_zero(N) - 2.0 / N) for N in (8, 10, 50)), 1e-12),
            ("|eta1(lambda_plus)| equals sqrt(2) - 1", lambda: max(  # where C1 dies
                abs(abs(analysis.eta1(analysis.critical_report(N).lambda_plus, N))
                    + 1.0 - np.sqrt(2.0)) for N in (None, 64)), 1e-11)]

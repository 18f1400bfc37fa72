import numpy as np
import pytest

from chainent import gaussian, models
from chainent.errors import (DegenerateFillError, GaplessError,
                             InvalidStateError, OddDimensionError, SizeError)
from chainent.models import ModelSpec


def ssh_matrix(N, lam, **kw):
    return models.realspace_hamiltonian(ModelSpec.ssh(N, lam, **kw))


# --------------------------------------------------------- block structure

def test_block_diagonalize_roundtrip():
    M = ssh_matrix(10, -0.4)
    bd = gaussian.block_diagonalize(M)
    B = gaussian.canonical_blocks(bd.epsilons)
    assert np.allclose(bd.W @ bd.W.T, np.eye(len(M)), atol=1e-12)
    assert np.allclose(bd.W.T @ B @ bd.W, M, atol=1e-12)
    assert np.all(bd.epsilons >= 0)
    assert np.all(np.diff(bd.epsilons) >= -1e-12)  # sorted ascending


def test_block_diagonalize_deterministic():
    M = ssh_matrix(8, 0.3)
    bd1 = gaussian.block_diagonalize(M)
    bd2 = gaussian.block_diagonalize(M.copy())
    assert np.array_equal(bd1.W, bd2.W)
    assert np.array_equal(bd1.epsilons, bd2.epsilons)


def test_block_diagonalize_rejects_nonskew():
    with pytest.raises(ValueError):
        gaussian.block_diagonalize(np.eye(4))


def test_block_diagonalize_with_zero_modes():
    """Gapless M (lambda=0, even N) still block-diagonalizes orthogonally."""
    M = ssh_matrix(8, 0.0)
    bd = gaussian.block_diagonalize(M)
    assert np.allclose(bd.W @ bd.W.T, np.eye(len(M)), atol=1e-12)
    B = gaussian.canonical_blocks(bd.epsilons)
    assert np.allclose(bd.W.T @ B @ bd.W, M, atol=1e-12)
    assert np.min(bd.epsilons) < 1e-12


# ------------------------------------------------------------- flattening

def test_spectral_flatten_involution():
    M = ssh_matrix(12, 0.3)
    Mbar = gaussian.spectral_flatten(M)
    assert np.allclose(Mbar, -Mbar.T)
    assert np.allclose(Mbar @ Mbar, -np.eye(len(M)), atol=1e-12)
    assert np.allclose(gaussian.spectral_flatten(Mbar), Mbar, atol=1e-12)


def test_spectral_flatten_gapless_raises():
    with pytest.raises(GaplessError):
        gaussian.spectral_flatten(ssh_matrix(8, 0.0))


def test_flatten_from_fill_matches_half_filling():
    M = ssh_matrix(9, 0.4)
    assert np.allclose(gaussian.flatten_from_fill(M, 9),
                       gaussian.spectral_flatten(M), atol=1e-12)


def test_flatten_from_fill_degenerate_raises():
    # lambda=0 even N: levels at the Fermi point are degenerate
    with pytest.raises(DegenerateFillError):
        gaussian.flatten_from_fill(ssh_matrix(8, 0.0), 8)


def test_flatten_from_fill_rejects_pairing():
    M = models.realspace_hamiltonian(ModelSpec.kitaev(6, delta=0.5, mu=0.3))
    with pytest.raises(ValueError):
        gaussian.flatten_from_fill(M, 3)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_particle_ground_state_rejects_pairing(boundary):
    """A Kitaev particle matrix (hopping plus antisymmetric pairing) is not
    a number-conserving Hamiltonian, alone or in a stack."""
    A = models.particle_matrix(
        ModelSpec.kitaev(6, delta=0.5, mu=0.3, boundary=boundary))
    for fill in (None, 3):
        with pytest.raises(ValueError):
            gaussian.particle_ground_state(A, fill)
    with pytest.raises(ValueError):
        gaussian.particle_ground_state(np.stack([(A + A.T) / 2.0, A]))


def _levels_matrix(levels, seed):
    """Symmetric matrix with the given levels in a random orthogonal basis."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(levels),) * 2))
    return (Q * levels) @ Q.T


def test_particle_projector_falls_back_to_eigh_where_uncertified(monkeypatch):
    """A level at 10 ZERO_TOL needs about 70 Newton-Schulz steps to converge
    (alpha >= 2 here), more than the 68 that still certify the gap, so that
    matrix alone of its stack goes to particle_ground_state.  The others stop
    at different steps, each with the value it has alone."""
    near = [-2.0, -1.5, -0.5, 10 * gaussian.ZERO_TOL, 0.7, 1.0, 1.5, 2.0]
    far = [-2.0, -1.5, -0.5, -0.3, 0.3, 0.7, 1.5, 2.0]
    closer = [-2.0, -1.5, -0.5, -1e-3, 0.3, 0.7, 1.5, 2.0]
    A = np.stack([_levels_matrix(far, 1), _levels_matrix(near, 2),
                  _levels_matrix(closer, 3)])
    assert np.abs(A[1]).sum(axis=-1).max() >= 2.0
    solved, solve = [], gaussian.particle_ground_state
    monkeypatch.setattr(gaussian, "particle_ground_state",
                        lambda a: solved.append(a) or solve(a))
    P = gaussian.particle_projector(A)
    assert len(solved) == 1 and np.array_equal(solved[0], A[1:2])
    _, V = solve(A[1:2])
    assert np.array_equal(P[1], (V @ np.swapaxes(V, -1, -2))[0])
    for a, p in zip(A, P):
        _, V = solve(a)
        assert np.max(np.abs(p - V @ V.T)) < 1e-14
        assert np.array_equal(p, gaussian.particle_projector(a))
        assert np.array_equal(p, gaussian.particle_projector(np.asfortranarray(a)))
    assert np.trace(P[1]) == pytest.approx(3.0, abs=1e-12)


def test_particle_projector_gapless_and_pairing_errors():
    """A gapless stack raises the GaplessError of particle_ground_state, and
    a matrix with pairing its ValueError."""
    A = np.stack([models.particle_matrix(ModelSpec.ssh(8, lam))
                  for lam in (0.3, 0.0)])
    with pytest.raises(GaplessError) as want:
        gaussian.particle_ground_state(A)
    with pytest.raises(GaplessError) as got:
        gaussian.particle_projector(A)
    assert str(got.value) == str(want.value)
    # levels ~1e-4 and one at ZERO_TOL / 2, gapless for particle_ground_state:
    # the iteration converges in about 56 steps, past the 48 that certify
    # min |E| > ZERO_TOL max(1, alpha) at this alpha, while a matrix with a
    # level at 10 ZERO_TOL keeps the stack iterating to step 68
    tiny = _levels_matrix(1e-4 * np.array([-2.0, -1.5, -0.5, 0.0, 0.7, 1.0, 1.5, 2.0])
                          + [0, 0, 0, gaussian.ZERO_TOL / 2, 0, 0, 0, 0], 4)
    slow = _levels_matrix([-2.0, -1.5, -0.5, 10 * gaussian.ZERO_TOL, 0.7, 1.0, 1.5, 2.0], 2)
    with pytest.raises(GaplessError):
        gaussian.particle_ground_state(tiny)
    with pytest.raises(GaplessError):
        gaussian.particle_projector(np.stack([slow, tiny]))
    kitaev = models.particle_matrix(ModelSpec.kitaev(6, delta=0.5, mu=0.3))
    with pytest.raises(ValueError, match="pairing"):
        gaussian.particle_projector(kitaev)


# ------------------------------------------------------------- restriction

def test_restrict_keeps_mode_order():
    M = ssh_matrix(6, 0.5)
    Mbar = gaussian.spectral_flatten(M)
    sub = gaussian.restrict(Mbar, [1, 4])
    idx = [2, 3, 8, 9]
    assert np.array_equal(sub, Mbar[np.ix_(idx, idx)])


def test_pair_correlations_validates_like_restrict():
    Mbar = gaussian.spectral_flatten(ssh_matrix(3, 0.5))
    for i, j in ([1, 1], [0, 6], [-1, 2], [[0, 2], [3, 2]]):
        with pytest.raises(IndexError):
            gaussian.pair_correlations(Mbar, i, j)
    with pytest.raises(ValueError):
        gaussian.pair_correlations(Mbar + np.eye(len(Mbar)), 0, 1)


# ------------------------------------------------------------------- RDM

def test_rdm_properties():
    Mbar = gaussian.spectral_flatten(ssh_matrix(6, 0.5))
    rdm = gaussian.rdm_from_restriction(gaussian.restrict(Mbar, [0, 1]))
    rho = rdm.matrix
    assert rho.shape == (4, 4)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    evals = np.linalg.eigvalsh(rho)
    assert np.all(evals > -1e-12)
    # eigenvalues are prod (1 +/- eta_j)/2 over sign choices
    e = rdm.etas
    want = sorted((1 + s1 * e[0]) * (1 + s2 * e[1]) / 4.0
                  for s1 in (1, -1) for s2 in (1, -1))
    assert np.allclose(sorted(evals), want, atol=1e-12)


def test_rdm_pure_state_limit():
    """Restricting to the full system gives a pure state (all eta = 1)."""
    Mbar = gaussian.spectral_flatten(ssh_matrix(2, 0.5))
    rdm = gaussian.rdm_from_restriction(Mbar)
    assert np.allclose(rdm.etas, 1.0, atol=1e-12)
    evals = np.linalg.eigvalsh(rdm.matrix)
    assert abs(np.max(evals) - 1.0) < 1e-10


def test_rdm_size_cap():
    with pytest.raises(SizeError):
        gaussian.rdm_from_restriction(np.zeros((22, 22)))


def test_rdm_invalid_state():
    bad = np.array([[0.0, 2.0], [-2.0, 0.0]])  # eta = 2 > 1
    with pytest.raises(InvalidStateError):
        gaussian.rdm_from_restriction(bad)


def test_fock_majoranas_algebra():
    cs = gaussian.fock_majoranas(3)
    assert len(cs) == 6
    for i, ci in enumerate(cs):
        assert np.allclose(ci, ci.conj().T)
        for j, cj in enumerate(cs):
            anti = ci @ cj + cj @ ci
            assert np.allclose(anti, (2.0 if i == j else 0.0) * np.eye(8))


def test_fock_majoranas_lsb_convention():
    """Mode 0 is the least significant bit: its number operator is
    diag(0,1,0,1,...)."""
    cs = gaussian.fock_majoranas(2)
    n0 = (np.eye(4) + 1j * cs[0] @ cs[1]) / 2.0
    assert np.allclose(np.diag(n0).real, [0, 1, 0, 1])


# -------------------------------------------------------------- pfaffians

def test_pfaffian_small_cases():
    A = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert gaussian.pfaffian(A) == pytest.approx(3.0)
    a, b, c, d, e, f = 1.0, -2.0, 0.5, 3.0, -1.5, 2.5
    A4 = np.array([[0, a, b, c], [-a, 0, d, e],
                   [-b, -d, 0, f], [-c, -e, -f, 0]])
    assert gaussian.pfaffian(A4) == pytest.approx(a * f - b * e + c * d)


def test_pfaffian_squares_to_det():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8, 12, 16):
        A = rng.normal(size=(n, n))
        A = A - A.T
        pf = gaussian.pfaffian(A)
        det = np.linalg.det(A)
        assert pf * pf == pytest.approx(det, rel=1e-8)


def test_pfaffian_odd_dimension():
    with pytest.raises(OddDimensionError):
        gaussian.pfaffian(np.zeros((3, 3)))


def test_majorana_correlator_two_point():
    Mbar = gaussian.spectral_flatten(ssh_matrix(4, 0.5))
    assert gaussian.majorana_correlator(Mbar, [1, 6]) == pytest.approx(
        Mbar[1, 6])


def test_majorana_correlator_wick():
    Mbar = gaussian.spectral_flatten(ssh_matrix(4, 0.5))
    i, j, k, l = 0, 1, 2, 5
    want = (Mbar[i, j] * Mbar[k, l] - Mbar[i, k] * Mbar[j, l]
            + Mbar[i, l] * Mbar[j, k])
    assert gaussian.majorana_correlator(Mbar, [i, j, k, l]) == pytest.approx(
        want, abs=1e-12)


def test_majorana_correlator_rejects_bad_indices():
    Mbar = gaussian.spectral_flatten(ssh_matrix(4, 0.5))
    with pytest.raises(OddDimensionError):
        gaussian.majorana_correlator(Mbar, [0, 1, 2])
    with pytest.raises(IndexError):
        gaussian.majorana_correlator(Mbar, [3, 1])  # not increasing
    with pytest.raises(IndexError):
        gaussian.majorana_correlator(Mbar, [0, 99])

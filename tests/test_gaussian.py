import warnings

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


def _chain(spec):
    """On-site energies and bonds (site s to s + 1 mod L, 0 on an open
    chain's wrap) of an SSH chain: the input of ``pair_projector``."""
    A = models.particle_matrix(spec)
    s = np.arange(len(A))
    return np.diag(A), A[s, (s + 1) % len(A)]


def _wick(chains, p):
    """``pair_projector`` on a list of (onsite, bonds) chains."""
    onsite, bonds = (np.array(x) for x in zip(*chains))
    return np.array(gaussian.pair_projector(onsite, bonds, p)[:3])


def test_particle_projector_falls_back_to_eigh_where_uncertified(monkeypatch):
    """Chains of 24 sites certified at gaps W 4^-k of every k from 1 to 5 and
    one open chain whose edge splitting lies below the floor W 2^-10: that
    chain alone goes to particle_ground_state, with its particle matrix, every
    chain equals its solo solve bit for bit, and all equal the eigenvector
    Gram product."""
    specs = [ModelSpec.ssh(12, -0.4, disorder=models.DisorderSpec(0.2, 1)),
             ModelSpec.ssh(12, 0.3, boundary="open"),
             ModelSpec.ssh(12, 0.7, disorder=models.DisorderSpec(1.5, 2)),
             ModelSpec.ssh(12, 0.05, boundary="open", disorder=models.DisorderSpec(0.01, 3)),
             ModelSpec.ssh(12, 0.01, disorder=models.DisorderSpec(0.05, 4)),
             ModelSpec.ssh(12, 0.2, boundary="open")]
    chains, p = [_chain(spec) for spec in specs], 11
    ratios = []  # the gap at the Fermi level over the largest absolute row sum
    for spec in specs:
        A = models.particle_matrix(spec)
        ratios.append(np.min(np.abs(np.linalg.eigvalsh(A))) / np.abs(A).sum(axis=1).max())
    assert ratios[1] < 2.0 ** -10 < min(ratios[:1] + ratios[2:])
    assert sorted(np.ceil(-np.log(np.delete(ratios, 1)) / np.log(4.0))) == [1, 2, 3, 4, 5]
    solved, solve = [], gaussian.particle_ground_state
    monkeypatch.setattr(gaussian, "particle_ground_state",
                        lambda a: solved.append(a) or solve(a))
    got = _wick(chains, p)
    assert len(solved) == 1 and np.array_equal(solved[0], models.particle_matrix(specs[1]))
    for b, (chain, spec) in enumerate(zip(chains, specs)):
        assert np.array_equal(got[:, b], _wick([chain], p)[:, 0])
        _, V = solve(models.particle_matrix(spec))
        want = gaussian.particle_correlations(V, p, p + 1)[:3]
        assert np.max(np.abs(got[:, b] - want)) < 1e-13


def test_gap_bound_skips_the_inertia_sweep_of_proven_chains(monkeypatch):
    """Rings like the benchmark's disorder jobs (N = 24, lambda = 0.4,
    amplitude 0.14) have a bulk gap that Weyl and Gershgorin prove in closed
    form: their batch runs no elimination at real shifts.  Mixed with an open
    topological chain, whose edge levels the bound cannot prove, the batch
    runs one real-shift elimination over that chain alone, scaled by its
    largest absolute row sum W, and every chain equals its solo solve bit for
    bit."""
    rings = [_chain(ModelSpec.ssh(24, 0.4, disorder=models.DisorderSpec(0.14, seed)))
             for seed in range(30)]
    edge = _chain(ModelSpec.ssh(24, 0.4, boundary="open", disorder=models.DisorderSpec(0.14, 30)))
    calls, schur = [], gaussian._pair_schur
    monkeypatch.setattr(gaussian, "_pair_schur",
                        lambda o, t, p, z: calls.append((z.dtype.kind, o, t)) or schur(o, t, p, z))
    _wick(rings, 23)
    assert [kind for kind, _, _ in calls] == ["c"]
    calls.clear()
    mixed = rings[:15] + [edge] + rings[15:]
    got = _wick(mixed, 23)
    real = [(o, t) for kind, o, t in calls if kind == "f"]
    assert len(real) == 1
    W = np.max(np.abs(edge[0]) + np.abs(edge[1]) + np.abs(np.roll(edge[1], 1)))
    assert np.array_equal(real[0][0], edge[0][:, None] / W)
    assert np.array_equal(real[0][1], edge[1][:, None] / W)
    for b, chain in enumerate(mixed):
        assert np.array_equal(got[:, b], _wick([chain], 23)[:, 0])


def test_pair_projector_solves_any_finite_scale():
    """sign(A) = sign(A / W): certified chains (N = 16 rings at lambda = 0.4
    with amplitude 0.14 and at lambda = 0.3 with amplitude 2) scaled by a power
    of two give the unscaled Wick data bit for bit, and by 1e155 or 1e300
    within 1e-14, with no overflow anywhere.  An all-zero chain still raises
    the GaplessError of particle_ground_state, with no warning on the way."""
    chains = [_chain(ModelSpec.ssh(16, lam, disorder=models.DisorderSpec(amp, seed)))
              for lam, amp in ((0.4, 0.14), (0.3, 2.0)) for seed in range(5)]
    onsite, bonds = (np.array(x) for x in zip(*chains))
    want = np.array(gaussian.pair_projector(onsite, bonds, 15)[:3])
    for s in (2.0 ** 520, 1e155, 1e300):
        with np.errstate(over="raise"):
            got = np.array(gaussian.pair_projector(s * onsite, s * bonds, 15)[:3])
        if s == 2.0 ** 520:
            assert np.array_equal(got, want)
        assert np.max(np.abs(got - want)) < 1e-14
    zero, mixed = np.zeros((1, 8)), [np.r_[x[:1], 0.0 * x[:1]] for x in (onsite, bonds)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for o, t in ((zero, zero), mixed):  # alone, and after a gapped chain
            with pytest.raises(GaplessError, match="gapless"):
                gaussian.pair_projector(o, t, 3)


def test_particle_projector_gapless_and_pairing_errors():
    """A gapless chain raises the GaplessError of particle_ground_state from
    any batch: a clean even ring at lambda = 0, and a chain whose levels, all
    about 1e-13, fall under ZERO_TOL, where no shift of the inertia count
    exceeds 2 ZERO_TOL.  The same chain scaled to levels about 1e-10 is
    certified and solved.  Pairing cannot be expressed in on-site energies and
    bonds; its ValueError stays with particle_ground_state."""
    gapped, gapless = (_chain(ModelSpec.ssh(8, lam)) for lam in (0.3, 0.0))
    with pytest.raises(GaplessError) as want:
        gaussian.particle_ground_state(models.particle_matrix(ModelSpec.ssh(8, 0.0)))
    with pytest.raises(GaplessError) as got:
        _wick([gapped, gapless], 7)
    assert str(got.value) == str(want.value)
    with pytest.raises(GaplessError):
        _wick([gapped, tuple(1e-13 * x for x in gapped)], 7)
    small = _wick([tuple(1e-10 * x for x in gapped)], 7)[:, 0]
    assert np.max(np.abs(small - _wick([gapped], 7)[:, 0])) < 1e-13
    kitaev = models.particle_matrix(ModelSpec.kitaev(6, delta=0.5, mu=0.3))
    with pytest.raises(ValueError, match="pairing"):
        gaussian.particle_ground_state(kitaev)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_pair_schur_inertia_counts_levels_below_each_shift(boundary):
    """The negative pivots of the central-pair elimination count the levels
    of A below each real shift, as eigvalsh does (Sylvester's law of
    inertia); an exactly vanishing pivot is eliminated with the next site as
    a 2 x 2 block, whose levels lie on either side of the shift."""
    rng = np.random.default_rng(5)
    for N in (2, 3, 8, 13):
        chains = [_chain(ModelSpec.ssh(N, lam, boundary=boundary,
                                       disorder=models.DisorderSpec(amp, seed)))
                  for seed, (lam, amp) in enumerate([(0.3, 0.5), (-0.6, 1.0), (0.05, 0.1)])]
        onsite, bonds = (np.array(x) for x in zip(*chains))
        z = rng.uniform(-2.5, 2.5, (40, len(chains)))
        for p in range(2 * N - 1):
            count = gaussian._pair_schur(onsite.T, bonds.T, p, z)[3]
            for b, (o, t) in enumerate(chains):
                A = np.diag(o) + np.diag(t[:-1], 1) + np.diag(t[:-1], -1)
                A[0, -1] = A[-1, 0] = A[0, -1] + t[-1]
                levels = np.linalg.eigvalsh(A)
                assert np.array_equal(count[:, b], np.sum(levels < z[:, b, None], axis=1))
    # clean, t1 = 1/2, shift 1/2: the pivots from site q + 1 = 4 are -1/2 and
    # -1/2 + (1/2)^2 / (1/2) = 0
    spec = ModelSpec.ssh(4, 0.5, boundary=boundary)
    o, t = _chain(spec)
    count = gaussian._pair_schur(o[:, None], t[:, None], 2, np.array([[0.5], [0.6]]))[3]
    levels = np.linalg.eigvalsh(models.particle_matrix(spec))
    assert np.array_equal(count[:, 0], [np.sum(levels < 0.5), np.sum(levels < 0.6)])
    # integer bonds with an exact zero pivot at +-W/4, one of them on the last site
    # before p, where the block takes in p itself
    for bonds, p in (([3, -1, 3, -1, 3, 0], 1), ([1.5, 0.5, 1.5, 0.5, 1.5, 0], 1),
                     ([-1, 3, -1, 3], 0)):
        t = np.array(bonds, dtype=float)
        A = np.diag(t[:-1], 1) + np.diag(t[:-1], -1)
        A[0, -1] = A[-1, 0] = A[0, -1] + t[-1]
        z = np.array([[1.0], [-1.0]]) * np.max(np.abs(t) + np.abs(np.roll(t, 1))) / 4.0
        count = gaussian._pair_schur(0.0 * t[:, None], t[:, None], p, z)[3]
        assert np.array_equal(count, np.sum(np.linalg.eigvalsh(A) < z, axis=1, keepdims=True))


def test_sncn_matches_mpmath():
    """K, sn and cn from the AGM seeded with the complementary modulus agree
    with mpmath to 1e-15, near k = 1 too (kc = 2^-10, 1e-6)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    frac = np.arange(1, 40, dtype=np.longdouble) / 40
    for kc in (0.5, 0.25, 2.0 ** -10, 1e-6):
        K, sn, cn = gaussian._sncn(frac, np.longdouble(kc))
        m = 1 - mpmath.mpf(kc) ** 2
        want = mpmath.ellipk(m)
        assert abs(float(K) / float(want) - 1.0) < 1e-15
        for f, s, c in zip(frac, sn, cn):
            u = mpmath.mpf(int(f * 40)) / 40 * want
            assert abs(float(s) - float(mpmath.ellipfun("sn", u, m=m))) < 1e-15
            assert abs(float(c) - float(mpmath.ellipfun("cn", u, m=m))) < 1e-15


def test_zolotarev_levels_reach_sign_to_1e14():
    """Every level of Zolotarev's approximant, evaluated in float64 as
    pair_projector sums it, is within 1e-14 of sign(x) = 1 on its interval
    4^-k <= x <= 1 (the approximant is odd), with poles that grow with k."""
    poles = []
    for k in range(1, 6):
        M, omega, w = gaussian._zolotarev(k)
        x = np.concatenate([np.geomspace(4.0 ** -k, 1.0, 20001), np.linspace(4.0 ** -k, 1.0, 20001)])
        approx = M * x
        for om, wj in zip(omega, w):
            approx += wj * x / (x * x + om * om)
        assert np.max(np.abs(approx - 1.0)) < 1e-14
        poles.append(len(omega))
    assert poles == sorted(poles) and poles[0] >= 8 and poles[-1] <= 40


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


@pytest.mark.parametrize("modes,message", [([0, 0], "duplicate modes in restriction"),
                                           ([99], "mode index out of range")],
                         ids=["duplicate", "out-of-range"])
def test_restrict_errors(modes, message):
    """restrict rejects a repeated mode and a mode outside the chain with IndexError."""
    Mbar = gaussian.spectral_flatten(ssh_matrix(8, 0.3))
    with pytest.raises(IndexError) as got:
        gaussian.restrict(Mbar, modes)
    assert type(got.value) is IndexError and str(got.value) == message

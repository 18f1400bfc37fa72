"""Acceptance suite: every deliverable claim of the package, with its
tolerance, in one place.

The Kitaev compressibility (criterion 9b) carries the SSH critical log
divergence through the exact map t = delta, mu = 2t (1 - lambda)/(1 + lambda),
under which eta_z(mu) = -eta1(lambda).  The chain rule turns the SSH
deta1/dlambda -> (2/pi) ln[(e/2)^2 |lambda|] into
dn/dmu -> -(1/(4 pi t)) ln[(e/4)^2 |mu - 2t| / t]; the slope -1/(4 pi delta)
is pinned, together with -8 delta * slope = 2/pi.
"""

import numpy as np
import pytest

from chainent import analysis, entanglement as ent, reference
from chainent.cli import main
from chainent.entanglement import Phase
from chainent.models import Boundary, ModelSpec


# 1. critical point location and symmetry ----------------------------------

def test_acceptance_1_lambda_plus(capsys):
    report = analysis.critical_report()
    lp, lm = report.lambda_plus, report.lambda_minus
    assert 0.136 <= lp <= 0.140
    assert abs(lm + lp) < 1e-9
    assert main(["critical", "--thermodynamic"]) == 0
    assert "lambda_plus" in capsys.readouterr().out


# 2. linear slope of C1 just below lambda_plus -----------------------------

def test_acceptance_2_slope():
    slope = analysis.critical_report().slope_at_plus
    assert slope == pytest.approx(-1.476, rel=0.02)


# 3. even-N jump 2/N; odd N continuous -------------------------------------

def test_acceptance_3_even_jump():
    for N in range(4, 201, 2):
        assert analysis.jump_at_zero(N) == pytest.approx(2.0 / N, abs=1e-9)


def test_acceptance_3_odd_continuity():
    eps = 1e-6
    for N in range(5, 200, 2):
        step = abs(analysis.eta1(eps, N) - analysis.eta1(-eps, N))
        # a parity step would be 2/N; the smooth crossing is ~1e-5
        assert step < 0.1 * (2.0 / N)


# 4. logarithmic divergence of deta1/dlambda -------------------------------

def test_acceptance_4_log_divergence():
    fit = analysis.logfit(window=(1e-5, 1e-3))
    two_over_pi = 2.0 / np.pi
    intercept_ref = two_over_pi * 2.0 * np.log(np.e / 2.0)
    assert fit.slope == pytest.approx(two_over_pi, rel=0.05)
    assert fit.intercept == pytest.approx(intercept_ref, rel=0.10)
    assert fit.asymptotic


# 5. free-energy identity dE/dlambda = N (eta1 - eta2) ----------------------

def test_acceptance_5_free_energy():
    grid = np.linspace(-0.97, 0.95, 21)  # excludes 0 and the band edges
    for N in (11, 16):
        for lam in grid:
            _, _, diff = analysis.free_energy_check(N, float(lam))
            assert diff < 1e-6, (N, lam)


# 6. oracle equivalence ------------------------------------------------------

def test_acceptance_6a_analytic_vs_realspace():
    pairs = [((0, "a"), (0, "b")), ((0, "b"), (1, "a"))]
    for N in range(3, 9):
        for lam in (-0.5, 0.3):
            spec = ModelSpec.ssh(N, lam)
            Mbar = reference.spectral_flatten(
                reference.realspace_hamiltonian(spec))
            for pair in pairs:
                want = reference.rdm_pair(spec, *pair).matrix
                sub = reference.restrict(
                    Mbar, [ent.mode_index(s) for s in pair])
                got = reference.rdm_from_restriction(sub).matrix
                assert np.allclose(got, want, atol=1e-10), (N, lam, pair)


def fock_ground_state(M):
    """Exact many-body ground state of H = (i/4) c^T M c in Fock space."""
    L = len(M) // 2
    cs = reference.fock_majoranas(L)
    H = np.zeros_like(cs[0])
    for j in range(2 * L):
        for k in range(2 * L):
            if M[j, k] != 0.0:
                H = H + (0.25j * M[j, k]) * (cs[j] @ cs[k])
    vals, vecs = np.linalg.eigh(H)
    assert vals[1] - vals[0] > 1e-8  # unique ground state
    return vecs[:, 0], cs


def brute_force_rdm(psi, cs, modes):
    """Fermionic two-mode RDM by Majorana-monomial expansion.

    rho_A = 2^{-n_A} sum over even subsets S of the subsystem Majoranas of
    <c_S> gamma_S^dagger, which reproduces every subsystem expectation value
    and needs no Jordan-Wigner string bookkeeping for non-adjacent modes.
    """
    glob = [c for m in modes for c in (cs[2 * m], cs[2 * m + 1])]
    loc = reference.fock_majoranas(len(modes))
    dim = 2 ** len(modes)
    rho = np.zeros((dim, dim), dtype=complex)
    import itertools
    for r in range(0, 2 * len(modes) + 1, 2):
        for S in itertools.combinations(range(2 * len(modes)), r):
            big = np.eye(len(psi), dtype=complex)
            small = np.eye(dim, dtype=complex)
            for i in S:
                big = big @ glob[i]
                small = small @ loc[i]
            expect = psi.conj() @ big @ psi
            rho += expect * small.conj().T
    return rho / dim


@pytest.mark.parametrize("N,lam", [(2, 0.5), (3, 0.4), (3, -0.3)])
def test_acceptance_6b_brute_force_fock(N, lam):
    spec = ModelSpec.ssh(N, lam)
    M = reference.realspace_hamiltonian(spec)
    Mbar = reference.spectral_flatten(M)
    psi, cs = fock_ground_state(M)
    for modes in ([0, 1], [1, 2]):  # intra-cell and inter-cell pairs
        want = brute_force_rdm(psi, cs, modes)
        got = reference.rdm_from_restriction(
            reference.restrict(Mbar, modes)).matrix
        assert np.allclose(got, want, atol=1e-8), modes


# 7. entanglement structure: only nearest cross-sublattice pairs entangle ---

def test_acceptance_7_structure():
    lams = (-0.9, -0.5, -0.2, 0.2, 0.5, 0.9)
    for N in (7, 8, 15, 16):
        for lam in lams:
            spec = ModelSpec.ssh(N, lam)
            for d in range(1, N):
                # same sublattice: zero at every separation
                ea = reference.eta_analytic(spec, (0, "a"), (d, "a"))
                assert ent.concurrence_from_eta(ea) == 0.0
                # cross sublattice beyond nearest cells: zero
                if min(d, N - d) >= 2:
                    eb = reference.eta_analytic(spec, (0, "a"), (d, "b"))
                    assert ent.concurrence_from_eta(eb) == 0.0, (N, lam, d)


# 8. phase diagram labels ----------------------------------------------------

def test_acceptance_8_phase_labels():
    want = [(-0.5, Phase.P0), (-0.05, Phase.Q0),
            (0.05, Phase.Q1), (0.5, Phase.P1)]
    for lam, phase in want:
        g = ent.entangled_graph(ModelSpec.ssh(31, lam))
        assert g.phase is phase, lam


# 9. Kitaev analog -----------------------------------------------------------

def test_acceptance_9a_kitaev_density_jump():
    for N in range(4, 101, 2):  # even N: the density jumps by 1/N across mu = 2t
        below, above = analysis.kitaev_density([2.0 - 1e-9, 2.0 + 1e-9], N=N).density
        assert above - below == pytest.approx(1.0 / N, abs=1e-6)
    eps = 1e-6
    for N in range(5, 100, 2):  # odd N: continuous across mu = 2t
        below, above = analysis.kitaev_density([2.0 - eps, 2.0 + eps], N=N).density
        assert abs(above - below) < 0.1 / N


def test_acceptance_9b_kitaev_compressibility_slope():
    """Thermodynamic dn/dmu diverges like the SSH deta1/dlambda at mu_c = 2t.

    Near k = pi and mu = 2t - eps the Bloch vector is h_z ~ -eps/2,
    h_y ~ -delta q, so dn/dmu -> -(1/(4 pi delta)) ln|mu - 2t| + const.  At
    t = delta the map mu = 2t (1 - lambda)/(1 + lambda) gives
    eta_z(mu) = -eta1(lambda) exactly; with n = (1 - eta_z)/2 and
    dlambda/dmu = -1/(4t) at lambda = 0 the paper's SSH asymptote becomes
    dn/dmu -> -(1/(4 pi t)) ln[(e/4)^2 |mu - 2t| / t].  Hence the signed
    slope -1/(4 pi delta), the intercept -(1/(4 pi)) ln[(e/4)^2] at
    t = delta = 1, and -8 delta * slope equal to the SSH slope 2/pi.
    """
    window = (1e-5, 1e-3)
    fit = analysis.kitaev_compressibility_logfit(window=window)
    assert fit.slope == pytest.approx(-1.0 / (4.0 * np.pi), rel=0.05)
    intercept_ref = -np.log((np.e / 4.0) ** 2) / (4.0 * np.pi)
    assert fit.intercept == pytest.approx(intercept_ref, rel=0.10)
    assert fit.asymptotic
    # the prefactor scales as 1/delta: the slope doubles at delta = 0.5
    half = analysis.kitaev_compressibility_logfit(window=window, delta=0.5)
    assert half.slope == pytest.approx(-1.0 / (2.0 * np.pi), rel=0.05)
    # through the map the Kitaev slope is the SSH slope of criterion 4
    ssh = analysis.logfit(window=window)
    assert -8.0 * fit.slope == pytest.approx(ssh.slope, rel=1e-3)
    assert -8.0 * fit.slope == pytest.approx(2.0 / np.pi, rel=0.05)


# 10. disorder robustness ----------------------------------------------------

def test_acceptance_10_disorder():
    grid = np.array([-0.005, 0.005])
    even = analysis.disorder_ensemble(16, grid, amplitude=0.1,
                                      num_realizations=100)
    odd = analysis.disorder_ensemble(15, grid, amplitude=0.1,
                                     num_realizations=100)
    gap_even = abs(even.mean_c2[1] - even.mean_c2[0])
    gap_odd = abs(odd.mean_c2[1] - odd.mean_c2[0])
    assert gap_even > 3.0 * gap_odd
    # amplitude 0 reproduces the clean chain exactly
    clean = analysis.disorder_ensemble(16, grid, amplitude=0.0,
                                       num_realizations=5)
    ref = [analysis.central_pair_concurrence(ModelSpec.ssh(16, float(lam)))
           for lam in grid]
    assert np.allclose(clean.mean_c2, ref, atol=1e-12)
    assert np.allclose(clean.std_c2, 0.0, atol=1e-12)


# 11. open-boundary behavior -------------------------------------------------

def test_acceptance_11_obc():
    spec32 = ModelSpec.ssh(32, 0.5, boundary=Boundary.OPEN)
    below = analysis.central_pair_concurrence(
        spec32, fill=analysis.obc_fill_count(32, 0.5, "below"))
    above = analysis.central_pair_concurrence(
        spec32, fill=analysis.obc_fill_count(32, 0.5, "above"))
    assert abs(below - above) < 1e-10
    grid = np.geomspace(0.002, 0.4, 40)
    peaks = [analysis.obc_center_derivative(N, grid).peak_lambda
             for N in (32, 64, 128, 256)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def _obc_peak_height(N):
    """Height of the central-bond dC2/dlambda peak of an open chain: three
    61-point grids on [0.1/N, 2/N], each spanning its predecessor's maximum
    and the points either side."""
    grid = np.linspace(0.1 / N, 2.0 / N, 61)
    for _ in range(3):
        table = analysis.obc_center_derivative(N, grid)
        i = int(np.argmax(table.dc2_dlambda))
        grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, 60)], 61)
    return table.peak_height


def test_acceptance_11_obc_peak_law():
    """The open-chain peak grows like the thermodynamic divergence
    A ln(1/|lambda|), A = (2/pi)(1 + 2/pi): deta1's log slope 2/pi times dC/d|eta|
    = 1 + |eta| at the critical |eta| = 2/pi, with lambda_peak ~ 1/N.  Per unit
    ln N, N = 4096 -> 8192 gives 1.0401, within 3e-3 of A and closer to it than
    N = 256 -> 512 (1.0327)."""
    A = 2.0 / np.pi * (1.0 + 2.0 / np.pi)
    h = {N: _obc_peak_height(N) for N in (256, 512, 4096, 8192)}
    near, far = ((h[2 * N] - h[N]) / np.log(2.0) for N in (4096, 256))
    assert abs(near - A) < 3e-3
    assert abs(near - A) < abs(far - A)


# 12. Pfaffian correctness ---------------------------------------------------

def test_acceptance_12_pfaffian_squares():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n = 2 * int(rng.integers(1, 9))  # even sizes up to 16
        A = rng.normal(size=(n, n))
        A = A - A.T
        pf = reference.pfaffian(A)
        det = np.linalg.det(A)
        assert pf * pf == pytest.approx(det, rel=1e-8)


def test_acceptance_12_correlators_vs_dense_trace():
    import itertools
    spec = ModelSpec.ssh(3, 0.4)  # 6 modes
    M = reference.realspace_hamiltonian(spec)
    Mbar = reference.spectral_flatten(M)
    psi, cs = fock_ground_state(M)
    idx = list(range(12))
    rng = np.random.default_rng(5)
    quads = list(itertools.combinations(idx, 4))
    for q in [quads[i] for i in rng.choice(len(quads), 60, replace=False)]:
        dense = psi.conj() @ cs[q[0]] @ cs[q[1]] @ cs[q[2]] @ cs[q[3]] @ psi
        pf = reference.majorana_correlator(Mbar, list(q))
        # Tr(rho c_{j1} c_{j2} c_{j3} c_{j4}) = i^2 * Pf = -Pf
        assert dense == pytest.approx(-pf, abs=1e-8), q

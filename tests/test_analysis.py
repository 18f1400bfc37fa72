import tracemalloc

import numpy as np
import pytest

from chainent import analysis, gaussian, reference
from chainent.errors import (GaplessError, GridTooCoarseError, NoRootError,
                             ParityError, WindowError)
from chainent.models import Boundary, DisorderSpec, ModelSpec


def test_eta_limits():
    # fully dimerized points: eta1 or eta2 saturates at 1
    assert analysis.eta1(-1.0, 64) == pytest.approx(1.0, abs=1e-12)
    assert analysis.eta2(1.0, 64) == pytest.approx(1.0, abs=1e-12)
    # duality: eta1(lam) = eta2(-lam)
    for lam in (0.1, 0.4, 0.7):
        assert analysis.eta1(lam, 33) == pytest.approx(
            analysis.eta2(-lam, 33), abs=1e-12)
        assert analysis.eta1(lam) == pytest.approx(
            analysis.eta2(-lam), abs=1e-10)


def test_deta1_matches_finite_difference():
    for N in (None, 41):
        lam, h = 0.2, 1e-6
        fd = (analysis.eta1(lam + h, N) - analysis.eta1(lam - h, N)) / (2 * h)
        assert analysis.deta1(lam, N) == pytest.approx(fd, abs=1e-6)


def test_jump_at_zero():
    for N in (4, 10, 64, 200):
        assert analysis.jump_at_zero(N) == pytest.approx(2.0 / N, abs=1e-12)
    with pytest.raises(ParityError):
        analysis.jump_at_zero(7)


def test_lambda_plus_thermodynamic():
    report = analysis.critical_report()
    assert 0.136 <= report.lambda_plus <= 0.140
    assert report.lambda_minus == -report.lambda_plus


def test_sublattice_swap_symmetry():
    """Relabelling a ring's cells (a'_n = b_n, b'_n = a_{n+1}) swaps t1 and t2:
    eta2(lambda) = eta1(-lambda) for every N, which critical_report's
    lambda_minus = -lambda_plus uses."""
    for N in [*range(2, 80), None]:
        for lam in np.linspace(-0.94, 0.96, 39):  # not 0: gapless at even N
            assert abs(analysis.eta2(lam, N) - analysis.eta1(-lam, N)) <= 1e-15
    for N in (3, 8, 59, 599, None):
        report = analysis.critical_report(N)
        assert report.lambda_minus == -report.lambda_plus
        assert abs(analysis.eta2(report.lambda_minus, N)
                   - analysis.eta1(report.lambda_plus, N)) <= 1e-15


def test_lambda_plus_monotone_in_N():
    values = [analysis.critical_report(N).lambda_plus for N in (8, 16, 32, 64)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < analysis.critical_report().lambda_plus


def test_no_root_for_tiny_chains():
    for N in (2, 4):
        with pytest.raises(NoRootError, match=r"^eta1 - \(sqrt\(2\)-1\) does not "
                           r"change sign on \(1e-06, 0\.9\)$"):
            analysis.critical_report(N)


def _brentq_root(N):
    """The oracle: Brent's method at xtol 1e-15, as benchmark/reference.py uses it."""
    from scipy.optimize import brentq
    return brentq(lambda lam: analysis.eta1(lam, N) - analysis.SQRT2_MINUS_1,
                  1e-6, 0.9, xtol=1e-15)


def test_lambda_plus_matches_brentq_oracle():
    """Newton from the N = infinity root lands within 1e-13 of Brent's root
    and reads the C1 slope at its last iterate within 1e-12 of the slope at
    that root, on both parities of N = 3-200, three larger N and N = infinity."""
    for N in [3, *range(5, 201), 226, 599, 4096, None]:
        root, report = _brentq_root(N), analysis.critical_report(N)
        assert abs(report.lambda_plus - root) <= 1e-13, N
        assert report.lambda_minus == -report.lambda_plus
        assert abs(report.slope_at_plus - np.sqrt(2.0) * analysis.deta1(root, N)) <= 1e-12, N


def test_critical_report_zone_passes(monkeypatch):
    """critical_report makes one zone pass per Newton step and no other: the
    bracket ends and the log fit ride on the first.  At most 5 passes for
    N >= 3, 2 from N = 45 and 1 from N = 128 (brentq took 13).  A pass is a
    _grid_means call, or a bz_mean call (the one-point route of eta1)."""
    passes = []
    for name in ("_grid_means", "bz_mean"):
        monkeypatch.setattr(analysis, name, lambda *args, f=getattr(analysis, name), **kw:
                            passes.append(args) or f(*args, **kw))
    for N in [3, *range(5, 301), 599, 4096]:
        passes.clear()
        analysis.critical_report(N)
        assert len(passes) <= (5 if N < 45 else 2 if N < 128 else 1), N


def test_logfit_asymptotic_flagging():
    good = analysis.logfit(window=(1e-5, 1e-3))
    assert good.asymptotic
    bad = analysis.logfit(window=(0.1, 0.5))
    assert not bad.asymptotic


def test_logfit_window_validation():
    with pytest.raises(WindowError):
        analysis.logfit(window=(1e-3, 1e-5))
    with pytest.raises(WindowError):
        analysis.logfit(window=(-1e-3, 1e-5))


def test_sweep_records_gapless_points():
    grid = np.array([-0.1, 0.0, 0.1])
    res = analysis.sweep(grid, N=16)
    assert len(res.errors) == 1
    assert res.errors[0][0] == 0.0
    assert np.isnan(res.eta1[1])
    assert not np.isnan(res.eta1[0])


def test_sweep_derivative_even_odd():
    grid = np.linspace(-0.2, 0.2, 20)  # even count, excludes 0
    even = analysis.sweep(grid, N=16)
    odd = analysis.sweep(grid, N=15)
    i = len(grid) // 2  # first point above 0
    even_step = even.eta1[i - 1] - even.eta1[i]  # eta1 drops by ~2/N
    odd_step = abs(odd.eta1[i] - odd.eta1[i - 1])
    assert even_step > 2.0 / 16
    assert odd_step < 0.5 * even_step  # smooth: no parity step


def test_derivative_validation():
    with pytest.raises(GridTooCoarseError):
        analysis.derivative([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        analysis.derivative([1.0, 2.0, 3.0], [0.0, 1.0, 3.0])  # non-uniform


def test_critical_report():
    rep = analysis.critical_report()
    assert rep.lambda_plus == pytest.approx(0.138, abs=0.002)
    assert rep.slope_at_plus == pytest.approx(-1.476, rel=0.02)
    assert rep.logfit_asymptotic
    assert rep.jump_delta is None
    rep16 = analysis.critical_report(N=16)
    assert rep16.jump_delta == pytest.approx(2.0 / 16, abs=1e-9)


def test_free_energy_identity():
    for N, lam in [(11, 0.3), (16, -0.45)]:
        lhs, rhs, diff = analysis.free_energy_check(N, lam)
        assert diff < 1e-6


def test_kitaev_density_limits():
    # -mu n term: deep positive mu fills the site, deep negative empties it
    full, empty = analysis.kitaev_density([10.0, -10.0]).density
    assert full == pytest.approx(1.0, abs=1e-2)
    assert empty == pytest.approx(0.0, abs=1e-2)


def test_kitaev_density_jump():
    """The even-N density jump across mu = 2t is half the SSH jump, 1/N, as
    the kitaev_density docstring states; odd N has none (ParityError)."""
    for N in (4, 10, 100):
        assert 0.5 * analysis.jump_at_zero(N) == pytest.approx(1.0 / N, abs=1e-12)
        below, above = analysis.kitaev_density([2.0 - 1e-9, 2.0 + 1e-9], N=N).density
        assert above - below == pytest.approx(1.0 / N, abs=1e-6)
    with pytest.raises(ParityError):
        analysis.jump_at_zero(9)


def test_disorder_zero_amplitude_reproduces_clean():
    grid = np.array([-0.3, 0.3])
    table = analysis.disorder_ensemble(8, grid, amplitude=0.0,
                                       num_realizations=3)
    clean = [analysis.central_pair_concurrence(ModelSpec.ssh(8, lam))
             for lam in grid]
    assert np.allclose(table.mean_c2, clean, atol=1e-12)
    assert np.allclose(table.std_c2, 0.0, atol=1e-12)


def test_disorder_std_of_tiny_concurrences():
    """At amplitude 1e200 the central C2 is ~1e-200, whose squared deviations
    underflow; the std of the power-of-two scaled columns does not."""
    table = analysis.disorder_ensemble(6, [0.3, 0.6], amplitude=1e200,
                                       num_realizations=3)
    want = (table.per_seed * 1e200).std(axis=0) / 1e200
    assert np.all(want > 0)
    np.testing.assert_allclose(table.std_c2, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_disorder_ensemble_matches_single_realizations(boundary, chunk,
                                                       monkeypatch):
    """The batched solve of an ensemble equals each realization alone, also
    when the 14 lambda x realization chains exceed one batch (batches of 3),
    where it equals one batch bit for bit."""
    grid = np.array([0.15, 0.35])
    kw = dict(amplitude=0.3, num_realizations=7, base_seed=5, boundary=boundary)
    table = analysis.disorder_ensemble(6, grid, **kw)
    if chunk is not None:
        monkeypatch.setattr(analysis, "_STACK_BYTES", chunk * 16 * (12 + 512))
        chunked = analysis.disorder_ensemble(6, grid, **kw)
        assert np.array_equal(chunked.per_seed, table.per_seed)
    for i, seed in enumerate(table.seeds):
        for j, lam in enumerate(grid):
            spec = ModelSpec.ssh(6, lam, boundary=boundary,
                                 disorder=DisorderSpec(0.3, int(seed)))
            assert table.per_seed[i, j] == pytest.approx(
                analysis.central_pair_concurrence(spec), abs=1e-12)
    assert np.ptp(table.per_seed, axis=0).min() > 1e-3  # seeds differ
    with pytest.raises(ValueError):
        analysis.disorder_ensemble(6, grid, num_realizations=0)


def test_disorder_ensemble_gapless_raises():
    """A clean even ring at lambda = 0 is gapless: the inertia count cannot
    certify a gap, and eigh raises the GaplessError it always did."""
    with pytest.raises(GaplessError, match="^Hamiltonian is gapless; flattening undefined$"):
        analysis.disorder_ensemble(8, [0.3, 0.0], amplitude=0.0, num_realizations=4)


def test_disorder_ensemble_checks_every_lambda_before_it_solves(monkeypatch):
    """A lambda outside [-1, 1] (or NaN) anywhere in the grid raises its
    ValueError before any chain is solved, also after a gapless lambda; a
    gapless lambda alone raises GaplessError."""
    kw = dict(amplitude=0.0, num_realizations=2, boundary="open")
    with pytest.raises(GaplessError):  # lambda = 0.6: edge levels split by ~1e-30
        analysis.disorder_ensemble(40, [0.0, 0.6], **kw)
    for grid in ([0.0, 0.6, 1.2], [0.0, 1.2, 0.6], [np.nan]):
        with pytest.raises(ValueError, match=r"^lambda must lie in \[-1, 1\]$"):
            analysis.disorder_ensemble(40, grid, **kw)

    def no_solve(*args, **kwargs):
        raise AssertionError("pair_projector called")
    monkeypatch.setattr(analysis, "pair_projector", no_solve)
    with pytest.raises(ValueError, match=r"^lambda must lie in \[-1, 1\]$"):
        analysis.disorder_ensemble(12, [0.5, 1.5])


def test_disorder_ensemble_needs_no_eigh_on_deck_cases(monkeypatch):
    """The benchmark's disorder jobs (N 12-24, lambda in +-[0.3, 0.9],
    amplitude up to 0.3) are all certified gapped by the inertia count, so
    no chain falls back to eigh."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for N, realizations in ((12, 10), (17, 20), (24, 30)):
        for grid in ([0.3, 0.6, 0.9], [-0.9, -0.6, -0.3]):
            for amplitude in (0.05, 0.3):
                table = analysis.disorder_ensemble(N, grid, amplitude=amplitude,
                                                   num_realizations=realizations)
                assert np.isfinite(table.per_seed).all()


def test_disorder_ensemble_memory_stays_in_its_chunks():
    """At N = 256 the central-pair route holds a few 512-site rows and
    (poles x chains) arrays per batch, far under the bound the projector's
    stacks once filled (_STACK_BYTES plus a 512 x 512 matrix and a half), so
    a full-size matrix per chain (2 MB each) would show."""
    L = 512
    analysis.disorder_ensemble(4, [0.4], num_realizations=1)  # one-time imports
    tracemalloc.start()
    try:
        analysis.disorder_ensemble(256, [0.4], num_realizations=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < analysis._STACK_BYTES + 1.5 * 8 * L * L


def test_disorder_deterministic():
    grid = np.array([0.3])
    t1 = analysis.disorder_ensemble(8, grid, num_realizations=5, base_seed=9)
    t2 = analysis.disorder_ensemble(8, grid, num_realizations=5, base_seed=9)
    assert np.array_equal(t1.per_seed, t2.per_seed)


def test_obc_fill_count():
    assert analysis.obc_fill_count(16, 0.5, "below") == 15
    assert analysis.obc_fill_count(16, 0.5, "above") == 17
    assert analysis.obc_fill_count(16, -0.5, "below") == 16
    with pytest.raises(ValueError):
        analysis.obc_fill_count(16, 0.5, "middle")


def test_obc_fills_agree():
    spec = ModelSpec.ssh(32, 0.5, boundary=Boundary.OPEN)
    below = analysis.central_pair_concurrence(
        spec, fill=analysis.obc_fill_count(32, 0.5, "below"))
    above = analysis.central_pair_concurrence(
        spec, fill=analysis.obc_fill_count(32, 0.5, "above"))
    assert below == pytest.approx(above, abs=1e-10)


def test_clean_open_chain_takes_the_half_size_route(monkeypatch):
    """A clean open SSH point takes the closed form: it builds no L x L
    particle matrix and forms only the rows of its pairs, O(N) memory
    (about 0.13 MB traced at N = 1024, L = 2048, against 101 MB for the
    full solve and 17 MB for the N x N mirror block it replaced)."""
    import tracemalloc

    from chainent import entanglement

    def refuse(spec):
        raise AssertionError("built the L x L particle matrix")

    monkeypatch.setattr(entanglement, "particle_matrix", refuse)
    spec = ModelSpec.ssh(12, 0.3, boundary=Boundary.OPEN)
    entanglement.entangled_graph(spec)
    reference.rdm_pair(spec, (0, "a"), (11, "b"), fill=11)
    tracemalloc.start()
    try:
        analysis.central_pair_concurrence(
            ModelSpec.ssh(1024, 0.3, boundary=Boundary.OPEN), fill=1023)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _obc_per_point(N, grid, fill):
    return [analysis.central_pair_concurrence(
        ModelSpec.ssh(N, lam, boundary="open"),
        fill=analysis.obc_fill_count(N, lam, fill)) for lam in grid]


def _obc_grids(N):
    thr = 1.0 / (2 * N + 1)  # where the edge pair appears: t2 N = t1 (N + 1)
    return [np.linspace(-0.3, 0.3, 13),  # crosses lambda = 0
            np.array([np.nextafter(thr, 0.0), thr, np.nextafter(thr, 1.0)]),
            np.linspace(-1.0, 1.0, 9)]  # zero bonds at both ends


@pytest.mark.parametrize("N", [2, 3, 64, 255])
@pytest.mark.parametrize("fill", ["below", "above"])
def test_obc_grid_equals_per_point(N, fill, monkeypatch):
    """The batched solves of a grid equal the one-lambda closed form point by
    point, across both last-root branches and both fills, also in chunks of
    two lambdas.  At N = 2 a single particle or hole turns rounding of the
    Wick data into ~1e-8 of C2, so the match must be exact there."""
    for grid in _obc_grids(N):
        c2 = analysis.obc_center_derivative(N, grid, fill).c2
        assert np.max(np.abs(c2 - _obc_per_point(N, grid, fill))) <= 1e-14
        monkeypatch.setattr(analysis, "_STACK_BYTES", 2 * 128 * N)
        assert np.array_equal(analysis.obc_center_derivative(N, grid, fill).c2, c2)
        monkeypatch.undo()


def test_gradient_replica_is_numpys_bit_for_bit():
    """obc's dC2/dlambda in float64 scalars equals np.gradient bit for bit on
    10,000 grids of 3 to 8 points: exactly uniform (np.gradient's own branch),
    linspace, geomspace and sorted uniform draws."""
    rng = np.random.default_rng(26)
    for trial in range(10000):
        n = int(rng.integers(3, 9))
        lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
        x = (0.125 * np.arange(n) - 0.5, np.linspace(lo, hi, n), np.geomspace(1e-4, 1.0, n),
             np.sort(rng.uniform(lo, hi, n)))[trial % 4]
        f = rng.uniform(0.0, 1.0, n)
        assert np.array_equal(analysis._gradient(list(f), list(x)), np.gradient(f, x)), (x, f)


def test_obc_grid_errors_match_per_point(monkeypatch, capsys, tmp_path):
    """A grid with one failing point fails as the per-point loop does: the
    same error class and message, and through the CLI the same exit code and
    one line.  No obc fill splits a degenerate pair at the real tolerance,
    so it is raised until exactly one point of the grid qualifies."""
    from chainent.cli import main
    from chainent.errors import DegenerateFillError

    N, grid = 8, np.linspace(-0.2, 0.2, 5)
    gaps = []
    for lam in grid:
        f = analysis.obc_fill_count(N, lam, "below")
        levels = gaussian.open_ssh_ground_state(N, 1.0 - lam, 1.0 + lam)[0]
        gaps.append(levels[f] - levels[f - 1])
    low, second = np.sort(gaps)[:2]
    monkeypatch.setattr(gaussian, "DEGENERACY_TOL", (low + second) / 2.0)
    with pytest.raises(DegenerateFillError) as per_point:
        _obc_per_point(N, grid, "below")
    with pytest.raises(DegenerateFillError, match=str(per_point.value)):
        analysis.obc_center_derivative(N, grid)
    capsys.readouterr()
    assert main(["obc", "--N", "8", "--grid", "-0.2:0.2:5",
                 "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {per_point.value}\n"
    monkeypatch.undo()
    for n, bad in ((8, [-0.5, 0.0, 1.5]), (8, [0.1, np.nan, 0.2]), (1, [0.1, 0.2, 0.3])):
        with pytest.raises(ValueError) as per_point:
            _obc_per_point(n, bad, "below")
        with pytest.raises(ValueError, match=str(per_point.value).replace("[", r"\[")):
            analysis.obc_center_derivative(n, bad)


def test_obc_memory_stays_flat_at_large_n():
    """At N = 100,000 the grid is solved one lambda at a time: the traced
    peak stays at one point's (13.0 MB), where one batch of five would take
    55 MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        analysis.obc_center_derivative(100_000, np.linspace(0.001, 0.02, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6


def test_thermodynamic_checks_kept():
    for lam in (1.5, -1.01):
        with pytest.raises(ValueError, match=r"lambda must lie in \[-1, 1\]"):
            analysis.eta1(lam)
        with pytest.raises(ValueError, match=r"lambda must lie in \[-1, 1\]"):
            analysis.eta2(lam)
        with pytest.raises(ValueError, match=r"lambda must lie in \[-1, 1\]"):
            analysis.deta1(lam)
    with pytest.raises(GaplessError, match="lambda = 0 is the critical point"):
        analysis.eta2(1e-13)
    with pytest.raises(GaplessError, match="lambda = 0 is the critical point"):
        analysis.eta1(-1e-13)
    with pytest.raises(GaplessError, match="derivative undefined at lambda = 0"):
        analysis.deta1(0.0)
    assert (analysis.eta1(1.0), analysis.eta1(-1.0)) == (0.0, 1.0)
    assert (analysis.eta2(1.0), analysis.eta2(-1.0)) == (1.0, 0.0)


def _per_point(f, grid):
    """Values and (point, message) errors of a per-point loop."""
    values, errors = np.full(len(grid), np.nan), []
    for i, x in enumerate(grid):
        try:
            values[i] = f(x)
        except GaplessError as exc:
            errors.append((float(x), str(exc)))
    return values, errors


@pytest.mark.parametrize("N, stack", [(16, None), (15, None), (None, None),
                                      (16, 3 * 8 * 16), (1000, None)])
def test_sweep_equals_per_point(N, stack, monkeypatch):
    """The whole-grid sweep equals eta1/eta2 point by point, gapless points
    included; ``stack`` forces blocks of 3 lambda."""
    if stack is not None:
        monkeypatch.setattr(analysis, "_STACK_BYTES", stack)
    grid = np.linspace(-1.0, 1.0, 21)  # holds lambda = 0 and both ends
    if N == 1000:  # 1200 x 1000 floats exceed one 8 MB block
        grid = np.linspace(-0.97, 0.97, 1200)
    res = analysis.sweep(grid, N=N)
    for col, f in ((res.eta1, analysis.eta1), (res.eta2, analysis.eta2)):
        want, errors = _per_point(lambda lam: f(lam, N), grid)
        assert res.errors == errors
        assert np.array_equal(np.isnan(col), np.isnan(want))
        assert np.nanmax(np.abs(col - want)) <= 1e-13
    assert len(res.errors) == (0 if N in (15, 1000) else 1)


@pytest.mark.parametrize("N, stack", [(16, None), (15, None), (16, 5 * 8 * 16),
                                      (599, None)])
def test_kitaev_density_equals_per_point(N, stack, monkeypatch):
    if stack is not None:
        monkeypatch.setattr(analysis, "_STACK_BYTES", stack)
    t, delta = 0.9, 0.6
    grid = np.linspace(0.0, 4.0 * t, 41)  # holds mu = 2t
    table = analysis.kitaev_density(grid, t, delta, N)
    want, errors = _per_point(lambda mu: analysis.kitaev_eta_z(mu, t, delta, N),
                              grid)
    assert table.errors == errors
    assert len(errors) == (1 if N % 2 == 0 else 0)
    assert np.array_equal(np.isnan(table.eta_z), np.isnan(want))
    assert np.nanmax(np.abs(table.eta_z - want)) <= 1e-13


def test_kitaev_compressibility_centred_difference():
    mus = np.array([0.1, 0.3, 0.4, 1.0, 1.5])  # non-uniform grids are allowed
    table = analysis.kitaev_density(mus, N=9)
    d = table.density
    assert np.isnan(table.compressibility[[0, -1]]).all()
    assert np.allclose(table.compressibility[1:-1],
                       (d[2:] - d[:-2]) / (mus[2:] - mus[:-2]), rtol=0, atol=0)
    for few in ([0.5], [0.5, 0.7]):
        assert np.isnan(analysis.kitaev_density(few).compressibility).all()


@pytest.mark.filterwarnings("error")
def test_kitaev_density_halves_overflowing_parameters():
    """At t = 1.7e308, -mu/2 - t cos k overflows for mu < 0; scaling mu, t and
    delta first (by models.kitaev_scale) is exact and keeps h/|h|, so the
    halved chain has the same eta_z and the densities are those of
    h_z ~ -mu/(2t) - cos k: arccos(-mu/(2t))/pi, or the grid's share of it."""
    mus = np.linspace(-1.7e308, 0.0, 3)
    ring = analysis.kitaev_density(mus, t=1.7e308, N=8)
    assert ring.density.tolist() == [0.375, 0.375, 0.5]
    halved = analysis.kitaev_density(mus / 2, t=0.85e308, delta=0.5, N=8)
    assert np.array_equal(halved.eta_z, ring.eta_z)
    limit = analysis.kitaev_density(mus, t=1.7e308).density
    assert np.allclose(limit, np.arccos([0.5, 0.25, 0.0]) / np.pi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("call,error,message", [
    (lambda: analysis.eta1(1.5, 16), ValueError, "lambda must lie in [-1, 1]"),
    (lambda: analysis.sweep([0.2, 0.1]), ValueError, "lambda grid must be strictly increasing"),
    (lambda: analysis.obc_center_derivative(8, [0.1, 0.2]), GridTooCoarseError,
     "need at least 3 points"),
    (lambda: analysis.obc_center_derivative(8, [0.1, 0.2, 0.2]), ValueError,
     "lambda grid must be strictly increasing"),
    (lambda: analysis.obc_center_derivative(1, [0.1, 0.2, 0.3]), ValueError,
     "N must be at least 2"),
    (lambda: analysis.obc_center_derivative(8, [-1.5, 0.2, 0.3]), ValueError,
     "lambda must lie in [-1, 1]"),
    (lambda: analysis.obc_center_derivative(8, [0.1, np.nan, 0.3]), ValueError,
     "lambda must lie in [-1, 1]"),
    (lambda: analysis.free_energy_check(16, 1e-5), GaplessError,
     "step straddles the critical point"),
    (lambda: analysis.kitaev_compressibility_logfit((1e-3, 1e-5)), WindowError,
     "fit window must not touch mu_c"),
], ids=["eta1-lambda", "sweep-decreasing", "obc-two-points", "obc-repeated",
        "obc-N", "obc-lambda", "obc-nan",
        "free-energy-step", "kitaev-logfit-window"])
def test_public_errors(call, error, message):
    """Errors of the public analysis API: type and message."""
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message

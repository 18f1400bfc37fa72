import dataclasses
import json

import numpy as np
import pytest

from chainent import entanglement as ent
from chainent import analysis, gaussian, models, reference
from chainent.cli import main
from chainent.entanglement import Phase
from chainent.errors import InvalidStateError
from chainent.models import Boundary, DisorderSpec, ModelSpec


def test_mode_index():
    assert ent.mode_index((0, "a")) == 0
    assert ent.mode_index((0, "b")) == 1
    assert ent.mode_index((3, "a")) == 6


def test_same_sublattice_eta_vanishes():
    spec = ModelSpec.ssh(9, 0.4)
    for d in range(1, 5):
        assert reference.eta_analytic(spec, (0, "a"), (d, "a")) == 0.0
        assert reference.eta_analytic(spec, (0, "b"), (d, "b")) == 0.0


def test_eta_site_order_symmetry():
    spec = ModelSpec.ssh(9, 0.4)
    e1 = reference.eta_analytic(spec, (2, "a"), (3, "b"))
    e2 = reference.eta_analytic(spec, (3, "b"), (2, "a"))
    assert e1 == pytest.approx(e2, abs=1e-14)


def test_eta_finite_converges_to_thermodynamic():
    lam = 0.2
    thermo = analysis.eta1(lam)

    def err(N):
        spec = ModelSpec.ssh(N, lam)
        return abs(reference.eta_analytic(spec, (0, "a"), (0, "b")) - thermo)

    # the error falls exponentially in N (2.2e-3, 2.8e-5, 6.0e-9), so the
    # strict decrease is checked while it is far above rounding level
    errs = [err(N) for N in (11, 21, 41)]
    assert errs[0] > errs[1] > errs[2]
    assert err(1001) < 1e-14


def test_rdm_pair_routes_agree():
    """Analytic route and real-space pipeline give the same matrix."""
    spec = ModelSpec.ssh(8, 0.4)
    for pair in [((0, "a"), (0, "b")), ((0, "b"), (1, "a"))]:
        analytic = reference.rdm_pair(spec, *pair).matrix
        M = reference.realspace_hamiltonian(spec)
        Mbar = reference.spectral_flatten(M)
        sub = reference.restrict(Mbar, [ent.mode_index(s) for s in pair])
        pipeline = reference.rdm_from_restriction(sub).matrix
        assert np.allclose(analytic, pipeline, atol=1e-12)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_rdm_pair_kitaev_sites(boundary):
    """Kitaev sites are (n, 's'): rdm_pair reproduces the graph edge and the
    dense Fock-space RDM, and SSH labels are rejected."""
    spec = ModelSpec.kitaev(8, delta=0.7, mu=0.5, boundary=boundary)
    rdm = reference.rdm_pair(spec, (1, "s"), (2, "s"))
    Mbar = reference.spectral_flatten(reference.realspace_hamiltonian(spec))
    dense = reference.rdm_from_restriction(reference.restrict(Mbar, [1, 2]))
    assert np.max(np.abs(rdm.matrix - dense.matrix)) < 1e-12
    edges = {(s1, s2): c for s1, s2, c in ent.entangled_graph(spec).edges}
    c = edges[((1, "s"), (2, "s"))]
    assert c > 0.05
    assert reference.concurrence(rdm) == pytest.approx(c, abs=1e-12)
    for site in ((1, "a"), (1, "b")):
        with pytest.raises(ValueError):
            reference.rdm_pair(spec, site, (2, "s"))


def test_rdm_matrix_form():
    eta = 0.6
    rho = reference.rdm_matrix_from_eta(eta)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert rho[1, 2] == pytest.approx(-eta / 2.0)
    assert rho[0, 0] == pytest.approx((1 - eta * eta) / 4.0)
    assert rho[3, 3] == pytest.approx((1 - eta * eta) / 4.0)
    assert rho[1, 1] == pytest.approx((1 + eta * eta) / 4.0)


def test_concurrence_closed_form_matches_wootters():
    for eta in np.linspace(-0.99, 0.99, 41):
        rho = reference.rdm_matrix_from_eta(eta)
        assert reference.concurrence(rho) == pytest.approx(
            ent.concurrence_from_eta(eta), abs=1e-10)


def test_concurrence_threshold():
    assert ent.concurrence_from_eta(np.sqrt(2.0) - 1.0) == pytest.approx(
        0.0, abs=1e-12)
    assert ent.concurrence_from_eta(np.sqrt(2.0) - 1.0 + 1e-6) > 1e-7
    assert ent.concurrence_from_eta(0.3) == 0.0
    assert ent.concurrence_from_eta(1.0) == pytest.approx(1.0)


def test_concurrence_rejects_nonstate():
    with pytest.raises(InvalidStateError):
        reference.concurrence(np.eye(4))  # trace 4, not a state


def test_x_concurrence_rejects_nonstate():
    # n = 1/2 and |G| = 0.6 > 1/2 give p11 = 0.25 - 0.36 < 0
    with pytest.raises(InvalidStateError):
        ent.x_concurrence(0.5, 0.5, 0.6, 0.0)


def test_classify_phase():
    assert ent.classify_phase(0.5, 0.0) is Phase.P0
    assert ent.classify_phase(0.0, 0.5) is Phase.P1
    assert ent.classify_phase(0.5, 0.2) is Phase.Q0
    assert ent.classify_phase(0.2, 0.5) is Phase.Q1
    assert ent.classify_phase(0.3, 0.3) is Phase.CRITICAL


def test_entangled_graph_phases():
    for lam, phase in [(-0.5, Phase.P0), (-0.07, Phase.Q0),
                       (0.07, Phase.Q1), (0.5, Phase.P1)]:
        g = ent.entangled_graph(ModelSpec.ssh(12, lam))
        assert g.phase is phase, lam


def test_entangled_graph_edge_counts():
    # deep in P1 every cell contributes exactly one inter-cell edge
    g = ent.entangled_graph(ModelSpec.ssh(10, 0.5))
    assert len(g.edges) == 10
    assert all(s1[1] != s2[1] for s1, s2, _ in g.edges)
    # Q phases carry both bond types
    g = ent.entangled_graph(ModelSpec.ssh(10, 0.07))
    assert len(g.edges) == 20


def test_entangled_graph_json_roundtrip():
    g = ent.entangled_graph(ModelSpec.ssh(8, 0.5))
    doc = json.loads(g.to_json())
    assert doc["phase"] == "P1"
    assert doc["num_cells"] == 8
    assert len(doc["vertices"]) == 16
    assert len(doc["edges"]) == len(g.edges)


def test_entangled_graph_disordered_matches_clean_at_zero_amplitude():
    """A clean ring (inverse-FFT route, pairs built per offset) and the same
    ring at disorder amplitude 0 (real-space route, every pair) give the
    same phase, c1, c2 and unordered edges with their concurrences: SSH
    and Kitaev, even and odd N, and with edges at one offset or several.
    The SSH rings read c1, c2 and the phase off the offset table, the
    all-pairs route votes over cells: N = 2, 3, 31, 64 at lambda = +-1e-3
    (Q1, Q0) and +-1 (P1, P0), and the Critical tie at lambda = 0, odd N."""
    several = (ModelSpec.ssh(8, 0.05), ModelSpec.ssh(9, -0.05),
               ModelSpec.kitaev(8, delta=0.3, mu=1.9),
               ModelSpec.kitaev(9, delta=0.1, mu=1.5))
    rings = [ModelSpec.ssh(N, lam) for N in (2, 3, 31, 64)
             for lam in (1e-3, -1e-3, 1.0, -1.0, 0.0) if lam or N % 2]
    assert {ent.entangled_graph(spec).phase for spec in rings} == set(Phase)
    for spec_clean in (ModelSpec.ssh(8, 0.3), *several, *rings):
        spec_dis = dataclasses.replace(spec_clean, disorder=DisorderSpec(0.0, 5))
        g1 = ent.entangled_graph(spec_clean)
        g2 = ent.entangled_graph(spec_dis)
        assert g1.phase is g2.phase
        if spec_clean.family is models.Family.SSH:
            assert g2.c1 == pytest.approx(g1.c1, abs=1e-10)
            assert g2.c2 == pytest.approx(g1.c2, abs=1e-10)
        e1, e2 = ({frozenset((s1, s2)): c for s1, s2, c in g.edges} for g in (g1, g2))
        assert len(e1) == len(g1.edges)
        if spec_clean in several:  # edges at more than one offset
            assert len(e1) > spec_clean.N
        assert e1.keys() == e2.keys()
        assert max(abs(e1[k] - e2[k]) for k in e1) < 1e-12


def test_clean_ring_graph_reads_bonds_off_the_offset_table(monkeypatch, tmp_path):
    """A clean SSH ring evaluates its concurrences in one x_concurrence call
    (one per cell offset, c1 and c2 among them) and labels its phase with one
    classify_phase call, at every N; cmd_graph writes every route's graph in
    both formats without building the ``.edges`` tuples."""
    calls = []
    for name in ("x_concurrence", "classify_phase"):
        monkeypatch.setattr(ent, name, lambda *a, f=getattr(ent, name), name=name:
                            calls.append(name) or f(*a))
    monkeypatch.setattr(ent.EntangledGraph, "edges",
                        property(lambda graph: pytest.fail("cmd_graph read .edges")))
    rings = [["--N", str(N), "--lambda", lam] for N in (2, 3, 4, 9, 64, 159)
             for lam in ("0.3", "-1e-3")]
    others = [["--N", "6", "--lambda", "0.3", "--boundary", "open"],
              ["--N", "6", "--lambda", "0.3", "--disorder-amplitude", "0.2"],
              ["--model", "kitaev", "--N", "7", "--mu", "1.5"],
              ["--model", "kitaev", "--N", "7", "--mu", "2.5", "--boundary", "open"]]
    for argv in rings + others:
        for fmt in ("json", "csv"):
            calls.clear()
            assert main(["graph", *argv, "--format", fmt, "--outdir", str(tmp_path)]) == 0
            if argv in rings:
                assert calls == ["x_concurrence", "classify_phase"], argv


def test_open_chain_graph():
    spec = ModelSpec.ssh(8, 0.5, boundary=Boundary.OPEN)
    g = ent.entangled_graph(spec, fill=7)
    assert g.phase is Phase.P1
    # all bulk inter-cell bonds present, no wrap bond
    inter = {(s1, s2) for s1, s2, _ in g.edges if s1[1] != s2[1]}
    for n in range(7):
        assert ((n, "b"), (n + 1, "a")) in inter
    assert ((0, "a"), (7, "b")) not in inter


def test_real_space_graph_forms_one_gram_product(monkeypatch):
    """A real-space graph evaluates its pairs and its c1 and c2 bonds in one
    Wick call, so one set of rows and one Gram product; c1 and c2 equal the
    bonds evaluated alone."""
    calls = []

    def spy(rows, num_modes, i, j, real=gaussian._gram_wick):
        calls.append(len(i))
        return real(rows, num_modes, i, j)

    cases = [(ModelSpec.ssh(12, 0.3, boundary=Boundary.OPEN), None),
             (ModelSpec.ssh(10, -0.2, disorder=DisorderSpec(0.2, 3)), None),
             (ModelSpec.ssh(9, 0.4, boundary=Boundary.OPEN), 8),
             (ModelSpec.kitaev(9, delta=0.0, mu=0.5, boundary=Boundary.OPEN), 4)]
    for spec, fill in cases:
        corr = ent._ground_state(spec, fill)
        cells = np.arange(spec.N)
        bonds = cells if spec.boundary is Boundary.PERIODIC else cells[:-1]
        monkeypatch.setattr(gaussian, "_gram_wick", spy)
        calls.clear()
        g = ent.entangled_graph(spec, fill)
        monkeypatch.undo()
        assert len(calls) == 1
        if spec.family is models.Family.SSH:
            c1 = ent.x_concurrence(*corr(2 * cells, 2 * cells + 1))
            c2 = ent.x_concurrence(*corr((2 * bonds + 2) % (2 * spec.N), 2 * bonds + 1))
            assert abs(g.c1 - np.median(c1)) < 1e-15 and abs(g.c2 - np.median(c2)) < 1e-15


def test_entangled_graph_clean_ring_honours_fill():
    # fill = 7 empties the k = pi level of the 8-cell ring; the state stays
    # translation invariant, so every inter-cell bond carries rdm_pair's value
    spec = ModelSpec.ssh(8, 0.3)
    want = reference.concurrence(reference.rdm_pair(spec, (0, "b"), (1, "a"), fill=7))
    g = ent.entangled_graph(spec, fill=7)
    assert g.c2 == pytest.approx(want, abs=1e-12)
    assert abs(g.c2 - ent.entangled_graph(spec).c2) > 0.1


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_rdm_pair_checks_sites_on_both_routes(boundary):
    """The FFT route of clean rings rejects what the real-space routes
    reject, on SSH and Kitaev chains: cells outside 0..N-1, a site paired
    with itself, unknown sublattices."""
    for spec, (s, t) in [(ModelSpec.ssh(8, 0.3, boundary=boundary), ("b", "a")),
                         (ModelSpec.kitaev(8, delta=0.6, mu=1.2, boundary=boundary),
                          ("s", "s"))]:
        for pair in [((0, s), (9, t)), ((-8, s), (1, t))]:
            with pytest.raises(IndexError, match="mode index out of range"):
                reference.rdm_pair(spec, *pair)
        with pytest.raises(IndexError, match="two distinct modes"):
            reference.rdm_pair(spec, (3, t), (3, t))
        with pytest.raises(ValueError, match="sublattice"):
            reference.rdm_pair(spec, (0, "x"), (1, t))
        # the wrap pair is valid; only the SSH state has the one-parameter form
        assert (reference.rdm_pair(spec, (7, s), (0, t)).eta is None) == (s == "s")


def test_default_fill_routes_call_no_dense_eigensolver(monkeypatch, tmp_path):
    """Kitaev chains off the FFT route take one SVD of their L x L particle
    matrix and read the Wick data off its polar factor, and clean rings the
    FFT: with eigh, spectral_flatten and the 2L x 2L Majorana builder made to
    fail, open and disordered Kitaev graphs, rdm_pair on a Kitaev ring and
    the central pair of a clean SSH ring still run."""
    def dense(*args, **kwargs):
        raise AssertionError("dense solver called")

    ring, ssh = ModelSpec.kitaev(16, delta=0.6, mu=1.2), ModelSpec.ssh(8, -0.4)
    want_ring = reference.x_state(*reference.pair_correlations(
        reference.spectral_flatten(reference.realspace_hamiltonian(ring)), 0, 1))
    want_ssh = ent.x_concurrence(*gaussian.particle_correlations(
        gaussian.particle_ground_state(models.particle_matrix(ssh))[1], 7, 8))
    monkeypatch.setattr(np.linalg, "eigh", dense)
    monkeypatch.setattr(reference, "spectral_flatten", dense)
    for module in (models, ent, gaussian, reference):
        monkeypatch.setattr(module, "majorana_matrix", dense, raising=False)
    for argv in (["--N", "12", "--delta", "0.7", "--mu", "2.9", "--boundary", "open"],
                 ["--N", "10", "--mu", "1.2", "--disorder-amplitude", "0.3"]):
        assert main(["graph", "--model", "kitaev", *argv, "--outdir", str(tmp_path)]) == 0
    got = reference.rdm_pair(ring, (0, "s"), (1, "s")).matrix
    assert np.max(np.abs(got - want_ring)) < 1e-12
    assert abs(analysis.central_pair_concurrence(ssh) - want_ssh) < 1e-12


_X = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)


@pytest.mark.parametrize("call,error,message", [
    (lambda: reference.rdm_pair(ModelSpec.ssh(8, 0.3), (0, "a"), (0, "b"), fill=-1),
     ValueError, "num_filled out of range"),
    (lambda: reference.rdm_pair(ModelSpec.ssh(8, 0.3), (0, "a"), (0, "b"), fill=17),
     ValueError, "num_filled out of range"),
    (lambda: reference.rdm_pair(ModelSpec.ssh(8, 0.3, boundary="open"), (0, "a"), (0, "b"),
                                fill=-1),
     ValueError, "num_filled out of range"),
    (lambda: reference.rdm_pair(ModelSpec.ssh(8, 0.3, boundary="open"), (0, "a"), (0, "b"),
                                fill=17),
     ValueError, "num_filled out of range"),
    (lambda: reference.eta_analytic(ModelSpec.kitaev(8, mu=0.3), (0, "s"), (1, "s")),
     ValueError, "eta_analytic applies to SSH specs"),
    (lambda: reference.eta_analytic(ModelSpec.ssh(8, 0.3, boundary="open"), (0, "a"), (0, "b")),
     ValueError, "analytic route requires a clean periodic chain"),
    (lambda: reference.concurrence(np.eye(3) / 3.0), InvalidStateError, "two-site RDM must be 4x4"),
    (lambda: reference.concurrence(_X + np.diag([0.1, 0.0, 0.0], 1)), InvalidStateError,
     "matrix is not Hermitian"),
    (lambda: reference.concurrence(2.0 * _X - np.diag([0.0, 0.0, 0.0, 1.0])), InvalidStateError,
     "matrix is not positive semidefinite"),
], ids=["fill-1-ring", "fill-2N+1-ring", "fill-1-open", "fill-2N+1-open", "eta-kitaev",
        "eta-open", "concurrence-3x3", "concurrence-non-hermitian", "concurrence-non-psd"])
def test_public_errors(call, error, message):
    """Errors of the public entanglement API: type and message."""
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message

"""Property tests: the momentum-space kernel against the real-space route,
the closed-form two-site X state against the dense Fock-space RDM, and the
particle-matrix ground state of SSH chains, and of Kitaev chains at an
explicit filling, against the Majorana route, Kitaev chains at the default
filling (the polar factor of the particle matrix) against the same route,
the central-pair resolvent of disordered SSH chains against the particle
solve, its closed-form gap bound against Sylvester's inertia, and the
closed-form open SSH chain against the full-size particle solve and mpmath.

Hypothesis draws chains and site pairs with ``derandomize=True``.  It also
mixes the literals of the loaded modules into its draws, so the examples
change with the source and with what a run has imported.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainent import analysis, entanglement, gaussian, models, reference
from chainent.errors import ChainentError, DegenerateFillError, GaplessError
from chainent.models import ModelSpec

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def ssh_pairs(draw):
    N = draw(st.integers(2, 24))
    lam = draw(st.floats(0.05, 0.95)) * draw(st.sampled_from([-1.0, 1.0]))
    sites = [(n, s) for n in range(N) for s in ("a", "b")]
    i, j = draw(st.lists(st.integers(0, 2 * N - 1), min_size=2, max_size=2,
                         unique=True))
    return ModelSpec.ssh(N, lam), sites[i], sites[j]


@PROPERTY
@given(ssh_pairs())
def test_eta_analytic_matches_realspace(case):
    spec, s1, s2 = case
    want = reference.rdm_pair(spec, s1, s2, fill=spec.N).eta
    got = reference.eta_analytic(spec, s1, s2)
    assert abs(got - want) < 1e-12


@PROPERTY
@given(N=st.integers(2, 24), t=st.floats(0.2, 2.0),
       delta=st.floats(0.2, 2.0), mu=st.floats(-4.0, 4.0))
def test_kitaev_eta_z_matches_realspace(N, t, delta, mu):
    h = models.kitaev_bloch(mu, models.momentum_grid(N), t, delta)
    assume(np.min(models.bloch_norm(h)) > 0.05)
    spec = ModelSpec.kitaev(N, t=t, delta=delta, mu=mu)
    Mbar = reference.spectral_flatten(reference.realspace_hamiltonian(spec))
    assert abs(analysis.kitaev_eta_z(mu, t, delta, N) - Mbar[0, 1]) < 1e-12


def mid_gap_flatten(M, fill):
    """The Majorana oracle of an explicit fill, sharing no code with
    particle_ground_state: the spectral_flatten of M with the Fermi level moved
    into the gap above the ``fill`` lowest levels of its particle matrix
    (below or above them all at fill 0 or L)."""
    levels = np.linalg.eigvalsh(M[0::2, 1::2])
    mu = np.mean(np.r_[levels[0] - 1.0, levels, levels[-1] + 1.0][fill:fill + 2])
    return reference.spectral_flatten(M - mu * reference.majorana_matrix(np.eye(len(levels))))


@st.composite
def gaussian_pairs(draw):
    """A gapped ground state of a random chain and one ordered mode pair."""
    N = draw(st.integers(2, 16))
    boundary = draw(st.sampled_from(["periodic", "open"]))
    amplitude = draw(st.sampled_from([0.0, 0.1, 0.5]))
    disorder = models.DisorderSpec(amplitude, draw(st.integers(0, 99))) \
        if amplitude else None
    if draw(st.booleans()):
        lam = draw(st.floats(-0.95, 0.95))
        spec = ModelSpec.ssh(N, lam, boundary=boundary, disorder=disorder)
    else:
        spec = ModelSpec.kitaev(N, t=draw(st.floats(0.2, 2.0)),
                                delta=draw(st.floats(0.2, 2.0)),
                                mu=draw(st.floats(-4.0, 4.0)),
                                boundary=boundary, disorder=disorder)
    L = spec.num_modes
    M = reference.realspace_hamiltonian(spec)
    fill = None
    if spec.family is models.Family.SSH and draw(st.booleans()):
        fill = draw(st.integers(0, L))
    if fill is None:
        gap = np.min(np.abs(np.linalg.eigvalsh(1j * M)))
        Mbar_of = reference.spectral_flatten
    else:
        levels = np.linalg.eigvalsh(M[0::2, 1::2])
        gap = levels[fill] - levels[fill - 1] if 0 < fill < L else np.inf
        Mbar_of = lambda M: mid_gap_flatten(M, fill)  # noqa: E731
    assume(gap > 0.05)
    i, j = draw(st.lists(st.integers(0, L - 1), min_size=2, max_size=2,
                         unique=True))
    return Mbar_of(M), i, j


@PROPERTY
@given(gaussian_pairs())
def test_x_state_matches_dense_rdm(case):
    Mbar, i, j = case
    dense = reference.rdm_from_restriction(reference.restrict(Mbar, [i, j])).matrix
    wick = reference.pair_correlations(Mbar, i, j)
    assert np.max(np.abs(reference.x_state(*wick) - dense)) < 1e-12
    # Wootters' roots are sqrt(p00 p11) -+ |F| and sqrt(p01 p10) -+ |G|.  At a
    # root near 0 the concurrence moves by sqrt(delta) under a delta change of
    # the state, so the dense matrix's own rounding (~1e-17 in entries that
    # are exactly 0) shifts it by up to ~1e-8.  Compare to 1e-12 wherever
    # every root exceeds 1e-3, and to that conditioning elsewhere.
    p = np.clip(dense.diagonal().real, 0.0, None)
    min_root = min(abs(np.sqrt(p[0] * p[3]) - abs(dense[0, 3])),
                   abs(np.sqrt(p[1] * p[2]) - abs(dense[1, 2])))
    tol = 1e-12 if min_root > 1e-3 else 1e-7
    assert abs(entanglement.x_concurrence(*wick)
               - reference.concurrence(dense)) < tol


@st.composite
def particle_ground_states(draw):
    """A chain of either boundary, maybe disordered, and a filling: an SSH
    chain at any filling, or a Kitaev chain, with or without pairing, at an
    explicit one."""
    disorder = st.builds(models.DisorderSpec, st.sampled_from([0.1, 0.5]),
                         st.integers(0, 99))
    N = draw(st.integers(2, 40))
    kw = dict(boundary=draw(st.sampled_from(["periodic", "open"])),
              disorder=draw(st.none() | disorder))
    if draw(st.booleans()):
        spec = ModelSpec.ssh(N, draw(st.floats(-1.0, 1.0)), **kw)
        return spec, draw(st.none() | st.integers(0, spec.num_modes))
    spec = ModelSpec.kitaev(N, t=draw(st.floats(0.2, 2.0)),
                            delta=draw(st.just(0.0) | st.floats(0.2, 2.0)),
                            mu=draw(st.floats(-4.0, 4.0)), **kw)
    return spec, draw(st.integers(0, spec.num_modes))


def _outcome(route):
    """The route's result, or the class of the package error it raised."""
    try:
        return route()
    except (ChainentError, ValueError) as exc:
        return type(exc)


@settings(PROPERTY, max_examples=800)  # about 300 of them SSH chains
@given(particle_ground_states())
def test_particle_route_matches_majorana_oracle(case):
    spec, fill = case
    L = spec.num_modes
    i, j = np.triu_indices(L, k=1)
    M = reference.realspace_hamiltonian(spec)

    def oracle():
        if fill is None:
            return reference.pair_correlations(reference.spectral_flatten(M), i, j)
        A = M[0::2, 1::2]
        if not np.array_equal(A, A.T):
            raise ValueError("matrix carries pairing terms")
        _filled_by_masks(np.linalg.eigvalsh(A), fill)  # the errors of a fill
        return reference.pair_correlations(mid_gap_flatten(M, fill), i, j)

    want = _outcome(oracle)
    got = _outcome(lambda: entanglement._ground_state(spec, fill)(i, j))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    # Both routes are backward stable, so their filled projectors differ by
    # about eps ||A|| / gap, with the gap at the Fermi level (Davis-Kahan;
    # ||A|| <= 3 here).  Compare to 1e-12 where that gap exceeds 1e-3, and
    # to 1e-14 / gap, about fifteen times that bound, below.
    levels = np.linalg.eigvalsh(models.particle_matrix(spec))
    nf = np.count_nonzero(levels < 0) if fill is None else fill
    gap = levels[nf] - levels[nf - 1] if 0 < nf < L else np.inf
    tol = 1e-12 if gap > 1e-3 else 1e-14 / gap
    for w, g in zip(want, got):
        assert np.max(np.abs(w - g)) < tol


@st.composite
def kitaev_chains(draw):
    """A Kitaev chain of either boundary, clean or with onsite disorder of
    amplitude 0 to 1, with Delta = 0 or not, and mu across +-2t."""
    t = draw(st.floats(0.2, 2.0))
    disorder = st.builds(models.DisorderSpec, st.floats(0.0, 1.0), st.integers(0, 99))
    return ModelSpec.kitaev(
        draw(st.integers(2, 40)), t=t, delta=draw(st.just(0.0) | st.floats(0.2, 2.0)),
        mu=t * draw(st.sampled_from([-2.0, 2.0]) | st.floats(-3.0, 3.0)),
        boundary=draw(st.sampled_from(["periodic", "open"])),
        disorder=draw(st.none() | disorder))


@PROPERTY
@given(kitaev_chains())
def test_kitaev_polar_route_matches_majorana_oracle(spec):
    """Kitaev chains at the default fill (the polar factor of the particle
    matrix, or the FFT on clean rings) against spectral_flatten plus
    pair_correlations on every ordered pair: the same GaplessError, with the
    same message off the FFT route, or Wick data within 1e-13, or within
    1e-14 / sigma_min below sigma_min = 0.1, the smallest level (both routes
    are backward stable; see the particle-route property above)."""
    i, j = np.nonzero(~np.eye(spec.N, dtype=bool))
    try:
        Mbar = reference.spectral_flatten(reference.realspace_hamiltonian(spec))
    except GaplessError as exc:
        with pytest.raises(GaplessError) as got:
            entanglement._ground_state(spec, None)
        assert spec.clean_periodic or str(got.value) == str(exc)
        return
    got = entanglement._ground_state(spec, None)(i, j)
    sigma_min = np.linalg.svd(models.particle_matrix(spec), compute_uv=False)[-1]
    for w, g in zip(reference.pair_correlations(Mbar, i, j), got):
        assert np.max(np.abs(w - g)) < max(1e-13, 1e-14 / sigma_min)


@st.composite
def disordered_ssh_chains(draw):
    """The particle matrix of an SSH chain of either boundary, onsite
    disorder of amplitude 0 to 1, lambda anywhere in [-1, 1] or at +-0.005."""
    lam = draw(st.sampled_from([0.005, -0.005]) | st.floats(-1.0, 1.0))
    disorder = models.DisorderSpec(draw(st.floats(0.0, 1.0)), draw(st.integers(0, 99)))
    return models.particle_matrix(ModelSpec.ssh(
        draw(st.integers(2, 40)), lam, disorder=disorder,
        boundary=draw(st.sampled_from(["periodic", "open"]))))


# a level of A / W at -1.9e-3, in level 5 (an edge mode): the elimination in double lost
# 1.7e-13 of n on the edge site, about eps W / |level|
@example(models.particle_matrix(ModelSpec.ssh(
    8, 0.25, disorder=models.DisorderSpec(0.1015625, 35), boundary="open")))
@PROPERTY
@given(disordered_ssh_chains())
def test_particle_projector_matches_eigh_oracle(A):
    """The central-pair resolvent route against the Gram product of the
    filled eigenvectors, on every neighbour pair (s, s + 1 mod L) at once (a
    batch of the chain's L rotations, each read at its sites 0 and 1): the
    same errors, and the same n_s, n_{s+1} and G to 1e-13, or to 1e-14 / gap
    where the gap at the Fermi level is small (both routes are backward
    stable; see the particle-route property above)."""
    L, s = len(A), np.arange(len(A))
    rotations = (s[:, None] + s) % L  # row b: the chain read from site b on
    onsite, bonds = np.diag(A)[rotations], A[s, (s + 1) % L][rotations]
    want = _outcome(lambda: gaussian.particle_ground_state(A)[1])
    got = _outcome(lambda: gaussian.pair_projector(onsite, bonds, 0))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    levels = np.linalg.eigvalsh(A)
    nf = np.count_nonzero(levels < 0)
    gap = levels[nf] - levels[nf - 1] if 0 < nf < len(A) else np.inf
    P = want @ want.T
    expected = (np.diagonal(P), np.diagonal(P)[(s + 1) % L], P[s, (s + 1) % L])
    assert np.max(np.abs(np.array(got[:3]) - expected)) < max(1e-13, 1e-14 / gap)


@st.composite
def bond_chains(draw):
    """On-site energies, bonds (bond s joins s and s + 1 mod L) and a pair p
    of one chain: SSH bonds 1 -+ lambda, lambda in [-3, 3], times a scale of
    either sign, a few bonds negated or zero, the wrap bond 0 on an open
    chain, and on-site energies up to 0 to 1 times the largest bond."""
    N = draw(st.integers(2, 40))
    lam = draw(st.floats(-3.0, 3.0))
    bonds = draw(st.sampled_from([1.0, -1.0, 1e-3, 40.0])) * np.tile([1.0 - lam, 1.0 + lam], N)
    bonds[draw(st.lists(st.integers(0, 2 * N - 1), max_size=3))] *= -1.0
    bonds[draw(st.lists(st.integers(0, 2 * N - 1), max_size=1))] = 0.0
    bonds[-1] *= draw(st.booleans())  # 0: an open chain
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amplitude = draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 1.0)) * np.max(np.abs(bonds))
    return amplitude * rng.uniform(-1.0, 1.0, 2 * N), bonds, draw(st.integers(0, 2 * N - 2))


# an exact zero pivot at +-W/4, taken as a 2 x 2 block: the count was NaN
@example((np.zeros(6), np.array([3.0, -1.0, 3.0, -1.0, 3.0, 0.0]), 1))
@example((np.zeros(6), np.array([1.5, 0.5, 1.5, 0.5, 1.5, 0.0]), 1))
@example((np.zeros(4), np.array([-1.0, 3.0, -1.0, 3.0]), 0))
# L = 4, where the Gershgorin terms of sites s + 2 and s - 2 fall on one site
@example((np.array([0.05, -0.05, 0.02, 0.0]), np.array([0.3, 1.7, 0.3, 1.7]), 1))
@example((np.array([0.05, -0.05, 0.02, 0.0]), np.array([0.3, -1.7, 0.3, 1.7]), 2))
@example((np.zeros(4), np.array([1.7, 0.3, 1.7, 0.0]), 0))
@settings(PROPERTY, max_examples=500)
@given(bond_chains())
def test_gap_bound_proves_only_certified_chains(case):
    """A chain whose level 1 the closed-form bound proves (Weyl and Gershgorin
    on T^2: pair_projector runs no real-shift elimination for it) is also
    certified there by Sylvester's inertia at +-W/4, and eigvalsh puts no
    level within W/4 of 0."""
    onsite, bonds, p = case
    kinds, schur = [], gaussian._pair_schur
    with mock.patch.object(gaussian, "_pair_schur",
                           lambda o, t, p, z: kinds.append(z.dtype.kind) or schur(o, t, p, z)):
        _outcome(lambda: gaussian.pair_projector(onsite[None], bonds[None], p))
    if kinds[0] == "f":  # not proven: the inertia count decides, as before
        return
    W = np.max(np.abs(onsite) + np.abs(bonds) + np.abs(np.roll(bonds, 1)))
    count = schur(onsite[:, None], bonds[:, None], p, np.array([[W / 4.0], [-W / 4.0]]))[3]
    assert count[0, 0] == count[1, 0]
    A = np.diag(onsite) + np.diag(bonds[:-1], 1) + np.diag(bonds[:-1], -1)
    A[0, -1] = A[-1, 0] = A[0, -1] + bonds[-1]
    assert np.min(np.abs(np.linalg.eigvalsh(A))) >= W / 4.0


def _threshold(N):
    """The lambda where the edge pair of an open chain of N cells appears:
    t2 N = t1 (N + 1)."""
    return 1.0 / (2 * N + 1)


@st.composite
def open_chains(draw):
    """A clean open SSH chain of bonds 1 -+ lambda, lambda in [-3, 3] (beyond
    +-1 one bond is negative), with 0, +-1 and the edge-pair threshold (and
    one ulp either side) drawn explicitly; a filling at or next to half;
    site pairs."""
    N = draw(st.integers(2, 64))
    thr = _threshold(N)
    lam = draw(st.sampled_from([0.0, 1.0, -1.0, thr, np.nextafter(thr, 0.0),
                                np.nextafter(thr, 1.0)])
               | st.floats(-3.0, 3.0))
    fill = draw(st.sampled_from([None, N - 1, N, N + 1]))
    pairs = draw(st.lists(st.lists(st.integers(0, 2 * N - 1), min_size=2,
                                   max_size=2, unique=True),
                          min_size=1, max_size=8))
    return N, lam, fill, *np.array(pairs).T


def _check_open_chain(N, lam, fill, i, j):
    """The closed-form open chain against the full L x L solve: the same
    levels, Wick data and errors on the same inputs."""
    t1, t2 = 1.0 - lam, 1.0 + lam
    A = np.diag(np.resize([t1, t2], 2 * N - 1), 1)
    A += A.T

    def oracle():
        _, V = gaussian.particle_ground_state(A, fill)
        return gaussian.particle_correlations(V, i, j)

    def closed_form():
        levels, corr = gaussian.open_ssh_ground_state(N, t1, t2, fill)
        return levels, corr(i, j)

    want = _outcome(oracle)
    got = _outcome(closed_form)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    got_levels, got = got
    levels = np.linalg.eigvalsh(A)
    assert np.max(np.abs(got_levels - levels)) < 1e-14 * (abs(t1) + abs(t2))
    # The oracle mixes the two edge levels, split by ~(t1/t2)^N, by eps/gap
    # (Davis-Kahan, as above); the closed form solves each level on its own.
    # Compare to 1e-12 where the gap at the Fermi level exceeds 1e-3, to
    # 1e-14 / gap below, and hold the half-filled state (fill None, N
    # particles) to its exact n = 1/2 (chiral symmetry) at 1e-12 always.
    nf = N if fill is None else fill
    gap = levels[nf] - levels[nf - 1] if 0 < nf < 2 * N else np.inf
    tol = 1e-12 if gap > 1e-3 else 1e-14 / gap
    for w, g in zip(want[:3], got[:3]):
        assert np.max(np.abs(w - g)) < tol
    if fill is None:
        assert np.max(np.abs(np.array(got[:2]) - 0.5)) < 1e-12


@pytest.mark.filterwarnings("error")
@PROPERTY
@given(open_chains())
def test_closed_form_open_chain_matches_full_size_oracle(case):
    _check_open_chain(*case)


def _mp_edge(N, t1, t2):
    """kappa of the edge pair, t1 sinh((N+1) kappa) = t2 sinh(N kappa), its
    level sqrt(t1^2 + t2^2 - 2 t1 t2 cosh kappa) and the density
    sinh(kappa n)^2 / sum_m sinh(kappa m)^2 that filling both edge levels
    adds on b_n, n = 1..N, from mpmath with digits to spare below the
    squared level ~ e^{-2 N kappa}."""
    mp = pytest.importorskip("mpmath")
    t1, t2 = abs(t1), abs(t2)
    with mp.workdps(40 + int(2 * N * math.log10(t2 / t1))):
        t1, t2 = mp.mpf(t1), mp.mpf(t2)
        kappa = mp.findroot(
            lambda x: t1 * mp.sinh((N + 1) * x) / mp.sinh(N * x) - t2,
            mp.log(t2 / t1))
        level = mp.sqrt(t1 ** 2 + t2 ** 2 - 2 * t1 * t2 * mp.cosh(kappa))
        s = [mp.sinh(kappa * n) ** 2 for n in range(1, N + 1)]
        density = [float(x / mp.fsum(s)) for x in s]
        return float(kappa), float(level), np.array(density)


EDGE_CASES = [
    (16, 1.0), (16, -1.0),               # a zero bond: kappa -> infinity
    (16, np.nextafter(1.0, 0.0)),        # t1 under half an ulp of t2: c = 1.0
    (16, 1.7), (16, -2.5),               # |lambda| > 1: a negative bond
    (8, _threshold(8)), (8, np.nextafter(_threshold(8), 0.0)),
    (8, np.nextafter(_threshold(8), 1.0)),  # the edge root at k = pi
    (2, 0.9), (2, 0.1), (3, 0.5), (3, -0.4),
    (150, 0.99),                         # kappa N > 710
]


def _filled_by_masks(levels, fill):
    """The fill check over every level, as it was before it read the boundary
    alone: the oracle of :func:`gaussian._filled`, returning the count."""
    if fill is None:
        scale = np.maximum(1.0, np.max(np.abs(levels), axis=-1))
        if np.any(np.min(np.abs(levels), axis=-1) <= gaussian.ZERO_TOL * scale):
            raise GaplessError("Hamiltonian is gapless; flattening undefined")
        return np.count_nonzero(levels < 0, axis=-1)
    filled = np.arange(levels.shape[-1]) < np.asarray(fill)[..., None]
    if ((np.asarray(fill) < 0) | (np.asarray(fill) > levels.shape[-1])).any():
        raise ValueError("num_filled out of range")
    if (levels.min(axis=-1, where=~filled, initial=np.inf)  # lowest empty
            - levels.max(axis=-1, where=filled, initial=-np.inf) < gaussian.DEGENERACY_TOL).any():
        raise DegenerateFillError("filling boundary splits a degenerate level "
                                  "pair; choose a filling below or above it")
    return np.count_nonzero(filled, axis=-1)


def _raised(route):
    """The class and message of the package error the route raised, or None."""
    try:
        route()
    except (ChainentError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def open_chain_levels(draw):
    """N from 2 to 60 and lambda in [-3, 3] (both signs of t1 - t2; beyond +-1
    a negative bond), with the zero bonds at +-1, 0 and the edge-pair threshold
    and one ulp either side drawn explicitly."""
    N = draw(st.integers(2, 60))
    thr = _threshold(N)
    return N, draw(st.sampled_from([0.0, 1.0, -1.0, thr, np.nextafter(thr, 0.0),
                                    np.nextafter(thr, 1.0)]) | st.floats(-3.0, 3.0))


@settings(PROPERTY, max_examples=100)  # each solves 2N + 4 chains
@given(open_chain_levels())
def test_boundary_fill_check_raises_what_every_level_raises(case):
    """The closed form checks a fill F at its boundary alone, levels[F] -
    levels[F - 1], and fill None at the least and greatest |level|: for every
    F from -1 to 2N + 1 and None it raises what the check of every level
    raises, class and message, or fills as many levels."""
    N, lam = case
    levels = gaussian.open_ssh_ground_state(N, 1.0 - lam, 1.0 + lam, 0)[0]
    for fill in (None, *range(-1, 2 * N + 2)):
        want = _raised(lambda: _filled_by_masks(levels, fill))
        assert _raised(lambda: gaussian.open_ssh_ground_state(N, 1.0 - lam, 1.0 + lam, fill)) == want
        if want is None:
            assert gaussian._filled(levels, fill) == _filled_by_masks(levels, fill), fill


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N, lam", EDGE_CASES)
def test_closed_form_open_chain_edge_cases(N, lam):
    """The edge cases of the closed form against the full-size solve, and,
    on the topological side, its edge level and edge-mode density against
    mpmath."""
    L = 2 * N
    i, j = np.triu_indices(L, k=1)
    if N > 64:
        i, j = i[::97], j[::97]
    for fill in (None, 0, N - 1, N, N + 1, L):
        _check_open_chain(N, lam, fill, i, j)
    t1, t2 = 1.0 - lam, 1.0 + lam
    if t1 == 0.0 or abs(t2) * N <= abs(t1) * (N + 1):
        return
    kappa, level, density = _mp_edge(N, t1, t2)
    levels, corr = gaussian.open_ssh_ground_state(N, t1, t2, N + 1)
    assert abs(levels[N] - level) <= 1e-14 * level
    b = 2 * np.arange(N) + 1
    n_above = corr(b, (b + 1) % L)[0]
    n_below = gaussian.open_ssh_ground_state(N, t1, t2, N - 1)[1](b, (b + 1) % L)[0]
    assert np.max(np.abs(n_above - n_below - density)) < 1e-14


class _CountingMath:
    """``math`` with a count of the calls to tanh and atan2, one per
    evaluation of the last-root equation on either branch."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        f = getattr(math, name)
        if name not in ("tanh", "atan2"):
            return f

        def counted(*args):
            self.calls += 1
            return f(*args)
        return counted


@pytest.mark.parametrize("N", [64, 256])
def test_last_root_converges_quadratically_at_the_threshold(N, monkeypatch):
    """At the edge-pair threshold and one ulp either side the last root
    merges with the trivial x = 0, where Newton on x converges linearly (64
    evaluations at N = 64, 46-48 at N = 256); on u = x^2 with x = 0 divided
    out it takes at most 10.  The levels match the full-size solve."""
    thr = _threshold(N)
    for lam in (np.nextafter(thr, 0.0), thr, np.nextafter(thr, 1.0)):
        counting = _CountingMath()
        monkeypatch.setattr(gaussian, "math", counting)
        levels = gaussian.open_ssh_ground_state(N, 1.0 - lam, 1.0 + lam)[0]
        monkeypatch.undo()
        assert 1 <= counting.calls <= 10, (lam, counting.calls)
        A = np.diag(np.resize([1.0 - lam, 1.0 + lam], 2 * N - 1), 1)
        assert np.max(np.abs(levels - np.linalg.eigvalsh(A + A.T))) < 1e-13


def test_bulk_newton_converges_inside_each_bracket():
    """Plain Newton from j pi / (N + 1/2) needs no safeguard: over every N from 2 to
    300 and four sizes up to 20,000, at 241 lambda on [-3, 3] (25 above N =
    300, to keep the arrays small) and 0, +-1, nextafter(1, 0) and the
    edge-pair threshold with one ulp either side, each bulk root has
    converged (its next step is within the solver's tolerance) inside its
    bracket [j pi / (N + 1), j pi / N], widened by that tolerance (a zero bond
    at lambda = +-1 puts the root on an end)."""
    for N in (*range(2, 301), 1000, 4096, 9999, 20000):
        thr = _threshold(N)
        lams = np.concatenate([np.linspace(-3.0, 3.0, 241 if N <= 300 else 25), [
            0.0, 1.0, -1.0, np.nextafter(1.0, 0.0),
            thr, np.nextafter(thr, 0.0), np.nextafter(thr, 1.0)]])
        k, slope, psi = gaussian._bulk_roots(N, np.abs(1.0 - lams)[:, None],
                                             np.abs(1.0 + lams)[:, None])
        jpi = np.arange(1, N) * np.pi
        tol = 8e-16 * np.maximum(jpi / N, 1.0)
        assert np.all(np.abs(k - (N * k + psi - jpi) / slope - k) <= tol), N
        assert np.all((jpi / (N + 1) - tol <= k) & (k <= jpi / N + tol)), N


def _bulk_roots_arctan2(N, t1, t2):
    """The bulk Newton before the half-angle form, the oracle of
    :func:`gaussian._bulk_roots`: psi = arctan2(t1 sin k, t2 + t1 cos k), from j pi / N."""
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
        k = np.where(done, k, new)
    return k, slope, psi


def test_half_angle_roots_match_the_arctan2_newton():
    """On the sweep of the bracket test the half-angle roots from j pi / (N + 1/2)
    are the arctan2 Newton's from j pi / N within twice the stop tolerance."""
    for N in (*range(2, 301), 1000, 4096, 9999, 20000):
        thr = _threshold(N)
        lams = np.concatenate([np.linspace(-3.0, 3.0, 241 if N <= 300 else 25), [
            0.0, 1.0, -1.0, np.nextafter(1.0, 0.0),
            thr, np.nextafter(thr, 0.0), np.nextafter(thr, 1.0)]])
        t1, t2 = np.abs(1.0 - lams)[:, None], np.abs(1.0 + lams)[:, None]
        tol = 8e-16 * np.maximum(np.arange(1, N) * np.pi / N, 1.0)
        k = gaussian._bulk_roots(N, t1, t2)[0]
        assert np.all(np.abs(k - _bulk_roots_arctan2(N, t1, t2)[0]) <= 2.0 * tol), N


def _wick_or_error(N, lams, fill, i, j):
    """(n_i, n_j, G_ij) of each open chain t1, t2 = 1 -+ lambda, or the class and
    message it raises: one batch where none raises, else chain by chain."""
    try:
        return list(np.stack(gaussian.open_ssh_ground_state(
            N, 1.0 - lams, 1.0 + lams, fill)[1](i, j)[:3], axis=1))
    except (ChainentError, ValueError):
        return [_raised(lambda: gaussian.open_ssh_ground_state(N, 1.0 - lam, 1.0 + lam, fill))
                or np.array(gaussian.open_ssh_ground_state(
                    N, 1.0 - lam, 1.0 + lam, fill)[1](i, j)[:3]) for lam in lams]


def test_half_angle_wick_data_match_the_arctan2_newton(monkeypatch):
    """For N from 2 to 60 at fills N - 1, N and N + 1, and lambda on [-0.95, 0.95]
    with the edge-pair threshold and one ulp either side, the half-angle roots give
    the arctan2 Newton's n and G of every mode pair within 1e-14, and its errors."""
    for N in range(2, 61):
        thr = _threshold(N)
        lams = np.concatenate([np.linspace(-0.95, 0.95, 39),
                               [thr, np.nextafter(thr, 0.0), np.nextafter(thr, 1.0)]])
        i, j = np.triu_indices(2 * N, k=1)
        for fill in (N - 1, N, N + 1):
            got = _wick_or_error(N, lams, fill, i, j)
            with monkeypatch.context() as m:
                m.setattr(gaussian, "_bulk_roots", _bulk_roots_arctan2)
                want = _wick_or_error(N, lams, fill, i, j)
            for lam, g, w in zip(lams, got, want):
                if isinstance(w, tuple) or isinstance(g, tuple):
                    assert g == w, (N, fill, lam)
                else:
                    assert np.max(np.abs(g - w)) < 1e-14, (N, fill, lam)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [2, 3, 8, 255])
def test_closed_form_open_chain_batch_equals_each_chain(N):
    """One batched solve over chains of both last-root branches (the
    edge-pair threshold and one ulp either side, k = pi - q on both sides of
    t1 = t2, t1 = 2^-53 where (t2 + t1) / (t2 - t1) rounds to 1, zero bonds
    at lambda = +-1, negative bonds beyond) equals each
    chain solved alone, bit for bit, with a fill per chain or one for all; a
    chain that fails alone (a zero edge level at fill None, a degenerate
    fill, the zero chain) fails the batch the same way, as the dense route
    does, with no warning."""
    thr = _threshold(N)
    lams = np.array([-3.0, -1.0, -0.4, -thr, 0.0, 1e-9, thr / 2.0, np.nextafter(thr, 0.0),
                     thr, np.nextafter(thr, 1.0), 0.3, np.nextafter(1.0, 0.0), 1.0, 1.7])
    t1, t2 = 1.0 - lams, 1.0 + lams
    i, j = np.triu_indices(2 * N, k=1)
    i, j = i[::max(1, len(i) // 500)], j[::max(1, len(i) // 500)]
    # up to one ulp above the threshold, no edge level is below the tolerances
    gapped = lams <= np.nextafter(thr, 1.0)
    cases = [(lams == lams, analysis.obc_fill_count(N, lams, side))
             for side in ("below", "above")] + [(gapped, N), (gapped, None)]
    for keep, fill in cases:
        levels, corr = gaussian.open_ssh_ground_state(N, t1[keep], t2[keep], fill)
        wick = corr(i, j)
        assert wick[0].shape == (np.count_nonzero(keep), len(i))
        for b, lam in enumerate(lams[keep]):
            alone = gaussian.open_ssh_ground_state(
                N, 1.0 - lam, 1.0 + lam, fill if np.ndim(fill) == 0 else fill[b])
            assert np.array_equal(levels[b], alone[0])
            for w, v in zip(wick[:3], alone[1](i, j)[:3]):
                assert np.array_equal(w[b], v)
    for fill, a, b, error in ((None, 0.0, 2.0, gaussian.GaplessError),  # lambda = 1
                              (N + 1, 2.0, 0.0, gaussian.DegenerateFillError),  # lambda = -1
                              (None, 0.0, 0.0, gaussian.GaplessError),  # the zero chain
                              (N, 0.0, 0.0, gaussian.DegenerateFillError)):
        A = np.diag(np.resize([a, b], 2 * N - 1), 1)
        with pytest.raises(error):
            gaussian.particle_ground_state(A + A.T, fill)
        with pytest.raises(error):
            gaussian.open_ssh_ground_state(N, a, b, fill)
        with pytest.raises(error):
            gaussian.open_ssh_ground_state(N, np.append(t1, a), np.append(t2, b), fill)

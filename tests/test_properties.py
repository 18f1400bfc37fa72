"""Property tests: the momentum-space kernel against the real-space route,
the closed-form two-site X state against the dense Fock-space RDM, and the
particle-matrix ground state of SSH chains, and of Kitaev chains at an
explicit filling, against the Majorana route.

Hypothesis draws chains and site pairs with ``derandomize=True``, so every
run checks the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainent import analysis, entanglement, gaussian, models
from chainent.errors import ChainentError
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
    want = entanglement.rdm_pair(spec, s1, s2, fill=spec.N).eta
    got = entanglement.eta_analytic(spec, s1, s2).value
    assert abs(got - want) < 1e-12


@PROPERTY
@given(N=st.integers(2, 24), t=st.floats(0.2, 2.0),
       delta=st.floats(0.2, 2.0), mu=st.floats(-4.0, 4.0))
def test_kitaev_eta_z_matches_realspace(N, t, delta, mu):
    h = models.kitaev_bloch(mu, models.momentum_grid(N), t, delta)
    assume(np.min(models.bloch_norm(h)) > 0.05)
    spec = ModelSpec.kitaev(N, t=t, delta=delta, mu=mu)
    Mbar = gaussian.spectral_flatten(models.realspace_hamiltonian(spec))
    assert abs(analysis.kitaev_eta_z(mu, t, delta, N) - Mbar[0, 1]) < 1e-12


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
    M = models.realspace_hamiltonian(spec)
    fill = None
    if spec.family is models.Family.SSH and draw(st.booleans()):
        fill = draw(st.integers(0, L))
    if fill is None:
        gap = np.min(np.abs(np.linalg.eigvalsh(1j * M)))
        Mbar_of = gaussian.spectral_flatten
    else:
        levels = np.linalg.eigvalsh(M[0::2, 1::2])
        gap = levels[fill] - levels[fill - 1] if 0 < fill < L else np.inf
        Mbar_of = lambda M: gaussian.flatten_from_fill(M, fill)  # noqa: E731
    assume(gap > 0.05)
    i, j = draw(st.lists(st.integers(0, L - 1), min_size=2, max_size=2,
                         unique=True))
    return Mbar_of(M), i, j


@PROPERTY
@given(gaussian_pairs())
def test_x_state_matches_dense_rdm(case):
    Mbar, i, j = case
    dense = gaussian.rdm_from_restriction(gaussian.restrict(Mbar, [i, j])).matrix
    wick = gaussian.pair_correlations(Mbar, i, j)
    assert np.max(np.abs(entanglement.x_state(*wick) - dense)) < 1e-12
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
               - entanglement.concurrence(dense)) < tol


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
    M = models.realspace_hamiltonian(spec)

    def oracle():
        Mbar = (gaussian.spectral_flatten(M) if fill is None
                else gaussian.flatten_from_fill(M, fill))
        return gaussian.pair_correlations(Mbar, i, j)

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
    if fill is not None and 1e-3 < gap < np.inf:
        # flatten_from_fill shares the particle solver; flattening the
        # Majorana matrix with the Fermi level moved into the gap does not
        mu = (levels[fill - 1] + levels[fill]) / 2.0
        shifted = M - mu * models.majorana_matrix(np.eye(L))
        for w, g in zip(gaussian.pair_correlations(
                gaussian.spectral_flatten(shifted), i, j), got):
            assert np.max(np.abs(w - g)) < 1e-12


@st.composite
def open_chains(draw):
    """A clean open SSH chain, a filling at or next to half, site pairs."""
    N = draw(st.integers(2, 64))
    lam = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    fill = draw(st.sampled_from([None, N - 1, N, N + 1]))
    pairs = draw(st.lists(st.lists(st.integers(0, 2 * N - 1), min_size=2,
                                   max_size=2, unique=True),
                          min_size=1, max_size=8))
    return ModelSpec.ssh(N, lam, boundary="open"), fill, *np.array(pairs).T


@PROPERTY
@given(open_chains())
def test_mirror_route_matches_full_size_oracle(case):
    """The half-size mirror-block solve against the full L x L tridiagonal
    solve: the same Wick data, the same errors on the same inputs."""
    spec, fill, i, j = case
    A = models.particle_matrix(spec)

    def oracle():
        _, V = gaussian.particle_ground_state(A, fill)
        return gaussian.particle_correlations(V, i, j)

    want = _outcome(oracle)
    got = _outcome(lambda: entanglement._ground_state(spec, fill)(i, j))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    # The oracle mixes the two edge levels, split by ~(t1/t2)^N, by eps/gap
    # (Davis-Kahan, as above); the mirror blocks hold one edge level each and
    # do not.  Compare to 1e-12 where the gap at the Fermi level exceeds
    # 1e-3, to 1e-14 / gap below, and hold the half-filled state (fill None,
    # N particles) to its exact n = 1/2 (chiral symmetry) at 1e-12 always.
    levels = np.linalg.eigvalsh(A)
    nf = spec.N if fill is None else fill
    gap = levels[nf] - levels[nf - 1]
    tol = 1e-12 if gap > 1e-3 else 1e-14 / gap
    for w, g in zip(want[:3], got[:3]):
        assert np.max(np.abs(w - g)) < tol
    if fill is None:
        assert np.max(np.abs(np.array(got[:2]) - 0.5)) < 1e-12

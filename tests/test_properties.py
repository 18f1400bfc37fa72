"""Property tests: the momentum-space kernel against the real-space route.

Hypothesis draws chains and site pairs with ``derandomize=True``, so every
run checks the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainent import analysis, entanglement, gaussian, models
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

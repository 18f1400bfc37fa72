import math
from functools import partial

import numpy as np
import pytest

from chainent import models, reference
from chainent.errors import DisorderUnsupportedError, GaplessError
from chainent.models import Boundary, DisorderSpec, Family, ModelSpec


def test_ssh_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec.ssh(1, 0.3)
    with pytest.raises(ValueError):
        ModelSpec.ssh(8, 1.5)
    with pytest.raises(ValueError):
        ModelSpec(Family.SSH, 8, lam=0.3, t=1.0)
    spec = ModelSpec.ssh(8, 0.3)
    assert spec.t1 == pytest.approx(0.7)
    assert spec.t2 == pytest.approx(1.3)
    assert spec.num_modes == 16


def test_kitaev_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(Family.KITAEV, 8, t=1.0)  # missing delta, mu
    spec = ModelSpec.kitaev(8, t=1.0, delta=0.5, mu=0.2)
    assert spec.num_modes == 8


def test_momentum_grid():
    ks = models.momentum_grid(8)
    assert len(ks) == 8
    assert np.pi in ks  # even N hits the zone edge
    assert np.pi not in models.momentum_grid(7)


def test_bloch_vector_gapless_at_zero():
    spec = ModelSpec.ssh(8, 0.0)
    assert models.bloch_norm(models.bloch_vector(spec, np.pi)) < models.GAP_TOL
    with pytest.raises(GaplessError):
        models.bz_mean(lambda k, h, r: h[0], partial(models.bloch_vector, spec), 8)


def test_ssh_realspace_spectrum_matches_bloch():
    """Eigenvalues of iM are +/-|h(k)| over the momentum grid, each doubled."""
    spec = ModelSpec.ssh(10, 0.3)
    M = reference.realspace_hamiltonian(spec)
    got = np.sort(np.linalg.eigvalsh(1j * M))
    bands = models.bloch_norm(
        models.bloch_vector(spec, models.momentum_grid(10)))
    want = np.sort(np.concatenate([bands, bands, -bands, -bands]))
    assert np.allclose(got, want, atol=1e-12)


def test_kitaev_realspace_spectrum_matches_bloch():
    """Kitaev iM eigenvalues are +/-2|h(k)| in this parametrization."""
    spec = ModelSpec.kitaev(9, t=1.0, delta=0.7, mu=0.4)
    M = reference.realspace_hamiltonian(spec)
    got = np.sort(np.linalg.eigvalsh(1j * M))
    bands = 2.0 * models.bloch_norm(
        models.bloch_vector(spec, models.momentum_grid(9)))
    want = np.sort(np.concatenate([bands, -bands]))
    assert np.allclose(got, want, atol=1e-12)


def test_realspace_is_skew():
    for spec in (ModelSpec.ssh(6, -0.4), ModelSpec.kitaev(6, mu=0.5),
                 ModelSpec.ssh(6, 0.4, boundary=Boundary.OPEN)):
        M = reference.realspace_hamiltonian(spec)
        assert np.allclose(M, -M.T)


def test_open_chain_has_no_wrap_coupling():
    spec = ModelSpec.ssh(6, 0.4, boundary=Boundary.OPEN)
    M = reference.realspace_hamiltonian(spec)
    # Majoranas of cell 0 (indices 0..3) and cell 5 (indices 20..23)
    assert np.all(M[:4, 20:] == 0.0)


def test_disorder_deterministic():
    d = DisorderSpec(amplitude=0.1, seed=42)
    e1 = d.onsite_energies(12)
    e2 = DisorderSpec(amplitude=0.1, seed=42).onsite_energies(12)
    assert np.array_equal(e1, e2)
    assert np.max(np.abs(e1)) <= 0.1
    assert not np.array_equal(e1, DisorderSpec(0.1, 43).onsite_energies(12))


def test_disorder_shifts_onsite_terms():
    clean = reference.realspace_hamiltonian(ModelSpec.ssh(6, 0.4))
    dirty = reference.realspace_hamiltonian(
        ModelSpec.ssh(6, 0.4, disorder=DisorderSpec(0.1, 7)))
    diff = dirty - clean
    # onsite energies only touch the (2j, 2j+1) Majorana pairs of each mode
    mask = np.zeros_like(diff, dtype=bool)
    for j in range(12):
        mask[2 * j, 2 * j + 1] = mask[2 * j + 1, 2 * j] = True
    assert np.all(diff[~mask] == 0.0)
    assert np.any(diff[mask] != 0.0)


# ------------------------------------------ SSH thermodynamic closed forms

def _mp_limits(lam):
    """eta1 and d(eta1)/d(lambda) at 40 digits from Legendre's K and E:
    eta1 = 2(E - lambda K)/(pi t1), deta1 = (2/pi)(2E - (1 + lambda^2) K)/(t1^2 t2)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam = mp.mpf(lam)
        K, E = mp.ellipk(1 - lam ** 2), mp.ellipe(1 - lam ** 2)
        eta = 2 * (E - lam * K) / (mp.pi * (1 - lam))
        deta = 2 * (2 * E - (1 + lam ** 2) * K) / (mp.pi * (1 - lam) ** 2 * (1 + lam))
        return float(eta), float(deta)


def test_ssh_limits_match_mpmath():
    g = np.geomspace(1e-9, 0.99, 200)
    lams = np.concatenate([-g[::-1], g])
    ref = np.array([_mp_limits(lam) for lam in lams])
    eta1 = models.ssh_eta1_limit(lams)
    assert np.max(np.abs(eta1 - ref[:, 0])) <= 1e-14
    # eta2(lambda) = eta1(-lambda), and the grid is symmetric
    assert np.max(np.abs(models.ssh_eta1_limit(-lams) - ref[::-1, 0])) <= 1e-14
    assert np.max(np.abs(models.ssh_deta1_limit(lams) - ref[:, 1])) <= 1e-13


@pytest.mark.parametrize("lam", [1e-4, -1e-4, 1e-3, -1e-3, 0.05, -0.05, 0.138,
                                 -0.138, 0.5, -0.5, 0.9, -0.9, 0.999, -0.999,
                                 1.0, -1.0])
def test_ssh_limits_match_quad(lam):
    """The Brillouin-zone integrals by adaptive quadrature are the oracle."""
    from chainent.entanglement import eta_summand
    bloch = partial(models.ssh_bloch, lam)
    for d, sign in ((0, 1.0), (-1, -1.0)):  # eta1, eta2 = eta1(-lambda)
        quad = models.bz_mean(partial(eta_summand, d=d), bloch, None)
        assert models.ssh_eta1_limit(sign * lam) == pytest.approx(quad, abs=1e-12)
    quad = models.bz_mean(
        lambda k, h, r: models.unit_derivative(h, r, models.ssh_bloch, k)[0],
        bloch, None, points=[np.pi])
    assert models.ssh_deta1_limit(lam) == pytest.approx(quad, abs=1e-12)


def test_ssh_limits_endpoints():
    # fully dimerized chains: no 0/0 at t1 = 0 or t2 = 0
    assert models.ssh_eta1_limit(1.0) == 0.0
    assert models.ssh_eta1_limit(-1.0) == 1.0
    assert models.ssh_deta1_limit(1.0) == pytest.approx(-0.25, abs=1e-15)
    assert models.ssh_deta1_limit(-1.0) == 0.0
    assert list(models.ssh_eta1_limit(np.array([-1.0, 1.0]))) == [1.0, 0.0]


def test_ssh_deta1_limit_log_asymptote():
    """K(m) ~ ln(4/|lambda|) as m -> 1 (DLMF 19.12.1) gives the paper's
    asymptote (2/pi) ln[(e/2)^2 |lambda|] with an O(lambda ln lambda) rest."""
    g = np.geomspace(1e-9, 1e-2, 40)
    for lams in (g, -g):
        rest = models.ssh_deta1_limit(lams) - 2.0 / np.pi * np.log(
            (np.e / 2.0) ** 2 * np.abs(lams))
        assert np.all(np.abs(rest) <= np.abs(lams * np.log(np.abs(lams))))


@pytest.mark.parametrize("spec,message", [
    (ModelSpec.ssh(8, 0.3, disorder=DisorderSpec(0.1, 1)),
     "momentum space requires translation invariance"),
    (ModelSpec.ssh(8, 0.3, boundary="open"), "momentum space requires periodic boundaries"),
], ids=["disordered", "open"])
def test_bloch_vector_rejects_specs_without_momentum(spec, message):
    """Bloch vectors need a clean ring: DisorderUnsupportedError otherwise."""
    with pytest.raises(DisorderUnsupportedError) as got:
        models.bloch_vector(spec, 0.3)
    assert type(got.value) is DisorderUnsupportedError and str(got.value) == message


@pytest.mark.filterwarnings("error")
def test_kitaev_scale_is_an_eighth_where_the_level_bound_overflows():
    """1/8 exactly where |mu| + 2(|t| + |delta| + amplitude) overflows, at the
    largest |mu| of an array, with no warning on numpy scalars; 1 elsewhere."""
    big = np.float64(1.7e308)
    assert models.kitaev_scale(-big, 1.0, 1.0) == 1.0
    assert models.kitaev_scale(np.array([0.0, -big]), big / 2, 1.0) == 0.125
    assert models.kitaev_scale(np.array([]), 2.5e307, 2.5e307, 2.5e307) == 1.0
    assert models.kitaev_scale(0.0, 2.5e307, 2.5e307, 4e307) == 0.125
    assert models.kitaev_scale(1.79e308, 2e307, 0.0) == 0.125
    assert models.kitaev_scale(1.79e308, 0.0, np.float64(1e292)) == 1.0


@pytest.mark.filterwarnings("error")
def test_bloch_norm_scales_what_would_overflow():
    """A triple whose squares overflow takes |h| of h scaled by a power of two,
    on arrays and on one momentum, to an ulp of math.hypot; other triples keep
    the bits of sqrt(hx^2 + hy^2 + hz^2)."""
    k = models.momentum_grid(16)
    for h in (models.kitaev_bloch(-8e307, k), models.kitaev_bloch(8e307, k, 1e300, 1e307),
              (1e200, -3e200, np.array([2e200, 0.0, 1e-300]))):
        r = models.bloch_norm(h)
        want = [math.hypot(*c) for c in zip(*np.broadcast_arrays(*h))]
        assert np.all(np.abs(r - want) <= 2.3e-16 * np.array(want))
        for j in range(len(want)):
            assert abs(models.bloch_norm([c[j] for c in np.broadcast_arrays(*h)])
                       - want[j]) <= 2.3e-16 * want[j]
    for h in (models.ssh_bloch(0.3, k), models.kitaev_bloch(1.2, k, 0.7, 1.3)):
        hx, hy, hz = h
        want = np.sqrt(hx * hx + hy * hy + hz * hz)
        assert np.array_equal(models.bloch_norm(h), want)
        assert [models.bloch_norm([c[j] for c in np.broadcast_arrays(*h)])
                for j in range(16)] == want.tolist()

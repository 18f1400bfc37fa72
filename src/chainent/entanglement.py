"""Two-site reduced density matrices, concurrences and entangled graphs.

A lattice site is addressed as ``(cell, 'a' | 'b')`` for SSH, ``(n, 's')``
for Kitaev.  The two-site RDM of a pair of sites is treated as a two-qubit
state in the occupation basis, following the entangled-graph construction
literally; parity superselection and exchange strings for non-adjacent pairs
are deliberately ignored (the pairwise concurrence is defined on the
occupation-number density matrix as-is, an X state by Wick's theorem).
Every ground state's Wick data come from :func:`_ground_state`, the one
place its route is picked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import GaplessError, InvalidStateError
from .gaussian import (
    _check_pairs,
    _filled,
    _majorana_wick,
    open_ssh_ground_state,
    particle_correlations,
    particle_ground_state,
)
from .models import (
    Boundary,
    Family,
    GAP_TOL,
    ModelSpec,
    bloch_vector,
    bz_mean,
    gapped_grid,
    majorana_matrix,
    particle_matrix,
    ssh_bloch,
    ssh_eta1_limit,
)
from .serialize import _json, _json_array, _json_records

CONCURRENCE_ZERO = 1e-12
PSD_TOL = 1e-8

Site = tuple  # (cell, "a" | "b") for SSH, (site, "s") for Kitaev
SUBLATTICES = {Family.SSH: ("a", "b"), Family.KITAEV: ("s",)}


def mode_index(site: Site, family: Family = Family.SSH) -> int:
    """Fermionic mode index of a site: SSH a_n -> 2n, b_n -> 2n + 1;
    Kitaev s_n -> n."""
    cell, sub = site
    subs = SUBLATTICES[family]
    if sub not in subs:
        raise ValueError(f"sublattice must be one of {subs}")
    return len(subs) * cell + subs.index(sub)


@dataclass(frozen=True)
class EtaValue:
    value: float
    pair: tuple


def eta_summand(k, h, r, d: int):
    """Per-momentum term of eta_{a_n b_{n+d}}: cos(kd) u_x - sin(kd) u_y,
    u = h/r with r = |h|; that is cos(kd + phi(k)) with
    e^{i phi} = u_x + i u_y."""
    hx, hy, _ = h
    return (np.cos(k * d) * hx - np.sin(k * d) * hy) / r


def eta_analytic(spec: ModelSpec, site1: Site, site2: Site) -> EtaValue:
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
        return EtaValue(0.0, (site1, site2))
    if i % 2:  # eta_{b_n a_m} = eta_{a_m b_n}
        i, j = j, i
    value = bz_mean(partial(eta_summand, d=j // 2 - i // 2),
                    partial(ssh_bloch, spec.lam), spec.N)
    return EtaValue(value, (site1, site2))


CRITICAL_POINT = "lambda = 0 is the critical point"


def eta_thermodynamic(spec_or_lambda, pair: str = "intra") -> EtaValue:
    """N -> infinity eta from the elliptic closed form
    :func:`models.ssh_eta1_limit` of the Brillouin-zone integral.

    ``pair`` is ``"intra"`` (a_n b_n, eta1) or ``"inter"`` (b_n a_{n+1},
    eta2, which is eta1 at -lambda).
    """
    lam = spec_or_lambda.lam if isinstance(spec_or_lambda, ModelSpec) else spec_or_lambda
    if not -1.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [-1, 1]")
    if abs(lam) < GAP_TOL:
        raise GaplessError(CRITICAL_POINT)
    if pair not in ("intra", "inter"):
        raise ValueError("pair must be 'intra' or 'inter'")
    value = float(ssh_eta1_limit(lam if pair == "intra" else -lam))
    return EtaValue(value, (pair, "thermodynamic"))


BASIS_DOC = "occupation bitstrings, first listed site = least significant bit"


@dataclass(frozen=True)
class TwoSiteRDM:
    """4x4 two-site reduced density matrix.

    ``eta`` is set when the matrix has the one-parameter form
    (1/4) [[1-eta^2,,,], [, 1+eta^2, -2 eta,], [, -2 eta, 1+eta^2,], [,,, 1-eta^2]].
    """

    matrix: np.ndarray
    sites: tuple
    eta: float | None = None
    basis: str = BASIS_DOC


def _populations(n_i, n_j, G, F):
    """(p00, p10, p01, p11) of the X state; p10 has site i occupied."""
    p11 = n_i * n_j - np.abs(G) ** 2 + np.abs(F) ** 2
    return 1.0 - n_i - n_j + p11, n_i - p11, n_j - p11, p11


def x_state(n_i, n_j, G, F) -> np.ndarray:
    """Two-site RDM from the Wick data of :func:`gaussian.pair_correlations`,
    site i the least significant bit: diag(p00, p10, p01, p11) with
    ``p11 = n_i n_j - |G|^2 + |F|^2``, ``rho[2, 1] = G``, ``rho[3, 0] = -F``."""
    m = np.diag(np.array(_populations(n_i, n_j, G, F), dtype=complex))
    m[2, 1], m[1, 2], m[3, 0], m[0, 3] = G, np.conj(G), -F, -np.conj(F)
    return m


def x_concurrence(n_i, n_j, G, F):
    """Concurrence ``2 max(0, |G| - sqrt(p00 p11), |F| - sqrt(p01 p10))`` of
    the X state, elementwise; rejects non-states like :func:`concurrence`."""
    p00, p10, p01, p11 = _populations(n_i, n_j, G, F)
    g, f = np.abs(G), np.abs(F)
    # twice the lowest eigenvalue of each 2x2 block of the X state
    if np.any(np.minimum(p00 + p11 - np.hypot(p00 - p11, 2.0 * f),
                         p10 + p01 - np.hypot(p10 - p01, 2.0 * g)) < -2.0 * PSD_TOL):
        raise InvalidStateError("matrix is not positive semidefinite")
    r00, r01 = np.sqrt(np.clip([p00 * p11, p01 * p10], 0.0, None))
    return 2.0 * np.maximum(0.0, np.maximum(g - r00, f - r01))


def rdm_matrix_from_eta(eta: float) -> np.ndarray:
    """The X state at half filling without pairing: n = 1/2, G = -eta/2, F = 0."""
    return x_state(0.5, 0.5, -0.5 * eta, 0.0)


def _ground_state(spec: ModelSpec, fill: int | None):
    """Wick data ``corr(i, j)`` of the ground state filling ``fill`` levels,
    or every negative one: the one route choice.  Clean rings at the default
    fill take one FFT (:func:`_bloch_correlations`); clean open SSH chains the
    closed form; other SSH chains and any explicit fill the L x L particle
    matrix (ValueError on pairing); other Kitaev chains its polar factor
    Q = U V^T, H = U S V^T: M = ``majorana_matrix(H)`` has levels +-S and
    flattens to M (-M^2)^(-1/2) = ``majorana_matrix(Q)``."""
    if spec.clean_periodic and fill is None:
        return _bloch_correlations(spec)
    if spec.family is Family.SSH and spec.disorder is None \
            and spec.boundary is Boundary.OPEN:
        return open_ssh_ground_state(spec.N, spec.t1, spec.t2, fill)[1]
    if spec.family is Family.SSH or fill is not None:
        _, V = particle_ground_state(particle_matrix(spec), fill)
        return partial(particle_correlations, V)
    U, S, Vt = np.linalg.svd(particle_matrix(spec))
    _filled(S, None)  # the GaplessError of spectral_flatten
    return partial(_majorana_wick, majorana_matrix(U @ Vt))


def rdm_pair(spec: ModelSpec, site1: Site, site2: Site,
             fill: int | None = None) -> TwoSiteRDM:
    """Two-site reduced density matrix of the ground state
    (:func:`_ground_state`), sites labelled as in :func:`mode_index`.
    ``fill`` selects the number of occupied single-particle levels for
    fillings other than "all negative levels" (open-boundary zero modes).
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


def concurrence_from_eta(eta):
    """Closed form for the one-parameter RDM: max{0, (eta^2 + 2|eta| - 1)/2},
    elementwise (NaN stays NaN).

    Nonzero only for |eta| > sqrt(2) - 1; the sign of eta is a local basis
    rephasing and does not change the entanglement."""
    a = np.abs(eta)
    return np.maximum(0.0, 0.5 * (a * a + 2.0 * a - 1.0))


class Phase(str, Enum):
    P0 = "P0"
    Q0 = "Q0"
    Q1 = "Q1"
    P1 = "P1"
    CRITICAL = "Critical"


def classify_phase(c1: float, c2: float, tol: float = 1e-10) -> Phase:
    """Phase label from the intra-cell (c1) and inter-cell (c2) concurrences."""
    z1 = c1 <= CONCURRENCE_ZERO
    z2 = c2 <= CONCURRENCE_ZERO
    if not z1 and z2:
        return Phase.P0
    if z1 and not z2:
        return Phase.P1
    if abs(c1 - c2) <= tol:
        return Phase.CRITICAL
    return Phase.Q0 if c1 > c2 else Phase.Q1


def site_label(site: Site) -> str:
    return f"{site[1]}{site[0]}"


@dataclass(frozen=True)
class EntangledGraph:
    """Weighted graph of all pairwise concurrences above the zero threshold.
    Kitaev graphs have no phase, c1 or c2 (those need SSH cell bonds)."""

    num_cells: int
    edges: list
    phase: Phase | None
    c1: float | None = None
    c2: float | None = None
    sublattices: tuple = ("a", "b")

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2)``, the oracle in ``tests/test_serialize.py``, of
        {num_cells, phase, c1, c2, vertices, edges: [{site1, site2, concurrence}]}."""
        vertices = [_json(site_label((n, s))) for n in range(self.num_cells)
                    for s in self.sublattices]
        edges = [(site_label(s1), site_label(s2), c) for s1, s2, c in self.edges]
        return ('{\n  "num_cells": %s,\n  "phase": %s,\n  "c1": %s,\n  "c2": %s,'
                '\n  "vertices": %s,\n  "edges": %s\n}') % (
            *map(_json, (self.num_cells, self.phase and self.phase.value,
                         self.c1, self.c2)), _json_array(vertices, 1),
            _json_records(edges, ("site1", "site2", "concurrence"), 1))


def _bloch_correlations(spec: ModelSpec):
    """Wick data ``corr(i, j)`` of a clean ring at the default fill from one
    inverse FFT of the unit Bloch vector, pairs checked as in
    :func:`gaussian.pair_correlations`; same-sublattice SSH pairs have G = 0."""
    N, L = spec.N, spec.num_modes
    _, (hx, hy, hz), r = gapped_grid(partial(bloch_vector, spec), N)
    if spec.family is Family.SSH:  # G[m - n] = -eta / 2 of (a_n, b_m): b's cell minus a's
        G = -0.5 * np.fft.ifft((hx + 1j * hy) / r).real
        wick = lambda i, j: (0.5, 0.5, np.where(
            i % 2 == j % 2, 0.0, G[(j // 2 - i // 2) * (1 - 2 * (i % 2)) % N]), 0.0)
    else:
        G, F = -0.5 * np.fft.ifft(hz / r).real, 0.5 * np.fft.ifft(hy / r).imag
        wick = lambda i, j: (0.5 + G[0], 0.5 + G[0], G[(i - j) % N], F[(i - j) % N])
    return lambda i, j: wick(*_check_pairs(i, j, L))


def entangled_graph(spec: ModelSpec, fill: int | None = None) -> EntangledGraph:
    """All pairwise concurrences (:func:`x_concurrence`) as an entangled graph.

    The Wick data come from :func:`_ground_state`.  Pairs more than N/2
    cells apart (periodic distance on rings) are skipped.  Edges follow mode
    order, except on the clean SSH ring at the default fill: (a_n, b_{n+d}),
    n-major.

    Phase labels (SSH only): c1 > 0 = c2 -> P0; c1 > c2 > 0 -> Q0;
    c2 > c1 > 0 -> Q1; c2 > 0 = c1 -> P1; ties within 1e-10 -> Critical.
    The label is the majority over cells; c1/c2 are median bond values.
    """
    N, L, subs = spec.N, spec.num_modes, SUBLATTICES[spec.family]
    w, periodic = len(subs), spec.boundary is Boundary.PERIODIC
    corr = _ground_state(spec, fill)
    # the SSH cell bonds, c1 on (a_n, b_n) and c2 on (b_n, a_{n+1}); Kitaev has none
    cells = np.arange(N if w == 2 else 0)
    bonds = cells if periodic else cells[:-1]
    bi, bj = np.r_[2 * cells, (2 * bonds + 2) % L], np.r_[2 * cells + 1, 2 * bonds + 1]
    if spec.clean_periodic and fill is None:  # Wick data depend only on the cell offset
        d = np.arange(2 - w, N)  # pairs (a_0, b_d) from d = 0, (s_0, s_d) from 1
        by_offset = np.zeros(N)
        by_offset[d] = x_concurrence(*corr(0 * d, w * d + w - 1))
        edge_d = np.flatnonzero(by_offset > CONCURRENCE_ZERO)
        # only offsets with an edge get pairs: (a_n, b_{n+d}), n-major (the
        # same-sublattice pairs of the SSH ring are uncorrelated), or each
        # Kitaev pair (s_n, s_{n+d}) once, in mode order
        n, d = np.repeat(np.arange(N), len(edge_d)), np.tile(edge_d, N)
        if spec.family is not Family.SSH:
            n, d = n[n + d < N], d[n + d < N]
        i, j = w * n, w * ((n + d) % N) + w - 1
        c, c_bonds = by_offset[d], x_concurrence(*corr(bi, bj))
    else:
        i, j = np.triu_indices(L, k=1)
        dist = np.abs(i // w - j // w)
        dist = np.minimum(dist, N - dist) if periodic else dist
        i, j = i[dist <= N // 2], j[dist <= N // 2]
        c = x_concurrence(*corr(np.r_[i, bi], np.r_[j, bj]))  # the bonds ride along
        c, c_bonds = c[:len(i)], c[len(i):]
        keep = c > CONCURRENCE_ZERO
        i, j, c = i[keep], j[keep], c[keep]
    edges = [((a // w, subs[a % w]), (b // w, subs[b % w]), x) for a, b, x in
             zip(i.tolist(), j.tolist(), c.tolist())]
    if spec.family is not Family.SSH:
        return EntangledGraph(N, edges, None, sublattices=subs)
    c1s, c2s = c_bonds[:N].tolist(), c_bonds[N:].tolist()
    votes = [classify_phase(a, b) for a, b in zip(c1s, c2s)]
    phase = max(set(votes), key=lambda p: (votes.count(p), p.value))
    return EntangledGraph(N, edges, phase, float(np.median(c1s)),
                          float(np.median(c2s)))

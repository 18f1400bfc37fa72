"""Pairwise concurrences of two-site X states, and entangled graphs.

A lattice site is addressed as ``(cell, 'a' | 'b')`` for SSH, ``(n, 's')``
for Kitaev.  The two-site RDM of a pair of sites is treated as a two-qubit
state in the occupation basis, following the entangled-graph construction
literally; parity superselection and exchange strings for non-adjacent pairs
are deliberately ignored (the pairwise concurrence is defined on the
occupation-number density matrix as-is, an X state by Wick's theorem).
Every ground state's Wick data come from :func:`_ground_state`, the one
place its route is picked, and :func:`x_concurrence` reads the concurrence
off them in closed form.  The dense two-site RDM, Wootters' spin-flip
concurrence and the zone sum ``eta_analytic`` that check it are in
:mod:`chainent.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .errors import InvalidStateError
from .gaussian import (
    _check_pairs,
    _filled,
    _polar_wick,
    open_ssh_wick,
    particle_correlations,
    particle_ground_state,
)
from .models import (
    Boundary,
    Family,
    ModelSpec,
    bloch_vector,
    gapped_grid,
    kitaev_scale,
    particle_matrix,
)
from .serialize import _json, _json_array

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


def eta_summand(k, h, r, d: int):
    """Per-momentum term of eta_{a_n b_{n+d}}: cos(kd) u_x - sin(kd) u_y,
    u = h/r with r = |h|; that is cos(kd + phi(k)) with
    e^{i phi} = u_x + i u_y."""
    hx, hy, _ = h
    return (np.cos(k * d) * hx - np.sin(k * d) * hy) / r


def _populations(n_i, n_j, G, F):
    """(p00, p10, p01, p11) of the X state; p10 has site i occupied."""
    p11 = n_i * n_j - np.abs(G) ** 2 + np.abs(F) ** 2
    return 1.0 - n_i - n_j + p11, n_i - p11, n_j - p11, p11


def x_concurrence(n_i, n_j, G, F):
    """Concurrence ``2 max(0, |G| - sqrt(p00 p11), |F| - sqrt(p01 p10))`` of
    the X state, elementwise; rejects non-states like ``reference.concurrence``."""
    p00, p10, p01, p11 = _populations(n_i, n_j, G, F)
    g, f = np.abs(G), np.abs(F)
    # twice the lowest eigenvalue of each 2x2 block of the X state
    if (np.minimum(p00 + p11 - np.hypot(p00 - p11, 2.0 * f),
                   p10 + p01 - np.hypot(p10 - p01, 2.0 * g)) < -2.0 * PSD_TOL).any():
        raise InvalidStateError("matrix is not positive semidefinite")
    r00, r01 = np.sqrt(np.maximum([p00 * p11, p01 * p10], 0.0))
    return 2.0 * np.maximum(0.0, np.maximum(g - r00, f - r01))


def _ground_state(spec: ModelSpec, fill: int | None):
    """Wick data ``corr(i, j)`` of the ground state filling ``fill`` levels,
    or every negative one: the one route choice.  Clean rings at the default
    fill take one FFT (:func:`_bloch_correlations`); clean open SSH chains the
    closed form; other SSH chains and any explicit fill the L x L particle
    matrix (ValueError on pairing); other Kitaev chains the polar factor Q = U V^T
    of H = U S V^T, read by :func:`gaussian._polar_wick`: M = ``majorana_matrix(H)``
    has levels +-S and flattens to M (-M^2)^(-1/2) = ``majorana_matrix(Q)``."""
    a = spec.disorder.amplitude if spec.disorder else 0.0  # Kitaev energies times kitaev_scale
    if spec.family is Family.KITAEV and (s := kitaev_scale(spec.mu, spec.t, spec.delta, a)) != 1:
        disorder = spec.disorder and replace(spec.disorder, amplitude=s * a)
        spec = replace(spec, t=s * spec.t, delta=s * spec.delta, mu=s * spec.mu, disorder=disorder)
    if spec.clean_periodic and fill is None:
        return _bloch_correlations(spec)
    if spec.family is Family.SSH and spec.disorder is None \
            and spec.boundary is Boundary.OPEN:
        return open_ssh_wick(spec.N, spec.t1, spec.t2, fill)[1]
    if spec.family is Family.SSH or fill is not None:
        _, V = particle_ground_state(particle_matrix(spec), fill)
        return partial(particle_correlations, V)
    U, S, Vt = np.linalg.svd(particle_matrix(spec))
    _filled(S, None)  # the GaplessError of reference.spectral_flatten
    return partial(_polar_wick, U @ Vt)


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


def classify_phase(c1: float, c2: float) -> Phase:
    """Phase label from the intra-cell (c1) and inter-cell (c2) concurrences."""
    z1 = c1 <= CONCURRENCE_ZERO
    z2 = c2 <= CONCURRENCE_ZERO
    if not z1 and z2:
        return Phase.P0
    if z1 and not z2:
        return Phase.P1
    if abs(c1 - c2) <= 1e-10:
        return Phase.CRITICAL
    return Phase.Q0 if c1 > c2 else Phase.Q1


def site_label(site: Site) -> str:
    return f"{site[1]}{site[0]}"


@dataclass(frozen=True, eq=False)
class EntangledGraph:
    """Weighted graph of all pairwise concurrences above the zero threshold:
    edge ``k`` joins modes ``i[k]`` and ``j[k]`` with concurrence ``c[k]``.
    Kitaev graphs have no phase, c1 or c2 (those need SSH cell bonds)."""

    num_cells: int
    i: np.ndarray
    j: np.ndarray
    c: np.ndarray
    phase: Phase | None
    c1: float | None = None
    c2: float | None = None
    sublattices: tuple = ("a", "b")

    @property
    def edges(self) -> list:
        """``((cell, sub), (cell, sub), c)`` per edge, built on each access."""
        w, subs = len(self.sublattices), self.sublattices
        return [((a // w, subs[a % w]), (b // w, subs[b % w]), x) for a, b, x in
                zip(self.i.tolist(), self.j.tolist(), self.c.tolist())]

    def _lines(self, template: str, labels: list) -> list:
        """``template % (label of i, label of j, c)`` per edge, c a float."""
        return [template % (labels[a], labels[b], x) for a, b, x in
                zip(self.i.tolist(), self.j.tolist(), self.c.tolist())]

    def _labels(self) -> list:
        """The site label of each mode, in mode order."""
        return [site_label((n, s)) for n in range(self.num_cells) for s in self.sublattices]

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2)``, the oracle in ``tests/test_serialize.py``, of
        {num_cells, phase, c1, c2, vertices, edges: [{site1, site2, concurrence}]};
        every c is finite, so ``repr`` writes it as ``json`` does."""
        vertices = [_json(label) for label in self._labels()]
        edges = self._lines('{\n      "site1": %s,\n      "site2": %s,'
                            '\n      "concurrence": %r\n    }', vertices)
        return ('{\n  "num_cells": %s,\n  "phase": %s,\n  "c1": %s,\n  "c2": %s,'
                '\n  "vertices": %s,\n  "edges": %s\n}') % (
            *map(_json, (self.num_cells, self.phase and self.phase.value,
                         self.c1, self.c2)), _json_array(vertices, 1),
            _json_array(edges, 1))

    def to_csv(self) -> str:
        """The edge list ``site1,site2,concurrence`` as ``serialize.write_csv``
        writes it: a header line, then one ``%.17g`` row per edge."""
        return "".join(["site1,site2,concurrence\n",
                        *self._lines("%s,%s,%.17g\n", self._labels())])


def _bloch_correlations(spec: ModelSpec):
    """Wick data ``corr(i, j)`` of a clean ring at the default fill from one
    inverse FFT of the unit Bloch vector, pairs checked as in
    ``reference.pair_correlations``; same-sublattice SSH pairs have G = 0."""
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
    The label is the majority over cells; c1/c2 are median bond values.  An
    open chain votes over its N - 1 cells with both bonds, c1 on (a_n, b_n)
    and c2 on (b_n, a_{n+1}); a clean ring at the default fill has one value
    per bond type, so its one label is :func:`classify_phase` of c1 and c2.
    """
    N, L, subs = spec.N, spec.num_modes, SUBLATTICES[spec.family]
    w, periodic = len(subs), spec.boundary is Boundary.PERIODIC
    corr = _ground_state(spec, fill)
    if spec.clean_periodic and fill is None:  # Wick data depend only on the cell offset
        d = np.arange(2 - w, N)  # pairs (a_0, b_d) from d = 0, (s_0, s_d) from 1
        by_offset = np.zeros(N)
        by_offset[d] = x_concurrence(*corr(0 * d, w * d + w - 1))
        edge_d = (by_offset > CONCURRENCE_ZERO).nonzero()[0]
        # only offsets with an edge get pairs: (a_n, b_{n+d}), n-major (the
        # same-sublattice pairs of the SSH ring are uncorrelated), or each
        # Kitaev pair (s_n, s_{n+d}) once, in mode order
        n, d = np.arange(N).repeat(len(edge_d)), edge_d[None].repeat(N, axis=0).ravel()
        if spec.family is not Family.SSH:
            n, d = n[n + d < N], d[n + d < N]
            return EntangledGraph(N, n, n + d, by_offset[d], None, sublattices=subs)
        # c1 on (a_n, b_n) at offset 0, c2 on (a_{n+1}, b_n) at offset -1
        c1, c2 = by_offset[[0, N - 1]].tolist()
        return EntangledGraph(N, 2 * n, 2 * ((n + d) % N) + 1, by_offset[d],
                              classify_phase(c1, c2), c1, c2)
    # the SSH cell bonds, c1 on (a_n, b_n) and c2 on (b_n, a_{n+1}); Kitaev has none
    cells = np.arange(N if w == 2 else 0)
    bonds = cells if periodic else cells[:-1]
    bi = np.concatenate([2 * cells, (2 * bonds + 2) % L])
    bj = np.concatenate([2 * cells + 1, 2 * bonds + 1])
    modes = np.arange(L)
    dist = np.abs(modes[:, None] // w - modes // w)  # the cell distance of each mode pair
    dist = np.minimum(dist, N - dist) if periodic else dist
    i, j = ((modes[:, None] < modes) & (dist <= N // 2)).nonzero()  # i < j, row-major
    c = x_concurrence(*corr(np.concatenate([i, bi]), np.concatenate([j, bj])))  # bonds ride along
    c, c_bonds = c[:len(i)], c[len(i):]
    keep = c > CONCURRENCE_ZERO
    i, j, c = i[keep], j[keep], c[keep]
    if spec.family is not Family.SSH:
        return EntangledGraph(N, i, j, c, None, sublattices=subs)
    c1s, c2s = c_bonds[:N].tolist(), c_bonds[N:].tolist()
    votes = [classify_phase(a, b) for a, b in zip(c1s, c2s)]
    phase = max(set(votes), key=lambda p: (votes.count(p), p.value))
    return EntangledGraph(N, i, j, c, phase, _median(c1s), _median(c2s))


def _median(xs: list) -> float:
    """``np.median`` of Python floats bit for bit: NaN if one is, and 0.0 for -0.0."""
    if any(x != x for x in xs):
        return math.nan
    s, m = sorted(xs), len(xs) // 2
    return (s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2.0) + 0.0

"""Two-site reduced density matrices, concurrences and entangled graphs.

A lattice site is addressed as ``(cell, 'a' | 'b')`` for SSH.  The two-site
RDM of a pair of sites is treated as a two-qubit state in the occupation
basis, following the entangled-graph construction literally; parity
superselection and exchange strings for non-adjacent pairs are deliberately
ignored (the pairwise concurrence is defined on the occupation-number
density matrix as-is).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import GaplessError, InvalidStateError
from .gaussian import flatten_from_fill, rdm_from_restriction, restrict, spectral_flatten
from .models import (
    Boundary,
    Family,
    GAP_TOL,
    ModelSpec,
    bloch_norm,
    bz_mean,
    realspace_hamiltonian,
    ssh_bloch,
)

CONCURRENCE_ZERO = 1e-12

Site = tuple  # (cell, "a" | "b")


def mode_index(site: Site) -> int:
    """Fermionic mode index of an SSH site: a_n -> 2n, b_n -> 2n + 1."""
    cell, sub = site
    if sub not in ("a", "b"):
        raise ValueError("sublattice must be 'a' or 'b'")
    return 2 * cell + (sub == "b")


class Route(str, Enum):
    MOMENTUM_ANALYTIC = "momentum-analytic"
    REAL_SPACE = "real-space"


@dataclass(frozen=True)
class EtaValue:
    value: float
    pair: tuple
    route: Route


def eta_summand(k, h, d: int):
    """Per-momentum term of eta_{a_n b_{n+d}}: cos(kd) u_x - sin(kd) u_y,
    u = h/|h|; that is cos(kd + phi(k)) with e^{i phi} = u_x + i u_y."""
    hx, hy, _ = h
    return (np.cos(k * d) * hx - np.sin(k * d) * hy) / bloch_norm(h)


def _ssh_eta(lam: float, d: int, N: int | None) -> float:
    return bz_mean(partial(eta_summand, d=d), partial(ssh_bloch, lam), N)


def eta_analytic(spec: ModelSpec, site1: Site, site2: Site) -> EtaValue:
    """Brillouin-zone-sum eta coefficient of a clean periodic SSH pair.

    eta_{a_n b_m} = (1/N) sum_k cos[k (m - n) + phi(k)]; same-sublattice
    pairs give exactly zero.  Raises GaplessError at the band touching
    (lambda = 0 with even N).
    """
    if spec.family is not Family.SSH:
        raise ValueError("eta_analytic applies to SSH specs")
    if not spec.clean_periodic:
        raise ValueError("analytic route requires a clean periodic chain")
    (n, s1), (m, s2) = site1, site2
    if s1 == s2:
        return EtaValue(0.0, (site1, site2), Route.MOMENTUM_ANALYTIC)
    if s1 == "b":  # eta_{b_n a_m} = eta_{a_m b_n}
        n, m = m, n
    value = _ssh_eta(spec.lam, m - n, spec.N)
    return EtaValue(value, (site1, site2), Route.MOMENTUM_ANALYTIC)


def eta_thermodynamic(spec_or_lambda, pair: str = "intra") -> EtaValue:
    """N -> infinity eta by adaptive quadrature of the Brillouin-zone integral.

    ``pair`` is ``"intra"`` (a_n b_n) or ``"inter"`` (b_n a_{n+1}).  The
    integrand is symmetric about k = pi, so the integral runs over half the
    zone.  Absolute and relative tolerance 1e-12.
    """
    lam = spec_or_lambda.lam if isinstance(spec_or_lambda, ModelSpec) else spec_or_lambda
    if abs(lam) < GAP_TOL:
        raise GaplessError("lambda = 0 is the critical point")
    if pair not in ("intra", "inter"):
        raise ValueError("pair must be 'intra' or 'inter'")
    d = 0 if pair == "intra" else -1  # eta_{b_n a_{n+1}} = eta_{a_{n+1} b_n}
    return EtaValue(_ssh_eta(lam, d, None), (pair, "thermodynamic"),
                    Route.MOMENTUM_ANALYTIC)


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


def rdm_matrix_from_eta(eta: float) -> np.ndarray:
    e2 = eta * eta
    m = 0.25 * np.array([
        [1 - e2, 0.0, 0.0, 0.0],
        [0.0, 1 + e2, -2 * eta, 0.0],
        [0.0, -2 * eta, 1 + e2, 0.0],
        [0.0, 0.0, 0.0, 1 - e2],
    ])
    return m.astype(complex)


def rdm_pair(spec: ModelSpec, site1: Site, site2: Site,
             fill: int | None = None) -> TwoSiteRDM:
    """Two-site reduced density matrix of the ground state.

    Clean periodic chains go through the analytic eta; anything else (open
    boundary, disorder) goes through the full correlation-matrix pipeline.
    ``fill`` selects the number of occupied single-particle levels for
    fillings other than "all negative levels" (open-boundary zero modes).
    """
    if spec.clean_periodic and fill is None:
        eta = eta_analytic(spec, site1, site2).value
        return TwoSiteRDM(rdm_matrix_from_eta(eta), (site1, site2), eta=eta)
    M = realspace_hamiltonian(spec)
    Mbar = flatten_from_fill(M, fill) if fill is not None else spectral_flatten(M)
    MA = restrict(Mbar, [mode_index(site1), mode_index(site2)])
    rdm = rdm_from_restriction(MA)
    eta = None
    m = rdm.matrix
    offdiag_ok = max(abs(m[0, 3]), abs(m[3, 0])) < 1e-12
    if offdiag_ok and abs(m[1, 1] - m[2, 2]) < 1e-12 and abs(m[0, 0] - m[3, 3]) < 1e-12:
        eta = float(-2.0 * m[1, 2].real)
    return TwoSiteRDM(m, (site1, site2), eta=eta)


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
    if np.min(np.linalg.eigvalsh(rho)) < -1e-8:
        raise InvalidStateError("matrix is not positive semidefinite")
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    mu = np.linalg.eigvals(rho @ rho_tilde)
    roots = np.sqrt(np.clip(mu.real, 0.0, None))
    roots.sort()
    return float(max(0.0, roots[-1] - roots[-3] - roots[-2] - roots[0]))


def concurrence_from_eta(eta: float) -> float:
    """Closed form for the one-parameter RDM: max{0, (eta^2 + 2|eta| - 1)/2}.

    Nonzero only for |eta| > sqrt(2) - 1; the sign of eta is a local basis
    rephasing and does not change the entanglement."""
    a = abs(eta)
    return max(0.0, 0.5 * (a * a + 2.0 * a - 1.0))


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
    """Weighted graph of all pairwise concurrences above the zero threshold."""

    num_cells: int
    edges: list
    phase: Phase
    c1: float = 0.0
    c2: float = 0.0

    def to_json(self) -> str:
        doc = {
            "num_cells": self.num_cells,
            "phase": self.phase.value,
            "c1": self.c1,
            "c2": self.c2,
            "vertices": [site_label((n, s))
                         for n in range(self.num_cells) for s in ("a", "b")],
            "edges": [{"site1": site_label(s1), "site2": site_label(s2),
                       "concurrence": c} for s1, s2, c in self.edges],
        }
        return json.dumps(doc, indent=2)

    def to_edge_list(self) -> str:
        lines = [f"{site_label(s1)} {site_label(s2)} {c:.17g}"
                 for s1, s2, c in self.edges]
        return "\n".join(lines) + ("\n" if lines else "")


def _all_sites(N: int):
    return [(n, s) for n in range(N) for s in ("a", "b")]


def _site_distance(site1: Site, site2: Site, N: int, periodic: bool) -> int:
    d = abs(site2[0] - site1[0])
    return min(d, N - d) if periodic else d


def entangled_graph(spec: ModelSpec, fill: int | None = None,
                    full_scan: bool = False) -> EntangledGraph:
    """All pairwise concurrences assembled into an entangled graph.

    Clean periodic chains only need one concurrence per pair offset
    (translation invariance); disordered or open chains compute every pair
    through the real-space pipeline.  The default cell-distance cutoff is
    N/2 (periodic distance); ``full_scan`` lifts it.

    Phase labels: c1 > 0 = c2 -> P0; c1 > c2 > 0 -> Q0; c2 > c1 > 0 -> Q1;
    c2 > 0 = c1 -> P1; ties within 1e-10 -> Critical.  For non-uniform
    (disordered/open) chains the label follows the majority bond ordering
    and c1/c2 report median bond values.
    """
    N = spec.N
    cutoff = N if full_scan else N // 2
    edges = []
    if spec.clean_periodic:
        # same-sublattice etas vanish identically; only (a_n, b_{n+d}) matter
        conc = {}
        for d in range(N):
            if min(d, N - d) > cutoff:
                continue
            eta = eta_analytic(spec, (0, "a"), (d, "b")).value
            conc[d] = concurrence_from_eta(eta)
        for n in range(N):
            for d, c in conc.items():
                if c > CONCURRENCE_ZERO:
                    edges.append(((n, "a"), ((n + d) % N, "b"), c))
        c1 = conc.get(0, 0.0)
        # inter-cell bond pairs a_{n+1} with b_n, i.e. offset d = -1 mod N
        c2 = conc.get(N - 1, 0.0) if N > 1 else 0.0
        phase = classify_phase(c1, c2)
        return EntangledGraph(num_cells=N, edges=edges, phase=phase, c1=c1, c2=c2)

    M = realspace_hamiltonian(spec)
    Mbar = flatten_from_fill(M, fill) if fill is not None else spectral_flatten(M)
    periodic = spec.boundary is Boundary.PERIODIC
    sites = _all_sites(N)
    pair_conc = {}
    for i, s1 in enumerate(sites):
        for s2 in sites[i + 1:]:
            if _site_distance(s1, s2, N, periodic) > cutoff:
                continue
            ma = restrict(Mbar, [mode_index(s1), mode_index(s2)])
            c = concurrence(rdm_from_restriction(ma).matrix)
            pair_conc[(s1, s2)] = c
            if c > CONCURRENCE_ZERO:
                edges.append((s1, s2, c))
    c1s = [pair_conc[((n, "a"), (n, "b"))] for n in range(N)]
    c2s = [pair_conc[((n, "b"), (n + 1, "a"))] for n in range(N - 1)]
    if periodic:
        c2s.append(pair_conc[((0, "a"), (N - 1, "b"))])
    votes = [classify_phase(a, b) for a, b in zip(c1s, c2s)]
    phase = max(set(votes), key=lambda p: (votes.count(p), p.value))
    c1 = float(np.median(c1s))
    c2 = float(np.median(c2s))
    return EntangledGraph(num_cells=N, edges=edges, phase=phase, c1=c1, c2=c2)

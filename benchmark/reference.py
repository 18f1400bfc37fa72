"""Independent references for every job the benchmark runs.

Nothing here calls into ``chainent``.  Momentum-space jobs are checked
against broadcast numpy evaluations of the Brillouin-zone sums and the closed
form ``C = max{0, (eta^2 + 2|eta| - 1)/2}``.  Real-space jobs are checked
against Wick's theorem on the ground-state correlation matrices ``G_ij =
<a_i^+ a_j>`` and ``F_ij = <a_i a_j>``: the two-site state is an X state and

    C = 2 max(0, |G_ij| - sqrt(p00 p11), |F_ij| - sqrt(p01 p10)),

which for number-conserving chains (F = 0) is the particle-matrix form
``2 max(0, |G_ij| - sqrt(p00 p11))``.

``expected(job)`` computes the reference once; ``compare(job, ref, outdir)``
reads the files a run wrote and raises :class:`Mismatch` on any difference.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.optimize import brentq

from workloads import DISORDER_AMPLITUDE, Job

TOL = 1e-9           # absolute tolerance on eta, concurrence and density
ZERO_EDGE = 1e-12    # the program's threshold for keeping a graph edge
GAP_TOL = 1e-12      # |h(k)| below this is a band touching
THRESHOLD = math.sqrt(2.0) - 1.0


class Mismatch(Exception):
    """An output file disagrees with the reference."""


# --------------------------------------------------------------- file input

def _value(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path) -> list:
    """Rows of a CSV or JSON-records output as dicts of floats/strings."""
    if not os.path.exists(path):
        raise Mismatch(f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return [{k: _value(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _close(name, got, want, tol):
    if want is None or (isinstance(want, float) and math.isnan(want)):
        ok = got is None or (isinstance(got, float) and math.isnan(got))
    else:
        ok = isinstance(got, (int, float)) and abs(got - want) <= tol
    if not ok:
        raise Mismatch(f"{name}: got {got!r}, reference {want!r}")


def _column(rows, key, want, tol):
    if len(rows) != len(want):
        raise Mismatch(f"{len(rows)} rows, reference has {len(want)}")
    for i, (row, w) in enumerate(zip(rows, want)):
        if key not in row:
            raise Mismatch(f"column {key} missing")
        _close(f"{key}[{i}]", row[key], None if w is None else float(w), tol)


def _grid(text: str) -> np.ndarray:
    start, stop, points = text.split(":")
    return np.linspace(float(start), float(stop), int(points))


# ------------------------------------------------------ momentum-space sums

def ssh_etas(lams, N):
    """eta1 = <hx/|h|>_k and eta2 = <(cos k hx + sin k hy)/|h|>_k.

    ``N`` None means the thermodynamic limit, taken as a midpoint sum whose
    error ~ exp(-M |ln(t2/t1)|) is far below TOL for the grids used.
    Works for complex ``lams`` (used for complex-step derivatives)."""
    lams = np.asarray(lams)[:, None]
    if N is None:
        a = np.min(np.abs(np.log((1 + np.real(lams)) / (1 - np.real(lams)))))
        M = max(4096, int(80.0 / a))
        k = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    else:
        k = 2.0 * np.pi * np.arange(N) / N
    hx = (1 - lams) + (1 + lams) * np.cos(k)
    hy = (1 + lams) * np.sin(k)
    r = np.sqrt(hx * hx + hy * hy)
    return (hx / r).mean(axis=1), ((np.cos(k) * hx + np.sin(k) * hy) / r).mean(axis=1)


def margin_from_eta(eta):
    """(eta^2 + 2|eta| - 1) / 2; the concurrence is this clipped at 0."""
    a = np.abs(eta)
    return 0.5 * (a * a + 2.0 * a - 1.0)


def c_from_eta(eta):
    return np.maximum(0.0, margin_from_eta(eta))


def deta1(lams, N):
    """d eta1 / d lambda by complex step: exact to rounding, no formula for
    the derivative needed."""
    h = 1e-30
    e1, _ = ssh_etas(np.asarray(lams, dtype=float) + 1j * h, N)
    return e1.imag / h


def _centered(values, grid):
    out = [None] * len(values)
    for i in range(1, len(values) - 1):
        out[i] = (values[i + 1] - values[i - 1]) / (grid[i + 1] - grid[i - 1])
    return out


# --------------------------------------------------- real-space ground state

def ssh_hopping(N, lam, periodic, onsite=None) -> np.ndarray:
    """Single-particle matrix of H = sum A_ij a_i^+ a_j on the 2N SSH sites
    (a_n = 2n, b_n = 2n + 1)."""
    L = 2 * N
    A = np.zeros((L, L))
    for n in range(N):
        A[2 * n, 2 * n + 1] = A[2 * n + 1, 2 * n] = 1.0 - lam
    for n in range(N if periodic else N - 1):
        j = (2 * n + 2) % L
        A[2 * n + 1, j] = A[j, 2 * n + 1] = 1.0 + lam
    if onsite is not None:
        A[np.diag_indices(L)] += onsite
    return A


def onsite_energies(amplitude, seed, L):
    """The disorder realization the program documents: amplitude times
    uniform(-1, 1) draws from numpy's default_rng(seed)."""
    return amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, size=L)


class GroundState:
    """Correlations G, F of a quadratic ground state plus its conditioning.

    ``tol`` widens TOL by the eigenvector error rounding allows,
    ~1e-13 / (gap at the Fermi level).  When that gap is below 1e-8 the
    state is degenerate to working precision: modes carrying weight of the
    degenerate levels are listed in ``ambiguous`` and pairs touching them
    are not compared."""

    def __init__(self, G, F, levels, vecs, fill):
        self.G, self.F = G, F
        gap = levels[fill] - levels[fill - 1] if 0 < fill < len(levels) else 1.0
        self.tol = TOL + 1e-13 / max(gap, 1e-300)
        self.ambiguous = set()
        if gap < 1e-8:
            ef = 0.5 * (levels[fill] + levels[fill - 1])
            weight = (np.abs(vecs[:, np.abs(levels - ef) < 1e-8]) ** 2).sum(axis=1)
            n = G.shape[0]
            self.ambiguous = {int(i) % n for i in np.nonzero(weight > 1e-6)[0]}
            self.tol = TOL + 1e-5

    def concurrences(self, i, j):
        """Vectorised X-state margins ``2 max(|G| - sqrt(p00 p11), |F| -
        sqrt(p01 p10))`` of mode pairs (i[k], j[k]); the concurrence is the
        margin clipped at 0."""
        G, F = self.G, self.F
        ni, nj = np.diag(G)[i].real, np.diag(G)[j].real
        g = np.abs(G[i, j])
        f = np.zeros_like(g) if F is None else np.abs(F[i, j])
        p11 = ni * nj - g * g + f * f
        p10, p01 = ni - p11, nj - p11
        p00 = 1.0 - ni - nj + p11
        root = lambda x: np.sqrt(np.clip(x, 0.0, None))
        return 2.0 * np.maximum(g - root(p00 * p11), f - root(p01 * p10))


def particle_state(A, fill=None) -> GroundState:
    """Slater determinant filling the ``fill`` lowest levels of A (all
    negative levels when ``fill`` is None)."""
    levels, V = np.linalg.eigh(A)
    if fill is None:
        # levels within 1e-8 of zero are split evenly around the Fermi level
        near = np.abs(levels) < 1e-8
        fill = int(np.count_nonzero(levels < -1e-8) + np.count_nonzero(near) // 2)
    Vf = V[:, :fill]
    return GroundState(Vf @ Vf.T, None, levels, V, fill)


def kitaev_state(N, t, delta, mu, periodic) -> GroundState:
    """BdG ground state of sum -t(a^+_n a_{n+1} + h.c.) + delta(a_n a_{n+1}
    + h.c.) - mu n_n, bond orientation n -> n+1 kept across the wrap."""
    h = -mu * np.eye(N)
    D = np.zeros((N, N))
    for n in range(N if periodic else N - 1):
        m = (n + 1) % N
        h[n, m] = h[m, n] = -t
        D[m, n], D[n, m] = delta, -delta
    H = np.block([[h, D], [-D, -h]])
    levels, V = np.linalg.eigh(H)
    pos = V[:, N:]                      # positive-energy half
    P = pos @ pos.T                      # <Psi Psi^+>, Psi = (a, a^+)
    G = np.eye(N) - P[:N, :N].T
    F = P[:N, N:]
    return GroundState(G, F, levels, V, N)


def central_pair(N):
    """Modes of the central inter-cell pair (b_c, a_{c+1})."""
    c = N // 2 - 1 if N % 2 == 0 else N // 2
    return 2 * c + 1, 2 * c + 2


# --------------------------------------------------------------- per kind

def _sweep_expected(p):
    lams = _grid(p["grid"])
    e1, e2 = ssh_etas(lams, p["N"])
    c1, c2 = c_from_eta(e1), c_from_eta(e2)
    dc2 = _centered(c2, lams) if p["derivative"] else [None] * len(lams)
    return {"lambda": lams, "eta1": e1, "eta2": e2, "c1": c1, "c2": c2,
            "dc2_dlambda": dc2}


def _sweep_compare(job, ref, outdir):
    p = job.params
    rows = read_table(os.path.join(outdir, f"sweep.{p['format']}"))
    lams = ref["lambda"]
    dtol = 4.0 * TOL / np.min(np.diff(lams))
    for key in ("lambda", "eta1", "eta2", "c1", "c2"):
        _column(rows, key, ref[key], TOL)
    _column(rows, "dc2_dlambda", ref["dc2_dlambda"], dtol)
    n = "thermodynamic" if p["N"] is None else p["N"]
    for row in rows:
        if row["n"] != n or row["boundary"] != "periodic" or row["seed"] is not None:
            raise Mismatch(f"labels {row['n']!r}/{row['boundary']!r}")
    if p["plot_data"]:
        series = {"c1": ref["c1"], "c2": ref["c2"]}
        if p["derivative"]:
            series["dc2"] = ref["dc2_dlambda"]
        for name, col in series.items():
            path = os.path.join(outdir, f"sweep_{name}.dat")
            if not os.path.exists(path):
                raise Mismatch(f"missing sweep_{name}.dat")
            want = [(lam, v) for lam, v in zip(lams, col) if v is not None]
            with open(path) as fh:
                got = [tuple(map(float, line.split())) for line in fh]
            if len(got) != len(want):
                raise Mismatch(f"sweep_{name}.dat has {len(got)} rows")
            for (gl, gv), (wl, wv) in zip(got, want):
                _close(f"sweep_{name}.dat", gv, float(wv),
                       dtol if name == "dc2" else TOL)
                _close(f"sweep_{name}.dat lambda", gl, float(wl), TOL)


def _critical_expected(p):
    N = p["N"]
    lp = brentq(lambda x: ssh_etas([x], N)[0][0] - THRESHOLD, 1e-6, 0.9,
                xtol=1e-15)
    lm = brentq(lambda x: ssh_etas([x], N)[1][0] - THRESHOLD, -0.9, -1e-6,
                xtol=1e-15)
    lams = np.geomspace(1e-5, 1e-3, 9)
    y = deta1(lams, N)
    X = np.vstack([np.log(lams), np.ones_like(lams)]).T
    (slope, intercept), *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = np.max(np.abs(X @ np.array([slope, intercept]) - y))
    ratio = resid / (0.01 * np.max(np.abs(y)))
    return {"lambda_plus": lp, "lambda_minus": lm,
            "slope_at_plus": math.sqrt(2.0) * deta1([lp], N)[0],
            "logfit_slope": slope, "logfit_intercept": intercept,
            # the flag is only compared when the residual is clearly on
            # one side of the program's 1% threshold
            "asymptotic": None if abs(ratio - 1) < 1e-3 else str(ratio < 1)}


def _critical_compare(job, ref, outdir):
    rows = read_table(os.path.join(outdir, "critical.csv"))
    got = {row["quantity"]: row["value"] for row in rows}
    if set(got) != set(ref):
        raise Mismatch(f"quantities {sorted(got)}")
    for key, want in ref.items():
        if key == "asymptotic":
            if want is not None and got[key] != want:
                raise Mismatch(f"asymptotic: got {got[key]!r}, reference {want}")
            continue
        _close(key, got[key], float(want), 1e-8 * max(1.0, abs(want)))


def _kitaev_expected(p):
    mus = _grid(p["grid"])[:, None]
    N, t, delta = p["N"], float(p["t"]), float(p["delta"])
    k = 2.0 * np.pi * np.arange(N) / N
    hz = -mus / 2.0 - t * np.cos(k)
    hy = delta * np.sin(k) + 0.0 * mus
    r = np.hypot(hz, hy)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_z = (hz / r).mean(axis=1)
    eta_z[(r < GAP_TOL).any(axis=1)] = np.nan
    return {"mu": mus[:, 0], "density": 0.5 * (1.0 - eta_z)}


def _kitaev_compare(job, ref, outdir):
    rows = read_table(os.path.join(outdir, f"kitaev_density.{job.params['format']}"))
    _column(rows, "mu", ref["mu"], TOL)
    _column(rows, "density", ref["density"], TOL)


def _site_label_mode(label: str) -> int:
    if len(label) < 2 or label[0] not in "ab" or not label[1:].isdigit():
        raise Mismatch(f"bad site label {label!r}")
    return 2 * int(label[1:]) + (label[0] == "b")


def _pairs_within_cutoff(N, periodic, sites_per_cell):
    i, j = np.triu_indices(N * sites_per_cell, k=1)
    d = np.abs(i // sites_per_cell - j // sites_per_cell)
    if periodic:
        d = np.minimum(d, N - d)
    keep = d <= N // 2
    return i[keep], j[keep]


def _phase(s1, s2):
    """Phase label of a bond from its intra/inter margins, or None when a
    margin or the difference of concurrences sits near a threshold."""
    c1, c2 = max(0.0, s1), max(0.0, s2)
    if any(abs(s - ZERO_EDGE) < 1e-8 for s in (s1, s2)) \
            or 0.0 < abs(c1 - c2) < 1e-8:
        return None
    z1, z2 = c1 <= ZERO_EDGE, c2 <= ZERO_EDGE
    if not z1 and z2:
        return "P0"
    if z1 and not z2:
        return "P1"
    if abs(c1 - c2) <= 1e-10:
        return "Critical"
    return "Q0" if c1 > c2 else "Q1"


def _graph_expected(p):
    N, periodic = p["N"], p["boundary"] == "periodic"
    if p["family"] == "kitaev":
        gs = kitaev_state(N, float(p["t"]), float(p["delta"]), float(p["mu"]),
                          periodic)
        i, j = _pairs_within_cutoff(N, periodic, 1)
        return {"values": np.maximum(0.0, gs.concurrences(i, j)),
                "tol": gs.tol}
    lam = float(p["lambda"])
    if periodic and p["amplitude"] is None:
        # translation invariance: eta depends on the offset d of (a_n, b_{n+d})
        k = 2.0 * np.pi * np.arange(N) / N
        phi = np.arctan2((1 + lam) * np.sin(k), (1 - lam) + (1 + lam) * np.cos(k))
        eta = np.cos(np.arange(N)[:, None] * k + phi).mean(axis=1)
        cd = margin_from_eta(eta)
        n = np.arange(N)[:, None]
        i = np.broadcast_to(2 * n, (N, N)).ravel()
        j = (2 * ((n + np.arange(N)) % N) + 1).ravel()
        values = np.broadcast_to(cd, (N, N)).ravel()
        tol, ambiguous = TOL, set()
    else:
        onsite = (None if p["amplitude"] is None else
                  onsite_energies(float(p["amplitude"]), p["seed"], 2 * N))
        gs = particle_state(ssh_hopping(N, lam, periodic, onsite))
        i, j = _pairs_within_cutoff(N, periodic, 2)
        values, tol, ambiguous = gs.concurrences(i, j), gs.tol, gs.ambiguous
    margin = {(int(a), int(b)): float(s) for a, b, s in
              zip(np.minimum(i, j), np.maximum(i, j), values)}
    conc = {key: max(0.0, s) for key, s in margin.items()}
    bonds = [(2 * n + 1, 2 * n + 2) for n in range(N - 1)]
    if periodic:
        bonds.append((0, 2 * N - 1))
    intra = [(2 * n, 2 * n + 1) for n in range(N)]
    votes = [_phase(margin[a], margin[b]) for a, b in zip(intra, bonds)]
    if None in votes:
        phase = None
    elif periodic and p["amplitude"] is None:
        phase = votes[0]
    else:
        phase = max(set(votes), key=lambda v: (votes.count(v), v))
    return {"conc": conc, "tol": tol, "ambiguous": ambiguous, "phase": phase,
            "c1": None if ambiguous else float(np.median([conc[b] for b in intra])),
            "c2": None if ambiguous else float(np.median([conc[b] for b in bonds]))}


def _graph_edges(job, outdir):
    fmt = job.params["format"]
    path = os.path.join(outdir, f"graph.{fmt}")
    if fmt == "csv":
        return None, [(r["site1"], r["site2"], r["concurrence"])
                      for r in read_table(path)]
    if not os.path.exists(path):
        raise Mismatch("missing output graph.json")
    with open(path) as fh:
        doc = json.load(fh)
    return doc, [(e["site1"], e["site2"], e["concurrence"]) for e in doc["edges"]]


def _graph_compare(job, ref, outdir):
    doc, edges = _graph_edges(job, outdir)
    tol = ref["tol"]
    if "values" in ref:
        # the Kitaev graph has no site-label convention yet: compare the
        # multiset of edge weights above the zero threshold
        want = sorted(float(c) for c in ref["values"] if c > ZERO_EDGE + tol)
        got = sorted(float(c) for _, _, c in edges if c > ZERO_EDGE + tol)
        if len(got) != len(want) or any(abs(g - w) > tol for g, w in zip(got, want)):
            raise Mismatch(f"{len(got)} edges, reference {len(want)}")
        return
    conc, ambiguous = ref["conc"], ref["ambiguous"]
    seen = set()
    for s1, s2, c in edges:
        a, b = sorted((_site_label_mode(s1), _site_label_mode(s2)))
        if (a, b) not in conc or (a, b) in seen:
            raise Mismatch(f"unexpected or repeated edge {s1}-{s2}")
        seen.add((a, b))
        if a not in ambiguous and b not in ambiguous:
            _close(f"edge {s1}-{s2}", c, conc[(a, b)], tol)
    for (a, b), c in conc.items():
        if (c > ZERO_EDGE + tol and (a, b) not in seen
                and a not in ambiguous and b not in ambiguous):
            raise Mismatch(f"missing edge of modes {a}-{b} (C = {c:.3g})")
    if doc is not None:
        if doc["num_cells"] != job.params["N"]:
            raise Mismatch(f"num_cells {doc['num_cells']}")
        for key in ("c1", "c2"):
            if ref[key] is not None:
                _close(key, doc[key], ref[key], tol)
        if ref["phase"] is not None and doc["phase"] != ref["phase"]:
            raise Mismatch(f"phase {doc['phase']}, reference {ref['phase']}")


def _obc_fill(N, lam, fill):
    if lam <= 0:
        return N
    return N - 1 if fill == "below" else N + 1


def _obc_expected(p):
    N, lams = p["N"], _grid(p["grid"])
    i, j = central_pair(N)
    c2, tol = [], TOL
    for lam in lams:
        gs = particle_state(ssh_hopping(N, lam, periodic=False),
                            _obc_fill(N, lam, p["fill"]))
        c2.append(max(0.0, gs.concurrences(np.array([i]), np.array([j]))[0]))
        tol = max(tol, gs.tol)
    c2 = np.array(c2)
    return {"lambda": lams, "c2": c2, "dc2_dlambda": np.gradient(c2, lams),
            "tol": tol}


def _obc_compare(job, ref, outdir):
    rows = read_table(os.path.join(outdir, f"obc.{job.params['format']}"))
    tol = ref["tol"]
    _column(rows, "lambda", ref["lambda"], TOL)
    _column(rows, "c2", ref["c2"], tol)
    _column(rows, "dc2_dlambda", ref["dc2_dlambda"],
            4.0 * tol / np.min(np.diff(ref["lambda"])))


def _disorder_expected(p):
    N, lams = p["N"], _grid(p["grid"])
    i, j = np.array([central_pair(N)[0]]), np.array([central_pair(N)[1]])
    per_seed = np.empty((p["realizations"], len(lams)))
    tol = TOL
    for r in range(p["realizations"]):
        onsite = onsite_energies(float(p["amplitude"]), p["seed"] + r, 2 * N)
        for c, lam in enumerate(lams):
            gs = particle_state(ssh_hopping(N, lam, True, onsite))
            per_seed[r, c] = max(0.0, gs.concurrences(i, j)[0])
            tol = max(tol, gs.tol)
    return {"lambda": lams, "mean_c2": per_seed.mean(axis=0),
            "std_c2": per_seed.std(axis=0), "tol": tol}


def _disorder_compare(job, ref, outdir):
    rows = read_table(os.path.join(outdir, f"disorder.{job.params['format']}"))
    _column(rows, "lambda", ref["lambda"], TOL)
    _column(rows, "mean_c2", ref["mean_c2"], ref["tol"])
    _column(rows, "std_c2", ref["std_c2"], ref["tol"])
    _column(rows, "seed", [job.params["seed"]] * len(rows), 0.0)


_KINDS = {
    "sweep": (_sweep_expected, _sweep_compare),
    "critical": (_critical_expected, _critical_compare),
    "kitaev": (_kitaev_expected, _kitaev_compare),
    "graph": (_graph_expected, _graph_compare),
    "obc": (_obc_expected, _obc_compare),
    "disorder": (_disorder_expected, _disorder_compare),
}


def expected(job: Job):
    """Reference values for a job's outputs."""
    return _KINDS[job.kind][0](job.params)


def defect_expected(job: Job):
    """Reference for the output a known wrong-output defect produces, or None
    when the job's known defect (if any) is not a wrong output."""
    if job.known_defect != DISORDER_AMPLITUDE:
        return None
    return _KINDS[job.kind][0](dict(job.params, amplitude="0.1"))


def compare(job: Job, ref, outdir: str) -> None:
    """Raise Mismatch unless the files in ``outdir`` match ``ref``."""
    try:
        _KINDS[job.kind][1](job, ref, outdir)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            csv.Error) as exc:
        raise Mismatch(f"malformed output: {exc!r}") from exc

"""Seeded job decks for the three benchmark workloads.

A deck is the list of CLI jobs one pass of a workload runs.  The benchmark
repeats the same deck until its time is up, so per-pass counts repeat
exactly for a given seed.

Job cost is set by the sizes (chain length, grid points, realizations) and,
for real-space graphs and thermodynamic sweeps, by lambda.  Each job slot
therefore has a fixed size from a ladder spanning the workload's range
(log-spaced where the range spans a decade, alternating even and odd N), and
where lambda sets the cost, a fixed lambda that the seed only jitters.  The
seed draws everything else: couplings, grid ends, disorder strengths and
seeds, and the run order.  Different seeds therefore give different inputs
with the same distribution of job cost, which keeps latency percentiles
comparable from seed to seed.

Every job here is an advertised CLI combination.  The slots marked with a
``known_defect`` fail on the code the benchmark was written against; they
stay in the mix and are counted as failures until the program is fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("momentum", "open_chain", "many_pairs")

# Failure modes the benchmark expects from the unfixed program.  A job in one
# of these classes that fails in the listed way is a failure but not a sign
# of a broken benchmark; any other failure makes the run incorrect.
KITAEV_GRAPH = "kitaev-graph"        # exit 2 (periodic) / IndexError (open)
OPEN_EDGE_GAPLESS = "open-edge-gapless"  # exit 3: split edge modes read as gapless
# `disorder --amplitude` is read under the wrong key, so the run uses the
# default amplitude 0.1: the output matches the reference for 0.1 instead.
DISORDER_AMPLITUDE = "disorder-amplitude-ignored"


@dataclass
class Job:
    """One CLI invocation and the parameters its output is checked against."""

    kind: str                  # CLI subcommand
    params: dict               # inputs, as the checker needs them
    argv: list                 # CLI arguments without --outdir
    points: int                # work units the job completes (see README)
    known_defect: str | None = None


def _ladder(lo, hi, k, log=False, parity=True):
    """k sizes from lo to hi, equally spaced (log-equally when ``log``).
    With ``parity`` size i is even for even i and odd for odd i."""
    out = []
    for i in range(k):
        f = i / (k - 1)
        n = round(lo * (hi / lo) ** f if log else lo + (hi - lo) * f)
        if parity and n % 2 != i % 2:
            n = n + 1 if n + 1 <= hi else n - 1
        out.append(n)
    return out


def _jitter(rng, x, width=0.02):
    return x + rng.uniform(-width, width)


def _num(x: float) -> str:
    return f"{x:.4f}"


def _grid(start: float, stop: float, points: int) -> str:
    return f"{_num(start)}:{_num(stop)}:{points}"


def graph_pairs(N: int, periodic: bool, sites_per_cell: int = 2) -> int:
    """Site pairs an entangled graph evaluates: every pair of the 2N SSH
    sites (N Kitaev sites) at cell distance at most N // 2."""
    s = sites_per_cell
    total = N * s * (s - 1) // 2          # pairs inside one cell
    for d in range(1, N):                 # N - d cell pairs at offset d
        if (min(d, N - d) if periodic else d) <= N // 2:
            total += (N - d) * s * s
    return total


# ------------------------------------------------------------------ momentum

def _momentum(rng) -> list:
    jobs = []
    for i, N in enumerate(_ladder(32, 600, 10, log=True)):
        start, stop = rng.uniform(-0.95, -0.2), rng.uniform(0.2, 0.95)
        p = {"N": N, "grid": _grid(start, stop, 21),
             "format": "json" if i % 2 else "csv",
             "derivative": i % 2 == 1, "plot_data": i % 3 == 0}
        argv = ["sweep", "--N", str(N), "--grid", p["grid"],
                "--format", p["format"]]
        argv += ["--derivative"] * p["derivative"]
        argv += ["--plot-data"] * p["plot_data"]
        jobs.append(Job("sweep", p, argv, 21))
    for i in range(4):
        sign = 1.0 if i % 2 == 0 else -1.0
        # quadrature cost grows as the grid nears the critical point
        lo, hi = _jitter(rng, 0.04 + 0.06 * (i // 2), 0.005), rng.uniform(0.5, 0.95)
        start, stop = sorted((sign * lo, sign * hi))
        p = {"N": None, "grid": _grid(start, stop, 21),
             "format": "json" if i % 2 else "csv",
             "derivative": i % 2 == 0, "plot_data": False}
        argv = ["sweep", "--grid", p["grid"], "--format", p["format"]]
        argv += ["--derivative"] * p["derivative"]
        jobs.append(Job("sweep", p, argv, 21))
    for N in _ladder(32, 600, 4, log=True):
        jobs.append(Job("critical", {"N": N},
                        ["critical", "--N", str(N), "--output", "critical.csv"],
                        9))
    for i, N in enumerate(_ladder(32, 600, 6, log=True)):
        start, stop = rng.uniform(-1.0, 0.5), rng.uniform(3.0, 4.5)
        t, delta = rng.uniform(0.8, 1.2), rng.uniform(0.5, 1.5)
        p = {"N": N, "grid": _grid(start, stop, 41), "t": _num(t),
             "delta": _num(delta), "format": "json" if i % 2 else "csv"}
        jobs.append(Job("kitaev", p,
                        ["kitaev", "--N", str(N), "--grid", p["grid"],
                         "--t", p["t"], "--delta", p["delta"],
                         "--format", p["format"]],
                        41))
    for i, N in enumerate(_ladder(32, 160, 6, log=True)):
        lam = (1 if i % 2 == 0 else -1) * rng.uniform(0.05, 0.9)
        jobs.append(_ssh_graph(N, lam, "periodic", i))
    for i, N in enumerate(_ladder(32, 160, 2, log=True)):
        jobs.append(_kitaev_graph(rng, N, "periodic", rng.uniform(-1.5, 1.5), i))
    return jobs


def _ssh_graph(N, lam, boundary, i, amplitude=None, seed=None,
               known_defect=None):
    p = {"family": "ssh", "N": N, "lambda": _num(lam), "boundary": boundary,
         "amplitude": None if amplitude is None else _num(amplitude),
         "seed": seed, "format": "csv" if i % 3 == 2 else "json"}
    argv = ["graph", "--N", str(N), "--lambda", p["lambda"],
            "--boundary", boundary, "--format", p["format"]]
    if amplitude is not None:
        argv += ["--disorder-amplitude", p["amplitude"], "--seed", str(seed)]
    return Job("graph", p, argv, graph_pairs(N, boundary == "periodic"),
               known_defect)


def _kitaev_graph(rng, N, boundary, mu, i):
    p = {"family": "kitaev", "N": N, "t": "1.0000",
         "delta": _num(rng.uniform(0.5, 1.5)), "mu": _num(mu),
         "boundary": boundary, "amplitude": None, "seed": None,
         "format": "csv" if i % 2 else "json"}
    argv = ["graph", "--model", "kitaev", "--N", str(N), "--t", p["t"],
            "--delta", p["delta"], "--mu", p["mu"], "--boundary", boundary,
            "--format", p["format"]]
    return Job("graph", p, argv, graph_pairs(N, boundary == "periodic", 1),
               KITAEV_GRAPH)


# ---------------------------------------------------------------- open_chain

def _open_chain(rng) -> list:
    jobs = []
    for i, N in enumerate(_ladder(96, 256, 12)):
        points = 3 + i % 3
        start, stop = rng.uniform(0.005, 0.1), rng.uniform(0.15, 0.35)
        p = {"N": N, "grid": _grid(start, stop, points),
             "fill": "above" if i % 2 else "below",
             "format": "json" if i % 4 >= 2 else "csv"}
        jobs.append(Job("obc", p,
                        ["obc", "--N", str(N), "--grid", p["grid"],
                         "--fill", p["fill"], "--format", p["format"]],
                        points))
    return jobs


# ---------------------------------------------------------------- many_pairs

def _many_pairs(rng) -> list:
    jobs = []
    for i, N in enumerate(_ladder(12, 32, 3, log=True)):
        # lambda > 0 keeps the edge-mode splitting ~ (t1/t2)^N above 1e-5,
        # where the half-filled ground state is well conditioned
        lam = (-_jitter(rng, 0.1 + 0.3 * (i // 2)) if i % 2
               else _jitter(rng, 0.6, 0.05) * math.tanh(6.0 / N))
        jobs.append(_ssh_graph(N, lam, "open", i))
    for i, N in enumerate(_ladder(12, 28, 3, log=True)):
        lam = (1 if i % 2 == 0 else -1) * _jitter(rng, 0.3 + 0.28 * (i // 2))
        jobs.append(_ssh_graph(N, lam, "periodic", i,
                               amplitude=rng.uniform(0.05, 0.3),
                               seed=rng.randint(0, 10**6)))
    sizes = _ladder(12, 24, 3, log=True)
    reals = _ladder(10, 30, 3, parity=False)
    for i, (N, realizations) in enumerate(zip(sizes, reals)):
        points = 2 + i % 2
        sign = 1.0 if i % 2 == 0 else -1.0
        start, stop = sorted((sign * rng.uniform(0.3, 0.5),
                              sign * rng.uniform(0.6, 0.9)))
        p = {"N": N, "grid": _grid(start, stop, points),
             "amplitude": _num(rng.uniform(0.05, 0.3)),
             "realizations": realizations, "seed": rng.randint(0, 10**6),
             "format": "json" if i % 2 else "csv"}
        jobs.append(Job("disorder", p,
                        ["disorder", "--N", str(N), "--grid", p["grid"],
                         "--amplitude", p["amplitude"],
                         "--realizations", str(realizations),
                         "--seed", str(p["seed"]), "--format", p["format"]],
                        points * realizations, DISORDER_AMPLITUDE))
    for i, N in enumerate(_ladder(24, 32, 2)):
        # splitting (t1/t2)^N below 1e-15: spectral_flatten reports "gapless"
        lam = rng.uniform(max(0.3, math.tanh(18.0 / N)), 0.95)
        jobs.append(_ssh_graph(N, lam, "open", i,
                               known_defect=OPEN_EDGE_GAPLESS))
    for i, N in enumerate(_ladder(12, 32, 2)):
        mu = (1 if i % 2 == 0 else -1) * rng.uniform(2.5, 3.5)
        jobs.append(_kitaev_graph(rng, N, "open", mu, i))
    return jobs


_DECKS = {"momentum": _momentum, "open_chain": _open_chain,
             "many_pairs": _many_pairs}

# Small fixed job per workload: run once before timing, and by each fresh
# interpreter that measures set-up time.
WARMUP = {
    "momentum": ["sweep", "--N", "32", "--grid", "0.1:0.5:5"],
    "open_chain": ["obc", "--N", "32", "--grid", "0.05:0.3:3"],
    "many_pairs": ["graph", "--N", "6", "--lambda", "0.3",
                   "--boundary", "open"],
}


def make_deck(workload: str, seed: int) -> list:
    """The job list of one pass, in run order; a pure function of its
    arguments."""
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _DECKS[workload](rng)
    rng.shuffle(jobs)
    return jobs

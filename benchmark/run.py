"""chainent benchmark: seeded CLI job mixes run in-process through
``chainent.cli.main``, with outputs checked against independent references.

    python3 benchmark/run.py --workload momentum --seed 1 --seconds 35 --trace 0

One closed-loop client: a job starts when the previous one has finished.
The workload's deck (see workloads.py) is run in whole passes until the
pass boundary nearest ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, per pass of the deck.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "points_per_s": "1/s", "peak_rss_mb": "MB", "pass_frac": "ratio"}

# per-layer statistics named in the README's table, per pass of the deck
_TIMED = ("models.bloch_vector", "analysis.eta_finite",
          "entanglement.eta_analytic", "analysis.quad",
          "gaussian.flatten_from_fill", "models.realspace_hamiltonian",
          "gaussian.spectral_flatten", "gaussian.block_diagonalize",
          "gaussian.restrict", "gaussian.rdm_from_restriction",
          "entanglement.concurrence", "serialize.write")
PER_LAYER = {}
for _layer in _TIMED:
    PER_LAYER[f"{_layer}.calls"] = "calls/pass"
    PER_LAYER[f"{_layer}.self_ms"] = "ms/pass"
PER_LAYER.update({
    "analysis.brentq.fevals": "evals/root",
    "gaussian.flatten_from_fill.dim3": "count/pass",
    "entanglement.entangled_graph.edge_ratio": "ratio",
    "serialize.bytes_out": "bytes/pass",
    "cli.main.self_ms": "ms/pass",
    "trace.overhead_ms": "ms",
})

SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import chainent; "
              "from chainent import cli; sys.exit(cli.main(sys.argv[2:]))")


@dataclass(slots=True)
class Outcome:
    """What one job execution did and how the check judged it."""

    index: int              # position in the deck
    seconds: float
    points: int
    completed: bool = False  # exit 0 without an exception
    passed: bool = False     # completed and output matches the reference
    known: bool = False      # failed in the way its known defect predicts
    reason: str = ""
    bytes_out: int = 0


# ----------------------------------------------------------------- running

def run_job(cli, job, outdir) -> tuple:
    """Run one job in-process; return (seconds, exit code, exception)."""
    os.mkdir(outdir)
    argv = job.argv + ["--outdir", outdir]
    code, exc = None, None
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)   # looked up per call so tracing applies
        except SystemExit as e:
            code = e.code
        except Exception as e:      # a crash is a job failure, not ours
            exc = e
        seconds = time.perf_counter() - start
    return seconds, code, exc


def judge(out, job, code, exc, outdir, refs, reference) -> Outcome:
    """Classify one finished job.  ``refs`` caches reference values."""
    if exc is not None:
        out.reason = f"raised {type(exc).__name__}: {exc}"
        out.known = (job.known_defect == workloads.KITAEV_GRAPH
                     and job.params["boundary"] == "open"
                     and isinstance(exc, IndexError))
        return out
    if code != 0:
        out.reason = f"exit {code}"
        out.known = ((job.known_defect == workloads.KITAEV_GRAPH
                      and job.params["boundary"] == "periodic" and code == 2)
                     or (job.known_defect == workloads.OPEN_EDGE_GAPLESS
                         and code == 3))
        return out
    out.completed = True
    out.bytes_out = sum(f.stat().st_size for f in os.scandir(outdir))
    key = id(job)
    if key not in refs:
        refs[key] = reference.expected(job)
    try:
        reference.compare(job, refs[key], outdir)
        out.passed = True
        return out
    except reference.Mismatch as m:
        out.reason = f"wrong output: {m}"
    if (key, "defect") not in refs:
        refs[(key, "defect")] = reference.defect_expected(job)
    if refs[(key, "defect")] is not None:
        try:
            reference.compare(job, refs[(key, "defect")], outdir)
            out.known = True
        except reference.Mismatch:
            pass
    return out


class Yardstick:
    """A fixed piece of work that does not use chainent, timed before every
    job: interpreted arithmetic, small numpy calls and one LAPACK eigh, about
    a millisecond each.  Its times sample the speed of the shared machine at
    the moments the jobs run (see README)."""

    REFERENCE_S = 0.003   # its median on a calm spell of the 2-vCPU host

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((96, 96))
        self._dense = dense + dense.T
        self._tiny = [m + m.T for m in rng.standard_normal((100, 4, 4))]
        self._ks = np.linspace(-np.pi, np.pi, 6000).tolist()
        self.samples = []

    def measure(self):
        import numpy as np
        start = time.perf_counter()
        s = 0.0
        for k in self._ks:
            s += math.cos(k) * math.hypot(1.0 + k, 0.5)
        for m in self._tiny:
            np.linalg.eigvalsh(m)
        np.linalg.eigh(self._dense)
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns this run's times into times at reference speed."""
        return self.REFERENCE_S / statistics.median(self.samples)


def run_pass(cli, deck, workdir, refs, reference, yardstick, tracer=None,
             first_id=0):
    outcomes = []
    for i, job in enumerate(deck):
        outdir = os.path.join(workdir, f"job{first_id + i}")
        if tracer is not None:
            tracer.job = first_id + i
        yardstick.measure()
        # each CLI job would start in a fresh process: do not let it pay
        # for collecting the garbage of the jobs before it
        gc.collect()
        seconds, code, exc = run_job(cli, job, outdir)
        outcomes.append(judge(Outcome(i, seconds, job.points), job, code, exc,
                              outdir, refs, reference))
        shutil.rmtree(outdir)
    return outcomes


def measure_setup(workload, outdir, env) -> float:
    """Wall time of a fresh interpreter that imports chainent and runs the
    workload's warm-up job."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
            *workloads.WARMUP[workload], "--outdir", outdir]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.decode()[-400:]}")
    shutil.rmtree(outdir)
    return seconds


# ----------------------------------------------------------------- metrics

def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with beta-distribution weights
    centred on the q-th.  The deck has a few dozen jobs with gaps between
    their costs, so the two order statistics that straddle a percentile
    (numpy's default) let one job's noise or a swap of neighbours move it by
    the whole gap; this estimate moves smoothly."""
    # not at module level: BLAS threads are set before numpy loads.
    # scipy.special is loaded by chainent already; scipy.stats would add
    # 15 MB to the peak RSS that the benchmark reports.
    import numpy as np
    from scipy.special import betainc
    if not values:
        return float("nan")
    xs = np.sort(np.asarray(values, dtype=float))
    n, p = len(xs), q / 100
    weights = np.diff(betainc((n + 1) * p, (n + 1) * (1 - p),
                              np.linspace(0.0, 1.0, n + 1)))
    return float(weights @ xs)


def per_job(outcomes) -> dict:
    """Median wall time of each job's executions: {deck index: seconds}.

    Every job runs once per pass, so its executions spread over the whole
    run.  Other tenants of a shared machine slow it in phases of seconds
    to minutes.  A job's fastest execution depends on whether the run caught
    a short calm spell: over five runs per workload, percentiles of the
    fastest executions spread 1.2 to 6.6 times as wide as those of the
    medians."""
    times = {}
    for o in outcomes:
        times.setdefault(o.index, []).append(o.seconds)
    return {i: statistics.median(s) for i, s in times.items()}


def end_to_end(outcomes, setup_times, scale) -> dict:
    """End-to-end metric values with their sample counts; every time is
    multiplied by ``scale`` (see Yardstick.scale)."""
    done = per_job([o for o in outcomes if o.completed])
    points = {o.index: o.points for o in outcomes}
    busy = sum(per_job(outcomes).values()) * scale
    ms = [s * 1e3 * scale for s in done.values()]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    executions = sum(o.completed for o in outcomes)
    values = {
        "setup_s": (statistics.median(setup_times) * scale,
                    len(setup_times)),
        "job_p50_ms": (percentile(ms, 50), executions),
        "job_p90_ms": (percentile(ms, 90), executions),
        "points_per_s": (sum(points[i] for i in done) / busy, len(outcomes)),
        "peak_rss_mb": (rss, 1),
        "pass_frac": (sum(o.passed for o in outcomes) / len(outcomes),
                      len(outcomes)),
    }
    return values


def per_layer(tracer, traced, untraced, passes) -> dict:
    """Per-layer values per pass of the deck."""
    totals = tracer.layer_totals()
    extra = tracer.extra
    values = {}
    for layer in _TIMED:
        calls, self_s = totals.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls / passes
        values[f"{layer}.self_ms"] = self_s * 1e3 / passes
    roots = totals.get("analysis.brentq", (0, 0.0))[0]
    pairs = extra.get("entanglement.entangled_graph.pairs", 0)
    values.update({
        "analysis.brentq.fevals":
            extra.get("analysis.brentq.evals", 0) / roots if roots else 0.0,
        "gaussian.flatten_from_fill.dim3":
            extra.get("gaussian.flatten_from_fill.dim3", 0) / passes,
        "entanglement.entangled_graph.edge_ratio":
            extra.get("entanglement.entangled_graph.edges", 0) / pairs
            if pairs else 0.0,
        "serialize.bytes_out": sum(o.bytes_out for o in traced) / passes,
        "cli.main.self_ms": totals.get("cli.main", (0, 0.0))[1] * 1e3 / passes,
        "trace.overhead_ms": _p50(traced) - _p50(untraced),
    })
    return {k: (v, passes) for k, v in values.items()}


def _p50(outcomes):
    done = per_job([o for o in outcomes if o.completed]).values()
    return percentile([s * 1e3 for s in done], 50)


def _job_times(deck, outcomes) -> list:
    """Per job of the deck: argv, executions, fastest and median ms."""
    times = {}
    for o in outcomes:
        times.setdefault(o.index, []).append(o.seconds * 1e3)
    return [{"argv": " ".join(deck[i].argv), "executions": len(ms),
             "fastest_ms": min(ms), "median_ms": statistics.median(ms)}
            for i, ms in sorted(times.items())]


# ------------------------------------------------------------- environment

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": int(os.environ[BLAS_VARS[0]]),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "platform": platform.platform(),
            "seed": seed}


# -------------------------------------------------------------------- main

def run_workload(args, cli, reference, env) -> tuple:
    """Run one workload; return (result JSON dict, human-readable lines)."""
    deck = workloads.make_deck(args.workload, args.seed)
    (HERE / "results").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=HERE / "results")
    try:
        warm = workloads.Job("warmup", {}, workloads.WARMUP[args.workload], 0)
        run_job(cli, warm, os.path.join(workdir, "warmup"))

        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
        refs = {id(job): reference.expected(job) for job in deck}
        yardstick = Yardstick()
        traced, untraced, passes = [], [], 0
        # what is alive now lives to the end of the run: freeze it, so that
        # the collection before each job only walks that job's leftovers
        gc.collect()
        gc.freeze()
        setup_times, measured, stride = [], 0.0, 1
        while True:
            start = time.perf_counter()
            trace_this = tracer is not None and passes % 2 == 1
            if trace_this:
                tracer.record = not traced   # keep spans of one pass
                tracer.install()
            try:
                outs = run_pass(cli, deck, workdir, refs, reference,
                                yardstick, tracer if trace_this else None,
                                first_id=passes * len(deck))
            finally:
                if trace_this:
                    tracer.uninstall()
            (traced if trace_this else untraced).extend(outs)
            passes += 1
            measured += time.perf_counter() - start
            if passes == 1:
                stride = max(1, int(args.seconds / measured / SETUP_REPEATS))
            # set-up samples are spread over the run, between passes, so a
            # slow spell of the machine does not catch all of them
            if (tracer is None and len(setup_times) < SETUP_REPEATS
                    and passes % stride == 0):
                setup_times.append(measure_setup(
                    args.workload, os.path.join(workdir, "setup"), env))
            if measured + measured / passes / 2 >= args.seconds and \
                    (tracer is None or passes >= 2):
                break
        while tracer is None and len(setup_times) < SETUP_REPEATS:
            setup_times.append(measure_setup(
                args.workload, os.path.join(workdir, "setup"), env))
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = untraced + traced
    if tracer is None:
        values = end_to_end(outcomes, setup_times, yardstick.scale())
        unscaled = end_to_end(outcomes, setup_times, 1.0)
        units = END_TO_END
    else:
        values = per_layer(tracer, traced, untraced, passes // 2)
        units = PER_LAYER
        tracer.save(HERE / "results" / f"spans-{args.workload}.npz")

    failures = {}
    for o in outcomes:
        if not o.passed:
            job = deck[o.index]
            failures.setdefault(o.index, {
                "argv": " ".join(job.argv), "reason": o.reason,
                "known_defect": job.known_defect if o.known else None,
                "count": 0})["count"] += 1
    unexpected = [f for f in failures.values() if f["known_defect"] is None]
    result = {"correct": not unexpected, "attempted": len(outcomes),
              "failed": sum(f["count"] for f in failures.values()),
              "metrics": {k: {"value": values[k][0], "unit": units[k]}
                          for k in units}}

    yard_ms = statistics.median(yardstick.samples) * 1e3
    lines = [f"workload {args.workload}  seed {args.seed}  passes {passes} "
             f"of {len(deck)} jobs  trace {args.trace}  yardstick "
             f"{yard_ms:.4f} ms (reference {Yardstick.REFERENCE_S * 1e3:g})"]
    for k in units:
        lines.append(f"  {k:42s} {values[k][0]:14.6g} {units[k]:10s} "
                     f"n={values[k][1]}" + (
                         f"  unscaled {unscaled[k][0]:.6g}"
                         if tracer is None and unscaled[k] != values[k] else ""))
    lines.append(f"  fail_frac {result['failed'] / result['attempted']:.4f} "
                 f"({result['failed']} of {result['attempted']} attempted); "
                 "latency percentiles and points count completed jobs only")
    for f in failures.values():
        tag = f["known_defect"] or "UNEXPECTED"
        lines.append(f"  failed x{f['count']} [{tag}] {f['argv']}: "
                     f"{f['reason'][:160]}")

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "passes": passes,
              "environment": environment(args.seed),
              "metrics": {k: {"value": values[k][0], "unit": units[k],
                              "samples": values[k][1]} for k in units},
              "unscaled": None if tracer is not None else
                  {k: unscaled[k][0] for k in units},
              "failures": list(failures.values()),
              "jobs": _job_times(deck, outcomes),
              "yardstick_ms": yard_ms,
              "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"]}
    path = HERE / "results" / (f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2) + "\n")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chainent" / "__init__.py").is_file():
        print(f"error: no chainent sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads.  On 2 vCPUs two threads made
    # no job faster, and while another process kept the second vCPU busy
    # they made open_chain 2.7 times slower: the single-threaded client would
    # then measure the scheduler.
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import chainent
    from chainent import cli
    if Path(chainent.__file__).resolve().parent != (src / "chainent").resolve():
        print(f"error: imported chainent from {chainent.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2
    import reference

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        result, lines = run_workload(args, cli, reference, env)
        print("\n".join(lines))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

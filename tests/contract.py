"""The CLI's argv contract: one table of rows (argv, exit code, checks) and
one runner that applies the checks.

Each row runs in a fresh directory of its own, the default ``--outdir``,
with warnings as errors.  ``tests/test_contract.py`` runs the table in
process through ``cli.main``.  ``python tests/contract.py`` runs it through
the installed ``chainent`` script with PYTHONWARNINGS=error, prints each
failure and exits 1 if there is one.

Checks:
  rows=n           the one table written (CSV lines after the header, JSON
                   records, a graph's edges) has n rows
  no_nan           no file written holds a nan or an inf
  same_as=argv     stdout, stderr and the files written equal those of argv
  stderr=text      stderr is these lines; "..." stands for the rest of a line
  stderr_lines=n   stderr has n lines
  nothing_written  the directory stays empty
  no_module=names  run in a fresh interpreter, which then holds no module of
                   these space-separated packages
  column={name: values}  the table's column holds these values; a (lo, hi)
                   value is a closed range
  edges            the graph written has an edge

To add a row, append ``row(argv, exit code, checks)`` to ``ROWS``.
"""

import contextlib
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from typing import NamedTuple

CHECKS = ("rows", "no_nan", "same_as", "stderr", "stderr_lines",
          "nothing_written", "no_module", "column", "edges")


class Row(NamedTuple):
    argv: str
    code: int
    checks: dict


def row(argv, code=0, **checks):
    return Row(argv, code, checks)


QUIET = "scipy argparse configparser"
HUGE = "graph --model kitaev --N 8 --t 1.7e308 --mu -1.7e308"
HALVED = "graph --model kitaev --N 8 --t 8.5e307 --delta 0.5 --mu -8.5e307"
QUARTER = "graph --model kitaev --N 8 --t 2e307 --delta 1.25e307 --mu 4.475e307 --boundary open"

ROWS = [
    # the reader: help, abbreviations, usage errors and values starting with "-"
    row("--help"),
    row("graph --help", no_module=QUIET),
    row("sweep --N 8 --grid 0.1:0.3:3", rows=3),
    row("sweep --N 8 --gri 0.1:0.3:3", same_as="sweep --N 8 --grid 0.1:0.3:3", no_module=QUIET),
    row("sweep --N=--", 2, stderr="error: ..."),
    # an --outdir that is a file, not a directory: one error line, nothing written
    row("sweep --grid 0.1:0.5:3 --outdir /dev/null", 2, stderr_lines=1, nothing_written=True),
    row("graph --N 6 --lambda -1e-3", edges=True),
    # sweep and critical on the momentum route, and verify on the oracles
    row("sweep --N 8 --grid 0.1:0.5:3", rows=3, no_module=QUIET),
    row("critical --N 16", no_module=QUIET),
    row("critical --N 1", 2, stderr="error: ...", nothing_written=True),
    row("verify"),
    # obc: both last-root branches of the batched open chain (threshold 0.0078)
    row("obc --N 64 --grid 0.005:0.3:40", rows=40),
    # a grid straddling the edge-pair threshold 1/129, where the last root meets k = pi
    row("obc --N 64 --grid 0.0070:0.0085:16", rows=16, no_nan=True),
    # the bulk roots with no safeguard: both signs of t1 - t2, and zero bonds at lambda = +-1
    row("obc --N 3 --grid -1:1:41", rows=41, no_nan=True),
    row("obc --N 255 --grid -0.999:0.999:41", rows=41, no_nan=True),
    # one lambda per batch above N = 32,768: the two half-sums of the central pair
    row("obc --N 100000 --grid 0.001:0.02:5", rows=5, no_nan=True),
    # nine points between two adjacent floats repeat a point
    row("obc --N 16 --grid 0.3:0.30000000000000004:9", 2,
        stderr="error: --grid of 9 points repeats a point"),
    # disorder: the central-pair resolvent at Zolotarev poles
    row("disorder --N 12 --grid 0.2:0.6:3 --realizations 8", rows=3),
    row("disorder --N 8 --grid 0.2:0.6:3 --realizations 4", rows=3, no_module=QUIET),
    row("disorder --N 8 --grid 0.2:0.6:3 --realizations 4 --boundary open", rows=3,
        no_module=QUIET),
    # N = 256 on both boundaries: O(N) per chain, no 512 x 512 matrix
    row("disorder --N 256 --grid 0.3:0.5:2 --realizations 20 --boundary open", rows=2),
    row("disorder --N 256 --grid 0.3:0.5:2 --realizations 20 --boundary periodic", rows=2),
    # the closed-form gap bound fails at lambda = 0.05 (inertia sweep) and proves 0.6
    row("disorder --N 24 --grid 0.05:0.6:4 --amplitude 0.3 --realizations 10", rows=4),
    # the resolvent runs on A / W: an amplitude whose square overflows gives finite rows
    row("disorder --N 6 --grid 0.3:0.6:2 --amplitude 1e155 --realizations 3", rows=2,
        no_nan=True, stderr=""),
    # C2 is ~1e-200: std_c2 is taken on power-of-two scaled columns, so none is 0
    row("disorder --N 6 --grid 0.3:0.6:2 --amplitude 1e200 --realizations 3",
        column={"std_c2": [(1e-210, 1e-190)] * 2}),
    # budgeted by its O(N) rows per chain, not an N x N matrix (12.8 GB at N = 20000)
    row("disorder --N 20000 --grid 0.3:0.6:2 --realizations 2", rows=2),
    row("disorder --N 12 --grid 0.2:0.6:3 --realizations 0", 2, stderr="error: ...",
        nothing_written=True),
    # kitaev; mu = 2t on the JSON grid is the NaN row
    row("kitaev --N 8", no_module=QUIET),
    row("kitaev --N 16 --grid 0:4:81 --format json", rows=81),
    # a span stop - start that overflows: one error line, no numpy warning
    row("kitaev --grid -1e308:1e308:3", 2, stderr="error: ..."),
    # mu = -+8e307, whose squares overflow: |h| of h scaled by a power of two, exact densities
    row("kitaev --grid -8e307:8e307:3", no_nan=True, column={"density": [0, 0.5, 1]}),
    row("kitaev --grid -8e307:8e307:3 --N 16", no_nan=True, column={"density": [0, 0.5, 1]}),
    # t = 1.7e308, where -mu/2 - t cos k itself overflows: mu, t, delta halved first
    row("kitaev --t 1.7e308 --grid -1.7e308:0:3", no_nan=True),
    row("kitaev --t 1.7e308 --grid -1.7e308:0:3 --N 8", rows=3,
        column={"mu": [-1.7e308, -8.5e307, 0], "density": [0.375, 0.375, 0.5]}),
    # graph: clean, open and disordered SSH chains
    row("graph --N 8 --lambda 0.3", edges=True, no_module=QUIET),
    row("graph --N 8 --lambda 0.3 --boundary open", edges=True, no_module=QUIET),
    row("graph --N 8 --lambda 0.3 --boundary open --disorder-amplitude 0.2", edges=True,
        no_module=QUIET),
    row("graph --N 8 --lambda 1.5", 2, stderr="error: ...", nothing_written=True),
    # a clean ring of 4000 modes, written from its mode indices in both formats: the same edges
    row("graph --N 2000 --lambda 0.3", rows=2000),
    row("graph --N 2000 --lambda 0.3 --format csv", rows=2000),
    # open Kitaev chains through the polar factor of the L x L particle matrix
    row("graph --model kitaev --N 31 --t 1.1 --delta 1.3 --mu -3.1 --boundary open --format csv",
        rows=32),
    # exact Majorana zero modes: not a unique ground state
    row("graph --model kitaev --N 12 --mu 0 --boundary open", 3,
        stderr="numerical error: ...", nothing_written=True),
    # mu = 8e307: exact densities, so a ring with no edge
    row("graph --model kitaev --N 8 --mu 8e307", rows=0),
    # -mu/2 - t cos k overflows: the ground state of the halved couplings, bytes and outcome
    row(HUGE, edges=True, no_nan=True, same_as=HALVED),
    row(f"{HUGE} --format csv", no_nan=True, same_as=f"{HALVED} --format csv"),
    row(f"{HUGE} --boundary open", 3, stderr_lines=1, same_as=f"{HALVED} --boundary open"),
    row(f"{HALVED} --boundary open", 3, stderr="numerical error: ..."),
    # |mu| + 2(|t| + |delta| + amplitude) overflows: energies scaled by 1/8
    row("graph --model kitaev --N 8 --t 8e307 --delta 5e307 --mu 1.79e308 --boundary open",
        same_as=QUARTER),
    row(QUARTER, edges=True),
    row("graph --model kitaev --N 8 --t 8.5e307 --delta 5e307 --mu -8.5e307 "
        "--disorder-amplitude 5e306", no_nan=True),
]


# ----------------------------------------------------------------- runner

class Run(NamedTuple):
    code: object  # the exit code, or the text of an exception that left main
    out: str
    err: str
    where: str    # the directory it ran in


def in_process(main, argv, where):
    """``main(argv)`` run in ``where`` with warnings as errors, stdout and
    stderr captured and no $CHAINENT_OUTDIR."""
    out, err = io.StringIO(), io.StringIO()
    cwd, outdir = os.getcwd(), os.environ.pop("CHAINENT_OUTDIR", None)
    try:
        os.chdir(where)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
        if outdir is not None:
            os.environ["CHAINENT_OUTDIR"] = outdir
    return Run(code, out.getvalue(), err.getvalue(), where)


def in_children(jobs, env=None):
    """``(Run, modules of names loaded after it)`` of each ``(argv, where,
    names)`` job, run in process by fresh interpreters under -W error; a job
    gets a new interpreter where an earlier one loaded one of its names."""
    done = []
    while len(done) < len(jobs):
        proc = subprocess.run([sys.executable, "-W", "error", __file__, "--child"],
                              input=json.dumps(jobs[len(done):]), env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"a fresh interpreter failed: {proc.stderr}")
        for line, (_, where, _) in zip(proc.stdout.splitlines(), jobs[len(done):]):
            code, out, err, loaded = json.loads(line)
            done.append((Run(code, out, err, where), loaded))
    return done


def _child():
    from chainent import cli

    def loaded(names):
        return sorted(m for m in sys.modules if m.split(".")[0] in names.split())

    for n, (argv, where, names) in enumerate(json.load(sys.stdin)):
        if n and loaded(names):
            return
        print(json.dumps([*in_process(cli.main, argv, where)[:3], loaded(names)]), flush=True)


def run(rows, base, main=None, command=None):
    """Run each row, and each ``same_as`` argv that is no row, in a fresh
    directory under ``base``: through ``main`` in process, or through the
    program ``command`` with PYTHONWARNINGS=error.  ``no_module`` rows also
    (with ``main``: only) run in fresh interpreters.  Returns the Run of each
    argv and the modules each ``no_module`` row left loaded."""
    count = itertools.count()

    def fresh():
        os.makedirs(where := os.path.join(base, str(next(count))))
        return where

    def one(argv):
        if main is not None:
            return in_process(main, shlex.split(argv), fresh())
        env = {k: v for k, v in os.environ.items() if k != "CHAINENT_OUTDIR"}
        proc = subprocess.run([*command, *shlex.split(argv)], cwd=(where := fresh()),
                              env={**env, "PYTHONWARNINGS": "error"},
                              capture_output=True, text=True)
        return Run(proc.returncode, proc.stdout, proc.stderr, where)

    quiet = [r for r in rows if "no_module" in r.checks]
    children = in_children([(shlex.split(r.argv), fresh(), r.checks["no_module"])
                            for r in quiet])
    runs = {} if command else {r.argv: run for r, (run, _) in zip(quiet, children)}
    for argv in [r.argv for r in rows] + [r.checks.get("same_as") for r in rows]:
        if argv is not None and argv not in runs:
            runs[argv] = one(argv)
    return runs, {r.argv: loaded for r, (_, loaded) in zip(quiet, children)}


# ----------------------------------------------------------------- checks

def _files(where):
    return {str(path.relative_to(where)): path.read_bytes()
            for path in sorted(pathlib.Path(where).rglob("*")) if path.is_file()}


def _records(files):
    """The rows of the one table written: CSV lines after the header as
    {column: text}, JSON records, or the edges of a JSON graph."""
    (name, data), = [(n, d) for n, d in files.items() if n.endswith((".csv", ".json"))]
    if name.endswith(".json"):
        doc = json.loads(data)
        return doc["edges"] if isinstance(doc, dict) else doc
    header, *lines = data.decode().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _holds(value, want):
    try:
        value = float(value)
    except (TypeError, ValueError):
        return False
    return want[0] <= value <= want[1] if isinstance(want, tuple) else value == want


def failures(row, runs, loaded):
    """``argv: check: what went wrong`` for each check ``row`` fails."""
    run, checks, found = runs[row.argv], row.checks, []
    files = _files(run.where)

    def fail(check, text):
        found.append(f"{row.argv}: {check}: {text}")

    if run.code != row.code:
        fail("exit", f"{run.code}, not {row.code}; stderr {run.err[-200:]!r}")
    if {"rows", "column", "edges"} & set(checks):
        try:
            records = _records(files)
        except (ValueError, KeyError) as exc:
            fail("rows", f"no one table in {sorted(files)}: {exc!r}")
            return found
        if "rows" in checks and len(records) != checks["rows"]:
            fail("rows", f"{len(records)}, not {checks['rows']}")
        if checks.get("edges") and not records:
            fail("edges", "the graph has no edge")
        for name, want in checks.get("column", {}).items():
            got = [rec.get(name) for rec in records]
            if len(got) != len(want) or not all(map(_holds, got, want)):
                fail("column", f"{name} is {got}, not {want}")
    if checks.get("no_nan"):
        found += [f"{row.argv}: no_nan: {name} holds a nan or an inf" for name, data in
                  files.items() if re.search(rb"(?i)\b(nan|inf|infinity)\b", data)]
    want = "".join(line + "\n" for line in checks.get("stderr", "").splitlines())
    if "stderr" in checks and not re.fullmatch(
            re.escape(want).replace(re.escape("..."), "[^\n]*"), run.err):
        fail("stderr", f"{run.err!r}, not {want!r}")
    if "stderr_lines" in checks and len(run.err.splitlines()) != checks["stderr_lines"]:
        fail("stderr_lines", f"{run.err!r} is not {checks['stderr_lines']} lines")
    if checks.get("nothing_written") and os.listdir(run.where):
        fail("nothing_written", f"wrote {sorted(os.listdir(run.where))}")
    if loaded.get(row.argv):
        fail("no_module", f"loaded {loaded[row.argv]}")
    if "same_as" in checks:
        twin = runs[checks["same_as"]]
        for what, a, b in (("stdout", run.out, twin.out), ("stderr", run.err, twin.err),
                           ("files", files, _files(twin.where))):
            if a != b:
                fail("same_as", f"{what} differs from {checks['same_as']}")
    return found


def main():
    """Run the table through the installed chainent script, print each
    failure, and return 1 if there is one."""
    with tempfile.TemporaryDirectory() as base:
        results = run(ROWS, base, command=["chainent"])
        found = [text for r in ROWS for text in failures(r, *results)]
    print("\n".join(found) or f"all {len(ROWS)} rows pass")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(_child() if sys.argv[1:] == ["--child"] else main())

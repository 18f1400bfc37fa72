"""Compare the CLI of this tree with that of a git revision, argv by argv.

    python tests/equivalence.py <rev>

extracts ``<rev>`` with ``git archive`` into a temporary directory, then runs
each tree's ``chainent.cli.main`` in a fresh interpreter of its own on every
argv of:

- the golden cases (``tests/test_golden.py``, ``CASES``);
- the three benchmark decks at seeds 1-3 and their ``WARMUP`` jobs
  (``benchmark/workloads.py``, imported and not changed);
- the rows of ``tests/contract.py`` and their ``same_as`` argv.

Each argv runs in a fresh directory of its own with warnings as errors, as
the contract's rows do.  The script prints every exit code, stdout or stderr
line and line of a written file that differs, then a count, and exits 0 when
nothing differs.
"""

import itertools
import os
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]

import contract  # noqa: E402
import workloads  # noqa: E402
from test_golden import CASES  # noqa: E402


def argvs():
    """Every argv to compare, once each, in a fixed order."""
    found = [*CASES.values(), *workloads.WARMUP.values()]
    found += [job.argv for name in workloads.WORKLOADS for seed in (1, 2, 3)
              for job in workloads.make_deck(name, seed)]
    found += [shlex.split(text) for r in contract.ROWS
              for text in (r.argv, r.checks.get("same_as")) if text is not None]
    return [list(argv) for argv in dict.fromkeys(map(tuple, found))]


def outcomes(tree, every, base):
    """(Run, files) of each argv, run through the ``chainent`` of ``tree``."""
    jobs = []
    for n, argv in enumerate(every):
        os.makedirs(where := os.path.join(base, str(n)))
        jobs.append((argv, where, ""))
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    return [(run, contract._files(run.where)) for run, _ in contract.in_children(jobs, env)]


def _lines(what, old, new):
    found = [f"{what} line {n}: {a!r} -> {b!r}" for n, (a, b) in enumerate(
        itertools.zip_longest(old.splitlines(), new.splitlines()), 1) if a != b]
    return found or ([f"{what}: line ends differ"] if old != new else [])


def differences(old, new):
    """What differs between two (Run, files) outcomes of one argv."""
    (run_a, files_a), (run_b, files_b) = old, new
    found = [f"exit {run_a.code} -> {run_b.code}"] if run_a.code != run_b.code else []
    found += _lines("stdout", run_a.out, run_b.out) + _lines("stderr", run_a.err, run_b.err)
    for name in sorted(set(files_a) | set(files_b)):
        a, b = files_a.get(name), files_b.get(name)
        if a is None or b is None:
            found.append(f"{name} written only {'after' if a is None else 'before'}")
        elif a != b:
            found += _lines(name, a.decode(errors="replace"), b.decode(errors="replace"))
    return found


def main(rev):
    every = argvs()
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = os.path.join(tmp, "rev")
        os.makedirs(old_tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", old_tree], input=archive, check=True)
        old = outcomes(old_tree, every, os.path.join(tmp, "old"))
        new = outcomes(ROOT, every, os.path.join(tmp, "new"))
    differ = 0
    for argv, a, b in zip(every, old, new):
        found = differences(a, b)
        differ += bool(found)
        for text in found:
            print(f"{shlex.join(argv)}: {text}")
    print(f"{len(every)} argv, {differ} differ between {rev} and this tree")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/equivalence.py <rev>")
    sys.exit(main(sys.argv[1]))

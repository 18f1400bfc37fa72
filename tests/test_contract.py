"""The argv contract of ``tests/contract.py``, run in process through
``cli.main``: one test per row, the table's coverage of the CLI, and the
runner's own failure reports."""

import shlex
import sys
import warnings

import pytest

import contract
from chainent import cli


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return contract.run(contract.ROWS, tmp_path_factory.mktemp("contract"), main=cli.main)


@pytest.mark.parametrize("row", contract.ROWS, ids=[r.argv for r in contract.ROWS])
def test_row(results, row):
    assert not contract.failures(row, *results)


def test_table_covers_the_cli():
    """Every command has a row that exits 0, every command with flags one
    that exits 2, every check is used, and no argv is given twice."""
    first = {code: {shlex.split(r.argv)[0] for r in contract.ROWS if r.code == code}
             for code in (0, 2)}
    assert set(cli.COMMANDS) <= first[0]
    assert {c for row in cli.FLAGS for c in row.defaults} <= first[2]
    assert {check for r in contract.ROWS for check in r.checks} == set(contract.CHECKS)
    argvs = [tuple(shlex.split(r.argv)) for r in contract.ROWS]
    assert len(argvs) == len(set(argvs))


def _warns(argv):
    warnings.warn("overflow encountered", RuntimeWarning)
    return 0


def _two_lines(argv):
    print("error: one line", file=sys.stderr)
    print("and another", file=sys.stderr)
    return 2


@pytest.mark.parametrize("main,row,check", [
    (_warns, contract.row("sweep --N 8"), "exit: raised RuntimeWarning: overflow encountered"),
    (_two_lines, contract.row("sweep --N=--", 2, stderr="error: ..."), "stderr: "),
])
def test_runner_names_the_argv_and_the_check(tmp_path, main, row, check):
    """A main that warns, or writes a second stderr line, fails its row with
    one report that names the argv and the check."""
    found = contract.failures(row, *contract.run([row], tmp_path, main=main))
    assert len(found) == 1 and found[0].startswith(f"{row.argv}: {check}"), found

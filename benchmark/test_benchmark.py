"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from chainent import cli  # noqa: E402


def test_same_seed_gives_identical_job_list():
    for name in workloads.WORKLOADS:
        deck = workloads.make_deck(name, 7)
        assert deck == workloads.make_deck(name, 7)
        assert deck != workloads.make_deck(name, 8)


def test_emitted_metric_names_equal_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    outcomes = [run.Outcome(0, 0.01, 3)]
    outcomes[0].completed = outcomes[0].passed = True
    assert set(run.end_to_end(outcomes, [0.5], 1.0)) == set(run.END_TO_END)
    assert set(run.per_layer(tracer.Tracer(), outcomes, outcomes, 1)) \
        == set(run.PER_LAYER)


def _run(job, tmp_path, main=cli):
    outdir = str(tmp_path / "out")
    _, code, exc = run.run_job(main, job, outdir)
    out = run.judge(run.Outcome(0, 0.0, job.points), job, code, exc, outdir,
                    {}, reference)
    return out, outdir


def _obc_job():
    p = {"N": 24, "grid": "0.0500:0.2500:3", "fill": "below", "format": "csv"}
    return workloads.Job("obc", p, ["obc", "--N", "24", "--grid", p["grid"],
                                    "--fill", "below", "--format", "csv"], 3)


def _perturb_graph(outdir):
    path = os.path.join(outdir, "graph.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["edges"][0]["concurrence"] += 1e-6
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _perturb_obc(outdir):
    path = os.path.join(outdir, "obc.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[2].split(",")
    cells[1] = f"{float(cells[1]) + 1e-6:.17g}"
    lines[2] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("make_job, perturb", [
    (lambda: workloads._ssh_graph(8, 0.3, "open", 0), _perturb_graph),
    (_obc_job, _perturb_obc),
])
def test_checker_fails_a_concurrence_off_by_1e6(tmp_path, make_job, perturb):
    job = make_job()
    out, outdir = _run(job, tmp_path)
    assert out.completed and out.passed, out.reason
    perturb(outdir)
    again = run.judge(run.Outcome(0, 0.0, job.points), job, 0, None, outdir,
                      {}, reference)
    assert not again.passed and not again.known
    assert "wrong output" in again.reason


class _Crashing:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def test_checker_fails_a_job_that_raises(tmp_path):
    out, _ = _run(workloads._ssh_graph(6, 0.3, "open", 0), tmp_path, _Crashing)
    assert not out.completed and not out.passed and not out.known
    assert "RuntimeError" in out.reason


def test_known_defects_are_recognised(tmp_path):
    deck = workloads.make_deck("many_pairs", 1)
    kitaev = next(j for j in deck if j.known_defect == workloads.KITAEV_GRAPH)
    out, _ = _run(kitaev, tmp_path)
    assert not out.passed
    assert out.known == ("IndexError" in out.reason)

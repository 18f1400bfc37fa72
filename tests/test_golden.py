"""Golden CLI outputs of the momentum-space and real-space commands.

``tests/golden/<case>/`` holds the files each command below wrote before
the code it runs was rebuilt: the momentum-space cases before the one
Bloch-vector kernel, the real-space cases (open and disordered graphs,
``disorder``, ``obc``) before the closed-form two-site X state,
``obc_n2_neg`` and ``obc_n3_cross`` before the half-size open-chain
ground state, and the three Kitaev graphs before Kitaev chains left the
2L x 2L Majorana matrix for the polar factor of the L x L particle matrix.
The refactors must reproduce every number to 1e-12 (absolute) and every text
field exactly, including the edge order.  Do not re-record these files to
make a failing case pass: they are the contract, not a snapshot of the
current code.
"""

import json
import math
import os
import re

import pytest

from chainent.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
TOL = 1e-12

CASES = {
    "sweep_n16_plot": ["sweep", "--N", "16", "--grid", "-0.2:0.2:400",
                       "--plot-data"],
    "sweep_thermo_derivative": ["sweep", "--grid", "0.05:0.95:19",
                                "--derivative"],
    "critical_thermo": ["critical", "--thermodynamic", "--output",
                        "critical.csv"],
    "critical_n16": ["critical", "--N", "16", "--output", "critical.csv"],
    "graph_n12": ["graph", "--N", "12", "--lambda", "0.5"],
    "kitaev_thermo": ["kitaev", "--grid", "0:4:81"],
    # mu = 2t lies on this grid: pins the per-point gapless NaN row
    "kitaev_n16_json": ["kitaev", "--N", "16", "--grid", "0:4:81",
                        "--format", "json"],
    "graph_open_n12": ["graph", "--N", "12", "--lambda", "0.3",
                       "--boundary", "open"],
    "graph_open_n16_csv": ["graph", "--N", "16", "--lambda", "-0.2",
                           "--boundary", "open", "--format", "csv"],
    # Kitaev graphs: open trivial and open topological chains, and a ring
    "graph_kitaev_open_n12": ["graph", "--model", "kitaev", "--N", "12",
                              "--delta", "0.7", "--mu", "2.9",
                              "--boundary", "open"],
    "graph_kitaev_open_n31_csv": ["graph", "--model", "kitaev", "--N", "31",
                                  "--t", "1.1", "--delta", "1.3", "--mu",
                                  "-3.1", "--boundary", "open", "--format",
                                  "csv"],
    "graph_kitaev_ring_n16": ["graph", "--model", "kitaev", "--N", "16",
                              "--delta", "0.6", "--mu", "1.2"],
    "graph_disorder_n10": ["graph", "--N", "10", "--lambda", "-0.4",
                           "--disorder-amplitude", "0.2", "--seed", "3"],
    "disorder_n12": ["disorder", "--N", "12", "--grid", "-0.6:0.6:4",
                     "--amplitude", "0.2", "--realizations", "8",
                     "--seed", "11"],
    "obc_n64": ["obc", "--N", "64", "--grid", "0.05:0.3:6"],
    "obc_n33_above_json": ["obc", "--N", "33", "--grid", "0.02:0.3:8",
                           "--fill", "above", "--format", "json"],
    # the smallest chain up to lambda = 0, then a grid through 0.  N = 2
    # stops at 0: with lambda > 0 the filled state holds one hole (or one
    # particle), the X state has p00 = 0 (or p11 = 0) exactly, and the
    # concurrence's sqrt(p00 p11) turns rounding into ~1e-8 noise.
    "obc_n2_neg": ["obc", "--N", "2", "--grid", "-0.3:0:4", "--fill",
                   "above"],
    "obc_n3_cross": ["obc", "--N", "3", "--grid", "-0.3:0.3:5", "--fill",
                     "above"],
}


def _tokens(text):
    return [t for t in re.split(r"[,\s]+", text) if t]


def _same(want, got, where):
    """Numbers agree to TOL (NaN matches NaN); everything else exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(want) == sorted(got), where
        for key in want:
            _same(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(want) == len(got), where
        for i, (w, g) in enumerate(zip(want, got)):
            _same(w, g, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert abs(got - want) <= TOL, (where, want, got)
    else:
        assert got == want, where


def _parse(path):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.loads(text)
    out = []
    for tok in _tokens(text):
        try:
            out.append(float(tok))
        except ValueError:
            out.append(tok)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_cli_output(case, tmp_path):
    assert main(CASES[case] + ["--outdir", str(tmp_path)]) == 0
    want_dir = os.path.join(GOLDEN, case)
    names = sorted(os.listdir(want_dir))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        _same(_parse(os.path.join(want_dir, name)),
              _parse(os.path.join(tmp_path, name)), f"{case}/{name}")

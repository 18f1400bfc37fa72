"""The one-pass writers of ``serialize`` and ``EntangledGraph.to_json``
against their oracles: ``json.dumps(..., indent=2)`` for JSON and a
comma join of :func:`serialize.fmt` per cell for CSV.

Hypothesis draws tables with ``derandomize=True``, so every run checks the
same examples.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainent import analysis, entanglement, serialize
from chainent.cli import main
from chainent.models import DisorderSpec, ModelSpec

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16,
               1e-7]
PIECES = ['"', "\\", "%", "%s", "%(", "\n", "\x00", "\x1f", "\x7f", ",", "a",
          " ", "é", "λ", "\u2028", "😀"]
# JSON escapes a lone surrogate; a CSV file cannot hold one in any encoding
JSON_TEXT = st.lists(st.sampled_from(PIECES + ["\ud800"]) | st.characters(),
                     max_size=6).map("".join)
CSV_TEXT = st.lists(st.sampled_from(PIECES)
                    | st.characters(exclude_categories=["Cs"]),
                    max_size=6).map("".join)
NUMBERS = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64), st.sampled_from(EDGE_FLOATS).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none())


@st.composite
def tables(draw, text):
    header = draw(st.lists(text, max_size=6, unique=True))
    rows = draw(st.lists(st.lists(NUMBERS | text, min_size=len(header),
                                  max_size=len(header)), max_size=5))
    return header, rows


def json_oracle(rows, header) -> str:
    """The writer before one-pass formatting: numpy floats cast to float,
    then the standard library's encoder."""
    records = [{k: float(v) if isinstance(v, np.floating) else v
                for k, v in zip(header, row)} for row in rows]
    return json.dumps(records, indent=2) + "\n"


def csv_oracle(rows, header) -> str:
    lines = [",".join(header) + "\n"]
    lines += [",".join(serialize.fmt(x) for x in row) + "\n" for row in rows]
    return "".join(lines)


def graph_oracle(graph) -> str:
    """``EntangledGraph.to_json`` before one-pass formatting."""
    label = entanglement.site_label
    doc = {"num_cells": graph.num_cells,
           "phase": graph.phase and graph.phase.value,
           "c1": graph.c1, "c2": graph.c2,
           "vertices": [label((n, s)) for n in range(graph.num_cells)
                        for s in graph.sublattices],
           "edges": [{"site1": label(s1), "site2": label(s2),
                      "concurrence": c} for s1, s2, c in graph.edges]}
    return json.dumps(doc, indent=2)


def written(tmp_path, writer, rows, header) -> str:
    path = tmp_path / "table"
    writer(path, rows, header)
    with open(path, newline="") as fh:
        return fh.read()


# ----------------------------------------------------------- oracle tests

@PROPERTY
@given(tables(JSON_TEXT))
def test_json_records_match_json_dumps(tmp_path_factory, table):
    header, rows = table
    got = written(tmp_path_factory.getbasetemp(), serialize.write_json_records,
                  rows, header)
    assert got == json_oracle(rows, header)


@PROPERTY
@given(tables(CSV_TEXT))
def test_csv_matches_fmt_join(tmp_path_factory, table):
    header, rows = table
    got = written(tmp_path_factory.getbasetemp(), serialize.write_csv,
                  rows, header)
    assert got == csv_oracle(rows, header)


# ------------------------------------------------------------ fixed cases

def test_empty_table(tmp_path):
    header = ["mu", "density"]
    assert written(tmp_path, serialize.write_json_records, [], header) == "[]\n"
    assert written(tmp_path, serialize.write_csv, [], header) == "mu,density\n"


def test_header_with_template_characters(tmp_path):
    header = ["100%", '"q"', "%s", "%(x)s", "%%", "back\\slash"]
    rows = [[1.5, None, "%d", True, -0.0, np.float64(math.nan)],
            [2, "é", "%%", False, math.inf, np.float64(3.25)]]
    assert (written(tmp_path, serialize.write_json_records, rows, header)
            == json_oracle(rows, header))
    assert (written(tmp_path, serialize.write_csv, rows, header)
            == csv_oracle(rows, header))


def test_unsupported_cell_type_raises(tmp_path):
    for cell in (object(), np.int64(3), np.bool_(True)):
        with pytest.raises(TypeError):
            json.dumps(cell)  # the oracle refuses it too
        with pytest.raises(TypeError):
            serialize.write_json_records(tmp_path / "t.json", [[cell]], ["x"])


GRAPHS = {
    "ssh_ring": ModelSpec.ssh(8, 0.3),
    "ssh_ring_q": ModelSpec.ssh(10, 0.07),
    "open_chain": ModelSpec.ssh(12, -0.2, boundary="open"),
    "disordered": ModelSpec.ssh(6, -0.4, disorder=DisorderSpec(0.2, 3)),
    "kitaev": ModelSpec.kitaev(8, delta=0.3, mu=1.9),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_json_matches_json_dumps(name):
    graph = entanglement.entangled_graph(GRAPHS[name])
    assert graph.edges
    assert graph.to_json() == graph_oracle(graph)
    if name == "kitaev":
        doc = json.loads(graph.to_json())
        assert doc["phase"] is doc["c1"] is doc["c2"] is None
        assert doc["vertices"] == [f"s{n}" for n in range(8)]


def test_graph_json_without_edges():
    graph = entanglement.entangled_graph(GRAPHS["ssh_ring"])
    for bare in (dataclasses.replace(graph, edges=[]),
                 dataclasses.replace(graph, num_cells=0, edges=[])):
        assert bare.to_json() == graph_oracle(bare)
    assert '"edges": []' in bare.to_json() and '"vertices": []' in bare.to_json()


def test_critical_output_bool_cell(tmp_path, capsys):
    assert main(["critical", "--thermodynamic", "--output", "crit.csv",
                 "--outdir", str(tmp_path)]) == 0
    report = analysis.critical_report(N=None)
    rows = [["lambda_plus", report.lambda_plus],
            ["lambda_minus", report.lambda_minus],
            ["slope_at_plus", report.slope_at_plus],
            ["logfit_slope", report.logfit_slope],
            ["logfit_intercept", report.logfit_intercept],
            ["asymptotic", report.logfit_asymptotic]]
    text = (tmp_path / "crit.csv").read_text()
    assert text == csv_oracle(rows, ["quantity", "value"])
    assert text.splitlines()[-1] in ("asymptotic,True", "asymptotic,False")


def test_kitaev_json_nan_row(tmp_path, capsys):
    assert main(["kitaev", "--N", "16", "--grid", "0:4:81", "--format", "json",
                 "--outdir", str(tmp_path)]) == 0
    table = analysis.kitaev_density(np.linspace(0, 4, 81), N=16)
    rows = [[mu, n] for mu, n in zip(table.mus, table.density)]
    text = (tmp_path / "kitaev_density.json").read_text()
    assert text == json_oracle(rows, ["mu", "density"])
    assert '"mu": 2.0,\n    "density": NaN\n' in text


def test_plot_data_matches_per_line_format(tmp_path):
    result = analysis.sweep(np.linspace(-0.2, 0.2, 10), N=16)
    written_paths = serialize.emit_plot_data(result, tmp_path)
    assert [p.rsplit("_", 1)[1] for p in written_paths] == ["c1.dat", "c2.dat",
                                                            "dc2.dat"]
    for path, col in zip(written_paths,
                         (result.c1, result.c2, result.dc2_dlambda)):
        want = "".join(f"{serialize.fmt(float(lam))} {serialize.fmt(float(v))}\n"
                       for lam, v in zip(result.lambdas, col)
                       if not np.isnan(v))
        with open(path) as fh:
            assert fh.read() == want
    # the derivative's NaN endpoints are skipped
    with open(written_paths[2]) as fh:
        assert len(fh.readlines()) == 8


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.integers(2, 2000), st.floats(-1e3, 1e3), st.floats(-10.0, 3.0))
def test_grid_points_match_linspace(num, start, log_span):
    """The grid of --grid is np.linspace's, bit for bit: spans from 1e-10 to
    1e3, negative starts, 2 to 2,000 points."""
    stop = start + 10.0 ** log_span
    assert np.array_equal(serialize.grid_points(start, stop, num),
                          np.linspace(start, stop, num))


@pytest.mark.parametrize("start, stop, num", [
    (0.0, 5e-324, 3),  # a subnormal step
    (-1e308, 1e308, 5),  # a span that overflows
    (1.0, np.nextafter(1.0, 2.0), 9),
])
def test_grid_points_match_linspace_at_the_extremes(start, stop, num):
    with np.errstate(all="ignore"):
        assert np.array_equal(serialize.grid_points(start, stop, num),
                              np.linspace(start, stop, num), equal_nan=True)

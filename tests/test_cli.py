import json
import os

import numpy as np
import pytest

from chainent import analysis, entanglement, gaussian, models, serialize
from chainent.cli import main


# -------------------------------------------------------------- serialize

def test_fmt_round_trips_floats():
    rng = np.random.default_rng(3)
    for x in rng.normal(scale=10.0, size=50):
        assert float(serialize.fmt(float(x))) == x


def test_parse_grid():
    g = serialize.parse_grid("-0.2:0.2:5")
    assert np.allclose(g, [-0.2, -0.1, 0.0, 0.1, 0.2])
    for bad in ("0:1", "1:0:5", "0:1:1", "0:0:5"):
        with pytest.raises(ValueError):
            serialize.parse_grid(bad)


def test_csv_round_trip_exact(tmp_path):
    res = analysis.sweep(np.linspace(-0.3, 0.3, 6), N=16)
    rows = serialize.sweep_rows(res)
    path = tmp_path / "sweep.csv"
    serialize.write_csv(path, rows)
    header, back = serialize.read_csv(path)
    assert header == serialize.CSV_HEADER
    for want, got in zip(rows, back):
        for w, g in zip(want, got):
            if isinstance(w, float):
                assert g == w  # bit-exact through 17 significant digits
    assert len(back) == len(rows)


def test_empty_sweep_warns(tmp_path):
    res = analysis.sweep(np.array([0.0]), N=16)  # single gapless point
    with pytest.warns(UserWarning):
        written = serialize.emit_plot_data(res, tmp_path)
    assert written == []


def test_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nfamily = ssh\nn = 12\nlambda = 0.5\n"
                   "[disorder]\namplitude = 0.2\nseed = 4\n")
    spec = serialize.spec_from_config(serialize.load_config(str(cfg)))
    assert spec.N == 12
    assert spec.lam == 0.5
    assert spec.disorder.amplitude == 0.2


# -------------------------------------------------------------------- CLI

def test_cli_sweep(tmp_path):
    code = main(["sweep", "--N", "16", "--grid", "-0.2:0.2:10",
                 "--outdir", str(tmp_path)])
    assert code == 0
    header, rows = serialize.read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 10


def test_cli_sweep_rejects_gapless_grid(tmp_path):
    # 5 points on a symmetric grid include lambda = 0
    code = main(["sweep", "--N", "16", "--grid", "-0.2:0.2:5",
                 "--outdir", str(tmp_path)])
    assert code == 2


def test_cli_sweep_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["sweep", "--N", "15", "--grid", "-0.3:0.3:7",
                     "--plot-data", "--outdir", str(out)]) == 0
    for name in ("sweep.csv", "sweep_c1.dat", "sweep_c2.dat"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_graph_json(tmp_path):
    code = main(["graph", "--model", "ssh", "--N", "12", "--lambda", "0.5",
                 "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "graph.json").read_text())
    assert doc["phase"] == "P1"


@pytest.mark.parametrize("flags", [["--mu", "0.5"],
                                   ["--mu", "3", "--boundary", "open"]])
def test_cli_graph_kitaev_matches_dense_oracle(tmp_path, flags):
    assert main(["graph", "--model", "kitaev", "--N", "12", *flags,
                 "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "graph.json").read_text())
    assert doc["phase"] is None and doc["c1"] is None and doc["c2"] is None
    assert doc["vertices"] == [f"s{n}" for n in range(12)]
    spec = models.ModelSpec.kitaev(
        12, mu=float(flags[1]),
        boundary=flags[3] if len(flags) > 2 else "periodic")
    Mbar = gaussian.spectral_flatten(models.realspace_hamiltonian(spec))
    want = {}
    for i in range(12):
        for j in range(i + 1, 12):
            d = j - i if len(flags) > 2 else min(j - i, 12 - j + i)
            rdm = gaussian.rdm_from_restriction(gaussian.restrict(Mbar, [i, j]))
            c = entanglement.concurrence(rdm.matrix)
            if d <= 6 and c > 1e-12:
                want[(f"s{i}", f"s{j}")] = c
    got = {(e["site1"], e["site2"]): e["concurrence"] for e in doc["edges"]}
    assert sorted(got) == sorted(want) and want
    for key, c in want.items():
        assert got[key] == pytest.approx(c, abs=1e-12)


def test_cli_graph_kitaev_open_zero_modes_exit_code(tmp_path, capsys):
    # mu = 0 on an open chain leaves two exact Majorana zero modes
    assert main(["graph", "--model", "kitaev", "--N", "12",
                 "--boundary", "open", "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1


def test_cli_graph_open_edge_modes_exit_code(tmp_path, capsys):
    # the two edge levels of this open chain are split far below 1e-12
    assert main(["graph", "--N", "24", "--lambda", "0.9", "--boundary", "open",
                 "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


def test_cli_graph_gapless_exit_code(tmp_path):
    code = main(["graph", "--model", "ssh", "--N", "12", "--lambda", "0.0",
                 "--outdir", str(tmp_path)])
    assert code == 3


def test_cli_thermodynamic_sweep_rejects_lambda_out_of_range(tmp_path):
    code = main(["sweep", "--grid", "1.5:2:3", "--outdir", str(tmp_path)])
    assert code == 2
    assert not os.path.exists(tmp_path / "sweep.csv")


def test_cli_bad_grid_exit_code(tmp_path):
    code = main(["sweep", "--N", "16", "--grid", "oops",
                 "--outdir", str(tmp_path)])
    assert code == 2


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nN = 15\ngrid = -0.3:0.3:4\n")
    assert main(["sweep", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 0
    _, rows = serialize.read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 4 and rows[0][6] == 15
    # flag overrides the config grid
    assert main(["sweep", "--config", str(cfg), "--grid", "-0.3:0.3:6",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = serialize.read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 6


def test_cli_obc_fill_from_config(tmp_path, monkeypatch, capsys):
    """``[run] fill`` applies when --fill is absent; the flag still wins.
    Both fills give the same central-bond C2 (particle-hole symmetry), so
    the fill is read off the call."""
    cfg = tmp_path / "obc.cfg"
    cfg.write_text("[run]\nN = 16\ngrid = 0.05:0.3:4\nfill = above\n")
    real, seen = analysis.obc_center_derivative, []

    def spy(N, grid, fill="below"):
        seen.append(fill)
        return real(N, grid, fill=fill)

    monkeypatch.setattr(analysis, "obc_center_derivative", spy)
    out = ["--outdir", str(tmp_path)]
    assert main(["obc", "--config", str(cfg)] + out) == 0
    assert main(["obc", "--config", str(cfg), "--fill", "below"] + out) == 0
    assert main(["obc", "--N", "16", "--grid", "0.05:0.3:4"] + out) == 0
    assert seen == ["above", "below", "below"]
    cfg.write_text("[run]\nN = 16\nfill = middle\n")
    capsys.readouterr()
    assert main(["obc", "--config", str(cfg)] + out) == 2
    assert "fill must be 'below' or 'above'" in capsys.readouterr().err


def test_cli_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAINENT_OUTDIR", str(tmp_path))
    assert main(["kitaev", "--grid", "0:1:5"]) == 0
    assert os.path.exists(tmp_path / "kitaev_density.csv")


def test_cli_kitaev_json_format(tmp_path):
    assert main(["kitaev", "--grid", "0:1:5", "--format", "json",
                 "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "kitaev_density.json").read_text())
    assert len(doc) == 5 and set(doc[0]) == {"mu", "density"}


def test_cli_disorder(tmp_path):
    assert main(["disorder", "--N", "8", "--grid", "-0.4:0.4:4",
                 "--realizations", "3", "--outdir", str(tmp_path)]) == 0
    _, rows = serialize.read_csv(tmp_path / "disorder.csv")
    assert len(rows) == 4


def test_cli_disorder_amplitude_flag(tmp_path):
    assert main(["disorder", "--N", "8", "--grid", "0.4:0.6:2",
                 "--amplitude", "0.3", "--realizations", "5",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = serialize.read_csv(tmp_path / "disorder.csv")
    want = analysis.disorder_ensemble(8, [0.4, 0.6], amplitude=0.3,
                                      num_realizations=5)
    assert [r[1] for r in rows] == pytest.approx(want.mean_c2, abs=1e-12)
    assert [r[2] for r in rows] == pytest.approx(want.std_c2, abs=1e-12)


def test_cli_obc(tmp_path):
    assert main(["obc", "--N", "16", "--grid", "0.05:0.3:5",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = serialize.read_csv(tmp_path / "obc.csv")
    assert len(rows) == 5


def test_cli_critical_report(tmp_path, capsys):
    assert main(["critical", "--thermodynamic", "--output", "crit.csv",
                 "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_plus" in out
    _, rows = serialize.read_csv(tmp_path / "crit.csv")
    vals = {r[0]: r[1] for r in rows}
    assert 0.136 <= vals["lambda_plus"] <= 0.140


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "PASS  closed-form pair concurrence equals dense RDM concurrence" in out

import ast
import json
import os
import re
import subprocess
import sys
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
import contract

import chainent
from chainent import analysis, entanglement, models, reference, serialize
from chainent import cli
from chainent.cli import main


# -------------------------------------------------------------- serialize

def test_fmt_round_trips_floats():
    rng = np.random.default_rng(3)
    for x in rng.normal(scale=10.0, size=50):
        assert float(reference.fmt(float(x))) == x


def test_grid_spec():
    assert serialize.grid_spec("-0.2:0.2:5") == (-0.2, 0.2, 5)
    for bad in ("0:1", "1:0:5", "0:1:1", "0:0:5",
                "-1e308:1e308:5", "-inf:inf:3", "nan:1:3", "0:inf:3"):
        with pytest.raises(ValueError):
            serialize.grid_spec(bad)


def test_csv_round_trip_exact(tmp_path):
    res = analysis.sweep(np.linspace(-0.3, 0.3, 6), N=16)
    rows = serialize.sweep_rows(res)
    path = tmp_path / "sweep.csv"
    serialize.write_csv(path, rows)
    header, back = reference.read_csv(path)
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
    spec = cli.model_spec(cli.settings(["graph", "--config", str(cfg)]))
    assert spec.N == 12
    assert spec.lam == 0.5
    assert spec.disorder.amplitude == 0.2
    assert spec.disorder.seed == 4


# -------------------------------------------------------------------- CLI

def test_cli_sweep(tmp_path):
    code = main(["sweep", "--N", "16", "--grid", "-0.2:0.2:10",
                 "--outdir", str(tmp_path)])
    assert code == 0
    header, rows = reference.read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 10


def test_cli_sweep_rejects_gapless_grid(tmp_path):
    # 5 points on a symmetric grid include lambda = 0
    code = main(["sweep", "--N", "16", "--grid", "-0.2:0.2:5",
                 "--outdir", str(tmp_path)])
    assert code == 2


def test_cli_sweep_skips_gapless_points(tmp_path, capsys):
    """A thermodynamic grid through lambda = 0 writes the other rows, names
    the skipped point on stderr and exits 3, or 0 with --skip-gapless and the
    same file; finite-N points past the 1e-15 zero check are skipped at the
    band touching."""
    argv = ["sweep", "--grid", "-0.5:0.5:3", "--outdir"]
    assert main(argv + [str(tmp_path / "strict")]) == 3
    assert capsys.readouterr().err == "skipped lambda=0: lambda = 0 is the critical point\n"
    _, rows = reference.read_csv(tmp_path / "strict" / "sweep.csv")
    assert [row[0] for row in rows] == [-0.5, 0.5]
    assert main(argv + [str(tmp_path / "skip"), "--skip-gapless"]) == 0
    assert capsys.readouterr().err == "skipped lambda=0: lambda = 0 is the critical point\n"
    assert ((tmp_path / "skip" / "sweep.csv").read_bytes()
            == (tmp_path / "strict" / "sweep.csv").read_bytes())
    assert main(["sweep", "--N", "16", "--grid", "-3e-13:1e-13:3",
                 "--outdir", str(tmp_path / "touch")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("skipped lambda=")
                                 and line.endswith(": band touching") for line in err)
    assert reference.read_csv(tmp_path / "touch" / "sweep.csv")[1] == []


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
    Mbar = reference.spectral_flatten(reference.realspace_hamiltonian(spec))
    want = {}
    for i in range(12):
        for j in range(i + 1, 12):
            d = j - i if len(flags) > 2 else min(j - i, 12 - j + i)
            rdm = reference.rdm_from_restriction(reference.restrict(Mbar, [i, j]))
            c = reference.concurrence(rdm.matrix)
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
    _, rows = reference.read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 4 and rows[0][6] == 15
    # flag overrides the config grid
    assert main(["sweep", "--config", str(cfg), "--grid", "-0.3:0.3:6",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = reference.read_csv(tmp_path / "sweep.csv")
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [["--N", "8"], []])
def test_cli_kitaev_zero_hamiltonian_is_gapless(tmp_path, capsys, N):
    """t = delta = mu = 0 is gapless at finite N and in the thermodynamic
    limit: exit 3 with one line, no file and no warning."""
    assert main(["kitaev", "--grid", "-1:1:5", "--t", "0", "--delta", "0",
                 *N, "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)
    # mu = 0 off the grid: a flat band, gapped
    assert main(["kitaev", "--grid", "0.5:1:3", "--t", "0", "--delta", "0",
                 *N, "--outdir", str(tmp_path)]) == 0


def test_cli_kitaev_json_format(tmp_path):
    assert main(["kitaev", "--grid", "0:1:5", "--format", "json",
                 "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "kitaev_density.json").read_text())
    assert len(doc) == 5 and set(doc[0]) == {"mu", "density"}


def test_cli_disorder(tmp_path):
    assert main(["disorder", "--N", "8", "--grid", "-0.4:0.4:4",
                 "--realizations", "3", "--outdir", str(tmp_path)]) == 0
    _, rows = reference.read_csv(tmp_path / "disorder.csv")
    assert len(rows) == 4


def test_cli_disorder_amplitude_flag(tmp_path):
    assert main(["disorder", "--N", "8", "--grid", "0.4:0.6:2",
                 "--amplitude", "0.3", "--realizations", "5",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = reference.read_csv(tmp_path / "disorder.csv")
    want = analysis.disorder_ensemble(8, [0.4, 0.6], amplitude=0.3,
                                      num_realizations=5)
    assert [r[1] for r in rows] == pytest.approx(want.mean_c2, abs=1e-12)
    assert [r[2] for r in rows] == pytest.approx(want.std_c2, abs=1e-12)


def test_cli_obc(tmp_path):
    assert main(["obc", "--N", "16", "--grid", "0.05:0.3:5",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = reference.read_csv(tmp_path / "obc.csv")
    assert len(rows) == 5


def test_cli_critical_report(tmp_path, capsys):
    assert main(["critical", "--thermodynamic", "--output", "crit.csv",
                 "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_plus" in out
    _, rows = reference.read_csv(tmp_path / "crit.csv")
    vals = {r[0]: r[1] for r in rows}
    assert 0.136 <= vals["lambda_plus"] <= 0.140


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "PASS  closed-form pair concurrence equals dense RDM concurrence" in out
    assert "PASS  open Kitaev pair RDM matches flattened Majorana matrix" in out


_SABOTAGED_VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
from types import SimpleNamespace
from chainent import analysis, cli
analysis.jump_at_zero = lambda N: 99.0
analysis.critical_report = lambda N=None: SimpleNamespace(lambda_plus=0.2)
sys.exit(cli.main(["verify"]))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]])
def test_cli_verify_fails_on_sabotaged_invariants(optimize):
    """With jump_at_zero returning 99 and critical_report's lambda_plus a constant, verify
    fails both checks with their residual and tolerance and exits 3, also
    under python -O, which strips assert statements."""
    src = os.path.dirname(os.path.dirname(chainent.__file__))
    proc = subprocess.run([sys.executable, *optimize, "-c", _SABOTAGED_VERIFY, src],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    lines = proc.stdout.splitlines()
    assert "FAIL  even-N jump equals 2/N: residual 99 exceeds tolerance 1e-12" in lines
    assert any(line.startswith("FAIL  |eta1(lambda_plus)| equals sqrt(2) - 1: residual 0.0")
               and line.endswith("exceeds tolerance 1e-11") for line in lines)
    assert sum(line.startswith("PASS  ") for line in lines) == 6
    assert lines[-1] == "2 failed"


def test_cli_rejects_n_beyond_memory(tmp_path, monkeypatch, capsys):
    """An --N whose largest array exceeds physical memory (faked as 4 MB)
    exits 2 with one line naming --N, before anything is allocated."""
    sysconf = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", sysconf.__getitem__)
    for argv in (["obc", "--N", "65538"], ["disorder", "--N", "512"],
                 ["graph", "--N", "512", "--lambda", "0.3"],
                 ["graph", "--model", "kitaev", "--N", "512", "--mu", "0.5"],
                 ["sweep", "--N", "65538", "--grid", "0.1:0.5:3"],
                 ["critical", "--N", "65538"]):
        assert main(argv + ["--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --N ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)
    # the closed-form open chain needs a few length-N rows, not an N x N block
    assert main(["obc", "--N", "4096", "--grid", "0.1:0.3:3",
                 "--outdir", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--N", "16", "--grid", "0.1:0.5:10000000000000"], "--grid"),
    (["kitaev", "--grid", "0:1:10000000000000"], "--grid"),
    (["obc", "--grid", "0.1:0.3:10000000000000"], "--grid"),
    (["disorder", "--N", "4", "--grid", "0.1:0.5:3", "--realizations",
      "10000000000000"], "--realizations"),
])
def test_cli_rejects_sizes_beyond_memory(tmp_path, capsys, argv, flag):
    """A grid point count or --realizations whose arrays exceed physical
    memory exits 2 with one line naming the flag, before anything is
    allocated or written."""
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_memory_estimates_read_the_returned_settings(command):
    """The memory estimates read a command's returned settings, whose grid is
    its points, and count those points."""
    grid = ["--grid", "0.1:0.2:3"] if "grid" in cli.settings([command]) else []
    v = cli.settings([command, *grid])
    points = len(v["grid"]) if grid else 0
    assert cli._needs(v)[1] == (f"--grid of {points} points", 64 * points)


@pytest.mark.parametrize("flags", [
    ["--lambda", "-0.3", "--boundary", "open"],
    ["--lambda", "0.3", "--disorder-amplitude", "0.2"],
    ["--model", "kitaev", "--mu", "2.5", "--boundary", "open"],
], ids=["open-ssh", "disordered-ssh-ring", "open-kitaev"])
def test_graph_memory_gate_matches_its_route(flags):
    """The memory gate's --N estimate for an open or disordered graph (96
    bytes per pair of its L modes) is at least the traced peak of
    entangled_graph and at most four times it, at two sizes."""
    argv = ["graph", *flags, "--N"]
    entanglement.entangled_graph(cli.model_spec(cli.settings(argv + ["6"])))  # one-time setup
    for N in (100, 200):
        v = cli.settings(argv + [str(N)])
        (what, estimate), *_ = cli._needs(v)
        tracemalloc.start()
        try:
            entanglement.entangled_graph(cli.model_spec(v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert what == f"--N {N}" and estimate / 4 <= peak <= estimate, (N, peak, estimate)


def test_disorder_memory_gate_matches_its_route():
    """The memory gate's --N estimate for ``disorder`` (the O(N) rows of each
    chain of a pair_projector batch) is at least the
    traced peak of disorder_ensemble and at most four times it, at two sizes.
    N = 20,000, refused at 12.8 GB while it was budgeted as an N x N matrix,
    now passes with about 30 MB."""
    argv = ["disorder", "--grid", "0.3:0.6:3", "--realizations", "10", "--N"]
    analysis.disorder_ensemble(4, [0.4], num_realizations=1)  # one-time setup
    for N in (100, 1000):
        v = cli.settings(argv + [str(N)])
        (what, estimate), *_ = cli._needs(v)
        tracemalloc.start()
        try:
            analysis.disorder_ensemble(N, v["grid"], amplitude=v["amplitude"],
                                       num_realizations=v["realizations"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert what == f"--N {N}" and estimate / 4 <= peak <= estimate, (N, peak, estimate)
    v = cli.settings(["disorder", "--N", "20000", "--grid", "0.3:0.6:2", "--realizations", "2"])
    assert cli._needs(v)[0][1] < 40e6


def test_disorder_eigh_fallback_checks_memory_first(tmp_path, monkeypatch, capsys):
    """A chain the resolvent cannot certify (gap far under W 4^-5) goes to an
    L x L eigh; where that cannot fit (memory faked as 48 kB, the eigh of 48
    sites needs 74 kB) the ensemble raises SizeError before building it, and
    the CLI, whose O(N) gate let the argv through, exits 2 with one line."""
    from chainent.errors import SizeError

    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 12, "SC_PAGE_SIZE": 4096}.__getitem__)
    with pytest.raises(SizeError, match="48-site chain"):
        analysis.disorder_ensemble(24, [1e-5], amplitude=1e-6, num_realizations=1)
    argv = ["disorder", "--N", "24", "--amplitude", "1e-6", "--realizations", "1",
            "--outdir", str(tmp_path), "--grid"]
    assert main(argv + ["1e-5:2e-5:2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a 48-site chain") and err.count("\n") == 1
    assert not os.listdir(tmp_path)
    assert main(argv + ["0.3:0.6:2"]) == 0  # certified chains need no eigh


def _loaded(tmp_path, argv):
    """scipy modules, argparse and configparser that a fresh interpreter
    holds after ``argv``, run through the runner of tests/contract.py."""
    (run, loaded), = contract.in_children([(argv, str(tmp_path), contract.QUIET)])
    assert run.code == 0, run.err
    return loaded


def test_import_builds_no_zolotarev_table():
    """disorder builds its Zolotarev tables on first use, none at import."""
    proc = subprocess.run([sys.executable, "-c", "import chainent; "
                           "print(chainent.gaussian._zolotarev.cache_info().currsize)"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


def test_thermodynamic_critical_loads_scipy_special_only(tmp_path):
    """critical --thermodynamic reaches scipy only through the elliptic
    integrals of the SSH N = infinity closed forms: it loads the watched
    modules of a bare ``import scipy.special`` (argparse among them, which
    scipy imports itself) and no other."""
    special = subprocess.run(
        [sys.executable, "-c", "import json, sys, scipy.special; print(json.dumps(sorted("
         "m for m in sys.modules if m.startswith('scipy') or m in ('argparse', "
         "'configparser'))))"],
        capture_output=True, text=True, check=True)
    assert _loaded(tmp_path, ["critical", "--thermodynamic"]) == json.loads(special.stdout)


def test_only_help_abbreviations_and_config_load_their_parsers(tmp_path):
    """Only ``--config`` loads configparser; help and abbreviated flags,
    which load no parser, are rows of tests/contract.py."""
    config = tmp_path / "run.ini"
    config.write_text("[run]\nN = 8\ngrid = 0.1:0.3:3\n")
    assert _loaded(tmp_path, ["sweep", "--config", str(config)]) == ["configparser"]


def _imports_reference(path) -> bool:
    """Whether the module at ``path`` imports chainent.reference anywhere in it."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "reference" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module == "reference" or (module in ("", "chainent") and any(
                    a.name == "reference" for a in node.names)):
                return True
    return False


def test_run_time_modules_import_no_oracle():
    """The oracles stay out of the run-time modules: none of them imports
    chainent.reference, at the top or inside a function.  cli does, for
    verify."""
    src = os.path.dirname(chainent.__file__)
    for name in ("models", "gaussian", "entanglement", "analysis", "serialize", "errors"):
        assert not _imports_reference(os.path.join(src, f"{name}.py")), name
    assert _imports_reference(os.path.join(src, "cli.py"))


def test_obc_loads_scipy_linalg_only(tmp_path):
    """obc once loaded scipy.linalg for its eigensolver and nothing else of
    scipy; the closed-form open chain needs no eigensolver, so it now loads
    no scipy module at all."""
    assert _loaded(tmp_path, ["obc", "--N", "8", "--grid", "0.1:0.3:3"]) == []


# ----------------------------------------------- flags and config files

ROWS = {row.key: row for row in cli.FLAGS}


def _flags(command, values):
    """Command-line form of ``{key: text}`` settings, through the table."""
    argv = [command]
    for key, text in values.items():
        flag = ROWS[key].at("flag", command)
        if ROWS[key].type is cli.BOOL:
            argv += [flag if text == "true" else f"{flag}={text}"]
        else:
            argv += [flag, text]
    return argv


def _ini(command, values):
    """Config-file form of the same settings."""
    sections = {}
    for key, text in values.items():
        sections.setdefault(ROWS[key].at("section", command), []).append(
            f"{key} = {text}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())


def _outputs(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


# every setting of one run, once as flags and once as a config file
SAME_RUN = {
    "sweep": ("sweep", {"N": "15", "grid": "-0.3:0.3:7", "derivative": "true",
                        "plot_data": "true", "format": "json"}),
    "critical_n": ("critical", {"N": "16", "output": "c.csv"}),
    "critical_thermo": ("critical", {"thermodynamic": "true",
                                     "output": "c.csv"}),
    "kitaev": ("kitaev", {"N": "16", "grid": "0:3:7", "t": "0.8",
                          "delta": "1.2", "format": "json"}),
    "graph_ssh_ring": ("graph", {"N": "8", "lambda": "0.3"}),
    "graph_ssh_open": ("graph", {"N": "8", "lambda": "0.3",
                                 "boundary": "open", "format": "csv"}),
    "graph_kitaev_ring": ("graph", {"family": "kitaev", "N": "9", "t": "0.7",
                                    "delta": "1.3", "mu": "0.5"}),
    "graph_kitaev_open": ("graph", {"family": "kitaev", "N": "10", "mu": "3",
                                    "boundary": "open"}),
    "graph_disordered": ("graph", {"N": "8", "lambda": "-0.4",
                                   "amplitude": "0.2", "seed": "3"}),
    "disorder": ("disorder", {"N": "8", "grid": "0.2:0.6:3",
                              "amplitude": "0.3", "realizations": "4",
                              "seed": "5", "boundary": "open",
                              "format": "json"}),
    "obc": ("obc", {"N": "16", "grid": "0.05:0.3:4", "fill": "above",
                    "format": "json"}),
}

# Reported cases where a file value lost to a parser default or was never
# read: (file, command line with the file, the same run in flags only).
MIXED_RUN = {
    "graph_kitaev_family_from_file": (
        "[model]\nfamily = kitaev\nmu = 3\nboundary = open\n",
        ["graph", "--N", "10"],
        ["graph", "--model", "kitaev", "--N", "10", "--mu", "3",
         "--boundary", "open"]),
    "graph_open_boundary_from_file": (
        "[model]\nN = 12\nlambda = 0.3\nboundary = open\n",
        ["graph", "--N", "8"],
        ["graph", "--N", "8", "--lambda", "0.3", "--boundary", "open"]),
    "graph_model_flag_beats_file": (
        "[model]\nfamily = ssh\nN = 10\nlambda = 0.3\n",
        ["graph", "--model", "kitaev"],
        ["graph", "--model", "kitaev", "--N", "10"]),
    "kitaev_t_delta_from_file": (
        "[run]\nN = 16\ngrid = 0:3:7\n[model]\nt = 0.8\ndelta = 1.2\n",
        ["kitaev"],
        ["kitaev", "--N", "16", "--grid", "0:3:7", "--t", "0.8",
         "--delta", "1.2"]),
    "critical_from_file": (
        "[run]\nN = 16\noutput = c.csv\n",
        ["critical"],
        ["critical", "--N", "16", "--output", "c.csv"]),
}


def _same_run(case):
    if case in MIXED_RUN:
        return MIXED_RUN[case]
    command, values = SAME_RUN[case]
    return _ini(command, values), [command], _flags(command, values)


@pytest.mark.parametrize("case", sorted(SAME_RUN) + sorted(MIXED_RUN))
def test_cli_config_file_equals_flags(tmp_path, case):
    """A value from the file acts as the same flag would: byte-identical
    output files.  The MIXED_RUN cases failed before the flag table."""
    text, with_file, flags_only = _same_run(case)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    a, b = tmp_path / "file", tmp_path / "flags"
    assert main(with_file + ["--config", str(cfg), "--outdir", str(a)]) == 0
    assert main(flags_only + ["--outdir", str(b)]) == 0
    assert _outputs(a) == _outputs(b) and _outputs(a)


# The CLI reads every argv itself.  Its oracle is the argparse parser it
# once used, built from the same table, with a --grid value joined to its
# flag as the CLI once joined it; it refuses with ValueError, --help too.
FLAGS_OF = {command: [row.at("flag", command) for row in cli.FLAGS
                      if command in row.defaults] for command in cli.COMMANDS}
EVERY_FLAG = sorted({flag for flags in FLAGS_OF.values() for flag in flags})
BARE = {row.at("flag", command) for row in cli.FLAGS if row.type is cli.BOOL
        for command in row.defaults}
VALUES = ["8", "0.3", "-0.3", "-.5", "-7", "-1e5", "-inf", "-", "", "0.1:0.3:3",
          "-0.3:0.3:3", "--0.3:0.3:3", "true", "x", "a=b", "-x y", "--N", "-h", "--"]
NOISE = ["--", "-h", "--help", "--no-such-flag", "value", *EVERY_FLAG,
         *sorted({f[:k] for f in EVERY_FLAG + ["--config"] for k in range(3, len(f))})]


def _argparse_oracle():
    """``vars()`` of argparse's namespace for an argv, built as the CLI's
    parser was before the CLI read argv itself."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

        def exit(self, status=0, message=None):  # after printing help
            raise ValueError("help")

        def print_help(self, file=None):
            pass

    parser = Parser(prog="chainent")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in cli.COMMANDS:
        p = sub.add_parser(command)
        if FLAGS_OF[command]:
            p.add_argument("--config")
        for row in cli.FLAGS:
            if command in row.defaults:
                kind = (dict(action="store_const", const="true")
                        if row.type is cli.BOOL else {})
                p.add_argument(row.at("flag", command), dest=row.key, **kind)

    def read(argv):
        joined = []
        for token in argv:
            if joined and joined[-1] == "--grid" and not token.startswith("--"):
                joined[-1] = f"--grid={token}"
            else:
                joined.append(token)
        return vars(parser.parse_args(joined))
    return read


@st.composite
def _argvs(draw):
    """A command (or none, or not one), then mostly its own flags in every
    form, values that do and do not read as negative numbers, and now and
    then help, an abbreviation, ``--`` or a flag it does not take."""
    command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate", "--N", None]))
    flags = FLAGS_OF.get(command, [])
    flags = flags + ["--config"] * bool(flags)
    value = st.sampled_from(VALUES) | st.text(".:=019aefinx -", max_size=5)
    argv = [] if command is None else [command]
    for _ in range(draw(st.integers(0, 4))):
        if flags and draw(st.integers(0, 19)):
            flag = draw(st.sampled_from(flags))
            form = draw(st.sampled_from(["bare" if flag in BARE else "space"] * 4
                                        + ["space", "eq", "bare"]))
            if form == "bare":
                argv.append(flag)
            elif form == "eq":
                argv.append(f"{flag}={draw(value)}")
            else:
                argv += [flag, draw(value)]
        else:
            argv += [draw(st.sampled_from(NOISE))] + draw(st.lists(value, max_size=1))
    return argv


def test_reader_matches_argparse(capsys):
    """Over 1,500 derandomized argv: where argparse reads an argv (and stores
    no [] for an explicit ``--`` value), the reader reads it the same; where
    the reader refuses one, main exits 2 with one ``error:`` line; at
    -h/--help main prints usage and exits 0.  The draws reach the first two
    cases hundreds of times each, and help dozens of times."""
    oracle, seen = _argparse_oracle(), {"same": 0, "refused": 0, "help": 0}

    @hypothesis.settings(derandomize=True, max_examples=1500, deadline=None)
    @hypothesis.given(_argvs())
    def check(argv):
        try:
            read = cli._read_argv(argv)
        except ValueError:
            read = None
        try:
            expected = oracle(argv)
        except ValueError:
            expected = None
        if expected is not None and [] not in expected.values():
            seen["same"] += 1
            assert read == expected, argv
        if read is None or read["command"] == "help":
            seen["refused" if read is None else "help"] += 1
            capsys.readouterr()
            code = main(argv)
            out, err = capsys.readouterr()
            if read is None:
                assert code == 2 and not out, argv
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            else:
                assert code == 0 and out.startswith("usage: chainent ") and not err, argv

    check()
    assert min(seen["same"], seen["refused"]) > 300 and seen["help"] > 50, seen


@pytest.mark.parametrize("argv,key,value", [
    (["sweep", "--gri", "0:1:3"], "grid", [0.0, 0.5, 1.0]),
    (["sweep", "--gri=0:1:3", "--deriv"], "derivative", True),
    (["graph", "--lambda", "-1e-3"], "lambda", -0.001),
    (["graph", "--N", "8", "--mu", "-1e5"], "mu", -1e5),
    (["graph", "--d", "0.5"], "error",
     "ambiguous option: --d could match --delta, --disorder-amplitude"),
], ids=["prefix", "prefixes", "negative-exponent", "large-negative", "ambiguous-prefix"])
def test_reader_cases(argv, key, value):
    """A unique prefix stands for its flag, an ambiguous one is refused, and
    a value is the next token even where it starts with ``-`` (argparse
    refused ``--lambda -1e-3`` and ``--mu -1e5``)."""
    if key == "error":
        with pytest.raises(ValueError) as exc:
            cli.settings(argv)
        assert str(exc.value) == value
    else:
        assert np.array_equal(cli.settings(argv)[key], value)


# Exit-code contract, generated from the flag table: every row of every
# subcommand, given as a flag and as a file key, with a valid text and with
# malformed ones.  A valid text writes output; a malformed one exits 2 with
# one "error:" line.  No exception may leave main.
BASE = {
    "sweep": {"N": "8", "grid": "0.1:0.3:3"},
    "critical": {"output": "c.csv"},
    "graph": {"N": "6", "lambda": "0.3", "amplitude": "0.1"},
    "kitaev": {"N": "6", "grid": "0:1:3"},
    "disorder": {"N": "6", "grid": "0.1:0.3:2", "realizations": "3"},
    "obc": {"N": "8", "grid": "0.05:0.1:3"},
}
TEXTS = {  # key: (valid, malformed)
    "N": ("6", ["x", "1.5", "0", "1" + "0" * 20]),
    "grid": ("0.1:0.3:3", ["0:1", "nan:1:3", "-inf:0:3", "0.3:0.1:3",
                           "0:1:1"]),
    "derivative": ("true", ["maybe"]),
    "plot_data": ("true", ["maybe"]),
    "skip_gapless": ("true", ["maybe"]),
    "thermodynamic": ("true", ["maybe"]),
    "output": ("c.csv", ["no/such/dir/c.csv"]),
    "fill": ("above", ["middle"]),
    "family": ("kitaev", ["hubbard"]),
    "lambda": ("0.3", ["x", "nan", "inf", "2"]),
    "t": ("0.5", ["x", "nan", "inf"]),
    "delta": ("0.5", ["x", "nan", "-inf"]),
    "mu": ("0.5", ["x", "nan", "inf"]),
    "boundary": ("open", ["sideways"]),
    "amplitude": ("0.2", ["x", "nan", "inf", "-0.5"]),
    "seed": ("3", ["x", "1.5", "-1"]),
    "realizations": ("3", ["0", "x"]),
    "format": ("json", ["xml"]),
    "outdir": ("{run}/made/here", ["{tmp}/a_file"]),
}
CONTRACT = [(command, row.key) for command in cli.COMMANDS
            for row in cli.FLAGS if command in row.defaults]


def test_contract_covers_the_table():
    assert set(TEXTS) == set(ROWS)
    assert set(BASE) == {command for command, _ in CONTRACT}
    assert "verify" in cli.COMMANDS and "verify" not in BASE


@pytest.mark.parametrize("command,key", CONTRACT)
def test_cli_exit_code_contract(tmp_path, capsys, command, key):
    (tmp_path / "a_file").write_text("")
    valid, malformed = TEXTS[key]
    for n, text in enumerate([valid] + malformed):
        for source in ("flag", "file"):
            run = tmp_path / f"{source}{n}"
            text = text.format(run=run, tmp=tmp_path)
            settings = {"outdir": str(run), **BASE[command]}
            settings.pop(key, None)
            argv = _flags(command, settings)
            if source == "flag":
                argv += _flags(command, {key: text})[1:]
            else:
                cfg = tmp_path / f"{source}{n}.ini"
                cfg.write_text(_ini(command, {key: text}))
                argv += ["--config", str(cfg)]
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            if n == 0:
                assert code == 0, (argv, err)
                assert os.listdir(text if key == "outdir" else run), argv
            else:
                assert code == 2, (argv, err)
                assert err.startswith("error:") and err.count("\n") == 1, \
                    (argv, err)


# more grid points than floats between the ends
REPEATED_GRID_POINT = [[command, *size, "--grid", "0.3:0.30000000000000004:9"] for command, size in
                       (("kitaev", ()), ("obc", ("--N", "16")), ("disorder", ("--N", "12")),
                        ("sweep", ()))]


@pytest.mark.parametrize("argv", [
    [], ["sweep", "--grid"], ["sweep", "--grid", "--N", "8"],
    ["graph", "--boundary", "sideways"], ["obc", "--no-such-flag"],
    ["frobnicate"], ["verify", "--outdir", "x"],
    # a seed past int64 once the realizations are counted from it
    ["disorder", "--N", "4", "--grid", "0.1:0.3:2", "--realizations", "2",
     "--seed", str(2 ** 64)],
    # an explicit "--" value: a traceback while argparse stored [] for it
    ["sweep", "--N=--"], ["sweep", "--grid=--"], ["disorder", "--seed=--"],
    # a span stop - start that overflows: numpy warnings, then nan and inf rows or exit 2
    ["kitaev", "--grid", "-1e308:1e308:3"], ["sweep", "--grid", "-1e308:1e308:3"],
    *REPEATED_GRID_POINT,
])
@pytest.mark.filterwarnings("error")
def test_cli_error_is_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", REPEATED_GRID_POINT)
def test_cli_repeated_grid_point_names_the_grid(capsys, argv):
    """Nine points between two adjacent floats repeat a point, which the
    kitaev and disorder routes would write as repeated rows and obc would
    divide by: every grid command refuses it with one line naming --grid."""
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --grid of 9 points repeats a point\n"


def test_cli_config_syntax_error_is_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("N = 8\n[run]\ngrid = 0.1:0.3:3\ngrid = 0.1:0.3:4\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_help_exits_zero(capsys):
    """-h, --help and their prefixes print usage and exit 0; a command's
    usage names the flag and ``[section] key`` of each of its rows."""
    for argv in (["--help"], ["-h"], ["--he"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: chainent ") and all(c in out for c in cli.COMMANDS)
    for command in cli.COMMANDS:
        for help in ("-h", "--help", "--he"):
            assert main([command, help]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"usage: chainent {command} "), (command, help)
            for row in cli.FLAGS:
                if command in row.defaults:
                    assert row.at("flag", command) in out
                    assert f"[{row.at('section', command)}] {row.key}" in out
    assert main(["graph", "--help"]) == 0
    assert "[model] boundary" in capsys.readouterr().out


def test_readme_lists_every_flag():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    for row in cli.FLAGS:
        for command in row.defaults:
            assert f"`{row.at('flag', command)}`" in text
            assert row.key in text


def _readme_flag_table():
    """The rows of README's flag table: (flags, keys, subcommands) cells."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| flag | `[section] key` | subcommands (default) |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])


def test_readme_flag_table_matches_flags():
    """Each row of README's flag table states the flags, ``[section] key``,
    subcommands and defaults of its cli.FLAGS rows: a subcommand's text in
    parentheses (or that of the group of subcommands it ends) starts with the
    default, or with "unset" or "required" where the default is unset;
    "others" are the row's remaining subcommands.  Every FLAGS row is in the
    table once."""
    seen = []
    for flags_cell, keys_cell, commands_cell in _readme_flag_table():
        flags = re.findall(r"`(--[\w-]+)`", flags_cell)
        rows = [row for row in cli.FLAGS
                if any(row.at("flag", c) in flags for c in row.defaults)]
        assert rows and {row.at("flag", c) for row in rows for c in row.defaults} == set(flags)
        stated, group = {}, []
        for name, text in re.findall(r"\s*([^,(]+?)\s*(?:\(([^)]*)\))?\s*(?:,|$)",
                                     commands_cell):
            if name == "all but verify":
                group += [c for c in cli.COMMANDS if c != "verify"]
            elif name == "others":
                group += [c for c in rows[0].defaults if c not in stated]
            else:
                group.append(name)
            if text or name == "all but verify":
                value = text.split(";")[0].strip().strip("`")
                stated.update(dict.fromkeys(group, None if value.startswith(
                    ("unset", "required")) or not value else value))
                group = []
        for row in rows:
            assert stated == row.defaults, (flags_cell, stated, row.defaults)
            for command in row.defaults:
                flag, section = row.at("flag", command), row.at("section", command)
                if isinstance(row.flag, dict):
                    assert f"`{flag}` ({command})" in flags_cell
                assert (f"`[{section}] {row.key}`" in keys_cell
                        or f"`{row.key}`" in keys_cell and f"[{section}]" in keys_cell), row
        seen += rows
    assert sorted(row.key for row in seen) == sorted(row.key for row in cli.FLAGS)


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--config", "{tmp}/missing.ini"],
     "error: cannot read config file '{tmp}/missing.ini'"),
    (["graph"], "error: --N ([model] N) is required"),
    (["graph", "--N", "8"], "error: --lambda ([model] lambda) is required for SSH"),
], ids=["missing-config", "graph-without-N", "ssh-graph-without-lambda"])
def test_cli_missing_inputs_exit_2(tmp_path, capsys, argv, message):
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--outdir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == message.format(tmp=tmp_path) + "\n"
    assert not os.path.exists(tmp_path / "out")

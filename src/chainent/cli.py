"""Command-line front end: the subcommands of :data:`COMMANDS`.

Every flag except ``--config`` is one row of :data:`FLAGS`: the flag, the
``[section] key`` that mirrors it in the INI file read by ``--config``, its
type, and its default in each subcommand that takes it.  The argv reader,
its help, the merge of flags with the file, the model of ``graph`` and the
exit-code contract test are all built from that table.  Each value is the
flag if given, else the file's key, else the default; ``--outdir`` then
falls back to ``$CHAINENT_OUTDIR`` and the current directory.

An argv is read in one pass: a value is the next token or the text after
``=`` (so ``--lambda -1e-3`` reads -0.001) and the row's type accepts or
rejects it; a unique prefix stands for its flag.  configparser is imported
only for ``--config``.

Exit codes: 0 success, 2 validation error (one ``error:`` line), 3
numerical error (gapless model at a requested point).
"""

from __future__ import annotations

import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, entanglement, gaussian, models, reference, serialize
from .errors import ChainentError, GaplessError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ------------------------------------------------------------- flag table

class Type(NamedTuple):
    """How the text of a flag or key becomes a value: ``parse`` raises
    ValueError or KeyError on text that is not ``expected``."""

    parse: Callable[[str], object]
    expected: str


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _one_of(*options: str) -> Type:
    return Type({o: o for o in options}.__getitem__,
                " or ".join(map(repr, options)))


INT = Type(int, "an integer")
FLOAT = Type(_finite, "a finite number")
PATH = Type(str, "a path")
_BOOLEAN_STATES = {"1": True, "yes": True, "true": True, "on": True,  # as configparser
                   "0": False, "no": False, "false": False, "off": False}
BOOL = Type(lambda text: _BOOLEAN_STATES[text.lower()], "true or false")
GRID = Type(serialize.grid_spec, "start:stop:points with start < stop, "
            "a finite stop - start and at least 2 points")


class Flag(NamedTuple):
    """One option: ``flag`` on the command line, ``key`` under ``[section]``
    in a ``--config`` file.  ``defaults`` maps every subcommand that takes
    the option to its default text (None: unset).  ``flag`` and ``section``
    are dicts by subcommand where subcommands differ."""

    flag: str | dict
    section: str | dict
    key: str
    type: Type
    defaults: dict
    help: str = ""

    def at(self, field: str, command: str) -> str:
        value = getattr(self, field)
        return value[command] if isinstance(value, dict) else value


FLAGS = (
    Flag("--N", dict(sweep="run", critical="run", kitaev="run",
                     disorder="run", obc="run", graph="model"), "N", INT,
         dict(sweep=None, critical=None, kitaev=None, disorder="16",
              obc="64", graph=None), "cells (Kitaev: sites)"),
    Flag("--grid", "run", "grid", GRID,
         dict(sweep="-0.97:0.97:41", kitaev="0:4:81",
              disorder="-0.97:0.97:41", obc="0.01:0.35:35"), "inclusive"),
    Flag("--derivative", "run", "derivative", BOOL, dict(sweep="false"),
         "include the dc2/dlambda column"),
    Flag("--plot-data", "run", "plot_data", BOOL, dict(sweep="false"),
         "also write two-column .dat series"),
    Flag("--skip-gapless", "run", "skip_gapless", BOOL, dict(sweep="false"),
         "exit 0 even when gapless points were skipped"),
    Flag("--thermodynamic", "run", "thermodynamic", BOOL,
         dict(critical="false"), "report the N -> infinity limit"),
    Flag("--output", "run", "output", PATH, dict(critical=None),
         "also write the report to this CSV"),
    Flag("--fill", "run", "fill", _one_of("below", "above"),
         dict(obc="below"), "Fermi level below or above the edge pair"),
    Flag("--model", "model", "family", _one_of("ssh", "kitaev"),
         dict(graph="ssh")),
    Flag("--lambda", "model", "lambda", FLOAT, dict(graph=None)),
    Flag("--t", "model", "t", FLOAT, dict(graph="1", kitaev="1")),
    Flag("--delta", "model", "delta", FLOAT, dict(graph="1", kitaev="1")),
    Flag("--mu", "model", "mu", FLOAT, dict(graph="0")),
    Flag("--boundary", "model", "boundary", _one_of("periodic", "open"),
         dict(graph="periodic", disorder="periodic")),
    Flag(dict(graph="--disorder-amplitude", disorder="--amplitude"),
         "disorder", "amplitude", FLOAT, dict(graph=None, disorder="0.1"),
         "unset: clean"),
    Flag("--seed", "disorder", "seed", INT,
         dict(graph="0", disorder="20260826")),
    Flag("--realizations", "disorder", "realizations", INT,
         dict(disorder="100")),
    Flag("--format", "run", "format", _one_of("csv", "json"),
         dict(sweep="csv", graph="json", kitaev="csv", disorder="csv",
              obc="csv")),
    Flag("--outdir", "run", "outdir", PATH,
         dict.fromkeys(("sweep", "critical", "graph", "kitaev", "disorder",
                        "obc")),
         "unset: $CHAINENT_OUTDIR, then ."),
)

COMMANDS = {
    "sweep": "concurrence sweep over a lambda grid (SSH)",
    "critical": "critical-point report (lambda_plus, slope, log fit)",
    "graph": "entangled graph of one model (JSON or edge list)",
    "kitaev": "Kitaev-chain local density vs chemical potential",
    "disorder": "disorder-averaged sweep of the central bond",
    "obc": "open-chain central-bond derivative sweep",
    "verify": "run the internal invariant suite, print pass/fail",
}


# {flag: (key, takes a value)} of chainent (None) and of each command: its
# rows, "--config" wherever a row is, and -h/--help, whose key is None
_TAKES = {command: {row.at("flag", command): (row.key, row.type is not BOOL)
                    for row in FLAGS if command in row.defaults}
          for command in (None, *COMMANDS)}
for _takes in _TAKES.values():
    if _takes:
        _takes["--config"] = ("config", True)
    _takes["-h"] = _takes["--help"] = (None, False)


def _read_argv(argv) -> dict:
    """The command of ``argv`` and the text of each flag it takes (None: not
    given), or ``{"command": "help", "topic": command}`` at ``-h``/``--help``.

    A bare boolean reads ``"true"``; the last of a repeated flag wins.
    Raises ValueError on a usage error.
    """
    command = argv[0] if argv and argv[0] in COMMANDS else None
    flags = _TAKES[command]
    args = {"command": command, **{key: None for key, _ in flags.values() if key}}
    tokens, unknown = iter(argv[command is not None:]), []
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag not in flags and flag[:2] == "--" and flag != "--":  # a unique prefix
            match = [f for f in flags if f.startswith(flag)]
            if len(match) > 1:
                raise ValueError(f"ambiguous option: {flag} could match {', '.join(match)}")
            flag = match[0] if match else flag
        if flag not in flags:
            unknown.append(token)
            continue
        key, takes = flags[flag]
        if eq and not takes:
            raise ValueError(f"{flag} takes no value, got {text!r}")
        if key is None:
            return {"command": "help", "topic": command}
        if not takes:
            text = "true"
        elif not eq and (text := next(tokens, None)) is None:
            raise ValueError(f"{flag} needs a value")
        args[key] = text
    if command is None:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)})"
                         + (f", got {argv[0]!r}" if argv else ""))
    if unknown:
        raise ValueError(f"unrecognized arguments: {', '.join(map(repr, unknown))}")
    return args


def _usage(command) -> str:
    """The ``--help`` text of ``command`` (None: of chainent itself), built
    from COMMANDS and the FLAGS rows."""
    rows = [row for row in FLAGS if command in row.defaults]
    entries = [("-h, --help", "show this help and exit"),
               *(COMMANDS.items() if command is None else ()),
               *[("--config CONFIG", "INI file of [section] key = value lines; "
                  "flags override it")] * bool(rows)]
    for row in rows:
        flag, default = row.at("flag", command), row.defaults[command]
        entries.append((flag if row.type is BOOL else f"{flag} {row.key.upper()}", "; ".join(
            filter(None, [row.type.expected, f"[{row.at('section', command)}] {row.key}",
                          default and f"default {default}", row.help]))))
    head = (f"{command} [flags]\n\n{COMMANDS[command]}" if command else
            f"{{{','.join(COMMANDS)}}} ...\n\nTwo-site entanglement structure of 1D "
            "quadratic fermion chains; chainent <command> --help lists its flags")
    width = max(len(name) for name, _ in entries) + 2
    return "\n".join([f"usage: chainent {head}\n",
                      *(f"  {name:<{width}}{text}" for name, text in entries)])


def settings(argv) -> dict:
    """The subcommand of ``argv`` (key ``"command"``) and every value it
    takes, each resolved as flag, then ``--config`` file, then default; for
    ``-h``/``--help``, the ``help`` command and its ``topic``.

    Raises ValueError on a usage error, or naming the flag or ``[section] key``
    whose text does not parse, or whose arrays would not fit in memory.
    """
    args = _read_argv(argv)
    command = args["command"]
    if command == "help":
        return args
    cfg = None  # a parser only for a config file: building one costs a third of this call
    if args.get("config"):
        import configparser
        cfg = configparser.ConfigParser(interpolation=None)
        try:
            if not cfg.read(args["config"]):
                raise ValueError(f"cannot read config file {args['config']!r}")
        except configparser.Error as exc:  # its messages span lines
            raise ValueError(" ".join(str(exc).split())) from None
    values = {"command": command}
    for row in FLAGS:
        if command not in row.defaults:
            continue
        text, where = args[row.key], row.at("flag", command)
        section = row.at("section", command)
        if text is None and cfg is not None and cfg.has_option(section, row.key):
            text, where = cfg.get(section, row.key), f"[{section}] {row.key}"
        if text is None:
            text = row.defaults[command]
        try:
            values[row.key] = None if text is None else row.type.parse(text)
        except (ValueError, KeyError):
            raise ValueError(f"{where} must be {row.type.expected}, "
                             f"got {text!r}") from None
    values["points"] = values["grid"][2] if "grid" in values else 0  # gated before it is built
    memory = gaussian.physical_memory()
    for what, need in _needs(values):
        if need > memory:
            raise ValueError(f"{what} needs about {need / 1e9:.3g} GB, more than "
                             f"the {memory / 1e9:.3g} GB of memory")
    if "grid" in values:
        values["grid"] = models.linspace(*values["grid"])
        if not (values["grid"][1:] > values["grid"][:-1]).all():  # more points than floats
            raise ValueError(f"--grid of {values['points']} points repeats a point")
    return values


def model_spec(v: dict) -> models.ModelSpec:
    """The one model of ``graph`` from its resolved settings; the chain is
    disordered exactly when an amplitude is set."""
    if v["N"] is None:
        raise ValueError("--N ([model] N) is required")
    disorder = (None if v["amplitude"] is None else
                models.DisorderSpec(amplitude=v["amplitude"], seed=v["seed"]))
    if v["family"] == "ssh":
        if v["lambda"] is None:
            raise ValueError("--lambda ([model] lambda) is required for SSH")
        return models.ModelSpec.ssh(v["N"], v["lambda"],
                                    boundary=v["boundary"], disorder=disorder)
    return models.ModelSpec.kitaev(v["N"], t=v["t"], delta=v["delta"],
                                   mu=v["mu"], boundary=v["boundary"],
                                   disorder=disorder)


def _needs(v) -> list:
    """(flag, bytes) of what each size flag makes at its peak: a few length-N
    rows (zone sums, the closed-form open chain), (2N)^2 floats for clean
    ``graph`` rings, 96 L^2 bytes for the all-pairs Wick arrays of other
    graphs (L modes; 56-88 L^2 traced), 19 floats per site and 2 kB of poles
    per chain of a ``disorder`` batch (its peak, traced, 0.55-0.97 of it), a few
    columns of grid points, the realizations x max(2N, points) tables of ``disorder``."""
    N = max(v.get("N") or 0, 0)  # N < 2 is rejected where it is used
    points = v["points"]
    draws = max(v.get("realizations") or 0, 0)
    if v["command"] == "graph" and (v["boundary"] == "open" or v["amplitude"] is not None):
        largest = 96 * (N * (2 if v["family"] == "ssh" else 1)) ** 2
    elif v["command"] == "disorder":
        largest = min(analysis._disorder_batch(N), points * draws) * (304 * N + 2048) + 16384
    else:
        largest = 32 * N * N if v["command"] == "graph" else 64 * N
    return [(f"--N {N}", largest), (f"--grid of {points} points", 64 * points),
            (f"--realizations {draws}", 8 * draws * max(2 * N, points))]


def _outdir(v) -> str:
    out = v["outdir"] or os.environ.get("CHAINENT_OUTDIR") or "."
    if not os.path.isdir(out):  # makedirs raises and catches FileExistsError on a directory
        os.makedirs(out, exist_ok=True)
    return out


def _write_table(rows, header, v, stem) -> str:
    """Write ``<stem>.<format>`` and return the output directory."""
    out = _outdir(v)
    path = os.path.join(out, f"{stem}.{v['format']}")
    if v["format"] == "csv":
        serialize.write_csv(path, rows, header)
    else:
        serialize.write_json_records(path, rows, header)
    print(f"wrote {path}")
    return out


# ------------------------------------------------------------- subcommands

def cmd_help(v) -> int:
    print(_usage(v["topic"]))
    return EXIT_OK


def cmd_sweep(v) -> int:
    N, grid = v["N"], v["grid"]
    if N is not None and N % 2 == 0 and (np.abs(grid) < 1e-15).any():
        print("error: lambda grid contains 0, which is gapless for even N; "
              "use an even point count around 0", file=sys.stderr)
        return EXIT_VALIDATION
    result = analysis.sweep(grid, N=N, with_derivative=v["derivative"])
    out = _write_table(serialize.sweep_rows(result), serialize.CSV_HEADER,
                       v, "sweep")
    if v["plot_data"]:
        for p in serialize.emit_plot_data(result, out):
            print(f"wrote {p}")
    for lam, msg in result.errors:
        print(f"skipped lambda={lam:g}: {msg}", file=sys.stderr)
    if result.errors and not v["skip_gapless"]:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_critical(v) -> int:
    report = analysis.critical_report(N=None if v["thermodynamic"] else v["N"])
    rows = [["lambda_plus", report.lambda_plus],
            ["lambda_minus", report.lambda_minus],
            ["slope_at_plus", report.slope_at_plus],
            ["logfit_slope", report.logfit_slope],
            ["logfit_intercept", report.logfit_intercept],
            ["asymptotic", report.logfit_asymptotic]]
    jump = [] if report.jump_delta is None else [["jump_delta",
                                                   report.jump_delta]]
    for name, value in rows + jump:
        text = value if isinstance(value, bool) else format(value, ".12g")
        print(f"{name:<16} = {text}")
    if v["output"]:
        path = os.path.join(_outdir(v), v["output"])
        serialize.write_csv(path, rows, header=["quantity", "value"])
        print(f"wrote {path}")
    return EXIT_OK


def cmd_graph(v) -> int:
    graph = entanglement.entangled_graph(model_spec(v))
    path = os.path.join(_outdir(v), f"graph.{v['format']}")
    with open(path, "w") as fh:
        fh.write(graph.to_json() if v["format"] == "json" else graph.to_csv())
    if graph.phase is not None:
        print(f"phase: {graph.phase.value}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_kitaev(v) -> int:
    table = analysis.kitaev_density(v["grid"], N=v["N"], t=v["t"],
                                    delta=v["delta"])
    rows = [[mu, n] for mu, n in zip(table.mus, table.density)]
    _write_table(rows, ["mu", "density"], v, "kitaev_density")
    return EXIT_OK


def cmd_disorder(v) -> int:
    table = analysis.disorder_ensemble(v["N"], v["grid"],
                                       amplitude=v["amplitude"],
                                       num_realizations=v["realizations"],
                                       base_seed=v["seed"],
                                       boundary=v["boundary"])
    rows = [[lam, m, s, v["seed"]] for lam, m, s in
            zip(table.lambdas, table.mean_c2, table.std_c2)]
    _write_table(rows, ["lambda", "mean_c2", "std_c2", "seed"], v,
                 "disorder")
    return EXIT_OK


def cmd_obc(v) -> int:
    table = analysis.obc_center_derivative(v["N"], v["grid"], fill=v["fill"])
    rows = [[lam, c, d] for lam, c, d in
            zip(table.lambdas, table.c2, table.dc2_dlambda)]
    _write_table(rows, ["lambda", "c2", "dc2_dlambda"], v, "obc")
    print(f"peak dc2/dlambda at lambda = {table.peak_lambda:.6g}")
    return EXIT_OK


# ----------------------------------------------------------------- verify

def cmd_verify(v) -> int:
    failures = 0
    for name, check, tol in reference.verify_checks():
        try:
            residual = float(check())
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
            continue
        ok = residual <= tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {residual:.3g} "
              f"{'<=' if ok else 'exceeds'} tolerance {tol:g}")
    print(f"{'all checks passed' if not failures else f'{failures} failed'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def main(argv=None) -> int:
    try:
        v = settings(sys.argv[1:] if argv is None else list(argv))
        # looked up per call, so a rebinding of cmd_<name> takes effect
        return globals()[f"cmd_{v['command']}"](v)
    except GaplessError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ChainentError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

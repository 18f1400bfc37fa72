"""Command-line front end.

Subcommands
-----------
sweep      concurrence sweep over a lambda grid (SSH)
critical   thermodynamic critical-point report (lambda_plus, slope, log fit)
graph      entangled graph of a single model instance (JSON or edge list)
kitaev     Kitaev-chain local density vs chemical potential
disorder   disorder-averaged sweep for the central bond
obc        open-chain central-bond derivative sweep
verify     run the internal invariant suite and print a pass/fail report

Every flag mirrors a config-file key (flat ``key = value`` sections read by
``--config``); flags override file values.  Output lands in ``--outdir``,
which defaults to the ``CHAINENT_OUTDIR`` environment variable or the current
directory.  Exit codes: 0 success, 2 validation error, 3 numerical error
(gapless model at a requested point).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, entanglement, gaussian, models, serialize
from .errors import ChainentError, GaplessError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("CHAINENT_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _config(args):
    if getattr(args, "config", None):
        return serialize.load_config(args.config)
    return None


def _get(args, cfg, section, key, cast, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if cfg is not None and section in cfg and key in cfg[section]:
        return cast(cfg[section][key])
    return default


def _write_table(rows, header, args, stem):
    out = _outdir(args)
    fmt = args.format or "csv"
    path = os.path.join(out, f"{stem}.{fmt}")
    if fmt == "csv":
        serialize.write_csv(path, rows, header)
    else:
        serialize.write_json_records(path, rows, header)
    print(f"wrote {path}")
    return path


# ------------------------------------------------------------- subcommands

def cmd_sweep(args) -> int:
    cfg = _config(args)
    N = _get(args, cfg, "run", "N", int)
    grid_text = _get(args, cfg, "run", "grid", str, "-0.97:0.97:41")
    grid = serialize.parse_grid(grid_text)
    if N is not None and N % 2 == 0 and np.any(np.abs(grid) < 1e-15):
        print("error: lambda grid contains 0, which is gapless for even N; "
              "use an even point count around 0", file=sys.stderr)
        return EXIT_VALIDATION
    result = analysis.sweep(grid, N=N, with_derivative=args.derivative)
    _write_table(serialize.sweep_rows(result), serialize.CSV_HEADER,
                 args, "sweep")
    if args.plot_data:
        for p in serialize.emit_plot_data(result, _outdir(args)):
            print(f"wrote {p}")
    for lam, msg in result.errors:
        print(f"skipped lambda={lam:g}: {msg}", file=sys.stderr)
    if result.errors and not args.skip_gapless:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_critical(args) -> int:
    N = None if args.thermodynamic else args.N
    report = analysis.critical_report(N=N)
    print(f"lambda_plus      = {report.lambda_plus:.12g}")
    print(f"lambda_minus     = {report.lambda_minus:.12g}")
    print(f"slope_at_plus    = {report.slope_at_plus:.12g}")
    print(f"logfit_slope     = {report.logfit_slope:.12g}")
    print(f"logfit_intercept = {report.logfit_intercept:.12g}")
    print(f"asymptotic       = {report.logfit_asymptotic}")
    if report.jump_delta is not None:
        print(f"jump_delta       = {report.jump_delta:.12g}")
    if args.output:
        rows = [["lambda_plus", report.lambda_plus],
                ["lambda_minus", report.lambda_minus],
                ["slope_at_plus", report.slope_at_plus],
                ["logfit_slope", report.logfit_slope],
                ["logfit_intercept", report.logfit_intercept],
                ["asymptotic", report.logfit_asymptotic]]
        path = os.path.join(_outdir(args), args.output)
        serialize.write_csv(path, rows, header=["quantity", "value"])
        print(f"wrote {path}")
    return EXIT_OK


def _spec_from_args(args, cfg) -> models.ModelSpec:
    if cfg is not None and getattr(args, "lam", None) is None \
            and getattr(args, "N", None) is None:
        return serialize.spec_from_config(cfg)
    family = _get(args, cfg, "model", "model", str, "ssh")
    N = _get(args, cfg, "model", "N", int)
    if N is None:
        raise ValueError("--N is required")
    boundary = models.Boundary(_get(args, cfg, "model", "boundary", str,
                                    "periodic"))
    disorder = None
    if getattr(args, "disorder_amplitude", None) is not None:
        disorder = models.DisorderSpec(amplitude=args.disorder_amplitude,
                                       seed=args.seed or 0)
    if family == "ssh":
        lam = getattr(args, "lam", None)
        if lam is None:
            lam = _get(args, cfg, "model", "lambda", float)
        if lam is None:
            raise ValueError("--lambda is required for SSH")
        return models.ModelSpec.ssh(N, lam, boundary=boundary,
                                    disorder=disorder)
    return models.ModelSpec.kitaev(
        N, t=_get(args, cfg, "model", "t", float, 1.0),
        delta=_get(args, cfg, "model", "delta", float, 1.0),
        mu=_get(args, cfg, "model", "mu", float, 0.0),
        boundary=boundary, disorder=disorder)


def cmd_graph(args) -> int:
    cfg = _config(args)
    spec = _spec_from_args(args, cfg)
    graph = entanglement.entangled_graph(spec)
    out = _outdir(args)
    if (args.format or "json") == "json":
        path = os.path.join(out, "graph.json")
        with open(path, "w") as fh:
            fh.write(graph.to_json())
    else:
        path = os.path.join(out, "graph.csv")
        rows = [[entanglement.site_label(s1), entanglement.site_label(s2), c]
                for s1, s2, c in graph.edges]
        serialize.write_csv(path, rows,
                            header=["site1", "site2", "concurrence"])
    if graph.phase is not None:
        print(f"phase: {graph.phase.value}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_kitaev(args) -> int:
    cfg = _config(args)
    grid = serialize.parse_grid(
        _get(args, cfg, "run", "grid", str, "0:4:81"))
    N = _get(args, cfg, "run", "N", int)
    table = analysis.kitaev_density(grid, N=N, t=args.t, delta=args.delta)
    rows = [[mu, n] for mu, n in zip(table.mus, table.density)]
    _write_table(rows, ["mu", "density"], args, "kitaev_density")
    return EXIT_OK


def cmd_disorder(args) -> int:
    cfg = _config(args)
    N = _get(args, cfg, "run", "N", int, 16)
    grid = serialize.parse_grid(
        _get(args, cfg, "run", "grid", str, "-0.97:0.97:41"))
    amplitude = _get(args, cfg, "disorder", "amplitude", float, 0.1)
    realizations = _get(args, cfg, "disorder", "realizations", int, 100)
    seed = _get(args, cfg, "disorder", "seed", int, 20260826)
    boundary = models.Boundary(_get(args, cfg, "model", "boundary", str,
                                    "periodic"))
    table = analysis.disorder_ensemble(N, grid, amplitude=amplitude,
                                       num_realizations=realizations,
                                       base_seed=seed, boundary=boundary)
    rows = [[lam, m, s, seed] for lam, m, s in
            zip(table.lambdas, table.mean_c2, table.std_c2)]
    _write_table(rows, ["lambda", "mean_c2", "std_c2", "seed"], args,
                 "disorder")
    return EXIT_OK


def cmd_obc(args) -> int:
    cfg = _config(args)
    N = _get(args, cfg, "run", "N", int, 64)
    grid = serialize.parse_grid(
        _get(args, cfg, "run", "grid", str, "0.01:0.35:35"))
    fill = _get(args, cfg, "run", "fill", str, "below")
    table = analysis.obc_center_derivative(N, grid, fill=fill)
    rows = [[lam, c, d] for lam, c, d in
            zip(table.lambdas, table.c2, table.dc2_dlambda)]
    _write_table(rows, ["lambda", "c2", "dc2_dlambda"], args, "obc")
    print(f"peak dc2/dlambda at lambda = {table.peak_lambda:.6g}")
    return EXIT_OK


# ----------------------------------------------------------------- verify

def _verify_checks():
    """Yield (name, callable) pairs; each callable raises on failure."""

    def flat_involution():
        spec = models.ModelSpec.ssh(12, 0.3)
        M = models.realspace_hamiltonian(spec)
        Mbar = gaussian.spectral_flatten(M)
        assert np.allclose(Mbar @ Mbar, -np.eye(len(Mbar)), atol=1e-12)
        assert np.allclose(gaussian.spectral_flatten(Mbar), Mbar, atol=1e-12)

    def block_roundtrip():
        spec = models.ModelSpec.ssh(10, -0.4)
        M = models.realspace_hamiltonian(spec)
        bd = gaussian.block_diagonalize(M)
        B = gaussian.canonical_blocks(bd.epsilons)
        assert np.allclose(bd.W.T @ B @ bd.W, M, atol=1e-12)

    def pfaffian_det():
        rng = np.random.default_rng(7)
        A = rng.normal(size=(8, 8))
        A = A - A.T
        pf = gaussian.pfaffian(A)
        assert abs(pf * pf - np.linalg.det(A)) < 1e-9

    def rdm_consistency():
        spec = models.ModelSpec.ssh(8, 0.5)
        rdm = entanglement.rdm_pair(spec, (0, "a"), (0, "b"))
        eta = entanglement.eta_analytic(spec, (0, "a"), (0, "b"))
        ref = entanglement.rdm_matrix_from_eta(eta.value)
        assert np.allclose(rdm.matrix, ref, atol=1e-12)
        assert abs(np.trace(rdm.matrix) - 1.0) < 1e-12

    def closed_form_pairs():
        for spec in (models.ModelSpec.ssh(6, 0.3, boundary="open"),
                     models.ModelSpec.kitaev(7, delta=0.7, mu=1.2)):
            Mbar = gaussian.spectral_flatten(models.realspace_hamiltonian(spec))
            for i, j in zip(*np.triu_indices(spec.num_modes, k=1)):
                dense = gaussian.rdm_from_restriction(gaussian.restrict(Mbar, [i, j]))
                wick = gaussian.pair_correlations(Mbar, i, j)
                assert abs(entanglement.concurrence(dense.matrix)
                           - entanglement.x_concurrence(*wick)) < 1e-12

    def jump_parity():
        for N in (8, 10, 50):
            assert abs(analysis.jump_at_zero(N) - 2.0 / N) < 1e-12

    def symmetry():
        lp = analysis.find_lambda_plus()
        lm = analysis.find_lambda_minus()
        assert abs(lp + lm) < 1e-9

    return [("flattened matrix squares to -identity", flat_involution),
            ("block diagonalization round trip", block_roundtrip),
            ("pfaffian squared equals determinant", pfaffian_det),
            ("two-site RDM matches analytic form", rdm_consistency),
            ("closed-form pair concurrence equals dense RDM concurrence",
             closed_form_pairs),
            ("even-N jump equals 2/N", jump_parity),
            ("critical points symmetric about 0", symmetry)]


def cmd_verify(args) -> int:
    failures = 0
    for name, check in _verify_checks():
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"PASS  {name}")
    print(f"{'all checks passed' if not failures else f'{failures} failed'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainent",
        description="Two-site entanglement structure of 1D quadratic "
                    "fermion chains")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--outdir", help="output directory "
                       "(default: $CHAINENT_OUTDIR or .)")
        p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("sweep", help="concurrence sweep over lambda")
    common(p)
    p.add_argument("--model", choices=["ssh"], default="ssh")
    p.add_argument("--N", type=int, help="cells (omit for thermodynamic)")
    p.add_argument("--grid", help="start:stop:points (inclusive)")
    p.add_argument("--derivative", action="store_true",
                   help="include dc2/dlambda column")
    p.add_argument("--plot-data", action="store_true",
                   help="also write two-column .dat series")
    p.add_argument("--skip-gapless", action="store_true",
                   help="exit 0 even when gapless points were skipped")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical", help="critical-point report")
    common(p)
    p.add_argument("--thermodynamic", action="store_true")
    p.add_argument("--N", type=int)
    p.add_argument("--output", help="also write the report to this CSV")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("graph", help="entangled graph of one model")
    common(p)
    p.add_argument("--model", choices=["ssh", "kitaev"], default="ssh")
    p.add_argument("--N", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--boundary", choices=["periodic", "open"],
                   default="periodic")
    p.add_argument("--disorder-amplitude", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("kitaev", help="Kitaev local density vs mu")
    common(p)
    p.add_argument("--N", type=int)
    p.add_argument("--grid", help="mu grid start:stop:points")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.set_defaults(func=cmd_kitaev)

    p = sub.add_parser("disorder", help="disorder-averaged central bond")
    common(p)
    p.add_argument("--N", type=int)
    p.add_argument("--grid")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--realizations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--boundary", choices=["periodic", "open"])
    p.set_defaults(func=cmd_disorder)

    p = sub.add_parser("obc", help="open-chain central-bond derivative")
    common(p)
    p.add_argument("--N", type=int)
    p.add_argument("--grid")
    p.add_argument("--fill", choices=["below", "above"])
    p.set_defaults(func=cmd_obc)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _normalize(argv) -> list:
    """Join ``--grid -0.2:0.2:41`` into one token so argparse does not read
    the leading minus of the value as a new option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--grid":
            try:
                out.append(f"--grid={next(it)}")
                continue
            except StopIteration:
                pass
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except GaplessError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ChainentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

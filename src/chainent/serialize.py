"""CSV/JSON writers, plot-data emission and the grid specification.

Numbers are written with 17 significant digits so that reading a file back
recovers every float64 bit-exactly; identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import io
import json
import os
import warnings

import numpy as np

CSV_HEADER = ["lambda", "eta1", "eta2", "c1", "c2", "dc2_dlambda",
              "n", "boundary", "seed"]


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def sweep_rows(result) -> list:
    """Rows of the documented CSV schema for a SweepResult."""
    n = "thermodynamic" if result.N is None else result.N
    dc2 = result.dc2_dlambda
    rows = []
    for i, lam in enumerate(result.lambdas):
        if np.isnan(result.eta1[i]):
            continue  # gapless point recorded in result.errors, not the table
        rows.append([lam, result.eta1[i], result.eta2[i], result.c1[i],
                     result.c2[i],
                     None if dc2 is None or np.isnan(dc2[i]) else dc2[i],
                     n, "periodic", None])
    return rows


def write_csv(path, rows, header=CSV_HEADER) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(fmt(x) for x in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def write_json_records(path, rows, header=CSV_HEADER) -> None:
    records = [{k: (None if v is None else
                    (float(v) if isinstance(v, (float, np.floating)) else v))
                for k, v in zip(header, row)} for row in rows]
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def read_csv(path):
    """Read back a file written by write_csv; floats recover bit-exactly."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = []
            for p in parts:
                if p == "":
                    row.append(None)
                else:
                    try:
                        row.append(float(p))
                    except ValueError:
                        row.append(p)
            rows.append(row)
    return header, rows


def emit_plot_data(result, outdir, prefix="sweep") -> list:
    """Two-column whitespace series files, one per curve.

    Writes ``<prefix>_c1.dat``, ``<prefix>_c2.dat`` and (when present)
    ``<prefix>_dc2.dat``; rows are ``lambda value`` pairs.  An empty sweep
    produces no files and a warning.
    """
    mask = ~np.isnan(result.eta1)
    if not np.any(mask):
        warnings.warn("empty sweep: no plot data written")
        return []
    os.makedirs(outdir, exist_ok=True)
    written = []
    series = {"c1": result.c1, "c2": result.c2}
    if result.dc2_dlambda is not None:
        series["dc2"] = result.dc2_dlambda
    for name, col in series.items():
        path = os.path.join(outdir, f"{prefix}_{name}.dat")
        with open(path, "w") as fh:
            for lam, v in zip(result.lambdas, col):
                if np.isnan(v):
                    continue
                fh.write(f"{fmt(float(lam))} {fmt(float(v))}\n")
        written.append(path)
    return written


# ------------------------------------------------------------------- grids

def parse_grid(text: str) -> np.ndarray:
    """Inclusive ``start:stop:points`` grid specification."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:points, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    points = int(parts[2])
    if not np.isfinite([start, stop]).all():
        raise ValueError("grid bounds must be finite")
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if stop <= start:
        raise ValueError("grid stop must exceed start")
    return np.linspace(start, stop, points)

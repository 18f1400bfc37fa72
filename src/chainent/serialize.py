"""CSV/JSON writers, plot-data emission and the grid specification.

Floats are written with 17 significant digits (JSON: the shortest repr), so
reading a file back recovers every float64 bit-exactly; identical inputs
produce byte-identical files, each formatted in one pass and one write.
"""

from __future__ import annotations

import math
import os
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

CSV_HEADER = ["lambda", "eta1", "eta2", "c1", "c2", "dc2_dlambda",
              "n", "boundary", "seed"]
_FLOATS = (float, np.floating)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def sweep_rows(result) -> list:
    """Rows of the documented CSV schema for a SweepResult, gapless points left out."""
    n = "thermodynamic" if result.N is None else result.N
    dc2 = result.dc2_dlambda
    columns = [result.lambdas, result.eta1, result.eta2, result.c1, result.c2,
               np.full(len(result.lambdas), np.nan) if dc2 is None else dc2]
    return [[lam, e1, e2, c1, c2, None if d != d else d, n, "periodic", None]
            for lam, e1, e2, c1, c2, d in zip(*[c.tolist() for c in columns])
            if e1 == e1]


def write_csv(path, rows, header=CSV_HEADER) -> None:
    """Header line, then the ``reference.fmt`` of each cell joined by commas
    per row (the oracle of ``tests/test_serialize.py``)."""
    lines = [",".join(header)] + [",".join([
        "" if x is None else "%.17g" % x if isinstance(x, _FLOATS) else str(x)
        for x in row]) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _json(x) -> str:
    """A scalar as ``json.dumps`` writes it, numpy floats as floats; TypeError
    for what ``json`` refuses or would write as a container."""
    if isinstance(x, _FLOATS):
        text = float.__repr__(float(x))
        return _NONFINITE.get(text, text)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    return _CONSTANTS[x] if x is None or x is True or x is False else int.__repr__(x)


def _json_array(items, depth=0) -> str:
    """JSON texts as the array ``json.dumps(indent=2)`` writes at ``depth``."""
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"


def _json_records(rows, header, depth=0) -> str:
    """One object per row keyed by ``header`` (distinct names), as an array
    at ``depth``; one ``%`` template fills every row."""
    pad = "\n" + "  " * (depth + 1)
    keys = [encode_basestring_ascii(k).replace("%", "%%") for k in header]
    record = "{" + ",".join(f"{pad}  {k}: %s" for k in keys) + pad + "}" if keys else "{}"
    return _json_array([record % tuple(map(_json, row)) for row in rows], depth)


def write_json_records(path, rows, header=CSV_HEADER) -> None:
    """The text of ``json.dumps(records, indent=2)`` plus a newline, numpy
    floats cast to float (the oracle of ``tests/test_serialize.py``)."""
    with open(path, "w") as fh:
        fh.write(_json_records(rows, header) + "\n")


def emit_plot_data(result, outdir) -> list:
    """One file ``sweep_{c1,c2,dc2}.dat`` per curve present: ``lambda value`` lines in
    ``%.17g``, NaN skipped (the oracle of ``tests/test_serialize.py``). An empty sweep
    writes none and warns."""
    if np.isnan(result.eta1).all():
        warnings.warn("empty sweep: no plot data written")
        return []
    os.makedirs(outdir, exist_ok=True)
    lams, written = result.lambdas.tolist(), []
    for name, col in (("c1", result.c1), ("c2", result.c2), ("dc2", result.dc2_dlambda)):
        if col is not None:
            written.append(os.path.join(outdir, f"sweep_{name}.dat"))
            with open(written[-1], "w") as fh:
                fh.write("".join(["%.17g %.17g\n" % (lam, v) for lam, v
                                  in zip(lams, col.tolist()) if v == v]))
    return written


# ------------------------------------------------------------------- grids

def grid_spec(text: str) -> tuple:
    """``(start, stop, points)`` of a valid grid text; allocates nothing."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:points, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    points = int(parts[2])
    if not math.isfinite(stop - start):  # inf - inf is nan: non-finite ends too
        raise ValueError("grid span stop - start must be finite")
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if stop <= start:
        raise ValueError("grid stop must exceed start")
    return start, stop, points

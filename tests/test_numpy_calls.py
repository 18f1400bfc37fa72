"""Run-time code calls numpy only where numpy runs in C, and each replacement
of a numpy helper written in Python gives that helper's bits (the helper stays
here as the oracle)."""

import ast
import math
import pathlib
import random
import types

import numpy as np
import pytest

import chainent
from chainent import analysis, entanglement
from chainent.serialize import grid_spec
from chainent.models import DisorderSpec, ModelSpec, linspace

SRC = pathlib.Path(chainent.__file__).parent
ALLOWED = {"np.linalg.eigh", "np.linalg.svd", "np.fft.ifft", "np.errstate"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "np":
        return ".".join(["np", *reversed(parts)])


def python_level_sites(path):
    """``file:line: np.name`` of each numpy object ``path`` calls or indexes that
    is a Python function (or the dispatcher of one), or ``np.r_``."""
    for node in ast.walk(ast.parse(path.read_text())):
        target = getattr(node, "func" if isinstance(node, ast.Call) else "value", None)
        name = isinstance(node, (ast.Call, ast.Subscript)) and _dotted(target)
        if not name or name in ALLOWED:
            continue
        obj = np
        for part in name.split(".")[1:]:
            obj = getattr(obj, part)
        if name == "np.r_" or isinstance(getattr(obj, "_implementation", obj), types.FunctionType):
            yield f"{path.name}:{node.lineno}: {name}"


def test_run_time_modules_call_numpy_in_c_only():
    """Every np.X, np.linalg.X and np.fft.X called or indexed outside the
    oracle module is a ufunc, an array constructor or a function numpy
    implements in C; the four allowed names are the solvers and errstate."""
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "reference.py"]
    assert len(modules) == 8
    sites = [site for path in modules for site in python_level_sites(path)]
    assert not sites, "\n".join(sites)


def test_guard_finds_python_level_helpers(tmp_path):
    (path := tmp_path / "mod.py").write_text(
        "import numpy as np\nnp.median([1.0])\nx = np.r_[1, 2]\nnp.linalg.lstsq\n"
        "np.linalg.eigh(a)\nnp.concatenate([a])\nnp.sqrt(2.0)\nnp.zeros(3).max()\n")
    assert list(python_level_sites(path)) == ["mod.py:2: np.median", "mod.py:3: np.r_"]


def _grids(count):
    """Derandomized (start, stop, points) of valid ``--grid`` texts: 2-point
    grids, denormal steps, spans near the largest float and everyday ones."""
    rng = random.Random(20261021)
    yield from [(0.0, 5e-324, 3), (0.0, 1e-320, 40), (-8e307, 8e307, 3), (-0.9e308, 0.85e308, 2),
                (0.3, 0.30000000000000004, 9), (-0.97, 0.97, 41), (0.0, 1.0, 2)]
    for n in range(count):
        kind = n % 5
        if kind == 0:
            start = rng.uniform(-1.0, 1.0)
            stop = start + rng.uniform(1e-6, 2.0)
        elif kind == 1:
            start = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, -300)
            stop = start + 10.0 ** rng.randint(-323, -300)
        elif kind == 2:
            start = -rng.uniform(0.0, 0.85) * 1.7976931348623157e308
            stop = start + rng.uniform(0.1, 0.999) * 1.7976931348623157e308
        elif kind == 3:
            start = rng.uniform(-1e6, 1e6)
            stop = start + 10.0 ** rng.uniform(-6, 6)
        else:
            start = rng.choice([-1.0, 0.0, 0.5]) * 10.0 ** rng.randint(-10, 10)
            stop = start + (math.ulp(start) if rng.random() < 0.2 else 10.0 ** rng.randint(-10, 10))
        if stop > start:
            yield start, stop, rng.choice([2, 2, 3, rng.randint(4, 50), rng.randint(50, 3000)])


def test_grid_is_linspace_bit_for_bit():
    grids = [grid_spec(f"{start!r}:{stop!r}:{num}") for start, stop, num in _grids(10_500)]
    assert len(grids) >= 10_000
    for start, stop, num in grids:
        want = np.linspace(start, stop, num)
        assert linspace(start, stop, num).tobytes() == want.tobytes(), (start, stop, num)


def test_fit_lambdas_are_geomspace_bit_for_bit():
    rng = random.Random(7)
    windows = [analysis.FIT_WINDOW, (1e-5, 1e-3), (1e-300, 1.0), (0.5, 0.5000000000000001)]
    windows += [tuple(sorted(10.0 ** rng.uniform(-12, 3) for _ in range(2))) for _ in range(2000)]
    for lo, hi in windows:
        if lo < hi:
            assert analysis._fit_lambdas((lo, hi)).tobytes() == np.geomspace(lo, hi, 9).tobytes()


def _recorded_pairs(spec, monkeypatch):
    """The (i, j) arrays ``entangled_graph(spec)`` reads Wick data at."""
    seen = []

    def corr(i, j):
        seen.append((i, j))
        raise LookupError

    monkeypatch.setattr(entanglement, "_ground_state", lambda spec, fill: corr)
    with pytest.raises(LookupError):
        entanglement.entangled_graph(spec)
    return seen[0]


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("family", ["ssh", "kitaev"])
def test_pairs_are_the_filtered_triu_indices(family, boundary, monkeypatch):
    """Every pair at most N // 2 cells apart in triu_indices' order, then the
    SSH cell bonds, for N = 2-40."""
    disorder = DisorderSpec(amplitude=0.1, seed=1)
    for N in range(2, 41):
        spec = (ModelSpec.ssh(N, 0.3, boundary, disorder) if family == "ssh" else
                ModelSpec.kitaev(N, boundary=boundary, disorder=disorder))
        L, w, periodic = spec.num_modes, 2 if family == "ssh" else 1, boundary == "periodic"
        i, j = np.triu_indices(L, k=1)
        dist = np.abs(i // w - j // w)
        dist = np.minimum(dist, N - dist) if periodic else dist
        i, j = i[dist <= N // 2], j[dist <= N // 2]
        cells = np.arange(N if w == 2 else 0)
        bonds = cells if periodic else cells[:-1]
        want = (np.r_[i, 2 * cells, (2 * bonds + 2) % L], np.r_[j, 2 * cells + 1, 2 * bonds + 1])
        got = _recorded_pairs(spec, monkeypatch)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (family, boundary, N)


def test_median_is_np_median_bit_for_bit():
    rng = random.Random(3)
    cases = [[-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [1.0, float("nan"), 0.5], [float("nan")] * 2,
             [1.0, 2.0], [1e308, 1.7e308], [5e-324, 5e-324, 0.0], [0.25, -0.0, 0.0, 0.25]]
    for n in range(1, 400):
        pool = [0.0, -0.0, 5e-324, 1e-12, 0.5, 1.0, rng.random(), rng.random() * 1e-13]
        cases.append([rng.choice(pool) if rng.random() < 0.3 else rng.random()
                      for _ in range(n % 41 + 1)])
    for xs in cases:
        with np.errstate(over="ignore"):  # 1e308 + 1.7e308
            want = float(np.median(xs))
        got = entanglement._median(xs)
        assert np.array([got]).tobytes() == np.array([want]).tobytes(), xs


def test_fit_log_is_lstsq():
    """The centred line through the FIT_WINDOW points of deta1 is the
    least-squares line of lstsq to 1e-14 on slope and intercept, N = 8-600
    and the thermodynamic limit."""
    lams = analysis._fit_lambdas(analysis.FIT_WINDOW)
    x = np.log(lams)
    design = np.vstack([x, np.ones_like(x)]).T
    for N in [*range(8, 601), None]:
        y = analysis._deta1(lams, N)
        fit = analysis._fit_log(x, y)
        (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(fit.slope - slope) <= 1e-14 and abs(fit.intercept - intercept) <= 1e-14, N

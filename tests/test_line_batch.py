"""The batch of line records, ``lines(ss, ys)``, against ``line(s, y)``.

Every field of every record, the values along each line and the
x-derivatives must agree bit for bit, compared as ``float.hex``, over the
flat, s-only, y-only and general dividends and a y-dependent volatility,
calls and puts.  The y-dependent calls end many slices flagged.  Probes are
drawn anywhere on the lattice, next to the direct band and next to the
diagonal y -> s.  The audit, which reads one batch, must give the dict of
the same checks taken line by line.
"""

import dataclasses
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawdown_options import (
    CallSolution3D,
    CoefficientField,
    ModelSpec,
    PutSolution3D,
    StateTriple,
    audit_solution,
    generator_residual,
)
from drawdown_options.coefficients import _ORIENT, _generator
from drawdown_options.errors import ResolutionWarning
from drawdown_options.montecarlo import DOMINANCE_TOL, SMOOTH_STEP, _linspace_rows
from drawdown_options.solver3d import BoundarySurface

FLAT_SIGMA = ("constant", (0.2,))
FIELDS = {
    "flat": (("constant", (0.03,)), FLAT_SIGMA),
    "s_only": (("s_only", (0.02, 0.02)), FLAT_SIGMA),
    "y_only": (("bounded_rational", (0.02, 0.0, 0.01)), FLAT_SIGMA),
    "general": (("bounded_rational", (0.02, 0.01, 0.01)), FLAT_SIGMA),
    "vol": (
        ("bounded_rational", (0.02, 0.0, 0.01)),
        ("bounded_rational", (0.2, 0.02, 0.03)),
    ),
}
MODELS = [(name, kind) for name in FIELDS for kind in ("put", "call")]


@lru_cache(maxsize=None)
def solution(name, kind):
    delta, sigma = FIELDS[name]
    spec = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField(*delta),
        sigma_field=CoefficientField(*sigma),
    )
    cls = PutSolution3D if kind == "put" else CallSolution3D
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return cls(spec, n_s=33, n_y=25)


def test_the_y_dependent_calls_are_flagged():
    for name in ("y_only", "general", "vol"):
        status = solution(name, "call").surface.slice_status
        assert sum(kind != "ok" for kind, _ in status) > 10


def _band_edges(sol):
    """Lattice nodes labelled direct next to a node that is not."""
    lab = sol.surface.labels
    direct = lab == "direct"
    edge = np.zeros_like(direct)
    edge[1:] |= direct[1:] & ~direct[:-1]
    edge[:-1] |= direct[:-1] & ~direct[1:]
    edge[:, 1:] |= direct[:, 1:] & ~direct[:, :-1]
    edge[:, :-1] |= direct[:, :-1] & ~direct[:, 1:]
    return np.argwhere(edge)


@st.composite
def probe(draw, sol):
    s_grid, y_grid = sol.surface.s_grid, sol.surface.y_grid
    mode = draw(st.sampled_from(["anywhere", "diagonal", "band"]))
    if mode == "band":
        edges = _band_edges(sol)
        i, j = edges[draw(st.integers(0, len(edges) - 1))]
        ds, dy = s_grid[1] - s_grid[0], y_grid[1] - y_grid[0]
        s = s_grid[i] + draw(st.floats(-1.0, 1.0)) * ds
        y = y_grid[j] + draw(st.floats(-1.0, 1.0)) * dy
        s = max(s, s_grid[0])
        y = min(max(y, 0.0), s * (1.0 - 1e-9))
    else:
        s = draw(st.floats(s_grid[0], s_grid[-1]))
        if mode == "diagonal":
            y = s * (1.0 - 10.0 ** -draw(st.floats(1.0, 12.0)))
        else:
            y = s * draw(st.floats(0.0, 1.0, exclude_max=True))
    return float(s), float(y)


@st.composite
def batch(draw):
    name, kind = draw(st.sampled_from(MODELS))
    sol = solution(name, kind)
    return sol, draw(st.lists(probe(sol), min_size=1, max_size=12))


RECORD_FIELDS = ("s", "y", "level", "g1", "g2", "c1", "c2")


def _hex(ln):
    return tuple(float(getattr(ln, f)).hex() for f in RECORD_FIELDS) + (ln.branch,)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(batch())
def test_lines_equal_line_bit_for_bit(case):
    sol, pairs = case
    ss, ys = (np.array(a) for a in zip(*pairs))
    scalar = []
    for s, y in pairs:
        try:
            scalar.append(sol.line(s, y))
        except Exception as exc:  # a cut re-march: the batch raises it too
            with pytest.raises(type(exc)):
                sol.lines(ss, ys)
            return
    got = sol.lines(ss, ys)
    assert len(got) == len(scalar)
    smooth = sol.surface.level_smooth(ss, ys)
    for k, ln in enumerate(scalar):
        assert _hex(got[k]) == _hex(ln)
        assert float(got.level[k]).hex() == ln.level.hex()
        assert smooth[k].hex() == float(sol.surface.level_smooth(*pairs[k])).hex()

    xs = np.stack([np.linspace(s - y, s, 7) for s, y in pairs])
    vals = got.values(xs)
    for k, ln in enumerate(scalar):
        assert _same_bits(vals[k], ln.values(xs[k]))

    cont = np.flatnonzero(got.branch != "stop")
    if cont.size:
        x_c = 0.5 * (2.0 * ss[cont] - ys[cont])
        d1, d2 = got[cont].dvalue_dx(x_c), got[cont].d2value_dx2(x_c)
        for m, k in enumerate(cont):
            ln, x = scalar[k], float(x_c[m])
            assert d1[m].hex() == float(ln.dvalue_dx(x)).hex()
            assert d2[m].hex() == float(ln.d2value_dx2(x)).hex()
            # the power form on Python floats, the reference
            c1, g1, c2, g2 = ln.c1, ln.g1, ln.c2, ln.g2
            first = c1 * g1 * x ** (g1 - 1.0) + c2 * g2 * x ** (g2 - 1.0)
            second = c1 * g1 * (g1 - 1.0) * x ** (g1 - 2.0) + c2 * g2 * (g2 - 1.0) * x ** (
                g2 - 2.0
            )
            assert d1[m].hex() == first.hex()
            assert d2[m].hex() == second.hex()


def _runs(finite):
    """(first, last) node of each run of True in a 1-D mask."""
    edges = np.diff(np.concatenate([[0], finite.astype(int), [0]]))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1))


@st.composite
def holed_surface(draw):
    """A lattice whose rows hold several finite runs, or none, and probes.

    Rows (fixed y, along s) are cut by NaN holes into runs of every fit
    kind (one node, linear, cubic) and some are NaN throughout.  Probes sit
    anywhere in and past the box, on nodes and at the midpoint of every
    gap between two runs of a row, where both runs are equally near.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_s, n_y = draw(st.integers(2, 16)), draw(st.integers(2, 8))
    s_grid = 0.1 + np.cumsum(rng.uniform(0.05, 0.5, n_s))
    y_grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, n_y - 1))])
    v = rng.uniform(0.1, 3.0, (n_s, n_y))
    v[rng.random(v.shape) < draw(st.floats(0.0, 0.6))] = np.nan
    v[:, rng.random(n_y) < draw(st.floats(0.0, 0.5))] = np.nan
    surf = BoundarySurface(s_grid, y_grid, v, "put")
    s_probe, y_probe = [], []
    for j in range(n_y):
        runs = _runs(np.isfinite(v[:, j]))
        for (_, hi), (lo, _) in zip(runs, runs[1:]):
            s_probe.append(0.5 * (s_grid[hi] + s_grid[lo]))
            y_probe.append(y_grid[j])
    n = draw(st.integers(1, 30))
    s_probe += list(rng.uniform(s_grid[0] - 0.3, s_grid[-1] + 0.3, n))
    s_probe += list(s_grid[rng.integers(0, n_s, n)])
    y_probe += list(rng.uniform(-0.1, y_grid[-1] + 0.1, n))
    y_probe += list(y_grid[rng.integers(0, n_y, n)])
    return surf, np.array(s_probe), np.array(y_probe)


@settings(max_examples=200, deadline=None)
@given(holed_surface())
def test_level_smooth_arrays_equal_floats_over_holed_rows(case):
    # the nearest-run choice past a row's first run, a row with no fit,
    # and both fallbacks (the partner row, then the bilinear level_at)
    surf, ss, ys = case
    got = surf.level_smooth(ss, ys)
    for k in range(ss.size):
        want = surf.level_smooth(float(ss[k]), float(ys[k]))
        assert float(got[k]).hex() == float(want).hex()


def test_level_smooth_reads_a_nan_y_in_the_top_cell_on_floats_too():
    # np.searchsorted sorts NaN last, so the array path reads the top cell;
    # with the top row empty that cell gives the row below it
    s_grid = np.linspace(1.0, 3.0, 6)
    y_grid = np.linspace(0.0, 0.9, 4)
    v = np.linspace(0.5, 2.0, 24).reshape(6, 4)
    v[:, -1] = np.nan
    surf = BoundarySurface(s_grid, y_grid, v, "put")
    want = surf.level_smooth(np.array([2.0]), np.array([np.nan]))[0]
    assert np.isfinite(want)
    assert float(surf.level_smooth(2.0, np.nan)).hex() == float(want).hex()


def _audit_by_line(spec, sol, shape):
    """The audit's checks taken one probed line at a time, the reference."""
    o = _ORIENT[spec.payoff_kind]
    L = spec.strike
    n_s, n_y, n_x = shape
    s_nodes = np.linspace(sol.surface.s_grid[0], sol.surface.s_grid[-1], n_s)
    y_nodes = np.linspace(0.0, sol.surface.y_grid[-1], n_y)
    violations, worst, smooth_gap, gen_viol, gen_resid = 0, np.inf, 0.0, 0, 0.0
    for s in s_nodes:
        for y in y_nodes[y_nodes < s * (1.0 - 1e-9)]:
            xs = np.linspace(s - y, s, n_x)
            ln = sol.line(s, y)
            gap = ln.values(xs) - spec.payoff(xs)
            worst = min(worst, float(np.min(gap)))
            violations += int(np.sum(gap < -DOMINANCE_TOL * L))
            br, level = ln.branch, ln.level
            if br == "direct" and s - y < level < s:
                h = SMOOTH_STEP * L
                x_in = level - o.sign * h
                if s - y <= x_in <= s:
                    slope = (ln.value(level) - ln.value(x_in)) / (o.sign * h)
                    smooth_gap = max(smooth_gap, abs(slope - o.sign))
            if o.sign > 0:
                cont, stopped = (s - y, level), (max(level, s - y), s)
            else:
                cont, stopped = (level, s), (s - y, min(level, s))
            if br == "stop" or (br == "direct" and level > s - y):
                x_stop = 0.5 * (stopped[0] + stopped[1])
                dlt = float(spec.delta_field.value(s, y))
                if o.sign * (spec.r * L - dlt * x_stop) >= 0.0:
                    gen_viol += 1
            if br != "stop":
                lo, hi = cont if br == "direct" else (s - y, s)
                x_c = 0.5 * (lo + hi)
                pad = 2e-5 * max(x_c, L)
                if lo + pad < x_c < hi - pad:
                    resid = generator_residual(
                        spec, ln.value, StateTriple(x=x_c, s=s, y=y),
                        dfdx=ln.dvalue_dx, d2fdx2=ln.d2value_dx2,
                    )
                    gen_resid = max(gen_resid, abs(float(resid)))
    return {
        "dominance_violations": violations,
        "dominance_worst_gap": float(worst),
        "smooth_fit_gap": float(smooth_gap),
        "generator_sign_violations": gen_viol,
        "generator_residual_max": float(gen_resid),
    }


@pytest.mark.parametrize("name,kind", MODELS)
def test_audit_equals_the_line_by_line_checks(name, kind):
    sol = solution(name, kind)
    for shape in ((16, 16, 16), (9, 23, 1)):
        got = audit_solution(sol.spec, sol, dominance_shape=shape)
        want = _audit_by_line(sol.spec, sol, shape)
        assert {k: float(v).hex() for k, v in got.items()} == {
            k: float(v).hex() for k, v in want.items()
        }


def test_generator_on_arrays_matches_each_point():
    # the audit evaluates the generator on arrays; sigma**2 goes through
    # libm there, which numpy's array square would round differently
    spec = solution("vol", "put").spec
    rng = np.random.default_rng(11)
    n = 20000
    s = rng.uniform(0.05, 20.0, n)
    y = s * rng.uniform(0.0, 0.99, n)
    x = s - y * rng.uniform(0.01, 0.99, n)
    v, fp, fpp = rng.normal(size=(3, n))
    got = _generator(spec, x, s, y, v, fp, fpp)
    for k in range(n):
        want = generator_residual(
            spec, lambda _: v[k], StateTriple(x=x[k], s=s[k], y=y[k]),
            dfdx=lambda _: fp[k], d2fdx2=lambda _: fpp[k],
        )
        assert got[k].hex() == float(want).hex()


def test_linspace_rows_match_linspace_per_row():
    start = np.array([1.0, 0.3, 2.5, 0.7])
    stop = np.array([1.0, 0.9, 7.25, 0.7 + 1e-12])  # a zero step first
    for num in (0, 1, 2, 7, 50):
        rows = _linspace_rows(start, stop, num)
        for k in range(start.size):
            assert rows[k].tobytes() == np.linspace(start[k], stop[k], num).tobytes()


def test_lines_pick_the_nearest_region_as_line_does():
    # two regions with different coefficients and overlapping boxes: every
    # reflected line takes the same region in the batch as on its own
    sol = solution("flat", "put")
    grid = sol.regions[0]
    twin = dataclasses.replace(grid, C1=2.0 * grid.C1, C2=2.0 * grid.C2)
    (s0, s1), (y0, y1) = sol._boxes[0]
    mid = 0.5 * (s0 + s1)
    try:
        sol.regions = [grid, twin]
        sol._boxes = [((s0, mid), (y0, y1)), ((mid - 0.5, s1), (y0, y1))]
        rng = np.random.default_rng(7)
        ss = rng.uniform(s0, s1, 200)
        ys = ss * rng.uniform(0.0, 0.95, 200)
        got = sol.lines(ss, ys)
        reflected = 0
        for k, (s, y) in enumerate(zip(ss, ys)):
            ln = sol.line(s, y)
            assert _hex(got[k]) == _hex(ln)
            reflected += ln.branch == "reflect"
        assert reflected > 50
    finally:
        sol.regions = [grid]
        sol._boxes = [((s0, s1), (y0, y1))]


def test_lines_reject_bad_input():
    sol = solution("flat", "put")
    with pytest.raises(ValueError):
        sol.lines(np.ones((2, 2)), np.zeros((2, 2)))
    got = sol.lines([2.0, 3.0], [0.5, 1.0])
    with pytest.raises(ValueError):
        got.values(np.ones(2))
    with pytest.raises(Exception, match="x outside"):
        got.values(np.array([[2.0], [1.0]]))
    assert len(sol.lines([], [])) == 0

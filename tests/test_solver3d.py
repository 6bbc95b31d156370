import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from drawdown_options import (
    CallSolution2D,
    CallSolution3D,
    CoefficientField,
    DomainError,
    ModelSpec,
    PutSolution2D,
    PutSolution3D,
    build_call_surface,
    build_put_surface,
    call_boundary_2d,
    call_boundary_slice,
    put_boundary_2d,
    put_boundary_slice,
)
from drawdown_options import solver3d
from drawdown_options.coefficients import _ORIENT, _critical_level, roots_arrays
from drawdown_options.errors import ResolutionWarning, UnderdeterminedRegion
from drawdown_options.reflection_pde import (
    ColumnClosure,
    RegionSpec,
    RowClosure,
    solve_reflection_region,
)
from drawdown_options.solver2d import _cell_crossing
from drawdown_options.solver3d import (
    MAX_SWITCH_PAIRS,
    BoundarySurface,
    _quad_zero,
    build_reflection_regions,
    detect_regions_3d,
    diagonal_put_curve,
)
from test_solver2d import _switch_points_loop, _switches_and_warnings


def make_spec(kind, delta, sigma=("constant", (0.2,))):
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField(*delta),
        sigma_field=CoefficientField(*sigma),
    )


@pytest.fixture(scope="module")
def flat_call():
    spec = make_spec("call", ("constant", (0.03,)))
    return spec, CallSolution3D(spec, n_s=65, n_y=49)


@pytest.fixture(scope="module")
def flat_put():
    spec = make_spec("put", ("constant", (0.03,)))
    return spec, PutSolution3D(spec, n_s=65, n_y=49)


@pytest.fixture(scope="module")
def sloped_call():
    spec = make_spec("call", ("s_only", (0.02, 0.02)))
    return spec, CallSolution3D(spec)


@pytest.fixture(scope="module")
def sloped_put():
    spec = make_spec("put", ("s_only", (0.02, 0.01)))
    return spec, PutSolution3D(spec)


@pytest.fixture(scope="module")
def drawdown_put():
    spec = make_spec("put", ("bounded_rational", (0.02, 0.0, 0.01)))
    return spec, PutSolution3D(spec, n_s=64, n_y=64)


# ---------------------------------------------------------------------------
# degeneracy: constant coefficients collapse to the flat slice answers


def test_flat_call_surface_is_three_strikes(flat_call):
    _, sol = flat_call
    v = sol.surface.values
    finite = np.isfinite(v)
    assert finite.any()
    npt.assert_allclose(v[finite], 3.0, rtol=1e-10)


def test_flat_put_surface_is_two_thirds(flat_put):
    _, sol = flat_put
    v = sol.surface.values
    finite = np.isfinite(v)
    assert finite.any()
    npt.assert_allclose(v[finite], 2.0 / 3.0, rtol=1e-10)


def test_flat_call_reference_value_any_drawdown(flat_call):
    _, sol = flat_call
    for y in (0.6, 1.0, 2.0):
        assert abs(sol.value(2.0, 2.5, y) - 1.0886621079036347) < 1e-10


def test_flat_put_reference_value(flat_put):
    _, sol = flat_put
    assert abs(sol.value(1.0, 1.0, 0.0) - 4.0 / 27.0) < 1e-10


def test_flat_branch_classification(flat_call, flat_put):
    _, call = flat_call
    assert call.branch(2.0, 0.5) == "reflect"
    assert call.branch(5.0, 1.0) == "stop"
    assert call.branch(5.0, 3.0) == "direct"
    _, put = flat_put
    assert put.branch(0.5, 0.1) == "stop"
    assert put.branch(2.0, 0.5) == "reflect"
    assert put.branch(1.0, 0.5) == "direct"


def test_flat_stop_branch_returns_intrinsic(flat_call, flat_put):
    _, call = flat_call
    assert call.value(4.5, 5.0, 1.0) == pytest.approx(3.5, abs=1e-14)
    _, put = flat_put
    assert put.value(0.45, 0.5, 0.05) == pytest.approx(0.55, abs=1e-14)


# ---------------------------------------------------------------------------
# frozen switch geometry for the flat model


def test_flat_call_slice_switch_and_cap():
    spec = make_spec("call", ("constant", (0.03,)))
    surf = build_call_surface(
        spec, np.linspace(1.0, 10.0, 19), np.linspace(0.0, 4.5, 46)
    )
    i = 8  # s = 5.0
    assert abs(surf.s_grid[i] - 5.0) < 1e-12
    stops = surf.slice_switches[i]["stop"]
    assert len(stops) == 1
    pos, direction = stops[0]
    # barrier 3 meets the floor 5 - y at drawdown 2
    assert direction == "exit"
    assert abs(pos - 2.0) < 1e-9
    assert surf.slice_switches[i]["reflect"] == []
    cap = surf.cap_curve
    npt.assert_allclose(cap[np.isfinite(cap)], 3.0, atol=1e-9)


def test_flat_put_slice_switch_and_cap():
    spec = make_spec("put", ("constant", (0.03,)))
    surf = build_put_surface(
        spec, np.linspace(0.1, 4.0, 79), np.linspace(0.0, 3.0, 13)
    )
    j = 2  # y = 0.5
    assert abs(surf.y_grid[j] - 0.5) < 1e-12
    refl = surf.slice_switches[j]["reflect"]
    assert len(refl) == 1
    pos, direction = refl[0]
    # barrier 2/3 meets the floor s - 1/2 at maximum 7/6
    assert direction == "enter"
    assert abs(pos - 7.0 / 6.0) < 1e-9
    stops = surf.slice_switches[j]["stop"]
    assert len(stops) == 1
    assert abs(stops[0][0] - 2.0 / 3.0) < 1e-9
    cap = surf.cap_curve
    ok = np.isfinite(cap)
    npt.assert_allclose(cap[ok], surf.s_grid[ok] - 2.0 / 3.0, atol=1e-9)


def _regions_by_slice_loops(surface):
    """Region detection as loops over the slices, the reference of the scan.

    The switch points of each slice's valid nodes against both reference
    lines, and once more per node of the moving axis across the slices for
    the cap curve, come from the element loop that is the reference of
    detect_switch_points, so that the reference shares no code with the scan.
    """
    o = _ORIENT[surface.kind]
    s_grid, y_grid, v = surface.s_grid, surface.y_grid, surface.values
    valid = np.isfinite(v) & (y_grid[None, :] < s_grid[:, None])
    labels = np.full(v.shape, "", dtype="<U8")
    ss = np.broadcast_to(s_grid[:, None], v.shape)
    floor = ss - np.broadcast_to(y_grid[None, :], v.shape)
    labels[valid & (v > ss)] = o.above
    labels[valid & (v < floor)] = o.below
    labels[valid & (v >= floor) & (v <= ss)] = "direct"

    def capped(points, what):
        if len(points) > 2 * MAX_SWITCH_PAIRS:
            warnings.warn(
                f"more than {MAX_SWITCH_PAIRS} switch pairs on {what}; keeping the "
                f"first {2 * MAX_SWITCH_PAIRS}",
                ResolutionWarning,
            )
            return points[: 2 * MAX_SWITCH_PAIRS]
        return points

    fixed, move = o.swap(s_grid, y_grid)
    vf, okf = o.fixed_major(v), o.fixed_major(valid)
    switches = []
    for k, pos in enumerate(fixed):
        ok = okf[k]
        rec = {"reflect": [], "stop": []}
        if ok.sum() >= 2:
            t = move[ok]
            s, y = o.swap(pos, t)
            rec[o.above] = capped(
                _switch_points_loop(t, vf[k, ok], np.broadcast_to(s, t.shape)),
                f"slice {o.fixed}={pos:g} vs reachable-max line",
            )
            rec[o.below] = capped(
                _switch_points_loop(t, vf[k, ok], s - y),
                f"slice {o.fixed}={pos:g} vs floor line",
            )
        switches.append(rec)
    leave = "enter" if o.above == "reflect" else "exit"
    cap = np.full(move.size, np.nan)
    for m in range(move.size):
        ok = okf[:, m]
        if ok.sum() >= 2:
            s, y = o.swap(fixed[ok], move[m])
            ref = s if o.above == "reflect" else s - y
            pts = _switch_points_loop(fixed[ok], vf[ok, m], ref)
            crossings = [p for p, d in pts if d == leave]
            if crossings:
                cap[m] = crossings[-1 if o.fixed == "s" else 0]
    finite_cap = cap[np.isfinite(cap)]
    if finite_cap.size >= 2:
        d = np.diff(finite_cap)
        if np.any(d > 0) and np.any(d < 0):
            warnings.warn(
                "region cap curve is not monotone; treat region ordering "
                "with care or refine the lattice",
                ResolutionWarning,
            )
    return labels, switches, cap


def _random_surface(kind, n_s, n_y, seed, flagged, alternating):
    """A lattice of barrier values built to exercise every path of the scan.

    Each node sits above s, exactly on s, strictly between the two lines,
    exactly on the floor s - y, below the floor, or is a NaN hole; some
    slices are cut (NaN past a node, as a flagged slice leaves them) and
    some alternate across both lines at every node, so that adjacent-cell
    and MAX_SWITCH_PAIRS warnings occur.
    """
    rng = np.random.default_rng(seed)
    s_grid = 0.05 + np.cumsum(rng.uniform(1e-3, 0.5, n_s))
    y_grid = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 0.5, n_y - 1))])
    ss, yy = np.meshgrid(s_grid, y_grid, indexing="ij")
    floor = ss - yy
    gap = rng.uniform(1e-3, 1.0, ss.shape)
    where = rng.choice(6, size=ss.shape, p=rng.dirichlet(np.ones(6)))
    o = _ORIENT[kind]
    # the alternating slices, in the fixed-major view of where
    wf = o.fixed_major(where)
    for k in rng.choice(wf.shape[0], size=min(alternating, wf.shape[0]), replace=False):
        wf[k] = np.where(np.arange(wf.shape[1]) % 2 == 0, 0, 4)
        wf[k, rng.random(wf.shape[1]) < 0.1] = rng.choice([1, 3])
    v = np.choose(
        where,
        [ss + gap, ss, floor + rng.random(ss.shape) * yy, floor, floor - gap,
         np.full(ss.shape, np.nan)],
    )
    vf = o.fixed_major(v)
    for k in rng.choice(vf.shape[0], size=min(flagged, vf.shape[0]), replace=False):
        vf[k, rng.integers(0, vf.shape[1]):] = np.nan
    return BoundarySurface(s_grid, y_grid, v, kind)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["call", "put"]),
    n_s=st.integers(2, 40),
    n_y=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    flagged=st.integers(0, 4),
    alternating=st.integers(0, 2),
)
# lattices on which every warning occurs: adjacent cells, more than
# MAX_SWITCH_PAIRS pairs on a slice, and a cap curve that is not monotone
@example(kind="put", n_s=40, n_y=40, seed=4, flagged=2, alternating=2)
@example(kind="call", n_s=40, n_y=40, seed=0, flagged=2, alternating=2)
def test_region_scan_matches_the_slice_loops_bit_for_bit(
    kind, n_s, n_y, seed, flagged, alternating
):
    surf = _random_surface(kind, n_s, n_y, seed, flagged, alternating)
    want_out, want = _switches_and_warnings(_regions_by_slice_loops, surf)
    labels, switches, cap = want_out
    got_surf, got = _switches_and_warnings(detect_regions_3d, None, surf)
    assert np.array_equal(got_surf.labels, labels)

    def hexed(recs):
        return [{k: [(p.hex(), d) for p, d in rec[k]] for k in rec} for rec in recs]

    assert hexed(got_surf.slice_switches) == hexed(switches)
    assert [c.hex() for c in got_surf.cap_curve.tolist()] == [
        c.hex() for c in cap.tolist()
    ]
    assert got == want


def _crossing_by_calls(grid, d, valid, a, b):
    """Zero of d between nodes a and b, refined through a third valid node."""
    lin = _cell_crossing(grid[a], grid[b], d(a), d(b))
    k3 = a - 1 if valid(a - 1) else b + 1 if valid(b + 1) else None
    if k3 is None:
        return lin
    return _quad_zero(
        (grid[k3], grid[a], grid[b]), (d(k3), d(a), d(b)), grid[a], grid[b], lin
    )


def _closures_by_loops(spec, surface):
    """Closures as a column loop and its mirrored row loop, the reference of the walk.

    Every run of reflected nodes along a line, over the whole mask, is
    closed past its last node.  Returns [(column closures, row closures)],
    or [] when no node reflects, or raises UnderdeterminedRegion where a run
    cannot be closed.
    """
    o = _ORIENT[surface.kind]
    s_grid, y_grid, v = surface.s_grid, surface.y_grid, surface.values
    n_s, n_y = v.shape
    L = spec.strike
    band_on_s = o.above == "reflect"

    def line(s, y, on_s):
        return s if on_s else s - y

    active = surface.labels == "reflect"
    if not active.any():
        return []
    col_cl = []
    row_cl = []
    for i in range(n_s):
        for j2 in range(n_y):
            above = j2 + 1
            if not active[i, j2] or (above < n_y and active[i, above]):
                continue  # not the last node of a run

            def dcol(k, i=i):
                return v[i, k] - line(s_grid[i], y_grid[k], band_on_s)

            def col_valid(k, i=i):
                return 0 <= k < n_y and np.isfinite(v[i, k]) and y_grid[k] < s_grid[i]

            if above >= n_y or y_grid[above] >= s_grid[i]:
                if band_on_s:
                    col_cl.append(ColumnClosure(i, "c2_zero", y_pos=s_grid[i]))
                    continue
                if j2 >= 1 and np.isfinite(v[i, j2 - 1]):
                    lin = _cell_crossing(
                        y_grid[j2 - 1], y_grid[j2], dcol(j2 - 1), dcol(j2)
                    )
                    if j2 >= 2 and np.isfinite(v[i, j2 - 2]):
                        y_star = _quad_zero(
                            (y_grid[j2 - 2], y_grid[j2 - 1], y_grid[j2]),
                            (dcol(j2 - 2), dcol(j2 - 1), dcol(j2)),
                            y_grid[j2], s_grid[i], lin,
                        )
                    else:
                        y_star = min(max(lin, y_grid[j2]), s_grid[i])
                else:
                    y_star = min(s_grid[i] - v[i, j2], s_grid[i])
            else:
                if surface.labels[i, above] == "":
                    raise UnderdeterminedRegion(
                        f"reflected column at s={s_grid[i]:g} is cut by a flagged "
                        "slice; refine the lattice or the step tolerance"
                    )
                y_star = _crossing_by_calls(y_grid, dcol, col_valid, j2, above)
            x_base = line(s_grid[i], y_star, band_on_s)
            if not x_base > 0.0:
                raise UnderdeterminedRegion(
                    f"reflected column at s={s_grid[i]:g} closes on the diagonal, "
                    "where its floor x = s - y is 0; refine the lattice"
                )
            target = o.sign * (x_base - L)
            col_cl.append(
                ColumnClosure(i, "combo", y_pos=y_star, x_base=x_base, target=target)
            )
    for j in range(n_y):
        for i2 in range(n_s):
            right = i2 + 1
            if not active[i2, j] or (right < n_s and active[right, j]):
                continue  # not the last node of a run
            if right >= n_s:
                if band_on_s:
                    raise UnderdeterminedRegion(
                        f"reflected row at y={y_grid[j]:g} reaches the lattice "
                        "edge; enlarge the s-range"
                    )
                row_cl.append(RowClosure(j, "c1_zero"))
                continue
            lab = surface.labels[right, j]
            if lab == "":
                raise UnderdeterminedRegion(
                    f"reflected row at y={y_grid[j]:g} is cut by a flagged "
                    "slice; refine the lattice or the step tolerance"
                )
            on_s = band_on_s or lab == o.above

            def drow(k, j=j, on_s=on_s):
                return v[k, j] - line(s_grid[k], y_grid[j], on_s)

            def row_valid(k, j=j):
                return 0 <= k < n_s and np.isfinite(v[k, j]) and s_grid[k] > y_grid[j]

            s_star = _crossing_by_calls(s_grid, drow, row_valid, i2, right)
            x_base = line(s_star, y_grid[j], on_s)
            target = o.sign * (x_base - L)
            row_cl.append(
                RowClosure(j, "combo", s_pos=s_star, x_base=x_base, target=target)
            )
    return [(col_cl, row_cl)]


def _closure_bits(closures):
    """Each closure as its class, line index, kind and fields as float.hex."""
    out = []
    for c in closures:
        k = c.i if isinstance(c, ColumnClosure) else c.j
        assert type(k) is int
        pos = c.y_pos if isinstance(c, ColumnClosure) else c.s_pos
        fields = tuple(float(f).hex() for f in (pos, c.x_base, c.target))
        out.append((type(c).__name__, k, c.kind) + fields)
    return out


def _closures_or_error(build, spec, surface):
    # ValueError also covers a closure that rejects its fields
    try:
        return [tuple(map(_closure_bits, cl)) for cl in build(spec, surface)]
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _walk_closures(spec, surface):
    """The closures build_reflection_regions hands to its one solve, if any."""
    regions = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver3d, "solve_reflection_region", lambda _, r: regions.append(r))
        build_reflection_regions(spec, surface)
    return [(r.column_closures, r.row_closures) for r in regions]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["call", "put"]),
    n_s=st.integers(2, 30),
    n_y=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    flagged=st.integers(0, 4),
    alternating=st.integers(0, 2),
)
def test_closure_walk_matches_the_loops_bit_for_bit(
    kind, n_s, n_y, seed, flagged, alternating
):
    surf = _random_surface(kind, n_s, n_y, seed, flagged, alternating)
    spec = make_spec(kind, ("constant", (0.03,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        detect_regions_3d(spec, surf)
    want = _closures_or_error(_closures_by_loops, spec, surf)
    assert _closures_or_error(_walk_closures, spec, surf) == want


def _quad_zero_on_floats(ps, ds, lo, hi, lin):
    """The one-lane Newton refine on Python floats, the reference of _quad_zero."""
    start = min(max(float(lin), lo), hi)
    pa, pb, pc = (float(p) for p in ps)
    da, db, dc = (float(d) for d in ds)
    f01 = (db - da) / (pb - pa)
    f12 = (dc - db) / (pc - pb)
    f012 = (f12 - f01) / (pc - pa)
    z = start
    for _ in range(12):
        val = da + (z - pa) * (f01 + f012 * (z - pb))
        der = f01 + f012 * ((z - pa) + (z - pb))
        if der == 0.0 or not np.isfinite(der):
            return start
        step = val / der
        z -= step
        if abs(step) <= 1e-15 * max(abs(lo), abs(hi), 1.0):
            break
    if not np.isfinite(z) or z < lo or z > hi:
        return start
    return z


_lane = st.tuples(
    st.floats(-3.0, 3.0), st.floats(1e-3, 2.0), st.floats(1e-3, 2.0),
    # sample values: a parabola, a line (no curvature), a flat run (a zero
    # derivative), huge values (non-finite divided differences)
    st.sampled_from(["parabola", "line", "flat", "huge"]),
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    # the linear start inside, outside or off the bracket
    st.floats(-1.0, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(lanes=st.lists(_lane, min_size=1, max_size=12))
def test_quad_zero_on_lanes_equals_the_float_loop_bit_for_bit(lanes):
    # each lane stops where the float loop stops and falls back the same way
    args = []
    for p0, h1, h2, shape, a, b, c, frac in lanes:
        ps = (p0, p0 + h1, p0 + h1 + h2)
        if shape == "parabola":
            ds = tuple(a + b * (p - ps[1]) + c * (p - ps[1]) ** 2 for p in ps)
        elif shape == "line":
            ds = tuple(a + b * (p - ps[1]) for p in ps)
        elif shape == "flat":
            ds = (a, a, a)
        else:
            ds = (a * 1e308, -b * 1e308, c * 1e308)
        lo, hi = ps[1], ps[2]
        args.append((ps, ds, lo, hi, lo + frac * (hi - lo)))
    want = [_quad_zero_on_floats(*a) for a in args]
    got = _quad_zero(
        *(tuple(np.array([a[0][m] for a in args]) for m in range(3)),
          tuple(np.array([a[1][m] for a in args]) for m in range(3))),
        *(np.array([a[k] for a in args]) for k in (2, 3, 4)),
    )
    assert [float(g).hex() for g in got] == [float(w).hex() for w in want]
    # and one lane as floats
    assert float(_quad_zero(*args[0])).hex() == float(want[0]).hex()


def _closed_runs(lines, closures, key):
    """Per closure, in list order, the last node of the run it closes along its line.

    A line's closures close its runs of active nodes in ascending order.
    """
    ends = {k: np.flatnonzero(lines[k] & ~np.r_[lines[k, 1:], False]).tolist()
            for k in range(lines.shape[0])}
    return [ends[key(c)].pop(0) for c in closures]


def test_one_system_solves_each_component_as_on_its_own():
    # a drawdown put whose reflected band one direct column cuts in two: the
    # solve of the whole mask gives every active node the C1 and C2 of its
    # component's own solve, bit for bit
    spec = make_spec("put", ("bounded_rational", (0.02, 0.0, 0.01)))
    s_grid, y_grid = np.linspace(0.5, 8.0, 31), np.linspace(0.0, 6.0, 25)
    v = build_put_surface(spec, s_grid, y_grid).values
    cut = v[18] < s_grid[18] - y_grid  # the column's reflected nodes
    v[18, cut] = s_grid[18] - 0.5 * y_grid[cut]
    surf = BoundarySurface(s_grid, y_grid, v, "put")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        detect_regions_3d(spec, surf)
    ((cols, rows),) = _walk_closures(spec, surf)
    active = surf.labels == "reflect"
    comp, n_comp = ndimage.label(active)
    assert n_comp == 2
    (whole,) = build_reflection_regions(spec, surf)
    assert np.array_equal(whole.active, active)
    col_ends = _closed_runs(active, cols, lambda c: c.i)
    row_ends = _closed_runs(active.T, rows, lambda c: c.j)
    for c in (1, 2):
        own = RegionSpec(
            s_grid, y_grid, comp == c,
            [cl for cl, j in zip(cols, col_ends) if comp[cl.i, j] == c],
            [cl for cl, i in zip(rows, row_ends) if comp[i, cl.j] == c],
        )
        alone = solve_reflection_region(spec, own)
        for got, want in ((whole.C1, alone.C1), (whole.C2, alone.C2)):
            assert got[comp == c].tobytes() == want[comp == c].tobytes()


def _labelled_surface(kind, s_grid, y_grid, values):
    spec = make_spec(kind, ("constant", (0.03,)))
    surf = BoundarySurface(np.array(s_grid), np.array(y_grid), np.array(values), kind)
    return spec, detect_regions_3d(spec, surf)


def test_a_reflected_column_cut_by_a_flagged_slice_raises():
    # the call column s = 3 reflects at y = 0 (barrier 4 > s) and its next
    # node is flagged
    spec, surf = _labelled_surface("call", [1.0, 2.0, 3.0], [0.0, 0.5], [
        [np.nan, np.nan], [np.nan, np.nan], [4.0, np.nan],
    ])
    assert surf.labels[2, 0] == "reflect" and surf.labels[2, 1] == ""
    with pytest.raises(UnderdeterminedRegion, match=(
        r"^reflected column at s=3 is cut by a flagged slice; refine the "
        r"lattice or the step tolerance$"
    )):
        build_reflection_regions(spec, surf)


def test_a_reflected_row_cut_by_a_flagged_slice_raises():
    # the call node (s, y) = (1, 0) reflects and its column closes at the
    # diagonal; its row runs into the flagged node s = 2
    spec, surf = _labelled_surface("call", [1.0, 2.0], [0.0, 1.5], [
        [3.0, np.nan], [np.nan, 1.0],
    ])
    assert surf.labels[0, 0] == "reflect" and surf.labels[1, 0] == ""
    with pytest.raises(UnderdeterminedRegion, match=(
        r"^reflected row at y=0 is cut by a flagged slice; refine the "
        r"lattice or the step tolerance$"
    )):
        build_reflection_regions(spec, surf)


def test_a_put_column_closing_on_the_diagonal_raises():
    # the put column s = 1 reflects at y = 0 and 0.5, and its floor
    # crossing, extrapolated through those two nodes, lands past the
    # diagonal y = s and is clamped onto it, where the floor x = s - y is 0
    spec, surf = _labelled_surface("put", [1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 1.5], [
        [0.8, 0.35, np.nan, np.nan], [1.7, 1.2, 0.75, 0.3], [2.5, 2.0, 1.5, 1.0],
    ])
    assert surf.labels[0].tolist() == ["reflect", "reflect", "", ""]
    with pytest.raises(UnderdeterminedRegion, match=(
        r"^reflected column at s=1 closes on the diagonal, where its floor "
        r"x = s - y is 0; refine the lattice$"
    )):
        build_reflection_regions(spec, surf)


def test_a_call_row_reaching_the_lattice_edge_raises():
    # the call node (s, y) = (2, 0) reflects, its column closes on the
    # direct node above, and its row ends at the last s node
    spec, surf = _labelled_surface("call", [1.0, 2.0], [0.0, 1.5], [
        [np.nan, np.nan], [3.0, 1.0],
    ])
    assert surf.labels[1, 0] == "reflect" and surf.labels[1, 1] == "direct"
    with pytest.raises(UnderdeterminedRegion, match=(
        r"^reflected row at y=0 reaches the lattice edge; enlarge the s-range$"
    )):
        build_reflection_regions(spec, surf)


# ---------------------------------------------------------------------------
# maximum-only coefficients: the surface cannot depend on the drawdown


def test_sloped_call_surface_matches_slice_model(sloped_call):
    spec, sol = sloped_call
    v = sol.surface.values
    h = call_boundary_2d(spec, sol.surface.s_grid)
    finite = np.isfinite(v)
    rel = np.abs(v - h[:, None]) / h[:, None]
    assert np.nanmax(np.where(finite, rel, np.nan)) < 1e-8


def test_sloped_put_surface_matches_slice_model(sloped_put):
    spec, sol = sloped_put
    curve = PutSolution2D(spec).curve
    v = sol.surface.values
    b = np.asarray(curve(sol.surface.s_grid))
    finite = np.isfinite(v)
    rel = np.abs(v - b[:, None]) / b[:, None]
    assert np.nanmax(np.where(finite, rel, np.nan)) < 1e-8


def test_sloped_call_values_match_slice_model(sloped_call):
    spec, sol = sloped_call
    oracle = CallSolution2D(spec)
    rng = np.random.default_rng(7)
    worst_direct = worst_reflect = 0.0
    for _ in range(300):
        s = float(np.exp(rng.uniform(np.log(0.05), np.log(18.0))))
        y = float(rng.uniform(0.0, 0.999 * s))
        x = float(rng.uniform(max(s - y, 1e-9) * 1.0000001, s))
        want = oracle.value(x, s)
        got = sol.value(x, s, y)
        rel = abs(got - want) / max(abs(want), 1e-12)
        if sol.branch(s, y) == "reflect":
            worst_reflect = max(worst_reflect, rel)
        else:
            worst_direct = max(worst_direct, rel)
    assert worst_direct < 1e-8
    # reflected bands go through the lattice PDE solve, whose coefficient
    # fields carry grid-level accuracy; see the companion bound in the docs
    assert worst_reflect < 2e-2


def test_sloped_put_values_match_slice_model(sloped_put):
    spec, sol = sloped_put
    oracle = PutSolution2D(spec)
    rng = np.random.default_rng(11)
    worst_direct = worst_reflect = 0.0
    for _ in range(300):
        s = float(np.exp(rng.uniform(np.log(0.05), np.log(18.0))))
        y = float(rng.uniform(0.0, 0.999 * s))
        x = float(rng.uniform(max(s - y, 1e-9) * 1.0000001, s))
        want = oracle.value(x, s)
        got = sol.value(x, s, y)
        rel = abs(got - want) / max(abs(want), 1e-12)
        if sol.branch(s, y) == "reflect":
            worst_reflect = max(worst_reflect, rel)
        else:
            worst_direct = max(worst_direct, rel)
    assert worst_direct < 1e-8
    assert worst_reflect < 2e-2


def _junction_jump(sol, s):
    # bisect the direct/reflect switch in y at fixed s, then compare the
    # assembled value evaluated at the shared top point x = s on both sides
    lo, hi = 1e-4, 0.9 * s
    assert sol.branch(s, hi) == "direct"
    assert sol.branch(s, lo) == "reflect"
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sol.branch(s, mid) == "reflect":
            lo = mid
        else:
            hi = mid
    v_lo = sol.value(s, s, lo)
    v_hi = sol.value(s, s, hi)
    return abs(v_lo - v_hi) / max(abs(v_hi), 1e-12)


def test_sloped_call_corner_lines_stay_on_or_above_payoff(sloped_call):
    # a maximum-only call's direct level is the critical point g1 K/(g1 - 1)
    # itself, where the x**g2 power drops out exactly; a rounding residue in
    # its coefficient, amplified by the tiny x at the corner, used to push
    # the value below the payoff on some of these lines
    spec, sol = sloped_call
    for s in np.linspace(3.0, 18.0, 61):
        y = s - 2e-6
        ln = sol.line(s, y)
        assert ln.branch == "direct"
        assert ln.c2 == 0.0
        xs = np.linspace(s - y, s, 201)
        assert np.all(sol.value_line(xs, s, y) >= spec.payoff(xs))


def test_flat_put_value_continuous_across_branch_junction(flat_put):
    # with flat coefficients both branches carry exact coefficients, so the
    # junction itself introduces no seam
    _, sol = flat_put
    assert _junction_jump(sol, 1.0) < 1e-10


def test_sloped_put_junction_jump_bounded_by_reflect_accuracy(sloped_put):
    # against a varying field the reflected side is a lattice solve, so the
    # seam width equals that branch's coefficient accuracy, not the exact
    # direct branch's; same realized bound as the reflected value match
    _, sol = sloped_put
    assert _junction_jump(sol, 1.0) < 2e-4


# ---------------------------------------------------------------------------
# marching machinery


def test_call_surface_self_convergence():
    spec = make_spec("call", ("s_only", (0.02, 0.02)))
    s_lo, s_hi, y_hi = 0.5, 8.0, 6.0
    coarse = build_call_surface(
        spec, np.linspace(s_lo, s_hi, 65), np.linspace(0.0, y_hi, 49)
    )
    fine = build_call_surface(
        spec, np.linspace(s_lo, s_hi, 129), np.linspace(0.0, y_hi, 97)
    )
    vc = coarse.values
    vf = fine.values[::2, ::2]
    both = np.isfinite(vc) & np.isfinite(vf)
    assert both.sum() > 500
    assert np.max(np.abs(vc[both] - vf[both])) < 1e-7


def test_put_surface_self_convergence():
    spec = make_spec("put", ("s_only", (0.02, 0.01)))
    s_lo, s_hi, y_hi = 0.05, 8.0, 6.0
    coarse = build_put_surface(
        spec, np.linspace(s_lo, s_hi, 65), np.linspace(0.0, y_hi, 49)
    )
    fine = build_put_surface(
        spec, np.linspace(s_lo, s_hi, 129), np.linspace(0.0, y_hi, 97)
    )
    vc = coarse.values
    vf = fine.values[::2, ::2]
    both = np.isfinite(vc) & np.isfinite(vf)
    assert both.sum() > 500
    assert np.max(np.abs(vc[both] - vf[both])) < 1e-7


def test_call_slice_entry_point_matches_surface(sloped_call):
    spec, sol = sloped_call
    surf = sol.surface
    i = 40
    s = float(surf.s_grid[i])
    finite = np.isfinite(surf.values[i])
    y_nodes = surf.y_grid[finite][::-1]  # descending, as the slice marches
    vals = call_boundary_slice(spec, s, y_nodes)
    npt.assert_allclose(vals, surf.values[i, finite][::-1], rtol=1e-9)


def test_put_slice_entry_point_matches_surface(sloped_put):
    spec, sol = sloped_put
    surf = sol.surface
    j = 10
    y = float(surf.y_grid[j])
    finite = np.isfinite(surf.values[:, j])
    s_nodes = surf.s_grid[finite]
    vals = put_boundary_slice(spec, y, s_nodes)
    npt.assert_allclose(vals, surf.values[finite, j], rtol=1e-9)


def test_slice_entry_points_validate_orientation():
    call_spec = make_spec("call", ("constant", (0.03,)))
    with pytest.raises(DomainError):
        call_boundary_slice(call_spec, 5.0, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        call_boundary_slice(call_spec, 5.0, np.array([6.0, 4.0]))
    put_spec = make_spec("put", ("constant", (0.03,)))
    with pytest.raises(DomainError):
        put_boundary_slice(put_spec, 1.0, np.array([3.0, 2.0]))
    with pytest.raises(DomainError):
        put_boundary_slice(put_spec, 1.0, np.array([0.5, 2.0]))


def test_put_slices_past_the_last_s_node_are_outside():
    # a put slice starts eps above its y; past s_grid[-1] it never enters
    spec = make_spec("put", ("constant", (0.03,)))
    s_grid, y_grid = np.linspace(0.1, 3.0, 30), np.linspace(0.0, 4.0, 21)
    surf = build_put_surface(spec, s_grid, y_grid)
    past = y_grid + solver3d.EDGE_FRACTION * spec.strike > s_grid[-1]
    assert 0 < past.sum() < past.size
    kinds = np.array([kind for kind, _ in surf.slice_status])
    assert np.all(kinds[past] == "outside") and "outside" not in kinds[~past]
    assert all(np.isnan(at) for kind, at in surf.slice_status if kind == "outside")
    assert np.all(np.isnan(surf.values[:, past])) and np.all(surf.labels[:, past] == "")


def test_slice_entry_points_take_empty_nodes():
    call_spec = make_spec("call", ("constant", (0.03,)))
    put_spec = make_spec("put", ("constant", (0.03,)))
    assert call_boundary_slice(call_spec, 2.0, []).shape == (0,)
    assert put_boundary_slice(put_spec, 0.5, []).shape == (0,)


def _seeds_at_zero(o, spec, curve, fixed, starts):
    # 0 lies outside both bands: (max(L, rL/delta), inf) and (0, min(L, rL/delta))
    return np.zeros(np.shape(starts))


@pytest.mark.parametrize("kind", ["call", "put"])
def test_a_seed_outside_its_band_flags_the_slice_at_its_start(kind, monkeypatch):
    # no public input gives such a seed: a call seed is the critical level
    # g1 K / (g1 - 1) of the roots at the start, strictly inside the band
    # there, and a put seed is the diagonal curve, marched inside its band;
    # so the seed is patched
    spec = make_spec(kind, ("constant", (0.03,)))
    o = _ORIENT[kind]
    monkeypatch.setattr(solver3d, "_diagonal_seeds", _seeds_at_zero)
    build = build_call_surface if kind == "call" else build_put_surface
    s_grid, y_grid = np.linspace(0.1, 6.0, 13), np.linspace(0.0, 4.0, 9)
    surf = build(spec, s_grid, y_grid)
    starts = o.swap(s_grid, y_grid)[0] + o.direction * solver3d.EDGE_FRACTION * spec.strike
    entered = [k for k, (kind_k, _) in enumerate(surf.slice_status) if kind_k != "outside"]
    assert entered
    assert all(surf.slice_status[k] == ("constraint", starts[k]) for k in entered)
    assert np.all(np.isnan(surf.values))

    fixed, nodes = (2.0, np.linspace(1.9, 0.0, 5)) if kind == "call" else (
        0.5, np.linspace(0.6, 3.0, 5))
    entry = call_boundary_slice if kind == "call" else put_boundary_slice
    assert np.all(np.isnan(entry(spec, fixed, nodes)))
    # the patched seeds read no diagonal curve
    levels, status = solver3d._boundary_slice(o, spec, None, fixed, nodes)
    assert np.all(np.isnan(levels))
    assert status == ("constraint", fixed + o.direction * solver3d.EDGE_FRACTION * spec.strike)


def test_a_direct_query_with_its_seed_outside_the_band_raises(flat_put, monkeypatch):
    from drawdown_options.errors import ConstraintBreach

    spec, sol = flat_put
    s, y = 3.0, 2.5
    assert sol.branch(s, y) == "direct"
    monkeypatch.setattr(solver3d, "_diagonal_seeds", _seeds_at_zero)
    with pytest.raises(ConstraintBreach, match=r"left \(0, min\(L, rL/delta\)\) at s=2.5"):
        sol.line(s, y)


def test_a_reflect_query_without_a_solved_region_raises():
    # with domain_s_max = 0.6 the flat put's barrier (2/3) stops every node,
    # so no reflected component exists; a line far above reads reflect
    spec = ModelSpec(
        r=0.06, strike=1.0, payoff_kind="put",
        delta_field=CoefficientField("constant", (0.03,)),
        sigma_field=CoefficientField("constant", (0.2,)),
        domain_s_max=0.6,
    )
    sol = PutSolution3D(spec, n_s=33, n_y=25)
    assert sol.regions == [] and "reflect" not in sol.surface.labels
    match = "no reflected component was solved"
    with pytest.raises(DomainError, match=match):
        sol.line(5.0, 0.5)
    with pytest.raises(DomainError, match=match):
        sol.lines([1.0, 5.0], [0.2, 0.5])
    assert sol.lines([0.5], [0.2]).branch.tolist() == ["stop"]


def test_put_surface_tracks_diagonal_curve_near_corner(sloped_put):
    # queries on the stub between the corner and the first lattice node ride
    # the row extrapolation, so agreement is at lattice accuracy here
    spec, sol = sloped_put
    diag = diagonal_put_curve(spec)
    for y in (0.5, 1.0, 3.0):
        lvl = sol.surface.level_smooth(y + 1e-9, y)
        assert abs(lvl - float(diag(y))) < 2e-4


# ---------------------------------------------------------------------------
# assembled solution plumbing


@pytest.mark.parametrize(
    "model", ["flat_put", "sloped_put", "drawdown_put", "flat_call", "sloped_call"]
)
def test_value_line_matches_scalar_values(model, request):
    # every query method is a read of line(s, y), and value on a single x
    # equals value_line at that x exactly
    _, sol = request.getfixturevalue(model)
    rng = np.random.default_rng(3)
    s = rng.uniform(0.5, 8.0, 9)
    # plus a stopped put line, a stopped call line and a direct flat-put line
    lines = [(0.5, 0.1), (5.0, 1.0), (1.2, 0.7)]
    lines += list(zip(s, s * rng.uniform(0.0, 0.95, s.size)))
    seen = set()
    for sk, yk in lines:
        s_, y_ = float(sk), float(yk)
        ln = sol.line(s_, y_)
        seen.add(ln.branch)
        assert sol.boundary(s_, y_) == ln.level
        assert sol.branch(s_, y_) == ln.branch
        again = sol.line(s_, y_)
        assert (again.branch, again.c1, again.c2) == (ln.branch, ln.c1, ln.c2)
        xs = np.linspace(s_ - y_, s_, 9)
        line = sol.value_line(xs, s_, y_)
        assert np.array_equal(line, ln.values(xs))
        for xk, vk in zip(xs, line):
            assert sol.value(float(xk), s_, y_) == float(vk)
    assert seen == {"stop", "direct", "reflect"}


def test_value_line_rejects_bad_input(flat_put):
    _, sol = flat_put
    with pytest.raises(DomainError):
        sol.value_line(np.array([0.3]), 1.2, 0.7)  # below the floor
    with pytest.raises(DomainError):
        sol.value_line(np.array([1.3]), 1.2, 0.7)  # above the maximum
    with pytest.raises(DomainError, match="need 0 <= y < s"):
        sol.value_line(np.array([1.0]), 1.2, -0.1)
    with pytest.raises(DomainError, match="need 0 <= y < s"):
        sol.value_line(np.array([1.0]), 1.2, 1.2)
    # off the quadrant a line that is not stopped has no roots to build on
    with pytest.raises(DomainError, match="need 0 <= y < s"):
        sol.boundary(1.2, -0.1)


@pytest.mark.parametrize("model", ["flat_put", "flat_call"])
@pytest.mark.parametrize(
    "s, y",
    [(np.nan, 0.5), (2.0, np.nan), (np.inf, 0.5), (2.0, np.inf), (-np.inf, 0.5)],
)
def test_a_non_finite_line_raises(model, s, y, request):
    # a NaN or infinite s or y names no line: every query raises instead of
    # reading a NaN level or a line beyond the lattice
    _, sol = request.getfixturevalue(model)
    match = "need finite s and y"
    for query in (sol.line, sol.boundary, sol.branch):
        with pytest.raises(DomainError, match=match):
            query(s, y)
    with pytest.raises(DomainError, match=match):
        sol.value(1.5, s, y)
    # a batch raises at its first non-finite line, after the lines before it
    with pytest.raises(DomainError, match=match):
        sol.lines([2.0, s, 3.0], [0.5, y, 0.5])


@pytest.mark.parametrize("y", [1.5, -0.5])
def test_a_batch_raises_at_a_line_off_the_quadrant_as_line_does(flat_put, y):
    # at s = 1, y = 1.5 the line's level is direct, at y = -0.5 reflected;
    # neither is stopped, and neither has roots
    _, sol = flat_put
    message = f"need 0 <= y < s, got s=1.0, y={y}"
    with pytest.raises(DomainError) as alone:
        sol.line(1.0, y)
    assert str(alone.value) == message
    with pytest.raises(DomainError) as batch:
        sol.lines([2.0, 1.0], [0.5, y])
    assert str(batch.value) == message


def test_a_batch_reads_a_stopped_line_off_the_quadrant(flat_put):
    _, sol = flat_put
    lines = sol.lines([2.0, 0.5], [0.5, 0.7])
    assert list(lines.branch) == ["reflect", "stop"]
    assert lines.level[1] == sol.line(0.5, 0.7).level


def test_a_batch_re_marches_its_direct_lines_before_a_non_finite_one(
    flat_put, monkeypatch
):
    # (2, 1.5) and (3, 2.5) are direct; only the one before the NaN re-marches
    _, sol = flat_put
    calls = []
    march = solver3d._boundary_slice

    def counted(*args):
        calls.append(args[3])
        return march(*args)

    monkeypatch.setattr(solver3d, "_boundary_slice", counted)
    with pytest.raises(DomainError, match="need finite s and y, got s=nan, y=0.5"):
        sol.lines([2.0, np.nan, 3.0], [1.5, 0.5, 2.5])
    assert calls == [1.5]


@pytest.mark.parametrize("model", ["flat_put", "flat_call"])
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_a_non_finite_price_raises(model, x, request):
    _, sol = request.getfixturevalue(model)
    with pytest.raises(DomainError, match=r"x outside \[s - y, s\]"):
        sol.value(x, 2.0, 0.5)
    with pytest.raises(DomainError, match=r"x outside \[s - y, s\]"):
        sol.lines([2.0, 3.0], [0.5, 0.5]).values(np.array([[1.8], [x]]))


def test_coefficients_tag_matches_branch(flat_call):
    _, sol = flat_call
    ln = sol.line(5.0, 3.0)
    assert ln.branch == "direct"
    assert ln.c1 != 0.0
    ln = sol.line(5.0, 1.0)
    assert ln.branch == "stop"
    assert (ln.c1, ln.c2) == (0.0, 0.0)


_S_NODES, _Y_NODES = np.linspace(0.1, 6.0, 9), np.linspace(0.0, 4.0, 7)


@pytest.mark.parametrize("kind, entry", [
    pytest.param("call", CallSolution2D, id="CallSolution2D"),
    pytest.param("put", PutSolution2D, id="PutSolution2D"),
    pytest.param("call", lambda spec: call_boundary_2d(spec, 2.0), id="call_boundary_2d"),
    pytest.param("put", put_boundary_2d, id="put_boundary_2d"),
    pytest.param(
        "call", lambda spec: build_call_surface(spec, _S_NODES, _Y_NODES),
        id="build_call_surface",
    ),
    pytest.param(
        "put", lambda spec: build_put_surface(spec, _S_NODES, _Y_NODES),
        id="build_put_surface",
    ),
    pytest.param(
        "call", lambda spec: call_boundary_slice(spec, 2.0, np.linspace(1.9, 0.0, 5)),
        id="call_boundary_slice",
    ),
    pytest.param(
        "put", lambda spec: put_boundary_slice(spec, 0.5, np.linspace(0.6, 3.0, 5)),
        id="put_boundary_slice",
    ),
    pytest.param("call", CallSolution3D, id="CallSolution3D"),
    pytest.param("put", PutSolution3D, id="PutSolution3D"),
])
def test_per_kind_entry_points_reject_the_other_kind(kind, entry):
    # the spec's payoff_kind alone decides call or put
    entry(make_spec(kind, ("constant", (0.03,))))
    other = make_spec("put" if kind == "call" else "call", ("constant", (0.03,)))
    with pytest.raises(DomainError, match=f"not a {kind} model"):
        entry(other)


_FLAT = {kind: make_spec(kind, ("constant", (0.03,))) for kind in ("call", "put")}


@pytest.mark.parametrize("kind, build, message", [
    pytest.param(
        "call", lambda spec: call_boundary_slice(spec, np.nan, [1.5, 1.0]),
        "need a finite s, got s=nan$", id="call_slice_nan_s",
    ),
    pytest.param(
        "call", lambda spec: call_boundary_slice(spec, np.inf, [1.5, 1.0]),
        "need a finite s, got s=inf$", id="call_slice_inf_s",
    ),
    pytest.param(
        "call", lambda spec: call_boundary_slice(spec, 2.0, [1.5, np.nan, 0.5]),
        r"need a finite y_grid, got y_grid\[1\]=nan$", id="call_slice_nan_y",
    ),
    pytest.param(
        "put", lambda spec: put_boundary_slice(spec, 0.5, [1.0, np.nan]),
        r"need a finite s_grid, got s_grid\[1\]=nan$", id="put_slice_nan_s",
    ),
    pytest.param(
        "put", lambda spec: put_boundary_slice(spec, np.inf, [1.0, 2.0]),
        "need a finite y, got y=inf$", id="put_slice_inf_y",
    ),
    pytest.param(
        "put", lambda spec: put_boundary_slice(spec, np.nan, [1.0, 2.0]),
        "need a finite y, got y=nan$", id="put_slice_nan_y",
    ),
    pytest.param(
        "put",
        lambda spec: build_put_surface(spec, np.r_[_S_NODES[:4], np.nan, _S_NODES[5:]], _Y_NODES),
        r"need a finite s_grid, got s_grid\[4\]=nan$", id="put_surface_nan_s",
    ),
    pytest.param(
        "call",
        lambda spec: build_call_surface(spec, _S_NODES, np.r_[_Y_NODES[:6], np.inf]),
        r"need a finite y_grid, got y_grid\[6\]=inf$", id="call_surface_inf_y",
    ),
])
def test_a_non_finite_slice_or_surface_input_raises(kind, build, message, monkeypatch):
    # each of these once returned NaN levels (an all-NaN surface, a slice
    # NaN from the bad node on), or named the wrong fault for an infinite y;
    # a put's input is checked before its diagonal curve is marched
    calls = []
    monkeypatch.setattr(solver3d, "diagonal_put_curve", calls.append)
    with pytest.raises(DomainError, match=message):
        build(_FLAT[kind])
    assert calls == []


@pytest.mark.parametrize("call, message", [
    pytest.param(
        lambda _: build_call_surface(_FLAT["call"], [1e-6, 1.0], [0.0, 0.5]),
        "^s_grid must start above the edge offset$", id="call_surface_at_the_edge",
    ),
    pytest.param(
        lambda _: call_boundary_slice(_FLAT["call"], 1e-6, [0.0]),
        "^slice level s=1e-06 must exceed the edge offset$", id="call_slice_at_the_edge",
    ),
    pytest.param(
        lambda sol: dataclasses.replace(
            sol.lines([2.0, 3.0], [0.5, 1.0]), y=np.array([0.5, 3.0])
        ).values(np.array([[1.8], [2.5]])),
        r"^need 0 <= y < s, got s=3.0, y=3.0$", id="lines_values_off_the_quadrant",
    ),
])
def test_a_bad_3d_input_raises_its_typed_error(call, message, flat_put):
    with pytest.raises(DomainError, match=message):
        call(flat_put[1])


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("empty", ["s_grid", "y_grid"])
def test_an_empty_surface_grid_raises_domain_error(kind, empty, monkeypatch):
    # an empty grid once raised a bare IndexError, and the put marched its
    # diagonal curve first
    build = {"call": build_call_surface, "put": build_put_surface}[kind]
    grids = {"s_grid": _S_NODES, "y_grid": _Y_NODES, empty: []}
    calls = []
    monkeypatch.setattr(solver3d, "diagonal_put_curve", calls.append)
    with pytest.raises(DomainError, match=f"^{empty} must be a one-dimensional grid"):
        build(_FLAT[kind], grids["s_grid"], grids["y_grid"])
    assert calls == []


def test_a_call_surface_checks_the_spec_before_the_edge_offset():
    # a put spec was told "s_grid must start above the edge offset"
    with pytest.raises(DomainError, match="^spec is a put model, not a call model$"):
        build_call_surface(_FLAT["put"], [1e-7, 1.0], [0.0, 0.5])


def test_drawdown_model_put_surface_orders_against_flat():
    # raising delta with the drawdown lowers the put barrier surface
    base = make_spec("put", ("constant", (0.02,)))
    rich = make_spec("put", ("bounded_rational", (0.02, 0.0, 0.01)))
    s_grid = np.linspace(0.1, 6.0, 49)
    y_grid = np.linspace(0.0, 4.0, 33)
    v0 = build_put_surface(base, s_grid, y_grid).values
    v1 = build_put_surface(rich, s_grid, y_grid).values
    both = np.isfinite(v0) & np.isfinite(v1)
    assert both.sum() > 300
    assert np.all(v1[both] <= v0[both] + 1e-9)


# ---------------------------------------------------------------------------
# bit-identity pin


def _pin_surface():
    spec = ModelSpec(
        r=0.3,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.1, 0.02, 0.05)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    s_grid = np.linspace(0.05, 20.0, 24)
    y_grid = np.linspace(0.0, 19.9, 16)
    return build_put_surface(spec, s_grid, y_grid)


def test_sloped_put_surface_matches_recorded_bits():
    """A small surface of a model sloped in s and y, pinned bit for bit.

    The digest and spot values were recorded from the one lane march, put
    lanes in log s, seeded from the diagonal curve marched down in log s;
    any change to the arithmetic shows up here.  The lanes in log(s - y)
    before it, seeded from the curve marched in s, gave values within
    4.3e-10 K of these.  The march that landed a step on every lattice
    level lost the y = 0 row, whose first node interval was shorter than
    its step floor.
    Recorded with numpy 2.4 on x86-64; a libm that rounds log or expm1
    differently can move the last bits.
    """
    import hashlib

    surf = _pin_surface()
    v = surf.values
    digest = hashlib.sha256(np.nan_to_num(v, nan=-1.0).tobytes()).hexdigest()
    assert int(np.isfinite(v).sum()) == 193
    assert {kind for kind, _ in surf.slice_status} == {"ok"}
    assert float(v[3, 1]).hex() == "0x1.ca9bd16342f66p-1"
    assert float(v[12, 5]).hex() == "0x1.c604b85f997aap-1"
    assert digest == "c1723094df08e0830f9c654e8ef408374e5fa16030e57291417b119ece7b3ec2"


def test_sloped_call_surface_matches_recorded_bits():
    """The call orientation of the march set-up, pinned bit for bit.

    Twin of the put pin above: a small surface whose first eight slices
    finish and whose other slices are flagged in their last node interval,
    with all three labels and a two-point cap curve.  The march that landed
    a step on every lattice level finished seven; the values both keep lie
    within 2.1e-9 K of each other, and the eighth slice's extra node is
    labelled stop.  Same caveat about the platform's libm as the put pin.
    """
    import hashlib

    spec = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="call",
        delta_field=CoefficientField("bounded_rational", (0.03, 0.01, 0.005)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    surf = build_call_surface(
        spec, np.linspace(0.05, 20.0, 24), np.linspace(0.0, 19.9, 16)
    )
    v = surf.values
    digest = hashlib.sha256(np.nan_to_num(v, nan=-1.0).tobytes()).hexdigest()
    assert int(np.isfinite(v).sum()) == 177
    assert digest == "ab9a7ba1dc4c8c390f8c7122c919465b2df5315c4b535ac42bc92d4c44baf740"
    assert [kd for kd, _ in surf.slice_status] == ["ok"] * 8 + ["step"] * 16
    assert [pos for _, pos in surf.slice_status[8:]] == [0.0] * 16
    labels = hashlib.sha256(surf.labels.tobytes()).hexdigest()
    assert labels == "3d46e5644231ae3d6d7016356a1b329b958d48a4c70a885f5c9eb4dc2fb10e27"
    cap = surf.cap_curve
    assert np.flatnonzero(np.isfinite(cap)).tolist() == [0, 1]
    assert [float(c).hex() for c in cap[:2]] == [
        "0x1.34adabbfd7f59p+1", "0x1.2f7f1ab6c63b4p+1"
    ]


def _solution_digests(sol):
    """SHA-256 digests of a solution's surface and reflection grids."""
    import hashlib

    def sha(b):
        return hashlib.sha256(b).hexdigest()

    def filled(a):
        return np.nan_to_num(np.asarray(a, float), nan=-1.0).tobytes()

    surf = sol.surface
    status = [(kind, float(pos).hex()) for kind, pos in surf.slice_status]
    switches = [
        {k: [(float(p).hex(), d) for p, d in rec[k]] for k in sorted(rec)}
        for rec in surf.slice_switches
    ]
    return {
        "values": sha(filled(surf.values)),
        "status": sha(repr(status).encode()),
        "labels": sha(surf.labels.tobytes()),
        "cap": sha(filled(surf.cap_curve)),
        "switches": sha(repr(switches).encode()),
        "grids": sha(b"".join(filled(c) for g in sol.regions for c in (g.C1, g.C2))),
    }


@pytest.mark.parametrize(
    "kind, delta, spot, c_spot, digests",
    [
        ("put", ("bounded_rational", (0.02, 0.0, 0.01)),
         "0x1.56928379f1289p-1",
         ((3, 0), "-0x1.2cd818a89f34ap-12", "0x1.1f03b9b9139a4p-3"),
         {"values": "b0cb80836f012475523d49d9db45a6c9d01540bc8271597f5517ec9d1b715a2d",
          "status": "faa934f092e56bb1a7806b6a776b0cdb7e59dc9f0a777f2132ebb7231905500f",
          "labels": "c70ed7bddb33e2aeccd2bdf02fc89c60761df3a247a8e4be7b3eb58e200e16fc",
          "cap": "91bd199085e6674ce313d8eb42087aeb1ff670f3e09ac329d24ef11ce25829ac",
          "switches": "51fd46bef88d1d27b667a76d0265e839e830e86e80bee06ffe5dd3978330efb0",
          "grids": "69ab7a6ebd7fae9d510891046f2de29db9c4729516c261d7fd0ef7f33f4b5c50"}),
        ("call", ("s_only", (0.02, 0.02)),
         "0x1.37124faaf57eap+1",
         ((0, 0), "0x1.2e50afa5d1433p-2", "0x0.0p+0"),
         {"values": "4b7a91ed8acbd0397ccbe4249848fe9618b30de8edf8d8ce2d5c6882d4edd49e",
          "status": "7769bee13de1a1a4c09da5c2c84c36a7851d6c30f963c9a8db1901a7ac909e94",
          "labels": "619f3edd7d8787480cb557f2a6d6d55ed2f13d194cd59fe6cb7443259a2650fa",
          "cap": "ee986e885ea014b85874222ca57a58c98a74244dfb8fa6162d56f6f5cbbceebb",
          "switches": "5bf69097533e294a83bfd528678771a1690ef0fb235819d92f4d7a8878cca64b",
          "grids": "18f6be9e0c11841ad827f45dfef451305ecf6e18329bd0c15fe3064e778b5d9f"}),
    ],
)
def test_vanishing_rhs_surfaces_match_recorded_bits(kind, delta, spot, c_spot, digests):
    """Solutions whose slice right-hand side vanishes, pinned bit for bit.

    The put's dividend depends on y only and the call's on s only, so no
    step of the surface march moves a slice off its seed: the nodes carry
    the seeds' bits whatever steps the march takes.  Recorded from the
    march that landed a step on every lattice level; the march in lane
    time must keep every bit.  The reflection grids were recorded again
    once the sparse LU took the unknowns in their natural order, which
    moved them by up to 6.9e-15 (put) and 1.4e-14 (call) of max|C|; the
    spot coefficients kept their bits.  Same caveat about the platform's
    libm as the surface pins.  The put's seeds come from the diagonal
    curve, so its pins were recorded again when the curve moved to the one
    lane march in log s: values, switches and cap curve by up to 7.1e-13 K,
    the reflection grids by up to 1.8e-12 of max|C|; status and labels
    kept their bits.  The reflection grids were recorded again once the
    regions were solved by the block sweep instead of the sparse LU: by up
    to 5.2e-15 (put) and 4.6e-15 (call) of max|C|, which moved the spot C1
    of each in its last bits; the surfaces kept theirs.
    """
    cls = PutSolution3D if kind == "put" else CallSolution3D
    sol = cls(make_spec(kind, delta), n_s=65, n_y=49)
    v = sol.surface.values
    assert int(np.isfinite(v).sum()) == 1601
    assert {kd for kd, _ in sol.surface.slice_status} == {"ok"}
    assert float(v[45, 29]).hex() == spot
    assert len(sol.regions) == 1
    node, c1, c2 = c_spot
    g = sol.regions[0]
    assert (float(g.C1[node]).hex(), float(g.C2[node]).hex()) == (c1, c2)
    assert _solution_digests(sol) == digests


@pytest.mark.parametrize("order", ["F", "C"])
def test_level_at_matches_clamped_bilinear_formula_bit_for_bit(order):
    # put surfaces store their values transposed (Fortran order), call
    # surfaces in C order; the lookup must index both correctly
    pin = _pin_surface()
    surf = BoundarySurface(
        pin.s_grid, pin.y_grid, np.asarray(pin.values, order=order), "put"
    )
    f = surf.filled_values()
    assert f.flags[order + "_CONTIGUOUS"]
    sg, yg = surf.s_grid, surf.y_grid
    rng = np.random.default_rng(4)
    # interior points, exact nodes, points off the box and a NaN
    s = np.concatenate([rng.uniform(-1.0, 22.0, 400), sg, [sg[0], sg[-1], np.nan]])
    y = np.concatenate([
        rng.uniform(-1.0, 21.0, 400), yg[rng.integers(0, yg.size, sg.size)],
        [yg[-1], yg[0], 1.0],
    ])
    # the plain formula: clip, searchsorted cell index, bilinear blend
    sc = np.clip(s, sg[0], sg[-1])
    yc = np.clip(y, yg[0], yg[-1])
    i = np.clip(np.searchsorted(sg, sc) - 1, 0, sg.size - 2)
    j = np.clip(np.searchsorted(yg, yc) - 1, 0, yg.size - 2)
    ts = (sc - sg[i]) / (sg[i + 1] - sg[i])
    ty = (yc - yg[j]) / (yg[j + 1] - yg[j])
    want = (
        (1 - ts) * (1 - ty) * f[i, j]
        + ts * (1 - ty) * f[i + 1, j]
        + (1 - ts) * ty * f[i, j + 1]
        + ts * ty * f[i + 1, j + 1]
    )
    got = surf.level_at(s, y)
    assert np.array_equal(got, want, equal_nan=True)
    # scalars take the same route
    assert surf.level_at(3.0, 1.0) == surf.level_at(np.array([3.0]), np.array([1.0]))[0]


# ---------------------------------------------------------------------------
# the slice entry points and the query re-march, pinned to recorded bits

# direct-line ranges of (s, s - y) per payoff, inside each fixture's band
_DIRECT_LINES = {"call": ((3.0, 8.0), (0.3, 2.0)), "put": ((1.0, 8.0), (0.05, 0.5))}


def _digest(a):
    import hashlib

    filled = np.nan_to_num(np.asarray(a, float), nan=-1.0)
    return hashlib.sha256(filled.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "kind, digest, first",
    [
        ("call", "c876c799e92ad92a06076785b1e81174141b5464c5053730b099a2c11eb042d3",
         "0x1.3ecc5695989bdp+1"),
        ("put", "81a0d5c07216fd86aeeed4a08d27f6e32cc87bb5b71a28c17aafeb6cf3fc9bfb",
         "0x1.57738c82334b6p-1"),
    ],
)
def test_direct_line_levels_match_recorded_bits(kind, digest, first, request):
    """Re-marched levels of 48 direct lines.  The call's were recorded from
    the dedicated query march that preceded the shared line march, and its
    slice right-hand side vanishes, so no stepper moves them.  The put's
    were recorded from the one lane march in log s with the query point as
    its only node: within 5.6e-12 K of the diagonal curve at s, which the
    levels of this s-only model equal, where the line march in s before it
    was within 2.5e-11 K (the two differ by up to 2.6e-11 K).  Same caveat
    about the platform's libm as the surface pins."""
    spec, sol = request.getfixturevalue("sloped_" + kind)
    rng = np.random.default_rng(5)
    s_range, floor_range = _DIRECT_LINES[kind]
    s = rng.uniform(*s_range, 48)
    y = s - rng.uniform(*floor_range, 48)
    levels = np.array([sol.boundary(a, b) for a, b in zip(s, y)])
    assert all(sol.branch(a, b) == "direct" for a, b in zip(s, y))
    # every level is re-marched, not read off the lattice
    smooth = np.array([sol.surface.level_smooth(a, b) for a, b in zip(s, y)])
    assert np.all(levels != smooth)
    assert float(levels[0]).hex() == first
    assert _digest(levels) == digest


def test_slice_entry_points_match_recorded_bits():
    # the call half was recorded from the per-slice march that preceded the
    # shared line march (its right-hand side vanishes); the put half from
    # the one lane march at the surface's plain target, within 7.2e-10 K of
    # the diagonal curve, which this s-only model's slice equals (the line
    # march before it, at the curve's dense target, was within 2.7e-12 K)
    call = call_boundary_slice(
        make_spec("call", ("s_only", (0.02, 0.02))), 4.0, np.linspace(3.9, 0.0, 40)
    )
    put = put_boundary_slice(
        make_spec("put", ("s_only", (0.02, 0.01))), 0.5, np.linspace(0.6, 8.0, 75)
    )
    assert float(call[10]).hex() == "0x1.49986b693bbd3p+1"
    assert _digest(call) == (
        "a48ebaa725e4280b11bae09ce19ad7f56fa163527d72ee186dbe64a291e5e437"
    )
    assert float(put[10]).hex() == "0x1.5b4f21a50ff06p-1"
    assert _digest(put) == (
        "848c413edb08fa6c6d2603e21d3937723040a5b11e9d7d126c531f43b6f4e99a"
    )


def test_direct_query_remarches_once(sloped_put, monkeypatch):
    # no level is cached: each query re-marches its line exactly once
    from drawdown_options import solver3d

    _, sol = sloped_put
    s, y = 3.1, 2.9
    calls = []
    march = solver3d._boundary_slice

    def counted(*args):
        calls.append(1)
        return march(*args)

    monkeypatch.setattr(solver3d, "_boundary_slice", counted)
    for query in (
        lambda: sol.value(3.0, s, y),
        lambda: sol.value_line(np.array([2.5, 3.0]), s, y),
        lambda: sol.line(s, y),
        lambda: sol.boundary(s, y),
    ):
        calls.clear()
        query()
        assert len(calls) == 1


def test_a_put_build_marches_its_diagonal_curve_once(monkeypatch):
    # the surface keeps the curve its slices were seeded from: a put build
    # marches it once, a direct query (past its slice start or before it)
    # and a call build never, and a public put slice once per call
    calls = []
    curve = solver3d.diagonal_put_curve

    def counted(spec):
        calls.append(spec)
        return curve(spec)

    monkeypatch.setattr(solver3d, "diagonal_put_curve", counted)
    put = make_spec("put", ("s_only", (0.02, 0.01)))
    build_put_surface(put, np.linspace(0.05, 20.0, 24), np.linspace(0.0, 19.9, 16))
    assert calls == [put]
    calls.clear()
    sol = PutSolution3D(put, n_s=33, n_y=25)
    assert calls == [put]
    calls.clear()
    for s, y in ((3.1, 2.9), (1.0, 1.0 - 5e-7)):
        assert sol.branch(s, y) == "direct"
        sol.value(s - 0.1 * y, s, y)
    assert sol.lines([3.1, 1.0], [2.9, 1.0 - 5e-7]).branch.tolist() == ["direct"] * 2
    CallSolution3D(make_spec("call", ("s_only", (0.02, 0.02))), n_s=33, n_y=25)
    assert calls == []
    for _ in range(2):
        put_boundary_slice(put, 0.5, np.linspace(0.6, 3.0, 5))
    assert calls == [put, put]


def test_direct_queries_march_no_curve_however_many_solutions_live(monkeypatch):
    # each of ten live put solutions seeds its direct queries from its own
    # surface, on every round, so no query marches a maximum-only curve
    from drawdown_options import solver2d

    sols = [
        PutSolution3D(make_spec("put", ("s_only", (0.02 + 0.001 * k, 0.01))), n_s=33, n_y=25)
        for k in range(10)
    ]
    calls = []
    march = solver2d.put_boundary_2d

    def counted(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(solver2d, "put_boundary_2d", counted)
    for _ in range(2):
        for sol in sols:
            assert sol.branch(3.1, 2.9) == "direct"
    assert calls == []


# ---------------------------------------------------------------------------
# the lane march: cost follows the controller, failures are counted


def _count_surface_steps(monkeypatch, build, spec, n_s, n_y):
    # the one lane march steps through solver2d's checked_step, the put's
    # diagonal curve included, so the build takes a curve built before the
    # count
    from drawdown_options import solver2d

    if spec.payoff_kind == "put":
        curve = diagonal_put_curve(spec)
        monkeypatch.setattr(solver3d, "diagonal_put_curve", lambda spec: curve)
    calls = []
    step = solver2d.checked_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver2d, "checked_step", counted)
    build(spec, np.linspace(0.05, 20.0, n_s), np.linspace(0.0, 19.9, n_y))
    monkeypatch.setattr(solver2d, "checked_step", step)
    return len(calls)


def test_surface_steps_follow_the_controller_not_the_lattice(monkeypatch):
    # all slices march together in lane time and read their nodes from the
    # steps' continuous extensions, so a fine lattice costs about as many
    # steps as a coarse one (67 and 69 on the s-sloped put)
    spec = make_spec("put", ("s_only", (0.02, 0.01)))
    coarse = _count_surface_steps(monkeypatch, build_put_surface, spec, 24, 16)
    fine = _count_surface_steps(monkeypatch, build_put_surface, spec, 256, 256)
    assert 0 < fine <= 2 * coarse


@pytest.mark.parametrize(
    "kind, delta",
    [("put", ("bounded_rational", (0.02, 0.0, 0.01))), ("call", ("s_only", (0.02, 0.02)))],
)
def test_vanishing_rhs_surface_takes_no_step(kind, delta, monkeypatch):
    # neither field varies along the slices, so the right-hand side
    # vanishes, every slice keeps its seed and the march takes no step
    build = build_put_surface if kind == "put" else build_call_surface
    steps = _count_surface_steps(monkeypatch, build, make_spec(kind, delta), 256, 256)
    assert steps == 0


@pytest.mark.parametrize(
    "kind, delta",
    [
        ("put", ("s_only", (0.02, 0.01))),
        ("put", ("bounded_rational", (0.02, 0.0, 0.01))),
        ("call", ("bounded_rational", (0.02, 0.01, 0.01))),
        ("call", ("s_only", (0.02, 0.02))),
    ],
)
def test_a_slice_whose_only_node_is_its_start_takes_its_seed(kind, delta):
    # its lane time has zero length, so the node sits at tau = 0: a sloped
    # slice and a still one alike take the seed, with no 0/0 (which warned
    # and left the node NaN under an "ok" status)
    spec, eps = make_spec(kind, delta), solver3d.EDGE_FRACTION
    if kind == "put":
        fixed, start = 1.0, 1.0 + eps
        surf = build_put_surface(spec, [0.5, start], [0.0, fixed])
        at, two = surf.values[1, 1], put_boundary_slice(spec, fixed, [start, 2.0])
        one = put_boundary_slice(spec, fixed, [start])
    else:
        fixed, start = 2.0, 2.0 - eps
        surf = build_call_surface(spec, [1.0, fixed], [0.5, start])
        at, two = surf.values[1, 1], call_boundary_slice(spec, fixed, [start, 0.5])
        one = call_boundary_slice(spec, fixed, [start])
    assert surf.slice_status[1] == ("ok", pytest.approx(np.nan, nan_ok=True))
    assert at.hex() == two[0].hex() == one[0].hex()


def test_sloped_put_keeps_the_y0_row(sloped_put):
    # the y = 0 slice starts at s = 1e-6 K, where the put slope carries a
    # log s factor; a put lane marches in log s, so the controller can
    # take the short steps it needs there
    _, sol = sloped_put
    surf = sol.surface
    assert surf.slice_status[0][0] == "ok"
    assert np.all(np.isfinite(surf.values[:, 0]))


@pytest.mark.parametrize(
    "delta", [("s_only", (0.02, 0.01)), ("bounded_rational", (0.02, 0.01, 0.01))]
)
def test_surface_nodes_follow_the_flow(delta, monkeypatch):
    # every node comes from a step's continuous extension; at the plain
    # target the nodes stay within 1e-9 K of the same march at a 1e-13
    # target (6.7e-10 and 4.5e-10 K)
    from drawdown_options import odestep

    spec = make_spec("put", delta)
    # the default lattice of PutSolution3D
    s_grid = np.linspace(1e-2, spec.domain_s_max, 193)
    y_grid = np.linspace(0.0, spec.domain_s_max - 2e-6, 129)
    # the seeds come from one diagonal curve, built at the plain target
    curve = diagonal_put_curve(spec)
    monkeypatch.setattr(solver3d, "diagonal_put_curve", lambda spec: curve)
    surf = build_put_surface(spec, s_grid, y_grid).values
    monkeypatch.setattr(odestep, "STEP_REL_TOL", 1e-13)
    ref = build_put_surface(spec, s_grid, y_grid).values
    assert np.array_equal(np.isfinite(surf), np.isfinite(ref))
    assert np.nanmax(np.abs(surf - ref)) < 1e-9


def test_cut_remarch_raises_its_typed_error(monkeypatch):
    # a direct line's value stands on its own re-marched level: a cut lane
    # raises the error of its status instead of taking the lattice's level
    from drawdown_options import odestep, solver3d
    from drawdown_options.errors import ConstraintBreach, StepError

    spec = make_spec("put", ("s_only", (0.02, 0.01)))
    sol = PutSolution3D(spec, n_s=65, n_y=49)
    s, y = 3.1, 2.9
    assert sol.branch(s, y) == "direct"
    # a per-step target that no step meets cuts the lane at the floor, on
    # every query of the line, a repeat included
    with monkeypatch.context() as m:
        m.setattr(odestep, "STEP_REL_TOL", 0.0)
        for _ in range(2):
            with pytest.raises(StepError, match="at the shortest step at s=3.1"):
                sol.boundary(s, y)
    assert sol.branch(s, y) == "direct"

    def breached(stage, g, tau, *rest):
        # tau is the float 1.0 for a direct line's one node
        return np.full(np.size(tau), np.nan), [("constraint", 0)], 0.0

    monkeypatch.setattr(solver3d, "_march_lanes", breached)
    with pytest.raises(ConstraintBreach, match=r"left \(0, min\(L, rL/delta\)\)"):
        sol.line(s, y)


def test_long_direct_lines_are_remarched():
    # the re-march runs in lane time, so its cost no longer grows with the
    # line's length and no direct line is left to the interpolated level;
    # an s-only call's slice right-hand side vanishes, so the level is the
    # critical level of the line's own roots, bit for bit (the lattice
    # level is about 1e-9 K off)
    spec = make_spec("call", ("s_only", (0.005, 0.002)))
    sol = CallSolution3D(spec, n_s=65, n_y=49)
    for s, y in ((14.0, 2.8636), (17.0, 5.5), (20.0, 8.5)):
        assert s - y > 8.0 * spec.strike
        assert sol.branch(s, y) == "direct"
        g1, g2, *_ = roots_arrays(spec, s, y)
        crit = float(_critical_level(g1, g2, spec.strike, 1.0))
        assert sol.boundary(s, y) == crit
        assert sol.surface.level_smooth(s, y) != crit


def test_slice_integrates_where_the_line_march_raised():
    # the line march that preceded the lane march checked the denominator
    # inside the right-hand side, so a try heading far past a sign change,
    # which the controller would have rejected anyway, raised a singular
    # denominator error ("near 4") on this slice; the one march checks the
    # nodes it fills, and every node follows a DOP853 march in log s
    from scipy.integrate import solve_ivp

    from drawdown_options.coefficients import _roots_along
    from drawdown_options.solver2d import EDGE_FRACTION, OdeStage

    spec = ModelSpec(
        r=0.3,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.1, 0.02, 0.05)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    nodes = np.linspace(0.05, 20.0, 24)
    got = put_boundary_slice(spec, 0.0, nodes)
    assert np.all(np.isfinite(got))

    def slope(u, g):
        s = np.exp(u)
        g1, g2, dg1, dg2 = _roots_along(spec, s, 0.0, "s")
        return [s * OdeStage(g1, g2, dg1, dg2, s, spec.strike)(g[0])]

    start = EDGE_FRACTION * spec.strike
    seed = float(diagonal_put_curve(spec)(start))
    ref = solve_ivp(
        slope, (np.log(start), np.log(nodes[-1])), [seed], method="DOP853",
        t_eval=np.log(nodes), rtol=1e-13, atol=1e-16,
    )
    assert ref.success
    assert np.max(np.abs(got - ref.y[0])) < 1e-9 * spec.strike


def test_step_tolerance_constant_reaches_every_march(sloped_put, monkeypatch):
    # one per-step target, read by each march as it starts: the 2D curve,
    # the surface march and a direct query's re-march all see a patch of it
    from drawdown_options import odestep
    from drawdown_options.errors import StepError
    from drawdown_options.solver2d import put_boundary_2d

    spec, sol = sloped_put
    s, y = 3.1, 2.9
    assert sol.branch(s, y) == "direct"
    grids = np.linspace(0.05, 20.0, 24), np.linspace(0.0, 19.9, 16)
    # the seeds come from a diagonal curve built beforehand, which a patched
    # target would fail to march
    curve = diagonal_put_curve(spec)
    monkeypatch.setattr(solver3d, "diagonal_put_curve", lambda spec: curve)
    assert "ok" in [kind for kind, _ in build_put_surface(spec, *grids).slice_status]

    monkeypatch.setattr(odestep, "STEP_REL_TOL", 0.0)
    with pytest.raises(StepError):
        put_boundary_2d(spec)
    status = build_put_surface(spec, *grids).slice_status
    assert {kind for kind, _ in status} == {"step"}
    with pytest.raises(StepError):
        sol.boundary(s, y)

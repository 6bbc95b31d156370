"""Each float path of a one-point query against its array path, bit for bit.

A query at one point runs on Python floats (or numpy scalars, which are
floats): the quadrant check, the characteristic roots, one lane of the
boundary ODE's stage, the boundary curve, a direct line's re-march to its
one node and the value along a line.  Each must give what its array path
gives for the same point inside an array, compared as ``float.hex``, and
raise where the array path raises.
"""

import dataclasses
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drawdown_options import (
    CoefficientField,
    ConstraintBreach,
    DomainError,
    ModelSpec,
    NonPositiveCoefficient,
    StepError,
    call_boundary_slice,
    put_boundary_2d,
    put_boundary_slice,
    roots,
    roots_arrays,
)
from drawdown_options import coefficients, odestep, solver2d, solver3d
from drawdown_options.coefficients import _roots_along, check_quadrant
from drawdown_options.solver2d import OdeStage
from test_line_batch import MODELS, solution

_ARITY = {"constant": 1, "s_only": 2, "bounded_rational": 3}


@st.composite
def _field(draw, c0):
    family = draw(st.sampled_from(sorted(_ARITY)))
    # slopes no lower than -0.45 c0 each keep the field above 0.1 c0
    slopes = draw(st.lists(st.floats(-0.45 * c0, 0.5), min_size=2, max_size=2))
    return CoefficientField(family, (c0, *slopes)[: _ARITY[family]])


@st.composite
def _spec(draw):
    delta = draw(_field(draw(st.floats(0.005, 0.2))))
    sigma = draw(_field(draw(st.floats(0.05, 0.6))))
    try:
        return ModelSpec(draw(st.floats(0.005, 0.2)), 1.0, "put", delta, sigma)
    except NonPositiveCoefficient:  # a slope can still reach the audit floor
        return ModelSpec(0.06, 1.0, "put", delta, CoefficientField("constant", (0.2,)))


def _hexes(values):
    return [float(v).hex() for v in values]


def _scalars(s, y):
    """The point as Python floats and as numpy scalars."""
    return ((s, y), (np.float64(s), np.float64(y)))


# ---------------------------------------------------------------------------
# the quadrant check


_COORD = st.one_of(
    st.floats(-2.0, 30.0),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300]),
)


def _raises(check, *args):
    try:
        check(*args)
    except DomainError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(s=_COORD, y=_COORD)
def test_check_quadrant_on_floats_passes_or_raises_as_on_arrays(s, y):
    # NaN entries pass on both paths: lanes past a breach carry them
    want = _raises(check_quadrant, np.array([1.0, s]), np.array([0.5, y]))
    for a, b in _scalars(s, y):
        assert _raises(check_quadrant, a, b) == want
    if np.isnan(s) and not y < 0 or np.isnan(y) and s > 0:
        assert not want


# ---------------------------------------------------------------------------
# the characteristic roots


@settings(max_examples=200, deadline=None)
@given(
    spec=_spec(),
    s=st.floats(1e-3, 30.0),
    frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
)
def test_roots_on_floats_equal_the_array_entry_bit_for_bit(spec, s, frac):
    # all three field families for delta and sigma, sigma y-dependent too
    y = s * frac
    ss, ys = np.array([2.0, s, 0.5 * s]), np.array([1.0, y, 0.25 * s])
    want = _hexes(v[1] for v in roots_arrays(spec, ss, ys))
    along = {
        wrt: _hexes(v[1] for v in _roots_along(spec, ss, ys, wrt)) for wrt in ("s", "y", None)
    }
    for a, b in _scalars(s, y):
        got = roots_arrays(spec, a, b)
        assert _hexes(got) == want
        assert all(isinstance(v, float) for v in got)
        for wrt, one in along.items():
            assert _hexes(_roots_along(spec, a, b, wrt)) == one


@pytest.mark.parametrize(
    "s, y", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (2.0, np.nan), (2.0, np.inf)]
)
def test_roots_at_a_non_finite_point_raise_domain_error(s, y):
    # a NaN s once failed the root ordering check with a plain ValueError
    spec = ModelSpec(
        0.06, 1.0, "put",
        CoefficientField("constant", (0.03,)), CoefficientField("constant", (0.2,)),
    )
    with pytest.raises(DomainError, match=r"need finite s and y, got s=.*, y="):
        roots(spec, s, y)


# ---------------------------------------------------------------------------
# one lane of the boundary ODE's stage


@settings(max_examples=150, deadline=None)
@given(
    g1=st.floats(1.01, 8.0), g2=st.floats(-8.0, -0.05),
    dg1=st.floats(-2.0, 2.0), dg2=st.floats(-2.0, 2.0),
    ref=st.floats(0.05, 20.0), strike=st.sampled_from([1.0, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ode_stage_on_floats_equals_its_array_lanes_bit_for_bit(
    g1, g2, dg1, dg2, ref, strike, seed
):
    # levels at u = log(ref / level) inside and around the series' 1e-6,
    # ordinary, and about the +-700 clamp of (g1 - g2) u; and levels of 0,
    # -0 and below, where both paths give NaN (a rejected try is retried)
    rng = np.random.default_rng(seed)
    clamp = 700.0 / (g1 - g2)
    mag = np.concatenate([
        rng.uniform(0.0, 2e-6, 16), rng.uniform(0.9e-6, 1.1e-6, 8),
        10.0 ** rng.uniform(-6.0, 0.5, 32), clamp * rng.uniform(0.98, 1.5, 8),
    ])
    u = mag * rng.choice([-1.0, 1.0], mag.size)
    with np.errstate(over="ignore"):  # past the clamp, exp(-u) may overflow
        levels = np.concatenate([ref * np.exp(-u), [0.0, -0.0, -0.3, -ref]])
    args = (g1, g2, dg1, dg2, ref)
    arrays = OdeStage(*(np.full(levels.size, v) for v in args), strike)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = arrays(levels)
        for scalar in (float, np.float64):
            stage = OdeStage(*(scalar(v) for v in args), strike)
            for k, level in enumerate(levels.tolist()):
                got = stage(scalar(level))
                assert isinstance(got, float)
                if level > 0.0:
                    assert float(got).hex() == want[k].hex()
                else:
                    assert np.isnan(got) and np.isnan(want[k])


# ---------------------------------------------------------------------------
# the value along one line


@lru_cache(maxsize=None)
def _lines(name, kind):
    """The lines on a 24 x 9 probe grid of the state space, by branch."""
    sol = solution(name, kind)
    out = {"stop": [], "direct": [], "reflect": []}
    for s in np.geomspace(0.05, 19.0, 24).tolist():
        for frac in np.linspace(0.05, 0.95, 9).tolist():
            ln = sol.line(s, frac * s)
            out[ln.branch].append(ln)
    return out


@st.composite
def _line_case(draw):
    model = draw(st.sampled_from([m for m in MODELS if m[0] in ("s_only", "vol")]))
    branch = draw(st.sampled_from(["stop", "direct", "reflect"]))
    lines = _lines(*model)[branch]
    ln = lines[draw(st.integers(0, len(lines) - 1))]
    slack = 1e-9 * ln.spec.strike
    lo, hi = ln.s - ln.y, ln.s
    x = draw(st.one_of(
        st.sampled_from([lo, hi, lo - 0.5 * slack, hi + 0.5 * slack,
                         lo - 2.0 * slack, hi + 2.0 * slack, np.nan]),
        st.floats(lo, hi),
    ))
    if branch == "direct" and draw(st.booleans()):
        x = min(max(ln.level, lo), hi)  # on the level: the stopped side's edge
    return ln, x


@settings(max_examples=300, deadline=None)
@given(case=_line_case())
def test_line_value_equals_values_of_one_point_bit_for_bit(case):
    ln, x = case
    for a in (x, np.float64(x)):
        try:
            want = ln.values(np.array([a]))[0]
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                ln.value(a)
            continue
        got = ln.value(a)
        assert type(got) is float
        assert got.hex() == float(want).hex()


def test_line_value_draws_every_branch_of_both_kinds():
    for model in MODELS:
        if model[0] in ("s_only", "vol"):
            assert all(_lines(*model).values()), model


def test_line_value_rejects_a_line_off_the_quadrant_as_values_does():
    ln = solution("s_only", "put").line(2.0, 0.5)
    for bad in (dataclasses.replace(ln, y=ln.s), dataclasses.replace(ln, y=-0.1)):
        with pytest.raises(DomainError, match="need 0 <= y < s"):
            bad.values(np.array([1.9]))
        with pytest.raises(DomainError, match="need 0 <= y < s"):
            bad.value(1.9)


# ---------------------------------------------------------------------------
# the boundary curve at one point


@lru_cache(maxsize=None)
def _curve():
    """The diagonal curve a y-only put's surface was seeded from."""
    return solution("y_only", "put").surface._seed_curve


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_boundary_curve_on_a_float_equals_its_array_entry_bit_for_bit(data):
    # inside the range, on its ends, within and past the 1e-12 slack on
    # either side, and not finite; a float and a numpy scalar take the
    # float path and give a float
    curve = _curve()
    lo, hi = curve._range
    s = data.draw(st.one_of(
        st.floats(lo, hi),
        st.sampled_from([lo, hi, lo - 5e-13, hi + 5e-13, lo - 2e-12, hi + 2e-12,
                         0.0, 30.0, np.nan, np.inf, -np.inf]),
    ))
    try:
        want = curve(np.array([s]))[0]
    except DomainError as exc:
        message = str(exc).replace("s[0]=", "s=")
        for a in (s, np.float64(s)):
            with pytest.raises(DomainError, match=re.escape(message) + "$"):
                curve(a)
        return
    for a in (s, np.float64(s)):
        got = curve(a)
        assert type(got) is float
        assert got.hex() == float(want).hex()


@pytest.mark.parametrize("s, message", [
    (np.nan, "need a finite s, got s=nan"),
    (-np.inf, "need a finite s, got s=-inf"),
    (20.0 + 2e-12, "query s=20.000000000002 outside the sampled range [1e-06, 20.0] "
                   "of the boundary curve"),
    (1e-6 - 2e-12, "query s=9.99998e-07 outside the sampled range [1e-06, 20.0] "
                   "of the boundary curve"),
])
def test_boundary_curve_names_a_point_it_rejects(s, message):
    curve = _curve()
    for a in (s, np.float64(s)):
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            curve(a)
    with pytest.raises(DomainError, match=re.escape(message.replace("s=", "s[1]=")) + "$"):
        curve(np.array([1.0, s]))


def test_a_direct_put_line_past_the_curve_names_its_seed_and_the_range():
    # past domain_s_max (20) the interpolated level of this line reads
    # direct, and its re-march needs a seed the diagonal curve never sampled
    sol = solution("y_only", "put")
    s, y = 30.0, 29.5
    assert s - y <= sol.surface.level_smooth(s, y) <= s
    message = (
        "re-marched put boundary of the line s=30, y=29.5, seeded at s=29.500001: "
        "query s=29.500001 outside the sampled range [1e-06, 20.0] of the boundary curve"
    )
    for query in (sol.line, sol.boundary, sol.branch):
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            query(s, y)


# ---------------------------------------------------------------------------
# a direct line's re-march: one node, on floats


@st.composite
def _direct_line(draw):
    # a y-only put and an s-only call march in one step (their slice's
    # right-hand side vanishes), an s-only put and a y-only call in several
    model = draw(st.sampled_from([(n, k) for n in ("y_only", "s_only") for k in ("put", "call")]))
    lines = _lines(*model)["direct"]
    ln = lines[draw(st.integers(0, len(lines) - 1))]
    s = ln.s * draw(st.floats(0.99, 1.01))
    y = ln.y * draw(st.floats(0.99, 1.01))
    return solution(*model), s, y


def _slice_args(sol, s, y):
    """(o, spec, curve, fixed) of the line's slice, its start and its node."""
    o = sol._o
    fixed, t = o.swap(s, y)
    start = fixed + o.direction * solver3d.EDGE_FRACTION * sol.spec.strike
    return (o, sol.spec, sol.surface._seed_curve, fixed), start, t


@settings(max_examples=150, deadline=None)
@given(case=_direct_line(), fracs=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_a_direct_line_is_the_last_node_of_its_lane_marched_through_arrays(case, fracs):
    # the node's lane time is 1 whichever nodes come before it, so the
    # controller takes the same steps and the landing step's extension
    # gives the same bits
    sol, s, y = case
    ln = sol.line(s, y)
    args, start, t = _slice_args(sol, s, y)
    assume(ln.branch == "direct" and args[0].direction * (t - start) > 0)
    d = args[0].direction
    nodes = np.unique(start + np.array(fracs) * (t - start))
    nodes = nodes[(d * (nodes - start) > 0) & (d * (t - nodes) > 0)]
    nodes = np.append(nodes if d > 0 else nodes[::-1], t)
    levels, status = solver3d._boundary_slice(*args, nodes)
    assert status[0] == "ok"
    level, status = solver3d._boundary_slice(*args, t)
    assert status[0] == "ok" and type(level) is float
    assert ln.level.hex() == level.hex() == levels[-1].hex()


def _tight_band(o, t):
    """o with a band that no level meets at the line's node or past it."""
    def band(spec, s, y):
        lo, hi = o.band(spec, s, y)
        past = o.direction * (o.swap(s, y)[1] - t) >= 0
        return lo, np.where(past, lo, hi)

    return dataclasses.replace(o, band=band)


@settings(max_examples=60, deadline=None)
@given(case=_direct_line(), fault=st.sampled_from(["seed", "level", "step"]))
def test_a_cut_direct_line_raises_what_its_one_node_array_lane_reports(case, fault):
    # a seed outside its band, the node's level outside its band, and a
    # step that misses its target at the floor (a lane whose right-hand
    # side vanishes meets any target, and is not cut): the float node's
    # status and level equal those of the same lane with the node in an
    # array, and the query raises that status's typed error
    sol, s, y = case
    args, start, t = _slice_args(sol, s, y)
    assume(sol.line(s, y).branch == "direct" and args[0].direction * (t - start) > 0)
    o = args[0]
    with pytest.MonkeyPatch.context() as m:
        if fault == "seed":
            m.setattr(solver3d, "_diagonal_seeds", lambda *a: 0.0)
        elif fault == "level":
            o = _tight_band(o, t)
            m.setattr(sol, "_o", o)
        else:
            m.setattr(odestep, "STEP_REL_TOL", 0.0)
        levels, want = solver3d._boundary_slice(o, *args[1:], np.array([t]))
        level, got = solver3d._boundary_slice(o, *args[1:], t)
        assert float(level).hex() == levels[0].hex() or np.isnan(level) and np.isnan(levels[0])
        assert got == want or got[0] == want[0] == "ok"
        if got[0] == "ok":
            assert fault == "step" and sol.line(s, y).level.hex() == level.hex()
            return
        kind, at = got
        how = {"constraint": f"left {o.band_text}",
               "step": "failed its error check at the shortest step"}[kind]
        error = {"constraint": ConstraintBreach, "step": StepError}[kind]
        message = (f"re-marched {o.kind} boundary of the line s={s:g}, y={y:g} {how} "
                   f"at {o.moving}={at:g}")
        with pytest.raises(error, match=re.escape(message) + "$"):
            sol.line(s, y)
    assert (kind, at) == {"seed": ("constraint", start), "level": ("constraint", t),
                          "step": ("step", t)}[fault]


def _one_lane_marches(two_lanes):
    """_march_lanes recording each many-node one-lane march, in either form.

    With two_lanes, such a march runs as lane 0 of two equal lanes of an
    array march (their error estimates agree, so the controller takes the
    one lane's steps), and lane 0's levels and status come back with the
    status's node index counted along lane 0.
    """
    march, seen = solver2d._march_lanes, []

    def recorded(stage, g, tau, lane, band, tol, scale):
        if not isinstance(g, float) or isinstance(tau, float):
            return march(stage, g, tau, lane, band, tol, scale)
        if not two_lanes:
            out = march(stage, g, tau, lane, band, tol, scale)
        else:
            levels, ((kind, c), twin), worst = march(
                stage, np.array([g, g]), np.repeat(tau, 2), np.tile([0, 1], tau.size),
                tuple(np.repeat(b, 2) if np.ndim(b) else b for b in band), tol, scale,
            )
            assert twin == (kind, c + 1 if c >= 0 else c)
            out = levels[0::2], [(kind, c // 2 if c >= 0 else c)], worst
        seen.append(out)
        return out

    return recorded, seen


def _narrowed(o, past):
    """o with an empty band at every node where past(moving coordinate) holds."""
    def band(spec, s, y):
        lo, hi = o.band(spec, s, y)
        return lo, np.where(past(o.swap(s, y)[1]), lo, hi)

    return dataclasses.replace(o, band=band)


@example(  # a still lane (slope 0): no step, every node its seed
    kind="put_slice", fault="ok", n=12, cut=0.5, c0=0.02, slope=0.0, at=0.5,
)
@example(kind="put_slice", fault="band", n=12, cut=0.5, c0=0.02, slope=0.0, at=0.5)
@settings(max_examples=45, deadline=None)
@given(
    kind=st.sampled_from(["put_slice", "call_slice", "put_2d"]),
    fault=st.sampled_from(["ok", "band", "step"]),
    n=st.integers(2, 60),
    cut=st.floats(0.0, 1.0),
    c0=st.floats(0.018, 0.022),
    slope=st.floats(0.0, 0.012),
    at=st.floats(0.1, 0.9),
)
def test_a_many_node_lane_equals_lane_0_of_two_equal_lanes(kind, fault, n, cut, c0, slope, at):
    # the one-lane march band-checks a step's nodes at once and writes them
    # through a slice; the array march checks and writes them lane by lane:
    # level for level and status for status they agree, on an ok lane, a
    # lane cut by its band and a lane cut at the floor; the put slice's
    # dividend slopes along it (a zero slope makes it still), the call
    # slice's across it, so the call slice is still
    eps = solver3d.EDGE_FRACTION
    sigma = CoefficientField("constant", (0.2,))
    if kind == "call_slice":
        spec = ModelSpec(0.06, 1.0, "call", CoefficientField("s_only", (c0 + 0.01, slope)), sigma)
        o, s = coefficients._CALL, 1.0 + 7.0 * at
        nodes = np.linspace(s - eps - 0.01, 0.0, n)
        module, run = solver3d, lambda: call_boundary_slice(spec, s, nodes)
    elif kind == "put_slice":
        spec = ModelSpec(0.06, 1.0, "put", CoefficientField("s_only", (c0, slope)), sigma)
        o, y = coefficients._PUT, 4.0 * at
        nodes = y + eps + np.linspace(0.01, 6.0, n)
        module, run = solver3d, lambda: put_boundary_slice(spec, y, nodes)
    else:
        spec = ModelSpec(0.06, 1.0, "put", CoefficientField("s_only", (c0, slope)), sigma)
        o, nodes = coefficients._PUT, solver2d.default_put_grid(spec, 8 + 4 * n)
        module, run = solver2d, lambda: put_boundary_2d(spec, nodes).values
    edge = nodes[min(int(cut * nodes.size), nodes.size - 1)]
    d = -1.0 if kind == "put_2d" else o.direction  # the march's direction along nodes
    outs = []
    for two_lanes in (False, True):
        recorded, seen = _one_lane_marches(two_lanes)
        with pytest.MonkeyPatch.context() as m:
            for mod in (solver2d, solver3d):
                m.setattr(mod, "_march_lanes", recorded)
            if fault == "band":
                m.setattr(module, f"_{o.kind.upper()}",
                          _narrowed(o, lambda t: d * (t - edge) >= 0))
            elif fault == "step":
                m.setattr(odestep, "STEP_REL_TOL", 0.0)
            try:
                got = _hexes(run())
            except (ConstraintBreach, StepError) as e:
                got = f"{type(e).__name__}: {e}"
        outs.append((got, [(_hexes(lv), st_, float(w).hex()) for lv, st_, w in seen]))
    assert outs[0] == outs[1]
    got, seen = outs[0]
    assert seen
    if fault == "band":
        assert seen[-1][1][0][0] == "constraint"
    elif fault == "ok":
        assert seen[-1][1][0][0] == "ok"

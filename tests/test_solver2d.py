import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from drawdown_options import (
    CallSolution2D,
    CoefficientField,
    ConstraintBreach,
    DomainError,
    ModelSpec,
    PutSolution2D,
    ResolutionWarning,
    StepError,
    call_boundary_2d,
    detect_switch_points,
    put_boundary_2d,
)
from drawdown_options.solver2d import _Cubic, default_put_grid, put_asymptote

REFERENCE_CALL_VALUE = 1.0886621079036347  # x=2, s=2.5 in the flat model


def flat_spec(kind):
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField("constant", (0.03,)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )


def sloped_spec(kind):
    params = (0.02, 0.02) if kind == "call" else (0.02, 0.01)
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField("s_only", params),
        sigma_field=CoefficientField("constant", (0.2,)),
    )


# ---------------------------------------------------------------------------
# switch detection


def test_switch_detection_single_crossing():
    grid = np.linspace(0.0, 2.0, 201)
    curve = np.full_like(grid, 1.25)
    sw = detect_switch_points(grid, curve, grid)
    assert len(sw) == 1
    pos, direction = sw[0]
    assert direction == "enter"
    assert abs(pos - 1.25) < 1e-12


def test_switch_detection_ignores_tangency():
    grid = np.linspace(-1.0, 1.0, 401)
    curve = grid**2  # touches the reference 0 without crossing
    assert detect_switch_points(grid, curve, np.zeros_like(grid)) == []


def test_switch_detection_refine_sharpens_position():
    grid = np.linspace(0.5, 2.0, 16)
    f = lambda s: np.cos(s)
    sw = detect_switch_points(grid, f(grid), np.zeros_like(grid), refine=f)
    assert len(sw) == 1
    assert abs(sw[0][0] - np.pi / 2) < 1e-9


def test_switch_detection_warns_on_adjacent_cells():
    grid = np.linspace(0.0, 1.0, 11)
    curve = np.zeros_like(grid)
    curve[5] = 1.0  # spike crossing up and straight back down
    curve -= 0.5
    with pytest.warns(Warning, match="adjacent"):
        detect_switch_points(grid, curve, np.zeros_like(grid))


def _switch_points_loop(grid, curve_values, ref_values, refine=None):
    """The per-element loops detect_switch_points replaced, as the reference."""
    grid = np.asarray(grid, dtype=float)
    d = np.asarray(curve_values, dtype=float) - np.asarray(ref_values, dtype=float)
    sgn = np.sign(d)
    filled = sgn.copy()
    for k in range(1, filled.size):
        if filled[k] == 0.0:
            filled[k] = filled[k - 1]
    crossings = []
    for k in range(d.size - 1):
        a, b = filled[k], filled[k + 1]
        if a == 0.0 or b == 0.0 or a == b:
            continue
        if refine is not None:
            lo, hi = grid[k], grid[k + 1]
            flo, fhi = refine(lo), refine(hi)
            if flo == 0.0:
                pos = lo
            elif fhi == 0.0:
                pos = hi
            elif np.sign(flo) != np.sign(fhi):
                pos = brentq(refine, lo, hi, xtol=1e-10, rtol=8.9e-16)
            else:
                pos = grid[k] + (grid[k + 1] - grid[k]) * d[k] / (d[k] - d[k + 1])
        else:
            pos = grid[k] + (grid[k + 1] - grid[k]) * d[k] / (d[k] - d[k + 1])
        crossings.append((float(pos), "enter" if a > 0 else "exit"))
    for (p1, _), (p2, _) in zip(crossings, crossings[1:]):
        i1 = np.searchsorted(grid, p1)
        i2 = np.searchsorted(grid, p2)
        if abs(int(i2) - int(i1)) <= 1:
            warnings.warn(
                f"switch points at s={p1:.6g} and s={p2:.6g} fall in adjacent "
                "grid cells; refine the grid to resolve the region ordering",
                ResolutionWarning,
                stacklevel=2,
            )
    return crossings


def _switches_and_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [str(w.message) for w in caught]


# levels with many exact zeros, so runs of zeros, touches that come back on
# the same side and crossings through a zero all occur
_level = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, -1.0, 1.0, -0.25, 0.5]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=40),
    data=st.data(),
    refined=st.sampled_from(["off", "interp", "flipped"]),
)
def test_switch_detection_matches_the_loops_bit_for_bit(steps, data, refined):
    grid = np.cumsum([0.0] + steps)
    levels = st.lists(_level, min_size=grid.size, max_size=grid.size)
    curve = np.array(data.draw(levels))
    ref = np.array(data.draw(levels))
    refine = None
    if refined != "off":
        # a refine callable through the same levels, or through levels of
        # flipped sign at some nodes, so that its own zeros, its brackets
        # and the fall-back to the linear intersection all occur
        signs = st.lists(
            st.sampled_from([1.0, -1.0, 0.0]), min_size=grid.size, max_size=grid.size
        )
        flip = np.array(data.draw(signs))
        knots = (curve - ref) * (flip if refined == "flipped" else 1.0)

        def refine(s):
            return float(np.interp(s, grid, knots))

    want = _switches_and_warnings(_switch_points_loop, grid, curve, ref, refine)
    got = _switches_and_warnings(detect_switch_points, grid, curve, ref, refine)
    assert [(p.hex(), k) for p, k in got[0]] == [(p.hex(), k) for p, k in want[0]]
    assert got[1] == want[1]


# ---------------------------------------------------------------------------
# call side


def test_flat_call_barrier_is_three_strikes():
    spec = flat_spec("call")
    npt.assert_allclose(call_boundary_2d(spec, 1.0), 3.0, rtol=1e-12)
    npt.assert_allclose(
        call_boundary_2d(spec, np.array([0.5, 2.0, 10.0])), 3.0, rtol=1e-12
    )


def test_flat_call_reference_value():
    spec = flat_spec("call")
    assert abs(CallSolution2D(spec).value(2.0, 2.5) - REFERENCE_CALL_VALUE) < 1e-10


def test_flat_call_switch_location():
    sol = CallSolution2D(flat_spec("call"))
    assert len(sol.switches) == 1
    pos, direction = sol.switches[0]
    assert direction == "enter"
    assert abs(pos - 3.0) < 1e-9


def test_call_value_matches_payoff_at_barrier():
    sol = CallSolution2D(sloped_spec("call"))
    for s in (4.0, 6.0, 12.0):
        h = float(sol.boundary(s))
        if h <= s:
            assert abs(sol.value(h, s) - (h - 1.0)) < 1e-10


def test_call_smooth_fit_at_barrier():
    sol = CallSolution2D(sloped_spec("call"))
    s = 8.0
    h = float(sol.boundary(s))
    assert h < s
    eps = 1e-6
    slope = (sol.value(h, s) - sol.value(h - eps, s)) / eps
    assert abs(slope - 1.0) < 1e-4


def test_call_coefficient_continuous_across_switch():
    sol = CallSolution2D(flat_spec("call"))
    lo = sol.coefficient(3.0 - 1e-6)
    hi = sol.coefficient(3.0 + 1e-6)
    assert abs(lo - hi) < 1e-7 * abs(hi)


def test_call_value_dominates_payoff():
    sol = CallSolution2D(sloped_spec("call"))
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = float(rng.uniform(0.3, 15.0))
        x = float(rng.uniform(1e-3, s))
        v = sol.value(x, s)
        assert v >= max(x - 1.0, 0.0) - 1e-12


def test_call_reflecting_band_has_zero_s_slope_on_diagonal():
    # one-sided second order difference, x pinned to the lower diagonal point
    sol = CallSolution2D(flat_spec("call"))
    s0, h = 1.5, 1e-4
    f = [sol.value(s0, s0 + k * h) for k in range(3)]
    slope = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    assert abs(slope) < 1e-3 * max(1.0, abs(f[0]))


def test_call_stop_region_returns_intrinsic():
    sol = CallSolution2D(flat_spec("call"))
    assert sol.value(3.5, 4.0) == pytest.approx(2.5, abs=1e-14)


def test_call_value_rejects_bad_points():
    sol = CallSolution2D(flat_spec("call"))
    with pytest.raises(DomainError):
        sol.value(3.0, 2.0)
    with pytest.raises(DomainError):
        sol.value(0.0, 2.0)


# ---------------------------------------------------------------------------
# put side


def test_flat_put_curve_is_flat_at_asymptote():
    spec = flat_spec("put")
    curve = put_boundary_2d(spec)
    npt.assert_allclose(curve.values, 2.0 / 3.0, rtol=1e-12)
    npt.assert_allclose(put_asymptote(spec), 2.0 / 3.0, rtol=1e-14)


def test_flat_put_reference_value():
    spec = flat_spec("put")
    assert abs(PutSolution2D(spec).value(1.0, 1.0) - 4.0 / 27.0) < 1e-10


def test_flat_put_scales_with_strike():
    spec = ModelSpec(
        r=0.06,
        strike=5.0,
        payoff_kind="put",
        delta_field=CoefficientField("constant", (0.03,)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    assert abs(PutSolution2D(spec).value(5.0, 5.0) - 5.0 * 4.0 / 27.0) < 5e-10


def test_put_value_matching_and_smooth_fit():
    sol = PutSolution2D(sloped_spec("put"))
    for s in (0.8, 1.5, 4.0):
        a = float(sol.boundary(s))
        assert 0.0 < a < s
        assert abs(sol.value(a, s) - (1.0 - a)) < 1e-9
        eps = 1e-6
        slope = (sol.value(a + eps, s) - sol.value(a, s)) / eps
        assert abs(slope + 1.0) < 1e-4


def test_put_value_dominates_payoff():
    sol = PutSolution2D(sloped_spec("put"))
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = float(rng.uniform(0.05, 15.0))
        x = float(rng.uniform(1e-3, s))
        v = sol.value(x, s)
        assert v >= max(1.0 - x, 0.0) - 1e-12


def test_put_reflecting_side_has_zero_s_slope_on_diagonal():
    sol = PutSolution2D(sloped_spec("put"))
    s0, h = 1.2, 1e-4
    f = [sol.value(s0, s0 + k * h) for k in range(3)]
    slope = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    assert abs(slope) < 1e-3 * max(1.0, abs(f[0]))


def test_put_curve_stays_inside_band():
    spec = sloped_spec("put")
    curve = put_boundary_2d(spec)
    caps = spec.r / spec.delta_field.value(curve.grid, 0.0)
    assert np.all(curve.values > 0.0)
    assert np.all(curve.values < np.minimum(1.0, caps))


def _rational(draw, lo, hi):
    """A bounded_rational field whose every value stays above 0.2 c0."""
    c0 = draw(st.floats(lo, hi))
    c1, c2 = (draw(st.floats(-0.4 * c0, hi)) for _ in range(2))
    return CoefficientField("bounded_rational", (c0, c1, c2))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["call", "put"]),
    data=st.data(),
    r=st.floats(0.005, 0.2),
    strike=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_level_inside_its_band_keeps_the_denominators_sign(kind, data, r, strike, seed):
    # the shared denominator of the boundary ODE is a * level - b =
    # (2 delta / sigma**2) (r K / delta - level), and each band stops at
    # r K / delta on its own side, so the march's band check is its
    # denominator guard: a level inside its band by more than 1e-9 of the
    # edge (or K) gives the sign -o.sign and a size of at least 1e-12 K
    from drawdown_options.coefficients import _ORIENT, roots_arrays
    from drawdown_options.solver2d import _den_factors

    spec = ModelSpec(
        r=r, strike=strike, payoff_kind=kind,
        delta_field=_rational(data.draw, 0.005, 0.2),
        sigma_field=_rational(data.draw, 0.05, 0.6),
    )
    o = _ORIENT[kind]
    rng = np.random.default_rng(seed)
    s = spec.domain_s_max * rng.random(200) + 1e-6
    y = s * rng.random(200)
    lo, hi = o.band(spec, s, y)
    edge = lo if o.sign > 0 else hi
    margin = 1e-9 * np.maximum(edge, strike)
    # from the edge inward, on every scale from the margin to the band's
    # width; a put level that would pass 0 is drawn in the band's lower half
    depth = margin + edge * 10.0 ** rng.uniform(-12.0, 1.0, s.size)
    level = lo + depth if o.sign > 0 else np.maximum(hi - depth, 0.5 * hi * rng.random(s.size))
    assert np.all((level > lo + margin) & (level < hi - margin))
    g1, g2, *_ = roots_arrays(spec, s, y)
    a, b = _den_factors(g1, g2, strike)
    den = a * level - b
    assert np.all(np.sign(den) == -o.sign)
    assert np.all(np.abs(den) >= 1e-12 * strike)


def test_put_self_convergence():
    spec = sloped_spec("put")
    coarse = put_boundary_2d(spec, default_put_grid(spec, 2049))
    fine = put_boundary_2d(spec, default_put_grid(spec, 8193))
    probes = np.linspace(0.05, 18.0, 200)
    assert np.max(np.abs(coarse(probes) - fine(probes))) < 1e-8


def test_put_curve_nodes_follow_the_flow():
    # every node comes from a step's continuous extension; at the curve's
    # dense target they stay within 1e-12 K of the ODE's flow, here an
    # independent DOP853 march in log s on the same stage (the curve's
    # floor of 1/1024 of lane time cannot meet a 1e-16 target, so the
    # curve itself at a tighter target is no reference)
    from scipy.integrate import solve_ivp

    spec = sloped_spec("put")
    grid = default_put_grid(spec)
    curve = put_boundary_2d(spec)
    u = np.log(grid)

    def slope(t, g):
        s = float(np.exp(t))
        return [s * _put_stage(spec, s)(float(g[0]))]

    g0 = float(put_asymptote(spec, grid[0]))
    ref = solve_ivp(
        slope, (u[0], u[-1]), [g0], method="DOP853", t_eval=u, rtol=1e-13, atol=1e-16
    )
    assert ref.success
    assert np.max(np.abs(curve.values[::-1] - ref.y[0])) < 1e-12


def test_put_shoot_offset_transported_without_amplification():
    # the downward march keeps a seed perturbation near its original size,
    # so shooting twice gives a usable truncation sensitivity estimate
    spec = sloped_spec("put")
    base = put_boundary_2d(spec)
    bumped = put_boundary_2d(spec, shoot_offset=1e-4)
    for s in (19.9, 5.0, 0.2):
        diff = abs(base(s) - bumped(s))
        assert 2e-5 < diff < 5e-4


def test_put_step_check_trips_on_coarse_grid(monkeypatch):
    from drawdown_options import odestep

    spec = sloped_spec("put")
    monkeypatch.setattr(odestep, "STEP_REL_TOL", 1e-14)
    with pytest.raises(StepError):
        put_boundary_2d(spec, np.linspace(0.01, 20.0, 24))


def test_put_constraint_breach_on_bad_seed():
    spec = sloped_spec("put")
    with pytest.raises(ConstraintBreach):
        put_boundary_2d(spec, shoot_offset=-0.5)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_put_rejects_a_non_finite_shoot_offset(offset):
    with pytest.raises(ValueError, match="shoot_offset must be finite"):
        put_boundary_2d(sloped_spec("put"), shoot_offset=offset)


def test_put_curve_rejects_queries_outside_grid():
    curve = put_boundary_2d(flat_spec("put"))
    with pytest.raises(DomainError):
        curve(25.0)


def test_put_value_in_stop_region_is_intrinsic():
    sol = PutSolution2D(flat_spec("put"))
    assert sol.value(0.5, 2.0) == pytest.approx(0.5, abs=1e-14)


def test_default_put_grid_shape():
    spec = flat_spec("put")
    grid = default_put_grid(spec)
    assert grid[0] == spec.domain_s_max
    assert np.all(np.diff(grid) < 0)
    assert grid[-1] < 1e-5


# ---------------------------------------------------------------------------
# the put's stage on floats pinned to its array path, and to recorded bits


def _put_stage(spec, s):
    """The 2D put curve's stage at s: OdeStage on the roots at (s, 0), on floats."""
    from drawdown_options.coefficients import _roots_along
    from drawdown_options.solver2d import OdeStage

    return OdeStage(*_roots_along(spec, s, 0.0, "s"), s, spec.strike)


def _array_put_stage(spec):
    """The put ODE through OdeStage and roots_arrays at y = 0, on one-element arrays."""
    from drawdown_options.coefficients import roots_arrays
    from drawdown_options.solver2d import OdeStage

    def stage(s):
        g1, g2, dg1, dg2, _, _ = roots_arrays(spec, np.array([s]), np.array([0.0]))
        ode = OdeStage(g1, g2, dg1, dg2, np.array([s]), spec.strike)
        return lambda g: (ode(np.array([g]))[0], (ode.a * g - ode.b)[0])

    return stage


@pytest.mark.parametrize(
    "kind, offset",
    [("flat", 0.0), ("sloped", 0.0), ("sloped", 1e-4)],
)
def test_scalar_put_stage_matches_array_stage_bit_for_bit(kind, offset, monkeypatch):
    # the one march driven with the stage on floats and with its array path
    # gives the same curve, bit for bit
    from drawdown_options import solver2d

    spec = flat_spec("put") if kind == "flat" else sloped_spec("put")
    curve = put_boundary_2d(spec, shoot_offset=offset)
    array_stage = _array_put_stage(spec)
    built = []

    def stage(g1, g2, dg1, dg2, s, strike):
        built.append(s)
        ode = array_stage(s)
        return lambda g: ode(g)[0]

    monkeypatch.setattr(solver2d, "OdeStage", stage)
    ref = put_boundary_2d(spec, shoot_offset=offset)
    assert built
    assert np.array_equal(curve.values, ref.values)
    assert curve.max_step_error == ref.max_step_error


def test_scalar_put_stage_gives_nan_below_zero_like_the_array_stage():
    # a rejected try can drive the level to 0 or below; the stage on floats
    # then gives NaN, as its array path does, so the try is retried
    # shorter instead of raising
    spec = sloped_spec("put")
    array_stage = _array_put_stage(spec)
    ode = _put_stage(spec, 2.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        for g in (-0.3, -0.0, 0.0):
            rhs, den = ode(g), ode.a * g - ode.b
            want_rhs, want_den = array_stage(2.5)(np.float64(g))
            assert np.isnan(rhs) and np.isnan(want_rhs)
            assert den == want_den


def test_scalar_bracket_equals_the_array_bracket_bit_for_bit():
    # OdeStage's bracket on floats against its array path on both of its
    # branches: the series where |u| < 1e-6 (which no put curve reaches)
    # and the exponential, on both sides of its +-700 clamp
    from drawdown_options.solver2d import _bracket, _scalar_bracket

    rng = np.random.default_rng(19)
    deltas = np.concatenate([rng.uniform(-60.0, 60.0, 30), [-4.0, -0.5, 0.5, 4.0]])
    edge = 1e-6 * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    near = np.concatenate(
        [edge, np.nextafter(1e-6, [0.0, 1.0]), rng.uniform(0.0, 2e-6, 20),
         10.0 ** rng.uniform(-12.0, -6.0, 40)]
    )
    wide = 10.0 ** rng.uniform(-9.0, 3.0, 40)
    for d in deltas.tolist():
        clamp = 700.0 / abs(d) * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5])
        mag = np.concatenate([[0.0], near, wide, clamp])
        u = np.concatenate([mag, -mag])
        small = np.abs(u) < 1e-6
        with np.errstate(invalid="ignore"):  # u = 0 on the masked branch
            got = _bracket(d, 1.0 / d, u, small)
        assert small.any() and (np.abs(d * u) > 700.0).any()
        for k, uk in enumerate(u.tolist()):
            assert got[k].hex() == _scalar_bracket(d, 1.0 / d, uk).hex()


def test_put_curve_matches_recorded_bits():
    """The default sloped put curve, recorded from the one lane march: the
    put lane at y = 0, down in log s, every node read from its steps'
    continuous extensions.  Its values lie within 7.7e-13 K of a DOP853
    march in log s at rtol 1e-13 and within 9.9e-13 K of the line march
    in s before it (6.2e-13 K from DOP853).  Same caveat about the
    platform's libm as the surface pins."""
    import hashlib

    curve = put_boundary_2d(sloped_spec("put"))
    digest = hashlib.sha256(curve.values.tobytes()).hexdigest()
    assert digest == "301dd8b0050f1325ea0506648aeb04886d0e922fb141c6db192cf4620f41793b"
    assert float(curve.values[100]).hex() == "0x1.473e3ae2658fcp-1"
    assert float(curve.max_step_error).hex() == "0x1.ac51372b68964p-44"
    assert len(curve.switches) == 1


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, [1.0, np.nan], np.array([np.inf, 2.0])])
@pytest.mark.parametrize("solution", [PutSolution2D, CallSolution2D])
def test_a_2d_boundary_at_a_non_finite_s_raises(solution, s):
    # a NaN s once read a NaN level, alone or as one entry of an array
    sol = solution(flat_spec("put" if solution is PutSolution2D else "call"))
    with pytest.raises(DomainError, match="need a finite s"):
        sol.boundary(s)


@pytest.mark.parametrize("solution", [PutSolution2D, CallSolution2D])
def test_a_non_finite_s_is_named_by_its_index_in_a_long_array(solution):
    # numpy prints an array of over 1,000 entries with '...', which could
    # hide the entry at fault; the message names the first one itself
    sol = solution(flat_spec("put" if solution is PutSolution2D else "call"))
    s = np.full(4097, 1.0)
    s[3000], s[4000] = np.inf, np.nan
    with pytest.raises(DomainError, match=r"got s\[3000\]=inf$"):
        sol.boundary(s)


@given(
    steps=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=12),
    x0=st.floats(-2.0, 2.0),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_cubic_evaluates_scipys_fit_bit_for_bit(steps, x0, data):
    # the in-house evaluation equals CubicSpline's call on floats and on
    # arrays: on every node (q = x[0] and x[-1] among them), inside, and
    # extrapolated past both ends
    x = np.cumsum([x0] + steps)
    v = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=x.size, max_size=x.size)))
    span = x[-1] - x[0]
    inside = data.draw(st.lists(st.floats(x[0], x[-1]), max_size=10))
    past = data.draw(st.lists(st.floats(x[0] - span, x[-1] + span), max_size=10))
    q = np.concatenate([x, inside, past, [x[0] - 1.0, x[-1] + 1.0]])
    want = CubicSpline(x, v)(q)
    fit = _Cubic(x, v)
    assert fit(q).tobytes() == want.tobytes()
    assert fit(q.reshape(-1, 1)).tobytes() == want.tobytes()
    for k, qk in enumerate(q.tolist()):
        got = fit(qk)
        assert type(got) is float
        assert got.hex() == float(want[k]).hex()

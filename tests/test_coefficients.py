import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawdown_options import (
    CoefficientField,
    ConfigError,
    DomainError,
    ModelSpec,
    NonPositiveCoefficient,
    StateTriple,
    build_config,
    eval_fields,
    generator_residual,
    roots,
    roots_arrays,
)
from drawdown_options import coefficients
from drawdown_options.coefficients import _libm_pow


def make_spec(delta=("constant", (0.03,)), sigma=("constant", (0.2,)),
              r=0.06, kind="put"):
    return ModelSpec(
        r=r,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField(*delta),
        sigma_field=CoefficientField(*sigma),
    )


# ---------------------------------------------------------------------------
# field families


def test_constant_field_value_and_partials():
    f = CoefficientField("constant", (0.2,))
    assert f.value(3.0, 1.0) == 0.2
    assert f.d_ds(3.0, 1.0) == 0.0
    assert f.d_dy(3.0, 1.0) == 0.0


def test_s_only_field_formula():
    f = CoefficientField("s_only", (0.02, 0.01))
    s = 3.0
    assert np.isclose(f.value(s, 1.0), 0.02 + 0.01 * s / (1.0 + s), rtol=1e-15)
    assert np.isclose(f.d_ds(s, 1.0), 0.01 / (1.0 + s) ** 2, rtol=1e-15)
    assert f.d_dy(s, 1.0) == 0.0


def test_bounded_rational_field_formula():
    f = CoefficientField("bounded_rational", (0.02, 0.01, 0.005))
    s, y = 2.0, 1.5
    want = 0.02 + 0.01 * s / (1 + s) + 0.005 * y / (1 + y)
    assert np.isclose(f.value(s, y), want, rtol=1e-15)
    assert np.isclose(f.d_dy(s, y), 0.005 / (1 + y) ** 2, rtol=1e-15)


@pytest.mark.parametrize("family,params", [
    ("constant", (0.1, 0.2)),
    ("s_only", (0.1,)),
    ("bounded_rational", (0.1, 0.2)),
    ("no_such_family", (0.1,)),
])
def test_field_arity_rejected(family, params):
    with pytest.raises((ValueError, TypeError)):
        CoefficientField(family, params)


def test_limit_at_infinity_is_param_sum():
    # the saturating ratios tend to 1, so the field tends to its parameter sum
    f = CoefficientField("bounded_rational", (0.02, 0.01, 0.005))
    assert np.isclose(f.value(1e12, 1e12), 0.035, rtol=1e-11)


def test_diagonal_restriction_merges_y_slope():
    f = CoefficientField("bounded_rational", (0.02, 0.01, 0.005))
    d = f.diagonal_restriction()
    assert d.family == "s_only"
    npt.assert_allclose(d.params, (0.02, 0.015))


_ARITY = {"constant": 1, "s_only": 2, "bounded_rational": 3}
# zero slopes of either sign, ordinary ones and the smallest subnormal
_SLOPES = (0.0, -0.0, 0.02, -0.01, 5e-324)


@pytest.mark.parametrize("family", sorted(_ARITY))
@pytest.mark.parametrize("coord", ["s", "y"])
def test_varies_with_is_false_exactly_when_the_partial_vanishes(family, coord):
    # a slice whose fields do not vary along it takes no step, so the
    # predicate may say False only where the partial is 0.0 on every node
    # of ModelSpec's audit grid (its default box)
    ss, yy = coefficients._audit_grid(20.0, 20.0)
    for s_slope in _SLOPES:
        for y_slope in _SLOPES:
            field = CoefficientField(family, (0.03, s_slope, y_slope)[: _ARITY[family]])
            partial = (field.d_ds if coord == "s" else field.d_dy)(ss, yy)
            assert field.varies_with(coord) == bool(np.any(partial != 0.0)), field


def test_varies_with_names_only_s_or_y():
    with pytest.raises(ValueError, match="coord must be 's' or 'y'"):
        CoefficientField("constant", (0.2,)).varies_with("x")


@st.composite
def _fields(draw):
    family = draw(st.sampled_from(sorted(_ARITY)))
    c0 = draw(st.floats(1e-3, 1.0))
    slopes = draw(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2))
    return CoefficientField(family, (c0, *slopes)[: _ARITY[family]])


@given(
    field=_fields(),
    s=st.floats(0.0, 50.0),
    frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=300, deadline=None)
def test_field_methods_on_floats_equal_their_array_evaluation(field, s, frac):
    # float code (the 2D put's stage) reads the fields on floats, array code
    # on arrays, and the two must agree bit for bit; y = 0 is the
    # maximum-only restriction
    y = s * frac
    arr_s, arr_y = np.array([s, 1.0, s]), np.array([y, 0.5, y])
    for method in (field.value, field.d_ds, field.d_dy):
        on_floats = method(s, y)
        on_scalars = method(np.float64(s), np.float64(y))
        on_arrays = method(arr_s, arr_y)
        assert type(on_floats) is float
        assert float(on_scalars).hex() == on_floats.hex()
        assert float(on_arrays[0]).hex() == on_floats.hex()
        assert float(on_arrays[2]).hex() == on_floats.hex()


def test_eval_fields_rejects_off_quadrant():
    spec = make_spec()
    with pytest.raises(DomainError):
        eval_fields(spec, -1.0, 0.0)
    with pytest.raises(DomainError):
        eval_fields(spec, 1.0, 2.0)


def test_positivity_audit_rejects_negative_dividend():
    with pytest.raises(NonPositiveCoefficient):
        make_spec(delta=("s_only", (0.01, -0.5)))


FINITE_MODEL = {
    "r": "0.06",
    "strike": "1.0",
    "payoff": "put",
    "delta.family": "bounded_rational",
    "delta.params": "0.02, 0.01, 0.01",
    "sigma.family": "constant",
    "sigma.params": "0.2",
}


@pytest.mark.parametrize("key,value", [
    ("r", "inf"),
    ("r", "nan"),
    ("r", "1e308"),  # finite, but the roots overflow
    ("strike", "inf"),
    ("domain.s_max", "inf"),
    ("domain.y_max", "inf"),
    ("domain.y_max", "nan"),
    ("delta.params", "inf, 0.01, 0.01"),
    ("delta.params", "0.02, 0.01, -inf"),
    ("sigma.params", "inf"),
    ("sigma.params", "nan"),
])
def test_non_finite_model_inputs_are_rejected(key, value):
    # the model raises ValueError naming finiteness; the config wraps it
    with pytest.raises(ConfigError, match="finite") as exc:
        build_config(dict(FINITE_MODEL, **{key: value}))
    assert type(exc.value.__cause__) is ValueError


# ---------------------------------------------------------------------------
# characteristic roots


def test_reference_roots_exact():
    spec = make_spec()
    rp = roots(spec, 1.0, 0.0)
    assert abs(rp.gamma1 - 1.5) <= 1e-12
    assert abs(rp.gamma2 - (-2.0)) <= 1e-12
    assert rp.dgamma1_ds == 0.0
    assert rp.dgamma2_dy == 0.0


@pytest.mark.parametrize("r,dlt,sig", [
    (0.06, 0.03, 0.2),
    (0.05, 0.08, 0.3),
    (0.10, 0.01, 0.15),
    (0.02, 0.02, 0.4),
])
def test_roots_against_polynomial_solver(r, dlt, sig):
    # independent oracle: the quadratic (sig^2/2) g(g-1) + (r-dlt) g - r = 0
    spec = make_spec(delta=("constant", (dlt,)), sigma=("constant", (sig,)), r=r)
    rp = roots(spec, 2.0, 1.0)
    a = 0.5 * sig**2
    g_hi, g_lo = sorted(np.roots([a, r - dlt - a, -r]).real, reverse=True)
    npt.assert_allclose([rp.gamma1, rp.gamma2], [g_hi, g_lo], rtol=1e-12)


def test_root_ordering_enforced():
    from drawdown_options import RootPair
    with pytest.raises(ValueError):
        RootPair(0.9, -2.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RootPair(1.5, 0.1, 0.0, 0.0, 0.0, 0.0)


@given(
    s=st.floats(0.2, 15.0),
    frac=st.floats(0.0, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_root_identities_hold(s, frac):
    # Vieta: product -2r/sig^2, sum 1 - 2(r-dlt)/sig^2
    spec = make_spec(
        delta=("bounded_rational", (0.02, 0.01, 0.005)),
        sigma=("s_only", (0.15, 0.1)),
    )
    y = frac * s
    g1, g2, *_ = roots_arrays(spec, s, y)
    dlt, sig, *_ = eval_fields(spec, s, y)
    assert np.isclose(g1 * g2, -2 * spec.r / sig**2, rtol=1e-10)
    assert np.isclose(g1 + g2, 1 - 2 * (spec.r - dlt) / sig**2, rtol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_scalar_roots_equal_the_one_array_call_bit_for_bit(seed):
    # the fields square by multiplying, which rounds the same on numpy
    # scalars, Python floats and arrays; a scalar pow rounds differently on
    # about one input in a thousand (the first two points are such inputs,
    # for the s- and the y-partials), which a one-lane march (scalars) and
    # a surface's lanes (arrays) would then see as different roots
    from drawdown_options.coefficients import _roots_along

    spec = make_spec(
        delta=("bounded_rational", (0.02, 0.01, 0.005)),
        sigma=("bounded_rational", (0.15, 0.05, 0.02)),
    )
    rng = np.random.default_rng(seed)
    s = np.concatenate([[14.187684540552567, 15.0], rng.uniform(1e-3, 20.0, 254)])
    y = np.concatenate([[0.0, 14.187684540552567], s[2:] * rng.uniform(0.0, 1.0, 254)])
    want = roots_arrays(spec, s, y)
    along = {wrt: _roots_along(spec, s, y, wrt) for wrt in ("s", "y", None)}
    for k in range(s.size):
        for a, b in ((s[k], y[k]), (float(s[k]), float(y[k]))):
            got = roots_arrays(spec, a, b)
            assert [float(v).hex() for v in got] == [float(v[k]).hex() for v in want]
            for wrt, one in along.items():
                got = _roots_along(spec, a, b, wrt)
                assert [float(v).hex() for v in got] == [float(v[k]).hex() for v in one]


@given(
    s=st.floats(0.3, 10.0),
    frac=st.floats(0.05, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_root_partials_match_finite_differences(s, frac):
    spec = make_spec(
        delta=("bounded_rational", (0.02, 0.01, 0.005)),
        sigma=("bounded_rational", (0.15, 0.05, 0.02)),
    )
    y = frac * s
    rp = roots(spec, s, y)
    h = 1e-6
    up = roots(spec, s + h, y)
    dn = roots(spec, s - h, y)
    npt.assert_allclose(
        [(up.gamma1 - dn.gamma1) / (2 * h), (up.gamma2 - dn.gamma2) / (2 * h)],
        [rp.dgamma1_ds, rp.dgamma2_ds], rtol=2e-5, atol=1e-8,
    )
    up = roots(spec, s, y + h)
    dn = roots(spec, s, y - h)
    npt.assert_allclose(
        [(up.gamma1 - dn.gamma1) / (2 * h), (up.gamma2 - dn.gamma2) / (2 * h)],
        [rp.dgamma1_dy, rp.dgamma2_dy], rtol=2e-5, atol=1e-8,
    )


def test_roots_arrays_broadcasts():
    spec = make_spec()
    s = np.array([1.0, 2.0, 3.0])
    g1, g2, *_ = roots_arrays(spec, s, np.zeros(3))
    npt.assert_allclose(g1, 1.5, rtol=1e-12)
    npt.assert_allclose(g2, -2.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# state triple and generator


def test_state_triple_validation():
    StateTriple(1.0, 1.0, 0.0)
    StateTriple(0.8, 1.0, 0.5)
    with pytest.raises((ValueError, DomainError)):
        StateTriple(1.2, 1.0, 0.0)
    with pytest.raises((ValueError, DomainError)):
        StateTriple(0.3, 1.0, 0.5)
    with pytest.raises((ValueError, DomainError)):
        StateTriple(1.0, 1.0, 1.0)


def test_generator_annihilates_power_solutions():
    spec = make_spec()
    point = StateTriple(0.8, 1.0, 0.4)
    rp = roots(spec, point.s, point.y)
    for g in (rp.gamma1, rp.gamma2):
        res = generator_residual(
            spec,
            lambda x, g=g: x**g,
            point,
            dfdx=lambda x, g=g: g * x ** (g - 1),
            d2fdx2=lambda x, g=g: g * (g - 1) * x ** (g - 2),
        )
        assert abs(res) < 1e-10


def test_generator_sign_on_stopped_put_payoff():
    # on L - x the generator reduces to dlt x - r L, negative near the strike
    spec = make_spec()
    point = StateTriple(0.6, 1.0, 0.5)
    res = generator_residual(
        spec,
        lambda x: spec.strike - x,
        point,
        dfdx=lambda x: -1.0,
        d2fdx2=lambda x: 0.0,
    )
    npt.assert_allclose(res, 0.03 * 0.6 - 0.06 * 1.0, rtol=1e-12)
    assert res < 0


def test_generator_residual_fd_fallback_matches_exact():
    spec = make_spec()
    point = StateTriple(0.8, 1.0, 0.4)
    exact = generator_residual(
        spec, lambda x: x**2, point,
        dfdx=lambda x: 2 * x, d2fdx2=lambda x: 2.0,
    )
    fd = generator_residual(spec, lambda x: x**2, point)
    npt.assert_allclose(fd, exact, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# two-power pinning


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1.05, 3.0), st.floats(-4.0, -0.3), st.floats(0.5, 1.5),
    st.sampled_from([1.0, -1.0]),
)
def test_pinned_pair_matches_value_and_payoff_slope(g1, g2, shift, sign):
    from drawdown_options.coefficients import _critical_level, _pinned_pair

    level = shift * float(_critical_level(g1, g2, 1.0, sign))
    target = sign * (level - 1.0) + 0.01
    c1, c2 = _pinned_pair(g1, g2, level, 1.0, sign, target)
    value = c1 * level**g1 + c2 * level**g2
    slope = c1 * g1 * level ** (g1 - 1.0) + c2 * g2 * level ** (g2 - 1.0)
    assert value == pytest.approx(target, rel=1e-12, abs=1e-12)
    assert slope == pytest.approx(sign, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(1.05, 3.0), st.floats(-4.0, -0.3))
def test_pinned_pair_at_critical_level_drops_the_complementary_power(g1, g2):
    # exactly, not to rounding: the tiny x at a line's floor amplifies x**g2
    from drawdown_options.coefficients import _critical_level, _pinned_pair

    call = _pinned_pair(g1, g2, _critical_level(g1, g2, 1.0, 1.0), 1.0, 1.0)
    put = _pinned_pair(g1, g2, _critical_level(g1, g2, 1.0, -1.0), 1.0, -1.0)
    assert call[1] == 0.0 and call[0] > 0.0
    assert put[0] == 0.0 and put[1] > 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1.05, 3.0), st.floats(-4.0, -0.3), st.floats(0.3, 3.0),
    st.sampled_from([1.0, -1.0]),
)
def test_pinned_pair_ignores_a_far_end_at_the_level(g1, g2, level, sign):
    # a zero-length line: its value there is the target by construction, so
    # the dominance clamp has nothing to decide
    from drawdown_options.coefficients import _pinned_pair

    assert _pinned_pair(g1, g2, level, 1.0, sign, x_end=level) == _pinned_pair(
        g1, g2, level, 1.0, sign
    )


def _pinned_pair_with_float_powers(g1, g2, level, strike, sign, target, x_end):
    """The pin on Python floats with the ** operator, the reference of both paths."""
    e = target - sign * (level - strike)

    def pair(lv):
        return tuple(
            (sign * (go - 1.0) * (lv - go * strike / (go - 1.0)) + go * e) / ((go - g) * lv**g)
            for g, go in ((g1, g2), (g2, g1))
        )

    c1, c2 = pair(level)
    if x_end > 0.0 and x_end != level:
        if c1 * x_end**g1 + c2 * x_end**g2 < max(sign * (x_end - strike), 0.0):
            c1, c2 = pair((g1 if sign > 0 else g2) * strike / ((g1 if sign > 0 else g2) - 1.0))
    return c1, c2


_pin = st.tuples(
    st.floats(1.05, 30.0), st.floats(-30.0, -0.05), st.floats(0.2, 5.0),
    st.floats(-0.2, 0.2),
    # the far end: off the line, at the level, or a multiple of it (past the
    # tangency, where the clamp can act)
    st.one_of(st.sampled_from([0.0, -1.0, "level"]), st.floats(0.01, 20.0)),
)


@settings(max_examples=200, deadline=None)
@given(pins=st.lists(_pin, min_size=1, max_size=10), sign=st.sampled_from([1.0, -1.0]))
def test_pinned_pair_on_arrays_equals_each_pin_on_floats(pins, sign):
    # the reflection closures pin every anchor of a family at once; each
    # entry has the bits of its own pin on floats, and powers through libm
    # keep those of the ** operator
    from drawdown_options.coefficients import _pinned_pair

    g1, g2, level, excess, x_end = (np.array(v, dtype=object) for v in zip(*pins))
    x_end = np.array([lv if x == "level" else lv * x for lv, x in zip(level, x_end)], dtype=float)
    g1, g2, level, excess = (np.array(v, dtype=float) for v in (g1, g2, level, excess))
    target = sign * (level - 1.0) + excess
    c1, c2 = _pinned_pair(g1, g2, level, 1.0, sign, target, x_end=x_end)
    for k in range(len(pins)):
        args = (float(g1[k]), float(g2[k]), float(level[k]), 1.0, sign, float(target[k]))
        one = _pinned_pair(*args, x_end=float(x_end[k]))
        want = _pinned_pair_with_float_powers(*args, float(x_end[k]))
        assert [float(c).hex() for c in (c1[k], c2[k])] == [c.hex() for c in one]
        assert [c.hex() for c in one] == [c.hex() for c in want]


class _Dividend:
    """A stub spec whose dividend is the given value wherever it is read."""

    def __init__(self, d):
        self.r, self.strike = 0.06, 1.0
        self.delta_field = self
        self.d = d

    def value(self, s, y):
        # a numpy scalar on a float, so that a zero dividend divides as numpy does
        return np.float64(self.d) if np.ndim(s) == 0 else np.full(np.shape(s), self.d)


@pytest.mark.parametrize(
    "d", [0.03, 0.06, 0.12, math.nan, math.inf, -math.inf, 0.0, -0.0, -0.03, 5e-324]
)
def test_a_float_band_keeps_numpys_bits(d):
    # one float comparison in place of np.minimum or np.maximum: a NaN
    # dividend keeps a NaN bound, where Python's min and max would give K;
    # a signed zero dividend gives an infinite r K / delta, an infinite one
    # a signed zero
    from drawdown_options.coefficients import _call_band, _put_band

    spec = _Dividend(d)
    for band in (_put_band, _call_band):
        with np.errstate(divide="ignore", over="ignore"):
            lo, hi = band(spec, 2.0, 1.0)
            a_lo, a_hi = band(spec, np.array([2.0]), np.array([1.0]))
        assert [float(v).hex() for v in (lo, hi)] == [
            float(np.ravel(v)[0]).hex() for v in (a_lo, a_hi)
        ]


def _assert_libm_pow_is_math_pow(base, g):
    """_libm_pow(base, g) equals math.pow on each broadcast pair, raises included."""
    b, e = np.broadcast_arrays(base, g)
    try:
        want = np.array(list(map(math.pow, b.ravel().tolist(), e.ravel().tolist())))
    except (ValueError, OverflowError) as err:
        # the first raise in C order decides the error
        with pytest.raises(type(err), match=f"^{err}$"):
            _libm_pow(base, g)
        return
    got = _libm_pow(base, g)
    assert got.shape == b.shape
    assert got.tobytes() == want.tobytes()


_POW_FLOATS = (
    st.floats(-1e3, 1e3)
    | st.floats(0.0, 10.0)
    | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, math.inf, -math.inf, math.nan])
)


@given(pairs=st.lists(st.tuples(_POW_FLOATS, _POW_FLOATS), min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
def test_libm_pow_on_arrays_equals_math_pow_entry_for_entry(pairs):
    bases, exps = (np.array(t) for t in zip(*pairs))
    _assert_libm_pow_is_math_pow(bases, exps)
    _assert_libm_pow_is_math_pow(bases[:, None], exps[:3])
    _assert_libm_pow_is_math_pow(bases[0], exps)

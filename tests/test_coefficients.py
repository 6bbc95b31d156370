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
    along = {wrt: _roots_along(spec, s, y, wrt) for wrt in ("s", "y")}
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

"""Each float path of a one-point query against its array path, bit for bit.

A query at one point runs on Python floats (or numpy scalars, which are
floats): the quadrant check, the characteristic roots, one lane of the
boundary ODE's stage and the value along a line.  Each must give what its
array path gives for the same point inside an array, compared as
``float.hex``, and raise where the array path raises.
"""

import dataclasses
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawdown_options import (
    CoefficientField,
    DomainError,
    ModelSpec,
    NonPositiveCoefficient,
    roots,
    roots_arrays,
)
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
    along = {wrt: _hexes(v[1] for v in _roots_along(spec, ss, ys, wrt)) for wrt in "sy"}
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

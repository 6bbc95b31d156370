import math

import numpy as np

from drawdown_options.odestep import (
    STEP_FLOOR,
    ReuseStages,
    StepSize,
    checked_step,
    dense_output,
)


def _f(t, x):
    # nonlinear in both arguments, so any change of abscissa or state bits
    # shows up in the result; plain arithmetic rounds the same on scalars
    # and arrays
    return (1.0 + t * t) * x - 0.5 * x * x * x / (1.0 + t)


def _plain(f):
    return lambda t: lambda x: f(t, x)


def test_checked_step_lanes_bit_for_bit():
    t = np.array([0.2, 2.3, 0.0, 1.1])
    x = np.array([0.9, -0.4, 1.0, 0.3])
    h = np.array([0.7, -0.3, 1e-3, 0.05])
    got = checked_step(ReuseStages(_plain(_f)), t, x, h, scale_floor=1e-12)
    for k in range(t.size):
        want = checked_step(
            _plain(_f), float(t[k]), float(x[k]), float(h[k]), scale_floor=1e-12
        )
        assert got[0][k] == want[0] and got[1][k] == want[1]


def test_checked_step_error_falls_with_the_fifth_power_of_h():
    # x' = -2 t x from x(0) = 1 is exp(-t^2); halving the step divides the
    # global error of the fifth-order state, and the estimate of the
    # fourth-order local error, by about 2^5
    def f(t, x):
        return -2.0 * t * x

    errs, ests = [], []
    for n in (32, 64, 128):
        h = 1.0 / n
        x, est = 1.0, 0.0
        for k in range(n):
            x, rel, _ = checked_step(_plain(f), k * h, x, h)
            est = max(est, float(rel))
        errs.append(abs(x - math.exp(-1.0)))
        ests.append(est)
    for a, b in zip(errs, errs[1:]):
        assert 26.0 < a / b < 38.0
    for a, b in zip(ests, ests[1:]):
        assert 26.0 < a / b < 38.0


def test_vanishing_rhs_keeps_the_state_bits():
    x = np.array([0.3, 2.0 / 3.0, 1e-9, 5.0])
    got, rel, slopes = checked_step(_plain(lambda t, x: 0.0 * x), 0.1, x, 0.37)
    assert np.array_equal(got, x) and not rel.any()
    # and so does the continuous extension, at every fraction of the step
    for theta in (1e-3, 0.25, 0.5, 0.9, 1.0):
        assert np.array_equal(dense_output(x, got, 0.37, slopes, theta), x)


def test_dense_output_interior_error_falls_with_the_fifth_power_of_h():
    # x' = -2 t x from x(0) = 1 is exp(-t^2); the extension at the middle
    # of each step carries the fourth-order interpolation error, O(h^5)
    # per step, on top of the fifth-order state's global error
    def f(t, x):
        return -2.0 * t * x

    errs = []
    for n in (16, 32, 64):
        h = 1.0 / n
        x, err = 1.0, 0.0
        for k in range(n):
            x_new, _, slopes = checked_step(_plain(f), k * h, x, h)
            mid = dense_output(x, x_new, h, slopes, 0.5)
            err = max(err, abs(mid - math.exp(-((k + 0.5) * h) ** 2)))
            x = x_new
        errs.append(err)
    for a, b in zip(errs, errs[1:]):
        assert 26.0 < a / b < 38.0


def test_dense_output_ends_on_the_new_state_bits():
    rng = np.random.default_rng(3)
    for _ in range(500):
        t, x, h = rng.uniform((0.0, -2.0, -0.9), (2.0, 2.0, 0.9))
        x_new, _, slopes = checked_step(_plain(_f), float(t), float(x), float(h))
        assert dense_output(float(x), x_new, float(h), slopes, 1.0) == x_new


def test_dense_output_lanes_bit_for_bit():
    t = np.array([0.2, 2.3, 0.0, 1.1])
    x = np.array([0.9, -0.4, 1.0, 0.3])
    h = np.array([0.7, -0.3, 1e-3, 0.05])
    theta = np.array([0.5, 0.13, 0.999, 1.0 / 3.0])
    x_new, _, slopes = checked_step(_plain(_f), t, x, h)
    got = dense_output(x, x_new, h, slopes, theta)
    for k in range(t.size):
        one_new, _, one_slopes = checked_step(
            _plain(_f), float(t[k]), float(x[k]), float(h[k])
        )
        want = dense_output(
            float(x[k]), one_new, float(h[k]), one_slopes, float(theta[k])
        )
        assert got[k] == want


def test_reuse_stages_builds_each_abscissa_once():
    built = []

    def stage(t):
        built.append(t)
        return lambda x: _f(t, x)

    memo = ReuseStages(stage)
    t, x = 0.5, 1.0
    # 0.5 + 0.25 is exact, so every step starts on the float the previous
    # one ended on
    for _ in range(3):
        x, _, _ = checked_step(memo, t, x, 0.25)
        t += 0.25
    # t, t + h/5, t + 3h/10, t + 4h/5, t + 8h/9 and t + h for the first
    # step, then five new ones per step
    assert len(built) == 6 + 5 + 5
    assert len(set(built)) == len(built)
    # a retried step starts from an abscissa its failed try kept alive
    checked_step(memo, t, x, 0.5)
    n = len(built)
    checked_step(memo, t, x, 0.1)
    assert len(built) == n + 5


def test_step_size_floor_land_and_shrink():
    size = StepSize(1e-8)
    # the floor is a share of lane time
    assert size.floor == STEP_FLOOR
    # the first try goes straight to the end
    assert size.length(0.01) == 0.01
    # a try above the floor that misses shrinks, by at most a factor 5
    assert not size.stands(0.01, 1e-4)
    assert size.length(0.3) == 0.01 * 0.2
    # a NaN estimate counts as a miss
    assert not size.stands(0.002, math.nan)
    # no try goes below the floor, unless it lands on an end closer than that
    assert size.length(0.3) == size.floor
    assert size.length(0.5 * size.floor) == 0.5 * size.floor
    # and a try at the floor stands whatever its estimate
    assert size.stands(size.floor, 1.0)
    # a clean step grows the next try by at most a factor 5
    size.after(size.floor, False, 0.0)
    assert size.length(1.0) == 5.0 * size.floor
    # landing short of the proposal does not shorten it
    size.after(1e-6, True, 1e-9)
    assert size.length(1.0) == 5.0 * size.floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from drawdown_options import (
    CoefficientField,
    ConfigError,
    ModelSpec,
    PutSolution2D,
    PutSolution3D,
    SimConfig,
    StateTriple,
    audit_solution,
    build_put_surface,
    rule_from_solution,
    simulate_stopped_payoff,
    simulate_stopped_payoffs,
    verify_solution,
)
from drawdown_options.montecarlo import (
    ConstantRule,
    CurveRule,
    SimResult,
    SurfaceRule,
    VerificationReport,
    _bridge_crossed,
    _draws,
    _normals,
    _path_weyl,
    _stopped_paths,
    _stream_keys,
)
from drawdown_options.solver2d import CallSolution2D


def make_spec(kind, r=0.06, delta=0.03, sigma=0.2):
    return ModelSpec(
        r=r,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField("constant", (delta,)),
        sigma_field=CoefficientField("constant", (sigma,)),
    )


# ---------------------------------------------------------------------------
# configuration guards


@pytest.mark.parametrize("kwargs", [
    dict(n_paths=99, dt=0.01, horizon=10.0),
    dict(n_paths=1000, dt=0.0, horizon=10.0),
    dict(n_paths=1000, dt=-0.01, horizon=10.0),
    dict(n_paths=1000, dt=0.5, horizon=10.0),
    dict(n_paths=1000, dt=0.01, horizon=10.0, block_size=0),
    dict(n_paths=1000, dt=0.01, horizon=10.0, block_size=-4096),
    dict(n_paths=1000, dt=0.01, horizon=float("nan")),
    dict(n_paths=1000, dt=0.01, horizon=float("inf")),
    dict(n_paths=1000, dt=float("inf"), horizon=10.0),
    # a seed is an int in [0, 2**64); 2**64 once raised OverflowError mid-run
    dict(n_paths=1000, dt=0.01, horizon=10.0, seed=-1),
    dict(n_paths=1000, dt=0.01, horizon=10.0, seed=2**64),
    dict(n_paths=1000, dt=0.01, horizon=10.0, seed=2.0),
    dict(n_paths=1000, dt=0.01, horizon=10.0, seed="3"),
    dict(n_paths=1000, dt=0.01, horizon=10.0, seed=True),
    # a draw's counter holds the path and the step in 32 bits each
    dict(n_paths=2**32 + 1, dt=0.01, horizon=10.0),
    dict(n_paths=1000, dt=1e-9, horizon=5.0),
    # path counts are ints: a float once died mid-pass with a raw TypeError
    pytest.param(dict(n_paths=1000.5, dt=0.01, horizon=10.0), id="n_paths-float"),
    pytest.param(dict(n_paths=1000.0, dt=0.01, horizon=10.0), id="n_paths-integral-float"),
    pytest.param(dict(n_paths=True, dt=0.01, horizon=10.0), id="n_paths-bool"),
    pytest.param(
        dict(n_paths=1000, dt=0.01, horizon=10.0, block_size=256.5), id="block_size-float"
    ),
    pytest.param(
        dict(n_paths=1000, dt=0.01, horizon=10.0, block_size=True), id="block_size-bool"
    ),
])
def test_sim_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


def test_truncation_budget_enforced():
    # exp(-0.06 * 50) is about 5 percent, far above the 1e-3 budget
    spec = make_spec("put")
    cfg = SimConfig(n_paths=200, dt=0.01, horizon=50.0)
    with pytest.raises(ConfigError, match="truncation budget"):
        simulate_stopped_payoff(
            spec, StateTriple(1.0, 1.0, 0.0), ConstantRule(2.0 / 3.0), cfg
        )


# ---------------------------------------------------------------------------
# exact limits


def test_immediate_stop_is_exact():
    spec = make_spec("put")
    cfg = SimConfig(n_paths=500, dt=0.01, horizon=120.0, seed=5)
    res = simulate_stopped_payoff(
        spec, StateTriple(0.75, 1.0, 0.25), ConstantRule(0.8), cfg
    )
    assert res.mean == 0.25
    assert res.stderr == 0.0
    assert res.mean_stop_time == 0.0
    assert res.n_horizon == 0


def test_immediate_stop_call_side():
    spec = make_spec("call")
    cfg = SimConfig(n_paths=500, dt=0.01, horizon=120.0, seed=5)
    res = simulate_stopped_payoff(
        spec, StateTriple(2.5, 2.5, 0.5), ConstantRule(2.0), cfg
    )
    assert res.mean == 1.5
    assert res.stderr == 0.0


def test_near_deterministic_drift_hits_analytic_time():
    # with tiny volatility the path drifts down at rate r - delta and the
    # discounted payoff collapses to exp(-r tau) (L - a) with known tau
    spec = make_spec("put", r=0.06, delta=0.12, sigma=1e-3)
    a = 0.8
    cfg = SimConfig(n_paths=200, dt=0.01, horizon=120.0, seed=9)
    res = simulate_stopped_payoff(
        spec, StateTriple(1.0, 1.0, 0.0), ConstantRule(a), cfg
    )
    mu = spec.r - 0.12 - 0.5e-6
    tau = np.log(a) / mu
    want = np.exp(-spec.r * tau) * (1.0 - a)
    assert res.stderr < 1e-4
    assert abs(res.mean - want) < 1e-3
    assert abs(res.mean_stop_time - tau) < 0.05


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_bit_identical():
    spec = make_spec("put")
    cfg = SimConfig(n_paths=2000, dt=0.01, horizon=120.0, seed=123)
    start = StateTriple(1.0, 1.0, 0.0)
    rule = ConstantRule(2.0 / 3.0)
    r1 = simulate_stopped_payoff(spec, start, rule, cfg)
    r2 = simulate_stopped_payoff(spec, start, rule, cfg)
    assert r1 == r2


def test_seed_changes_estimate():
    spec = make_spec("put")
    start = StateTriple(1.0, 1.0, 0.0)
    rule = ConstantRule(2.0 / 3.0)
    r1 = simulate_stopped_payoff(
        spec, start, rule, SimConfig(n_paths=2000, dt=0.01, horizon=120.0, seed=1)
    )
    r2 = simulate_stopped_payoff(
        spec, start, rule, SimConfig(n_paths=2000, dt=0.01, horizon=120.0, seed=2)
    )
    assert r1.mean != r2.mean


def test_block_size_does_not_change_path_count():
    # a path's draws are keyed by its index in the pass, not by its block
    spec = make_spec("put", r=0.3, delta=0.1)
    start = StateTriple(1.0, 1.0, 0.0)
    rule = ConstantRule(0.85)
    res = [
        simulate_stopped_payoff(
            spec, start, rule,
            SimConfig(n_paths=512, dt=0.02, horizon=24.0, seed=3, block_size=b),
        )
        for b in (128, 256, 300, 512)
    ]
    assert res[0].n_paths == 512
    assert res[1:] == res[:1] * 3


def test_large_seeds_give_distinct_results():
    # 2**63 and 2**63 + 1 once shared one stream
    spec = make_spec("put", r=0.3, delta=0.1)
    start = StateTriple(1.0, 1.0, 0.0)
    rule = ConstantRule(0.85)
    r1, r2, r3 = (
        simulate_stopped_payoff(
            spec, start, rule, SimConfig(n_paths=500, dt=0.02, horizon=24.0, seed=seed)
        )
        for seed in (2**63, 2**63 + 1, 2**64 - 1)
    )
    assert len({r1.mean, r2.mean, r3.mean}) == 3


# ---------------------------------------------------------------------------
# the counter-keyed generator


def _generator_draws(n_paths, steps, seed=2026):
    keys = _stream_keys(seed)
    weyl = _path_weyl(np.arange(n_paths))
    z, u = zip(*(_draws(keys, weyl, k) for k in steps))
    return np.array(z), np.array(u)


def test_generator_uniforms_pass_ks_on_the_lattice():
    _, u = _generator_draws(1000, range(1000))
    u = u.ravel()
    assert u.size == 10**6
    assert stats.kstest(u, "uniform").pvalue > 1e-3
    assert u.min() >= 0.0 and u.max() < 1.0
    m = u * 2.0**53
    assert np.array_equal(m, np.floor(m))


def test_generator_normals_match_four_moments_and_stay_finite():
    z, _ = _generator_draws(1000, range(1000, 2000))
    z = z.ravel()
    n = z.size
    assert abs(z.mean()) < 5.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    assert abs(stats.skew(z)) < 5.0 * np.sqrt(6.0 / n)
    assert abs(stats.kurtosis(z)) < 5.0 * np.sqrt(24.0 / n)
    # the extreme hashes: the top bits all clear and all set
    ends = _normals(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert np.all(np.isfinite(ends)) and ends[0] == -ends[1] < -8.0


def test_generator_adjacent_paths_and_steps_are_uncorrelated():
    z, u = _generator_draws(10**6 + 1, (7, 8))
    n = 10**6
    bound = 5.0 / np.sqrt(n)
    for d in (z, u):
        assert abs(np.corrcoef(d[0, :-1], d[0, 1:])[0, 1]) < bound  # paths
        assert abs(np.corrcoef(d[0, :n], d[1, :n])[0, 1]) < bound  # steps
    assert abs(np.corrcoef(z[0, :n], u[0, :n])[0, 1]) < bound  # slots


def test_generator_keys_differ_per_seed_and_slot():
    keys = {k for seed in (0, 1, 2**63, 2**63 + 1, 2**64 - 1) for k in _stream_keys(seed)}
    assert len(keys) == 10


def _pin_surface_rule():
    spec = ModelSpec(
        r=0.3,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.1, 0.02, 0.05)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    surf = build_put_surface(
        spec, np.linspace(0.05, 20.0, 24), np.linspace(0.0, 19.9, 16)
    )
    return spec, SurfaceRule(surf)


def test_surface_rule_simulation_matches_recorded_bits():
    """A fixed-seed simulation under a surface barrier, pinned bit for bit.

    First recorded from the loop that re-evaluated the barrier and both
    fields on every live path at every step, before the per-path cache,
    which moved no bit.  Re-recorded when the march became error-controlled
    and moved the surface (same path counts, the mean 7.9e-12 lower, the
    mean stop time 2.2e-12 lower), and again when the diagonal curve that
    seeds it was read off its steps' continuous extensions (same path
    counts, the mean 1.5e-13 and the mean stop time 3.9e-14 higher).
    Re-recorded when the march in lane time kept the surface's y = 0 row,
    which the start (1, 1, 0) reads and which the lattice lookup had filled
    from the next row before: the mean fell from 0.0351 to 0.0212, the
    horizon cash-outs rose from 296 to 421 and the mean stop time from 14.5
    to 20.5.  Re-recorded when the seeds' diagonal curve and the put lanes
    moved to log s (same path counts, the mean 4.3e-12 and the mean stop
    time 2.7e-12 lower).  Re-recorded when the draws became counter-keyed
    hashes per path and step in place of a Philox stream per block, which
    changes every path: the mean rose from 0.02116 to 0.02309, the horizon
    cash-outs fell from 421 to 417 and the mean stop time from 20.49 to
    20.30.  Recorded with numpy 2.4 and scipy 1.17 on x86-64.
    """
    spec, rule = _pin_surface_rule()
    cfg = SimConfig(n_paths=500, dt=0.02, horizon=24.0, seed=2026, block_size=128)
    res = simulate_stopped_payoff(spec, StateTriple(1.0, 1.0, 0.0), rule, cfg)
    assert res == SimResult(
        mean=0.02308756043942234,
        stderr=0.002491352729827748,
        n_paths=500,
        n_horizon=417,
        mean_stop_time=20.302814686765682,
    )


def test_joint_surface_pass_matches_recorded_bits():
    """Three scalings of one surface on one pass, pinned bit for bit.

    The start (0.9, 1, 0.1) sits above every barrier and close to them, so
    the bridge test stops paths on all three rules (116, 50 and 239 paths
    stopped by a crossing inside a step with both endpoints unhit); 600
    paths in blocks of 256 leave a short last block.  First recorded from
    the pass that looked each rule's barrier up on its own and took the
    bridge probability on every live path, which the shared lookups and
    the screened bridge test kept bit for bit.  Re-recorded when the draws
    became counter-keyed hashes per path and step in place of a Philox
    stream per block, which changes every path: the means moved from
    (0.05892, 0.03419, 0.09664) to (0.06036, 0.03095, 0.09429), within
    1.1 standard errors each.  Recorded with numpy 2.4 and scipy 1.17 on
    x86-64.
    """
    spec, rule = _pin_surface_rule()
    rules = [rule, rule.scaled(0.9), rule.scaled(1.1)]
    cfg = SimConfig(n_paths=600, dt=0.02, horizon=24.0, seed=31, block_size=256)
    res = simulate_stopped_payoffs(spec, StateTriple(0.9, 1.0, 0.1), rules, cfg)
    assert res == [
        SimResult(
            mean=0.060358346226775966,
            stderr=0.0034473567867276483,
            n_paths=600,
            n_horizon=382,
            mean_stop_time=15.65140401947641,
        ),
        SimResult(
            mean=0.030948958622332493,
            stderr=0.003124375953334668,
            n_paths=600,
            n_horizon=509,
            mean_stop_time=20.56386808230386,
        ),
        SimResult(
            mean=0.09428752993840508,
            stderr=0.002318368116698292,
            n_paths=600,
            n_horizon=148,
            mean_stop_time=6.173095150242961,
        ),
    ]


def test_joint_run_equals_separate_runs():
    # three scalings of one surface plus a flat barrier that stops every
    # path at time zero, over several blocks with a short last one
    spec, rule = _pin_surface_rule()
    rules = [rule, rule.scaled(0.9), rule.scaled(1.1), ConstantRule(1.05)]
    cfg = SimConfig(n_paths=700, dt=0.02, horizon=24.0, seed=77, block_size=256)
    start = StateTriple(1.0, 1.0, 0.0)
    joint = simulate_stopped_payoffs(spec, start, rules, cfg)
    assert joint == [simulate_stopped_payoff(spec, start, r, cfg) for r in rules]
    assert joint[3].mean_stop_time == 0.0 and joint[3].n_horizon == 0
    assert len({r.mean for r in joint}) == 4


def test_joint_pass_is_bit_identical_across_block_sizes():
    # blocks of 128 and 256 (both with a short last block) and one block
    spec, rule = _pin_surface_rule()
    rules = [rule, rule.scaled(0.9), rule.scaled(1.1), ConstantRule(0.5)]
    start = StateTriple(0.9, 1.0, 0.1)
    res = [
        simulate_stopped_payoffs(
            spec, start, rules,
            SimConfig(n_paths=600, dt=0.02, horizon=24.0, seed=31, block_size=b),
        )
        for b in (128, 256, 600, 4096)
    ]
    assert res[1:] == res[:1] * 3


def test_paths_stopped_before_the_horizon_keep_their_bits_when_it_doubles():
    # runs that differ only in horizon share every common step's draws, so a
    # path stopped before the shorter horizon stops alike in the longer run
    spec, rule = _pin_surface_rule()
    rules = [rule, rule.scaled(1.1)]
    start = StateTriple(0.9, 1.0, 0.1)
    short = SimConfig(n_paths=400, dt=0.02, horizon=24.0, seed=5, block_size=256)
    long = SimConfig(n_paths=400, dt=0.02, horizon=48.0, seed=5, block_size=256)
    pay_s, time_s, n_hor = _stopped_paths(spec, start, rules, short)
    pay_l, time_l, _ = _stopped_paths(spec, start, rules, long)
    early = time_s < short.horizon
    assert 0 < n_hor.min() and early.sum(axis=1).min() > 100
    assert np.array_equal(pay_l[early], pay_s[early])
    assert np.array_equal(time_l[early], time_s[early])
    assert np.all(time_l[~early] >= short.horizon)


# ---------------------------------------------------------------------------
# pathwise state invariants, observed through the rule queries


class _ProbeRule:
    def __init__(self, level_value, x0, s0):
        self.inner = ConstantRule(level_value)
        self.min_s = np.inf
        self.min_gap = np.inf
        self.min_y = np.inf

    def level(self, s, y):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.size:
            self.min_s = min(self.min_s, float(np.min(s)))
            self.min_y = min(self.min_y, float(np.min(y)))
            self.min_gap = min(self.min_gap, float(np.min(s - y)))
        return self.inner.level(s, y)


def test_simulated_states_stay_in_admissible_cone():
    spec = make_spec("put")
    start = StateTriple(1.0, 1.2, 0.4)
    probe = _ProbeRule(0.1, start.x, start.s)
    cfg = SimConfig(n_paths=500, dt=0.01, horizon=120.0, seed=21)
    simulate_stopped_payoff(spec, start, probe, cfg)
    assert probe.min_s >= start.s  # the running maximum never decreases
    assert probe.min_y >= start.y - 1e-15
    assert probe.min_gap > 0.0


# ---------------------------------------------------------------------------
# discretization stability


def test_dt_refinement_is_stable():
    spec = make_spec("put", r=0.3, delta=0.1)
    start = StateTriple(1.0, 1.0, 0.0)
    rule = ConstantRule(0.85)
    coarse = simulate_stopped_payoff(
        spec, start, rule, SimConfig(n_paths=4000, dt=0.02, horizon=24.0, seed=17)
    )
    fine = simulate_stopped_payoff(
        spec, start, rule, SimConfig(n_paths=4000, dt=0.005, horizon=24.0, seed=17)
    )
    assert abs(coarse.mean - fine.mean) < 4.0 * np.hypot(coarse.stderr, fine.stderr)


# ---------------------------------------------------------------------------
# rule construction


def test_rule_from_solution_dispatch():
    put2 = PutSolution2D(make_spec("put"))
    assert isinstance(rule_from_solution(put2), CurveRule)
    call2 = CallSolution2D(make_spec("call"))
    assert isinstance(rule_from_solution(call2), CurveRule)
    put3 = PutSolution3D(make_spec("put"), n_s=33, n_y=25)
    assert isinstance(rule_from_solution(put3), SurfaceRule)
    with pytest.raises(TypeError):
        rule_from_solution(object())


def test_scaled_rules_compose():
    rule = ConstantRule(0.5).scaled(0.9).scaled(0.9)
    assert rule.level(1.0, 0.0) == pytest.approx(0.5 * 0.81, rel=1e-15)
    surf_rule = rule_from_solution(PutSolution2D(make_spec("put"))).scaled(1.1)
    assert surf_rule.level(5.0, 0.0) == pytest.approx(1.1 * 2.0 / 3.0, rel=1e-9)


def test_scaled_rules_share_their_unit():
    # a scaled rule's level is its factor times its unit's, bit for bit
    s = np.linspace(0.5, 3.0, 7)
    y = np.linspace(0.0, 0.4, 7)
    _, surf = _pin_surface_rule()
    curve = rule_from_solution(PutSolution2D(make_spec("put")))
    for rule in (ConstantRule(0.7), curve, surf):
        assert rule.unit is rule and rule.factor == 1.0
        scaled = rule.scaled(0.9).scaled(1.1)
        assert scaled.unit is rule and scaled.factor == 0.9 * 1.1
        assert np.array_equal(scaled.level(s, y), scaled.factor * rule.level(s, y))
        assert rule.factor == 1.0  # scaling copies; the unit stays as it was


def test_one_barrier_lookup_per_distinct_barrier(monkeypatch):
    # four scalings of one surface look it up as often as the surface alone;
    # on a put a higher barrier stops a path no later, so both passes carry
    # the same paths and meet the same moved (S, Y)
    spec, rule = _pin_surface_rule()
    calls = []
    level = SurfaceRule.level

    def counted(self, s, y):
        calls.append(self)
        return level(self, s, y)

    monkeypatch.setattr(SurfaceRule, "level", counted)
    cfg = SimConfig(n_paths=500, dt=0.02, horizon=24.0, seed=2026, block_size=128)
    start = StateTriple(1.0, 1.0, 0.0)
    alone = simulate_stopped_payoff(spec, start, rule, cfg)
    n_alone = len(calls)
    calls.clear()
    rules = [rule] + [rule.scaled(f) for f in (1.05, 1.1, 1.2)]
    joint = simulate_stopped_payoffs(spec, start, rules, cfg)
    # four blocks, each with its first lookup and one per step of 1200
    assert n_alone == 4 * (1 + 1200)
    assert len(calls) == n_alone
    assert all(unit is rule for unit in calls)
    assert joint[0] == alone


# ---------------------------------------------------------------------------
# the screened bridge test against the full one


def _bridge_full(d_prev, d_new, var, u):
    return (np.minimum(d_prev, d_new) > 0.0) & (u < np.exp(-2.0 * d_prev * d_new / var))


def _assert_bridge_exact(d_prev, d_new, var, u):
    # gaps of shape (lanes,) or (rules, lanes); var and u are per lane
    shape = np.broadcast_shapes(*(np.shape(a) for a in (d_prev, d_new, var, u)))
    d_prev, d_new = (np.broadcast_to(np.asarray(a, float), shape) for a in (d_prev, d_new))
    var, u = (np.broadcast_to(np.asarray(a, float), shape[-1:]) for a in (var, u))
    with np.errstate(all="ignore"):
        got = _bridge_crossed(d_prev, d_new, var, u, np.log(u))
        want = _bridge_full(d_prev, d_new, var, u)
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want)


def test_bridge_screen_edge_cases():
    with np.errstate(all="ignore"):
        v = -2.0 * 0.01 * 0.02 / np.array([4e-4, 1e-2, 1e-5])
        e = np.exp(v)
    # u == 0 crosses wherever exp(v) > 0, and not where it underflows
    _assert_bridge_exact([0.01, 1.0], [0.02, 1.0], [4e-4, 1e-6], 0.0)
    # u at exp(v) does not cross, the float just below it does
    _assert_bridge_exact(0.01, 0.02, [4e-4, 1e-2, 1e-5], e)
    _assert_bridge_exact(0.01, 0.02, [4e-4, 1e-2, 1e-5], np.nextafter(e, 0.0))
    assert _bridge_crossed(
        np.full(3, 0.01), np.full(3, 0.02), np.array([4e-4, 1e-2, 1e-5]),
        np.nextafter(e, 0.0), np.log(np.nextafter(e, 0.0)),
    ).all()
    # NaN and infinite gaps, alone and against each other
    odd = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-3]
    dp, dn = np.meshgrid(odd, odd)
    for u in (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53):
        _assert_bridge_exact(dp, dn, 1e-3, u)
    # v below -745: exp underflows to 0
    _assert_bridge_exact([1.0, 0.5], [1.0, 0.4], [1e-3, 1e-4], [0.0, 2.0**-53])
    # tiny and zero variance: v is -inf or NaN
    for var in (5e-324, 1e-300, 0.0):
        _assert_bridge_exact([1e-3, 1e-200, 0.0], [1e-3, 1e-200, 1e-3], var, [0.0, 0.3, 0.3])
    # several rules at once: the gaps hold one row per rule
    _assert_bridge_exact(
        [[0.01, 0.02, -0.01], [0.001, 0.5, 0.002]],
        [[0.01, 0.0, 0.02], [0.003, 0.5, 0.001]],
        [4e-4, 1e-3, 2e-4],
        [0.0, 0.6, 0.5],
    )


_gap = st.one_of(
    st.floats(-0.05, 0.2),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _bridge_lanes(draw):
    n = draw(st.integers(1, 12))
    d_prev = np.array(draw(st.lists(_gap, min_size=n, max_size=n)))
    d_new = np.array(draw(st.lists(_gap, min_size=n, max_size=n)))
    var = np.array(draw(st.lists(
        st.floats(min_value=0.0, max_value=0.1, allow_subnormal=True),
        min_size=n, max_size=n,
    )))
    # uniforms as the generator gives them, k * 2**-53, some next to exp(v)
    k = np.array(draw(st.lists(st.integers(0, 2**53 - 1), min_size=n, max_size=n)))
    near = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    use_near = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    with np.errstate(all="ignore"):
        e = np.exp(-2.0 * d_prev * d_new / var)
        k_near = np.nan_to_num(np.floor(e * 2.0**53), nan=0.0) + near
    k = np.where(use_near, np.clip(k_near, 0, 2**53 - 1), k)
    return d_prev, d_new, var, k * 2.0**-53


@settings(max_examples=300, deadline=None)
@given(_bridge_lanes())
def test_bridge_screen_matches_the_full_test(lanes):
    _assert_bridge_exact(*lanes)


# ---------------------------------------------------------------------------
# structural audit and the report object


def test_audit_flat_put_solution_clean():
    spec = make_spec("put")
    sol = PutSolution3D(spec, n_s=33, n_y=25)
    audit = audit_solution(spec, sol, dominance_shape=(12, 12, 12))
    assert audit["dominance_violations"] == 0
    assert audit["smooth_fit_gap"] <= 1e-3
    assert audit["generator_sign_violations"] == 0
    assert audit["generator_residual_max"] <= 1e-5
    # recorded from the audit that queried the solution method by method;
    # the residual again once it took the line's exact x-derivatives instead
    # of central differences (3.5e-9 before); same caveat about the
    # platform's libm as the surface pins
    assert audit["dominance_worst_gap"] == 0.0
    assert audit["smooth_fit_gap"].hex() == "0x1.d7c3ccf688000p-13"
    assert audit["generator_residual_max"].hex() == "0x1.0000000000000p-60"


@pytest.fixture(scope="module")
def drawdown_put():
    spec = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.02, 0.0, 0.01)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    return spec, PutSolution3D(spec, n_s=33, n_y=25)


def test_audit_drawdown_put_matches_recorded_bits(drawdown_put):
    # recorded like the flat put's pin above, then again once the diagonal
    # curve that seeds the slices was read off its steps' continuous
    # extensions: the smooth-fit gap moved by 5.6e-13 and the residual, a
    # central second difference at rounding level, from 7.7e-10 to 2.7e-9;
    # with the line's exact x-derivatives the residual is 8.7e-19; and again
    # once the curve ran on the one lane march in log s: the gap moved by
    # 5.5e-13, the residual to 1.7e-18
    spec, sol = drawdown_put
    audit = audit_solution(spec, sol, dominance_shape=(12, 12, 12))
    assert audit["dominance_violations"] == 0
    assert audit["generator_sign_violations"] == 0
    assert audit["dominance_worst_gap"] == 0.0
    assert audit["smooth_fit_gap"].hex() == "0x1.e0787f6158000p-13"
    assert audit["generator_residual_max"].hex() == "0x1.0000000000000p-59"


@pytest.mark.parametrize(
    "factors", [(np.nan,), (np.inf,), (-1.0,), (0.0,), (0.9, np.nan)]
)
def test_verify_rejects_a_perturbation_that_is_not_finite_and_positive(drawdown_put, factors):
    # a NaN factor would write NaN into the report's JSON, and a factor at
    # or below 0 would put the barrier at or below 0
    spec, sol = drawdown_put
    cfg = SimConfig(n_paths=200, dt=0.01, horizon=50.0)
    with pytest.raises(ValueError, match="perturb_factors must be finite and positive"):
        verify_solution(spec, sol, StateTriple(1.0, 1.2, 0.5), cfg, perturb_factors=factors)


def test_verify_counts_a_rescaled_barrier_that_beats_the_solved_one():
    # the flat put's barrier raised by 1.3 before the simulator first reads
    # it: the factor 1/1.3 gives back the optimal barrier, which earns
    # clearly more than the raised one under the same draws
    spec = make_spec("put")
    sol = PutSolution3D(spec, n_s=33, n_y=25)
    assert sol.surface._filled is None
    sol.surface.values *= 1.3
    cfg = SimConfig(n_paths=4000, dt=0.05, horizon=120.0, seed=7)
    report = verify_solution(
        spec, sol, StateTriple(1.0, 1.2, 0.5), cfg, perturb_factors=(1 / 1.3,)
    )
    assert report.perturbation_violations >= 1
    assert report.passed is False


def test_audit_residual_takes_the_line_derivatives(drawdown_put):
    # the audit hands generator_residual the line's exact power-form
    # x-derivatives; central differences of the line's value, the reference,
    # agree with them to within their own rounding
    from drawdown_options import generator_residual

    spec, sol = drawdown_put
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(60):
        s = rng.uniform(0.5, 10.0)
        y = rng.uniform(0.05, 0.95) * s
        ln = sol.line(s, y)
        if ln.branch == "stop":
            continue
        lo = ln.level if ln.branch == "direct" else s - y
        x = 0.5 * (lo + s)
        h = 1e-4 * x
        up, mid, down = ln.value(x + h), ln.value(x), ln.value(x - h)
        assert abs((up - down) / (2.0 * h) - ln.dvalue_dx(x)) < 1e-6
        assert abs((up - 2.0 * mid + down) / (h * h) - ln.d2value_dx2(x)) < 1e-6
        point = StateTriple(x=x, s=s, y=y)
        exact = generator_residual(
            spec, ln.value, point, dfdx=ln.dvalue_dx, d2fdx2=ln.d2value_dx2
        )
        assert abs(exact) < 1e-15
        assert abs(generator_residual(spec, ln.value, point) - exact) < 1e-7
        checked += 1
    assert checked > 40


def test_audit_assembles_each_probed_line_once(drawdown_put, monkeypatch):
    # one batch of line records for all the probes, in s-major order: no
    # per-probe line call, each pinned line re-marched once, and one
    # coefficient lookup per region for all its reflected probes
    from drawdown_options.reflection_pde import CoefficientGrid

    spec, sol = drawdown_put
    surf = sol.surface
    s_nodes = np.linspace(surf.s_grid[0], surf.s_grid[-1], 12)
    y_nodes = np.linspace(0.0, surf.y_grid[-1], 12)
    probes = [(s, y) for s in s_nodes for y in y_nodes[y_nodes < s * (1.0 - 1e-9)]]
    branches = [sol.branch(s, y) for s, y in probes]
    n_reflect = branches.count("reflect")
    assert n_reflect > 0 and "direct" in branches

    batches, remarched, lookups = [], [], []
    lines, level, coeffs_at = sol.lines, sol._level, CoefficientGrid.coeffs_at

    def counted_lines(ss, ys):
        batches.append(list(zip(ss, ys)))
        return lines(ss, ys)

    def counted_level(s, y, cheap):
        remarched.append((s, y))
        return level(s, y, cheap)

    def counted_coeffs_at(grid, s, y):
        lookups.append((id(grid), np.size(s)))
        return coeffs_at(grid, s, y)

    def no_line(s, y):
        raise AssertionError("the audit assembles its probes as one batch")

    monkeypatch.setattr(sol, "lines", counted_lines)
    monkeypatch.setattr(sol, "_level", counted_level)
    monkeypatch.setattr(sol, "line", no_line)
    monkeypatch.setattr(CoefficientGrid, "coeffs_at", counted_coeffs_at)
    audit_solution(spec, sol, dominance_shape=(12, 12, 12))
    assert batches == [probes]
    assert len(set(remarched)) == len(remarched)
    direct = {p for p, br in zip(probes, branches) if br == "direct"}
    assert direct <= set(remarched) <= set(probes)
    grids = [g for g, _ in lookups]
    assert len(set(grids)) == len(grids) <= len(sol.regions)
    assert sum(n for _, n in lookups) == n_reflect


def test_report_pass_logic():
    base = dict(
        mc_mean=0.148,
        mc_stderr=0.001,
        analytic_value=4.0 / 27.0,
        match_gap=0.0005,
        match_threshold=0.003,
        dominance_violations=0,
        dominance_worst_gap=0.0,
        smooth_fit_gap=2e-4,
        generator_sign_violations=0,
        generator_residual_max=1e-7,
        perturbation_table=[[0.9, 0.14, 0.001], [1.0, 0.148, 0.001]],
        perturbation_violations=0,
        n_paths=20000,
    )
    assert VerificationReport(**base).passed
    assert not VerificationReport(**{**base, "match_gap": 0.004}).passed
    assert not VerificationReport(**{**base, "dominance_violations": 3}).passed
    assert not VerificationReport(**{**base, "smooth_fit_gap": 0.1}).passed
    assert not VerificationReport(**{**base, "perturbation_violations": 1}).passed
    d = VerificationReport(**base).as_dict()
    assert d["passed"] is True
    assert d["n_paths"] == 20000


def test_sim_result_dict_round_trip():
    spec = make_spec("put")
    cfg = SimConfig(n_paths=200, dt=0.01, horizon=120.0, seed=2)
    res = simulate_stopped_payoff(
        spec, StateTriple(0.5, 1.0, 0.5), ConstantRule(2.0 / 3.0), cfg
    )
    d = res.as_dict()
    assert set(d) == {"mean", "stderr", "n_paths", "n_horizon", "mean_stop_time"}
    assert d["mean"] == res.mean

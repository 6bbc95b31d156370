"""Acceptance gate: the eight shipped guarantees, one pass/fail line each.

Each test prints ``criterion N: PASS/FAIL`` with its measured numbers, then
asserts.  Criteria 4, 5 and 8 share one Monte Carlo run, so this module is
meant to run in definition order (plain pytest does).
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from drawdown_options import (
    CallSolution2D,
    CoefficientField,
    ColumnClosure,
    ModelSpec,
    PutSolution2D,
    PutSolution3D,
    RegionSpec,
    RowClosure,
    SimConfig,
    StateTriple,
    audit_solution,
    build_call_surface,
    build_put_surface,
    call_boundary_2d,
    pde_residuals,
    roots,
    rule_from_solution,
    simulate_stopped_payoff,
    solve_reflection_region,
    verify_solution,
)
from drawdown_options.coefficients import _CALL, _PUT
from drawdown_options.solver2d import put_asymptote, put_boundary_2d
from drawdown_options.solver3d import _stage

RESULTS = {}


def _flat(kind, **kw):
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField("constant", (0.03,)),
        sigma_field=CoefficientField("constant", (0.2,)),
        **kw,
    )


def _sloped(kind):
    params = (0.02, 0.02) if kind == "call" else (0.02, 0.01)
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField("s_only", params),
        sigma_field=CoefficientField("constant", (0.2,)),
    )


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _reference_run():
    """Criterion-4 Monte Carlo under the solved boundary, computed once."""
    if "ref" not in RESULTS:
        spec = _flat("put")
        t0 = time.perf_counter()
        sol = PutSolution3D(spec)
        rule = rule_from_solution(sol)
        cfg = SimConfig(n_paths=20_000, dt=5e-3, horizon=120.0, seed=20260822)
        start = StateTriple(1.0, 1.0, 0.0)
        res = simulate_stopped_payoff(spec, start, rule, cfg)
        elapsed = time.perf_counter() - t0
        RESULTS["ref"] = (spec, sol, rule, cfg, start, res, elapsed)
    return RESULTS["ref"]


def test_criterion_1_root_reduction():
    spec = _flat("put")
    rp = roots(spec, 1.0, 0.0)  # warm-up outside the timed call
    t0 = time.perf_counter()
    rp = roots(spec, 1.0, 0.0)
    elapsed = time.perf_counter() - t0
    # independent oracle: numpy's companion-matrix quadratic solve
    hi, lo = sorted(np.roots([0.02, 0.03 - 0.02, -0.06]).real, reverse=True)
    err = max(
        abs(rp.gamma1 - 1.5),
        abs(rp.gamma2 + 2.0),
        abs(rp.gamma1 - hi),
        abs(rp.gamma2 - lo),
    )
    ok = err <= 1e-12 and elapsed < 1e-3
    _line(1, ok, f"max root error {err:.2e}, runtime {elapsed * 1e3:.3f} ms")


def test_criterion_2_flat_model_reduction():
    t0 = time.perf_counter()
    call = _flat("call")
    put = _flat("put")
    h_err = float(abs(call_boundary_2d(call, 1.7) - 3.0))
    g_err = float(abs(put_asymptote(put) - 2.0 / 3.0))
    v_err = abs(PutSolution2D(put).value(1.0, 1.0) - 4.0 / 27.0)
    elapsed = time.perf_counter() - t0
    ok = h_err <= 1e-12 and g_err <= 1e-12 and v_err <= 1e-10 and elapsed < 1.0
    _line(
        2,
        ok,
        f"|h*-3K| {h_err:.2e}, |g*-2L/3| {g_err:.2e}, "
        f"|put(L,L)-4/27| {v_err:.2e}, runtime {elapsed:.2f} s",
    )


def test_criterion_3_degeneracy_ladder():
    flat_call, flat_put = _flat("call"), _flat("put")
    # flat coefficients freeze every boundary ODE right-hand side; these are
    # the stages the curve and slice marches evaluate
    rhs_max = 0.0
    for s, g in ((0.8, 0.6), (3.0, 0.65), (12.0, 0.66)):
        rhs_max = max(rhs_max, abs(float(_stage(_PUT, flat_put, s, 0.0)(g))))
        rhs_max = max(rhs_max, abs(float(_stage(_CALL, flat_call, s, 0.3 * s)(3.0))))
        rhs_max = max(rhs_max, abs(float(_stage(_PUT, flat_put, s, 0.3 * s)(g))))
    curve = put_boundary_2d(flat_put)
    flat_2d = float(np.ptp(curve.values))

    s_grid = np.linspace(0.01, 20.0, 256)
    y_grid = np.linspace(0.0, 19.99, 256)
    t0 = time.perf_counter()
    surf_fc = build_call_surface(flat_call, s_grid, y_grid)
    surf_fp = build_put_surface(flat_put, s_grid, y_grid)
    sl_call, sl_put = _sloped("call"), _sloped("put")
    surf_sc = build_call_surface(sl_call, s_grid, y_grid)
    surf_sp = build_put_surface(sl_put, s_grid, y_grid)
    build_time = time.perf_counter() - t0

    flat_3d = max(
        float(np.ptp(surf_fc.values[np.isfinite(surf_fc.values)])),
        float(np.ptp(surf_fp.values[np.isfinite(surf_fp.values)])),
    )

    def rel_errs(surf, ref):
        finite = np.isfinite(surf.values)
        rel = np.abs(surf.values - ref[:, None]) / np.abs(ref[:, None])
        rows = finite.any(axis=1)
        vals = np.where(finite, surf.values, np.nan)[rows]
        in_y = np.nanmax(vals, axis=1) - np.nanmin(vals, axis=1)
        return (
            float(np.max(in_y / np.abs(ref[rows]))),
            float(np.nanmax(np.where(finite, rel, np.nan))),
        )

    spread_c, match_c = rel_errs(surf_sc, np.asarray(call_boundary_2d(sl_call, s_grid)))
    spread_p, match_p = rel_errs(surf_sp, np.asarray(PutSolution2D(sl_put).curve(s_grid)))

    ok = (
        rhs_max <= 1e-15
        and flat_2d <= 1e-12
        and flat_3d <= 1e-12
        and max(spread_c, spread_p) <= 1e-8
        and max(match_c, match_p) <= 1e-8
        and build_time < 10.0
    )
    _line(
        3,
        ok,
        f"flat rhs {rhs_max:.1e}, flat curve/surface spread {flat_2d:.1e}/"
        f"{flat_3d:.1e}, s_only y-spread {max(spread_c, spread_p):.1e}, "
        f"2D match {max(match_c, match_p):.1e}, "
        f"256x256 build time {build_time:.1f} s",
    )


def test_criterion_4_monte_carlo_consistency():
    spec, sol, rule, cfg, start, res, elapsed = _reference_run()
    exact = 4.0 / 27.0
    err = abs(res.mean - exact)
    tol = max(0.02 * exact, 3.0 * res.stderr)
    ok = err <= tol and elapsed < 60.0
    _line(
        4,
        ok,
        f"estimate {res.mean:.6f} vs {exact:.6f}, error {err:.2e} "
        f"(tolerance {tol:.2e}), runtime {elapsed:.1f} s",
    )


def test_criterion_5_boundary_optimality():
    spec, sol, rule, cfg, start, res, ref_elapsed = _reference_run()
    t0 = time.perf_counter()
    report = verify_solution(spec, sol, start, cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        report.perturbation_violations == 0
        and report.passed
        and elapsed < 3.0 * ref_elapsed
    )
    rows = ", ".join(
        f"x{f:g}: {m:.6f}+-{e:.1e}" for f, m, e in report.perturbation_table
    )
    _line(
        5,
        ok,
        f"no rescaled barrier wins ({rows}), report passed={report.passed}, "
        f"runtime {elapsed:.1f} s (budget {3.0 * ref_elapsed:.1f} s)",
    )


def test_criterion_6_free_boundary_conditions():
    spec = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.02, 0.0, 0.01)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    t0 = time.perf_counter()
    sol = PutSolution3D(spec)
    audit = audit_solution(spec, sol, dominance_shape=(50, 50, 50))
    elapsed = time.perf_counter() - t0
    ok = (
        audit["dominance_violations"] == 0
        and audit["smooth_fit_gap"] <= 1e-3
        and audit["generator_residual_max"] <= 1e-5
        and audit["generator_sign_violations"] == 0
        and elapsed < 120.0
    )
    _line(
        6,
        ok,
        f"dominance violations {audit['dominance_violations']}, smooth-fit gap "
        f"{audit['smooth_fit_gap']:.2e}, generator residual "
        f"{audit['generator_residual_max']:.2e}, stopped-sign violations "
        f"{audit['generator_sign_violations']}, runtime {elapsed:.1f} s",
    )


def test_criterion_7_reflection_region_oracle():
    spec = _sloped("call")
    t0 = time.perf_counter()
    s_star = brentq(lambda s: call_boundary_2d(spec, s) - s, 1.0, 10.0)
    s_grid = np.geomspace(0.25, s_star, 1537)
    s_grid[-1] = s_star
    y_grid = np.linspace(0.01, 0.2, 5)
    active = np.ones((s_grid.size, y_grid.size), dtype=bool)
    region = RegionSpec(
        s_grid,
        y_grid,
        active,
        [ColumnClosure(i, "c2_zero", y_pos=s_grid[i]) for i in range(s_grid.size)],
        [
            RowClosure(j, "combo", s_pos=s_star, x_base=s_star, target=s_star - 1.0)
            for j in range(y_grid.size)
        ],
    )
    grid = solve_reflection_region(spec, region)
    oracle = CallSolution2D(spec)
    worst = max(
        abs(float(grid.C1[i, 2]) - oracle.coefficient(float(s)))
        / abs(oracle.coefficient(float(s)))
        for i, s in enumerate(s_grid)
    )
    res_c, res_d = pde_residuals(spec, grid)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and res_c <= 1e-6 and res_d <= 1e-6 and elapsed < 30.0
    _line(
        7,
        ok,
        f"integral-oracle mismatch {worst:.2e}, residual pair "
        f"({res_c:.2e}, {res_d:.2e}), runtime {elapsed:.1f} s",
    )


def test_criterion_8_truncation_robustness():
    spec20 = _sloped("put")
    spec40 = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("s_only", (0.02, 0.01)),
        sigma_field=CoefficientField("constant", (0.2,)),
        domain_s_max=40.0,
    )
    g20 = put_boundary_2d(spec20)
    g40 = put_boundary_2d(spec40)
    probe = np.linspace(0.06, 5.0, 800)
    v20 = np.interp(probe, g20.grid, g20.values)
    v40 = np.interp(probe, g40.grid, g40.values)
    curve_move = float(np.max(np.abs(v40 - v20) / np.abs(v20)))

    spec, sol, rule, cfg, start, res, _ = _reference_run()
    long_cfg = SimConfig(
        n_paths=cfg.n_paths, dt=cfg.dt, horizon=2.0 * cfg.horizon, seed=cfg.seed
    )
    res_long = simulate_stopped_payoff(spec, start, rule, long_cfg)
    mc_move = abs(res_long.mean - res.mean)

    ok = curve_move < 1e-4 and mc_move < res.stderr
    _line(
        8,
        ok,
        f"boundary move 20L->40L {curve_move:.2e} (limit 1e-4), horizon-doubling "
        f"move {mc_move:.2e} vs stderr {res.stderr:.2e}",
    )

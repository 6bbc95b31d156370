import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import brentq

from drawdown_options import (
    CallSolution2D,
    CoefficientField,
    ColumnClosure,
    ModelSpec,
    PutSolution3D,
    RegionSpec,
    RowClosure,
    UnderdeterminedRegion,
    call_boundary_2d,
    pde_residuals,
    solve_reflection_region,
)


def flat_call_spec():
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="call",
        delta_field=CoefficientField("constant", (0.03,)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )


def sloped_call_spec():
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="call",
        delta_field=CoefficientField("s_only", (0.02, 0.02)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )


def flat_region(n_s=17, n_y=9):
    # rectangle anchored at the known flat barrier h = 3
    s_grid = np.linspace(1.0, 2.0, n_s)
    y_grid = np.linspace(0.1, 0.5, n_y)
    active = np.ones((n_s, n_y), dtype=bool)
    dy = y_grid[1] - y_grid[0]
    cols = [ColumnClosure(i, "c2_zero", y_pos=y_grid[-1] + dy) for i in range(n_s)]
    rows = [
        RowClosure(j, "combo", s_pos=3.0, x_base=3.0, target=2.0)
        for j in range(n_y)
    ]
    return RegionSpec(s_grid, y_grid, active, cols, rows)


def sloped_region(n_s=1537):
    # all-reflecting band of the maximum-only call, closed on the diagonal
    # by c2_zero and on the barrier crossing by payoff-anchored combos
    spec = sloped_call_spec()
    s_star = brentq(lambda s: call_boundary_2d(spec, s) - s, 1.0, 10.0)
    s_grid = np.geomspace(0.25, s_star, n_s)
    s_grid[-1] = s_star
    y_grid = np.linspace(0.01, 0.2, 5)
    active = np.ones((s_grid.size, y_grid.size), dtype=bool)
    cols = [ColumnClosure(i, "c2_zero", y_pos=s_grid[i]) for i in range(s_grid.size)]
    rows = [
        RowClosure(j, "combo", s_pos=s_star, x_base=s_star, target=s_star - 1.0)
        for j in range(y_grid.size)
    ]
    return spec, RegionSpec(s_grid, y_grid, active, cols, rows)


# ---------------------------------------------------------------------------
# constant coefficients: the transport must keep the fields exactly flat


def test_flat_model_solves_to_flat_coefficients():
    spec = flat_call_spec()
    grid = solve_reflection_region(spec, flat_region())
    # smooth fit at the flat barrier kills the small-x power entirely
    g1 = 1.5
    c1_expected = 3.0 ** (1.0 - g1) / g1
    npt.assert_allclose(grid.C1, c1_expected, rtol=1e-12)
    assert np.max(np.abs(grid.C2)) < 1e-12
    res_c, res_d = pde_residuals(spec, grid)
    assert res_c < 1e-10
    assert res_d < 1e-10


def test_flat_model_value_at_reference_point():
    spec = flat_call_spec()
    grid = solve_reflection_region(spec, flat_region())
    c1, c2 = grid.coeffs_at(1.7, 0.3)
    value = c1 * 2.0**1.5 + c2 * 2.0**-2.0
    # same closed form as the slice solver at x=2 on any reflecting line
    assert abs(value - 1.0886621079036347) < 1e-12


# ---------------------------------------------------------------------------
# maximum-only coefficients: independent integral oracle for C1


def test_sloped_model_matches_integral_oracle():
    spec, region = sloped_region()
    grid = solve_reflection_region(spec, region)
    oracle = CallSolution2D(spec)
    worst = 0.0
    for i, s in enumerate(region.s_grid):
        want = oracle.coefficient(float(s))
        got = float(grid.C1[i, 2])
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-6
    assert np.max(np.abs(grid.C2)) < 1e-10
    res_c, res_d = pde_residuals(spec, grid)
    assert res_c < 5e-6
    assert res_d < 1e-10


def test_sloped_model_columns_constant_in_y():
    # a maximum-only model cannot depend on the drawdown coordinate
    spec, region = sloped_region(n_s=385)
    grid = solve_reflection_region(spec, region)
    spread = np.max(grid.C1, axis=1) - np.min(grid.C1, axis=1)
    assert np.max(spread / np.abs(grid.C1[:, 0])) < 1e-10


def test_residuals_detect_a_perturbed_field():
    spec, region = sloped_region(n_s=385)
    grid = solve_reflection_region(spec, region)
    res_c_base, _ = pde_residuals(spec, grid)
    half = region.s_grid.size // 2
    grid.C1[:half, :] += 1e-3
    res_c_pert, _ = pde_residuals(spec, grid)
    assert res_c_pert > 1e-4
    assert res_c_pert > 100.0 * max(res_c_base, 1e-12)


def test_drawdown_put_region_matches_recorded_coefficients():
    # spot values of a drawdown put's reflected component, recorded from the
    # code that assembled column and row closures in separate blocks; they
    # hold to rounding, since only the anchor pair's arithmetic was refactored
    spec = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.02, 0.0, 0.01)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    (grid,) = PutSolution3D(spec, n_s=49, n_y=33).regions
    assert int(grid.active.sum()) == 752
    both = {
        (2, 0): (0.004668025680633134, 0.13797200560338635),
        (5, 1): (0.0004558720621597662, 0.14151437171371342),
        (8, 4): (3.942397697747113e-05, 0.14338698768117855),
        (12, 6): (9.930523463514745e-06, 0.14493464194118316),
    }
    for (i, j), (c1, c2) in both.items():
        npt.assert_allclose([grid.C1[i, j], grid.C2[i, j]], [c1, c2], rtol=1e-12)
    c2_only = {(20, 11): 0.14620914083236292, (35, 1): 0.21071074029680112,
               (48, 29): 0.14733504823304783}
    for (i, j), c2 in c2_only.items():
        npt.assert_allclose(grid.C2[i, j], c2, rtol=1e-12)


# ---------------------------------------------------------------------------
# closure bookkeeping


def test_missing_row_closure_rejected():
    spec = flat_call_spec()
    region = flat_region()
    region.row_closures = region.row_closures[:-1]
    with pytest.raises(UnderdeterminedRegion):
        solve_reflection_region(spec, region)


def test_duplicate_column_closure_rejected():
    spec = flat_call_spec()
    region = flat_region()
    region.column_closures[1] = ColumnClosure(
        0, "c2_zero", y_pos=region.y_grid[-1] + 0.05
    )
    with pytest.raises(UnderdeterminedRegion):
        solve_reflection_region(spec, region)


def test_non_contiguous_column_rejected():
    spec = flat_call_spec()
    region = flat_region()
    region.active[3, 4] = False  # puncture splits column 3 into two runs
    with pytest.raises(UnderdeterminedRegion):
        solve_reflection_region(spec, region)


def test_combo_closure_requires_anchor_data():
    with pytest.raises(ValueError):
        RowClosure(0, "combo", s_pos=3.0)
    with pytest.raises(ValueError):
        ColumnClosure(0, "combo", y_pos=1.0)
    with pytest.raises(ValueError):
        RowClosure(0, "no_such_kind")


def test_coeffs_at_clamps_to_grid_box():
    spec = flat_call_spec()
    grid = solve_reflection_region(spec, flat_region())
    inside = grid.coeffs_at(1.5, 0.3)
    below = grid.coeffs_at(0.2, -1.0)
    above = grid.coeffs_at(50.0, 9.0)
    npt.assert_allclose(below, inside, rtol=1e-12, atol=1e-14)
    npt.assert_allclose(above, inside, rtol=1e-12, atol=1e-14)

import hashlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from drawdown_options import (
    CallSolution2D,
    CallSolution3D,
    CoefficientField,
    ColumnClosure,
    DomainError,
    ModelSpec,
    NonConvergence,
    PutSolution3D,
    RegionSpec,
    RowClosure,
    UnderdeterminedRegion,
    call_boundary_2d,
    pde_residuals,
    residual_grids,
    roots_arrays,
    solve_reflection_region,
)
from drawdown_options.reflection_pde import _pair_entries


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
    # spot values of a drawdown put's reflected component, recorded once the
    # diagonal curve that seeds the slices ran on the one lane march, down
    # in log s; C1 and C2 moved by up to 3.5e-13 and 2.5e-12 of max|C| from
    # those seeded from the curve marched in s (the small C1 spots by up to
    # 7.3e-11 of their own size)
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
        (2, 0): (0.004668025684192324, 0.13797200559820003),
        (5, 1): (0.0004558720621492625, 0.14151437171374026),
        (8, 4): (3.94239769797208e-05, 0.1433869876811767),
        (12, 6): (9.930523462574652e-06, 0.14493464194153474),
    }
    for (i, j), (c1, c2) in both.items():
        npt.assert_allclose([grid.C1[i, j], grid.C2[i, j]], [c1, c2], rtol=1e-12)
    c2_only = {(20, 11): 0.14620914083242653, (35, 1): 0.2107107402968495,
               (48, 29): 0.1473350482331792}
    for (i, j), c2 in c2_only.items():
        npt.assert_allclose(grid.C2[i, j], c2, rtol=1e-12)


def _drawdown_put_spec():
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.02, 0.0, 0.01)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )


def test_reflection_grids_match_recorded_bits():
    """Regions of a drawdown put and a y-independent call, pinned bit for bit.

    Both were recorded once the sparse LU took the unknowns in their
    natural order instead of COLAMD's: that moved the put's coefficients
    by up to 1.3e-14 of max|C| and the call's by up to 1.1e-14, and the
    residuals in their last digits.  The put's, seeded from the diagonal
    curve, were recorded again when the curve moved to the one lane march
    in log s: C1 and C2 by up to 6.6e-14 and 1.1e-12 of max|C|, the
    residuals in their last digits.  Recorded with numpy 2.4 and scipy 1.17
    on x86-64; a libm that rounds log or pow differently, or another
    SuperLU, can move the last bits.
    """
    call = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="call",
        delta_field=CoefficientField("s_only", (0.03, 0.01)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    recorded = (
        (PutSolution3D, _drawdown_put_spec(), 2945,
         "535c74f10827416539261ae066551b8fc585c436a0e32a870a84536b1b13fc0f",
         ("0x1.4917cf25a40e1p-9", "0x1.b3ed46ccd5af3p-5")),
        (CallSolution3D, call, 61,
         "3af7d94dd8be2c771cdce754d53ebaa05826c7f02d42b86d5145ac998f9b115f",
         ("0x1.9ee203235bdcfp-9", "0x1.0664e8c53984fp-49")),
    )
    for cls, spec, n_active, digest, residuals in recorded:
        (grid,) = cls(spec, n_s=97, n_y=65).regions
        assert int(grid.active.sum()) == n_active
        h = hashlib.sha256()
        for c in (grid.C1, grid.C2):
            h.update(np.nan_to_num(c, nan=-1.0).tobytes())
        assert h.hexdigest() == digest
        assert tuple(float(r).hex() for r in pde_residuals(spec, grid)) == residuals


@pytest.mark.parametrize("case", ["drawdown_put", "criterion_7"])
def test_reflection_solve_is_accurate(case, monkeypatch):
    """The direct solve's residual, and its distance from a COLAMD-ordered LU.

    The solve factors in the natural order of the unknowns; COLAMD's
    fill-reducing column order, scipy's default, is kept here as the
    reference.  Both systems are the row-equilibrated ones handed to
    spsolve: the 193x129 drawdown put's reflected component and the
    criterion-7 band of the s-sloped call.  That band's C2 is exactly zero
    (the model depends on s alone), and every column order leaves rounding
    of about 1e-12 of max|C| on it: 2.5e-12 with COLAMD and 4.8e-12 in the
    natural order, against the solution refined in extended precision.
    There only C1 is held to the reference; the integral-oracle test
    bounds that C2 noise.
    """
    from scipy.sparse.linalg import spsolve

    from drawdown_options import reflection_pde

    systems = []

    def captured(mat, rhs, **kwargs):
        sol = spsolve(mat, rhs, **kwargs)
        systems.append((mat, rhs, sol))
        return sol

    monkeypatch.setattr(reflection_pde, "spsolve", captured)
    if case == "drawdown_put":
        (grid,) = PutSolution3D(_drawdown_put_spec()).regions
    else:
        grid = solve_reflection_region(*sloped_region())
    ((mat, rhs, sol),) = systems
    assert np.max(np.abs(mat @ sol - rhs)) <= 1e-13
    ref = spsolve(mat, rhs, permc_spec="COLAMD")
    scale = np.max(np.abs(ref))
    held = (grid.C1, grid.C2) if case == "drawdown_put" else (grid.C1,)
    for k, c in enumerate(held):
        assert np.max(np.abs(c[grid.active] - ref[k::2])) <= 1e-12 * scale


def _fill_inactive_by_node_loops(a, active):
    """The padding written as loops over every column and row."""
    out = np.array(a, dtype=float, copy=True)
    n_s, n_y = out.shape
    for i in range(n_s):
        col = out[i]
        mask = active[i]
        if not mask.any():
            continue
        idx = np.flatnonzero(mask)
        lo, hi = idx[0], idx[-1]
        col[:lo] = col[lo]
        col[hi + 1 :] = col[hi]
        inner = ~mask[lo : hi + 1]
        if inner.any():
            k = np.arange(lo, hi + 1)
            col[lo : hi + 1][inner] = np.interp(
                k[inner], k[~inner], col[lo : hi + 1][~inner]
            )
    for j in range(n_y):
        row = out[:, j]
        good = np.isfinite(row)
        if not good.any():
            continue
        idx = np.flatnonzero(good)
        row[: idx[0]] = row[idx[0]]
        row[idx[-1] + 1 :] = row[idx[-1]]
    return out


def test_fill_inactive_matches_the_node_loops_bit_for_bit():
    from drawdown_options.reflection_pde import _fill_inactive

    rng = np.random.default_rng(12)
    holes = 0
    for _ in range(400):
        n_s, n_y = (int(n) for n in rng.integers(1, 14, 2))
        active = rng.random((n_s, n_y)) < rng.uniform(0.2, 0.95)
        a = rng.normal(size=(n_s, n_y)) * 10.0 ** rng.integers(-6, 6)
        # inactive nodes mostly NaN, some left finite; a few infinite values
        a[~active & (rng.random((n_s, n_y)) < 0.7)] = np.nan
        a[rng.random((n_s, n_y)) < 0.02] = np.inf
        order = "F" if rng.random() < 0.5 else "C"
        a = np.asarray(a, order=order)
        got = _fill_inactive(a, active)
        assert np.array_equal(got, _fill_inactive_by_node_loops(a, active), equal_nan=True)
        assert got.flags[order + "_CONTIGUOUS"]
        for row in active:
            idx = np.flatnonzero(row)
            holes += idx.size and not row[idx[0] : idx[-1] + 1].all()
    assert holes > 200


def test_residual_grids_match_node_by_node_evaluation():
    # the relations evaluated one interior node at a time, as residual_grids
    # defines them; roots come from one-node arrays
    spec = _drawdown_put_spec()
    (grid,) = PutSolution3D(spec, n_s=49, n_y=33).regions
    s_grid, y_grid, active = grid.s_grid, grid.y_grid, grid.active
    want_c = np.full(active.shape, np.nan)
    want_d = np.full(active.shape, np.nan)
    for i in range(1, s_grid.size - 1):
        for j in range(1, y_grid.size - 1):
            if not active[i - 1 : i + 2, j].all() or not active[i, j - 1 : j + 2].all():
                continue
            s, y = s_grid[i], y_grid[j]
            if s - y <= 0:
                continue
            roots = roots_arrays(spec, np.array([s]), np.array([y]))
            g1, g2, d1s, d2s, d1y, d2y = (float(v[0]) for v in roots)
            ds = s_grid[i + 1] - s_grid[i - 1]
            dy = y_grid[j + 1] - y_grid[j - 1]
            for want, edge, lo, hi, step, slopes in (
                (want_c, s, (i - 1, j), (i + 1, j), ds, (d1s, d2s)),
                (want_d, s - y, (i, j - 1), (i, j + 1), dy, (d1y, d2y)),
            ):
                r = 0.0
                mag = 1e-300
                for g, dg, C in zip((g1, g2), slopes, (grid.C1, grid.C2)):
                    p = edge**g
                    r += p * ((C[hi] - C[lo]) / step + C[i, j] * dg * np.log(edge))
                    mag = max(mag, abs(p * C[i, j]))
                want[i, j] = abs(r) / mag
    res_c, res_d = residual_grids(spec, grid)
    assert np.isfinite(want_c).sum() > 100
    npt.assert_array_equal(res_c, want_c)
    npt.assert_array_equal(res_d, want_d)


@given(
    points=st.lists(
        st.tuples(st.floats(0.05, 20.0), st.floats(0.0, 0.99), st.floats(1e-3, 1.0)),
        min_size=1,
        max_size=24,
    ),
    along_s=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_pair_entries_batch_equals_one_at_a_time(points, along_s):
    spec = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.02, 0.01, 0.01)),
        sigma_field=CoefficientField("bounded_rational", (0.2, 0.02, 0.03)),
    )
    s, share, h = (np.array(v) for v in zip(*points))
    y = share * s
    batch = _pair_entries(spec, s, y, along_s, h)
    for m in range(s.size):
        one = _pair_entries(spec, s[m : m + 1], y[m : m + 1], along_s, h[m : m + 1])
        for got, want in zip(np.array(batch)[:, :, m], np.array(one)[:, :, 0]):
            assert got.tobytes() == want.tobytes()


def test_non_finite_lu_raises_non_convergence(monkeypatch):
    # a sparse LU that leaves non-finite entries is the solve's one failure:
    # it raises with the residual, and no least-squares retry stands in
    from drawdown_options import reflection_pde

    def no_retry(*args, **kwargs):
        raise AssertionError("lsqr called")

    def lu_with_a_nan(mat, rhs, **kwargs):
        sol = np.zeros(rhs.size)
        sol[3] = np.nan
        return sol

    monkeypatch.setattr(reflection_pde, "lsqr", no_retry)
    monkeypatch.setattr(reflection_pde, "spsolve", lu_with_a_nan)
    region = flat_region()
    with pytest.raises(NonConvergence, match=r"left 1 of 306 .*scaled residual"):
        solve_reflection_region(flat_call_spec(), region)


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_coeffs_at_matches_clamped_bilinear_formula_bit_for_bit(order):
    # the lookup shares BoundarySurface.level_at's clamp-and-cell rule; the
    # reference is the plain formula: clip, search the full grid, blend
    from drawdown_options.reflection_pde import CoefficientGrid, _fill_inactive

    rng = np.random.default_rng(8)
    s_grid = np.cumsum(rng.uniform(0.1, 0.5, 13))
    y_grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, 8))])
    active = rng.uniform(size=(13, 9)) < 0.7
    c1 = np.where(active, rng.normal(size=active.shape), np.nan)
    c2 = np.asarray(np.where(active, rng.normal(size=active.shape), np.nan), order=order)
    grid = CoefficientGrid(s_grid, y_grid, c1, c2, active)
    # interior points, exact nodes, points off the box and a NaN
    s = np.concatenate([
        rng.uniform(-1.0, s_grid[-1] + 1.0, 300), s_grid, [s_grid[0], np.nan],
    ])
    y = np.concatenate([
        rng.uniform(-1.0, y_grid[-1] + 1.0, 300),
        y_grid[rng.integers(0, y_grid.size, s_grid.size)], [y_grid[-1], 0.5],
    ])
    sc = np.clip(s, s_grid[0], s_grid[-1])
    yc = np.clip(y, y_grid[0], y_grid[-1])
    i = np.clip(np.searchsorted(s_grid, sc) - 1, 0, s_grid.size - 2)
    j = np.clip(np.searchsorted(y_grid, yc) - 1, 0, y_grid.size - 2)
    ts = (sc - s_grid[i]) / (s_grid[i + 1] - s_grid[i])
    ty = (yc - y_grid[j]) / (y_grid[j + 1] - y_grid[j])
    got = grid.coeffs_at(s, y)
    for c, g in zip((c1, c2), got):
        f = _fill_inactive(c, active)
        want = (
            (1 - ts) * (1 - ty) * f[i, j]
            + ts * (1 - ty) * f[i + 1, j]
            + (1 - ts) * ty * f[i, j + 1]
            + ts * ty * f[i + 1, j + 1]
        )
        assert np.array_equal(g, want, equal_nan=True)
    # scalars take the same route
    one = grid.coeffs_at(float(s[0]), float(y[0]))
    assert one == (got[0][0], got[1][0])


def test_coeffs_at_clamps_to_grid_box():
    spec = flat_call_spec()
    grid = solve_reflection_region(spec, flat_region())
    inside = grid.coeffs_at(1.5, 0.3)
    below = grid.coeffs_at(0.2, -1.0)
    above = grid.coeffs_at(50.0, 9.0)
    npt.assert_allclose(below, inside, rtol=1e-12, atol=1e-14)
    npt.assert_allclose(above, inside, rtol=1e-12, atol=1e-14)


def _corner_region(s_grid, y_grid):
    active = np.ones((len(s_grid), len(y_grid)), dtype=bool)
    cols = [ColumnClosure(i, "c2_zero", y_pos=y_grid[-1]) for i in range(len(s_grid))]
    rows = [RowClosure(j, "c1_zero") for j in range(len(y_grid))]
    return RegionSpec(s_grid, y_grid, active, cols, rows)


def test_column_pair_across_the_diagonal_rejected():
    # both pairs of the column at s = 1 reach past the diagonal; the error
    # names the first, at the midpoint y = 1, while every row stays inside
    # the quadrant
    region = _corner_region([1.0, 6.0], [0.5, 1.5, 2.5])
    msg = r"^pair relation at s=1, y=1 straddles the diagonal$"
    with pytest.raises(UnderdeterminedRegion, match=msg):
        solve_reflection_region(flat_call_spec(), region)


def test_row_pair_off_the_quadrant_rejected_before_columns():
    # the row at y = 1.5 has its midpoint at s = 1.1 < y; rows are assembled
    # before columns, so this wins over the straddling column pairs
    region = _corner_region([1.0, 1.2], [0.5, 1.5])
    with pytest.raises(DomainError):
        solve_reflection_region(flat_call_spec(), region)

import numpy as np
import numpy.testing as npt
import pytest

from drawdown_options import (
    CallSolution2D,
    CallSolution3D,
    CoefficientField,
    DomainError,
    ModelSpec,
    PutSolution2D,
    PutSolution3D,
    build_call_surface,
    build_put_surface,
    call_boundary_2d,
    call_boundary_slice,
    call_value_3d,
    put_boundary_slice,
    put_value_3d,
)
from drawdown_options.solver3d import BoundarySurface, diagonal_put_curve


def make_spec(kind, delta, sigma=("constant", (0.2,))):
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField(*delta),
        sigma_field=CoefficientField(*sigma),
    )


@pytest.fixture(scope="module")
def flat_call():
    spec = make_spec("call", ("constant", (0.03,)))
    return spec, CallSolution3D(spec, n_s=65, n_y=49)


@pytest.fixture(scope="module")
def flat_put():
    spec = make_spec("put", ("constant", (0.03,)))
    return spec, PutSolution3D(spec, n_s=65, n_y=49)


@pytest.fixture(scope="module")
def sloped_call():
    spec = make_spec("call", ("s_only", (0.02, 0.02)))
    return spec, CallSolution3D(spec)


@pytest.fixture(scope="module")
def sloped_put():
    spec = make_spec("put", ("s_only", (0.02, 0.01)))
    return spec, PutSolution3D(spec)


# ---------------------------------------------------------------------------
# degeneracy: constant coefficients collapse to the flat slice answers


def test_flat_call_surface_is_three_strikes(flat_call):
    _, sol = flat_call
    v = sol.surface.values
    finite = np.isfinite(v)
    assert finite.any()
    npt.assert_allclose(v[finite], 3.0, rtol=1e-10)


def test_flat_put_surface_is_two_thirds(flat_put):
    _, sol = flat_put
    v = sol.surface.values
    finite = np.isfinite(v)
    assert finite.any()
    npt.assert_allclose(v[finite], 2.0 / 3.0, rtol=1e-10)


def test_flat_call_reference_value_any_drawdown(flat_call):
    _, sol = flat_call
    for y in (0.6, 1.0, 2.0):
        assert abs(sol.value(2.0, 2.5, y) - 1.0886621079036347) < 1e-10


def test_flat_put_reference_value(flat_put):
    _, sol = flat_put
    assert abs(sol.value(1.0, 1.0, 0.0) - 4.0 / 27.0) < 1e-10


def test_flat_branch_classification(flat_call, flat_put):
    _, call = flat_call
    assert call.branch(2.0, 0.5) == "reflect"
    assert call.branch(5.0, 1.0) == "stop"
    assert call.branch(5.0, 3.0) == "direct"
    _, put = flat_put
    assert put.branch(0.5, 0.1) == "stop"
    assert put.branch(2.0, 0.5) == "reflect"
    assert put.branch(1.0, 0.5) == "direct"


def test_flat_stop_branch_returns_intrinsic(flat_call, flat_put):
    _, call = flat_call
    assert call.value(4.5, 5.0, 1.0) == pytest.approx(3.5, abs=1e-14)
    _, put = flat_put
    assert put.value(0.45, 0.5, 0.05) == pytest.approx(0.55, abs=1e-14)


# ---------------------------------------------------------------------------
# frozen switch geometry for the flat model


def test_flat_call_slice_switch_and_cap():
    spec = make_spec("call", ("constant", (0.03,)))
    surf = build_call_surface(
        spec, np.linspace(1.0, 10.0, 19), np.linspace(0.0, 4.5, 46)
    )
    i = 8  # s = 5.0
    assert abs(surf.s_grid[i] - 5.0) < 1e-12
    stops = surf.slice_switches[i]["stop"]
    assert len(stops) == 1
    pos, direction = stops[0]
    # barrier 3 meets the floor 5 - y at drawdown 2
    assert direction == "exit"
    assert abs(pos - 2.0) < 1e-9
    assert surf.slice_switches[i]["reflect"] == []
    cap = surf.cap_curve
    npt.assert_allclose(cap[np.isfinite(cap)], 3.0, atol=1e-9)


def test_flat_put_slice_switch_and_cap():
    spec = make_spec("put", ("constant", (0.03,)))
    surf = build_put_surface(
        spec, np.linspace(0.1, 4.0, 79), np.linspace(0.0, 3.0, 13)
    )
    j = 2  # y = 0.5
    assert abs(surf.y_grid[j] - 0.5) < 1e-12
    refl = surf.slice_switches[j]["reflect"]
    assert len(refl) == 1
    pos, direction = refl[0]
    # barrier 2/3 meets the floor s - 1/2 at maximum 7/6
    assert direction == "enter"
    assert abs(pos - 7.0 / 6.0) < 1e-9
    stops = surf.slice_switches[j]["stop"]
    assert len(stops) == 1
    assert abs(stops[0][0] - 2.0 / 3.0) < 1e-9
    cap = surf.cap_curve
    ok = np.isfinite(cap)
    npt.assert_allclose(cap[ok], surf.s_grid[ok] - 2.0 / 3.0, atol=1e-9)


# ---------------------------------------------------------------------------
# maximum-only coefficients: the surface cannot depend on the drawdown


def test_sloped_call_surface_matches_slice_model(sloped_call):
    spec, sol = sloped_call
    v = sol.surface.values
    h = call_boundary_2d(spec, sol.surface.s_grid)
    finite = np.isfinite(v)
    rel = np.abs(v - h[:, None]) / h[:, None]
    assert np.nanmax(np.where(finite, rel, np.nan)) < 1e-8


def test_sloped_put_surface_matches_slice_model(sloped_put):
    spec, sol = sloped_put
    curve = PutSolution2D(spec).curve
    v = sol.surface.values
    b = np.asarray(curve(sol.surface.s_grid))
    finite = np.isfinite(v)
    rel = np.abs(v - b[:, None]) / b[:, None]
    assert np.nanmax(np.where(finite, rel, np.nan)) < 1e-8


def test_sloped_call_values_match_slice_model(sloped_call):
    spec, sol = sloped_call
    oracle = CallSolution2D(spec)
    rng = np.random.default_rng(7)
    worst_direct = worst_reflect = 0.0
    for _ in range(300):
        s = float(np.exp(rng.uniform(np.log(0.05), np.log(18.0))))
        y = float(rng.uniform(0.0, 0.999 * s))
        x = float(rng.uniform(max(s - y, 1e-9) * 1.0000001, s))
        want = oracle.value(x, s)
        got = sol.value(x, s, y)
        rel = abs(got - want) / max(abs(want), 1e-12)
        if sol.branch(s, y) == "reflect":
            worst_reflect = max(worst_reflect, rel)
        else:
            worst_direct = max(worst_direct, rel)
    assert worst_direct < 1e-8
    # reflected bands go through the lattice PDE solve, whose coefficient
    # fields carry grid-level accuracy; see the companion bound in the docs
    assert worst_reflect < 2e-2


def test_sloped_put_values_match_slice_model(sloped_put):
    spec, sol = sloped_put
    oracle = PutSolution2D(spec)
    rng = np.random.default_rng(11)
    worst_direct = worst_reflect = 0.0
    for _ in range(300):
        s = float(np.exp(rng.uniform(np.log(0.05), np.log(18.0))))
        y = float(rng.uniform(0.0, 0.999 * s))
        x = float(rng.uniform(max(s - y, 1e-9) * 1.0000001, s))
        want = oracle.value(x, s)
        got = sol.value(x, s, y)
        rel = abs(got - want) / max(abs(want), 1e-12)
        if sol.branch(s, y) == "reflect":
            worst_reflect = max(worst_reflect, rel)
        else:
            worst_direct = max(worst_direct, rel)
    assert worst_direct < 1e-8
    assert worst_reflect < 2e-2


def _junction_jump(sol, s):
    # bisect the direct/reflect switch in y at fixed s, then compare the
    # assembled value evaluated at the shared top point x = s on both sides
    lo, hi = 1e-4, 0.9 * s
    assert sol.branch(s, hi) == "direct"
    assert sol.branch(s, lo) == "reflect"
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sol.branch(s, mid) == "reflect":
            lo = mid
        else:
            hi = mid
    v_lo = sol.value(s, s, lo)
    v_hi = sol.value(s, s, hi)
    return abs(v_lo - v_hi) / max(abs(v_hi), 1e-12)


def test_sloped_call_corner_lines_stay_on_or_above_payoff(sloped_call):
    # a maximum-only call's direct level is the critical point g1 K/(g1 - 1)
    # itself, where the x**g2 power drops out exactly; a rounding residue in
    # its coefficient, amplified by the tiny x at the corner, used to push
    # the value below the payoff on some of these lines
    spec, sol = sloped_call
    for s in np.linspace(3.0, 18.0, 61):
        y = s - 2e-6
        br, c1, c2 = sol.coefficients(s, y)
        assert br == "direct"
        assert c2 == 0.0
        xs = np.linspace(s - y, s, 201)
        assert np.all(sol.value_line(xs, s, y) >= spec.payoff(xs))


def test_flat_put_value_continuous_across_branch_junction(flat_put):
    # with flat coefficients both branches carry exact coefficients, so the
    # junction itself introduces no seam
    _, sol = flat_put
    assert _junction_jump(sol, 1.0) < 1e-10


def test_sloped_put_junction_jump_bounded_by_reflect_accuracy(sloped_put):
    # against a varying field the reflected side is a lattice solve, so the
    # seam width equals that branch's coefficient accuracy, not the exact
    # direct branch's; same realized bound as the reflected value match
    _, sol = sloped_put
    assert _junction_jump(sol, 1.0) < 2e-4


# ---------------------------------------------------------------------------
# marching machinery


def test_call_surface_self_convergence():
    spec = make_spec("call", ("s_only", (0.02, 0.02)))
    s_lo, s_hi, y_hi = 0.5, 8.0, 6.0
    coarse = build_call_surface(
        spec, np.linspace(s_lo, s_hi, 65), np.linspace(0.0, y_hi, 49)
    )
    fine = build_call_surface(
        spec, np.linspace(s_lo, s_hi, 129), np.linspace(0.0, y_hi, 97)
    )
    vc = coarse.values
    vf = fine.values[::2, ::2]
    both = np.isfinite(vc) & np.isfinite(vf)
    assert both.sum() > 500
    assert np.max(np.abs(vc[both] - vf[both])) < 1e-7


def test_put_surface_self_convergence():
    spec = make_spec("put", ("s_only", (0.02, 0.01)))
    s_lo, s_hi, y_hi = 0.05, 8.0, 6.0
    coarse = build_put_surface(
        spec, np.linspace(s_lo, s_hi, 65), np.linspace(0.0, y_hi, 49)
    )
    fine = build_put_surface(
        spec, np.linspace(s_lo, s_hi, 129), np.linspace(0.0, y_hi, 97)
    )
    vc = coarse.values
    vf = fine.values[::2, ::2]
    both = np.isfinite(vc) & np.isfinite(vf)
    assert both.sum() > 500
    assert np.max(np.abs(vc[both] - vf[both])) < 1e-7


def test_call_slice_entry_point_matches_surface(sloped_call):
    spec, sol = sloped_call
    surf = sol.surface
    i = 40
    s = float(surf.s_grid[i])
    finite = np.isfinite(surf.values[i])
    y_nodes = surf.y_grid[finite][::-1]  # descending, as the slice marches
    vals = call_boundary_slice(spec, s, y_nodes)
    npt.assert_allclose(vals, surf.values[i, finite][::-1], rtol=1e-9)


def test_put_slice_entry_point_matches_surface(sloped_put):
    spec, sol = sloped_put
    surf = sol.surface
    j = 10
    y = float(surf.y_grid[j])
    finite = np.isfinite(surf.values[:, j])
    s_nodes = surf.s_grid[finite]
    vals = put_boundary_slice(spec, y, s_nodes)
    npt.assert_allclose(vals, surf.values[finite, j], rtol=1e-9)


def test_slice_entry_points_validate_orientation():
    call_spec = make_spec("call", ("constant", (0.03,)))
    with pytest.raises(DomainError):
        call_boundary_slice(call_spec, 5.0, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        call_boundary_slice(call_spec, 5.0, np.array([6.0, 4.0]))
    put_spec = make_spec("put", ("constant", (0.03,)))
    with pytest.raises(DomainError):
        put_boundary_slice(put_spec, 1.0, np.array([3.0, 2.0]))
    with pytest.raises(DomainError):
        put_boundary_slice(put_spec, 1.0, np.array([0.5, 2.0]))


def test_put_surface_tracks_diagonal_curve_near_corner(sloped_put):
    # queries on the stub between the corner and the first lattice node ride
    # the row extrapolation, so agreement is at lattice accuracy here
    spec, sol = sloped_put
    diag = diagonal_put_curve(spec)
    for y in (0.5, 1.0, 3.0):
        lvl = sol.surface.level_smooth(y + 1e-9, y)
        assert abs(lvl - float(diag(y))) < 2e-4


# ---------------------------------------------------------------------------
# assembled solution plumbing


def test_value_line_matches_scalar_values(flat_put):
    _, sol = flat_put
    s, y = 1.2, 0.7
    xs = np.linspace(s - y, s, 9)
    line = sol.value_line(xs, s, y)
    for xk, vk in zip(xs, line):
        assert abs(sol.value(float(xk), s, y) - float(vk)) < 1e-14


def test_value_line_rejects_bad_input(flat_put):
    _, sol = flat_put
    with pytest.raises(DomainError):
        sol.value_line(np.array([0.3]), 1.2, 0.7)  # below the floor
    with pytest.raises(DomainError):
        sol.value_line(np.array([1.3]), 1.2, 0.7)  # above the maximum
    with pytest.raises(DomainError):
        sol.value_line(np.array([1.0]), 1.2, -0.1)
    with pytest.raises(DomainError):
        sol.value_line(np.array([1.0]), 1.2, 1.2)


def test_coefficients_tag_matches_branch(flat_call):
    _, sol = flat_call
    br, c1, c2 = sol.coefficients(5.0, 3.0)
    assert br == "direct"
    assert c1 != 0.0
    br, c1, c2 = sol.coefficients(5.0, 1.0)
    assert br == "stop"
    assert (c1, c2) == (0.0, 0.0)


def test_module_level_wrappers_guard_payoff_kind():
    call_spec = make_spec("call", ("constant", (0.03,)))
    put_spec = make_spec("put", ("constant", (0.03,)))
    with pytest.raises(DomainError):
        call_value_3d(put_spec, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        put_value_3d(call_spec, 1.0, 2.0, 1.0)


def test_drawdown_model_put_surface_orders_against_flat():
    # raising delta with the drawdown lowers the put barrier surface
    base = make_spec("put", ("constant", (0.02,)))
    rich = make_spec("put", ("bounded_rational", (0.02, 0.0, 0.01)))
    s_grid = np.linspace(0.1, 6.0, 49)
    y_grid = np.linspace(0.0, 4.0, 33)
    v0 = build_put_surface(base, s_grid, y_grid).values
    v1 = build_put_surface(rich, s_grid, y_grid).values
    both = np.isfinite(v0) & np.isfinite(v1)
    assert both.sum() > 300
    assert np.all(v1[both] <= v0[both] + 1e-9)


# ---------------------------------------------------------------------------
# bit-identity pin


def _pin_surface():
    spec = ModelSpec(
        r=0.3,
        strike=1.0,
        payoff_kind="put",
        delta_field=CoefficientField("bounded_rational", (0.1, 0.02, 0.05)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    s_grid = np.linspace(0.05, 20.0, 24)
    y_grid = np.linspace(0.0, 19.9, 16)
    return build_put_surface(spec, s_grid, y_grid)


def test_sloped_put_surface_matches_recorded_bits():
    """A small surface of a model sloped in s and y, pinned bit for bit.

    The digest and spot values were recorded from the slice-by-slice march
    with twelve right-hand-side evaluations per checked step, before the
    march shared its abscissae and advanced entering and stepping slices
    together; any change to the arithmetic shows up here.  Recorded with
    numpy 2.4 on x86-64; a libm that rounds log or expm1 differently can
    move the last bits.
    """
    import hashlib

    surf = _pin_surface()
    v = surf.values
    digest = hashlib.sha256(np.nan_to_num(v, nan=-1.0).tobytes()).hexdigest()
    assert int(np.isfinite(v).sum()) == 169
    assert surf.slice_status[0] == ("step", 0.05)
    assert float(v[3, 1]).hex() == "0x1.ca9bd16319682p-1"
    assert float(v[12, 5]).hex() == "0x1.c604b85f97144p-1"
    assert digest == "c24a1ac19886d9ba15f682ae3cf919e990322f2b102e61494a6da44236b4c23a"


def test_sloped_call_surface_matches_recorded_bits():
    """The call orientation of the march set-up, pinned bit for bit.

    Twin of the put pin above, recorded from the code that still wrote the
    call and put marches out separately: a small surface whose first eight
    slices finish and whose other slices are flagged at their first node,
    with all three labels and a two-point cap curve.  Same caveat about the
    platform's libm as the put pin.
    """
    import hashlib

    spec = ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind="call",
        delta_field=CoefficientField("bounded_rational", (0.03, 0.01, 0.005)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )
    surf = build_call_surface(
        spec, np.linspace(0.05, 20.0, 24), np.linspace(0.0, 19.9, 16)
    )
    v = surf.values
    digest = hashlib.sha256(np.nan_to_num(v, nan=-1.0).tobytes()).hexdigest()
    assert int(np.isfinite(v).sum()) == 177
    assert digest == "6102b4fdb3f34ac730aeb908a84b9dac799dae9a1d49525427ad274b21e0f409"
    assert [kd for kd, _ in surf.slice_status] == ["ok"] * 8 + ["step"] * 16
    assert [pos for _, pos in surf.slice_status[8:]] == [0.0] * 16
    labels = hashlib.sha256(surf.labels.tobytes()).hexdigest()
    assert labels == "3d46e5644231ae3d6d7016356a1b329b958d48a4c70a885f5c9eb4dc2fb10e27"
    cap = surf.cap_curve
    assert np.flatnonzero(np.isfinite(cap)).tolist() == [0, 1]
    assert [float(c).hex() for c in cap[:2]] == [
        "0x1.34adabbfcfdefp+1", "0x1.2f7f1ab6d2a81p+1"
    ]


@pytest.mark.parametrize("order", ["F", "C"])
def test_level_at_matches_clamped_bilinear_formula_bit_for_bit(order):
    # put surfaces store their values transposed (Fortran order), call
    # surfaces in C order; the lookup must index both correctly
    pin = _pin_surface()
    surf = BoundarySurface(
        pin.s_grid, pin.y_grid, np.asarray(pin.values, order=order), "put"
    )
    f = surf.filled_values()
    assert f.flags[order + "_CONTIGUOUS"]
    sg, yg = surf.s_grid, surf.y_grid
    rng = np.random.default_rng(4)
    # interior points, exact nodes, points off the box and a NaN
    s = np.concatenate([rng.uniform(-1.0, 22.0, 400), sg, [sg[0], sg[-1], np.nan]])
    y = np.concatenate([
        rng.uniform(-1.0, 21.0, 400), yg[rng.integers(0, yg.size, sg.size)],
        [yg[-1], yg[0], 1.0],
    ])
    # the plain formula: clip, searchsorted cell index, bilinear blend
    sc = np.clip(s, sg[0], sg[-1])
    yc = np.clip(y, yg[0], yg[-1])
    i = np.clip(np.searchsorted(sg, sc) - 1, 0, sg.size - 2)
    j = np.clip(np.searchsorted(yg, yc) - 1, 0, yg.size - 2)
    ts = (sc - sg[i]) / (sg[i + 1] - sg[i])
    ty = (yc - yg[j]) / (yg[j + 1] - yg[j])
    want = (
        (1 - ts) * (1 - ty) * f[i, j]
        + ts * (1 - ty) * f[i + 1, j]
        + (1 - ts) * ty * f[i, j + 1]
        + ts * ty * f[i + 1, j + 1]
    )
    got = surf.level_at(s, y)
    assert np.array_equal(got, want, equal_nan=True)
    # scalars take the same route
    assert surf.level_at(3.0, 1.0) == surf.level_at(np.array([3.0]), np.array([1.0]))[0]

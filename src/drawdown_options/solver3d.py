"""Boundary surfaces and values with both running maximum and drawdown active.

Each x-line carries the two-power value C1 x**g1 + C2 x**g2 with roots taken
at that line's (s, y).  The stopping boundary solves a slice ODE: for calls,
in y at fixed s, seeded next to the diagonal where the drawdown floor is
slack; for puts, in s at fixed y, seeded next to the corner s = y from the
matching diagonal-restricted curve.  Slices advance in lockstep across the
grid so the right-hand side stays vectorized; a slice that fails its step
check or a constraint keeps its partial history and is flagged instead of
aborting the whole surface.

Per node the barrier sorts the line into one of three branches: stopped
(payoff), direct (barrier reachable, two-power value pinned at the barrier),
or reflected (barrier out of reach; coefficients come from the reflection
system solved over the whole reflected component).

Call and put are one problem seen from two sides.  Everything that differs
between the sides (payoff sign, slice axis and march direction, the line
edge where reflection acts, the constraint band, which branch lies above s
and which below s - y) sits in one :class:`_Orientation` record per side;
the marcher, region detection, closures and value assembly are written once
against it.  Direct lines are pinned by :func:`coefficients._pinned_pair`,
the same rule the reflection closures and the maximum-only put use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import ndimage
from scipy.interpolate import CubicSpline

from .coefficients import (
    ModelSpec,
    _critical_level,
    _pinned_pair,
    _roots_along,
    check_quadrant,
    roots_arrays,
)
from .errors import (
    DomainError,
    ResolutionWarning,
    SingularDenominator,
    StepError,
    UnderdeterminedRegion,
)
from .odestep import ReuseStages, checked_step
from .reflection_pde import (
    ColumnClosure,
    RegionSpec,
    RowClosure,
    _fill_inactive,
    solve_reflection_region,
)
from .solver2d import (
    EDGE_FRACTION,
    STEP_REL_TOL,
    OdeStage,
    PutSolution2D,
    _ode_terms,
    _sign,
    detect_switch_points,
)

MAX_SWITCH_PAIRS = 16


@dataclass(frozen=True)
class _Orientation:
    """What differs between the call side and the put side.

    sign       the payoff's slope in x, +1 or -1; it also picks the critical
               root, g1 for the call and g2 for the put (see
               coefficients._critical_level)
    fixed      the coordinate a boundary slice holds fixed, "s" or "y"; the
               slice marches along the other one
    direction  +1 when the march runs toward larger values, -1 otherwise
    edge       (s, y) -> the end of the x-line on the continuation side:
               where the slice ODE's reflecting condition acts, and the
               exposed far end of a direct line
    band       (spec, s, y) -> the open interval the barrier must stay in
    above      label of a line whose barrier lies above s
    below      label of a line whose barrier lies below its floor s - y
    """

    kind: str
    sign: float
    fixed: str
    direction: float
    edge: Callable
    band: Callable
    above: str
    below: str

    @property
    def moving(self):
        return "y" if self.fixed == "s" else "s"

    def swap(self, a, b):
        """(s, y) from a slice's (fixed, moving) pair, or back: the same swap."""
        return (a, b) if self.fixed == "s" else (b, a)

    def fixed_major(self, a):
        """An (s, y) lattice array indexed [fixed, moving], or back."""
        return a if self.fixed == "s" else a.T

    def stop_side(self, x, level):
        """Mask of the stopped part of a direct line."""
        return x >= level if self.sign > 0 else x <= level

    def parts(self, level, s, y):
        """(lo, hi) of the continuation and the stopped part of the line.

        The line is [s - y, s], cut at level; the stopped part clamps level
        into the line.
        """
        if self.sign > 0:
            return (s - y, level), (max(level, s - y), s)
        return (level, s), (s - y, min(level, s))


def _call_band(spec: ModelSpec, s, y):
    d = spec.delta_field.value(s, y)
    return np.maximum(spec.strike, spec.r * spec.strike / d), np.inf


def _put_band(spec: ModelSpec, s, y):
    d = spec.delta_field.value(s, y)
    return 0.0, np.minimum(spec.strike, spec.r * spec.strike / d)


_CALL = _Orientation(
    kind="call", sign=1.0, fixed="s", direction=-1.0,
    edge=lambda s, y: s - y, band=_call_band, above="reflect", below="stop",
)
_PUT = _Orientation(
    kind="put", sign=-1.0, fixed="y", direction=1.0,
    edge=lambda s, y: s, band=_put_band, above="stop", below="reflect",
)
_ORIENT = {o.kind: o for o in (_CALL, _PUT)}


def call_slice_rhs(spec: ModelSpec, s, y, b):
    """db/dy on a fixed-s slice; also returns the shared denominator."""
    g1, g2, _, _, dg1, dg2 = roots_arrays(spec, s, y)
    return _ode_terms(g1, g2, dg1, dg2, b, s - y, spec.strike)


def put_slice_rhs(spec: ModelSpec, s, y, a):
    """da/ds on a fixed-y slice; also returns the shared denominator."""
    g1, g2, dg1, dg2, _, _ = roots_arrays(spec, s, y)
    return _ode_terms(g1, g2, dg1, dg2, a, s, spec.strike)


def _stage(o, spec: ModelSpec, s, y):
    """The slice right-hand side frozen at (s, y), for points already checked."""
    g1, g2, dg1, dg2 = _roots_along(spec, s, y, o.moving)
    return OdeStage(g1, g2, dg1, dg2, o.edge(s, y), spec.strike)


@dataclass
class BoundarySurface:
    """One stopping boundary sampled over an (s, y) lattice.

    values holds NaN off the state space and past a flagged slice;
    slice_status records, per integration slice, "ok" or the failure kind
    and the position where integration was cut.
    """

    s_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray
    kind: str
    slice_status: list = field(default_factory=list)
    labels: np.ndarray | None = None
    slice_switches: list | None = None
    cap_curve: np.ndarray | None = None

    def __post_init__(self):
        self._filled = None
        self._lookup = None
        self._row_fits = {}

    def filled_values(self):
        if self._filled is None:
            self._filled = _fill_inactive(self.values, np.isfinite(self.values))
        return self._filled

    def level_at(self, s, y):
        """Bilinear barrier level, clamped to the lattice box.

        The fast vectorized route for simulation and classification; value
        assembly goes through level_smooth instead, since the O(spacing^2)
        bilinear error gets amplified by the two-power pair construction.
        """
        if self._lookup is None:
            f = self.filled_values()
            if not (f.flags.c_contiguous or f.flags.f_contiguous):
                f = self._filled = np.ascontiguousarray(f)
            # a flat view in memory order; node (i, j) sits at i*si + j*sj
            si, sj = (st // f.itemsize for st in f.strides)
            self._lookup = tuple(
                (float(g[0]), float(g[-1]), g[1:-1], np.diff(g))
                for g in (self.s_grid, self.y_grid)
            ) + (f.ravel(order="K"), si, sj)
        (s_lo, s_hi, s_inner, ds), (y_lo, y_hi, y_inner, dy), flat, si, sj = self._lookup
        sg, yg = self.s_grid, self.y_grid
        s = np.minimum(np.maximum(np.asarray(s, dtype=float), s_lo), s_hi)
        y = np.minimum(np.maximum(np.asarray(y, dtype=float), y_lo), y_hi)
        # counting interior nodes below the query gives the cell index,
        # already clamped to 0 .. n - 2
        i = s_inner.searchsorted(s)
        j = y_inner.searchsorted(y)
        ts = (s - sg[i]) / ds[i]
        ty = (y - yg[j]) / dy[j]
        rs, ry = 1.0 - ts, 1.0 - ty
        k = i * si + j * sj
        return (
            rs * ry * flat[k]
            + ts * ry * flat[k + si]
            + rs * ty * flat[k + sj]
            + ts * ty * flat[k + (si + sj)]
        )

    def _row_fit(self, j):
        """Cubic fits of row j over its contiguous finite runs."""
        fit = self._row_fits.get(j)
        if fit is None:
            fit = []
            row = self.values[:, j]
            finite = np.isfinite(row)
            # blend queries sit up to one y-cell below this row's diagonal, so
            # a run may be probed that far (plus node alignment) past its ends
            dy = float(
                self.y_grid[j] - self.y_grid[j - 1]
                if j > 0
                else self.y_grid[min(j + 1, self.y_grid.size - 1)] - self.y_grid[j]
            )
            k = 0
            n = row.size
            while k < n:
                if not finite[k]:
                    k += 1
                    continue
                k2 = k
                while k2 + 1 < n and finite[k2 + 1]:
                    k2 += 1
                xs = self.s_grid[k : k2 + 1]
                vs = row[k : k2 + 1]
                if xs.size >= 4:
                    fit.append(
                        (
                            xs[0],
                            xs[-1],
                            xs[0] - (xs[1] - xs[0]) - dy,
                            xs[-1] + (xs[-1] - xs[-2]) + dy,
                            CubicSpline(xs, vs),
                        )
                    )
                elif xs.size >= 2:
                    fit.append(
                        (
                            xs[0],
                            xs[-1],
                            xs[0],
                            xs[-1],
                            lambda q, xs=xs, vs=vs: np.interp(q, xs, vs),
                        )
                    )
                else:
                    fit.append((xs[0], xs[0], xs[0], xs[0], lambda q, v=vs[0]: v))
                k = k2 + 1
            self._row_fits[j] = fit
        return fit

    def _row_level(self, j, s):
        fit = self._row_fit(j)
        if not fit:
            return None
        best = None
        for lo, hi, elo, ehi, fn in fit:
            d = max(lo - s, 0.0, s - hi)
            if best is None or d < best[0]:
                best = (d, elo, ehi, fn)
        _, elo, ehi, fn = best
        return float(fn(min(max(s, elo), ehi)))

    def level_smooth(self, s, y):
        """Scalar barrier level: cubic across s within a row, linear across y.

        Row data are the marched node values themselves, so the only error
        between nodes is the interpolant's; queries within one cell past a
        run's end extrapolate the cubic (the slice extends to the diagonal
        even when no node landed on the stub), further ones clamp, and a row
        with no finite nodes defers to its partner or the bilinear fallback.
        """
        s = min(max(float(s), self.s_grid[0]), self.s_grid[-1])
        y = min(max(float(y), self.y_grid[0]), self.y_grid[-1])
        j = min(
            max(int(np.searchsorted(self.y_grid, y) - 1), 0), self.y_grid.size - 2
        )
        ty = (y - self.y_grid[j]) / (self.y_grid[j + 1] - self.y_grid[j])
        v0 = self._row_level(j, s)
        v1 = self._row_level(j + 1, s)
        if v0 is None and v1 is None:
            return float(self.level_at(s, y))
        if v0 is None:
            return v1
        if v1 is None:
            return v0
        return (1.0 - ty) * v0 + ty * v1


def _march_surface(
    spec, o, fixed_grid, move_grid, starts, seeds, entry_index, step_rel_tol
):
    """Advance all slices of orientation o through move_grid in lockstep.

    starts and seeds give each slice its own entry coordinate and value;
    entry_index[i] is the first move_grid node the slice lands on.  The
    caller has already checked that every lattice point the march visits
    lies in the quadrant.  Slices whose denominator changes sign, whose step
    check fails, or whose state leaves the allowed band are flagged and
    carry NaN from there on.

    Each lattice level is one lockstep advance: the slices entering at the
    level (from their own start) and the slices stepping on from the
    previous level share every right-hand-side evaluation.  Each group keeps
    its own substep count, which is all that decides its abscissae, so a
    slice gets the same bits as if its group were advanced alone; a slice
    whose group has finished just holds its value while the other group's
    substeps complete.  Within an advance each distinct abscissa costs one
    abscissa stage (see :func:`checked_step`).
    """
    n_fix = fixed_grid.size
    n_mov = move_grid.size
    values = np.full((n_fix, n_mov), np.nan)
    status = [("ok", np.nan)] * n_fix
    state = np.full(n_fix, np.nan)
    alive = np.zeros(n_fix, dtype=bool)
    den_sign = np.zeros(n_fix)
    scale = spec.strike
    forward = o.direction > 0

    def stage(fx, t):
        return _stage(o, spec, *o.swap(fx, t))

    def constraint_ok(fx, t, g):
        lo, hi = o.band(spec, *o.swap(fx, t))
        return (g > lo) & (g < hi)

    levels = range(n_mov) if forward else range(n_mov - 1, -1, -1)
    # lattice gaps are too coarse for single steps at the target accuracy
    target_h = abs(float(move_grid[-1]) - float(move_grid[0])) / 1024.0

    def n_substeps(diff):
        span = float(np.max(np.abs(diff))) if diff.size else 0.0
        return max(1, int(np.ceil(span / target_h)))

    def advance(sel, t_from, t_to, n_sub):
        """Substepped checked advance of the selected slices to t_to.

        t_from and n_sub hold each slice's start and substep count; returns
        the new states, the ok mask and the failure kind per slice.
        """
        fx = fixed_grid[sel]
        t_to = np.broadcast_to(t_to, fx.shape)
        lane_stage = ReuseStages(lambda t: stage(fx, t))
        diff = t_to - t_from
        g_new = state[sel].copy()
        rel = np.zeros(fx.shape)
        t_cur = t_from
        for k in range(int(n_sub.max())):
            # land the last substep exactly on the node
            # (a finished group holds still on its node)
            t_nxt = np.where(k >= n_sub - 1, t_to, t_from + diff * ((k + 1.0) / n_sub))
            g_k, rel_k = checked_step(
                lane_stage, t_cur, g_new, t_nxt - t_cur, scale_floor=1e-12 * scale
            )
            live = k < n_sub
            g_new = np.where(live, g_k, g_new)
            rel = np.where(live, np.maximum(rel, rel_k), rel)
            t_cur = np.where(live, t_nxt, t_cur)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            den = lane_stage(t_to).den(g_new)
        ok = np.isfinite(g_new) & (rel <= step_rel_tol)
        kind = np.where(rel <= step_rel_tol, "ok", "step")
        sign = np.sign(den)
        fresh = den_sign[sel] == 0.0
        den_sign[sel] = np.where(fresh, sign, den_sign[sel])
        den_bad = (~fresh) & (
            (sign != den_sign[sel]) | (np.abs(den) < 1e-12 * scale)
        )
        kind = np.where(ok & den_bad, "singular", kind)
        ok &= ~den_bad
        con = constraint_ok(fx, t_to, g_new)
        kind = np.where(ok & ~con, "constraint", kind)
        ok &= con
        return g_new, ok, kind

    for lv in levels:
        t_node = move_grid[lv]
        entering = np.flatnonzero((entry_index == lv) & np.isfinite(seeds))
        if entering.size:
            state[entering] = seeds[entering]
            cx = constraint_ok(
                fixed_grid[entering],
                starts[entering],
                seeds[entering],
            )
            alive[entering[cx]] = True
            for i in entering[~cx]:
                status[i] = ("constraint", float(starts[i]))
            entering = entering[cx]
        stepping = np.flatnonzero(
            alive
            & (entry_index != lv)
            & ((entry_index < lv) if forward else (entry_index > lv))
        )
        if not (entering.size or stepping.size):
            continue
        sel = np.concatenate([entering, stepping])
        t_from = starts[sel]
        n_sub = np.full(sel.size, float(n_substeps(t_node - starts[entering])))
        if stepping.size:
            prev = move_grid[lv - 1] if forward else move_grid[lv + 1]
            t_from[entering.size:] = prev
            n_sub[entering.size:] = n_substeps(np.asarray([t_node - prev]))
        g_new, ok, kind = advance(sel, t_from, t_node, n_sub)
        values[sel[ok], lv] = g_new[ok]
        state[sel[ok]] = g_new[ok]
        alive[sel[~ok]] = False
        for i, kd in zip(sel[~ok], kind[~ok]):
            status[i] = (str(kd), float(t_node))
    return values, status


def _diagonal_seeds(o, spec: ModelSpec, fixed, starts, curve=None):
    """Barrier levels at slice starts next to the diagonal.

    A call slice starts on the critical level of its own roots, where the
    drawdown floor is slack; a put slice starts on the diagonal-restricted
    maximum-only curve (curve, when the caller already has it).
    """
    if o.sign > 0:
        g1, g2, *_ = roots_arrays(spec, *o.swap(fixed, starts))
        return _critical_level(g1, g2, spec.strike, o.sign)
    return (diagonal_put_curve(spec) if curve is None else curve)(starts)


def _build_surface(o, spec, s_grid, y_grid, step_rel_tol, curve=None):
    """March every slice from next to the diagonal, then label the lattice."""
    s_grid = np.asarray(s_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    fixed, move = o.swap(s_grid, y_grid)
    eps = EDGE_FRACTION * spec.strike
    starts = fixed + o.direction * eps
    # each slice enters the lattice at the first node its march reaches
    if o.direction > 0:
        entry = np.searchsorted(move, starts, side="left")
        entry[entry == move.size] = -1
    else:
        entry = np.searchsorted(move, starts, side="right") - 1
    inside = entry >= 0
    seeds = np.full(fixed.shape, np.nan)
    seeds[inside] = _diagonal_seeds(o, spec, fixed[inside], starts[inside], curve)

    # every slice runs from its start through the far end of move
    check_quadrant(*o.swap(fixed[inside], starts[inside]))
    check_quadrant(*o.swap(fixed[inside], move[-1] if o.direction > 0 else move[0]))

    values, status = _march_surface(
        spec, o, fixed, move, starts, seeds, entry, step_rel_tol
    )
    for k in np.flatnonzero(~inside):
        status[k] = ("outside", np.nan)
    surf = BoundarySurface(s_grid, y_grid, o.fixed_major(values), o.kind, status)
    return detect_regions_3d(spec, surf)


def build_call_surface(
    spec: ModelSpec, s_grid, y_grid, step_rel_tol=STEP_REL_TOL
) -> BoundarySurface:
    """Integrate the call barrier down each fixed-s slice from the diagonal.

    The seed sits at y = s - eps where the drawdown floor is slack and the
    barrier matches the reachable-maximum form for the diagonal coefficients.
    """
    if np.asarray(s_grid, dtype=float)[0] <= EDGE_FRACTION * spec.strike:
        raise DomainError("s_grid must start above the edge offset")
    return _build_surface(_CALL, spec, s_grid, y_grid, step_rel_tol)


def build_put_surface(
    spec: ModelSpec,
    s_grid,
    y_grid,
    step_rel_tol=STEP_REL_TOL,
    diag_curve=None,
) -> BoundarySurface:
    """Integrate the put barrier up each fixed-y slice from the corner s = y.

    Next to the corner the drawdown floor sits at the bottom of the x-line,
    so the slice starts from the diagonal-restricted maximum-only curve,
    which is integrated once and shared by every slice.
    """
    if diag_curve is None:
        diag_curve = diagonal_put_curve(spec)
    return _build_surface(_PUT, spec, s_grid, y_grid, step_rel_tol, diag_curve)


@lru_cache(maxsize=8)
def diagonal_put_curve(spec: ModelSpec):
    """Maximum-only put curve for the diagonal-restricted coefficients."""
    dspec = spec.diagonal_spec()
    return PutSolution2D(dspec).curve


def _march_slice(stage, t0, g0, nodes, step_rel_tol, what):
    """Strict single-slice march used by the per-slice entry points.

    Raises on a failed step check; the caller's stage raises on a
    denominator sign change.  A constraint breach (signalled by the stage
    returning NaN) ends the slice: remaining nodes stay NaN.
    """
    stage = ReuseStages(stage)
    vals = np.full(len(nodes), np.nan)
    t, g = float(t0), float(g0)
    for k, t_next in enumerate(nodes):
        g_new, rel = checked_step(stage, t, g, float(t_next) - t)
        if not np.isfinite(g_new):
            break
        if float(rel) > step_rel_tol:
            raise StepError(
                f"{what} step from {t:g} failed its error check "
                f"(relative estimate {float(rel):.3e}); use a finer grid"
            )
        t, g = float(t_next), float(g_new)
        vals[k] = g
    return vals


def _boundary_slice(o, spec, fixed, nodes, step_rel_tol):
    """Barrier on one slice, marched from next to the diagonal through nodes."""
    fixed = float(fixed)
    nodes = np.asarray(nodes, dtype=float)
    eps = EDGE_FRACTION * spec.strike
    start = fixed + o.direction * eps
    if nodes.size and (
        np.any(o.direction * np.diff(nodes) <= 0)
        or o.direction * (nodes[0] - start) < 0
    ):
        raise DomainError(
            f"{o.moving}_grid must move strictly away from the diagonal, "
            f"from {o.moving}={start:g} on"
        )
    seed = float(_diagonal_seeds(o, spec, fixed, start))
    check_quadrant(*o.swap(fixed, nodes))
    den_sign = 0.0
    what = f"slice {o.fixed}={fixed:g}"

    def stage(t):
        s, y = o.swap(fixed, t)
        ode = _stage(o, spec, s, y)
        lo, hi = o.band(spec, s, y)

        def f(level):
            nonlocal den_sign
            d, den = ode.terms(level)
            den = float(den)
            if den_sign == 0.0:
                den_sign = _sign(den)
            if den * den_sign <= 1e-12 * spec.strike:
                raise SingularDenominator(
                    f"slice denominator vanished near {o.moving}={float(t):g} "
                    f"on {what}"
                )
            if not lo < level < hi:
                return np.nan
            return d

        return f

    return _march_slice(stage, start, seed, nodes, step_rel_tol, what)


def call_boundary_slice(spec: ModelSpec, s, y_grid, step_rel_tol=STEP_REL_TOL):
    """Call barrier on the fixed-s slice at the given descending y nodes.

    Seeded at y = s - eps from the reachable-maximum form and integrated
    downward in y.  Nodes past a constraint breach (barrier at or below the
    reachable-maximum floor) are returned as NaN.
    """
    if float(s) <= EDGE_FRACTION * spec.strike:
        raise DomainError(f"slice level s={float(s)} must exceed the edge offset")
    return _boundary_slice(_CALL, spec, s, y_grid, step_rel_tol)


def put_boundary_slice(spec: ModelSpec, y, s_grid, step_rel_tol=STEP_REL_TOL):
    """Put barrier on the fixed-y slice at the given ascending s nodes.

    Seeded at s = y + eps from the diagonal-restricted maximum-only curve and
    integrated upward in s.  Nodes past a constraint breach (barrier leaving
    (0, min(strike, r strike / delta))) are returned as NaN.
    """
    return _boundary_slice(_PUT, spec, y, s_grid, step_rel_tol)


def detect_regions_3d(
    spec: ModelSpec, surface: BoundarySurface, max_pairs=MAX_SWITCH_PAIRS
) -> BoundarySurface:
    """Label every lattice node and trace the region-splitting curves.

    Nodes sort into "stop", "direct", "reflect" (empty string off the state
    space or past a flagged slice).  Each integration slice is scanned for
    crossings against both reference lines; runs of more than max_pairs
    crossing pairs are truncated with a warning.  The cap curve collects,
    for the call, the last reflect-to-direct crossing in s per y-row and,
    for the put, the first floor crossing in y per s-column.
    """
    o = _ORIENT[surface.kind]
    s_grid, y_grid, v = surface.s_grid, surface.y_grid, surface.values
    valid = np.isfinite(v) & (y_grid[None, :] < s_grid[:, None])
    labels = np.full(v.shape, "", dtype="<U8")
    ss = np.broadcast_to(s_grid[:, None], v.shape)
    floor = ss - np.broadcast_to(y_grid[None, :], v.shape)
    labels[valid & (v > ss)] = o.above
    labels[valid & (v < floor)] = o.below
    labels[valid & (v >= floor) & (v <= ss)] = "direct"
    surface.labels = labels

    fixed, move = o.swap(s_grid, y_grid)
    vf, okf = o.fixed_major(v), o.fixed_major(valid)
    switches = []
    for k, pos in enumerate(fixed):
        ok = okf[k]
        rec = {"reflect": [], "stop": []}
        if ok.sum() >= 2:
            t = move[ok]
            s, y = o.swap(pos, t)
            rec[o.above] = _capped(
                detect_switch_points(t, vf[k, ok], np.broadcast_to(s, t.shape)),
                max_pairs, f"slice {o.fixed}={pos:g} vs reachable-max line",
            )
            rec[o.below] = _capped(
                detect_switch_points(t, vf[k, ok], s - y),
                max_pairs, f"slice {o.fixed}={pos:g} vs floor line",
            )
        switches.append(rec)
    # across the slices, per node of the moving axis: where the reflect band
    # gives way to the direct one, farthest from the diagonal (which closes
    # an s-scan at its low end and a y-scan at its high end)
    leave = "enter" if o.above == "reflect" else "exit"
    cap = np.full(move.size, np.nan)
    for m in range(move.size):
        ok = okf[:, m]
        if ok.sum() >= 2:
            s, y = o.swap(fixed[ok], move[m])
            ref = s if o.above == "reflect" else s - y
            pts = detect_switch_points(fixed[ok], vf[ok, m], ref)
            crossings = [p for p, d in pts if d == leave]
            if crossings:
                cap[m] = crossings[-1 if o.fixed == "s" else 0]
    finite_cap = cap[np.isfinite(cap)]
    if finite_cap.size >= 2:
        d = np.diff(finite_cap)
        if np.any(d > 0) and np.any(d < 0):
            warnings.warn(
                "region cap curve is not monotone; treat region ordering "
                "with care or refine the lattice",
                ResolutionWarning,
                stacklevel=2,
            )
    surface.slice_switches = switches
    surface.cap_curve = cap
    return surface


def _capped(points, max_pairs, what):
    if len(points) > 2 * max_pairs:
        warnings.warn(
            f"more than {max_pairs} switch pairs on {what}; keeping the first "
            f"{2 * max_pairs}",
            ResolutionWarning,
            stacklevel=3,
        )
        return points[: 2 * max_pairs]
    return points


def _cell_crossing(p0, p1, d0, d1):
    """Linear zero of d between positions p0 and p1."""
    return p0 + (p1 - p0) * d0 / (d0 - d1)


def _quad_zero(ps, ds, lo, hi, lin):
    """Zero of the parabola through three samples, kept inside [lo, hi].

    Newton iteration started from the linear estimate; any failure to land
    in the bracket falls back to that estimate, clipped.  Curvature of the
    stopping curve otherwise leaves an O(step^2) bias in closure positions,
    which the amplifying power of a long x-line turns into visible value
    error near junctions.
    """
    start = min(max(float(lin), lo), hi)
    pa, pb, pc = (float(p) for p in ps)
    da, db, dc = (float(d) for d in ds)
    f01 = (db - da) / (pb - pa)
    f12 = (dc - db) / (pc - pb)
    f012 = (f12 - f01) / (pc - pa)
    z = start
    for _ in range(12):
        val = da + (z - pa) * (f01 + f012 * (z - pb))
        der = f01 + f012 * ((z - pa) + (z - pb))
        if der == 0.0 or not np.isfinite(der):
            return start
        step = val / der
        z -= step
        if abs(step) <= 1e-15 * max(abs(lo), abs(hi), 1.0):
            break
    if not np.isfinite(z) or z < lo or z > hi:
        return start
    return z


def _crossing(grid, d, valid, a, b):
    """Zero of d between nodes a and b, refined through a third valid node."""
    lin = _cell_crossing(grid[a], grid[b], d(a), d(b))
    k3 = a - 1 if valid(a - 1) else b + 1 if valid(b + 1) else None
    if k3 is None:
        return lin
    return _quad_zero(
        (grid[k3], grid[a], grid[b]), (d(k3), d(a), d(b)), grid[a], grid[b], lin
    )


def build_reflection_regions(spec: ModelSpec, surface: BoundarySurface):
    """Solve the coefficient system on every connected reflected component.

    Closures are read off the lattice: a column that runs into the diagonal
    pins the extrapolated C2 to zero there; a line that runs into a stopping
    curve pins the two-power combination to the payoff at the located
    crossing, refined through three lattice samples where the stopping curve
    is curved (imposed through a virtual node so the pin costs no
    extrapolation error); a put row that reaches the far truncation edge pins
    C1 to zero.  A component cut off by a flagged slice or by the lattice
    edge cannot be closed and raises UnderdeterminedRegion.
    """
    if surface.labels is None:
        detect_regions_3d(spec, surface)
    o = _ORIENT[surface.kind]
    s_grid, y_grid, v = surface.s_grid, surface.y_grid, surface.values
    n_s, n_y = v.shape
    L = spec.strike
    # the reflect band is bounded by x = s when it lies above s (call) and
    # by the floor x = s - y when it lies below the floor (put)
    band_on_s = o.above == "reflect"

    def line(s, y, on_s):
        return s if on_s else s - y

    mask = surface.labels == "reflect"
    comp, n_comp = ndimage.label(mask)
    grids = []
    for c in range(1, n_comp + 1):
        active = comp == c
        col_cl = []
        row_cl = []
        for i in range(n_s):
            idx = np.flatnonzero(active[i])
            if not idx.size:
                continue
            j2 = idx[-1]
            above = j2 + 1

            def dcol(k, i=i):
                return v[i, k] - line(s_grid[i], y_grid[k], band_on_s)

            def col_valid(k, i=i):
                return 0 <= k < n_y and np.isfinite(v[i, k]) and y_grid[k] < s_grid[i]

            if above >= n_y or y_grid[above] >= s_grid[i]:
                if band_on_s:
                    col_cl.append(ColumnClosure(i, "c2_zero", y_pos=s_grid[i]))
                    continue
                # floor crossing sits between the last node and the
                # diagonal; extrapolate the barrier through the top
                # column samples (flat only when the column is too short)
                if j2 >= 1 and np.isfinite(v[i, j2 - 1]):
                    lin = _cell_crossing(
                        y_grid[j2 - 1], y_grid[j2], dcol(j2 - 1), dcol(j2)
                    )
                    if j2 >= 2 and np.isfinite(v[i, j2 - 2]):
                        y_star = _quad_zero(
                            (y_grid[j2 - 2], y_grid[j2 - 1], y_grid[j2]),
                            (dcol(j2 - 2), dcol(j2 - 1), dcol(j2)),
                            y_grid[j2], s_grid[i], lin,
                        )
                    else:
                        y_star = min(max(lin, y_grid[j2]), s_grid[i])
                else:
                    y_star = min(s_grid[i] - v[i, j2], s_grid[i])
            else:
                if surface.labels[i, above] == "":
                    raise UnderdeterminedRegion(
                        f"reflected column at s={s_grid[i]:g} is cut by a flagged "
                        "slice; refine the lattice or the step tolerance"
                    )
                y_star = _crossing(y_grid, dcol, col_valid, j2, above)
            x_base = line(s_grid[i], y_star, band_on_s)
            target = o.sign * (x_base - L)
            col_cl.append(
                ColumnClosure(i, "combo", y_pos=y_star, x_base=x_base, target=target)
            )
        for j in range(n_y):
            idx = np.flatnonzero(active[:, j])
            if not idx.size:
                continue
            i2 = idx[-1]
            right = i2 + 1
            if right >= n_s:
                if band_on_s:
                    raise UnderdeterminedRegion(
                        f"reflected row at y={y_grid[j]:g} reaches the lattice "
                        "edge; enlarge the s-range"
                    )
                row_cl.append(RowClosure(j, "c1_zero"))
                continue
            lab = surface.labels[right, j]
            if lab == "":
                raise UnderdeterminedRegion(
                    f"reflected row at y={y_grid[j]:g} is cut by a flagged "
                    "slice; refine the lattice or the step tolerance"
                )
            # a put row may run straight into the stop band above s
            on_s = band_on_s or lab == o.above

            def drow(k, j=j, on_s=on_s):
                return v[k, j] - line(s_grid[k], y_grid[j], on_s)

            def row_valid(k, j=j):
                return 0 <= k < n_s and np.isfinite(v[k, j]) and s_grid[k] > y_grid[j]

            s_star = _crossing(s_grid, drow, row_valid, i2, right)
            x_base = line(s_star, y_grid[j], on_s)
            target = o.sign * (x_base - L)
            row_cl.append(
                RowClosure(j, "combo", s_pos=s_star, x_base=x_base, target=target)
            )
        region = RegionSpec(s_grid, y_grid, active, col_cl, row_cl)
        grids.append(solve_reflection_region(spec, region))
    return grids


class _Solution3D:
    """Assembled perpetual solution over the (x, s, y) state space."""

    def __init__(
        self,
        spec: ModelSpec,
        n_s: int = 193,
        n_y: int = 129,
        s_lo=None,
        s_hi=None,
        y_hi=None,
        step_rel_tol=STEP_REL_TOL,
    ):
        if spec.payoff_kind != self.kind:
            raise DomainError(f"spec is not a {self.kind} model")
        self._o = _ORIENT[self.kind]
        eps = EDGE_FRACTION * spec.strike
        s_hi = float(s_hi) if s_hi is not None else spec.domain_s_max
        s_lo = float(s_lo) if s_lo is not None else 1e-2 * spec.strike
        y_hi = (
            float(y_hi)
            if y_hi is not None
            else min(spec.domain_y_max, s_hi - 2.0 * eps)
        )
        s_grid = np.linspace(s_lo, s_hi, int(n_s))
        y_grid = np.linspace(0.0, y_hi, int(n_y))
        build = build_call_surface if self._o is _CALL else build_put_surface
        self.spec = spec
        self.surface = build(spec, s_grid, y_grid, step_rel_tol)
        self.regions = build_reflection_regions(spec, self.surface)
        self._levels = {}
        self._boxes = []
        for g in self.regions:
            si = np.flatnonzero(g.active.any(axis=1))
            yi = np.flatnonzero(g.active.any(axis=0))
            self._boxes.append(
                (
                    g.s_grid[si[0]], g.s_grid[si[-1]],
                    g.y_grid[yi[0]], g.y_grid[yi[-1]],
                )
            )

    def _hop(self, fixed, t0, v0, t1):
        """Short checked march of the slice state from t0 to t1."""
        spec, o = self.spec, self._o
        check_quadrant(*o.swap(fixed, [t0, t1]))
        stage = ReuseStages(lambda t: _stage(o, spec, *o.swap(fixed, t)))
        h = spec.strike / 64.0
        n = max(1, int(np.ceil(abs(t1 - t0) / h)))
        t, v = float(t0), float(v0)
        for k in range(n):
            t_next = t0 + (t1 - t0) * ((k + 1.0) / n)
            v, rel = checked_step(
                stage, t, v, t_next - t, scale_floor=1e-12 * spec.strike
            )
            if not np.isfinite(v) or float(rel) > STEP_REL_TOL:
                raise StepError("refinement hop failed its error check")
            t = t_next
        return float(v)

    def boundary(self, s, y):
        """Barrier level of the x-line at (s, y).

        Lines whose interpolated level lies inside the line (the branch
        whose value assembly is pinned to the level) are re-marched from
        their diagonal seed to the query point, so the returned level
        carries integration accuracy rather than lattice interpolation
        accuracy.  Other lines, and lines the march cannot reach, return
        the interpolated surface level.
        """
        s = float(s)
        y = float(y)
        hit = self._levels.get((s, y))
        if hit is not None:
            return hit
        spec, o = self.spec, self._o
        eps = EDGE_FRACTION * spec.strike
        out = cheap = float(self.surface.level_smooth(s, y))
        if 0.0 <= y < s and s - y <= cheap <= s and s - y - eps <= 8.0 * spec.strike:
            fixed, t = o.swap(s, y)
            start = fixed + o.direction * eps
            try:
                seed = float(_diagonal_seeds(o, spec, fixed, start))
                reached = o.direction * (t - start) > 0.0
                out = self._hop(fixed, start, seed, t) if reached else seed
            except (StepError, SingularDenominator, DomainError):
                out = cheap
        if len(self._levels) > 4096:
            self._levels.clear()
        self._levels[(s, y)] = out
        return out

    def _region_coeffs(self, s, y):
        if not self.regions:
            raise DomainError(
                "query falls in a reflected band but no reflected component "
                "was solved; enlarge the lattice"
            )
        best = None
        for g, (s0, s1, y0, y1) in zip(self.regions, self._boxes):
            d = max(s0 - s, 0.0, s - s1) ** 2 + max(y0 - y, 0.0, y - y1) ** 2
            if best is None or d < best[0]:
                best = (d, g)
        return best[1].coeffs_at(s, y)

    def branch(self, s, y):
        """Which branch the x-line at (s, y) takes: stop, direct, or reflect."""
        level = float(self.boundary(s, y))
        if level > s:
            return self._o.above
        if level < s - y:
            return self._o.below
        return "direct"

    def _line(self, s, y):
        """Branch, direct level, roots and coefficients of the x-line at (s, y).

        The level is None off the direct branch; a stopped line has no
        roots or coefficients.
        """
        br = self.branch(s, y)
        if br == "stop":
            return br, None, None
        g1, g2, *_ = (float(v) for v in roots_arrays(self.spec, s, y))
        level = None
        if br == "reflect":
            c1, c2 = self._region_coeffs(s, y)
        else:
            level = float(self.boundary(s, y))
            c1, c2 = _pinned_pair(
                g1, g2, level, self.spec.strike, self._o.sign,
                x_end=self._o.edge(s, y),
            )
        return br, level, (g1, g2, c1, c2)

    def coefficients(self, s, y):
        """Branch tag and two-power coefficients for the x-line at (s, y)."""
        br, _, pair = self._line(s, y)
        if pair is None:
            return br, 0.0, 0.0
        return br, float(pair[2]), float(pair[3])

    def value_line(self, x, s, y):
        """Value along one x-line; x may be an array within [s - y, s]."""
        s = float(s)
        y = float(y)
        x = np.asarray(x, dtype=float)
        slack = 1e-9 * self.spec.strike
        if not (0.0 <= y < s):
            raise DomainError(f"need 0 <= y < s, got s={s}, y={y}")
        if np.any(x < s - y - slack) or np.any(x > s + slack):
            raise DomainError("x outside [s - y, s]")
        x = np.clip(x, s - y, s)
        payoff = self.spec.payoff(x)
        br, level, pair = self._line(s, y)
        if pair is None:
            return payoff
        g1, g2, c1, c2 = pair
        cont = c1 * x**g1 + c2 * x**g2
        if br == "direct":
            return np.where(self._o.stop_side(x, level), payoff, cont)
        return cont

    def value(self, x, s, y):
        return float(self.value_line(np.asarray([x], dtype=float), s, y)[0])


class CallSolution3D(_Solution3D):
    """Assembled perpetual call solution over the (x, s, y) state space."""

    kind = "call"


class PutSolution3D(_Solution3D):
    """Assembled perpetual put solution over the (x, s, y) state space."""

    kind = "put"


@lru_cache(maxsize=4)
def _default_solution_3d(spec: ModelSpec, cls):
    return cls(spec)


def call_value_3d(spec: ModelSpec, x, s, y):
    return _default_solution_3d(spec, CallSolution3D).value(x, s, y)


def put_value_3d(spec: ModelSpec, x, s, y):
    return _default_solution_3d(spec, PutSolution3D).value(x, s, y)

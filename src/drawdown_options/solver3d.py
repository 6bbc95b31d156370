"""Boundary surfaces and values with both running maximum and drawdown active.

Each x-line carries the two-power value C1 x**g1 + C2 x**g2 with roots taken
at that line's (s, y).  The stopping boundary solves a slice ODE: for calls,
in y at fixed s, seeded next to the diagonal where the drawdown floor is
slack; for puts, in s at fixed y, seeded next to the corner s = y from the
matching diagonal-restricted curve.  Slices advance together, each in its
own lane time, so they share every step and the right-hand side stays
vectorized; a slice that fails its step check or a constraint keeps its
partial history and is flagged instead of aborting the whole surface.

Per node the barrier sorts the line into one of three branches: stopped
(payoff), direct (barrier reachable, two-power value pinned at the barrier),
or reflected (barrier out of reach; coefficients come from the reflection
system, one per surface, solved over every reflected node at once).

Call and put are one problem seen from two sides.  Everything that differs
between the sides (payoff sign, slice axis and march direction, the line
edge where reflection acts, the constraint band, which branch lies above s
and which below s - y) sits in one ``coefficients._Orientation`` record per
side; the marcher, region detection, closures and value assembly are
written once against it.  Direct lines are pinned by
:func:`coefficients._pinned_pair`, the same rule the reflection closures
and the maximum-only put use.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import odestep
from .coefficients import (
    _CALL,
    _ORIENT,
    _PUT,
    ModelSpec,
    _critical_level,
    _d2value_dx2,
    _dvalue_dx,
    _Orientation,
    _pinned_pair,
    _roots_along,
    check_quadrant,
)
from .errors import DomainError, ResolutionWarning, UnderdeterminedRegion

# perfbench/tracer.py wraps checked_step in every solver module; the march
# here steps through solver2d's name
from .odestep import checked_step  # noqa: F401
from .reflection_pde import (
    ColumnClosure,
    RegionSpec,
    RowClosure,
    _bilinear,
    _fill_inactive,
    _point,
    _run_ends,
    solve_reflection_region,
)
from .solver2d import (
    EDGE_FRACTION,
    OdeStage,
    PutSolution2D,
    _adjacent_messages,
    _Cubic,
    _cell_crossing,
    _cut_error,
    _march_lanes,
    _non_finite,
    _scan_nodes,
    _sign_changes,
)

MAX_SWITCH_PAIRS = 16
_ARRAY_LIKE = (np.ndarray, list, tuple)  # level_smooth takes these as arrays


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
        self._seed_curve = None
        self._filled = None
        self._lookup = None
        self._row_fits = {}
        # level_smooth's float path: the lattice box and y nodes as floats
        self._box = tuple(float(g[k]) for g in (self.s_grid, self.y_grid) for k in (0, -1))
        self._y_view = memoryview(np.ascontiguousarray(self.y_grid, dtype=float))

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
            self._lookup = _bilinear(self.s_grid, self.y_grid, self.filled_values())
        return self._lookup(s, y)

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
            runs = np.flatnonzero(np.diff(np.concatenate(([False], finite, [False]))))
            for k, end in runs.reshape(-1, 2):
                xs = self.s_grid[k:end]
                vs = row[k:end]
                # (run start, run end, lowest and highest query read)
                ends = (xs[0], xs[-1], xs[0], xs[-1])
                if xs.size >= 4:
                    ends = (xs[0], xs[-1], xs[0] - (xs[1] - xs[0]) - dy,
                            xs[-1] + (xs[-1] - xs[-2]) + dy)
                    fn = _Cubic(xs, vs)
                elif xs.size >= 2:
                    fn = lambda q, xs=xs, vs=vs: np.interp(q, xs, vs)
                else:
                    fn = lambda q, v=vs[0]: v
                fit.append((*(float(e) for e in ends), fn))
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

    def _rows_level(self, rows, s):
        """_row_level of every query s[k] on row rows[k], as arrays.

        Returns the levels and a mask of the queries whose row has a fit (the
        others read NaN).  Each row's queries pick the nearest run, the first
        on a tie (``np.argmin``, as ``_row_level``'s strict ``<``), and each
        (row, run) evaluates its fit once on its queries.
        """
        out = np.full(s.shape, np.nan)
        has = np.zeros(s.shape, dtype=bool)
        order = np.argsort(rows, kind="stable")
        for grp in np.split(order, np.flatnonzero(np.diff(rows[order])) + 1):
            fit = self._row_fit(int(rows[grp[0]])) if grp.size else None
            if not fit:
                continue
            q = s[grp]
            lo, hi = np.array([f[:2] for f in fit]).T[:, :, None]
            run = np.argmin(np.maximum(np.maximum(lo - q, 0.0), q - hi), axis=0)
            for r in np.unique(run):
                _, _, elo, ehi, fn = fit[r]
                at = run == r
                out[grp[at]] = fn(np.minimum(np.maximum(q[at], elo), ehi))
            has[grp] = True
        return out, has

    def level_smooth(self, s, y):
        """Barrier level: cubic across s within a row, linear across y.

        Row data are the marched node values themselves, so the only error
        between nodes is the interpolant's; queries within one cell past a
        run's end extrapolate the cubic (the slice extends to the diagonal
        even when no node landed on the stub), further ones clamp, and a row
        with no finite nodes defers to its partner or the bilinear fallback.

        Floats give a float.  Arrays give an array, each entry the float of
        that query taken on its own, bit for bit; each lattice row's fit is
        evaluated once per run on all the queries that read it.
        """
        if isinstance(s, _ARRAY_LIKE) or isinstance(y, _ARRAY_LIKE):
            return self._levels_smooth(s, y)
        s_lo, s_hi, y_lo, y_hi = self._box
        ys = self._y_view
        s = min(max(float(s), s_lo), s_hi)
        y = min(max(float(y), y_lo), y_hi)
        # a NaN y reads the top cell, where np.searchsorted sorts NaN
        j = min(max(bisect_left(ys, y) - 1, 0), len(ys) - 2) if y == y else len(ys) - 2
        ty = (y - ys[j]) / (ys[j + 1] - ys[j])
        v0 = self._row_level(j, s)
        v1 = self._row_level(j + 1, s)
        if v0 is None and v1 is None:
            return float(self.level_at(s, y))
        if v0 is None:
            return v1
        if v1 is None:
            return v0
        return (1.0 - ty) * v0 + ty * v1

    def _levels_smooth(self, s, y):
        """level_smooth on arrays; see there."""
        s, y = np.broadcast_arrays(
            np.minimum(np.maximum(np.asarray(s, dtype=float), self.s_grid[0]), self.s_grid[-1]),
            np.minimum(np.maximum(np.asarray(y, dtype=float), self.y_grid[0]), self.y_grid[-1]),
        )
        shape, s, y = s.shape, s.ravel(), y.ravel()
        j = np.clip(np.searchsorted(self.y_grid, y) - 1, 0, self.y_grid.size - 2)
        ty = (y - self.y_grid[j]) / (self.y_grid[j + 1] - self.y_grid[j])
        v, has = self._rows_level(np.concatenate([j, j + 1]), np.concatenate([s, s]))
        (v0, v1), (has0, has1) = np.split(v, 2), np.split(has, 2)
        out = np.where(has0, np.where(has1, (1.0 - ty) * v0 + ty * v1, v0), v1)
        neither = ~(has0 | has1)
        if neither.any():
            out[neither] = self.level_at(s[neither], y[neither])
        return out.reshape(shape)


def _lane_u(o, t):
    """Lane coordinate at t along a slice: y for a call, log s for a put.

    The put slope carries a log s factor where the y = 0 slice starts next
    to s = 0; log s also keeps a slice with y > 0 on a scale its level
    changes on.
    """
    return np.log(t) if o.fixed == "y" else t


def _lane_stage(o, spec, fixed, u0, du):
    """Slice slopes in lane time tau, with u = u0 + tau du the lane coordinate.

    fixed, u0 and du are per lane, arrays or floats alike; a lone lane
    stays on Python floats, whose arithmetic is numpy's to the bit.

    None when neither field varies along the slice (o.moving): the roots'
    partials along it are then 0.0, the right-hand side vanishes, and each
    lane's barrier is its seed, so the march takes no step.
    """
    if not (spec.delta_field.varies_with(o.moving) or spec.sigma_field.varies_with(o.moving)):
        return None
    log_lane = o.fixed == "y"

    def stage(tau):
        u = u0 + tau * du
        if log_lane:
            t = float(np.exp(u)) if isinstance(u, float) else np.exp(u)
            rate = du * t
        else:
            t, rate = u, du
        ode = _stage(o, spec, *o.swap(fixed, t))
        return lambda level: rate * ode(level)

    return stage


def _march_slices(o, spec, curve, fixed, lane, nodes):
    """March slices of orientation o from next to the diagonal through nodes.

    fixed holds each slice's fixed coordinate, or is a float for a lone
    slice, which marches on floats through nodes given in march order, or
    to nodes alone when nodes is a float: a direct line's query point, the
    lane's one node, whose level comes back as a float.  lane and nodes
    list every node to read, by slice and moving coordinate, at or past
    its slice's start and inside the quadrant (a lone slice ignores lane).
    Each slice starts on its :func:`_diagonal_seeds` seed (curve is None
    for a call) and is flagged ``"constraint"`` there if the seed lies
    outside its band; the others are the lanes of one
    :func:`solver2d._march_lanes`, each in its lane time tau, linear in
    :func:`_lane_u` from its start (tau = 0) to its own last node
    (tau = 1), at ``odestep.STEP_REL_TOL``.  Where neither field varies
    along the slices, :func:`_lane_stage` gives no stage and every node
    takes its slice's seed, band-checked, with no step.

    Returns the node levels, NaN from the first node its slice misses, and
    per slice its status ``(kind, at)`` as in ``slice_status``.
    """
    start = fixed + o.direction * EDGE_FRACTION * spec.strike
    seed = _diagonal_seeds(o, spec, curve, fixed, start)
    lo, hi = o.band(spec, *o.swap(fixed, start))
    u = _lane_u(o, nodes)
    one = isinstance(fixed, float)
    if one:
        lone = isinstance(nodes, float)
        if not lo < seed < hi:
            return math.nan if lone else np.full(nodes.size, np.nan), [("constraint", start)]
        u0 = float(_lane_u(o, start))
        du = float(u if lone else u[-1]) - u0
        # du is 0 only where every node is the start, which tau = 0 reads
        tau = 1.0 if lone else (u - u0) / du if du else np.zeros(nodes.size)
        seed, at = float(seed), nodes
    else:
        held = (seed > lo) & (seed < hi)
        status = [
            ("ok", np.nan) if h else ("constraint", float(t)) for h, t in zip(held, start)
        ]
        lanes = np.flatnonzero(held)
        fixed, start, seed = fixed[lanes], start[lanes], seed[lanes]
        pick = np.flatnonzero(held[lane])
        li = (np.cumsum(held) - 1)[lane[pick]]
        u0 = _lane_u(o, start)
        far = np.full(lanes.size, -np.inf)
        np.maximum.at(far, li, o.direction * u[pick])
        du = o.direction * far - u0
        tau = np.divide(u[pick] - u0[li], du[li], out=np.zeros(pick.size), where=du[li] != 0)
        order = np.argsort(tau, kind="stable")
        pick, lane, tau = pick[order], li[order], tau[order]
        at = nodes[pick]

    got, cuts, _ = _march_lanes(
        _lane_stage(o, spec, fixed, u0, du), seed, tau, lane,
        o.band(spec, *o.swap(fixed if one else fixed[lane], at)),
        odestep.STEP_REL_TOL, spec.strike,
    )
    if one:
        ((kind, c),) = cuts
        return got, [("ok", np.nan) if kind == "ok" else (kind, at if lone else float(at[c]))]
    levels = np.full(nodes.size, np.nan)
    levels[pick] = got
    for j, (kind, c) in zip(lanes, cuts):
        if kind != "ok":
            status[j] = (kind, float(at[c]))
    return levels, status


def _diagonal_seeds(o, spec: ModelSpec, curve, fixed, starts):
    """Barrier levels at slice starts next to the diagonal.

    A call slice starts on the critical level of its own roots, where the
    drawdown floor is slack, and curve is None; a put slice starts on curve,
    the diagonal-restricted maximum-only curve (:func:`diagonal_put_curve`).
    """
    if o.sign > 0:
        g1, g2 = _roots_along(spec, *o.swap(fixed, starts))
        return _critical_level(g1, g2, spec.strike, o.sign)
    return curve(starts)


def _surface_grids(o, spec, s_grid, y_grid):
    """The grids of an o-side surface as float arrays, once spec and grids pass.

    A spec of the other payoff, an empty or multi-dimensional grid, or a
    NaN or infinite grid entry (named, the first one) raises DomainError.
    """
    o.require(spec)
    s_grid = np.asarray(s_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    for name, grid in (("s_grid", s_grid), ("y_grid", y_grid)):
        if grid.ndim != 1 or not grid.size:
            raise DomainError(f"{name} must be a one-dimensional grid of at least one node")
        if not np.isfinite(grid).all():
            raise _non_finite(grid, name)
    return s_grid, y_grid


def _build_surface(o, spec, make_curve, s_grid, y_grid):
    """March every slice from next to the diagonal, then label the lattice.

    The grids are those :func:`_surface_grids` passed.  make_curve() makes
    the put's diagonal curve (it is None for a call), and the surface keeps
    it.
    """
    curve = make_curve() if make_curve else None
    fixed, move = o.swap(s_grid, y_grid)
    starts = fixed + o.direction * EDGE_FRACTION * spec.strike
    # each slice enters the lattice at the first node its march reaches
    if o.direction > 0:
        entry = np.searchsorted(move, starts, side="left")
        entry[entry == move.size] = -1
    else:
        entry = np.searchsorted(move, starts, side="right") - 1
    inside = np.flatnonzero(entry >= 0)

    # every slice runs from its start through the far end of move, and
    # reads every lattice node from its entry on
    check_quadrant(*o.swap(fixed[inside], starts[inside]))
    check_quadrant(*o.swap(fixed[inside], move[-1] if o.direction > 0 else move[0]))
    m, entry = np.arange(move.size), entry[inside, None]
    lane, node = np.nonzero(m >= entry if o.direction > 0 else m <= entry)
    levels, marched = _march_slices(o, spec, curve, fixed[inside], lane, move[node])
    values = np.full((fixed.size, move.size), np.nan)
    values[inside[lane], node] = levels
    status = [("outside", np.nan)] * fixed.size
    for k, st in zip(inside.tolist(), marched):
        status[k] = st
    surf = BoundarySurface(s_grid, y_grid, o.fixed_major(values), o.kind, status)
    surf._seed_curve = curve
    return detect_regions_3d(spec, surf)


def build_call_surface(spec: ModelSpec, s_grid, y_grid) -> BoundarySurface:
    """Integrate the call barrier down each fixed-s slice from the diagonal.

    The seed sits at y = s - eps where the drawdown floor is slack and the
    barrier matches the reachable-maximum form for the diagonal coefficients.
    """
    s_grid, y_grid = _surface_grids(_CALL, spec, s_grid, y_grid)
    if s_grid[0] <= EDGE_FRACTION * spec.strike:
        raise DomainError("s_grid must start above the edge offset")
    return _build_surface(_CALL, spec, None, s_grid, y_grid)


def build_put_surface(spec: ModelSpec, s_grid, y_grid) -> BoundarySurface:
    """Integrate the put barrier up each fixed-y slice from the corner s = y.

    Next to the corner the drawdown floor sits at the bottom of the x-line,
    so the slice starts from the diagonal-restricted maximum-only curve.
    Each build marches that curve once, through :func:`diagonal_put_curve`,
    for every slice, and the surface keeps it: the direct-line re-marches
    of a solution built on the surface start from the same seeds.  The
    grids are checked before the curve is marched.
    """
    s_grid, y_grid = _surface_grids(_PUT, spec, s_grid, y_grid)
    return _build_surface(_PUT, spec, lambda: diagonal_put_curve(spec), s_grid, y_grid)


def diagonal_put_curve(spec: ModelSpec):
    """Maximum-only put curve for the diagonal-restricted coefficients.

    Marched anew on every call (about 210 steps on the 4097-node default
    grid); a caller that needs it again keeps what it built.
    """
    dspec = spec.diagonal_spec()
    return PutSolution2D(dspec).curve


def _boundary_slice(o, spec, curve, fixed, nodes):
    """Barrier on one slice, marched from next to the diagonal through nodes.

    The lone slice of :func:`_march_slices`, on floats, from its start to
    its last node (curve is None for a call).  nodes is an array, or a
    float: a direct line's query point, read as the lane's one node, with
    its checks and its level on floats.  The fixed coordinate and the nodes
    must be finite, and the nodes must move strictly away from the
    diagonal, from the slice's start on; else DomainError.  Serves the
    public slices and every direct-line re-march.  Returns the node levels
    (a float for a float node), NaN from the first node the lane misses,
    and its status ``(kind, at)`` as in ``slice_status``.
    """
    o.require(spec)
    fixed = float(fixed)
    lone = isinstance(nodes, float)
    if not lone:
        nodes = np.asarray(nodes, dtype=float)
    if not math.isfinite(fixed):
        raise _non_finite(fixed, o.fixed)
    if not (math.isfinite(nodes) if lone else np.isfinite(nodes).all()):
        raise _non_finite(nodes, f"{o.moving}_grid")
    start = fixed + o.direction * EDGE_FRACTION * spec.strike
    if lone:
        astray = o.direction * (nodes - start) < 0
    elif nodes.size:
        astray = np.any(o.direction * np.diff(nodes) <= 0) or o.direction * (nodes[0] - start) < 0
    else:
        return nodes, ("ok", np.nan)
    if astray:
        raise DomainError(
            f"{o.moving}_grid must move strictly away from the diagonal, "
            f"from {o.moving}={start:g} on"
        )
    check_quadrant(*o.swap(fixed, nodes))
    levels, (status,) = _march_slices(
        o, spec, curve, fixed, None if lone else np.zeros(nodes.size, dtype=int), nodes
    )
    return levels, status


def call_boundary_slice(spec: ModelSpec, s, y_grid):
    """Call barrier on the fixed-s slice at the given descending y nodes.

    Seeded at y = s - eps from the reachable-maximum form and integrated
    downward in y.  The nodes from the first one the march misses are NaN,
    whatever the failure: a constraint breach (barrier at or below
    max(strike, r strike / delta)) or a failed step.
    """
    if float(s) <= EDGE_FRACTION * spec.strike:
        raise DomainError(f"slice level s={float(s)} must exceed the edge offset")
    return _boundary_slice(_CALL, spec, None, s, np.asarray(y_grid, dtype=float))[0]


def put_boundary_slice(spec: ModelSpec, y, s_grid):
    """Put barrier on the fixed-y slice at the given ascending s nodes.

    Seeded at s = y + eps from the diagonal-restricted maximum-only curve,
    which each call marches anew once its input is checked, and integrated
    upward in s.  The nodes from the first one the march misses are NaN,
    whatever the failure: a constraint breach (barrier leaving
    (0, min(strike, r strike / delta))) or a failed step.
    """
    # the march reads the curve once, at its seed, after the checks
    return _boundary_slice(
        _PUT, spec, lambda s: diagonal_put_curve(spec)(s), y, np.asarray(s_grid, dtype=float)
    )[0]


def detect_regions_3d(spec: ModelSpec, surface: BoundarySurface) -> BoundarySurface:
    """Label every lattice node and trace the region-splitting curves.

    Nodes sort into "stop", "direct", "reflect" (empty string off the state
    space or past a flagged slice).  Each integration slice is scanned for
    crossings against both reference lines; runs of more than
    MAX_SWITCH_PAIRS crossing pairs are truncated with a warning.  The cap
    curve collects, for the call, the last reflect-to-direct crossing in s
    per y-row and, for the put, the first floor crossing in y per s-column.

    Each reference line is scanned once over the whole lattice (and the
    reflecting one once more across the slices, for the cap curve), with
    the crossings and warnings ``detect_switch_points`` gives on each
    slice's valid nodes, bit for bit.
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
    okf = o.fixed_major(valid)
    nodes = _scan_nodes(okf)  # both slice scans read the same valid nodes
    # gap to each reference line, indexed [slice, node along the slice]
    gaps = {o.above: o.fixed_major(v - ss), o.below: o.fixed_major(v - floor)}
    most = 2 * MAX_SWITCH_PAIRS
    points, notes = {}, []
    for scan, (label, ref) in enumerate(((o.above, "reachable-max line"), (o.below, "floor line"))):
        line, pos, falls, adjacent = _switches(move, gaps[label], nodes)
        pairs = list(zip(pos.tolist(), np.where(falls, "enter", "exit").tolist()))
        ends = np.searchsorted(line, np.arange(fixed.size + 1))
        notes += [(k, scan, 0, msg) for k, msg in adjacent]
        notes += [
            (k, scan, 1, f"more than {MAX_SWITCH_PAIRS} switch pairs on slice "
             f"{o.fixed}={fixed[k]:g} vs {ref}; keeping the first {most}")
            for k in np.flatnonzero(np.diff(ends) > most).tolist()
        ]
        ends = ends.tolist()
        points[label] = [pairs[a:min(b, a + most)] for a, b in zip(ends[:-1], ends[1:])]
    # slice by slice, each scan's adjacent-cell warnings before its cut
    for *_, msg in sorted(notes, key=lambda note: note[:3]):
        warnings.warn(msg, ResolutionWarning, stacklevel=2)
    switches = [{"reflect": r, "stop": s} for r, s in zip(points["reflect"], points["stop"])]
    # across the slices, per node of the moving axis: where the reflect band
    # gives way to the direct one, farthest from the diagonal (which closes
    # an s-scan at its low end and a y-scan at its high end)
    line, pos, falls, adjacent = _switches(fixed, gaps["reflect"].T, _scan_nodes(okf.T))
    for _, msg in adjacent:
        warnings.warn(msg, ResolutionWarning, stacklevel=2)
    leave = falls == (o.above == "reflect")
    line, pos = line[leave], pos[leave]
    edge = np.ones(line.size, dtype=bool)
    if o.fixed == "s":
        edge[:-1] = line[:-1] != line[1:]
    else:
        edge[1:] = line[1:] != line[:-1]
    cap = np.full(move.size, np.nan)
    cap[line[edge]] = pos[edge]
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


def _switches(grid, d, nodes):
    """Switch points of d along every line of a lattice, in one scan.

    d is indexed [line, node along grid], and nodes is the
    :func:`solver2d._scan_nodes` set-up of its valid mask.  Returns the
    crossings in line order, as arrays of their line, position and whether
    d falls there ("enter"), and the adjacent-cell warnings as (line,
    message) pairs: what ``detect_switch_points`` gives on each line's
    valid nodes.
    """
    line, lo, hi, falls = _sign_changes(d, nodes)
    pos = _cell_crossing(grid[lo], grid[hi], d[line, lo], d[line, hi])
    return line, pos, falls, _adjacent_messages(grid, nodes, line, pos)


def _min_max(v, lo, hi):
    """min(max(v, lo), hi) elementwise, as Python's min and max pick: NaN v stays."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _quad_zero(ps, ds, lo, hi, lin):
    """Zero of the parabola through three samples, kept inside [lo, hi], per lane.

    Newton iteration started from the linear estimate, clipped into the
    bracket; any failure to land in the bracket falls back to that start.
    Curvature of the stopping curve otherwise leaves an O(step^2) bias in
    closure positions, which the amplifying power of a long x-line turns
    into visible value error near junctions.  Every argument is a float or
    an array of lanes: each lane stops where the one-lane iteration stops
    (a zero or non-finite derivative falls back at once; a step within
    1e-15 of the bracket's scale, or 12 steps, ends it), with the same bits.
    """
    pa, pb, pc = ps
    da, db, dc = ds
    start = _min_max(np.asarray(lin, dtype=float), lo, hi)
    with np.errstate(all="ignore"):
        f01 = (db - da) / (pb - pa)
        f12 = (dc - db) / (pc - pb)
        f012 = (f12 - f01) / (pc - pa)
        tol = 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        z, run, fell = start, np.ones(start.shape, dtype=bool), np.zeros(start.shape, dtype=bool)
        for _ in range(12):
            val = da + (z - pa) * (f01 + f012 * (z - pb))
            der = f01 + f012 * ((z - pa) + (z - pb))
            fell |= run & ~((der != 0.0) & np.isfinite(der))
            run &= ~fell
            step = val / der
            z = np.where(run, z - step, z)
            run &= ~(np.abs(step) <= tol)
            if not run.any():
                break
    return np.where(fell | ~np.isfinite(z) | (z < lo) | (z > hi), start, z)


def build_reflection_regions(spec: ModelSpec, surface: BoundarySurface):
    """Solve the coefficient system on every reflected node as one system.

    Returns a list of one :class:`CoefficientGrid`, or an empty list when no
    node reflects.  One walk (:func:`_close_lines`) closes each run of
    reflected nodes along a column (along y at fixed s) or a row (along s
    at fixed y) past its last node.  At the line's open end (the diagonal
    or the lattice top for a column, the far s edge for a row) a call
    column pins the extrapolated C2 to zero, a put column pins the payoff
    at its floor crossing extrapolated toward the diagonal (and raises if
    that lands on the diagonal, where the floor is x = 0), a put row pins
    C1 to zero, and a call row raises.  At a stopping curve the run pins
    the payoff at the crossing, refined through three lattice samples and
    imposed through a virtual node so the pin costs no extrapolation error;
    at a flagged node it raises.  The raises are UnderdeterminedRegion.
    """
    o = _ORIENT[surface.kind]
    s_grid, y_grid, v, labels = surface.s_grid, surface.y_grid, surface.values, surface.labels
    active = labels == "reflect"
    if not active.any():
        return []
    # values, labels and activity indexed [line, node along the line]
    cols = _close_lines(spec, o, (False, y_grid, s_grid, v, labels, active))
    rows = _close_lines(spec, o, (True, s_grid, y_grid, v.T, labels.T, active.T))
    return [solve_reflection_region(spec, RegionSpec(s_grid, y_grid, active, cols, rows))]


def _close_lines(spec: ModelSpec, o: _Orientation, family):
    """The closure of each run of active nodes of a family, in line and run order.

    Every run end's closure is worked out at once, on arrays; the closures
    are then built in run order up to the first run that cannot be closed,
    which raises.
    """
    along_s, grid, fixed, v, labels, act = family
    closure, name = (RowClosure, "row at y") if along_s else (ColumnClosure, "column at s")
    s, y = _point(along_s, fixed[:, None], grid[None, :])
    inside = y < s
    ok = inside & np.isfinite(v)
    # the barrier's gap to x = s and to the floor x = s - y, by "on s?"
    gaps = {True: v - s, False: v - (s - y)}
    # the reflect band is bounded by x = s when it lies above s (call) and
    # by the floor when it lies below the floor (put)
    band_on_s = o.above == "reflect"
    k, a = np.nonzero(_run_ends(act))
    pos, last = fixed[k], grid.size - 1
    beyond = labels[k, np.minimum(a + 1, last)]
    open_end = (a == last) | ~inside[k, np.minimum(a + 1, last)]
    # a put row may run straight into the stop band above s
    on_s = band_on_s | (along_s & ~open_end & (beyond == o.above))
    # past the run's end (b = a + 1), or, at a put column's open end, the
    # floor crossing extrapolated toward the diagonal through the column's
    # top samples (b = a), inside (grid[a], pos); flat when the column is
    # too short
    lane = ~open_end if along_s or band_on_s else ~open_end | ((a > 0) & ok[k, a - 1])
    at = pos - v[k, a]
    at = np.where(pos < at, pos, at)
    first = np.where(open_end, a - 1, a)[lane]
    hi = np.where(open_end, pos, grid[np.minimum(a + 1, last)])
    at[lane] = _crossings(
        grid, gaps, ok, k[lane], first, on_s[lane], (grid[a[lane]], hi[lane]), open_end[lane]
    )
    x_s, x_y = _point(along_s, pos, at)
    x_base = np.where(on_s, x_s, x_s - x_y)
    pinned = open_end & (along_s or band_on_s)  # c1_zero (a row), c2_zero (a column)
    # the first run that cannot be closed, in run order, by its entry in _UNCLOSED
    why = np.select(
        [pinned & along_s & band_on_s, ~open_end & (beyond == ""), ~pinned & ~(x_base > 0.0)],
        [1, 2, 3], 0,
    )
    bad = np.flatnonzero(why)
    runs = zip(k.tolist(), pos.tolist(), pinned.tolist(), at.tolist(), x_base.tolist())
    out = [
        (closure(kk, "c1_zero") if along_s else closure(kk, "c2_zero", p)) if pin
        else closure(kk, "combo", at_k, xb, o.sign * (xb - spec.strike))
        for kk, p, pin, at_k, xb in islice(runs, bad[0] if bad.size else None)
    ]
    if bad.size:
        raise UnderdeterminedRegion(
            f"reflected {name}={pos[bad[0]]:g} {_UNCLOSED[why[bad[0]] - 1]}"
        )
    return out


# why a run cannot be closed
_UNCLOSED = (
    "reaches the lattice edge; enlarge the s-range",
    "is cut by a flagged slice; refine the lattice or the step tolerance",
    "closes on the diagonal, where its floor x = s - y is 0; refine the lattice",
)


def _crossings(grid, gaps, ok, k, a, on_s, bracket, clip):
    """Zero of each lane's gap between its nodes a and a + 1 along line k.

    gaps[on_s] and ok are indexed [line, node along grid].  Each zero is
    refined through a third valid node, the one before a or else the one
    after a + 1 (:func:`_quad_zero`); with none, it is the linear zero,
    clipped into the lane's bracket where clip is set.
    """
    b = a + 1
    n = grid.size

    def d(m):
        return np.where(on_s, gaps[True][k, m], gaps[False][k, m])

    lo, hi = bracket
    with np.errstate(all="ignore"):
        lin = _cell_crossing(grid[a], grid[b], d(a), d(b))
    before = (a > 0) & ok[k, np.maximum(a - 1, 0)]
    after = (b + 1 < n) & ok[k, np.minimum(b + 1, n - 1)]
    third = np.where(before, a - 1, np.minimum(b + 1, n - 1))
    refined = _quad_zero((grid[third], grid[a], grid[b]), (d(third), d(a), d(b)), lo, hi, lin)
    return np.where(before | after, refined, np.where(clip, _min_max(lin, lo, hi), lin))


@dataclass(frozen=True)
class Line:
    """One x-line of a solution: its barrier level, branch and C1 x**g1 + C2 x**g2.

    A "stop" line has no roots and C1 = C2 = 0; a "direct" line is pinned at
    level; a "reflect" line takes its pair from the reflection system.
    """

    spec: ModelSpec
    orient: _Orientation
    s: float
    y: float
    level: float
    branch: str
    g1: float = np.nan
    g2: float = np.nan
    c1: float = 0.0
    c2: float = 0.0

    def values(self, x):
        """Value along the line; x may be an array within [s - y, s]."""
        s, y = self.s, self.y
        x = np.asarray(x, dtype=float)
        slack = 1e-9 * self.spec.strike
        if not (0.0 <= y < s):
            raise DomainError(f"need 0 <= y < s, got s={s}, y={y}")
        if not np.all((x >= s - y - slack) & (x <= s + slack)):
            raise DomainError("x outside [s - y, s]")
        x = np.clip(x, s - y, s)
        payoff = self.spec.payoff(x)
        if self.branch == "stop":
            return payoff
        cont = self.c1 * x**self.g1 + self.c2 * x**self.g2
        if self.branch == "direct":
            return np.where(self.orient.stop_side(x, self.level), payoff, cont)
        return cont

    def value(self, x):
        """``values([x])[0]`` as a float, bit for bit: floats but for one numpy power call."""
        s, y, x = self.s, self.y, float(x)
        slack = 1e-9 * self.spec.strike
        if not (0.0 <= y < s):
            raise DomainError(f"need 0 <= y < s, got s={s}, y={y}")
        if not (s - y - slack <= x <= s + slack):
            raise DomainError("x outside [s - y, s]")
        x = min(max(x, s - y), s)
        if self.branch == "stop" or (
            self.branch == "direct" and self.orient.stop_side(x, self.level)
        ):
            return self.spec.payoff(x)
        p1, p2 = np.power((x, x), (self.g1, self.g2)).tolist()
        return self.c1 * p1 + self.c2 * p2

    def dvalue_dx(self, x):
        """First x-derivative of the two-power form C1 x**g1 + C2 x**g2."""
        return _dvalue_dx(self.c1, self.g1, self.c2, self.g2, x)

    def d2value_dx2(self, x):
        """Second x-derivative of the two-power form C1 x**g1 + C2 x**g2."""
        return _d2value_dx2(self.c1, self.g1, self.c2, self.g2, x)


@dataclass(frozen=True)
class Lines:
    """A batch of x-lines as arrays, entry k the :class:`Line` at (s[k], y[k]).

    level, branch (a string array), g1, g2, c1 and c2 hold what each line's
    record holds, bit for bit.  ``lines[k]`` is line k's :class:`Line`, and
    ``lines[mask]`` or ``lines[index_array]`` the batch of those lines.
    """

    spec: ModelSpec
    orient: _Orientation
    s: np.ndarray
    y: np.ndarray
    level: np.ndarray
    branch: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def _arrays(self):
        return self.s, self.y, self.level, self.branch, self.g1, self.g2, self.c1, self.c2

    def __len__(self):
        return self.s.size

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            s, y, level, branch, g1, g2, c1, c2 = (a[k] for a in self._arrays())
            return Line(
                self.spec, self.orient, float(s), float(y), float(level), str(branch),
                float(g1), float(g2), float(c1), float(c2),
            )
        return Lines(self.spec, self.orient, *(a[k] for a in self._arrays()))

    def values(self, x):
        """Values on a (lines x points) grid: row k of x lies within line k's [s - y, s].

        Entry (k, i) equals ``lines[k].values(x[k])[i]`` bit for bit.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != len(self):
            raise ValueError(f"need one row of x per line, got shape {x.shape}")
        s, y = self.s[:, None], self.y[:, None]
        slack = 1e-9 * self.spec.strike
        bad = ~((0.0 <= y) & (y < s))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"need 0 <= y < s, got s={self.s[k]}, y={self.y[k]}")
        if not np.all((x >= s - y - slack) & (x <= s + slack)):
            raise DomainError("x outside [s - y, s]")
        x = np.clip(x, s - y, s)
        payoff = self.spec.payoff(x)
        # stopped lines carry NaN roots, which their payoff replaces
        with np.errstate(invalid="ignore"):
            cont = self.c1[:, None] * x ** self.g1[:, None] + self.c2[:, None] * x ** self.g2[:, None]
        stop = (self.branch == "stop")[:, None] | (
            (self.branch == "direct")[:, None] & self.orient.stop_side(x, self.level[:, None])
        )
        return np.where(stop, payoff, cont)

    def dvalue_dx(self, x):
        """First x-derivative of each line's two-power form at x[k], as Line's."""
        return _dvalue_dx(self.c1, self.g1, self.c2, self.g2, x)

    def d2value_dx2(self, x):
        """Second x-derivative of each line's two-power form at x[k], as Line's."""
        return _d2value_dx2(self.c1, self.g1, self.c2, self.g2, x)


class _Solution3D:
    """Assembled perpetual solution over the (x, s, y) state space."""

    def __init__(self, spec: ModelSpec, n_s: int = 193, n_y: int = 129):
        self._o = _ORIENT[self.kind]
        # s runs over [0.01 K, domain_s_max]; y stops 2 eps short of s_max so
        # that the top put slice, which starts eps above its y, enters the
        # lattice
        eps = EDGE_FRACTION * spec.strike
        s_hi = spec.domain_s_max
        y_hi = min(spec.domain_y_max, s_hi - 2.0 * eps)
        s_grid = np.linspace(1e-2 * spec.strike, s_hi, int(n_s))
        y_grid = np.linspace(0.0, y_hi, int(n_y))
        build = build_call_surface if self._o is _CALL else build_put_surface
        self.spec = spec
        self.surface = build(spec, s_grid, y_grid)
        # zero or one coefficient grid, over every reflected node
        self.regions = build_reflection_regions(spec, self.surface)

    def _level(self, s, y, cheap):
        """Barrier level of the x-line at floats (s, y), re-marched where it is pinned.

        cheap is the interpolated level, ``surface.level_smooth(s, y)``.  A
        line whose interpolated level lies inside it (the branch whose value
        is pinned to the level) is re-marched from its diagonal seed to the
        query point, as a one-lane march of any length, for integration
        rather than interpolation accuracy.  The query point is the lane's
        one node, at its end, so the re-march stays on floats from the seed
        to the level.  Where neither field varies along the slice, the
        level is the seed, checked against the query point's band, and no
        step is taken.  A put line's seed comes from the diagonal curve its
        surface was built from; a seed outside that curve's range raises
        DomainError naming the line, the seed and the range.  Other lines
        take the interpolated level.  A re-march that is cut raises the
        error of its lane's status: StepError, or ConstraintBreach (a level,
        or the seed, outside its band).  The band check is the only check on
        the query's one node, and it keeps the slice ODE's denominator's
        sign.
        """
        spec, o, curve = self.spec, self._o, self.surface._seed_curve
        eps = EDGE_FRACTION * spec.strike
        if not (0.0 <= y < s and s - y <= cheap <= s):
            return cheap
        fixed, t = o.swap(s, y)
        start = fixed + o.direction * eps
        what = f"re-marched {o.kind} boundary of the line s={s:g}, y={y:g}"
        try:
            if o.direction * (t - start) <= 0.0:
                return float(_diagonal_seeds(o, spec, curve, fixed, start))
            level, (kind, at) = _boundary_slice(o, spec, curve, fixed, t)
        except DomainError as e:
            raise DomainError(f"{what}, seeded at {o.moving}={start!r}: {e}") from e
        if kind != "ok":
            raise _cut_error(o, kind, what, f"{o.moving}={at:g}")
        return float(level)

    def _region_coeffs(self, s, y):
        if not self.regions:
            raise DomainError(
                "query falls in a reflected band but no reflected component "
                "was solved; enlarge the lattice"
            )
        return self.regions[0].coeffs_at(s, y)

    def _line(self, s, y, level) -> Line:
        """The record of the x-line at floats (s, y) whose level is known."""
        spec, o = self.spec, self._o
        branch = o.above if level > s else o.below if level < s - y else "direct"
        if branch == "stop":
            return Line(spec, o, s, y, level, branch)
        if s <= 0.0 or y < 0.0 or y > s:
            raise DomainError(f"need 0 <= y < s, got s={s}, y={y}")
        g1, g2 = _roots_along(spec, s, y)
        if branch == "reflect":
            c1, c2 = self._region_coeffs(s, y)
        else:
            c1, c2 = _pinned_pair(g1, g2, level, spec.strike, o.sign, x_end=o.edge(s, y))
        return Line(spec, o, s, y, level, branch, g1, g2, float(c1), float(c2))

    def line(self, s, y) -> Line:
        """The x-line at (s, y), built afresh: at most one re-march, no cache.

        A caller that reads a line more than once keeps the record.  Roots
        exist on the quadrant s > 0, 0 <= y <= s only, so a line outside it
        that is not stopped raises DomainError, and so does a non-finite s
        or y.
        """
        s, y = float(s), float(y)
        if not (math.isfinite(s) and math.isfinite(y)):
            raise DomainError(f"need finite s and y, got s={s}, y={y}")
        return self._line(s, y, self._level(s, y, float(self.surface.level_smooth(s, y))))

    def lines(self, ss, ys) -> Lines:
        """The x-lines at the pairs (ss[k], ys[k]), as one :class:`Lines` batch.

        ss and ys are 1-D (or floats), broadcast together.  Entry k equals
        ``line(ss[k], ys[k])`` bit for bit, and a batch raises what the
        first of its lines to fail would raise in ``line``.  The levels come
        from one array ``level_smooth`` call.  A line whose level lies
        inside it is assembled by ``line``'s own steps: its one-lane
        re-march and its ``_pinned_pair``, on floats.  So, in the same loop
        in index order, is every line the batch cannot take (not finite,
        off the quadrant and not stopped, or reflected with no region),
        which raises ``line``'s error.  Stopped lines take no roots;
        reflected lines take one ``_roots_along`` call and one ``coeffs_at``
        call.
        """
        spec, o = self.spec, self._o
        s, y = (
            np.array(a, dtype=float)
            for a in np.broadcast_arrays(np.atleast_1d(ss), np.atleast_1d(ys))
        )
        if s.ndim != 1:
            raise ValueError(f"need 1-D s and y, got shape {s.shape}")
        level = self.surface.level_smooth(s, y)
        branch = np.where(level > s, o.above, np.where(level < s - y, o.below, "direct"))
        n = s.size
        g1, g2, c1, c2 = np.full(n, np.nan), np.full(n, np.nan), np.zeros(n), np.zeros(n)
        reflect = branch == "reflect"
        finite = np.isfinite(s) & np.isfinite(y)
        off = (branch != "stop") & ((s <= 0.0) | (y < 0.0) | (y > s))
        alone = (branch == "direct") | ~finite | off | (reflect & (not self.regions))
        for k in np.flatnonzero(alone):
            sk, yk = float(s[k]), float(y[k])
            if not finite[k]:
                raise DomainError(f"need finite s and y, got s={sk}, y={yk}")
            ln = self._line(sk, yk, self._level(sk, yk, float(level[k])))
            level[k], branch[k] = ln.level, ln.branch
            g1[k], g2[k], c1[k], c2[k] = ln.g1, ln.g2, ln.c1, ln.c2
        k = np.flatnonzero(reflect)
        if k.size:
            g1[k], g2[k] = _roots_along(spec, s[k], y[k])
            c1[k], c2[k] = self.regions[0].coeffs_at(s[k], y[k])
        return Lines(spec, o, s, y, level, branch, g1, g2, c1, c2)

    def boundary(self, s, y):
        """Barrier level of the x-line at (s, y), re-marched afresh (see _level)."""
        return self.line(s, y).level

    def branch(self, s, y):
        """Which branch the x-line at (s, y) takes: stop, direct, or reflect."""
        return self.line(s, y).branch

    def value_line(self, x, s, y):
        """Value along the x-line at (s, y) for x within [s - y, s].

        Each call assembles the line; to read it again, keep ``line(s, y)``.
        """
        return self.line(s, y).values(x)

    def value(self, x, s, y):
        return self.line(s, y).value(x)


class CallSolution3D(_Solution3D):
    """Assembled perpetual call solution over the (x, s, y) state space."""

    kind = "call"


class PutSolution3D(_Solution3D):
    """Assembled perpetual put solution over the (x, s, y) state space."""

    kind = "put"

"""Coefficient fields on regions where the diagonal reflects the state.

Inside such a region the value on each x-line is C1 x**g1 + C2 x**g2 with the
roots evaluated at that line's (s, y).  Normal reflection at the two moving
edges couples the coefficients through a pair of first-order relations: along
s at the top edge x = s, and along y at the bottom edge x = s - y.  Both are
discretized with midpoint (trapezoidal) differencing between adjacent nodes.

Node (i, j) holds one equation per line family: its row's pair relation to
(i + 1, j) and its column's to (i, j + 1), or, at a line's last active node,
that line's closure; so every nonempty line needs exactly one closure.  A
node's equations then reach only the next front i + j + 1, and the nodes are
solved front by front in descending i + j, each as a 2x2 block in known far
neighbours (block triangular form, after Duff, Erisman & Reid).  The one
closure that reaches back, a column's C2 pin extrapolated from its top two
nodes, joins them into one 4x4 block.  Each front's 2x2 blocks go through
one stacked, pivoted np.linalg.solve.

The equations are built per line family as arrays: the pair relations of
all rows in one batch, then those of all columns, each batch with one
_roots_along call, and the closures by kind.  The edge powers base**g go
through libm's pow, not numpy's SIMD power, whose last bit depends on which
SIMD path the CPU dispatches to; so every entry has the bits of the same
relation evaluated on its own, on any CPU.

A value-matching closure that acts off the node lattice (on a stopping
curve) is imposed through a virtual companion node at the closure position:
there the coefficient pair is fully determined in closed form, because the
solution matches the payoff in both value and slope where a stopping curve
meets a reflecting edge (coefficients._pinned_pair, the rule the direct
branch uses too, with the same dominance clamp).  The line's outermost
lattice node is tied to that anchor by one more midpoint pair, and this
partial pair serves as the line's closure equation.  The closure error then
stays at the scheme's own second order with the same small constants, where
extrapolating lattice values onto the curve would dominate the error budget.
The diagonal C2 pin stays a two-node linear extrapolation: the y-direction
relation degenerates at the diagonal (the log of the edge position
diverges), so no pair can be written there, and the pinned value is zero so
the extrapolation constant is immaterial in the cases that drive accuracy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import isfinite, nan

import numpy as np
# perfbench/tracer.py wraps these names here; the solve calls neither
from scipy.sparse.linalg import lsqr, spsolve  # noqa: F401

from .coefficients import (
    _ORIENT, ModelSpec, _libm_pow, _pinned_pair, _roots_along, check_quadrant, roots_arrays,
)
from .errors import NonConvergence, UnderdeterminedRegion


def _check_closure(closure, line, uses):
    """Raise ValueError for a kind not in uses, a used field not finite, or x_base <= 0."""
    if closure.kind not in uses:
        raise ValueError(f"unknown {line} closure kind {closure.kind!r}")
    for name in uses[closure.kind]:
        v = getattr(closure, name)
        if not isfinite(v) or (name == "x_base" and v <= 0.0):
            need = "finite, positive" if name == "x_base" else "finite"
            raise ValueError(f"{closure.kind} closure needs a {need} {name}, got {v!r}")


@dataclass(frozen=True)
class ColumnClosure:
    """One closure acting on grid column i, at height y_pos.

    kind "c2_zero" pins the extrapolated C2 to zero (used where the column
    runs into the diagonal and the small-x power must drop out); kind "combo"
    anchors the column at a virtual node at height y_pos where the value
    C1 x**g1 + C2 x**g2 equals target at x = x_base with the payoff's slope
    (used where the column runs into a stopping curve).
    """

    i: int
    kind: str
    y_pos: float
    x_base: float = nan
    target: float = nan

    def __post_init__(self):
        combo = ("y_pos", "x_base", "target")
        _check_closure(self, "column", {"c2_zero": ("y_pos",), "combo": combo})


@dataclass(frozen=True)
class RowClosure:
    """One closure acting on grid row j.

    kind "c1_zero" pins C1 at the row's last node (used at a far truncation
    edge where the growing power must vanish); kind "combo" anchors the row
    at a virtual node at s_pos where the value equals target at x = x_base
    with the payoff's slope (used where the row runs into a stopping curve).
    """

    j: int
    kind: str
    s_pos: float = nan
    x_base: float = nan
    target: float = nan

    def __post_init__(self):
        _check_closure(self, "row", {"c1_zero": (), "combo": ("s_pos", "x_base", "target")})


@dataclass
class RegionSpec:
    """A reflection region: grids, active mask, and one closure per line."""

    s_grid: np.ndarray
    y_grid: np.ndarray
    active: np.ndarray
    column_closures: list = field(default_factory=list)
    row_closures: list = field(default_factory=list)

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.y_grid = np.asarray(self.y_grid, dtype=float)
        self.active = np.asarray(self.active, dtype=bool)
        if self.active.shape != (self.s_grid.size, self.y_grid.size):
            raise ValueError("active mask must be (len(s_grid), len(y_grid))")
        if np.any(np.diff(self.s_grid) <= 0) or np.any(np.diff(self.y_grid) <= 0):
            raise ValueError("grids must be strictly increasing")


def _bilinear(s_grid, y_grid, field):
    """Bilinear lookup(s, y) of a field on an (s, y) lattice, clamped to its box.

    Counting the interior nodes below a clamped query gives its cell, already
    clamped to 0 .. n - 2.  The field is read through a flat C-order copy,
    where node (i, j) sits at i*n + j.

    Two floats take the same clamp, cell and blend in float arithmetic, with
    bisect over memoryviews of the same arrays, and give the float of the
    array lookup bit for bit: on one point numpy's fixed cost is most of the
    lookup (about 14 us on a one-element array, 1 us on floats).
    """
    n = len(y_grid)
    flat = np.ascontiguousarray(field).ravel()
    (s_lo, s_hi, s_in, ds), (y_lo, y_hi, y_in, dy) = (
        (float(g[0]), float(g[-1]), g[1:-1], np.diff(g)) for g in (s_grid, y_grid)
    )
    s_inv, y_inv, sv, dsv, yv, dyv, fv = (
        memoryview(np.ascontiguousarray(a, dtype=float))
        for a in (s_in, y_in, s_grid, ds, y_grid, dy, flat)
    )

    def blend(s, y, i, j, s_grid, ds, y_grid, dy, flat):
        # the one blend: floats read it off the memoryviews, arrays off numpy
        ts = (s - s_grid[i]) / ds[i]
        ty = (y - y_grid[j]) / dy[j]
        rs, ry = 1.0 - ts, 1.0 - ty
        k = i * n + j
        return (
            rs * ry * flat[k]
            + ts * ry * flat[k + n]
            + rs * ty * flat[k + 1]
            + ts * ty * flat[k + (n + 1)]
        )

    def lookup(s, y):
        if isinstance(s, float) and isinstance(y, float):
            # np.maximum and np.minimum keep NaN and give the bound on a tie
            s = s_lo if s <= s_lo else s_hi if s >= s_hi else s
            y = y_lo if y <= y_lo else y_hi if y >= y_hi else y
            i, j = bisect_left(s_inv, s), bisect_left(y_inv, y)
            return blend(s, y, i, j, sv, dsv, yv, dyv, fv)
        s = np.minimum(np.maximum(np.asarray(s, dtype=float), s_lo), s_hi)
        y = np.minimum(np.maximum(np.asarray(y, dtype=float), y_lo), y_hi)
        i, j = s_in.searchsorted(s), y_in.searchsorted(y)
        return blend(s, y, i, j, s_grid, ds, y_grid, dy, flat)

    return lookup


@dataclass
class CoefficientGrid:
    """Solved coefficients on a region; inactive nodes hold NaN."""

    s_grid: np.ndarray
    y_grid: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        self._lookups = None

    def coeffs_at(self, s, y):
        """Bilinear coefficients at (s, y), clamped to the grid box.

        Inactive nodes are padded by nearest active values first, so queries
        in cells that straddle the region edge stay finite.  The padded
        lattices and their lookups are built on the first call.
        """
        if self._lookups is None:
            self._lookups = [
                _bilinear(self.s_grid, self.y_grid, _fill_inactive(c, self.active))
                for c in (self.C1, self.C2)
            ]
        c1, c2 = self._lookups
        return c1(s, y), c2(s, y)


def _fill_inactive(a, active):
    """Pad NaN nodes by the nearest active value, first along y then along s.

    Along y, a column's nodes before its first active node take that node's
    value and those after its last take that one's; a hole between two
    active nodes is filled linearly in the node index, by the arithmetic of
    ``np.interp``.  A column with no active node is left as it is.  Along
    s, each row's non-finite ends then take the nearest finite value.
    """
    a = np.asarray(a, dtype=float)
    n_s, n_y = a.shape
    k = np.arange(n_y)
    rows = np.arange(n_s)[:, None]
    # nearest active node at or below and at or above each node; past a
    # column's last active node (or before its first) both are that node
    below = np.maximum.accumulate(np.where(active, k, -1), axis=1)
    above = np.minimum.accumulate(np.where(active, k, n_y)[:, ::-1], axis=1)[:, ::-1]
    lo = np.clip(np.where(below < 0, above, below), 0, n_y - 1)
    hi = np.clip(np.where(above == n_y, below, above), 0, n_y - 1)
    v_lo, v_hi = a[rows, lo], a[rows, hi]
    hole = lo != hi
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (v_hi - v_lo) / np.where(hole, hi - lo, 1)
        fill = slope * (k - lo) + v_lo
        # np.interp's retry from the other end when the first try is NaN
        fill = np.where(np.isnan(fill), slope * (k - hi) + v_hi, fill)
        fill = np.where(np.isnan(fill) & (v_lo == v_hi), v_lo, fill)
    col = np.where(active.any(axis=1)[:, None], np.where(hole, fill, v_lo), a)
    good = np.isfinite(col)
    first = np.argmax(good, axis=0)
    last = n_s - 1 - np.argmax(good[::-1], axis=0)
    padded = col[np.clip(rows, first, last), k]
    out = np.empty_like(a)  # in a's memory order
    out[...] = np.where(good.any(axis=0), padded, col)
    return out


def _point(along_s, fixed, pos):
    """(s, y) of a position along a line, given the line's fixed coordinate."""
    return (pos, fixed) if along_s else (fixed, pos)


def _pair_entries(spec: ModelSpec, s, y, along_s, h):
    """Entries of midpoint pair relations between line neighbours h apart.

    Each relation sits at a midpoint (s, y) of a line along s (reflecting top
    edge x = s) or along y (bottom edge x = s - y); s, y and h are 1-D arrays
    with one entry per relation.  Returns, for C1 and then C2, the edge power
    p and the factors of the nearer and the farther node, as arrays; a
    node's entry is p times its factor.
    """
    base = s if along_s else s - y
    bad = np.flatnonzero(base <= 0)
    if bad.size:
        k = bad[0]
        raise UnderdeterminedRegion(
            f"pair relation at s={s[k]:g}, y={y[k]:g} straddles the diagonal"
        )
    check_quadrant(s, y)
    g1, g2, dg1, dg2 = _roots_along(spec, s, y, "s" if along_s else "y")
    lb = np.log(base)
    out = []
    for g, dg in zip((g1, g2), (dg1, dg2)):
        half = 0.5 * dg * lb
        out.append((_libm_pow(base, g), -1.0 / h + half, 1.0 / h + half))
    return out


def _pair_block(spec: ModelSpec, family):
    """Pair relations of one line family, one per pair of active neighbours.

    Returns (node, own, far, other, rhs): each relation sits at its near
    node, with its entries on that node's (C1, C2) and on those of its far
    neighbour, and a zero right-hand side.
    """
    along_s, act, rnk, pos, fix = family
    # lines are contiguous, so the far neighbour of position a is a + 1, and
    # nonzero walks the lines in order and each line from its start
    k, a = np.nonzero(act[:, :-1] & act[:, 1:])
    b = a + 1
    mid = 0.5 * (pos[a] + pos[b])
    (p1, near1, far1), (p2, near2, far2) = _pair_entries(
        spec, *_point(along_s, fix[k], mid), along_s, pos[b] - pos[a]
    )
    own = np.stack([p1 * near1, p2 * near2], axis=1)
    other = np.stack([p1 * far1, p2 * far2], axis=1)
    return rnk[k, a], own, rnk[k, b], other, np.zeros(k.size)


def _closure_block(spec: ModelSpec, family, closures):
    """Closure equations of one line family, one per closure, in list order.

    Each sits at its line's last active node.  Returns (node, own, far,
    other, rhs) as :func:`_pair_block` does; only a c2_zero pin over two or
    more nodes reaches another node, the one below, and the rest name -1.
    """
    along_s, act, rnk, pos, fix = family
    kind = np.array([c.kind for c in closures], dtype=object)
    k = np.array([c.j if along_s else c.i for c in closures], dtype=int)
    at = np.array([c.s_pos if along_s else c.y_pos for c in closures], dtype=float)
    x_base = np.array([c.x_base for c in closures], dtype=float)
    target = np.array([c.target for c in closures], dtype=float)
    size = act[k].sum(axis=1)
    last = np.argmax(act[k], axis=1) + size - 1
    own, other = np.zeros((2, k.size, 2))
    far = np.full(k.size, -1)
    rhs = np.zeros(k.size)
    own[kind == "c1_zero", 0] = own[kind == "c2_zero", 1] = 1.0
    # the C2 pin over two or more nodes: the line through the last two
    # nodes' C2 put onto the closure position
    two = np.flatnonzero((kind == "c2_zero") & (size >= 2))
    prev = last[two] - 1
    far[two] = rnk[k[two], prev]
    own[two, 1] = (at[two] - pos[prev]) / (pos[last[two]] - pos[prev])
    other[two, 1] = 1.0 - own[two, 1]

    combo = np.flatnonzero(kind == "combo")
    s, y = _point(along_s, fix[k[combo]], at[combo])
    check_quadrant(s, y)
    g1, g2 = _roots_along(spec, s, y)
    end = pos[last[combo]]
    h = at[combo] - end
    tie = ~(np.abs(h) <= 1e-9 * (np.abs(end) + pos[-1] - pos[0]))
    # a closure at the last node pins the value there directly
    on = combo[~tie]
    own[on, 0] = _libm_pow(x_base[on], g1[~tie])
    own[on, 1] = _libm_pow(x_base[on], g2[~tie])
    rhs[on] = target[on]
    # otherwise the anchor pair at the closure position is tied to the last
    # node by one more midpoint pair
    off = combo[tie]
    o = _ORIENT[spec.payoff_kind]
    anchor = np.array(
        [
            _pinned_pair(a, b, xb, spec.strike, o.sign, t, x_end=e)
            for a, b, xb, t, e in zip(
                g1[tie].tolist(), g2[tie].tolist(), x_base[off].tolist(),
                target[off].tolist(), o.edge(s, y)[tie].tolist(),
            )
        ],
        dtype=float,
    ).reshape(-1, 2)
    (p1, near1, far1), (p2, near2, far2) = _pair_entries(
        spec, *_point(along_s, fix[k[off]], 0.5 * (end[tie] + at[off])), along_s, h[tie]
    )
    own[off] = np.stack([p1 * near1, p2 * near2], axis=1)
    # summed from +0.0, so two -0.0 terms leave no -0.0 right-hand side
    rhs[off] = -(0.0 + anchor[:, 0] * p1 * far1 + anchor[:, 1] * p2 * far2)
    return rnk[k, last], own, far, other, rhs


def _node_equations(spec: ModelSpec, region: RegionSpec):
    """Each active node's two equations, its row's (along s) then its column's.

    With the nodes ranked s major, equation e of node n has the entries
    own[n, e] on its (C1, C2), other[n, e] on those of node far[n, e] (-1
    for none) and right-hand side rhs[n, e].  Row pair relations are built
    first, then column ones, column closures and row closures.
    """
    active = region.active
    n = int(active.sum())
    rank = -np.ones(active.shape, dtype=int)
    rank[active] = np.arange(n)
    # rows run along s at fixed y, columns along y at fixed s; each family
    # as (along s?, activity and node ranks indexed [line, position], the
    # grid the lines run along, the grid of their fixed coordinate)
    rows = (True, active.T, rank.T, region.s_grid, region.y_grid)
    cols = (False, active, rank, region.y_grid, region.s_grid)
    own, other = np.zeros((2, n, 2, 2))
    far = np.full((n, 2), -1)
    rhs = np.zeros((n, 2))
    for e, (node, *eqs) in (
        (0, _pair_block(spec, rows)),
        (1, _pair_block(spec, cols)),
        (1, _closure_block(spec, cols, region.column_closures)),
        (0, _closure_block(spec, rows, region.row_closures)),
    ):
        own[node, e], far[node, e], other[node, e], rhs[node, e] = eqs
    return own, far, other, rhs


def solve_reflection_region(spec: ModelSpec, region: RegionSpec) -> CoefficientGrid:
    """Solve the coupled reflection relations on one region.

    Every nonempty column of the active mask must be matched by exactly one
    column closure and every nonempty row by exactly one row closure; any
    mismatch, or a non-contiguous row or column, raises UnderdeterminedRegion.
    A block that is singular or leaves its coefficients non-finite raises
    NonConvergence naming its node.

    A 4x4 block (a C2 pin's two nodes) is solved after the 2x2 blocks of
    its top node's front, one of which is its lower node's row neighbour,
    and after the blocks of that front in the columns to its right: the next
    column's block, when its top is a node lower, holds that neighbour.
    """
    s_grid, y_grid, active = region.s_grid, region.y_grid, region.active
    n = int(active.sum())
    if n == 0:
        raise UnderdeterminedRegion("region has no active nodes")

    for name, lines, closures in (
        ("column", active, [c.i for c in region.column_closures]),
        ("row", active.T, [c.j for c in region.row_closures]),
    ):
        # a line is contiguous when at most one run of active nodes starts on it
        starts = lines[:, 0] + np.sum(lines[:, 1:] & ~lines[:, :-1], axis=1)
        split = np.flatnonzero(starts > 1)
        if split.size:
            raise UnderdeterminedRegion(
                f"active nodes in {name} {split[0]} are not contiguous"
            )
        nonempty = set(np.flatnonzero(starts).tolist())
        if set(closures) != nonempty or len(closures) != len(nonempty):
            raise UnderdeterminedRegion(
                f"need exactly one closure per nonempty {name}; have closures "
                f"for {sorted(set(closures))} vs {name}s {sorted(nonempty)}"
            )

    own, far, other, rhs = _node_equations(spec, region)
    i, j = np.nonzero(active)
    # the pin is the one equation that reaches a lower rank; its two nodes
    # solve at the top's front after the 2x2 blocks, each such block at its
    # own stage -i, since the next column's may hold a row neighbour
    top = np.flatnonzero((far[:, 1] >= 0) & (far[:, 1] < np.arange(n)))
    front, stage = i + j, np.full(n, -s_grid.size)
    front[top - 1], stage[top - 1], stage[top] = front[top], -i[top], -i[top]
    order = np.lexsort((j, i, stage, -front))
    # the sweep keeps the nodes in solve order; a far node -1 reads x[n] = 0,
    # and so does the coupling within a 4x4 block
    at = np.full(n + 1, n)
    at[order] = np.arange(n)
    own, far, other, rhs = own[order], at[far[order]], other[order], rhs[order]
    front, stage = front[order], stage[order]
    paired = stage > -s_grid.size
    far[paired, 1] = n
    cut = (np.flatnonzero(np.diff(front) | np.diff(stage)) + 1).tolist()
    x = np.zeros((n + 1, 2))

    def failed(p):
        s, y = s_grid[i[order[p]]], y_grid[j[order[p]]]
        why = "is singular or not finite"
        return NonConvergence(f"reflection block at s={s:g}, y={y:g} {why}")

    with np.errstate(all="ignore"):
        for lo, hi in zip([0] + cut, cut + [n]):
            mats = own[lo:hi]
            if paired[lo]:  # a 4x4 block: the lower node, then the top
                mats = np.zeros((1, 4, 4))
                mats[0, :2, :2], mats[0, 2:, 2:] = own[lo], own[lo + 1]
                mats[0, 1, 2:], mats[0, 3, :2] = other[lo, 1], other[lo + 1, 1]
            b = rhs[lo:hi] - (other[lo:hi] * x[far[lo:hi]]).sum(axis=2)
            try:
                x[lo:hi] = np.linalg.solve(mats, b.reshape(len(mats), -1, 1)).reshape(-1, 2)
            except np.linalg.LinAlgError:
                k = int(np.argmin(np.abs(np.linalg.det(mats)) > 0))
                raise failed(lo + k * (hi - lo) // len(mats))
    if not np.isfinite(x).all():  # the first non-finite node in solve order
        raise failed(int(np.argmin(np.isfinite(x).all(axis=1))))
    C1, C2 = np.full((2,) + active.shape, np.nan)
    C1[i[order], j[order]], C2[i[order], j[order]] = x[:n].T
    return CoefficientGrid(s_grid, y_grid, C1, C2, active)


def residual_grids(spec: ModelSpec, grid: CoefficientGrid):
    """Per-node central-difference residuals of both reflection relations.

    Returns (res_c, res_d) arrays shaped like the grid: res_c is the relation
    along s, res_d the relation along y (depth direction).  Each entry is
    normalized by the larger of the two power-term magnitudes at that node.
    Only fully interior nodes are evaluated (all four neighbors active): line
    ends are governed by closure data rather than by the relations, so
    residuals there would measure the closures, not convergence.  Every
    other node, and every node with s - y <= 0, holds NaN.
    """
    s_grid, y_grid, active = grid.s_grid, grid.y_grid, grid.active
    res_c = np.full((s_grid.size, y_grid.size), np.nan)
    res_d = np.full((s_grid.size, y_grid.size), np.nan)
    inner = np.zeros(res_c.shape, dtype=bool)
    inner[1:-1, 1:-1] = (
        active[1:-1, 1:-1]
        & active[:-2, 1:-1]
        & active[2:, 1:-1]
        & active[1:-1, :-2]
        & active[1:-1, 2:]
    )
    i, j = np.nonzero(inner)
    keep = s_grid[i] - y_grid[j] > 0
    i, j = i[keep], j[keep]
    s, y = s_grid[i], y_grid[j]
    g1, g2, dg1s, dg2s, dg1y, dg2y = roots_arrays(spec, s, y)
    ds = s_grid[i + 1] - s_grid[i - 1]
    dy = y_grid[j + 1] - y_grid[j - 1]
    floor = 1e-300
    for res, edge, lo, hi, step, slopes in (
        (res_c, s, (i - 1, j), (i + 1, j), ds, (dg1s, dg2s)),
        (res_d, s - y, (i, j - 1), (i, j + 1), dy, (dg1y, dg2y)),
    ):
        log_edge = np.log(edge)
        r = 0.0
        mag = floor
        for g, dg, C in zip((g1, g2), slopes, (grid.C1, grid.C2)):
            p = _libm_pow(edge, g)
            r = r + p * ((C[hi] - C[lo]) / step + C[i, j] * dg * log_edge)
            # fmax: a NaN product does not replace the running maximum
            mag = np.fmax(mag, np.abs(p * C[i, j]))
        res[i, j] = np.abs(r) / mag
    return res_c, res_d


def pde_residuals(spec: ModelSpec, grid: CoefficientGrid):
    """Maximum residuals of the two reflection relations over the grid.

    Returns (max residual along s, max residual along y); a direction with no
    testable interior nodes reports 0.
    """
    res_c, res_d = residual_grids(spec, grid)
    res_s = float(np.nanmax(res_c)) if np.any(np.isfinite(res_c)) else 0.0
    res_y = float(np.nanmax(res_d)) if np.any(np.isfinite(res_d)) else 0.0
    return res_s, res_y

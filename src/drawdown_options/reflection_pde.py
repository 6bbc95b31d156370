"""Coefficient fields on regions where the diagonal reflects the state.

Inside such a region the value on each x-line is C1 x**g1 + C2 x**g2 with the
roots evaluated at that line's (s, y).  Normal reflection at the two moving
edges couples the coefficients through a pair of first-order relations: along
s at the top edge x = s, and along y at the bottom edge x = s - y.  Both are
discretized with midpoint (trapezoidal) differencing between adjacent nodes.

Node (i, j) holds one equation per line family: its row's pair relation to
(i + 1, j) and its column's to (i, j + 1), or, at the last node of a run of
active nodes along a line, that run's closure; so every run needs exactly
one closure, and one system covers every active node.  A node's equations
then reach only the next front i + j + 1, and the nodes are solved front by
front in descending i + j, each as a 2x2 block in known far neighbours
(block triangular form, after Duff, Erisman & Reid).  The one closure that
reaches back, a column's C2 pin extrapolated from its top two nodes, joins
them into one 4x4 block.  Each front's 2x2 blocks go through one stacked,
pivoted LAPACK solve, block by block.

The sweep order depends on the lattice shape and the pins alone, so the
nodes are ranked in it first, and every equation is written at its node's
sweep position as it is built.  The equations are built per line family as
arrays: the pair relations of all rows in one batch, then those of all
columns, each batch with one _roots_along call, and the closures by kind,
every combo anchor of a family pinned at once.  The edge powers base**g go
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
from operator import attrgetter

import numpy as np
from numpy.linalg._umath_linalg import solve as _lapack_solve

from .coefficients import (
    _ORIENT, ModelSpec, _libm_pow, _pinned_pair, _roots_along, check_quadrant, roots_arrays,
)
from .errors import NonConvergence, UnderdeterminedRegion


def __getattr__(name):
    """scipy's lsqr and spsolve, loaded when first read (PEP 562).

    perfbench/tracer.py wraps these names here; the solve calls neither, so
    an import of the package loads no scipy.  Delete this with ROADMAP
    item 9.
    """
    if name in ("lsqr", "spsolve"):
        from scipy.sparse import linalg

        return getattr(linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """A reflection region: grids, active mask, and one closure per run of each line."""

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


def _run_ends(act):
    """Mask of the last node of every run of active nodes along axis 1 of act."""
    ends = act.copy()
    ends[:, :-1] &= ~act[:, 1:]
    return ends


def _closure_table(closures, along_s, act):
    """A family's closures as arrays, in list order.

    Returns kind, line index k, position, x_base and target, and the last
    node of the run each closure closes: a line's closures, in list order,
    close its runs of active nodes in ascending order, so the run ends in
    line order, each line's ascending, go to the closures taken stably by
    line.  act is indexed [line, position along the line].
    """
    line, pos = ("j", "s_pos") if along_s else ("i", "y_pos")
    fields = zip(*map(attrgetter("kind", line, pos, "x_base", "target"), closures))
    kind, k, at, x_base, target = (
        np.array(f, dtype=d) for f, d in zip(fields, (str, int, float, float, float))
    )
    last = np.empty(k.size, dtype=int)
    last[np.argsort(k, kind="stable")] = np.nonzero(_run_ends(act))[1]
    return kind, k, at, x_base, target, last


def _pinned_below(kind, k, last, act):
    """Mask of the C2 pins over two or more nodes: the closures that reach back."""
    return (kind == "c2_zero") & (last > 0) & act[k, last - 1]


def _pair_block(spec: ModelSpec, family, eqs, e):
    """Write equation e of each node with an active far neighbour: its pair relation.

    Each relation sits at its near node, with its entries on that node's
    (C1, C2) and on those of its far neighbour, and a zero right-hand side;
    eqs = (own, far, other, rhs) as :func:`_node_equations` returns them.
    """
    along_s, act, rnk, pos, fix = family
    own, far, other, _ = eqs
    # a pair joins the neighbours a and a + 1 of one run, and nonzero walks
    # the lines in order and each line from its start
    k, a = np.nonzero(act[:, :-1] & act[:, 1:])
    b = a + 1
    mid = 0.5 * (pos[a] + pos[b])
    (p1, near1, far1), (p2, near2, far2) = _pair_entries(
        spec, *_point(along_s, fix[k], mid), along_s, pos[b] - pos[a]
    )
    node = rnk[k, a]
    own[node, e, 0], own[node, e, 1] = p1 * near1, p2 * near2
    other[node, e, 0], other[node, e, 1] = p1 * far1, p2 * far2
    far[node, e] = rnk[k, b]


def _closure_block(spec: ModelSpec, family, closures, eqs, e):
    """Write equation e of each run's last node: the closure of its run.

    See :func:`_closure_table` for which closure closes which run.  Only a
    c2_zero pin over two or more nodes reaches another node, the one below.
    """
    along_s, act, rnk, pos, fix = family
    own, far, other, rhs = eqs
    kind, k, at, x_base, target, last = _closure_table(closures, along_s, act)
    node = rnk[k, last]
    own[node[kind == "c1_zero"], e, 0] = own[node[kind == "c2_zero"], e, 1] = 1.0
    # the C2 pin over two or more nodes: the line through the run's last two
    # nodes' C2 put onto the closure position
    two = np.flatnonzero(_pinned_below(kind, k, last, act))
    prev = last[two] - 1
    far[node[two], e] = rnk[k[two], prev]
    w = (at[two] - pos[prev]) / (pos[last[two]] - pos[prev])
    own[node[two], e, 1], other[node[two], e, 1] = w, 1.0 - w

    combo = np.flatnonzero(kind == "combo")
    s, y = _point(along_s, fix[k[combo]], at[combo])
    check_quadrant(s, y)
    g1, g2 = _roots_along(spec, s, y)
    end = pos[last[combo]]
    h = at[combo] - end
    tie = ~(np.abs(h) <= 1e-9 * (np.abs(end) + pos[-1] - pos[0]))
    # a closure at the last node pins the value there directly
    on = node[combo[~tie]]
    own[on, e, 0] = _libm_pow(x_base[combo[~tie]], g1[~tie])
    own[on, e, 1] = _libm_pow(x_base[combo[~tie]], g2[~tie])
    rhs[on, e] = target[combo[~tie]]
    # otherwise the anchor pair at the closure position is tied to the last
    # node by one more midpoint pair
    off = combo[tie]
    o = _ORIENT[spec.payoff_kind]
    a1, a2 = _pinned_pair(
        g1[tie], g2[tie], x_base[off], spec.strike, o.sign, target[off], x_end=o.edge(s, y)[tie]
    )
    (p1, near1, far1), (p2, near2, far2) = _pair_entries(
        spec, *_point(along_s, fix[k[off]], 0.5 * (end[tie] + at[off])), along_s, h[tie]
    )
    own[node[off], e, 0], own[node[off], e, 1] = p1 * near1, p2 * near2
    # summed from +0.0, so two -0.0 terms leave no -0.0 right-hand side
    rhs[node[off], e] = -(0.0 + a1 * p1 * far1 + a2 * p2 * far2)


def _node_equations(spec: ModelSpec, region: RegionSpec, rank=None):
    """Each active node's two equations, its row's (along s) then its column's.

    rank[i, j] is the position of node (i, j) in the output, -1 off the
    region; by default the nodes are ranked s major.  Equation e of the
    node at position n has the entries own[n, e] on its (C1, C2), other[n,
    e] on those of the node at position far[n, e] (-1 for none) and
    right-hand side rhs[n, e].  Each block writes its equations at their
    nodes' positions: row pair relations first, then column ones, column
    closures and row closures, so the first bad relation raises in that
    order.
    """
    active = region.active
    n = int(active.sum())
    if rank is None:
        rank = np.full(active.shape, -1)
        rank[active] = np.arange(n)
    # rows run along s at fixed y, columns along y at fixed s; each family
    # as (along s?, activity and node ranks indexed [line, position], the
    # grid the lines run along, the grid of their fixed coordinate)
    rows = (True, active.T, rank.T, region.s_grid, region.y_grid)
    cols = (False, active, rank, region.y_grid, region.s_grid)
    eqs = np.zeros((n, 2, 2)), np.full((n, 2), -1), np.zeros((n, 2, 2)), np.zeros((n, 2))
    _pair_block(spec, rows, eqs, 0)
    _pair_block(spec, cols, eqs, 1)
    _closure_block(spec, cols, region.column_closures, eqs, 1)
    _closure_block(spec, rows, region.row_closures, eqs, 0)
    return eqs


def _sweep_order(region: RegionSpec):
    """Each active node's position in the sweep, and the sweep's blocks.

    The fronts i + j run in descending order, and a front's 2x2 blocks go
    first, by ascending i: that order depends on the lattice shape alone.
    A C2 pin over two or more nodes is the one equation that reaches back;
    its lower node moves up to its top node's front, and the two form a 4x4
    block, solved after that front's 2x2 blocks (one of them is the lower
    node's row neighbour) and after the front's 4x4 blocks in the columns to
    its right (the next column's block, when its top is a node lower, holds
    that neighbour): the lower node, then the top.  Returns the rank
    lattice of :func:`_node_equations` and the blocks as Python tuples (lo,
    hi, is it 4x4?) of positions.
    """
    active = region.active
    n_s, n_y = active.shape
    i, j = np.nonzero(active)
    kind, k, _, _, _, last = _closure_table(region.column_closures, False, active)
    pin = _pinned_below(kind, k, last, active)
    # the s-major index of each pin's top node; its lower node is the one before
    top = np.searchsorted(i * n_y + j, k[pin] * n_y + last[pin])
    front, slot = i + j, i.copy()
    slot[top] = 3 * n_s - 1 - 2 * i[top]
    slot[top - 1], front[top - 1] = slot[top] - 1, front[top]
    key = (n_s + n_y - 2 - front) * (3 * n_s) + slot
    order = np.argsort(key)
    rank = np.full(active.shape, -1)
    rank[i[order], j[order]] = np.arange(i.size)
    key = key[order]
    # a block starts at each new front and at each pin's lower node
    front, slot = np.divmod(key, 3 * n_s)
    lower = (slot >= n_s) & (slot % 2 == n_s % 2)
    start = lower.copy()
    start[0], start[1:] = True, lower[1:] | (front[1:] != front[:-1])
    starts = np.flatnonzero(start)
    bounds = starts.tolist() + [i.size]
    blocks = list(zip(bounds[:-1], bounds[1:], lower[starts].tolist()))
    return rank, blocks


def solve_reflection_region(spec: ModelSpec, region: RegionSpec) -> CoefficientGrid:
    """Solve the coupled reflection relations on every active node at once.

    Every run of active nodes along a column must be matched by exactly one
    column closure and every run along a row by exactly one row closure
    (see :func:`_closure_table` for which closure closes which run); any
    mismatch raises UnderdeterminedRegion naming the first line off.  A
    block that is singular or leaves its coefficients non-finite raises
    NonConvergence naming its node: the first singular block in solve
    order, else the first node whose coefficients are not finite.

    The equations are built at their sweep positions (:func:`_sweep_order`),
    and the blocks are solved in that order.  Each block's stack goes
    through numpy's LAPACK gufunc behind np.linalg.solve
    (``numpy.linalg._umath_linalg.solve``, the same dgesv and the same
    bits), called directly: its Python wrapper's checks cost more than most
    fronts' solves.  A singular block leaves NaN there instead of raising,
    so a failed sweep looks for the first singular block afterwards.
    """
    s_grid, y_grid, active = region.s_grid, region.y_grid, region.active
    n = int(active.sum())
    if n == 0:
        raise UnderdeterminedRegion("region has no active nodes")

    for name, lines, closures in (
        ("column", active, [c.i for c in region.column_closures]),
        ("row", active.T, [c.j for c in region.row_closures]),
    ):
        runs = _run_ends(lines).sum(axis=1)
        k = np.array(closures, dtype=int)
        off = k[(k < 0) | (k >= runs.size)]
        if off.size:
            raise UnderdeterminedRegion(f"a {name} closure names {name} {off[0]}, off the grid")
        have = np.bincount(k, minlength=runs.size)
        wrong = np.flatnonzero(have != runs)
        if wrong.size:
            m = wrong[0]
            raise UnderdeterminedRegion(
                f"{name} {m}: {runs[m]} runs of active nodes, {have[m]} closures; "
                "need exactly one closure per run"
            )

    rank, blocks = _sweep_order(region)
    own, far, other, rhs = _node_equations(spec, region, rank)

    def block(lo, hi, four):
        if not four:
            return own[lo:hi]
        # the lower node, then the top: each one's column equation reaches
        # the other
        mats = np.zeros((1, 4, 4))
        mats[0, :2, :2], mats[0, 2:, 2:] = own[lo], own[lo + 1]
        mats[0, 1, 2:], mats[0, 3, :2] = other[lo, 1], other[lo + 1, 1]
        return mats

    # a far node -1 reads x[n] = 0, and so does the coupling within a 4x4
    # block, whose nodes are still 0 when it is solved
    x = np.zeros((n + 1, 2))
    with np.errstate(all="ignore"):
        for lo, hi, four in blocks:
            b = rhs[lo:hi] - np.add.reduce(other[lo:hi] * x.take(far[lo:hi], axis=0), 2)
            shape = (1, 4, 1) if four else (hi - lo, 2, 1)
            _lapack_solve(
                block(lo, hi, four), b.reshape(shape), out=x[lo:hi].reshape(shape),
                signature="dd->d",
            )

    def failed(p):
        (i,), (j,) = np.nonzero(rank == p)
        why = "is singular or not finite"
        return NonConvergence(f"reflection block at s={s_grid[i]:g}, y={y_grid[j]:g} {why}")

    if not np.isfinite(x).all():
        # where np.linalg.solve would have raised, in solve order
        for lo, hi, four in blocks:
            mats = block(lo, hi, four)
            try:
                np.linalg.solve(mats, np.zeros(mats.shape[:-1] + (1,)))
            except np.linalg.LinAlgError:
                k = int(np.argmin(np.abs(np.linalg.det(mats)) > 0))
                raise failed(lo + k * (hi - lo) // len(mats)) from None
        raise failed(int(np.argmin(np.isfinite(x).all(axis=1))))
    C1, C2 = np.full((2,) + active.shape, np.nan)
    C1[active], C2[active] = x[rank[active]].T
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

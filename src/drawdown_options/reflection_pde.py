"""Coefficient fields on regions where the diagonal reflects the state.

Inside such a region the value on each x-line is C1 x**g1 + C2 x**g2 with the
roots evaluated at that line's (s, y).  Normal reflection at the two moving
edges couples the coefficients through a pair of first-order relations: along
s at the top edge x = s, and along y at the bottom edge x = s - y.  Both are
discretized with midpoint (trapezoidal) differencing between adjacent nodes,
assembled into one sparse linear system over all active nodes, and solved
directly, by a sparse LU in the lattice order of the unknowns.

The system is built per line family as arrays: the pair relations of all
rows in one batch, then those of all columns, each batch with one
roots_arrays call, and the closures by kind.  The edge powers base**g go
through libm's pow, not numpy's SIMD power, whose last bit depends on which
SIMD path the CPU dispatches to; so every entry has the bits of the same
relation evaluated on its own, on any CPU.

Each nonempty grid row and column contributes one fewer pair relation than it
has nodes, so the system closes exactly when every nonempty column carries one
closure condition and every nonempty row carries one.  A value-matching
closure that acts off the node lattice (on a stopping curve) is imposed
through a virtual companion node at the closure position: there the
coefficient pair is fully determined in closed form, because the solution
matches the payoff in both value and slope where a stopping curve meets a
reflecting edge (coefficients._pinned_pair, the rule the direct branch
uses too, with the same dominance clamp).  The line's outermost lattice
node is tied to that anchor by one more midpoint pair, and this partial
pair serves as the line's closure equation.  The closure error then stays at the scheme's own second order with
the same small constants, where extrapolating lattice values onto the curve
would dominate the error budget.  The diagonal C2 pin stays a two-node linear
extrapolation: the y-direction relation degenerates at the diagonal (the
log of the edge position diverges), so no pair can be written there, and the
pinned value is zero so the extrapolation constant is immaterial in the cases
that drive accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isnan, nan

import numpy as np
from scipy import sparse
# perfbench/tracer.py wraps lsqr here to count least-squares retries; the
# solve makes none
from scipy.sparse.linalg import lsqr, spsolve  # noqa: F401

from .coefficients import _ORIENT, ModelSpec, _libm_pow, _pinned_pair, roots_arrays
from .errors import NonConvergence, UnderdeterminedRegion


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
        if self.kind not in ("c2_zero", "combo"):
            raise ValueError(f"unknown column closure kind {self.kind!r}")
        if self.kind == "combo" and (isnan(self.x_base) or isnan(self.target)):
            raise ValueError("combo closure needs x_base and target")


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
        if self.kind not in ("c1_zero", "combo"):
            raise ValueError(f"unknown row closure kind {self.kind!r}")
        if self.kind == "combo" and (
            isnan(self.s_pos) or isnan(self.x_base) or isnan(self.target)
        ):
            raise ValueError("combo closure needs s_pos, x_base and target")


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
    """
    n = len(y_grid)
    flat = np.ascontiguousarray(field).ravel()
    (s_lo, s_hi, s_in, ds), (y_lo, y_hi, y_in, dy) = (
        (float(g[0]), float(g[-1]), g[1:-1], np.diff(g)) for g in (s_grid, y_grid)
    )

    def lookup(s, y):
        s = np.minimum(np.maximum(np.asarray(s, dtype=float), s_lo), s_hi)
        y = np.minimum(np.maximum(np.asarray(y, dtype=float), y_lo), y_hi)
        i = s_in.searchsorted(s)
        j = y_in.searchsorted(y)
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
        filled = [_fill_inactive(c, self.active) for c in (self.C1, self.C2)]
        self._lookups = [_bilinear(self.s_grid, self.y_grid, f) for f in filled]

    def coeffs_at(self, s, y):
        """Bilinear coefficients at (s, y), clamped to the grid box.

        Inactive nodes are padded by nearest active values first, so queries
        in cells that straddle the region edge stay finite.
        """
        return tuple(lookup(s, y) for lookup in self._lookups)


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


def _extrap_weights(p1, p2, p):
    """Weights putting a line through values at p1 < p2 onto position p."""
    w2 = (p - p1) / (p2 - p1)
    return 1.0 - w2, w2


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
    g1, g2, d1s, d2s, d1y, d2y = roots_arrays(spec, s, y)
    slopes = (d1s, d2s) if along_s else (d1y, d2y)
    lb = np.log(base)
    out = []
    for g, dg in zip((g1, g2), slopes):
        half = 0.5 * dg * lb
        out.append((_libm_pow(base, g), -1.0 / h + half, 1.0 / h + half))
    return out


def _pair_block(spec: ModelSpec, family):
    """Pair relations of one line family, one per pair of active neighbours.

    Returns (eq, cols, vals, rhs): the relation (counted within the block) of
    each entry, its unknown and value, and each relation's right-hand side.
    A relation's entries run C1 near, C1 far, C2 near, C2 far.
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
    node_a, node_b = 2 * rnk[k, a], 2 * rnk[k, b]
    cols = np.stack([node_a, node_b, node_a + 1, node_b + 1], axis=1)
    vals = np.stack([p1 * near1, p1 * far1, p2 * near2, p2 * far2], axis=1)
    eq = np.repeat(np.arange(k.size), 4)
    return eq, cols.ravel(), vals.ravel(), np.zeros(k.size)


def _closure_block(spec: ModelSpec, family, closures):
    """Closure equations of one line family, one per closure, in list order.

    Each closure acts at its line's last active node.  Returns (eq, cols,
    vals, rhs) as :func:`_pair_block` does.
    """
    along_s, act, rnk, pos, fix = family
    n = len(closures)
    kind = np.array([c.kind for c in closures], dtype=object)
    k = np.array([c.j if along_s else c.i for c in closures], dtype=int)
    at = np.array([c.s_pos if along_s else c.y_pos for c in closures], dtype=float)
    x_base = np.array([c.x_base for c in closures], dtype=float)
    target = np.array([c.target for c in closures], dtype=float)
    size = act[k].sum(axis=1)
    last = np.argmax(act[k], axis=1) + size - 1
    node = 2 * rnk[k, last]
    # two entry slots per equation, C1 then C2 of the last node by default;
    # one-entry closures leave the second slot unused
    cols = np.stack([node, node + 1], axis=1)
    vals = np.ones((n, 2))
    used = np.ones((n, 2), dtype=bool)
    rhs = np.zeros(n)
    used[kind == "c1_zero", 1] = False
    c2_zero = kind == "c2_zero"
    one = c2_zero & (size == 1)
    cols[one, 0] = node[one] + 1
    used[one, 1] = False
    two = np.flatnonzero(c2_zero & (size >= 2))
    prev = last[two] - 1
    cols[two, 0] = 2 * rnk[k[two], prev] + 1
    vals[two] = np.stack(_extrap_weights(pos[prev], pos[last[two]], at[two]), axis=1)

    combo = np.flatnonzero(kind == "combo")
    s, y = _point(along_s, fix[k[combo]], at[combo])
    g1, g2, *_ = roots_arrays(spec, s, y)
    end = pos[last[combo]]
    h = at[combo] - end
    tie = ~(np.abs(h) <= 1e-9 * (np.abs(end) + pos[-1] - pos[0]))
    # a closure at the last node pins the value there directly
    on = combo[~tie]
    vals[on, 0] = _libm_pow(x_base[on], g1[~tie])
    vals[on, 1] = _libm_pow(x_base[on], g2[~tie])
    rhs[on] = target[on]
    # otherwise the anchor pair at the closure position is tied to the last
    # node by one more midpoint pair
    off = combo[tie]
    o = _ORIENT[spec.payoff_kind]
    x_end = o.edge(s, y)
    anchor = np.array(
        [
            _pinned_pair(a, b, xb, spec.strike, o.sign, t, x_end=e)
            for a, b, xb, t, e in zip(
                g1[tie].tolist(), g2[tie].tolist(), x_base[off].tolist(),
                target[off].tolist(), x_end[tie].tolist(),
            )
        ],
        dtype=float,
    ).reshape(-1, 2)
    (p1, near1, far1), (p2, near2, far2) = _pair_entries(
        spec,
        *_point(along_s, fix[k[off]], 0.5 * (end[tie] + at[off])),
        along_s,
        h[tie],
    )
    vals[off, 0] = p1 * near1
    vals[off, 1] = p2 * near2
    # summed from +0.0, so two -0.0 terms leave no -0.0 in the system
    rhs[off] = -(0.0 + anchor[:, 0] * p1 * far1 + anchor[:, 1] * p2 * far2)

    keep = used.ravel()
    eq = np.repeat(np.arange(n), 2)[keep]
    return eq, cols.ravel()[keep], vals.ravel()[keep], rhs


def solve_reflection_region(spec: ModelSpec, region: RegionSpec) -> CoefficientGrid:
    """Solve the coupled reflection relations on one region.

    Every nonempty column of the active mask must be matched by exactly one
    column closure and every nonempty row by exactly one row closure; any
    mismatch, or a non-contiguous row or column, raises UnderdeterminedRegion.
    An LU that leaves any coefficient non-finite raises NonConvergence,
    naming the count of such entries and the scaled residual of the rest;
    there is no least-squares retry.

    The system, rows equilibrated, is solved by one sparse LU (``spsolve``)
    with the columns in their natural order: the unknowns (C1, C2) are
    numbered node by node with s major, so every equation couples unknowns
    at most one lattice column apart.  On the 193x129 drawdown put that
    order fills L + U to 139k nonzeros where COLAMD's fills to 496k, and
    the solution moves by at most 3.3e-14 of max|C|.
    """
    s_grid, y_grid, active = region.s_grid, region.y_grid, region.active
    rank = -np.ones(active.shape, dtype=int)
    rank[active] = np.arange(int(active.sum()))
    n_nodes = int(active.sum())
    if n_nodes == 0:
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

    # rows run along s at fixed y, columns along y at fixed s; each family
    # as (along s?, activity and node ranks indexed [line, position], the
    # grid the lines run along, the grid of their fixed coordinate)
    rows = (True, active.T, rank.T, s_grid, y_grid)
    cols = (False, active, rank, y_grid, s_grid)
    # equations: pair relations on every row, then every column; then one
    # closure per column, then one per row
    blocks = (
        _pair_block(spec, rows),
        _pair_block(spec, cols),
        _closure_block(spec, cols, region.column_closures),
        _closure_block(spec, rows, region.row_closures),
    )
    eqs = []
    eq = 0
    for block_eq, _, _, block_rhs in blocks:
        eqs.append(block_eq + eq)
        eq += block_rhs.size
    if eq != 2 * n_nodes:
        raise UnderdeterminedRegion(
            f"assembled {eq} equations for {2 * n_nodes} unknowns"
        )

    mat = sparse.coo_matrix(
        (
            np.concatenate([blk[2] for blk in blocks]),
            (np.concatenate(eqs), np.concatenate([blk[1] for blk in blocks])),
        ),
        shape=(eq, 2 * n_nodes),
    ).tocsr()
    rhs = np.concatenate([blk[3] for blk in blocks])
    # equilibrate rows: the power factors span many orders of magnitude
    scale = np.maximum.reduceat(np.abs(mat.data), mat.indptr[:-1])
    scale[np.diff(mat.indptr) == 0] = 1.0
    scale[scale == 0.0] = 1.0
    d_inv = sparse.diags(1.0 / scale)
    mat = d_inv @ mat
    rhs = rhs / scale

    # the lattice order of the unknowns keeps the LU's fill banded
    with np.errstate(all="ignore"):
        sol = spsolve(mat.tocsc(), rhs, permc_spec="NATURAL")
    bad = ~np.isfinite(sol)
    if bad.any():
        # the residual of the finite entries, the others taken as 0
        resid = np.linalg.norm(mat @ np.where(bad, 0.0, sol) - rhs)
        raise NonConvergence(
            f"reflection system LU left {int(bad.sum())} of {sol.size} entries "
            f"non-finite (scaled residual {resid / max(1.0, np.linalg.norm(rhs)):.3e})"
        )

    C1 = np.full(active.shape, np.nan)
    C2 = np.full(active.shape, np.nan)
    C1[active] = sol[2 * rank[active]]
    C2[active] = sol[2 * rank[active] + 1]
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

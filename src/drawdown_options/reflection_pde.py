"""Coefficient fields on regions where the diagonal reflects the state.

Inside such a region the value on each x-line is C1 x**g1 + C2 x**g2 with the
roots evaluated at that line's (s, y).  Normal reflection at the two moving
edges couples the coefficients through a pair of first-order relations: along
s at the top edge x = s, and along y at the bottom edge x = s - y.  Both are
discretized with midpoint (trapezoidal) differencing between adjacent nodes,
assembled into one sparse linear system over all active nodes, and solved
directly.

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
from scipy.sparse.linalg import lsqr, spsolve

from .coefficients import ModelSpec, _pinned_pair, roots_arrays
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


@dataclass
class CoefficientGrid:
    """Solved coefficients on a region; inactive nodes hold NaN."""

    s_grid: np.ndarray
    y_grid: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        self._fill1 = _fill_inactive(self.C1, self.active)
        self._fill2 = _fill_inactive(self.C2, self.active)

    def coeffs_at(self, s, y):
        """Bilinear coefficients at (s, y), clamped to the grid box.

        Inactive nodes are padded by nearest active values first, so queries
        in cells that straddle the region edge stay finite.
        """
        s = np.clip(np.asarray(s, dtype=float), self.s_grid[0], self.s_grid[-1])
        y = np.clip(np.asarray(y, dtype=float), self.y_grid[0], self.y_grid[-1])
        i = np.clip(np.searchsorted(self.s_grid, s) - 1, 0, self.s_grid.size - 2)
        j = np.clip(np.searchsorted(self.y_grid, y) - 1, 0, self.y_grid.size - 2)
        ts = (s - self.s_grid[i]) / (self.s_grid[i + 1] - self.s_grid[i])
        ty = (y - self.y_grid[j]) / (self.y_grid[j + 1] - self.y_grid[j])
        out = []
        for filled in (self._fill1, self._fill2):
            v00 = filled[i, j]
            v10 = filled[i + 1, j]
            v01 = filled[i, j + 1]
            v11 = filled[i + 1, j + 1]
            out.append(
                (1 - ts) * (1 - ty) * v00
                + ts * (1 - ty) * v10
                + (1 - ts) * ty * v01
                + ts * ty * v11
            )
        return out[0], out[1]


def _fill_inactive(a, active):
    """Pad NaN nodes by the nearest active value, first along y then along s."""
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
            col[lo : hi + 1][inner] = np.interp(k[inner], k[~inner], col[lo : hi + 1][~inner])
    for j in range(n_y):
        row = out[:, j]
        good = np.isfinite(row)
        if not good.any():
            continue
        idx = np.flatnonzero(good)
        row[: idx[0]] = row[idx[0]]
        row[idx[-1] + 1 :] = row[idx[-1]]
    return out


def _extrap_weights(p1, p2, p):
    """Weights putting a line through values at p1 < p2 onto position p."""
    w2 = (p - p1) / (p2 - p1)
    return 1.0 - w2, w2


def _pair_entries(spec: ModelSpec, s, y, along_s, h):
    """Entries of one midpoint pair relation between line neighbours h apart.

    The relation sits at the midpoint (s, y) of a line along s (reflecting
    top edge x = s) or along y (bottom edge x = s - y).  Returns, for C1 and
    then C2, the edge power p and the factors of the nearer and the farther
    node; a node's entry is p times its factor.
    """
    base = s if along_s else s - y
    if base <= 0:
        raise UnderdeterminedRegion(
            f"pair relation at s={s:g}, y={y:g} straddles the diagonal"
        )
    g1, g2, d1s, d2s, d1y, d2y = (float(v) for v in roots_arrays(spec, s, y))
    slopes = (d1s, d2s) if along_s else (d1y, d2y)
    lb = np.log(base)
    out = []
    for g, dg in zip((g1, g2), slopes):
        p = base**g
        out.append((p, -1.0 / h + 0.5 * dg * lb, +1.0 / h + 0.5 * dg * lb))
    return out


def solve_reflection_region(spec: ModelSpec, region: RegionSpec) -> CoefficientGrid:
    """Solve the coupled reflection relations on one region.

    Every nonempty column of the active mask must be matched by exactly one
    column closure and every nonempty row by exactly one row closure; any
    mismatch, or a non-contiguous row or column, raises UnderdeterminedRegion.
    A solve that fails to produce finite coefficients raises NonConvergence.
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
        nonempty = set()
        for k, line in enumerate(lines):
            idx = np.flatnonzero(line)
            if not idx.size:
                continue
            nonempty.add(k)
            if not np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)):
                raise UnderdeterminedRegion(
                    f"active nodes in {name} {k} are not contiguous"
                )
        if set(closures) != nonempty or len(closures) != len(nonempty):
            raise UnderdeterminedRegion(
                f"need exactly one closure per nonempty {name}; have closures "
                f"for {sorted(set(closures))} vs {name}s {sorted(nonempty)}"
            )

    rows_ij = []
    cols_ij = []
    vals = []
    rhs_entries = []
    eq = 0

    def add(r, c, v):
        rows_ij.append(r)
        cols_ij.append(c)
        vals.append(float(v))

    sign = 1.0 if spec.payoff_kind == "call" else -1.0
    # rows run along s at fixed y, columns along y at fixed s; each family
    # as (along s?, activity and node ranks indexed [line, position], the
    # grid the lines run along, the grid of their fixed coordinate)
    rows = (True, active.T, rank.T, s_grid, y_grid)
    cols = (False, active, rank, y_grid, s_grid)

    def point(along_s, fixed, pos):
        return (pos, fixed) if along_s else (fixed, pos)

    # pair relations between neighbours on every row, then every column
    for along_s, act, rnk, pos, fix in (rows, cols):
        for k in range(act.shape[0]):
            idx = np.flatnonzero(act[k])
            for a, b in zip(idx, idx[1:]):
                mid = 0.5 * (pos[a] + pos[b])
                entries = _pair_entries(
                    spec, *point(along_s, fix[k], mid), along_s, pos[b] - pos[a]
                )
                for off, (p, near, far) in enumerate(entries):
                    add(eq, 2 * rnk[k, a] + off, p * near)
                    add(eq, 2 * rnk[k, b] + off, p * far)
                rhs_entries.append(0.0)
                eq += 1

    # one closure per column, then one per row, acting at the line's last node
    for (along_s, act, rnk, pos, fix), closures in (
        (cols, region.column_closures),
        (rows, region.row_closures),
    ):
        for c in closures:
            k = c.j if along_s else c.i
            idx = np.flatnonzero(act[k])
            node = 2 * rnk[k, idx[-1]]
            rhs = 0.0
            if c.kind == "c1_zero":
                add(eq, node, 1.0)
            elif c.kind == "c2_zero":
                if idx.size >= 2:
                    w1, w2 = _extrap_weights(pos[idx[-2]], pos[idx[-1]], c.y_pos)
                    add(eq, 2 * rnk[k, idx[-2]] + 1, w1)
                    add(eq, node + 1, w2)
                else:
                    add(eq, node + 1, 1.0)
            else:
                at = c.s_pos if along_s else c.y_pos
                s, y = point(along_s, fix[k], at)
                g1, g2, *_ = (float(v) for v in roots_arrays(spec, s, y))
                p1 = pos[idx[-1]]
                h = at - p1
                if abs(h) <= 1e-9 * (abs(p1) + pos[-1] - pos[0]):
                    add(eq, node, c.x_base**g1)
                    add(eq, node + 1, c.x_base**g2)
                    rhs = float(c.target)
                else:
                    # the anchor pair at the closure position, tied to the
                    # last node by one more midpoint pair
                    anchor = _pinned_pair(
                        g1, g2, c.x_base, spec.strike, sign, float(c.target),
                        x_end=s - y if sign > 0 else s,
                    )
                    mid = point(along_s, fix[k], 0.5 * (p1 + at))
                    acc = 0.0
                    for off, ((p, near, far), av) in enumerate(
                        zip(_pair_entries(spec, *mid, along_s, h), anchor)
                    ):
                        add(eq, node + off, p * near)
                        acc += av * p * far
                    rhs = -acc
            rhs_entries.append(rhs)
            eq += 1

    if eq != 2 * n_nodes:
        raise UnderdeterminedRegion(
            f"assembled {eq} equations for {2 * n_nodes} unknowns"
        )

    mat = sparse.coo_matrix(
        (vals, (rows_ij, cols_ij)), shape=(eq, 2 * n_nodes)
    ).tocsr()
    rhs = np.asarray(rhs_entries)
    # equilibrate rows: the power factors span many orders of magnitude
    scale = np.maximum.reduceat(np.abs(mat.data), mat.indptr[:-1])
    scale[np.diff(mat.indptr) == 0] = 1.0
    scale[scale == 0.0] = 1.0
    d_inv = sparse.diags(1.0 / scale)
    mat = d_inv @ mat
    rhs = rhs / scale

    with np.errstate(all="ignore"):
        sol = spsolve(mat.tocsc(), rhs)
    if not np.all(np.isfinite(sol)):
        out = lsqr(mat, rhs, atol=1e-14, btol=1e-14, iter_lim=20000)
        sol = out[0]
        resid = np.linalg.norm(mat @ sol - rhs)
        if not np.all(np.isfinite(sol)) or resid > 1e-8 * max(
            1.0, np.linalg.norm(rhs)
        ):
            raise NonConvergence(
                f"reflection system solve failed (residual {resid:.3e})"
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
    residuals there would measure the closures, not convergence.
    """
    s_grid, y_grid, active = grid.s_grid, grid.y_grid, grid.active
    res_c = np.full((s_grid.size, y_grid.size), np.nan)
    res_d = np.full((s_grid.size, y_grid.size), np.nan)
    floor = 1e-300
    for i in range(1, s_grid.size - 1):
        for j in range(1, y_grid.size - 1):
            if not (
                active[i, j]
                and active[i - 1, j]
                and active[i + 1, j]
                and active[i, j - 1]
                and active[i, j + 1]
            ):
                continue
            base = s_grid[i] - y_grid[j]
            if base <= 0:
                continue
            g1, g2, dg1s, dg2s, dg1y, dg2y = (
                float(v) for v in roots_arrays(spec, s_grid[i], y_grid[j])
            )
            ds = s_grid[i + 1] - s_grid[i - 1]
            lg = np.log(s_grid[i])
            r = 0.0
            mag = floor
            for g, dg, C in ((g1, dg1s, grid.C1), (g2, dg2s, grid.C2)):
                p = s_grid[i] ** g
                r += p * ((C[i + 1, j] - C[i - 1, j]) / ds + C[i, j] * dg * lg)
                mag = max(mag, abs(p * C[i, j]))
            res_c[i, j] = abs(r) / mag
            dy = y_grid[j + 1] - y_grid[j - 1]
            lb = np.log(base)
            r = 0.0
            mag = floor
            for g, dg, C in ((g1, dg1y, grid.C1), (g2, dg2y, grid.C2)):
                p = base**g
                r += p * ((C[i, j + 1] - C[i, j - 1]) / dy + C[i, j] * dg * lb)
                mag = max(mag, abs(p * C[i, j]))
            res_d[i, j] = abs(r) / mag
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

"""Perpetual option boundaries and values driven by the running maximum alone.

The state is (X, S) with S the running maximum, so the coefficient fields may
depend on s only.  Call boundaries are available in closed form; put
boundaries solve a first-order ODE in s, integrated downward from a large
truncation point where the curve settles onto its constant-coefficient
asymptote.

Region bookkeeping on a slice works against the diagonal x = s: wherever the
boundary curve pokes above the diagonal the barrier is out of reach and the
slice is handled by normal reflection at the diagonal instead of direct
exercise.  ``detect_switch_points`` locates the crossings.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import odestep
from .coefficients import (
    _CALL,
    _PUT,
    ModelSpec,
    _critical_level,
    _pinned_pair,
    _roots_along,
    check_quadrant,
)
from .errors import (
    ConstraintBreach,
    DomainError,
    ResolutionWarning,
    StepError,
)
from .odestep import ReuseStages, StepSize, checked_step, dense_output

DEFAULT_N_STEPS = 4096
EDGE_FRACTION = 1e-6


def _non_finite(v, name="s") -> DomainError:
    """The error for a v with a NaN or infinite entry, naming the first one."""
    v = np.asarray(v, dtype=float)
    return DomainError(f"need a finite {name}, got {_first_bad(v, ~np.isfinite(v), name)}")


def _first_bad(v, bad, name):
    """``name=v`` for a float or 0-d v, else ``name[index]=entry`` for v's first bad entry."""
    if np.ndim(v) == 0:
        return f"{name}={v}"
    k = np.argwhere(bad)[0]
    at = ", ".join(str(int(i)) for i in k)
    return f"{name}[{at}]={v[tuple(k)]}"


def _require_s_only(spec: ModelSpec, o) -> None:
    """Raise DomainError unless spec is an o-side model on the running maximum alone."""
    o.require(spec)
    for name, f in (("delta", spec.delta_field), ("sigma", spec.sigma_field)):
        if f.family == "bounded_rational":
            raise DomainError(
                f"{name} depends on the drawdown; use the three-dimensional solver"
            )


# ---------------------------------------------------------------------------
# switch-point detection


def _scan_nodes(ok):
    """The set-up that every scan of one valid-node mask shares.

    ok is indexed [line, node].  Returns the valid nodes' lines and nodes in
    line order, a mask of each line's first valid node (where a new line
    starts among them), and per line the count of valid nodes before each
    node, indexed [line, node] with one column more than ok.
    """
    line, node = np.nonzero(ok)
    first = np.ones(line.size, dtype=bool)
    first[1:] = line[1:] != line[:-1]
    below = np.zeros((ok.shape[0], ok.shape[1] + 1), dtype=int)
    np.cumsum(ok, axis=1, out=below[:, 1:])
    return line, node, first, below


def _sign_changes(d, nodes):
    """Cells where d changes sign along every line of a lattice, in one scan.

    d is indexed [line, node] and nodes is :func:`_scan_nodes` of its valid
    mask; each line is read through its valid nodes in order, so an
    invalid node is skipped, not a break.  The previous nonzero sign is
    carried through exact zeros, so a touch that comes back on the same
    side is no change, and zeros at a line's start carry no sign.  Returns,
    per change in line order, its line, the valid nodes lo and hi on either
    side, and whether d falls from positive to negative.
    """
    line, node, first, _ = nodes
    sgn = np.sign(d[line, node])
    # the sign of the last nonzero at or before each node on its line, or
    # of the line's first node (a zero) when there is none
    keep = np.where((sgn != 0.0) | first, np.arange(sgn.size), 0)
    sgn = sgn[np.maximum.accumulate(keep)]
    a, b = sgn[:-1], sgn[1:]
    c = np.flatnonzero(~first[1:] & (a != 0.0) & (b != 0.0) & (a != b))
    return line[c], node[c], node[c + 1], a[c] > 0


def _cell_crossing(p0, p1, d0, d1):
    """Linear zero of d between positions p0 and p1."""
    return p0 + (p1 - p0) * d0 / (d0 - d1)


def _adjacent_messages(grid, nodes, line, pos):
    """Warnings for consecutive crossings of a line that fall in adjacent cells.

    grid runs along the lines of the scan whose :func:`_scan_nodes` set-up
    is nodes, and line and pos give each crossing in line order.  A
    crossing's cell is counted among its line's valid nodes, as a search of
    the valid nodes alone would count it.  Returns (line, message) pairs.
    """
    below = nodes[3]
    cell = below[line, np.searchsorted(grid, pos)]
    near = np.flatnonzero((line[1:] == line[:-1]) & (np.abs(np.diff(cell)) <= 1))
    return [
        (
            int(line[i]),
            f"switch points at s={pos[i]:.6g} and s={pos[i + 1]:.6g} fall in "
            "adjacent grid cells; refine the grid to resolve the region ordering",
        )
        for i in near
    ]


def detect_switch_points(grid, curve_values, ref_values, refine=None):
    """Locate sign changes of curve - reference along an increasing grid.

    Returns a list of (position, direction) pairs where direction is
    ``"enter"`` when the difference goes positive to negative as s increases
    (the curve drops to the reachable side) and ``"exit"`` for the reverse.
    Crossings are placed by intersecting the two linear interpolants, or by
    a bracketed root solve when ``refine`` (a callable of s) is supplied.
    Tangential touches without a sign change are not switches.  A warning is
    issued when two adjacent cells both cross, since that pattern usually
    means the grid is too coarse to trust the ordering.
    """
    grid = np.asarray(grid, dtype=float)
    d = np.asarray(curve_values, dtype=float) - np.asarray(ref_values, dtype=float)
    if grid.ndim != 1 or grid.shape != d.shape:
        raise ValueError("grid and values must be one-dimensional and equal length")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")

    every = _scan_nodes(np.ones((1, d.size), dtype=bool))
    line, lo_k, hi_k, falls = _sign_changes(d[None, :], every)
    lo, hi = grid[lo_k], grid[hi_k]
    # where the two linear interpolants meet
    linear = _cell_crossing(lo, hi, d[lo_k], d[hi_k])
    crossings = []
    for k, pos in enumerate(linear):
        if refine is not None:
            flo, fhi = refine(lo[k]), refine(hi[k])
            if flo == 0.0:
                pos = lo[k]
            elif fhi == 0.0:
                pos = hi[k]
            elif np.sign(flo) != np.sign(fhi):
                pos = _brentq(refine, lo[k], hi[k], xtol=1e-10, rtol=8.9e-16)
        crossings.append((float(pos), "enter" if falls[k] else "exit"))

    pos = np.array([p for p, _ in crossings])
    for _, msg in _adjacent_messages(grid, every, line, pos):
        warnings.warn(msg, ResolutionWarning, stacklevel=2)
    return crossings


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """A root of f in [a, b]: scipy.optimize.brentq, ported to floats.

    The iteration is scipy's C ``brentq`` (Brent 1973: secant and inverse
    quadratic steps, bisection as the fallback), step for step, so a float f
    gives the same root bits.  It raises where scipy's raises: ValueError
    for f(a) and f(b) of one sign or a NaN value of f, RuntimeError once
    maxiter iterations have not converged.
    """

    def at(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = at(xpre), at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _c_div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _c_div(fpre - fcur, xpre - xcur)
                dblk = _c_div(fblk - fcur, xblk - xcur)
                stry = _c_div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            # scipy's MIN(|spre|, 3 |sbis| - delta), argument for argument on a tie
            if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = at(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _c_div(a, b):
    """a / b as C divides doubles: a zero b gives inf or NaN, where Python raises.

    A step of inf or NaN fails the short-step test, so the iteration bisects,
    as scipy's does.
    """
    if b:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def region_index_of(switches, s) -> int:
    """Count regions from the outside in: 0 above every switch point."""
    return int(sum(1 for pos, _ in switches if s < pos))


def _gtsv(dl, d, du, b):
    """Solve a tridiagonal system as LAPACK's dgtsv does, on floats.

    dl, d and du are lists of the sub-, main and super-diagonal, which the
    elimination overwrites, and b the one right-hand side.  Gaussian
    elimination with partial pivoting row by row, then back substitution,
    in the reference routine's order of operations, so the solution has
    its bits; a zero pivot raises ValueError.  Returns the solution as a
    list.
    """
    n = len(d)
    di, bi = d[0], b[0]  # row i as the elimination has left it
    for i in range(n - 1):
        dli = dl[i]
        if 0.0 <= dli <= di or abs(di) >= abs(dli):  # no row interchange
            if di == 0.0:
                raise ValueError("singular matrix")
            fact = dli / di
            d[i], b[i] = di, bi
            di = d[i + 1] - fact * du[i]
            bi = b[i + 1] - fact * bi
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            fact = di / dli
            d[i], b[i] = dli, b[i + 1]
            di = du[i] - fact * d[i + 1]
            du[i] = d[i + 1]
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            bi = bi - fact * b[i + 1]
    d[n - 1], b[n - 1] = di, bi
    if di == 0.0:
        raise ValueError("singular matrix")
    x1 = bi / di
    out = [x1]
    if n > 1:
        x2, x1 = x1, (b[n - 2] - du[n - 2] * x1) / d[n - 2]
        out.append(x1)
        rows = zip(*(reversed(a[:n - 2]) for a in (b, du, dl, d)))
        for bi, dui, dli, di in rows:
            x2, x1 = x1, (bi - dui * x1 - dli * x2) / di
            out.append(x1)
    out.reverse()
    return out


def _not_a_knot(x, v):
    """Breakpoints and PPoly rows of the not-a-knot cubic spline through (x, v).

    scipy.interpolate.CubicSpline(x, v) ported, bit for bit for n = 2 and
    n >= 4: the node slopes solve scipy's tridiagonal system, its
    not-a-knot end rows included, through :func:`_gtsv`, and the Hermite
    form's coefficients follow in scipy's order.  With two nodes both ends
    take the chord's slope, through the same solve.  With three the spline
    is the parabola through the nodes: scipy solves a dense 3x3 system for
    its slopes through LAPACK, whose last bits vary with the BLAS kernels,
    and here they are in closed form (README gives the difference).
    x and v are one-dimensional and of one length.  Raises ValueError for
    fewer than two nodes, a non-finite entry or x not strictly increasing,
    as scipy does.
    """
    x = np.array(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.size < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    if not np.isfinite(x).all():
        raise ValueError("`x` must contain only finite values.")
    if not np.isfinite(v).all():
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    slope = np.diff(v) / dx
    if x.size == 2:
        m = np.array(_gtsv([0.0], [1.0, 1.0], [0.0], [float(slope[0])] * 2))
    elif x.size == 3:
        # the parabola's slopes in closed form: s0 + s1 and s1 + s2 are twice
        # the chords' slopes, as the first and last rows of scipy's system say;
        # the gaps' weights are at most 1, so no product of a gap and a
        # subnormal chord slope underflows on its way to s1
        span = dx[0] + dx[1]
        mid = float(dx[1] / span * slope[0] + dx[0] / span * slope[1])
        m = np.array([2 * slope[0] - mid, mid, 2 * slope[1] - mid])
    else:
        d = np.empty(x.size)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        d[0], d[-1] = dx[1], dx[-2]
        b = np.empty(x.size)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # the not-a-knot rows, as scipy writes them on numpy scalars
        lo, hi = x[2] - x[0], x[-1] - x[-3]
        b[0] = ((dx[0] + 2 * lo) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / lo
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * hi + dx[-1]) * dx[-2] * slope[-1]) / hi
        dl = [*dx[1:].tolist(), float(hi)]
        du = [float(lo), *dx[:-1].tolist()]
        m = np.array(_gtsv(dl, d.tolist(), du, b.tolist()))
    t = (m[:-1] + m[1:] - 2 * slope) / dx
    return x, (t / dx, (slope - m[:-1]) / dx - t, m[:-1], v[:-1].copy())


class _Cubic:
    """The not-a-knot cubic spline through (x, v), fitted and evaluated in house.

    :func:`_not_a_knot` fits it as ``CubicSpline`` does; a call evaluates
    its breakpoints x and coefficients c as ``PPoly.__call__`` does, bit
    for bit.  A query q reads interval i = clip(searchsorted(x, q, "right")
    - 1, 0, n - 2), extrapolating past either end: the count of interior
    breakpoints at or below q.  With d = q - x[i] its value is ((0 + c3) +
    c2 d + c1 d**2) + c0 (d**2 d), the terms summed in scipy's order.
    Arrays go through numpy.  A float goes through bisect and float
    arithmetic on memoryviews of the same arrays: about 0.8 us, against
    4.4 us for scipy's call (2-CPU x86-64, scipy 1.17.1), and a level
    query makes two.
    """

    __slots__ = ("x", "_inner", "_rows", "_xv", "_inner_v", "_rows_v")

    def __init__(self, x, v):
        self.x, self._rows = _not_a_knot(x, v)
        self._inner = self.x[1:-1]
        self._xv, self._inner_v = memoryview(self.x), memoryview(self._inner)
        self._rows_v = [memoryview(ck) for ck in self._rows]

    def __call__(self, q):
        if isinstance(q, float):
            i = bisect_right(self._inner_v, q)
            c0, c1, c2, c3 = self._rows_v
            return _cubic_terms(c0[i], c1[i], c2[i], c3[i], q - self._xv[i])
        q = np.asarray(q, dtype=float)
        i = self._inner.searchsorted(q, side="right")
        c0, c1, c2, c3 = self._rows
        return _cubic_terms(c0[i], c1[i], c2[i], c3[i], q - self.x[i])


def _cubic_terms(c0, c1, c2, c3, d):
    """c0 d**3 + c1 d**2 + c2 d + c3, summed as scipy's PPoly sums it."""
    dd = d * d
    return ((0.0 + c3) + c2 * d + c1 * dd) + c0 * (dd * d)


@dataclass
class BoundaryCurve:
    """A stopping boundary sampled on an increasing s-grid."""

    grid: np.ndarray
    values: np.ndarray
    switches: list = field(default_factory=list)
    max_step_error: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape or self.grid.ndim != 1:
            raise ValueError("grid and values must match and be one-dimensional")
        self._spline = _Cubic(self.grid, self.values)
        self._range = float(self.grid[0]), float(self.grid[-1])

    def __call__(self, s):
        """The curve at s, a float or an array, clamped into its sampled range.

        A float (a numpy scalar too) is checked and evaluated on floats and
        gives a float, with the bits its entry in an array gets.  A
        non-finite s, or one more than 1e-12 outside the range, raises
        DomainError naming it (the first such entry of an array) and the
        range.
        """
        lo, hi = self._range
        if isinstance(s, float):
            s = float(s)
            if not lo - 1e-12 <= s <= hi + 1e-12:
                raise self._outside(s, None) if math.isfinite(s) else _non_finite(s)
            return self._spline(min(max(s, lo), hi))
        s = np.asarray(s, dtype=float)
        if not np.isfinite(s).all():
            raise _non_finite(s)
        outside = (s < lo - 1e-12) | (s > hi + 1e-12)
        if outside.any():
            raise self._outside(s, outside)
        return self._spline(np.clip(s, lo, hi))

    def _outside(self, s, bad):
        lo, hi = self._range
        return DomainError(
            f"query {_first_bad(s, bad, 's')} outside the sampled range "
            f"[{lo!r}, {hi!r}] of the boundary curve"
        )


# ---------------------------------------------------------------------------
# call side


def call_boundary_2d(spec: ModelSpec, s):
    """Barrier level beta1 K / (beta1 - 1) for the running-max call.

    s is a float or an array; a non-finite s, or one at or below 0, raises
    DomainError.
    """
    _require_s_only(spec, _CALL)
    s = s if isinstance(s, float) else np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise _non_finite(s)
    check_quadrant(s, 0.0)
    g1, g2 = _roots_along(spec, s, 0.0)
    return _critical_level(g1, g2, spec.strike, _CALL.sign)


def call_switches(spec: ModelSpec, s_lo, s_hi):
    grid = np.linspace(s_lo, s_hi, DEFAULT_N_STEPS + 1)
    vals = call_boundary_2d(spec, grid)

    def gap(s):
        return float(call_boundary_2d(spec, s) - s)

    return detect_switch_points(grid, vals, grid, refine=gap)


GL_PANELS = 16  # equal panels in log q of the call coefficient's integral
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)  # per panel


def _log_factor(spec: ModelSpec, s: float, anchor: float) -> float:
    """The integral of beta1'(q) log q over q in [s, anchor].

    A composite Gauss-Legendre rule in t = log q, where the integrand is
    beta1'(e**t) t e**t: GL_PANELS equal panels of 16 nodes each, with the
    root slopes at every node from one ``_roots_along`` call.  The
    integrand is smooth in t, and the rule matches an adaptive quadrature
    at 1e-13 to within 5e-16 relative on the reflection-region oracle's
    nodes (s in [0.25, s*] of the s-sloped call).
    """
    edges = np.linspace(math.log(s), math.log(anchor), GL_PANELS + 1)
    half = 0.5 * (edges[1] - edges[0])
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_NODES).ravel()
    q = np.exp(t)
    integrand = _roots_along(spec, q, 0.0, "s")[2] * t * q
    return float(half * (integrand.reshape(GL_PANELS, -1) @ _GL_WEIGHTS).sum())


class CallSolution2D:
    """Value of the perpetual call in the (x, s) slice model.

    Above the last switch point the barrier is reachable and the value is the
    usual power solution matched at the barrier.  Below it, the slice runs in
    a reflecting band and the barrier coefficient carries an integrating
    factor accumulated from the quotient of root derivatives.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.s_lo = EDGE_FRACTION * spec.strike
        self.s_hi = spec.domain_s_max
        # call_boundary_2d, the first step, checks the spec
        self.switches = call_switches(spec, self.s_lo, self.s_hi)

    def boundary(self, s):
        return call_boundary_2d(self.spec, s)

    def _anchor_above(self, s: float) -> float:
        above = [pos for pos, _ in self.switches if pos > s]
        if not above:
            raise DomainError(
                f"no barrier crossing above s={s:g} inside the truncated domain; "
                "enlarge domain_s_max"
            )
        return min(above)

    def coefficient(self, s: float) -> float:
        """Multiplier of x**beta1(s) in the continuation value."""
        spec = self.spec
        h = float(self.boundary(s))
        if h <= s:
            g1 = _roots_along(spec, s, 0.0)[0]
            return h ** (1.0 - g1) / g1
        anchor = self._anchor_above(s)
        g1a = _roots_along(spec, anchor, 0.0)[0]
        return np.exp(_log_factor(spec, s, anchor)) * anchor ** (1.0 - g1a) / g1a

    def value(self, x, s):
        x = float(x)
        s = float(s)
        if not (0.0 < x <= s):
            raise DomainError(f"need 0 < x <= s, got x={x}, s={s}")
        h = float(self.boundary(s))
        if h <= s and x >= h:
            return x - self.spec.strike
        g1 = _roots_along(self.spec, s, 0.0)[0]
        return self.coefficient(s) * x**g1


# ---------------------------------------------------------------------------
# put side


def put_asymptote(spec: ModelSpec, s=None):
    """Limit boundary beta2 L / (beta2 - 1) evaluated at the truncation point."""
    _require_s_only(spec, _PUT)
    if s is None:
        s = spec.domain_s_max
    check_quadrant(s, 0.0)
    g1, g2 = _roots_along(spec, s, 0.0)
    return _critical_level(g1, g2, spec.strike, _PUT.sign)


class OdeStage:
    """The boundary ODE frozen at one abscissa, as a function of the level.

    ref is the coordinate at which the reflecting condition acts (s for the
    put, s - y for the call).  Calling it gives the right-hand side at a
    level; its shared denominator is a * level - b.  The two bracket terms
    degenerate as ref approaches the level, so each switches to a quadratic
    expansion once |log(ref / level)| drops below 1e-6.

    Construction computes everything that does not depend on the level (the
    factors of the denominator and numerators, the reciprocals inside the
    brackets), so a stepper that revisits the abscissa only pays for the
    level-dependent part.  It silences no floating-point warning:
    :func:`_march_lanes` runs every stage under one ``np.errstate``.

    A float level (a numpy scalar too) on a stage built on floats takes the
    array path's terms in float arithmetic, with the same bits; log and
    expm1 stay numpy's, as the math module's can differ in the last bit.
    A float zero divides as numpy's does, so a level of 0 or -0 gives NaN
    there too, and a rejected try is retried instead of raising.
    """

    __slots__ = ("a", "b", "c1", "c2", "e1", "e2", "d12", "d21",
                 "inv12", "inv21", "dg1", "dg2", "ref")

    def __init__(self, g1, g2, dg1, dg2, ref, strike):
        self.a, self.b = _den_factors(g1, g2, strike)
        self.c1, self.c2 = g1 - 1.0, g2 - 1.0
        self.e1, self.e2 = g1 * strike, g2 * strike
        self.d21, self.d12 = g2 - g1, g1 - g2
        self.inv21, self.inv12 = 1.0 / self.d21, 1.0 / self.d12
        self.dg1, self.dg2 = dg1, dg2
        self.ref = ref

    def __call__(self, level):
        den = self.a * level - self.b
        n1 = (self.c2 * level - self.e2) * level
        n2 = (self.c1 * level - self.e1) * level
        if isinstance(level, float):
            u = float(np.log(self.ref / (level or np.float64(level))))
            den = den or np.float64(den)
            b1 = _scalar_bracket(self.d21, self.inv21, u)
            b2 = _scalar_bracket(self.d12, self.inv12, u)
        else:
            u = np.log(self.ref / level)
            small = np.abs(u) < 1e-6
            small = small if small.any() else None
            b1 = _bracket(self.d21, self.inv21, u, small)
            b2 = _bracket(self.d12, self.inv12, u, small)
        return (n1 / den) * b1 * self.dg1 + (n2 / den) * b2 * self.dg2


def _den_factors(g1, g2, strike):
    """(a, b) of the boundary ODE's shared denominator a * level - b."""
    return (g1 - 1.0) * (g2 - 1.0), g1 * g2 * strike


def _bracket(delta, inv, u, small):
    """1/delta + u / (1 - exp(delta u)), patched by its series where |u| is small.

    inv is 1/delta; small masks the lanes that need the series, and is None
    when no lane does.
    """
    du = delta * u
    w = np.maximum(np.minimum(du, 700.0), -700.0)
    main = inv - u / np.expm1(w)
    if small is not None:
        main = np.where(small, 0.5 * u - du * u / 12.0, main)
    return main


def _scalar_bracket(delta, inv, u):
    """:func:`_bracket` on one float lane, its terms in the same order."""
    w = delta * u
    if abs(u) < 1e-6:
        return 0.5 * u - w * u / 12.0
    if w > 700.0:
        w = 700.0
    elif w < -700.0:
        w = -700.0
    return inv - u / float(np.expm1(w))


def _march_lanes(stage, g, tau, lane, band, tol, scale):
    """The one march: lanes advanced together through lane time [0, 1].

    Every boundary ODE runs on it, through :class:`OdeStage`: a surface's
    slices as lanes, and the 2D put curve, a public slice or a direct
    line's re-march as one lane.  stage(t) freezes the lanes' slopes in
    lane time at t as a function of their levels; g holds the seeds, a
    float for a single lane, which keeps its state, steps and stage on
    floats (OdeStage's float path).  tau and lane list every (lane, node)
    pair the march reaches, in ascending tau; band = (lo, hi) gives the
    open interval each node's level must lie in (each an array over the
    nodes, or one value for all).  A node at tau = 0 takes its lane's seed.
    A float tau, 1.0, is a single lane's one node at its end, as a direct
    line's re-march reads it: lane is unused, band holds two floats, and
    the node is read from the landing step's extension at theta = 1 and
    checked on floats, with no node array or mask.  stage is None for
    lanes whose right-hand side vanishes: no step is taken, and every node
    takes its lane's seed through the same band check (a float tau's
    through ``lo < level < hi``), with the statuses and the worst estimate,
    0.0, that the one zero step would give.

    The steps take the lengths one :class:`odestep.StepSize` gives from
    the worst lane still under control, at the target tol, with the floor
    at 1/1024 of lane time; every lane shares every step, and so every
    right-hand-side call.  A node a step passes takes its level from the
    step's continuous extension (:func:`odestep.dense_output`).  The band
    check runs on the nodes each step fills; a single lane checks them at
    once and writes them through a slice, lanes of an array march each
    their own.  It is also the denominator's guard: the shared denominator
    a * level - b of :class:`OdeStage` is (2 delta / sigma**2) (r K /
    delta - level), and each band stops at r K / delta on its own side, so
    a level inside its band keeps the denominator's sign.

    Nothing is raised.  Returns the node levels (a float for a float tau),
    NaN from where a lane was cut; per lane its status ``(kind, node)``:
    ``("ok", -1)``, or ``"constraint"`` (the level left its band) at the
    first node that fails, or ``"step"`` (the estimate still missed tol at
    the floor) at the first node that step would have filled; and the
    worst estimate of the steps taken.
    """
    one = isinstance(g, float)
    n = 1 if one else g.size
    end = isinstance(tau, float)
    status = [("ok", -1)] * n
    floor = 1e-12 * scale

    if end:
        levels, (lo, hi) = math.nan, band
    else:
        levels = np.full(tau.size, np.nan)
        lo, hi = (v if np.ndim(v) else np.full(tau.size, v) for v in band)
        held = np.ones(n, dtype=bool)

    def fill(p, q, level_of):
        """Write the nodes p:q of the lanes still held, after the band check."""
        if one:  # every node is the one lane's
            if not held[0]:  # cut by the step that reached these nodes
                return
            lev = level_of(None, slice(p, q))
            inside = (lev > lo[p:q]) & (lev < hi[p:q])
            if np.count_nonzero(inside) == q - p:
                levels[p:q] = lev
                return
            c = int(inside.argmin())
            status[0], held[0] = ("constraint", p + c), False
            levels[p:p + c] = lev[:c]
            return
        ln = lane[p:q]
        lev = level_of(ln, slice(p, q))
        live = held[ln]
        bad = live & ~((lev > lo[p:q]) & (lev < hi[p:q]))
        if bad.any():
            c = np.flatnonzero(bad)
            cut_lanes, k = np.unique(ln[c], return_index=True)
            for j, ck in zip(cut_lanes, c[k]):
                status[j] = ("constraint", p + int(ck))
            held[cut_lanes] = False
            cut = np.full(n, q - p)
            cut[cut_lanes] = c[k]
            live &= np.arange(q - p) < cut[ln]
        levels[p:q][live] = lev[live]

    # lanes past a breach carry NaN and inf on purpose, and a float lane's
    # zero level divides as a numpy zero does
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if stage is None:  # still lanes: every node takes its lane's seed
            if not end:
                fill(0, tau.size, lambda ln, nodes: np.full(tau.size, g) if one else g[ln])
            elif lo < g < hi:
                levels = g
            else:
                status[0] = ("constraint", 0)
            return levels, status, 0.0
        p = 0 if end else int(np.searchsorted(tau, 0.0, side="right"))
        if p:
            fill(0, p, lambda ln, nodes: np.full(p, g) if one else g[ln])
        lane_stage = ReuseStages(stage)
        size = StepSize(tol)
        t, worst = 0.0, 0.0
        while t < 1.0 and (end or held.any()):
            rest = 1.0 - t
            try_len = size.length(rest)
            landed = try_len == rest
            t_next = 1.0 if landed else t + try_len
            h = t_next - t
            g_new, rel, slopes = checked_step(lane_stage, t, g, h, scale_floor=floor)
            if not one:
                rel = np.where(held, rel, 0.0)
            top = float(rel if one else np.max(rel))
            if not size.stands(try_len, top):
                continue
            if not top <= size.tol:
                if end:  # the one node is lost, and the march with it
                    status[0] = ("step", 0)
                    break
                failed = held & np.logical_not(rel <= size.tol)
                # cut at the first node the step would have filled
                later = np.flatnonzero(failed[lane[p:]]) + p
                cut_lanes, k = np.unique(lane[later], return_index=True)
                for j, c in zip(cut_lanes, later[k]):
                    status[j] = ("step", int(c))
                held &= ~failed
                top = 0.0 if one else float(np.max(rel, where=held, initial=0.0))
            worst = max(worst, top)
            size.after(try_len, landed, top)
            if not end:
                q = int(tau.searchsorted(t_next, side="right"))
                if q > p:
                    fill(p, q, lambda ln, nodes: dense_output(
                        g if one else g[ln], g_new if one else g_new[ln], h,
                        slopes if one else [k[ln] for k in slopes], (tau[nodes] - t) / h,
                    ))
                p = q
            elif landed:
                level = dense_output(g, g_new, h, slopes, 1.0)
                if lo < level < hi:
                    levels = level
                else:
                    status[0] = ("constraint", 0)
            g, t = g_new, t_next
    return levels, status, worst


# a cut lane's status as the error of a caller that needs its levels
_CUT_ERRORS = {
    "constraint": (ConstraintBreach, "left {band}"),
    "step": (StepError, "failed its error check at the shortest step"),
}


def _cut_error(o, kind, what, where):
    """The typed error for a cut lane of orientation o's boundary, by its status."""
    error, how = _CUT_ERRORS[kind]
    return error(f"{what} {how.format(band=o.band_text)} at {where}")


def default_put_grid(spec: ModelSpec, n=DEFAULT_N_STEPS + 1):
    """Descending grid of the put curve's nodes, truncation point to edge.

    Linear spacing down to a knee, then geometric: the boundary picks up a
    log(s) factor near s = 0, so the geometric tail keeps log s moving
    evenly between the nodes the curve's spline is built on.  The nodes
    set neither the march's steps nor its floor, only where the steps'
    extensions are read.
    """
    L = spec.strike
    knee = 0.05 * L
    eps = EDGE_FRACTION * L
    n_geo = min(512, n // 8)
    lin = np.linspace(spec.domain_s_max, knee, n - n_geo)
    geo = knee * np.exp(np.linspace(0.0, np.log(eps / knee), n_geo + 1))[1:]
    return np.concatenate([lin, geo])


def put_boundary_2d(
    spec: ModelSpec, s_grid=None, shoot_offset: float = 0.0
) -> BoundaryCurve:
    """Integrate the put boundary downward from its truncation asymptote.

    s_grid may be given in either orientation; integration always proceeds
    from the largest point, seeded with the asymptote there, minus any
    shoot_offset, which must be finite.  The curve is the put lane at
    y = 0: one lane of :func:`_march_lanes` on the put's :class:`OdeStage`
    at y = 0, whose roots and stage run on floats, down in log s (through
    ``math.exp``) at ``STEP_REL_TOL * DENSE_TOL_SHARE``.  The controller picks the
    steps (about 210 on the default 4097-node grid); every node is read
    from the continuous extension of the step that passes it.  The curve
    must stay strictly inside (0, min(L, rL/delta)) at every node, which
    also fixes the sign of the ODE's shared denominator; leaving that band
    raises ConstraintBreach, and a step at the shortest allowed length
    whose estimate exceeds the target raises StepError.
    """
    _require_s_only(spec, _PUT)
    if not math.isfinite(shoot_offset):
        raise ValueError(f"shoot_offset must be finite, got {shoot_offset!r}")
    L = spec.strike
    if s_grid is None:
        s_grid = default_put_grid(spec)
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size < 2:
        raise ValueError("s_grid must hold at least two points")
    if np.all(np.diff(s_grid) > 0):
        s_desc = s_grid[::-1]
    elif np.all(np.diff(s_grid) < 0):
        s_desc = s_grid
    else:
        raise ValueError("s_grid must be strictly monotone")
    if s_desc[-1] <= 0:
        raise DomainError("the boundary grid must stay strictly positive")

    g0 = float(put_asymptote(spec, s_desc[0])) - float(shoot_offset)
    # lane time runs linearly in log s, from the first node to the last
    u = np.log(s_desc)
    u0, du = float(u[0]), float(u[-1] - u[0])

    def stage(t):
        s = math.exp(u0 + t * du)
        ode, rate = OdeStage(*_roots_along(spec, s, 0.0, "s"), s, L), du * s
        return lambda g: rate * ode(g)

    vals, ((kind, c),), worst = _march_lanes(
        stage, g0, (u - u0) / du, np.zeros(s_desc.size, dtype=int),
        _PUT.band(spec, s_desc, 0.0),
        odestep.STEP_REL_TOL * odestep.DENSE_TOL_SHARE, L,
    )
    if kind != "ok":
        raise _cut_error(_PUT, kind, "put boundary", f"s={s_desc[c]:g}")

    grid_asc = s_desc[::-1]
    vals_asc = vals[::-1]
    curve = BoundaryCurve(grid_asc, vals_asc, max_step_error=worst)

    def gap(s):
        return float(curve(s)) - float(s)

    curve.switches = detect_switch_points(grid_asc, vals_asc, grid_asc, refine=gap)
    return curve


class PutSolution2D:
    """Value of the perpetual put in the (x, s) slice model.

    On slices where the boundary sits below the diagonal the value is the
    two-power solution with coefficients pinned by value matching and smooth
    fit at the boundary; on slices where it sits above, the whole slice is in
    the stopping region.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.curve = put_boundary_2d(spec)  # which checks the spec

    def boundary(self, s):
        return self.curve(s)

    def coefficients(self, s: float):
        """Coefficients (D1, D2) of x**beta1 and x**beta2 on the slice."""
        g = float(self.curve(s))
        g1, g2 = _roots_along(self.spec, float(s), 0.0)
        return _pinned_pair(g1, g2, g, self.spec.strike, _PUT.sign)

    def value(self, x, s):
        x = float(x)
        s = float(s)
        if not (0.0 < x <= s):
            raise DomainError(f"need 0 < x <= s, got x={x}, s={s}")
        g = float(self.curve(s))
        if x <= g or g >= s:
            return self.spec.strike - x
        d1, d2 = self.coefficients(s)
        g1, g2 = _roots_along(self.spec, s, 0.0)
        return d1 * x**g1 + d2 * x**g2

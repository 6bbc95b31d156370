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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .coefficients import ModelSpec, _pinned_pair, roots_arrays
from .errors import (
    ConstraintBreach,
    DomainError,
    ResolutionWarning,
    SingularDenominator,
    StepError,
)
from .odestep import ReuseStages, checked_step

STEP_REL_TOL = 1e-6
DEFAULT_N_STEPS = 4096
EDGE_FRACTION = 1e-6


def _require_s_only(spec: ModelSpec) -> None:
    for name, f in (("delta", spec.delta_field), ("sigma", spec.sigma_field)):
        if f.family == "bounded_rational":
            raise DomainError(
                f"{name} depends on the drawdown; use the three-dimensional solver"
            )


def _beta(spec: ModelSpec, s):
    """Characteristic roots and their s-derivatives along y = 0."""
    s = np.asarray(s, dtype=float)
    g1, g2, dg1, dg2, _, _ = roots_arrays(spec, s, np.zeros_like(s))
    return g1, g2, dg1, dg2


# ---------------------------------------------------------------------------
# switch-point detection


def detect_switch_points(grid, curve_values, ref_values, refine=None, min_gap=None):
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

    sgn = np.sign(d)
    # carry the previous nonzero sign through exact zeros so a touch that
    # comes back on the same side is not counted
    filled = sgn.copy()
    for k in range(1, filled.size):
        if filled[k] == 0.0:
            filled[k] = filled[k - 1]
    crossings = []
    for k in range(d.size - 1):
        a, b = filled[k], filled[k + 1]
        if a == 0.0 or b == 0.0 or a == b:
            continue
        if refine is not None:
            lo, hi = grid[k], grid[k + 1]
            flo, fhi = refine(lo), refine(hi)
            if flo == 0.0:
                pos = lo
            elif fhi == 0.0:
                pos = hi
            elif np.sign(flo) != np.sign(fhi):
                pos = brentq(refine, lo, hi, xtol=1e-10, rtol=8.9e-16)
            else:
                pos = grid[k] + (grid[k + 1] - grid[k]) * d[k] / (d[k] - d[k + 1])
        else:
            pos = grid[k] + (grid[k + 1] - grid[k]) * d[k] / (d[k] - d[k + 1])
        direction = "enter" if a > 0 else "exit"
        crossings.append((float(pos), direction))

    for (p1, _), (p2, _) in zip(crossings, crossings[1:]):
        i1 = np.searchsorted(grid, p1)
        i2 = np.searchsorted(grid, p2)
        if abs(int(i2) - int(i1)) <= 1:
            warnings.warn(
                f"switch points at s={p1:.6g} and s={p2:.6g} fall in adjacent "
                "grid cells; refine the grid to resolve the region ordering",
                ResolutionWarning,
                stacklevel=2,
            )
    return crossings


def region_index_of(switches, s) -> int:
    """Count regions from the outside in: 0 above every switch point."""
    return int(sum(1 for pos, _ in switches if s < pos))


@dataclass
class BoundaryCurve:
    """A stopping boundary sampled on an increasing s-grid."""

    grid: np.ndarray
    values: np.ndarray
    kind: str
    switches: list = field(default_factory=list)
    max_step_error: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape or self.grid.ndim != 1:
            raise ValueError("grid and values must match and be one-dimensional")
        self._spline = CubicSpline(self.grid, self.values)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < self.grid[0] - 1e-12) or np.any(s > self.grid[-1] + 1e-12):
            raise DomainError("query outside the sampled range of the boundary curve")
        return self._spline(np.clip(s, self.grid[0], self.grid[-1]))

    def region_index(self, s) -> int:
        return region_index_of(self.switches, float(s))


# ---------------------------------------------------------------------------
# call side


def call_boundary_2d(spec: ModelSpec, s):
    """Barrier level beta1 K / (beta1 - 1) for the running-max call."""
    _require_s_only(spec)
    g1, _, _, _ = _beta(spec, s)
    return g1 * spec.strike / (g1 - 1.0)


def call_switches(spec: ModelSpec, s_lo, s_hi, n=DEFAULT_N_STEPS + 1):
    grid = np.linspace(float(s_lo), float(s_hi), int(n))
    vals = call_boundary_2d(spec, grid)

    def gap(s):
        return float(call_boundary_2d(spec, s) - s)

    return detect_switch_points(grid, vals, grid, refine=gap)


class CallSolution2D:
    """Value of the perpetual call in the (x, s) slice model.

    Above the last switch point the barrier is reachable and the value is the
    usual power solution matched at the barrier.  Below it, the slice runs in
    a reflecting band and the barrier coefficient carries an integrating
    factor accumulated from the quotient of root derivatives.
    """

    def __init__(self, spec: ModelSpec, s_lo=None, s_hi=None, n=DEFAULT_N_STEPS + 1):
        _require_s_only(spec)
        self.spec = spec
        self.s_lo = float(s_lo) if s_lo is not None else EDGE_FRACTION * spec.strike
        self.s_hi = float(s_hi) if s_hi is not None else spec.domain_s_max
        self.switches = call_switches(spec, self.s_lo, self.s_hi, n)

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
            g1 = float(_beta(spec, np.array([s]))[0][0])
            return h ** (1.0 - g1) / g1
        anchor = self._anchor_above(s)
        g1a = float(_beta(spec, np.array([anchor]))[0][0])

        def integrand(q):
            return float(_beta(spec, np.array([q]))[2][0]) * np.log(q)

        acc, _ = quad(integrand, s, anchor, epsabs=1e-13, epsrel=1e-13, limit=200)
        return np.exp(acc) * anchor ** (1.0 - g1a) / g1a

    def value(self, x, s):
        x = float(x)
        s = float(s)
        if not (0.0 < x <= s):
            raise DomainError(f"need 0 < x <= s, got x={x}, s={s}")
        h = float(self.boundary(s))
        if h <= s and x >= h:
            return x - self.spec.strike
        g1 = float(_beta(self.spec, np.array([s]))[0][0])
        return self.coefficient(s) * x**g1


# ---------------------------------------------------------------------------
# put side


def put_asymptote(spec: ModelSpec, s=None):
    """Limit boundary beta2 L / (beta2 - 1) evaluated at the truncation point."""
    _require_s_only(spec)
    if s is None:
        s = spec.domain_s_max
    g2 = _beta(spec, s)[1]
    return g2 * spec.strike / (g2 - 1.0)


def _ode_terms(g1, g2, dg1, dg2, level, ref, strike):
    """Right-hand side of the boundary ODE and its shared denominator.

    level is the current boundary value, ref the coordinate at which the
    reflecting condition acts (s for the put, s - y for the call).  The two
    bracket terms degenerate as ref approaches level, so each switches to a
    quadratic expansion once |log(ref / level)| drops below 1e-6.
    """
    # lanes past a constraint breach carry NaN levels on purpose; let the
    # NaN flow through instead of warning
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return OdeStage(g1, g2, dg1, dg2, ref, strike).terms(level)


class OdeStage:
    """The boundary ODE frozen at one abscissa, as a function of the level.

    Construction computes everything that does not depend on the level (the
    factors of the denominator and numerators, the reciprocals inside the
    brackets), so a stepper that revisits the abscissa only pays for the
    level-dependent part.  Every expression is the one :func:`_ode_terms`
    has always evaluated, split at the same operations, so the results are
    bit for bit the same.  Callers silence floating-point warnings.
    """

    __slots__ = ("a", "b", "c1", "c2", "e1", "e2", "d12", "d21",
                 "inv12", "inv21", "dg1", "dg2", "ref")

    def __init__(self, g1, g2, dg1, dg2, ref, strike):
        self.a = (g1 - 1.0) * (g2 - 1.0)
        self.b = g1 * g2 * strike
        self.c1, self.c2 = g1 - 1.0, g2 - 1.0
        self.e1, self.e2 = g1 * strike, g2 * strike
        self.d21, self.d12 = g2 - g1, g1 - g2
        self.inv21, self.inv12 = 1.0 / self.d21, 1.0 / self.d12
        self.dg1, self.dg2 = dg1, dg2
        self.ref = ref

    def den(self, level):
        return self.a * level - self.b

    def terms(self, level):
        den = self.den(level)
        u = np.log(self.ref / level)
        n1 = (self.c2 * level - self.e2) * level
        n2 = (self.c1 * level - self.e1) * level
        small = np.abs(u) < 1e-6
        b1 = _bracket(self.d21, self.inv21, u, small)
        b2 = _bracket(self.d12, self.inv12, u, small)
        return (n1 / den) * b1 * self.dg1 + (n2 / den) * b2 * self.dg2, den

    def __call__(self, level):
        return self.terms(level)[0]


def _bracket(delta, inv, u, small):
    """1/delta + u / (1 - exp(delta u)), patched by its series where |u| is small.

    inv is 1/delta; the series is only evaluated when some lane needs it.
    """
    du = delta * u
    w = np.maximum(np.minimum(du, 700.0), -700.0)
    main = inv - u / np.expm1(w)
    if small.any():
        main = np.where(small, 0.5 * u - du * u / 12.0, main)
    return main


def put_rhs(spec: ModelSpec, s, g):
    """dg/ds for the put boundary; also returns the matching denominator."""
    g1, g2, dg1, dg2 = _beta(spec, s)
    return _ode_terms(g1, g2, dg1, dg2, g, s, spec.strike)


def _sign(v):
    """np.sign of a float, without a ufunc call per right-hand side."""
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else v


def _scalar_field_s(field, s):
    """(value, d/ds) of a maximum-only coefficient field at scalar s."""
    p = field.params
    if field.family == "constant":
        return p[0], 0.0
    return p[0] + p[1] * s / (1.0 + s), p[1] / (1.0 + s) ** 2


def _scalar_bracket(delta, u):
    if abs(u) < 1e-6:
        return 0.5 * u - delta * u * u / 12.0
    w = delta * u
    if w > 700.0:
        w = 700.0
    elif w < -700.0:
        w = -700.0
    return 1.0 / delta + u / (-math.expm1(w))


def _scalar_put_stage(spec: ModelSpec, s):
    """Scalar twin of put_rhs in plain float arithmetic, split at the abscissa.

    The descending march evaluates the right-hand side tens of thousands of
    times on scalars, where ndarray dispatch is pure overhead; formulas are
    identical to the array path.  The roots at s are computed here once;
    the returned function of the level g gives (rhs, den).
    """
    delta, dd_ds = _scalar_field_s(spec.delta_field, s)
    sigma, dsg_ds = _scalar_field_s(spec.sigma_field, s)
    r = spec.r
    L = spec.strike
    sig2 = sigma * sigma
    m = 0.5 - (r - delta) / sig2
    root = math.sqrt(m * m + 2.0 * r / sig2)
    prod = -2.0 * r / sig2
    big = m + root if m >= 0 else m - root
    other = prod / big
    g1, g2 = (big, other) if m >= 0 else (other, big)
    sig3 = sig2 * sigma
    phi = (sigma * dd_ds + 2.0 * (r - delta) * dsg_ds) / sig3
    ts = (m * phi - 2.0 * r * dsg_ds / sig3) / root
    dg1, dg2 = phi + ts, phi - ts
    a = (g1 - 1.0) * (g2 - 1.0)
    b = g1 * g2 * L
    c1, c2 = g1 - 1.0, g2 - 1.0
    e1, e2 = g1 * L, g2 * L
    d21, d12 = g2 - g1, g1 - g2

    def terms(g):
        den = a * g - b
        u = math.log(s / g)
        n1 = (c2 * g - e2) * g
        n2 = (c1 * g - e1) * g
        rhs = (n1 / den) * _scalar_bracket(d21, u) * dg1 + (
            n2 / den
        ) * _scalar_bracket(d12, u) * dg2
        return rhs, den

    return terms


def default_put_grid(spec: ModelSpec, n=DEFAULT_N_STEPS + 1):
    """Descending integration grid from the truncation point to the edge.

    Linear spacing down to a knee, then geometric: the boundary slope picks
    up a log(s) factor near s = 0, so fixed linear steps there would fail
    their error check while geometric steps keep log s moving evenly.
    """
    L = spec.strike
    knee = 0.05 * L
    eps = EDGE_FRACTION * L
    n_geo = min(512, n // 8)
    lin = np.linspace(spec.domain_s_max, knee, n - n_geo)
    geo = knee * np.exp(np.linspace(0.0, np.log(eps / knee), n_geo + 1))[1:]
    return np.concatenate([lin, geo])


def put_boundary_2d(
    spec: ModelSpec,
    s_grid=None,
    shoot_offset: float = 0.0,
    step_rel_tol: float = STEP_REL_TOL,
) -> BoundaryCurve:
    """Integrate the put boundary downward from its truncation asymptote.

    s_grid may be given in either orientation; integration always proceeds
    from the largest point, seeded with the asymptote there, minus any
    shoot_offset.  The curve must stay strictly inside (0, min(L, rL/delta));
    leaving that band raises ConstraintBreach.  A sign change or collapse of
    the shared denominator raises SingularDenominator, and a step whose
    Richardson estimate exceeds step_rel_tol raises StepError.
    """
    _require_s_only(spec)
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

    den_sign = 0.0

    def stage(s):
        terms = _scalar_put_stage(spec, s)

        def f(g):
            nonlocal den_sign
            rhs, den = terms(float(g))
            if den_sign == 0.0:
                den_sign = _sign(den)
            if _sign(den) != den_sign or abs(den) < 1e-12 * L:
                raise SingularDenominator(
                    f"boundary ODE denominator changed character near s={s:g} "
                    f"(value {den:g})"
                )
            return rhs

        return f

    # consecutive steps share their end and start abscissae
    stage = ReuseStages(stage)

    def check(s, g):
        cap = min(L, spec.r * L / float(spec.delta_field.value(s, 0.0)))
        if not (0.0 < g < cap):
            raise ConstraintBreach(
                f"put boundary {g:g} left (0, {cap:g}) at s={s:g}"
            )

    vals = np.empty_like(s_desc)
    g = float(put_asymptote(spec, s_desc[0])) - float(shoot_offset)
    check(float(s_desc[0]), g)
    vals[0] = g
    worst = 0.0
    for k in range(s_desc.size - 1):
        h = float(s_desc[k + 1] - s_desc[k])
        g_new, rel = checked_step(stage, float(s_desc[k]), g, h, scale_floor=1e-12 * L)
        rel = float(rel)
        worst = max(worst, rel)
        if rel > step_rel_tol:
            raise StepError(
                f"step from s={float(s_desc[k]):g} failed its error check "
                f"(relative estimate {rel:.3e}); use a finer grid"
            )
        g = float(g_new)
        check(float(s_desc[k + 1]), g)
        vals[k + 1] = g

    grid_asc = s_desc[::-1]
    vals_asc = vals[::-1]
    curve = BoundaryCurve(grid_asc, vals_asc, kind="put", max_step_error=worst)

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

    def __init__(
        self,
        spec: ModelSpec,
        s_grid=None,
        shoot_offset: float = 0.0,
        step_rel_tol: float = STEP_REL_TOL,
    ):
        _require_s_only(spec)
        self.spec = spec
        self.curve = put_boundary_2d(
            spec, s_grid, shoot_offset=shoot_offset, step_rel_tol=step_rel_tol
        )

    def boundary(self, s):
        return self.curve(s)

    def coefficients(self, s: float):
        """Coefficients (D1, D2) of x**beta1 and x**beta2 on the slice."""
        g = float(self.curve(s))
        g1, g2, _, _ = _beta(self.spec, np.array([float(s)]))
        return _pinned_pair(float(g1[0]), float(g2[0]), g, self.spec.strike, -1.0)

    def value(self, x, s):
        x = float(x)
        s = float(s)
        if not (0.0 < x <= s):
            raise DomainError(f"need 0 < x <= s, got x={x}, s={s}")
        g = float(self.curve(s))
        if x <= g or g >= s:
            return self.spec.strike - x
        d1, d2 = self.coefficients(s)
        g1, g2, _, _ = _beta(self.spec, np.array([s]))
        return d1 * x ** float(g1[0]) + d2 * x ** float(g2[0])


@lru_cache(maxsize=8)
def _default_call_solution(spec: ModelSpec) -> CallSolution2D:
    return CallSolution2D(spec)


@lru_cache(maxsize=8)
def _default_put_solution(spec: ModelSpec) -> PutSolution2D:
    return PutSolution2D(spec)


def call_value_2d(spec: ModelSpec, x, s):
    return _default_call_solution(spec).value(x, s)


def put_value_2d(spec: ModelSpec, x, s):
    return _default_put_solution(spec).value(x, s)

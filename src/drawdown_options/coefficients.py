"""Model primitives: coefficient fields, state validation, characteristic roots.

The market model is a diffusion whose dividend rate and volatility are fed by
two running functionals of the price path: the running maximum ``s`` and the
running maximum drawdown ``y``.  Everything downstream (boundary ODEs, value
assembly, simulation) consumes the pair of coefficient fields through the
helpers in this module, so the fields carry closed-form partial derivatives
with them rather than relying on numerical differentiation.

For frozen ``(s, y)`` the pricing operator applied to a power ``x**gamma``
yields the quadratic ``sigma^2/2 * gamma*(gamma-1) + (r-delta)*gamma - r``,
whose two real roots straddle the interval [0, 1].  ``roots`` evaluates the
pair and its four partial derivatives in a cancellation-safe way.

Call and put are one problem seen from two sides; what differs between the
sides sits in one ``_Orientation`` record per side, which the solvers, the
reflection closures and the simulator read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DomainError, NonPositiveCoefficient

FamilyName = Literal["constant", "s_only", "bounded_rational"]
PayoffKind = Literal["call", "put"]

_FAMILY_ARITY = {"constant": 1, "s_only": 2, "bounded_rational": 3}

_POSITIVITY_FLOOR = 1e-8
_AUDIT_GRID = 64


@dataclass(frozen=True)
class CoefficientField:
    """One scalar field c(s, y) from a small closed-under-restriction catalog.

    Families
    --------
    constant          c0
    s_only            c0 + c1 * s/(1+s)
    bounded_rational  c0 + c1 * s/(1+s) + c2 * y/(1+y)

    The saturating ratios keep every member bounded with a finite limit at
    infinity, and restricting ``bounded_rational`` to the diagonal s = y
    lands back inside ``s_only`` with c1 <- c1 + c2.
    """

    family: FamilyName
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_ARITY:
            raise ValueError(f"unknown coefficient family {self.family!r}")
        want = _FAMILY_ARITY[self.family]
        if len(self.params) != want:
            raise ValueError(
                f"family {self.family!r} takes {want} parameter(s), got {len(self.params)}"
            )
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError(
                f"family {self.family!r} needs finite parameters, got {self.params}"
            )

    def value(self, s, y):
        p = self.params
        if self.family == "constant":
            return p[0] + 0.0 * s + 0.0 * y
        if self.family == "s_only":
            return p[0] + p[1] * s / (1.0 + s) + 0.0 * y
        return p[0] + p[1] * s / (1.0 + s) + p[2] * y / (1.0 + y)

    def d_ds(self, s, y):
        if self.family == "constant":
            return 0.0 * s + 0.0 * y
        return self.params[1] / ((1.0 + s) * (1.0 + s)) + 0.0 * y

    def d_dy(self, s, y):
        if self.family == "bounded_rational":
            return self.params[2] / ((1.0 + y) * (1.0 + y)) + 0.0 * s
        return 0.0 * s + 0.0 * y

    def diagonal_restriction(self) -> "CoefficientField":
        """The field seen along s = y, expressed as an s_only member."""
        if self.family != "bounded_rational":
            return self
        c0, c1, c2 = self.params
        return CoefficientField("s_only", (c0, c1 + c2))


@dataclass(frozen=True)
class ModelSpec:
    """Full problem description: rate, payoff, and the two coefficient fields.

    Rate, strike and the domain bounds must be positive and finite.
    Construction audits positivity of both fields on a 64x64 log-spaced grid
    over the domain box [0, domain_s_max] x [0, domain_y_max] restricted to
    y <= s, rejecting anything that dips to 1e-8 or below, and requires the
    characteristic roots to be finite on that grid.
    """

    r: float
    strike: float
    payoff_kind: PayoffKind
    delta_field: CoefficientField
    sigma_field: CoefficientField
    domain_s_max: float = 20.0
    domain_y_max: float = 20.0

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.r}")
        if not 0 < self.strike < math.inf:
            raise ValueError(f"strike must be positive and finite, got {self.strike}")
        if self.payoff_kind not in ("call", "put"):
            raise ValueError(f"payoff_kind must be 'call' or 'put', got {self.payoff_kind!r}")
        if not (0 < self.domain_s_max < math.inf and 0 < self.domain_y_max < math.inf):
            raise ValueError("domain box must have positive, finite extent")
        s = np.geomspace(self.domain_s_max * 1e-6, self.domain_s_max, _AUDIT_GRID)
        y = np.concatenate([[0.0], np.geomspace(self.domain_y_max * 1e-6,
                                                self.domain_y_max, _AUDIT_GRID - 1)])
        ss, yy = np.meshgrid(s, y, indexing="ij")
        yy = np.minimum(yy, ss)  # audit the admissible quadrant y <= s
        vals = {}
        for name, field in (("delta", self.delta_field), ("sigma", self.sigma_field)):
            vals[name] = np.asarray(field.value(ss, yy), dtype=float)
            if not np.all(vals[name] > _POSITIVITY_FLOOR):
                worst = float(vals[name].min())
                raise NonPositiveCoefficient(
                    f"{name} field reaches {worst:.3e} on the domain box "
                    f"(floor {_POSITIVITY_FLOOR:.0e})"
                )
        # a finite rate can still be so large that the roots overflow
        with np.errstate(over="ignore", invalid="ignore"):
            g1, g2, *_ = _root_pair(self.r, vals["delta"], vals["sigma"])
        if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
            raise ValueError(
                "characteristic roots are not finite on the domain box; "
                f"rate {self.r:g} or a field is too large"
            )

    def payoff(self, x):
        """The payoff at x, elementwise; a float gives a float."""
        hi = max if isinstance(x, float) else np.maximum
        if self.payoff_kind == "call":
            return hi(x - self.strike, 0.0)
        return hi(self.strike - x, 0.0)

    def diagonal_spec(self) -> "ModelSpec":
        """Companion model whose fields depend on the running maximum only.

        Used to seed the three-dimensional boundary slices at the diagonal,
        where the drawdown coordinate coincides with the running maximum of
        the two-dimensional companion problem.
        """
        return ModelSpec(
            r=self.r,
            strike=self.strike,
            payoff_kind=self.payoff_kind,
            delta_field=self.delta_field.diagonal_restriction(),
            sigma_field=self.sigma_field.diagonal_restriction(),
            domain_s_max=self.domain_s_max,
            domain_y_max=self.domain_y_max,
        )


@dataclass(frozen=True)
class StateTriple:
    """A point (x, s, y) of the state space {0 < s - y <= x <= s}."""

    x: float
    s: float
    y: float

    def __post_init__(self) -> None:
        if not self.s - self.y > 0:
            raise DomainError(f"need s - y > 0, got s={self.s}, y={self.y}")
        if not self.s - self.y <= self.x <= self.s:
            raise DomainError(
                f"x={self.x} outside [s-y, s] = [{self.s - self.y}, {self.s}]"
            )


@dataclass(frozen=True)
class RootPair:
    """Characteristic roots at one (s, y) with their four partial derivatives."""

    gamma1: float
    gamma2: float
    dgamma1_ds: float
    dgamma2_ds: float
    dgamma1_dy: float
    dgamma2_dy: float

    def __post_init__(self) -> None:
        if not self.gamma2 < 0 < 1 < self.gamma1:
            raise ValueError(
                f"root ordering gamma2 < 0 < 1 < gamma1 violated: "
                f"({self.gamma1}, {self.gamma2})"
            )


def eval_fields(spec: ModelSpec, s, y):
    """Both fields and their partials at (s, y).

    Returns (delta, sigma, ddelta_ds, ddelta_dy, dsigma_ds, dsigma_dy).
    Accepts scalars or broadcastable arrays; raises DomainError off the
    quadrant 0 <= y <= s.
    """
    check_quadrant(s, y)
    d = spec.delta_field
    g = spec.sigma_field
    return (
        d.value(s, y), g.value(s, y),
        d.d_ds(s, y), d.d_dy(s, y),
        g.d_ds(s, y), g.d_dy(s, y),
    )


def check_quadrant(s, y) -> None:
    """Raise DomainError unless every (s, y) pair has s > 0 and 0 <= y <= s.

    NaN entries pass: lanes past a constraint breach carry them on purpose.
    Two floats (numpy scalars included) are compared as floats.
    """
    if isinstance(s, float) and isinstance(y, float):
        bad = s <= 0 or y < 0 or y > s
    else:
        s_arr, y_arr = np.asarray(s, dtype=float), np.asarray(y, dtype=float)
        bad = np.any((s_arr <= 0) | (y_arr < 0) | (y_arr > s_arr))
    if bad:
        raise DomainError("eval_fields requires s > 0 and 0 <= y <= s")


def _root_pair(r, delta, sigma):
    """(gamma1, gamma2, m, R, sigma^3): the roots and the pieces their slopes reuse.

    With r > 0 the roots have opposite signs, so gamma1 is the larger one.
    Arrays go through ufuncs, floats (numpy scalars too) through math and
    one comparison, with the same bits: both round sqrt correctly, and the
    roots are never equal (both are NaN or neither).
    """
    one = isinstance(delta, float) and isinstance(sigma, float)
    sig2 = sigma * sigma
    m = 0.5 - (r - delta) / sig2
    root = (math.sqrt if one else np.sqrt)(m * m + 2.0 * r / sig2)
    prod = -2.0 * r / sig2
    # m -+ R for m >= 0 and m < 0 (m is never -0.0)
    big = m + (math.copysign if one else np.copysign)(root, m)
    other = prod / big
    if one:
        g1, g2 = (big, other) if big > other else (other, big)
    else:
        g1, g2 = np.maximum(big, other), np.minimum(big, other)
    return g1, g2, m, root, sig2 * sigma


def _root_slopes(r, delta, sigma, pair, d_delta, d_sigma):
    """Partials of (gamma1, gamma2) along one coordinate, from the field partials."""
    _, _, m, root, sig3 = pair
    phi = (sigma * d_delta + 2.0 * (r - delta) * d_sigma) / sig3
    t = (m * phi - 2.0 * r * d_sigma / sig3) / root
    return phi + t, phi - t


def _roots_along(spec: ModelSpec, s, y, wrt):
    """(gamma1, gamma2, dgamma1, dgamma2) with partials along s or y.

    For points already checked against the quadrant (a marcher validates
    its lattice once).  Only the partials the caller needs are evaluated;
    the values are those of roots_arrays, bit for bit.
    """
    d, g = spec.delta_field, spec.sigma_field
    if wrt == "s":
        dd, dsg = d.d_ds(s, y), g.d_ds(s, y)
    else:
        dd, dsg = d.d_dy(s, y), g.d_dy(s, y)
    delta, sigma = d.value(s, y), g.value(s, y)
    pair = _root_pair(spec.r, delta, sigma)
    return pair[:2] + _root_slopes(spec.r, delta, sigma, pair, dd, dsg)


def roots_arrays(spec: ModelSpec, s, y):
    """Array form of :func:`roots`; returns six ndarrays (or scalars).

    The larger-magnitude root comes straight from the quadratic formula, the
    other via the product identity gamma1*gamma2 = -2r/sigma^2, which avoids
    the cancellation m -+ R when |m| is close to R.
    """
    delta, sigma, dd_ds, dd_dy, dsg_ds, dsg_dy = eval_fields(spec, s, y)
    pair = _root_pair(spec.r, delta, sigma)
    return (
        pair[:2]
        + _root_slopes(spec.r, delta, sigma, pair, dd_ds, dsg_ds)
        + _root_slopes(spec.r, delta, sigma, pair, dd_dy, dsg_dy)
    )


def _critical_level(g1, g2, strike, sign):
    """g K / (g - 1) for the root on the payoff's side: g1 for a call, g2 for a put.

    sign is the payoff's slope in x, +1 for a call and -1 for a put.  At
    this level a pinned pair needs only that root's power.
    """
    g = g1 if sign > 0 else g2
    return g * strike / (g - 1.0)


def _pinned_pair(g1, g2, level, strike, sign, target=None, x_end=None):
    """Two-power pair (C1, C2) pinned at level by value matching and smooth fit.

    C1 x**g1 + C2 x**g2 takes the value target at x = level, with the
    payoff's slope sign there; target defaults to the payoff
    sign * (level - strike).  Each coefficient is written in factored form,

        C = [sign (g_o - 1)(level - g_o K/(g_o - 1)) + g_o e] / [(g_o - g) level**g],

    with g its own root, g_o the other one and e = target - sign (level - K)
    the target's excess over the payoff.  A payoff target gives e = 0
    exactly, so at the critical level (:func:`_critical_level`) the
    complementary coefficient is exactly zero, not a rounding residue that a
    tiny x**g2 would amplify.

    x_end, when given, is the exposed far end of the x-line (its floor for
    a call, its top for a put).  A level on the wrong side of the critical
    level makes the complementary coefficient negative; that is harmless on
    a short line, but on a long one the value dips below the payoff at the
    far end, which happens whenever integration noise tips a near-critical
    level across.  Past the tangency the value is monotone toward the far
    end, and with both coefficients positive the value-payoff gap is convex
    with minimum zero at the level, so checking the far end alone decides
    dominance.  When it fails, the level moves to the critical point with
    the target following the payoff's slope (e is kept); the matching
    conditions at the original level are then off by O(shift^2) only.  A far
    end at the level itself holds the target by construction and is not
    tested: the test would only compare two roundings of one number.
    """
    e = 0.0 if target is None else target - sign * (level - strike)

    def pair(lv):
        return tuple(
            (sign * (go - 1.0) * (lv - go * strike / (go - 1.0)) + go * e)
            / ((go - g) * lv**g)
            for g, go in ((g1, g2), (g2, g1))
        )

    c1, c2 = pair(level)
    if x_end is not None and x_end > 0.0 and x_end != level:
        val = c1 * x_end**g1 + c2 * x_end**g2
        if val < max(sign * (x_end - strike), 0.0):
            c1, c2 = pair(_critical_level(g1, g2, strike, sign))
    return c1, c2


def _libm_pow(base, g):
    """base**g through the C library's pow, on floats or elementwise on arrays.

    numpy's SIMD power can round the last bit differently from libm's pow,
    and which SIMD path runs depends on the CPU; libm keeps each entry equal
    to the scalar base**g (a Python float's or a numpy scalar's) on any CPU.
    """
    if np.ndim(base) == 0 and np.ndim(g) == 0:
        return math.pow(base, g)
    b, e = np.broadcast_arrays(base, g)
    out = list(map(math.pow, b.ravel().tolist(), e.ravel().tolist()))
    return np.array(out, dtype=float).reshape(b.shape)


def _dvalue_dx(c1, g1, c2, g2, x):
    """First x-derivative of C1 x**g1 + C2 x**g2, powers through libm."""
    return c1 * g1 * _libm_pow(x, g1 - 1.0) + c2 * g2 * _libm_pow(x, g2 - 1.0)


def _d2value_dx2(c1, g1, c2, g2, x):
    """Second x-derivative of C1 x**g1 + C2 x**g2, powers through libm."""
    first = c1 * g1 * (g1 - 1.0) * _libm_pow(x, g1 - 2.0)
    return first + c2 * g2 * (g2 - 1.0) * _libm_pow(x, g2 - 2.0)


@dataclass(frozen=True)
class _Orientation:
    """What differs between the call side and the put side.

    sign       the payoff's slope in x, +1 or -1; it also picks the critical
               root, g1 for the call and g2 for the put (see
               _critical_level)
    fixed      the coordinate a boundary slice holds fixed, "s" or "y"; the
               slice marches along the other one
    direction  +1 when the march runs toward larger values, -1 otherwise
    edge       (s, y) -> the end of the x-line on the continuation side:
               where the slice ODE's reflecting condition acts, and the
               exposed far end of a direct line
    band       (spec, s, y) -> the open interval the barrier must stay in
    band_text  that interval as the error messages write it
    above      label of a line whose barrier lies above s
    below      label of a line whose barrier lies below its floor s - y
    """

    kind: str
    sign: float
    fixed: str
    direction: float
    edge: Callable
    band: Callable
    band_text: str
    above: str
    below: str

    @property
    def moving(self):
        return "y" if self.fixed == "s" else "s"

    def swap(self, a, b):
        """(s, y) from a slice's (fixed, moving) pair, or back: the same swap."""
        return (a, b) if self.fixed == "s" else (b, a)

    def require(self, spec):
        """Raise DomainError unless spec is a model of this side's payoff.

        The spec's payoff_kind alone decides call or put; every per-kind
        entry point checks it here.
        """
        if spec.payoff_kind != self.kind:
            raise DomainError(f"spec is a {spec.payoff_kind} model, not a {self.kind} model")

    def fixed_major(self, a):
        """An (s, y) lattice array indexed [fixed, moving], or back."""
        return a if self.fixed == "s" else a.T

    def stop_side(self, x, level):
        """Mask of the prices x on the stopped side of level."""
        return x >= level if self.sign > 0 else x <= level

    def gap(self, level, x):
        """Signed distance from x to level, positive on the continuation side.

        x and level may be any increasing transform of price and barrier,
        such as their logs.
        """
        return level - x if self.sign > 0 else x - level

    def parts(self, level, s, y):
        """(lo, hi) of the continuation and the stopped part of the line.

        The line is [s - y, s], cut at level; the stopped part clamps level
        into the line.  Floats or arrays, one entry per line.
        """
        if self.sign > 0:
            return (s - y, level), (np.maximum(level, s - y), s)
        return (level, s), (s - y, np.minimum(level, s))


def _call_band(spec: ModelSpec, s, y):
    d = spec.delta_field.value(s, y)
    return np.maximum(spec.strike, spec.r * spec.strike / d), np.inf


def _put_band(spec: ModelSpec, s, y):
    d = spec.delta_field.value(s, y)
    return 0.0, np.minimum(spec.strike, spec.r * spec.strike / d)


_CALL = _Orientation(
    kind="call", sign=1.0, fixed="s", direction=-1.0,
    edge=lambda s, y: s - y, band=_call_band, band_text="(max(L, rL/delta), inf)",
    above="reflect", below="stop",
)
_PUT = _Orientation(
    kind="put", sign=-1.0, fixed="y", direction=1.0,
    edge=lambda s, y: s, band=_put_band, band_text="(0, min(L, rL/delta))",
    above="stop", below="reflect",
)
_ORIENT = {o.kind: o for o in (_CALL, _PUT)}


def roots(spec: ModelSpec, s: float, y: float) -> RootPair:
    """Characteristic root pair with derivatives at one finite (s, y), else DomainError."""
    s, y = float(s), float(y)
    if not (math.isfinite(s) and math.isfinite(y)):
        raise DomainError(f"need finite s and y, got s={s}, y={y}")
    g1, g2, d1s, d2s, d1y, d2y = roots_arrays(spec, s, y)
    return RootPair(float(g1), float(g2), float(d1s), float(d2s), float(d1y), float(d2y))


def generator_residual(
    spec: ModelSpec,
    f: Callable[[float], float],
    point: StateTriple,
    dfdx: Callable[[float], float] | None = None,
    d2fdx2: Callable[[float], float] | None = None,
) -> float:
    """(L f - r f)(x) with coefficients frozen at the point's (s, y).

    ``f`` is a function of the price coordinate alone.  Derivatives are taken
    from the supplied callables when given (solver output has exact power-form
    derivatives) and from central differences otherwise.  The point must be
    interior: s - y < x < s.
    """
    x, s, y = point.x, point.s, point.y
    if not (s - y < x < s):
        raise DomainError(f"interior point required, got x={x} on [s-y, s]=[{s - y}, {s}]")
    if dfdx is not None and d2fdx2 is not None:
        fp, fpp = dfdx(x), d2fdx2(x)
    else:
        h = min(1e-5 * max(abs(x), spec.strike), 0.5 * (x - (s - y)), 0.5 * (s - x))
        fp = (f(x + h) - f(x - h)) / (2.0 * h)
        fpp = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    return _generator(spec, x, s, y, f(x), fp, fpp)


def _generator(spec: ModelSpec, x, s, y, v, fp, fpp):
    """(L f - r f) at x from f's value v and x-derivatives fp, fpp there.

    Floats or arrays alike, with the coefficients frozen at each (s, y);
    sigma**2 goes through libm's pow, so an array entry has the bits of the
    same point taken on its own.
    """
    delta, sigma, *_ = eval_fields(spec, s, y)
    return (spec.r - delta) * x * fp + 0.5 * _libm_pow(sigma, 2.0) * x * x * fpp - spec.r * v

"""Simulation-side check of the analytic solutions.

Paths follow the log-Euler scheme with the dividend and volatility fields
frozen at the running (S, Y) of the step start; the running maximum and
drawdown update after each move, which keeps every path inside the state
space by construction.  Stopping is first passage of X through a supplied
barrier rule; the crossing time and level are refined linearly in log X
inside the triggering step.

Every draw is a pure function of (seed, slot, step, path): a SplitMix64
hash of the counter (step << 32) | path under a key per (seed, slot), with
slot 0 the step's normal and slot 1 its bridge uniform (see
:func:`_draws`).  The path is the global index in the pass, so a result
does not depend on how paths are batched into blocks (``block_size``
bounds memory only), runs that differ only in horizon share every common
step's draws, and perturbed reruns with the same seed share every draw.
Each step hashes only the paths still live.

Several rules can ride on one pass (:func:`simulate_stopped_payoffs`): a
path's trajectory does not depend on the rule that stops it, so one set of
draws and one field evaluation per step serve every rule, and each rule's
result equals its own separate run bit for bit.  Within a pass, the step
coefficients and each rule's barrier level are kept per path and
recomputed only where (S, Y) moved, since both are functions of (S, Y)
alone.  Rules that rescale one barrier (:meth:`BarrierRule.scaled`) share
its lookup: each step looks up every distinct barrier once and multiplies
by each rule's factor.  The bridge crossing test u < exp(v) takes its exp
only on the lanes that pass the screen v >= log(u) - BRIDGE_MARGIN, which
every crossing lane passes, so the screen decides each lane as the full
test does (see :func:`_bridge_crossed`).  Every rule is tested in one set
of array operations, one row per rule.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import asdict, dataclass
import numpy as np

from .coefficients import _ORIENT, ModelSpec, StateTriple, _generator
from .errors import ConfigError

TRUNCATION_BUDGET = 1e-3


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.

    n_paths and block_size are ints (not bools), and seed is an int in
    [0, 2**64).  block_size is the number of paths simulated together: it
    bounds the memory of a block's arrays and changes no result.  Each step
    pays a fixed cost per numpy call and block, so the default keeps a
    20,000-path pass in one block.
    """

    n_paths: int
    dt: float
    horizon: float
    seed: int = 0
    block_size: int = 32768

    def __post_init__(self):
        for name in ("n_paths", "block_size"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ConfigError(f"{name} must be an int, got {v!r}")
        if self.n_paths < 100:
            raise ConfigError(f"n_paths must be at least 100, got {self.n_paths}")
        if not 0.0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.horizon):
            raise ConfigError(f"horizon must be finite, got {self.horizon}")
        if self.horizon < 100 * self.dt:
            raise ConfigError(
                f"horizon {self.horizon} shorter than 100 steps of dt={self.dt}"
            )
        if self.block_size < 1:
            raise ConfigError("block_size must be positive")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not (
            0 <= int(seed) < 2**64
        ):
            raise ConfigError(f"seed must be an int in [0, 2**64), got {seed!r}")
        # a draw's counter holds the step and the path in 32 bits each
        if self.n_paths > 2**32 or round(self.horizon / self.dt) >= 2**32:
            raise ConfigError("need at most 2**32 paths and fewer than 2**32 steps")


class BarrierRule:
    """A stopping barrier in (S, Y): a factor times a lookup.

    A subclass gives the lookup, ``_lookup(s, y)``.  A rule is built with
    factor 1.0 and is its own ``unit``; every :meth:`scaled` copy keeps that
    unit, so a pass over several scalings of one barrier looks it up once
    and multiplies: ``factor * unit.level(s, y)`` is ``level(s, y)`` bit for
    bit.
    """

    def __init__(self):
        self.factor = 1.0
        self.unit = self

    def level(self, s, y):
        return self.factor * self._lookup(s, y)

    def scaled(self, f):
        rule = copy.copy(self)
        rule.factor = float(self.factor * f)
        return rule


class ConstantRule(BarrierRule):
    """Flat stopping barrier."""

    def __init__(self, value):
        super().__init__()
        self.value = float(value)

    def _lookup(self, s, y):
        return np.full(np.shape(s), self.value)


class CurveRule(BarrierRule):
    """Barrier read off a curve in the running maximum."""

    def __init__(self, s_grid, values):
        super().__init__()
        self.s_grid = np.asarray(s_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def _lookup(self, s, y):
        return np.interp(s, self.s_grid, self.values)


class SurfaceRule(BarrierRule):
    """Barrier read off a boundary surface in (S, Y)."""

    def __init__(self, surface):
        super().__init__()
        self.surface = surface

    def _lookup(self, s, y):
        return self.surface.level_at(s, y)


def rule_from_solution(solution):
    """Wrap a solved boundary as a stopping rule for the simulator."""
    surface = getattr(solution, "surface", None)
    if surface is not None:
        return SurfaceRule(surface)
    curve = getattr(solution, "curve", None)
    if curve is not None:
        return CurveRule(curve.grid, curve.values)
    boundary = getattr(solution, "boundary", None)
    if boundary is not None and hasattr(solution, "s_lo"):
        grid = np.linspace(solution.s_lo, solution.s_hi, 2049)
        return CurveRule(grid, np.asarray(boundary(grid), dtype=float))
    raise TypeError("cannot build a stopping rule from this solution object")


@dataclass(frozen=True)
class SimResult:
    mean: float
    stderr: float
    n_paths: int
    n_horizon: int
    mean_stop_time: float

    def as_dict(self):
        return asdict(self)


def simulate_stopped_payoff(
    spec: ModelSpec, start: StateTriple, rule, cfg: SimConfig
) -> SimResult:
    """Estimate the discounted payoff of stopping at the rule's barrier.

    Paths that never touch the barrier are cashed out at the horizon; the
    config must keep the discount weight of that tail below the documented
    budget or the estimate would carry a visible truncation bias.  This is
    the one-rule case of :func:`simulate_stopped_payoffs`.
    """
    return simulate_stopped_payoffs(spec, start, [rule], cfg)[0]


def simulate_stopped_payoffs(
    spec: ModelSpec, start: StateTriple, rules, cfg: SimConfig
) -> list:
    """One :class:`SimResult` per rule, all from one pass over one set of draws.

    A path's trajectory does not depend on the rule that stops it, so the
    rules ride along on the same paths: each step draws once, moves every
    path still live under some rule once, and then tests each rule's
    barrier.  Every result equals the one :func:`simulate_stopped_payoff`
    gives for that rule alone, bit for bit; the rules share the work and
    the draws (common random numbers).
    """
    payoffs, stop_times, n_horizon = _stopped_paths(spec, start, rules, cfg)
    return [
        SimResult(
            mean=float(np.mean(payoffs[k])),
            stderr=float(np.std(payoffs[k], ddof=1) / np.sqrt(cfg.n_paths)),
            n_paths=cfg.n_paths,
            n_horizon=int(n_horizon[k]),
            mean_stop_time=float(np.mean(stop_times[k])),
        )
        for k in range(len(payoffs))
    ]


def _stopped_paths(spec, start, rules, cfg):
    """(payoffs, stop_times, n_horizon) of one pass over every rule.

    payoffs and stop_times hold each path's discounted payoff and stop
    time, one row per rule; n_horizon counts per rule the paths cashed out
    at the horizon.  The paths run in blocks of ``cfg.block_size``, which bounds the memory
    of a block's arrays and changes no bit: a path's draws are keyed by its
    index in the pass (:func:`_draws`).
    """
    rules = list(rules)
    tail = np.exp(-spec.r * cfg.horizon)
    if tail > TRUNCATION_BUDGET:
        raise ConfigError(
            f"horizon {cfg.horizon} leaves discount weight {tail:.2e} above "
            f"the truncation budget {TRUNCATION_BUDGET:g}; extend it"
        )
    o = _ORIENT[spec.payoff_kind]
    n_steps = int(round(cfg.horizon / cfg.dt))
    keys = _stream_keys(cfg.seed)
    payoffs = np.empty((len(rules), cfg.n_paths))
    stop_times = np.empty((len(rules), cfg.n_paths))
    n_horizon = np.zeros(len(rules), dtype=int)
    for first in range(0, cfg.n_paths, cfg.block_size):
        block = slice(first, first + cfg.block_size)
        n_horizon += _run_block(
            spec, o, rules, start, cfg, keys, first, n_steps,
            payoffs[:, block], stop_times[:, block],
        )
    return payoffs, stop_times, n_horizon


# ---------------------------------------------------------------------------
# counter-keyed draws

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's Weyl increment, odd
_STEP_GAMMA = (_GAMMA << 32) % 2**64  # a step adds 1 << 32 to the counter
_U53 = 2.0**-53  # the lattice of a 53-bit fraction
_U52 = 2.0**-52


def _mix64(z):
    """SplitMix64's finaliser, in place on a uint64 array; a bijection."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _mix64_int(x):
    return int(_mix64(np.array([x % 2**64], dtype=np.uint64))[0])


def _stream_keys(seed):
    """The keys of a seed's draw slots: slot 0 the normals, slot 1 the uniforms.

    Each key is the finaliser of a hash of the seed, which is a bijection, so
    distinct seeds in [0, 2**64) give distinct keys in every slot.  A later
    slot adds a key and leaves these two bit for bit.
    """
    base = _mix64_int(int(seed) + _GAMMA)
    return [_mix64_int(base + (slot + 1) * _GAMMA) for slot in (0, 1)]


def _path_weyl(paths):
    """Each path's Weyl term path * GAMMA mod 2**64, the path's part of its hash input."""
    return np.asarray(paths).astype(np.uint64) * np.uint64(_GAMMA)


def _hashes(weyl, key, step):
    """SplitMix64 at counter (step << 32) | path under key, one hash per path.

    The finaliser's input is key + counter * GAMMA mod 2**64, which is
    SplitMix64's state after counter steps from key; for a fixed key it is a
    bijection of the counter, so no two (step, path) pairs share a hash.
    """
    return _mix64(weyl + np.uint64((key + step * _STEP_GAMMA) % 2**64))


def _uniforms(h):
    """Uniforms on [0, 1): each hash's top 53 bits times 2**-53.

    They lie on the 2**-53 lattice, which :func:`_bridge_crossed` relies on.
    """
    return (h >> np.uint64(11)) * _U53


def _normals(h):
    """Standard normals ndtri((m + 0.5) 2**-52) of each hash's top 52 bits m.

    The midpoints are exact in double and lie in [2**-53, 1 - 2**-53], so
    every normal is finite, within about 8.2 of zero.  (With 53 bits the
    top midpoint 1 - 2**-54 would round to 1, where ndtri is infinite.)
    scipy is imported here, so a process loads it at its first draw only.
    """
    from scipy.special import ndtri

    return ndtri(((h >> np.uint64(12)) + 0.5) * _U52)


def _draws(keys, weyl, step):
    """The step's normal and bridge uniform for the paths whose Weyl terms
    are weyl (:func:`_path_weyl`), hashed under slots 0 and 1 of keys."""
    return _normals(_hashes(weyl, keys[0], step)), _uniforms(_hashes(weyl, keys[1], step))


def _step_coeffs(spec, dt, s, y):
    """Log-Euler drift, diffusion scale and bridge variance at (S, Y).

    The dividend and volatility fields are frozen at the running (S, Y) of
    each step start.
    """
    dlt = spec.delta_field.value(s, y)
    sig = spec.sigma_field.value(s, y)
    return (spec.r - dlt - 0.5 * sig**2) * dt, sig * np.sqrt(dt), sig**2 * dt


def _unit_levels(rules):
    """levels(s, y): every rule's barrier level, one lookup per distinct unit.

    Returns one row per rule: the rule's factor times its unit's level,
    which is the rule's own ``level`` bit for bit.  A rule without a
    ``unit`` (any object with a ``level`` method) is its own unit with
    factor 1.0.
    """
    units, which, factors = {}, [], []  # units: id -> (row, unit)
    for rule in rules:
        unit = getattr(rule, "unit", rule)
        which.append(units.setdefault(id(unit), (len(units), unit))[0])
        factors.append(1.0 if unit is rule else rule.factor)
    units = [unit for _, unit in units.values()]
    factors = np.array(factors)[:, None]

    def levels(s, y):
        raw = [unit.level(s, y) for unit in units]
        return factors * np.array([raw[k] for k in which])

    return levels


BRIDGE_MARGIN = 1e-9  # log-space slack of the bridge screen


def _bridge_crossed(d_prev, d_new, var, u, lu):
    """Mask of the lanes whose Brownian bridge crosses the barrier in the step.

    The log-Euler step is a Brownian bridge between its endpoints, so a pair
    with both gaps positive (neither endpoint past the barrier) still
    crosses with probability exp(v), v = -2 d_prev d_new / var; a lane
    crosses where its uniform u < exp(v).  The exp is taken only on
    candidates with v >= lu - BRIDGE_MARGIN, lu = log(u).  A uniform is 0
    or at least 2**-53, so u < exp(v) with u > 0 needs v > -37, where exp
    and log are accurate to about 1e-14, far inside the margin: every lane
    the full test passes is a candidate, and the mask equals
    ``(min(d_prev, d_new) > 0) & (u < exp(v))`` bit for bit.  u == 0 gives
    lu = -inf, a candidate wherever v is not NaN; NaN and infinite gaps
    compare alike on both forms.

    The gaps may hold one row per rule; var, u and lu are per lane and
    broadcast over the rows.
    """
    # -2.0 * d_prev * d_new / var, in place to hold one (rules, paths) temporary
    v = -2.0 * d_prev
    v *= d_new
    v /= var
    screen = (d_prev > 0.0) & (d_new > 0.0) & (v >= lu - BRIDGE_MARGIN)
    # flat indices: nonzero on a 2-D mask costs several times more
    cand = screen.ravel().nonzero()[0]
    crossed = np.zeros(v.size, dtype=bool)
    crossed[cand] = u[cand % u.size] < np.exp(v.ravel()[cand])
    return crossed.reshape(v.shape)


def _step_stops(o, lvl, la, lx, x_new, lx_new, var, u, live):
    """The live (rule, path) pairs that stop in a step, and where in the step.

    Returns flat indices into the (rules, paths) arrays and, per stop, the
    fraction theta of the step at which log X meets the log barrier,
    interpolated linearly: from the gaps' difference on an endpoint hit, and
    at the weighted point between the two positive gaps on a bridge
    crossing.  The (rules, paths) temporaries end with the call, so they do
    not outlive the step.
    """
    hit = o.stop_side(x_new, lvl)
    d_prev, d_new = o.gap(la, lx), o.gap(la, lx_new)
    bridge = _bridge_crossed(d_prev, d_new, var, u, np.log(u))
    stop = ((hit | bridge) & live).ravel().nonzero()[0]
    dp, dn = d_prev.ravel()[stop], d_new.ravel()[stop]
    theta = np.where(hit.ravel()[stop], dp / (dp - dn), dp / (dp + dn))
    # NaN reads as 1; t_hit keeps its bits where -0.0 becomes 0.0
    return stop, np.fmax(np.fmin(theta, 1.0), 0.0)


def _run_block(spec, o, rules, start, cfg, keys, first, n_steps, payoff, stop_time):
    """Simulate one block of paths under every rule at once.

    o is the payoff's orientation record: it says which side of a barrier
    stops a path.  first is the index in the pass of the block's first
    path, and keys are the seed's draw keys (:func:`_stream_keys`).

    Fills ``payoff`` and ``stop_time`` (one row per rule, one column per
    path of the block) and returns the horizon cash-out count per rule.

    Paths stay compacted on those still live under at least one rule; idx
    maps them back to block positions.  ``live[k]`` marks the paths rule k
    has not stopped yet; a path every rule has stopped rides along masked
    until such paths make up a 32nd of the arrays, and is then dropped.
    The per-rule arrays hold one row per rule, and each step tests every
    rule in one set of array operations.

    Each step draws for the compacted paths alone.  A path's normal and
    uniform are hashes of its index in the pass and the step
    (:func:`_draws`), so they do not depend on which other paths are live,
    on the block, or on the horizon.

    (S, Y) moves on only a small share of path-steps, so everything that
    depends on it alone is kept per path and recomputed only where it
    moved: the step coefficients, and per rule the barrier level and its
    log.  Every rule's level is a function of (S, Y) alone, and each kept
    value is the expression the step would evaluate afresh, so the cache
    changes no bit.  Rules that scale one barrier share its lookup
    (:func:`_unit_levels`): the moved (S, Y) are looked up once per
    distinct barrier, and each rule's level is its factor times that.

    Each step takes log(u) once, and the bridge probability's exp only on
    the lanes where the log-space screen leaves a crossing possible
    (:func:`_bridge_crossed`), which decides every lane as the full test
    would.
    """
    payoff[:] = 0.0
    stop_time[:] = cfg.horizon

    x = np.full(payoff.shape[1], float(start.x))
    s = np.full_like(x, float(start.s))
    y = np.full_like(x, float(start.y))
    levels = _unit_levels(rules)
    lvl = levels(s, y)
    hit0 = o.stop_side(x, lvl)
    rows, cols = hit0.nonzero()
    payoff[rows, cols] = spec.payoff(x[cols])
    stop_time[rows, cols] = 0.0
    live = ~hit0
    idx = np.flatnonzero(live.any(axis=0))
    x, s, y = x[idx], s[idx], y[idx]
    weyl = _path_weyl(first + idx)
    # take along axis 1 keeps the rows C-contiguous, where [:, idx] would not
    lvl, live = lvl.take(idx, axis=1), live.take(idx, axis=1)
    n_live = int(np.count_nonzero(live))
    lx = np.log(x)
    drift, vol, var = _step_coeffs(spec, cfg.dt, s, y)

    # lanes past a barrier carry infinite or NaN logs on purpose
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la = np.log(lvl)
        for k in range(n_steps):
            if n_live == 0:
                break
            z, u = _draws(keys, weyl, k)
            x_new = x * np.exp(drift + vol * z)
            s_new = np.maximum(s, x_new)
            y_new = np.maximum(y, s_new - x_new)
            moved = ((s_new != s) | (y_new != y)).nonzero()[0]
            s, y = s_new, y_new
            if moved.size:
                s_m, y_m = s[moved], y[moved]
                lvl[:, moved] = lv = levels(s_m, y_m)
                la[:, moved] = np.log(lv)
            lx_new = np.log(x_new)
            stop, theta = _step_stops(o, lvl, la, lx, x_new, lx_new, var, u, live)
            if stop.size:
                rows, cols = np.divmod(stop, live.shape[1])
                t_hit = (k + theta) * cfg.dt
                at = idx[cols]
                payoff[rows, at] = np.exp(-spec.r * t_hit) * spec.payoff(lvl[rows, cols])
                stop_time[rows, at] = t_hit
                live[rows, cols] = False
            x, lx = x_new, lx_new
            if moved.size:
                drift[moved], vol[moved], var[moved] = _step_coeffs(spec, cfg.dt, s_m, y_m)
            if stop.size:
                n_live -= stop.size
                keep = live.any(axis=0)
                n_keep = int(np.count_nonzero(keep))
                if 32 * (keep.size - n_keep) > keep.size:
                    keep = np.flatnonzero(keep)
                    idx, weyl = idx[keep], weyl[keep]
                    x, s, y, lx = x[keep], s[keep], y[keep], lx[keep]
                    drift, vol, var = drift[keep], vol[keep], var[keep]
                    lvl, la = lvl.take(keep, axis=1), la.take(keep, axis=1)
                    live = live.take(keep, axis=1)

    n_horizon = live.sum(axis=1)
    rows, cols = live.nonzero()
    payoff[rows, idx[cols]] = np.exp(-spec.r * cfg.horizon) * spec.payoff(x[cols])
    return n_horizon


DOMINANCE_TOL = 1e-6  # audit slack for interpolation noise, times strike
SMOOTH_STEP = 1e-4  # audit smooth-fit difference step, times strike
AUDIT_ROWS = 128  # probed lines per dominance array: bounds its memory only


@dataclass
class VerificationReport:
    mc_mean: float
    mc_stderr: float
    analytic_value: float
    match_gap: float
    match_threshold: float
    dominance_violations: int
    dominance_worst_gap: float
    smooth_fit_gap: float
    generator_sign_violations: int
    generator_residual_max: float
    perturbation_table: list
    perturbation_violations: int
    n_paths: int

    @property
    def passed(self) -> bool:
        return (
            self.match_gap <= self.match_threshold
            and self.dominance_violations == 0
            and self.smooth_fit_gap <= 1e-3
            and self.generator_sign_violations == 0
            and self.perturbation_violations == 0
        )

    def as_dict(self):
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["passed"] = self.passed
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def audit_solution(spec: ModelSpec, solution, dominance_shape=(50, 50, 50)) -> dict:
    """Audit an assembled solution against its defining free-boundary properties.

    Checks dominance of the value over the payoff on a dominance_shape
    (n_s, n_y, n_x) grid (slack DOMINANCE_TOL), the slope of the value at
    the barrier against the payoff slope by a one-sided difference
    (SMOOTH_STEP), the sign of the stopped generator at stopping-region
    samples, and the generator residual of the line's two-power value at
    continuation-region samples, taken with its exact x-derivatives.  The
    probed (s, y) lines are assembled in one batch (``solution.lines``),
    which raises what the first line whose re-march is cut raises, and
    every check reads that batch's arrays: dominance is checked on
    (lines x n_x) arrays of AUDIT_ROWS lines at a time, and each per-line
    check takes one array entry per line.  Returns a plain dict of counts
    and gaps, equal bit for bit to checking the probes one line at a time
    in s-major order.
    """
    o = _ORIENT[spec.payoff_kind]
    L = spec.strike
    n_s, n_y, n_x = dominance_shape
    surf = solution.surface
    s_nodes = np.linspace(surf.s_grid[0], surf.s_grid[-1], n_s)
    y_nodes = np.linspace(0.0, surf.y_grid[-1], n_y)
    # the probes, s-major: each s node with the y nodes below its diagonal
    s_all, y_all = np.meshgrid(s_nodes, y_nodes, indexing="ij")
    probed = y_all < s_all * (1.0 - 1e-9)
    s, y = s_all[probed], y_all[probed]
    lines = solution.lines(s, y)
    br, level = lines.branch, lines.level

    # dominance on (lines x n_x) arrays, AUDIT_ROWS lines at a time
    violations, row_min = 0, np.empty(len(lines))
    for k in range(0, len(lines), AUDIT_ROWS):
        rows = slice(k, k + AUDIT_ROWS)
        xs = _linspace_rows(s[rows] - y[rows], s[rows], n_x)
        gap = lines[rows].values(xs) - spec.payoff(xs)
        violations += np.count_nonzero(gap < -DOMINANCE_TOL * L)
        row_min[rows] = np.min(gap, axis=1)
    worst = float(np.nanmin(row_min, initial=np.inf))

    h = SMOOTH_STEP * L
    x_in = level - o.sign * h
    fit = (br == "direct") & (s - y < level) & (level < s) & (s - y <= x_in) & (x_in <= s)
    v = lines[fit].values(np.stack([level[fit], x_in[fit]], axis=1))
    slope = (v[:, 0] - v[:, 1]) / (o.sign * h)
    smooth_gap = float(np.nanmax(np.abs(slope - o.sign), initial=0.0))

    (lo, hi), stopped = o.parts(level, s, y)
    direct = br == "direct"
    # the generator applied to the payoff, sign (r K - delta x)
    x_stop = 0.5 * (stopped[0] + stopped[1])
    dlt = spec.delta_field.value(s, y)
    wrong = o.sign * (spec.r * L - dlt * x_stop) >= 0.0
    gen_viol = np.count_nonzero(wrong & ((br == "stop") | (direct & (level > s - y))))

    lo, hi = np.where(direct, lo, s - y), np.where(direct, hi, s)
    x_c = 0.5 * (lo + hi)
    pad = 2e-5 * np.maximum(x_c, L)
    inner = (br != "stop") & (lo + pad < x_c) & (x_c < hi - pad)
    cont, x_c = lines[inner], x_c[inner]
    resid = _generator(
        spec, x_c, s[inner], y[inner], cont.values(x_c[:, None])[:, 0],
        cont.dvalue_dx(x_c), cont.d2value_dx2(x_c),
    )
    return {
        "dominance_violations": int(violations),
        "dominance_worst_gap": worst,
        "smooth_fit_gap": smooth_gap,
        "generator_sign_violations": int(gen_viol),
        "generator_residual_max": float(np.nanmax(np.abs(resid), initial=0.0)),
    }


def _linspace_rows(start, stop, num):
    """np.linspace(start[k], stop[k], num) as row k, bit for bit.

    np.linspace on arrays takes its zero-step branch for every row as soon
    as one row's step is zero; a zero step means stop == start, where both
    branches give start, so one product serves every row.
    """
    rows = start[:, None] + np.arange(num) * ((stop - start) / max(num - 1, 1))[:, None]
    if num > 1:
        rows[:, -1] = stop
    return rows


def verify_solution(
    spec: ModelSpec,
    solution,
    start: StateTriple,
    cfg: SimConfig,
    perturb_factors=(0.9, 1.1),
) -> VerificationReport:
    """Full verification: Monte Carlo match plus the structural audits.

    The Monte Carlo estimate at start must agree with the analytic value
    within the larger of 2 percent and 3 standard errors, and no rescaled
    barrier may beat the solved one by more than two combined standard
    errors under shared draws.  The solved barrier and its rescalings run
    as one joint pass of :func:`simulate_stopped_payoffs`: one set of draws
    and one field evaluation per step serve every barrier, and each result
    equals its own separate simulation.  The structural checks are
    audit_solution's, on its default 50 x 50 x 50 grid.  Each perturbation
    factor must be finite and positive.
    """
    factors = [float(f) for f in perturb_factors if f != 1.0]
    if not all(math.isfinite(f) and f > 0 for f in factors):
        raise ValueError(
            f"perturb_factors must be finite and positive, got {perturb_factors!r}"
        )
    rule = rule_from_solution(solution)
    base, *perturbed = simulate_stopped_payoffs(
        spec, start, [rule] + [rule.scaled(f) for f in factors], cfg
    )
    analytic = float(solution.value(start.x, start.s, start.y))
    match_gap = abs(base.mean - analytic)
    match_threshold = max(0.02 * abs(analytic), 3.0 * base.stderr)

    audit = audit_solution(spec, solution)

    table = [[1.0, base.mean, base.stderr]]
    pert_viol = 0
    for f, res in zip(factors, perturbed):
        table.append([f, res.mean, res.stderr])
        if res.mean > base.mean + 2.0 * np.hypot(res.stderr, base.stderr):
            pert_viol += 1
    table.sort(key=lambda row: row[0])

    return VerificationReport(
        mc_mean=base.mean,
        mc_stderr=base.stderr,
        analytic_value=analytic,
        match_gap=float(match_gap),
        match_threshold=float(match_threshold),
        dominance_violations=audit["dominance_violations"],
        dominance_worst_gap=audit["dominance_worst_gap"],
        smooth_fit_gap=audit["smooth_fit_gap"],
        generator_sign_violations=audit["generator_sign_violations"],
        generator_residual_max=audit["generator_residual_max"],
        perturbation_table=table,
        perturbation_violations=int(pert_viol),
        n_paths=cfg.n_paths,
    )

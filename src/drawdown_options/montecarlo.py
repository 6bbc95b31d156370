"""Simulation-side check of the analytic solutions.

Paths follow the log-Euler scheme with the dividend and volatility fields
frozen at the running (S, Y) of the step start; the running maximum and
drawdown update after each move, which keeps every path inside the state
space by construction.  Stopping is first passage of X through a supplied
barrier rule; the crossing time and level are refined linearly in log X
inside the triggering step.  Draws come in fixed-width blocks keyed by
(seed, block index), so results do not depend on how blocks are batched,
and perturbed reruns with the same seed share every draw.

Several rules can ride on one pass (:func:`simulate_stopped_payoffs`): a
path's trajectory does not depend on the rule that stops it, so one set of
draws and one field evaluation per step serve every rule, and each rule's
result equals its own separate run bit for bit.  Within a pass, the step
coefficients and each rule's barrier level are kept per path and
recomputed only where (S, Y) moved, since both are functions of (S, Y)
alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .coefficients import ModelSpec, StateTriple, roots_arrays
from .errors import ConfigError
from .solver3d import _ORIENT

TRUNCATION_BUDGET = 1e-3


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float
    horizon: float
    seed: int = 0
    scheme: Literal["euler_log"] = "euler_log"
    block_size: int = 4096

    def __post_init__(self):
        if self.n_paths < 100:
            raise ConfigError(f"n_paths must be at least 100, got {self.n_paths}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.horizon < 100 * self.dt:
            raise ConfigError(
                f"horizon {self.horizon} shorter than 100 steps of dt={self.dt}"
            )
        if self.scheme != "euler_log":
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.block_size < 1:
            raise ConfigError("block_size must be positive")


class ConstantRule:
    """Flat stopping barrier."""

    def __init__(self, value, factor=1.0):
        self.value = float(value)
        self.factor = float(factor)

    def level(self, s, y):
        return np.full(np.shape(s), self.factor * self.value)

    def scaled(self, f):
        return ConstantRule(self.value, self.factor * f)


class CurveRule:
    """Barrier read off a curve in the running maximum."""

    def __init__(self, s_grid, values, factor=1.0):
        self.s_grid = np.asarray(s_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.factor = float(factor)

    def level(self, s, y):
        return self.factor * np.interp(s, self.s_grid, self.values)

    def scaled(self, f):
        return CurveRule(self.s_grid, self.values, self.factor * f)


class SurfaceRule:
    """Barrier read off a boundary surface in (S, Y)."""

    def __init__(self, surface, factor=1.0):
        self.surface = surface
        self.factor = float(factor)

    def level(self, s, y):
        return self.factor * self.surface.level_at(s, y)

    def scaled(self, f):
        return SurfaceRule(self.surface, self.factor * f)


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
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n_paths": self.n_paths,
            "n_horizon": self.n_horizon,
            "mean_stop_time": self.mean_stop_time,
        }


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
    rules = list(rules)
    tail = np.exp(-spec.r * cfg.horizon)
    if tail > TRUNCATION_BUDGET:
        raise ConfigError(
            f"horizon {cfg.horizon} leaves discount weight {tail:.2e} above "
            f"the truncation budget {TRUNCATION_BUDGET:g}; extend it"
        )
    is_call = spec.payoff_kind == "call"
    n_steps = int(round(cfg.horizon / cfg.dt))
    payoffs = np.empty((len(rules), cfg.n_paths))
    stop_times = np.empty((len(rules), cfg.n_paths))
    n_horizon = np.zeros(len(rules), dtype=int)
    filled = 0
    block_idx = 0
    while filled < cfg.n_paths:
        n_b = min(cfg.block_size, cfg.n_paths - filled)
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, block_idx]))
        block = slice(filled, filled + n_b)
        n_horizon += _run_block(
            spec, rules, start, cfg, rng, n_steps, is_call,
            payoffs[:, block], stop_times[:, block],
        )
        filled += n_b
        block_idx += 1
    return [
        SimResult(
            mean=float(np.mean(payoffs[k])),
            stderr=(
                float(np.std(payoffs[k], ddof=1) / np.sqrt(cfg.n_paths))
                if cfg.n_paths > 1
                else 0.0
            ),
            n_paths=cfg.n_paths,
            n_horizon=int(n_horizon[k]),
            mean_stop_time=float(np.mean(stop_times[k])),
        )
        for k in range(len(rules))
    ]


def _step_coeffs(spec, dt, s, y):
    """Log-Euler drift, diffusion scale and bridge variance at (S, Y).

    The dividend and volatility fields are frozen at the running (S, Y) of
    each step start.
    """
    dlt = spec.delta_field.value(s, y)
    sig = spec.sigma_field.value(s, y)
    return (spec.r - dlt - 0.5 * sig**2) * dt, sig * np.sqrt(dt), sig**2 * dt


def _run_block(spec, rules, start, cfg, rng, n_steps, is_call, payoff, stop_time):
    """Simulate one block of paths under every rule at once.

    Fills ``payoff`` and ``stop_time`` (one row per rule, one column per
    path of the block) and returns the horizon cash-out count per rule.

    Paths stay compacted on those still live under at least one rule; idx
    maps them back to block positions and stays ascending so each path
    keeps its own draw lane.  ``live[k]`` marks the paths rule k has not
    stopped yet; a path every rule has stopped rides along masked until
    such paths make up an eighth of the arrays, and is then dropped.

    (S, Y) moves on only a small share of path-steps, so everything that
    depends on it alone is kept per path and recomputed only where it
    moved: the step coefficients, and per rule the barrier level and its
    log.  Every rule's level is a function of (S, Y) alone, and each kept
    value is the expression the step would evaluate afresh, so the cache
    changes no bit.
    """
    n_rules, n_b = payoff.shape
    payoff[:] = 0.0
    stop_time[:] = cfg.horizon

    x = np.full(n_b, float(start.x))
    s = np.full(n_b, float(start.s))
    y = np.full(n_b, float(start.y))
    lvl = np.empty((n_rules, n_b))
    live = np.empty((n_rules, n_b), dtype=bool)
    for k, rule in enumerate(rules):
        lvl[k] = rule.level(s, y)
        hit0 = x >= lvl[k] if is_call else x <= lvl[k]
        if np.any(hit0):
            payoff[k, hit0] = spec.payoff(x[hit0])
            stop_time[k, hit0] = 0.0
        live[k] = ~hit0
    idx = np.flatnonzero(live.any(axis=0))
    x, s, y = x[idx], s[idx], y[idx]
    lvl, live = lvl[:, idx], live[:, idx]
    n_live = int(np.count_nonzero(live))
    lx = np.log(x)
    drift, vol, var = _step_coeffs(spec, cfg.dt, s, y)

    # lanes past a barrier carry infinite or NaN logs on purpose
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la = np.log(lvl)
        for k in range(n_steps):
            if n_live == 0:
                break
            # both arrays are drawn every step so streams stay aligned under CRN
            z = rng.standard_normal(cfg.block_size).take(idx)
            u = rng.random(cfg.block_size).take(idx)
            x_new = x * np.exp(drift + vol * z)
            s_new = np.maximum(s, x_new)
            y_new = np.maximum(y, s_new - x_new)
            moved = ((s_new != s) | (y_new != y)).nonzero()[0]
            s, y = s_new, y_new
            if moved.size:
                s_m, y_m = s[moved], y[moved]
                for j, rule in enumerate(rules):
                    lvl[j, moved] = lv = rule.level(s_m, y_m)
                    la[j, moved] = np.log(lv)
            lx_new = np.log(x_new)
            n_stopped = 0
            for j in range(n_rules):
                if is_call:
                    hit = x_new >= lvl[j]
                    d_prev, d_new = la[j] - lx, la[j] - lx_new
                else:
                    hit = x_new <= lvl[j]
                    d_prev, d_new = lx - la[j], lx_new - la[j]
                # the log-Euler step is a Brownian bridge between endpoints,
                # so an unhit pair still crosses with this exact probability
                # (both gaps positive already rules out an endpoint hit)
                p_cross = np.exp(-2.0 * d_prev * d_new / var)
                bridge = (np.minimum(d_prev, d_new) > 0.0) & (u < p_cross)
                stopped = ((hit | bridge) & live[j]).nonzero()[0]
                if stopped.size:
                    n_stopped += stopped.size
                    dp, dn = d_prev[stopped], d_new[stopped]
                    theta = np.where(hit[stopped], dp / (dp - dn), dp / (dp + dn))
                    theta = np.clip(np.nan_to_num(theta, nan=1.0), 0.0, 1.0)
                    t_hit = (k + theta) * cfg.dt
                    at = idx[stopped]
                    payoff[j, at] = np.exp(-spec.r * t_hit) * spec.payoff(lvl[j, stopped])
                    stop_time[j, at] = t_hit
                    live[j, stopped] = False
            x, lx = x_new, lx_new
            if moved.size:
                drift[moved], vol[moved], var[moved] = _step_coeffs(spec, cfg.dt, s_m, y_m)
            if n_stopped:
                n_live -= n_stopped
                keep = live[0] if n_rules == 1 else live.any(axis=0)
                n_keep = int(np.count_nonzero(keep))
                if 8 * (keep.size - n_keep) > keep.size:
                    keep = np.flatnonzero(keep)
                    idx, x, s, y, lx = idx[keep], x[keep], s[keep], y[keep], lx[keep]
                    drift, vol, var = drift[keep], vol[keep], var[keep]
                    lvl, la, live = lvl[:, keep], la[:, keep], live[:, keep]

    n_horizon = np.zeros(n_rules, dtype=int)
    for j in range(n_rules):
        rest = np.flatnonzero(live[j])
        n_horizon[j] = rest.size
        if rest.size:
            payoff[j, idx[rest]] = np.exp(-spec.r * cfg.horizon) * spec.payoff(x[rest])
    return n_horizon


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


def audit_solution(
    spec: ModelSpec,
    solution,
    dominance_shape=(50, 50, 50),
    dominance_tol=1e-6,
    smooth_step=1e-4,
) -> dict:
    """Audit an assembled solution against its defining free-boundary properties.

    Checks dominance of the value over the payoff on a state-space grid (with
    a small documented slack of dominance_tol times strike for interpolation
    noise), the slope of the value at the barrier against the payoff slope by
    one-sided difference, the sign of the stopped generator at stopping-region
    samples, and the finite-difference generator residual of the value at
    continuation-region samples.  Returns a plain dict of counts and gaps.
    """
    from .coefficients import generator_residual

    o = _ORIENT[spec.payoff_kind]
    L = spec.strike
    n_s, n_y, n_x = dominance_shape
    surf = solution.surface
    s_nodes = np.linspace(surf.s_grid[0], surf.s_grid[-1], n_s)
    y_hi = surf.y_grid[-1]
    y_nodes = np.linspace(0.0, y_hi, n_y)
    violations = 0
    worst = np.inf
    smooth_gap = 0.0
    gen_viol = 0
    gen_resid = 0.0
    for s in s_nodes:
        for y in y_nodes[y_nodes < s * (1.0 - 1e-9)]:
            xs = np.linspace(s - y, s, n_x)
            vals = solution.value_line(xs, s, y)
            gap = np.min(vals - spec.payoff(xs))
            worst = min(worst, float(gap))
            violations += int(np.sum(vals - spec.payoff(xs) < -dominance_tol * L))

            br = solution.branch(s, y)
            level = float(solution.boundary(s, y))
            dlt = float(spec.delta_field.value(s, y))
            if br == "direct" and s - y < level < s:
                h = smooth_step * L
                x_in = level - o.sign * h
                if s - y <= x_in <= s:
                    slope = (
                        solution.value(level, s, y) - solution.value(x_in, s, y)
                    ) / (o.sign * h)
                    smooth_gap = max(smooth_gap, abs(slope - o.sign))
            cont, stopped = o.parts(level, s, y)
            if br == "stop" or (br == "direct" and level > s - y):
                # the generator applied to the payoff, sign (r K - delta x)
                x_stop = 0.5 * (stopped[0] + stopped[1])
                if o.sign * (spec.r * L - dlt * x_stop) >= 0.0:
                    gen_viol += 1
            if br != "stop":
                lo, hi = cont if br == "direct" else (s - y, s)
                x_c = 0.5 * (lo + hi)
                pad = 2e-5 * max(x_c, L)
                if lo + pad < x_c < hi - pad:
                    resid = generator_residual(
                        spec,
                        lambda x: solution.value(float(x), s, y),
                        StateTriple(x=x_c, s=s, y=y),
                    )
                    gen_resid = max(gen_resid, abs(float(resid)))
    return {
        "dominance_violations": int(violations),
        "dominance_worst_gap": float(worst),
        "smooth_fit_gap": float(smooth_gap),
        "generator_sign_violations": int(gen_viol),
        "generator_residual_max": float(gen_resid),
    }


def verify_solution(
    spec: ModelSpec,
    solution,
    start: StateTriple,
    cfg: SimConfig,
    perturb_factors=(0.9, 1.1),
    dominance_shape=(50, 50, 50),
    dominance_tol=1e-6,
    smooth_step=1e-4,
) -> VerificationReport:
    """Full verification: Monte Carlo match plus the structural audits.

    The Monte Carlo estimate at start must agree with the analytic value
    within the larger of 2 percent and 3 standard errors, and no rescaled
    barrier may beat the solved one by more than two combined standard
    errors under shared draws.  The solved barrier and its rescalings run
    as one joint pass of :func:`simulate_stopped_payoffs`: one set of draws
    and one field evaluation per step serve every barrier, and each result
    equals its own separate simulation.  Structural checks are as in
    audit_solution.
    """
    rule = rule_from_solution(solution)
    factors = [float(f) for f in perturb_factors if f != 1.0]
    base, *perturbed = simulate_stopped_payoffs(
        spec, start, [rule] + [rule.scaled(f) for f in factors], cfg
    )
    analytic = float(solution.value(start.x, start.s, start.y))
    match_gap = abs(base.mean - analytic)
    match_threshold = max(0.02 * abs(analytic), 3.0 * base.stderr)

    audit = audit_solution(
        spec,
        solution,
        dominance_shape=dominance_shape,
        dominance_tol=dominance_tol,
        smooth_step=smooth_step,
    )

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

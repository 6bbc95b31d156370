"""Output checks of the benchmark.

Each check takes plain numbers and arrays, not solver objects, and returns a
list of failure messages (empty when the output is correct), so the self-test
can feed it corrupted copies of a real output.  Reference values are computed
here from the model parameters with numpy, or are properties every correct
solution has; none is a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

# statuses a slice may end with without being flagged
UNFLAGGED = ("ok", "outside")

# value may undershoot the payoff by this share of the strike, the slack
# the library's own dominance audit allows for interpolation noise
DOMINANCE_TOL = 1e-6
# rounding slack, as a share of the strike, for the caps and for a put
# value rising in x
ROUNDING_TOL = 1e-12
# |slope at the barrier + 1| for the put's smooth fit
SMOOTH_FIT_TOL = 1e-3
# relative gap between the call barrier and gamma1 K / (gamma1 - 1)
CALL_BARRIER_RTOL = 1e-10
# relative gap between 3D and maximum-only call values on direct and stop lines
CALL_DIRECT_RTOL = 1e-12
# relative gap on reflect lines, where the 3D coefficients are interpolated
# off the lattice (about 3e-3 is the largest seen on the 193x129 lattice)
CALL_REFLECT_RTOL = 1e-2


def gamma1(r, delta, sigma):
    """Larger root of (sigma^2/2) g (g - 1) + (r - delta) g - r = 0, per entry."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    sig2 = float(sigma) ** 2
    out = np.empty(delta.shape)
    for k, d in enumerate(delta):
        out[k] = np.roots([0.5 * sig2, r - d - 0.5 * sig2, -r]).real.max()
    return out


def flagged(statuses):
    """Messages for slices that ended flagged (step, singular, constraint)."""
    bad = [(i, st) for i, st in enumerate(statuses) if st[0] not in UNFLAGGED]
    if not bad:
        return []
    i, (kind, pos) = bad[0]
    return [f"{len(bad)} flagged slices, first {i}: {kind} at {pos:g}"]


def check_call_surface(r, strike, delta_s, sigma, values, statuses):
    """Every finite node of row i equals gamma1(s_i) K / (gamma1(s_i) - 1).

    delta_s is the dividend rate per s node (the call's dividend depends on
    s alone); values is the (n_s, n_y) surface.
    """
    fails = flagged(statuses)
    g1 = gamma1(r, delta_s, sigma)
    want = (g1 * strike / (g1 - 1.0))[:, None]
    finite = np.isfinite(values)
    if not finite.any():
        return fails + ["call surface has no finite node"]
    rel = np.abs(values - want) / want
    worst = float(np.max(np.where(finite, rel, 0.0)))
    if worst > CALL_BARRIER_RTOL:
        fails.append(f"call barrier off gamma1 K/(gamma1-1) by {worst:.3e} relative")
    return fails


def check_put_line(strike, x, values, slope=None):
    """A put line: payoff <= value <= K, value not rising in x, smooth fit.

    slope is the one-sided slope of the value at the barrier on a direct
    line, None elsewhere.
    """
    fails = []
    x = np.asarray(x, dtype=float)
    v = np.asarray(values, dtype=float)
    payoff = np.maximum(strike - x, 0.0)
    if not np.all(np.isfinite(v)):
        return ["put value not finite"]
    if np.any(v < payoff - DOMINANCE_TOL * strike):
        fails.append(f"put value below payoff by {float(np.max(payoff - v)):.3e}")
    if np.any(v > strike * (1.0 + ROUNDING_TOL)):
        fails.append(f"put value {float(np.max(v)):.6g} above the strike")
    if np.any(np.diff(v) > ROUNDING_TOL * strike):
        fails.append(f"put value rises in x by {float(np.max(np.diff(v))):.3e}")
    if slope is not None and not abs(slope + 1.0) <= SMOOTH_FIT_TOL:
        fails.append(f"put slope at the barrier {slope:.6f}, want -1")
    return fails


def check_price_value(kind, strike, x, value, reference=None, branch=None):
    """A priced position: payoff <= value <= K (put) or <= x (call).

    For a call, reference is the maximum-only value at (x, s); branch picks
    the tolerance it must meet.
    """
    payoff = max(strike - x, 0.0) if kind == "put" else max(x - strike, 0.0)
    cap = strike if kind == "put" else x
    if not np.isfinite(value):
        return [f"{kind} value not finite"]
    fails = []
    if value < payoff - DOMINANCE_TOL * strike:
        fails.append(f"{kind} value {value:.6g} below payoff {payoff:.6g}")
    if value > cap * (1.0 + ROUNDING_TOL):
        fails.append(f"{kind} value {value:.6g} above its cap {cap:.6g}")
    if reference is not None:
        tol = CALL_REFLECT_RTOL if branch == "reflect" else CALL_DIRECT_RTOL
        rel = abs(value - reference) / max(abs(reference), 1e-300)
        if not rel <= tol:
            fails.append(
                f"call value {value:.12g} vs maximum-only {reference:.12g} "
                f"on a {branch} line ({rel:.3e} relative)"
            )
    return fails


def check_report(name, report):
    """A verification report (as a dict) that passes every one of its checks.

    The Monte Carlo match and the barrier rescalings are judged again from
    the report's raw numbers by the library's stated rules: the mean within
    the larger of 2 % of the analytic value and 3 standard errors, and no
    rescaled barrier's mean above the solved one's by more than two combined
    standard errors.  So a report cannot pass on its flag alone.
    """
    fails = []
    value, mean, se = report["analytic_value"], report["mc_mean"], report["mc_stderr"]
    gap, limit = abs(mean - value), max(0.02 * abs(value), 3.0 * se)
    if not gap <= limit:
        fails.append(
            f"{name}: Monte Carlo {mean:.6g} vs analytic {value:.6g}, "
            f"gap {gap:.3e} over {limit:.3e}"
        )
    for factor, m, e in report["perturbation_table"]:
        if factor != 1.0 and not m <= mean + 2.0 * float(np.hypot(e, se)):
            fails.append(
                f"{name}: barrier x{factor:g} beats the solved one ({m:.6g} vs {mean:.6g})"
            )
    for key in ("dominance_violations", "generator_sign_violations"):
        if report[key] != 0:
            fails.append(f"{name}: {key} = {report[key]}")
    if not report["smooth_fit_gap"] <= SMOOTH_FIT_TOL:
        fails.append(f"{name}: smooth_fit_gap {report['smooth_fit_gap']:.3e}")
    if not report["passed"]:
        fails.append(f"{name}: report did not pass")
    return fails

"""Fixed-step RK4 with a halved-step Richardson error check.

Works elementwise on scalars or numpy arrays, for the two marches: one line
on scalars (``solver2d._march_line``) and a surface's slices in lockstep
(``solver3d._march_surface``).

The right-hand side is handed to :func:`checked_step` in two stages: the
part that depends on the abscissa alone (roots, field values) and the part
that depends on the state.  A checked step evaluates the state part eleven
times but needs the abscissa part at six points only, so splitting the two
is what keeps a vectorised march from paying for the roots eleven times.
"""

from __future__ import annotations

import numpy as np


def rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class ReuseStages:
    """Stage factory that builds each distinct abscissa once.

    Wraps ``stage`` and remembers the stages of the last four abscissae it
    was asked for, keyed by their exact bits, so an abscissa that a step
    revisits, or that the next step starts from, costs a lookup instead of
    a fresh evaluation.  Four is what :func:`checked_step` needs: its end
    abscissa t + h must survive the two quarter points and its second
    rounding of t + h.  Identical inputs give identical stages, so reuse
    changes no result.  One instance serves one fixed set of lanes.
    """

    _SIZE = 4

    def __init__(self, stage):
        self._stage = stage
        self._memo = {}

    def __call__(self, t):
        key = t.tobytes() if isinstance(t, np.ndarray) else t
        f = self._memo.get(key)
        if f is None:
            f = self._memo[key] = self._stage(t)
            if len(self._memo) > self._SIZE:
                del self._memo[next(iter(self._memo))]
        return f


def checked_step(stage, t, x, h, scale_floor=1e-300):
    """Advance one step, returning the two-half-step value and error estimate.

    ``stage(t)`` returns the right-hand side frozen at abscissa t, as a
    function of the state alone; a plain f(t, x) becomes
    ``lambda t: lambda x: f(t, x)``.
    The step is bit for bit the composition of three :func:`rk4_step` calls,
    one full step and two half steps, but the half steps reuse the full
    step's first slope, so it costs eleven state evaluations instead of
    twelve, and it asks for the abscissa stage once per distinct abscissa:
    t, t + h/4, t + h/2, t + 3h/4, and t + h twice (the full step and the
    half steps reach it with their own rounding).  Wrapping the factory in
    :class:`ReuseStages` folds those two when their bits agree, and the
    start of the next step onto the end of this one.  The evaluation order
    is that of the three plain steps.

    The estimate is the classic |fine - full| / 15 for a fourth-order scheme,
    reported relative to max(|fine|, scale_floor).  The more accurate
    two-half-step result is what gets propagated.  Floating-point warnings
    are silenced for the whole step: lanes past a constraint breach carry
    NaN on purpose.
    """
    half = 0.5 * h
    quarter = 0.5 * half
    t_mid = t + half
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # full step
        k1 = stage(t)(x)
        f_mid = stage(t_mid)
        k2 = f_mid(x + half * k1)
        k3 = f_mid(x + half * k2)
        k4 = stage(t + h)(x + h * k3)
        full = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # first half step, sharing k1
        f_q = stage(t + quarter)
        k2 = f_q(x + quarter * k1)
        k3 = f_q(x + quarter * k2)
        k4 = f_mid(x + half * k3)
        mid = x + (half / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # second half step
        k1 = f_mid(mid)
        f_3q = stage(t_mid + quarter)
        k2 = f_3q(mid + quarter * k1)
        k3 = f_3q(mid + quarter * k2)
        k4 = stage(t_mid + half)(mid + half * k3)
        fine = mid + (half / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        err = np.abs(fine - full) / 15.0
        rel = err / np.maximum(np.abs(fine), scale_floor)
    return fine, rel

"""Dormand–Prince 5(4) steps and the step-size rule of the one lane march.

Works elementwise on scalars or numpy arrays.  Every boundary ODE is
integrated by ``solver2d._march_lanes`` on ``solver2d.OdeStage``: one or
many lanes, each in its own lane time tau in [0, 1], sharing every step.
Two functions set it up: ``solver2d.put_boundary_2d`` for the 2D put
curve, and ``solver3d._march_slices`` for the 3D slices, whose surface
runs its slices as lanes.  The 2D curve, a public slice and a direct
line's re-march are one lane each, which steps and evaluates its stage on
Python floats, with the bits an array lane would give.

:func:`checked_step` is one step of the embedded pair of Dormand & Prince
(1980): it propagates the fifth-order state and reports the difference to
the fourth-order one, relative to the state, as its error estimate
(Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4).  :class:`StepSize`
turns the estimates into step lengths.  The march asks it for the length
of each try; a try whose worst estimate exceeds the target is retried
shorter, down to a floor of 1/1024 of lane time.  Only the step that
lands on tau = 1 may be shorter than that floor.  A step at the floor
always stands: the lanes still above the target there fail, with status
``"step"``, and leave the controller.

The march heads for tau = 1, steps where the controller says, and reads
every node from the continuous extension of the step that passes it,
:func:`dense_output`: the fourth-order interpolant of Dormand & Prince's
code DOPRI5 (Hairer, Nørsett & Wanner, §II.6; Shampine 1986), built from
slopes the step has already evaluated, so it costs no right-hand-side
call.  The extension's error runs about five times the step's estimate.
A surface keeps the plain target :data:`STEP_REL_TOL`: its nodes stay
within 1e-9 of the ODE's flow (6.7e-10 on the s-sloped 193 x 129 put)
with about 69 steps.  The 2D put curve targets :data:`DENSE_TOL_SHARE` of
it, since its nodes feed the 3D seeds and the maximum-only oracle and
must follow the flow within about 1e-12: it marches down in log s in
about 210 steps, against 4096 when a step landed on every node.

The right-hand side is handed to :func:`checked_step` in two stages: the
part that depends on the abscissa alone (roots, field values) and the part
that depends on the state.  A step evaluates the state part seven times
but needs the abscissa part at six points only, the last of which the next
step starts from, so splitting the two is what keeps a vectorised march
from paying for the roots seven times.
"""

from __future__ import annotations

import math

import numpy as np

# the tableau: nodes c2..c5 (c6 = c7 = 1), the stage rows, the fifth-order
# weights (b2 = 0) and the error weights e = b - b* (e2 = 0)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
    22.0 / 525.0, -1.0 / 40.0,
)
# the continuous extension's fourth-order term (d2 = 0)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)

# the per-step target for the relative estimate, read by each march as it
# starts
STEP_REL_TOL = 1e-10
# the 2D put curve targets this share of STEP_REL_TOL: the continuous
# extension's error runs several times the step's estimate, and the curve's
# nodes must follow the ODE's flow within about 1e-12 (a surface, a slice
# and a re-march keep the plain target)
DENSE_TOL_SHARE = 1e-3
# the shortest step, as a share of lane time; the step that lands on the
# end of lane time may be shorter
STEP_FLOOR = 1.0 / 1024.0
# bounds on the factor between consecutive step lengths
_SHRINK, _GROW = 0.2, 5.0


class ReuseStages:
    """Stage factory that builds each distinct abscissa once.

    Wraps ``stage`` and remembers the stages of the last six abscissae it
    was asked for, keyed by their exact bits, so an abscissa that a step
    revisits, or that the next step starts from, costs a lookup instead of
    a fresh evaluation.  Six is what :func:`checked_step` needs: a retried
    step starts from the same abscissa as the try it replaces.  Identical
    inputs give identical stages, so reuse changes no result.  One
    instance serves one fixed set of lanes.
    """

    _SIZE = 6

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
    """Advance one Dormand–Prince step: the new state, its estimate, its slopes.

    ``stage(t)`` returns the right-hand side frozen at abscissa t, as a
    function of the state alone; a plain f(t, x) becomes
    ``lambda t: lambda x: f(t, x)``.  The step asks for the abscissa stage
    at t, t + h/5, t + 3h/10, t + 4h/5, t + 8h/9 and t + h, once each, and
    evaluates the state part seven times: six stages, then the slope at the
    new state, which the error estimate needs.  Wrapping the factory in
    :class:`ReuseStages` lets the next step start from this one's end
    abscissa without building it again.

    The propagated state is the fifth-order solution; the estimate is its
    distance to the embedded fourth-order one, reported relative to
    max(|new state|, scale_floor).  The slopes (k1, k3, k4, k5, k6, k7)
    are what :func:`dense_output` needs besides the two states.  A
    right-hand side that vanishes leaves the state's bits unchanged and the
    estimate at 0.  It silences no floating-point warning: the march that
    calls it runs its whole loop under one ``np.errstate``, since lanes
    past a constraint breach carry NaN on purpose.
    """
    k1 = stage(t)(x)
    k2 = stage(t + _C2 * h)(x + h * (_A21 * k1))
    k3 = stage(t + _C3 * h)(x + h * (_A31 * k1 + _A32 * k2))
    k4 = stage(t + _C4 * h)(x + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = stage(t + _C5 * h)(
        x + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
    )
    f_end = stage(t + h)
    k6 = f_end(
        x + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
    )
    x_new = x + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = f_end(x_new)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    if isinstance(x_new, float):
        rel = abs(err) / max(abs(x_new), scale_floor)
    else:
        rel = np.abs(err) / np.maximum(np.abs(x_new), scale_floor)
    return x_new, rel, (k1, k3, k4, k5, k6, k7)


def dense_output(x, x_new, h, slopes, theta):
    """State at t + theta h inside a step from (t, x) to (t + h, x_new).

    slopes are the step's, as :func:`checked_step` returns them.  This is
    DOPRI5's fourth-order continuous extension, written around the step's
    end so that theta = 1 gives x_new's bits: with dx = x_new - x,

        x_new - (1 - theta) (dx - theta (r3 + theta (r4 + (1 - theta) r5))),

    r3 = h k1 - dx, r4 = dx - h k7 - r3 and r5 the d-weighted slopes.  A
    right-hand side that vanishes gives x_new's bits at every theta.
    Works elementwise, so lanes may carry their own theta.
    """
    k1, k3, k4, k5, k6, k7 = slopes
    dx = x_new - x
    r3 = h * k1 - dx
    r4 = dx - h * k7 - r3
    r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
    eta = 1.0 - theta
    return x_new - eta * (dx - theta * (r3 + theta * (r4 + eta * r5)))


class StepSize:
    """The step-size rule of the lane march, in lengths of lane time.

    tol is the per-step target for the relative estimate.  The floor is
    STEP_FLOOR.  The first try of a march goes straight to its end.
    """

    def __init__(self, tol):
        self.tol = tol
        self.floor = STEP_FLOOR
        self._h = math.inf

    def length(self, rest):
        """Length of the next try toward an end rest away; rest itself lands."""
        return min(max(self._h, self.floor), rest)

    def stands(self, a, worst):
        """Whether a try of length a with worst estimate ``worst`` stands.

        A non-finite estimate counts as too large.  A try above the floor
        that misses the tolerance does not stand, and the next one is
        shorter; a try at or below the floor always stands.
        """
        if worst <= self.tol or a <= self.floor:
            return True
        self._h = a * _factor(worst, self.tol)
        return False

    def after(self, a, landed, worst):
        """Take the next length from a standing step of length a.

        worst is the largest estimate over the lanes still under control.
        A step cut short to land on the end says nothing against a longer
        one, so landing never shortens the next try.
        """
        h = a * _factor(worst, self.tol)
        self._h = max(self._h, h) if landed else h


def _factor(worst, tol):
    """Length factor 0.9 (tol / worst)^(1/5), kept within [1/5, 5]."""
    if worst == 0.0:
        return _GROW
    if not worst < math.inf:
        return _SHRINK
    return min(_GROW, max(_SHRINK, 0.9 * (tol / worst) ** 0.2))

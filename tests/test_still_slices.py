"""A slice whose fields do not vary along it takes no step, with the march's bits.

Where neither the dividend nor the volatility varies along a slice's moving
coordinate, the slice ODE's right-hand side vanishes and every node takes
its lane's seed, checked against its band, with no step.  Each such model
is solved twice: as it is, and with the march forced (``varies_with``
patched to True, so each lane takes its one zero-error step).  Every output
must agree as ``float.hex``: the surface's values and slice statuses, a
public slice as it is and cut by its band, and the lines of a probe grid,
whose direct levels are re-marched as they are and with the band emptied
at their query point.
"""

import numpy as np
import pytest

from drawdown_options import (
    CallSolution3D,
    CoefficientField,
    ConstraintBreach,
    ModelSpec,
    PutSolution3D,
)
from drawdown_options import solver3d
from drawdown_options.coefficients import _ORIENT
from test_float_paths import _narrowed

FLAT_SIGMA = ("constant", (0.2,))
Y_ONLY = ("bounded_rational", (0.02, 0.0, 0.01))
# the still models of scripts/digests.py's matrix, and a put whose
# volatility, like its dividend, depends on the drawdown alone
STILL = {
    "y_only-put": ("put", Y_ONLY, FLAT_SIGMA),
    "vol_y-put": ("put", Y_ONLY, ("bounded_rational", (0.2, 0.0, 0.03))),
    "s_only-call": ("call", ("s_only", (0.02, 0.02)), FLAT_SIGMA),
    "flat-put": ("put", ("constant", (0.03,)), FLAT_SIGMA),
    "flat-call": ("call", ("constant", (0.03,)), FLAT_SIGMA),
}
PROBES = 12


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def _status(status):
    return [(kind, float(at).hex()) for kind, at in status]


def _public_slice(sol, o, cut=False):
    """Levels and status of one slice across the lattice, its band emptied halfway if cut."""
    spec, eps = sol.spec, solver3d.EDGE_FRACTION * sol.spec.strike
    if o.kind == "put":
        fixed = 1.0
        nodes = fixed + eps + np.linspace(0.01, 6.0, 40)
    else:
        fixed = 4.0
        nodes = np.linspace(fixed - eps - 0.01, 0.0, 40)
    if cut:
        at, d = nodes[20], o.direction
        o = _narrowed(o, lambda t: d * (t - at) >= 0)
    levels, status = solver3d._boundary_slice(o, spec, sol.surface._seed_curve, fixed, nodes)
    return _hexes(levels), _status([status])


def _probe_lines(sol, monkeypatch):
    """Each probe line's level and branch; a direct one again with its band emptied."""
    o, out = sol._o, []
    s_grid, y_grid = sol.surface.s_grid, sol.surface.y_grid
    for s in np.linspace(s_grid[1], s_grid[-2], PROBES):
        for y in np.linspace(y_grid[0], y_grid[-2], PROBES):
            if y >= s:
                continue
            line = sol.line(s, y)
            out.append((line.level.hex(), line.branch))
            if line.branch != "direct":
                continue
            t = o.swap(s, y)[1]
            with monkeypatch.context() as m:
                m.setattr(sol, "_o", _narrowed(o, lambda u: o.direction * (u - t) >= 0))
                with pytest.raises(ConstraintBreach) as e:
                    sol.line(s, y)
            out.append(str(e.value))
    return out


def _staged_marches(monkeypatch):
    """A list that records, per slice march from now on, whether it got a stage.

    Each entry is that bool and the march's worst estimate, as float.hex.
    """
    march, stages = solver3d._march_lanes, []

    def recorded(stage, *args):
        out = march(stage, *args)
        stages.append((stage is not None, float(out[2]).hex()))
        return out

    monkeypatch.setattr(solver3d, "_march_lanes", recorded)
    return stages


def _outputs(spec, monkeypatch):
    cls = PutSolution3D if spec.payoff_kind == "put" else CallSolution3D
    sol = cls(spec, n_s=65, n_y=49)
    o = _ORIENT[spec.payoff_kind]
    return (
        _hexes(sol.surface.values), _status(sol.surface.slice_status),
        _public_slice(sol, o), _public_slice(sol, o, cut=True),
        _probe_lines(sol, monkeypatch),
    )


@pytest.mark.parametrize("model", sorted(STILL))
def test_a_still_model_has_the_bits_of_its_forced_march(model, monkeypatch):
    kind, delta, sigma = STILL[model]
    spec = ModelSpec(0.06, 1.0, kind, CoefficientField(*delta), CoefficientField(*sigma))
    moving = _ORIENT[kind].moving
    assert not spec.delta_field.varies_with(moving)
    assert not spec.sigma_field.varies_with(moving)

    # no slice march gets a stage on the still path, every one once the
    # predicate is forced
    stages = _staged_marches(monkeypatch)
    still = _outputs(spec, monkeypatch)
    still_marches = stages.copy()
    stages.clear()
    with monkeypatch.context() as m:
        m.setattr(CoefficientField, "varies_with", lambda self, coord: True)
        forced = _outputs(spec, monkeypatch)
    assert still_marches and not any(staged for staged, _ in still_marches)
    assert all(staged for staged, _ in stages)
    # the worst estimates too: 0.0 on both paths
    assert [w for _, w in still_marches] == [w for _, w in stages]
    assert still == forced
    # the probes reach direct lines, and the cut slice is cut
    assert any("re-marched" in entry for entry in still[4] if isinstance(entry, str))
    assert still[3][1][0][0] == "constraint"


@pytest.mark.parametrize(
    "kind, delta, sigma",
    [
        # one field still along the slices, the other not
        ("put", Y_ONLY, ("bounded_rational", (0.2, 0.02, 0.03))),
        ("put", ("s_only", (0.02, 0.01)), ("bounded_rational", (0.2, 0.0, 0.03))),
        ("call", ("s_only", (0.02, 0.02)), ("bounded_rational", (0.2, 0.0, 0.03))),
        ("call", ("bounded_rational", (0.02, 0.0, 0.01)), FLAT_SIGMA),
    ],
)
def test_a_slice_marches_where_either_field_varies_along_it(kind, delta, sigma, monkeypatch):
    spec = ModelSpec(0.06, 1.0, kind, CoefficientField(*delta), CoefficientField(*sigma))
    stages = _staged_marches(monkeypatch)
    build = solver3d.build_put_surface if kind == "put" else solver3d.build_call_surface
    build(spec, np.linspace(0.05, 20.0, 24), np.linspace(0.0, 19.9, 16))
    assert [staged for staged, _ in stages] == [True]

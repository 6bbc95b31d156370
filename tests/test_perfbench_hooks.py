"""The traced benchmark patches program names; a rename must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(code):
    env = dict(os.environ)
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_on_the_program():
    proc = _run("import tracer; tracer.install(tracer.Tracer())")
    assert proc.returncode == 0, proc.stderr


_TRACED_BUILD = """
import numpy as np
import tracer

tr = tracer.Tracer()
tracer.install(tr)
from drawdown_options import CoefficientField, ModelSpec, solver3d

spec = ModelSpec(
    r=0.06, strike=1.0, payoff_kind="put",
    delta_field=CoefficientField("s_only", (0.02, 0.01)),
    sigma_field=CoefficientField("constant", (0.2,)),
)
with tr.span("op"):
    solver3d.build_put_surface(
        spec, np.linspace(0.05, 20.0, 24), np.linspace(0.0, 19.9, 16)
    )
acc = tr.spans[0].acc
print(acc["checked_steps"], acc["stage_builds"], acc["rhs_calls"])
"""


def test_tracer_counts_the_steps_of_a_traced_build():
    # a march that stepped past the names the tracer patches would leave
    # these counters at zero, and the benchmark's step metrics with them
    proc = _run(_TRACED_BUILD)
    assert proc.returncode == 0, proc.stderr
    steps, builds, rhs = (float(v) for v in proc.stdout.split())
    assert steps > 0 and builds > 0 and rhs > 0
    # each step evaluates the state part seven times
    assert rhs == 7 * steps


_TRACED_CURVE = """
import tracer

tr = tracer.Tracer()
tracer.install(tr)
from drawdown_options import CoefficientField, ModelSpec, odestep, solver2d

# every try of the line march is one checked step followed by one verdict
# on it, so counting the verdicts counts the steps apart from the tracer
tries = []
stands = odestep.StepSize.stands


def counted(self, a, worst):
    tries.append(a)
    return stands(self, a, worst)


odestep.StepSize.stands = counted
spec = ModelSpec(
    r=0.06, strike=1.0, payoff_kind="put",
    delta_field=CoefficientField("s_only", (0.02, 0.01)),
    sigma_field=CoefficientField("constant", (0.2,)),
)
with tr.span("op"):
    solver2d.put_boundary_2d(spec)
acc = tr.spans[0].acc
print(acc["checked_steps"], acc["rhs_calls"], len(tries))
"""


def test_tracer_counts_the_steps_of_a_traced_put_curve():
    # the put curve steps through solver2d.checked_step, so the benchmark's
    # checked_steps and diag_curve_ms keep measuring it
    proc = _run(_TRACED_CURVE)
    assert proc.returncode == 0, proc.stderr
    steps, rhs, tries = (float(v) for v in proc.stdout.split())
    assert steps > 0 and steps == tries
    assert rhs == 7 * steps
    # the default curve reads its 4097 nodes off the steps' continuous
    # extensions, so the controller, not the grid, sets the step count
    # (342 on this model; one step per node made 4096)
    assert steps <= 400


_TRACED_SOLUTION = """
import tracer

tr = tracer.Tracer()
tracer.install(tr)
from drawdown_options import CoefficientField, ModelSpec, PutSolution3D

spec = ModelSpec(
    r=0.06, strike=1.0, payoff_kind="put",
    delta_field=CoefficientField("bounded_rational", (0.02, 0.0, 0.01)),
    sigma_field=CoefficientField("constant", (0.2,)),
)
with tr.span("op"):
    sol = PutSolution3D(spec, n_s=33, n_y=25)
names = [sp.name for sp in tr.spans]
acc = tr.spans[0].acc
print(len(sol.regions), sum(int(g.active.sum()) for g in sol.regions),
      names.count("reflection_pde.spsolve"), names.count("solver3d.detect_regions_3d"),
      acc["unknowns"], acc["lsqr_calls"])
"""


def test_tracer_sees_each_reflection_solve_and_region_scan():
    # the solve and the region scan are reached through the names the tracer
    # wraps, so spsolve_ms, unknowns and regions_ms keep measuring them
    proc = _run(_TRACED_SOLUTION)
    assert proc.returncode == 0, proc.stderr
    regions, active, solves, scans, unknowns, lsqr = (
        float(v) for v in proc.stdout.split()
    )
    assert regions >= 1 and solves == regions
    assert unknowns == 2 * active
    assert scans == 1  # one surface
    assert lsqr == 0


_TRACED_QUERY = """
import tracer

tr = tracer.Tracer()
tracer.install(tr)
from drawdown_options import CoefficientField, ModelSpec, PutSolution3D

spec = ModelSpec(
    r=0.06, strike=1.0, payoff_kind="put",
    delta_field=CoefficientField("s_only", (0.02, 0.01)),
    sigma_field=CoefficientField("constant", (0.2,)),
)
# built outside the span, so only the query counts
sol = PutSolution3D(spec, n_s=33, n_y=25)
s, y = 3.1, 2.9
assert sol.branch(s, y) == "direct"
with tr.span("op"):
    sol.value(3.0, s, y)
acc = tr.spans[0].acc
print(acc["checked_steps"], acc["rhs_calls"])
"""


def test_tracer_counts_the_steps_of_a_direct_query():
    # a direct query re-marches its line as one lane of the one march,
    # through solver2d.checked_step, so hop_steps_per_query keeps measuring
    # the re-march
    proc = _run(_TRACED_QUERY)
    assert proc.returncode == 0, proc.stderr
    steps, rhs = (float(v) for v in proc.stdout.split())
    assert steps >= 1
    assert rhs == 7 * steps

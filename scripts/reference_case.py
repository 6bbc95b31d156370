"""Flat-coefficient reference case, end to end.

With constant dividend and volatility the model collapses to closed forms.
This script prints every quantity the library should then reproduce through
its numerical paths: characteristic roots, the two barriers, values at the
classic evaluation points, and a Monte Carlo cross-check of the put.

Run from the repository root:

    python3 scripts/reference_case.py
"""

import time

from drawdown_options import (
    CallSolution2D,
    CallSolution3D,
    CoefficientField,
    ModelSpec,
    PutSolution2D,
    PutSolution3D,
    SimConfig,
    StateTriple,
    roots,
    rule_from_solution,
    simulate_stopped_payoff,
)
from drawdown_options.solver2d import call_boundary_2d, put_asymptote

R, DELTA, SIGMA = 0.06, 0.03, 0.2
N_PATHS, DT, HORIZON, SEED = 20_000, 5e-3, 120.0, 20260822


def make_spec(kind):
    return ModelSpec(
        r=R,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField("constant", (DELTA,)),
        sigma_field=CoefficientField("constant", (SIGMA,)),
    )


def main():
    call, put = make_spec("call"), make_spec("put")
    rp = roots(call, 1.0, 0.0)
    print(f"roots             gamma1 = {rp.gamma1:.12f}   gamma2 = {rp.gamma2:.12f}")
    print(f"call barrier      h* = {float(call_boundary_2d(call, 1.0)):.12f}"
          "   (closed form 3K)")
    print(f"put barrier       g* = {float(put_asymptote(put)):.12f}"
          "   (closed form 2L/3)")
    print(f"put value (L,L)   {PutSolution2D(put).value(1.0, 1.0):.12f}"
          f"   (closed form 4/27 = {4.0 / 27.0:.12f})")
    print(f"call value (2.0, 2.5) = {CallSolution2D(call).value(2.0, 2.5):.16f}")

    t0 = time.time()
    sol_call = CallSolution3D(call)
    sol_put = PutSolution3D(put)
    print(f"\n3D solutions built in {time.time() - t0:.1f} s")
    for y in (0.5, 1.0, 2.0):
        v = sol_call.value(2.0, 2.5, y)
        print(f"  call value (2.0, 2.5, {y:.1f}) = {v:.12f}")
    print(f"  put value  (1.0, 1.0, 0.0) = {sol_put.value(1.0, 1.0, 0.0):.12f}")

    cfg = SimConfig(n_paths=N_PATHS, dt=DT, horizon=HORIZON, seed=SEED)
    t0 = time.time()
    res = simulate_stopped_payoff(
        put, StateTriple(1.0, 1.0, 0.0), rule_from_solution(sol_put), cfg
    )
    print(
        f"\nMonte Carlo put at (1,1,0): {res.mean:.6f} +- {res.stderr:.2e} "
        f"({cfg.n_paths} paths, {time.time() - t0:.1f} s); "
        f"difference from 4/27: {abs(res.mean - 4.0 / 27.0):.2e}"
    )


if __name__ == "__main__":
    main()

"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one operation of each workload, requires its checks to pass, then feeds
every check corrupted copies of that same output and requires each to fail.
Exits 0 when all cases behave, 1 otherwise.  Takes about half a minute.
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 0
results = []


def expect(case, fails, want_fail):
    ok = bool(fails) == want_fail
    results.append(ok)
    verdict = "ok  " if ok else "FAIL"
    what = "rejected" if fails else "accepted"
    detail = f": {fails[0]}" if fails else ""
    print(f"{verdict} {case} {what}{detail}")


def one_op(workload):
    workload.set_up(0)
    workload.warm_up()
    inputs = workload.prepare(0)
    return inputs, workload.run(0, inputs)


def solve_cases():
    w = wl.Solve(SEED)
    specs, out = one_op(w)
    expect("solve: real output", w.check(0, specs, out), False)
    put, call = out
    surf = call.surface
    args = (wl.R, wl.STRIKE, wl.call_dividend(call.spec, surf.s_grid),
            call.spec.sigma_field.params[0])

    values = surf.values.copy()
    i, j = np.argwhere(np.isfinite(values))[len(values) // 2]
    values[i, j] *= 1.0 + 1e-6
    expect("solve: call barrier node off by 1e-6",
           checks.check_call_surface(*args, values, surf.slice_status), True)
    status = list(surf.slice_status)
    status[len(status) // 2] = ("step", 3.97)
    expect("solve: call slice flagged",
           checks.check_call_surface(*args, surf.values, status), True)

    (s, y, _), = wl.draw_lines(np.random.default_rng(1), put, {"direct": 1})
    a = float(put.boundary(s, y))
    x = np.linspace(s - y, s, 33)
    v = put.value_line(x, s, y)
    expect("solve: put line as computed", checks.check_put_line(wl.STRIKE, x, v, -1.0), False)
    low = v.copy()
    low[0] = wl.STRIKE - x[0] - 1e-3
    expect("solve: put value below payoff", checks.check_put_line(wl.STRIKE, x, low), True)
    rise = v.copy()
    rise[-1] = rise[-2] + 1e-6
    expect("solve: put value rising in x", checks.check_put_line(wl.STRIKE, x, rise), True)
    high = v.copy()
    high[0] = wl.STRIKE * 1.001
    expect("solve: put value above K", checks.check_put_line(wl.STRIKE, x, high), True)
    expect(f"solve: put slope -1.002 at the barrier {a:.4f}",
           checks.check_put_line(wl.STRIKE, x, v, -1.002), True)


def price_cases():
    w = wl.Price(SEED)
    book, values = one_op(w)
    expect("price: real output", w.check(0, book, values), False)

    def corrupt(case, pick, change):
        k = next(n for n, q in enumerate(book) if pick(q))
        vals = list(values)
        vals[k] = change(vals[k], book[k])
        expect(f"price: {case}", w.check(0, book, vals), True)

    corrupt("put value below payoff", lambda q: q[0] == "put" and q[1] == "stop",
            lambda v, q: wl.STRIKE - q[2] - 1e-3)
    corrupt("put value above K", lambda q: q[0] == "put" and q[1] == "reflect",
            lambda v, q: wl.STRIKE * 1.001)
    corrupt("call value above x", lambda q: q[0] == "call" and q[1] == "reflect",
            lambda v, q: q[2] * 1.001)
    corrupt("call direct value off by 1e-9", lambda q: q[0] == "call" and q[1] == "direct",
            lambda v, q: v * (1.0 + 1e-9))
    corrupt("call reflect value off by 2 %", lambda q: q[0] == "call" and q[1] == "reflect",
            lambda v, q: v * 0.98)
    k = next(n for n, q in enumerate(book) if q[1] == "reflect")
    relabelled = list(book)
    relabelled[k] = (book[k][0], "direct") + book[k][2:]
    expect("price: line on the wrong branch", w.check(0, relabelled, values), True)


def verify_cases():
    w = wl.Verify(SEED)
    inputs, report = one_op(w)
    expect("verify: real output", w.check(0, inputs, report), False)

    def corrupt(case, **changes):
        expect(f"verify: {case}", w.check(0, inputs, {**report, **changes}), True)

    corrupt("Monte Carlo mean 10 % off the analytic value",
            mc_mean=report["analytic_value"] * 1.1)
    table = [[f, report["mc_mean"] * 1.05 if f == 0.9 else m, e]
             for f, m, e in report["perturbation_table"]]
    corrupt("barrier x0.9 beats the solved one by 5 %", perturbation_table=table)
    corrupt("dominance violation", dominance_violations=1)
    corrupt("generator sign violation", generator_sign_violations=1)
    corrupt("smooth fit off", smooth_fit_gap=2e-3)
    corrupt("report failed", passed=False)


if __name__ == "__main__":
    solve_cases()
    price_cases()
    verify_cases()
    print(f"{sum(results)} of {len(results)} cases behave")
    sys.exit(0 if all(results) else 1)

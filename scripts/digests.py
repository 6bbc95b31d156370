"""Bit-level digests of the solver's outputs over a fixed model matrix.

For every model of the matrix (flat, s-only, y-only and general dividends,
and a y-dependent volatility; calls and puts) at every lattice, the script
solves the model and writes one line per output:

    <model>/<n_s>x<n_y>/<output> <sha256> <entries as a JSON list>

Numbers are written as ``float.hex``, so two files are equal only if every
bit is.  The outputs are the boundary surface (values, labels, slice
status, cap curve, switch points), each reflection region's C1 and C2
grids, the line records of a 12 x 12 probe grid taken one at a time
(``line``) and, where the solution has it, as one batch (``lines``), the
values along each probed line, and the dict of a 20 x 20 x 20 audit.  At
33 x 25, one short seeded Monte Carlo run of the solved rule and its 0.9
and 1.1 scalings adds each rule's ``SimResult``.  A solve or a query that
raises is written as its error.

Once per model, under ``<model>/2d/``, the script also writes the
maximum-only outputs of the model's ``diagonal_spec()``: for a put the
``put_boundary_2d`` curve (values, switch points, largest step error), for
a call the ``CallSolution2D`` switch points, and for either the 2D
solution's values on a 12 x 7 (s, x) probe grid and its coefficients at
the 12 probe levels s, each probe written as its value or its error.

For the models of CLI_MODELS, under ``<model>/cli/``, the script runs
``ddopt boundary --dim 2``, ``ddopt boundary --dim 3`` and ``ddopt value
--dim 3`` at a point on a direct put line (whose level is re-marched from
its seed) with a 33 x 25 grid, and writes each run's exit code, stdout and
stderr and the lines of every file it wrote.

Run from the repository root:

    python3 scripts/digests.py --out FILE [--against FILE]
        [--models flat-put,y_only-call] [--lattices 33x25,65x49,193x129]

``diff`` of two files shows every output that changed.  With --against,
the script also compares its outputs with an earlier file, prints the
largest difference of each output that changed, and exits with status 1
if any did.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from drawdown_options import (
    CallSolution2D,
    CallSolution3D,
    CoefficientField,
    ModelSpec,
    PutSolution2D,
    PutSolution3D,
    SimConfig,
    StateTriple,
    audit_solution,
    rule_from_solution,
    simulate_stopped_payoffs,
)
from drawdown_options import cli
from drawdown_options.errors import ResolutionWarning

FLAT_SIGMA = ("constant", (0.2,))
FIELDS = {
    "flat": (("constant", (0.03,)), FLAT_SIGMA),
    "s_only": (("s_only", (0.02, 0.02)), FLAT_SIGMA),
    "y_only": (("bounded_rational", (0.02, 0.0, 0.01)), FLAT_SIGMA),
    "general": (("bounded_rational", (0.02, 0.01, 0.01)), FLAT_SIGMA),
    "vol": (
        ("bounded_rational", (0.02, 0.0, 0.01)),
        ("bounded_rational", (0.2, 0.02, 0.03)),
    ),
}
MODELS = [f"{name}-{kind}" for name in FIELDS for kind in ("put", "call")]
LATTICES = [(33, 25), (65, 49), (193, 129)]
PROBES = 12  # line records on a PROBES x PROBES grid of (s, y)
AUDIT_SHAPE = (20, 20, 20)
LINE_FIELDS = ("level", "branch", "g1", "g2", "c1", "c2")
SIM_LATTICE = (33, 25)  # the lattice whose solutions are also simulated
SIM = SimConfig(n_paths=256, dt=0.05, horizon=120.0, seed=20261020)
SIM_START = StateTriple(1.0, 1.2, 0.5)
SIM_FACTORS = (0.9, 1.1)
SIM_FIELDS = ("mean", "stderr", "n_paths", "n_horizon", "mean_stop_time")
X_PROBES = 7  # prices per probe level s of a 2D solution
CLI_MODELS = ("s_only-put", "y_only-put")  # the models whose ddopt files are written
CLI_RUNS = {
    "boundary2d": ["boundary", "--dim", "2"],
    "boundary3d": ["boundary", "--dim", "3"],
    # the line at (s, y) = (3.1, 2.9) is direct on both models
    "value3d": ["value", "--dim", "3", "--x", "3.0", "--s", "3.1", "--y", "2.9"],
}


def model_spec(model):
    name, kind = model.split("-")
    delta, sigma = FIELDS[name]
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField(*delta),
        sigma_field=CoefficientField(*sigma),
    )


def solve(model, n_s, n_y):
    spec = model_spec(model)
    cls = PutSolution3D if spec.payoff_kind == "put" else CallSolution3D
    return spec, cls(spec, n_s=n_s, n_y=n_y)


def _entry(v):
    if isinstance(v, str):
        return v
    return float(v).hex()


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _probes(surface):
    s_nodes = np.linspace(surface.s_grid[0], surface.s_grid[-1], PROBES)
    y_nodes = np.linspace(0.0, surface.y_grid[-1], PROBES)
    return [(s, y) for s in s_nodes for y in y_nodes[y_nodes < s * (1.0 - 1e-9)]]


def _line_outputs(prefix, records, xs):
    """One output per record field, and the values along the lines."""
    out = {f"{prefix}.{f}": [getattr(r, f) for r in records] for f in LINE_FIELDS}
    out[f"{prefix}.values"] = [v for r, x in zip(records, xs) for v in r.values(x)]
    return out


def _each(fn, args):
    """The numbers fn(*a) gives for each a in args, or the error it raises."""
    out = []
    for a in args:
        try:
            out.extend(np.ravel(fn(*a)).tolist())
        except Exception as exc:  # a probe's typed error is an output too
            out.append(_error(exc))
    return out


def _switch_entries(switches):
    return [f"{float(p).hex()}:{d}" for p, d in switches]


def outputs_2d(spec):
    """The maximum-only outputs of spec's diagonal restriction, by its kind."""
    dspec = spec.diagonal_spec()
    put = dspec.payoff_kind == "put"
    out = {}
    if put:
        sol = PutSolution2D(dspec)
        curve = sol.curve  # put_boundary_2d on the default grid
        out["put_curve.values"] = curve.values
        out["put_curve.switches"] = _switch_entries(curve.switches)
        out["put_curve.max_step_error"] = [curve.max_step_error]
    else:
        sol = CallSolution2D(dspec)
        out["call2d.switches"] = _switch_entries(sol.switches)
    levels = [(s,) for s in np.linspace(0.05, dspec.domain_s_max, PROBES)]
    points = [(s * f, s) for (s,) in levels for f in np.linspace(0.1, 1.0, X_PROBES)]
    prefix = f"{dspec.payoff_kind}2d"
    out[f"{prefix}.values"] = _each(sol.value, points)
    out[f"{prefix}.coefficients"] = _each(sol.coefficients if put else sol.coefficient, levels)
    return out


def cli_outputs(model):
    """Exit code, stdout, stderr and written files of each CLI_RUNS command."""
    name, kind = model.split("-")
    lines = [f"r = 0.06\nstrike = 1.0\npayoff = {kind}\ngrid.n_s = 33\ngrid.n_y = 25\n"]
    for key, (family, params) in zip(("delta", "sigma"), FIELDS[name]):
        lines.append(f"{key}.family = {family}\n{key}.params = {','.join(map(repr, params))}\n")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "run.conf")
        with open(conf, "w") as fh:
            fh.write("".join(lines))
        for run, argv in CLI_RUNS.items():
            where = os.path.join(tmp, run)
            stdout, stderr = io.StringIO(), io.StringIO()
            # warnings are left out: whether one prints depends on earlier runs
            with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main([*argv, "--config", conf, "--out", where])
            out[f"{run}.run"] = [str(code), stdout.getvalue(), stderr.getvalue()]
            for fname in sorted(os.listdir(where)) if os.path.isdir(where) else []:
                with open(os.path.join(where, fname)) as fh:
                    out[f"{run}.{fname}"] = fh.read().splitlines()
    return out


def sim_outputs(spec, sol):
    """SimResults of the solved rule and its SIM_FACTORS scalings, one pass."""
    rule = rule_from_solution(sol)
    rules = [rule] + [rule.scaled(f) for f in SIM_FACTORS]
    names = ["rule"] + [f"rule_x{f}" for f in SIM_FACTORS]
    try:
        results = simulate_stopped_payoffs(spec, SIM_START, rules, SIM)
    except Exception as exc:
        return {"sim.error": [_error(exc)]}
    return {
        f"sim.{name}": [getattr(res, f) for f in SIM_FIELDS]
        for name, res in zip(names, results)
    }


def model_outputs(spec, sol):
    surf = sol.surface
    out = {
        "surface.values": surf.values.ravel(),
        "surface.labels": [str(v) for v in surf.labels.ravel()],
        "surface.status_kind": [kind for kind, _ in surf.slice_status],
        "surface.status_at": [at for _, at in surf.slice_status],
        "surface.cap_curve": surf.cap_curve,
        "surface.switches": [
            f"{k}:{label}:{float(p).hex()}:{d}"
            for k, rec in enumerate(surf.slice_switches)
            for label in sorted(rec)
            for p, d in rec[label]
        ],
    }
    for r, grid in enumerate(sol.regions):
        out[f"region{r}.C1"] = grid.C1.ravel()
        out[f"region{r}.C2"] = grid.C2.ravel()

    probes = _probes(surf)
    xs = [np.linspace(s - y, s, 7) for s, y in probes]
    records = []
    try:
        records = [sol.line(s, y) for s, y in probes]
        out.update(_line_outputs("line", records, xs))
    except Exception as exc:  # a query's typed error is an output too
        out["line.error"] = [_error(exc)]
    if hasattr(sol, "lines"):
        try:
            batch = sol.lines(*(np.array(a) for a in zip(*probes)))
            out.update(_line_outputs("lines", [batch[k] for k in range(len(batch))], xs))
        except Exception as exc:
            out["lines.error"] = [_error(exc)]

    try:
        audit = audit_solution(spec, sol, dominance_shape=AUDIT_SHAPE)
        out.update({f"audit.{k}": [v] for k, v in sorted(audit.items())})
    except Exception as exc:
        out["audit.error"] = [_error(exc)]
    return out


def digests(models, lattices):
    """{output name: list of entries} over the matrix, in a fixed order."""
    result = {}
    for model in models:
        try:
            outs = outputs_2d(model_spec(model))
        except Exception as exc:
            outs = {"error": [_error(exc)]}
        for name, entries in outs.items():
            result[f"{model}/2d/{name}"] = [_entry(v) for v in entries]
        if model in CLI_MODELS:
            for name, entries in cli_outputs(model).items():
                result[f"{model}/cli/{name}"] = entries
        for n_s, n_y in lattices:
            key = f"{model}/{n_s}x{n_y}"
            try:
                spec, sol = solve(model, n_s, n_y)
            except Exception as exc:
                result[f"{key}/error"] = [_error(exc)]
                continue
            outs = model_outputs(spec, sol)
            if (n_s, n_y) == SIM_LATTICE:
                outs.update(sim_outputs(spec, sol))
            for name, entries in outs.items():
                result[f"{key}/{name}"] = [_entry(v) for v in entries]
    return result


def write(path, result):
    with open(path, "w") as fh:
        for name, entries in result.items():
            payload = json.dumps(entries)
            sha = hashlib.sha256(payload.encode()).hexdigest()
            fh.write(f"{name} {sha} {payload}\n")


def read(path):
    result = {}
    with open(path) as fh:
        for line in fh:
            name, _, payload = line.rstrip("\n").split(" ", 2)
            result[name] = json.loads(payload)
    return result


def _numbers(entries):
    try:
        return np.array([float.fromhex(e) for e in entries])
    except (TypeError, ValueError):
        return None


def compare(old, new):
    """Print each output that differs between two results; return their count."""
    changed = 0
    for name in sorted(set(old) | set(new)):
        if name not in new or name not in old:
            where = "earlier file" if name in old else "this run"
            print(f"{name}: only in the {where}")
            changed += 1
            continue
        a, b = old[name], new[name]
        if a == b:
            continue
        changed += 1
        x, y = _numbers(a), _numbers(b)
        if x is None or y is None or x.shape != y.shape:
            print(f"{name}: differs")
            continue
        nan = np.isnan(x) != np.isnan(y)
        both = ~(np.isnan(x) | np.isnan(y))
        diff = np.abs(x[both] - y[both])
        big = diff.max() if diff.size else 0.0
        scale = np.abs(x[both]).max() if diff.size else 0.0
        rel = big / scale if scale else float("nan")
        print(
            f"{name}: max |diff| {big:.3g} ({rel:.3g} of max |value|), "
            f"{int(np.count_nonzero(diff))} of {x.size} entries moved, "
            f"{int(nan.sum())} NaN mismatches"
        )
    print(f"{len(set(old) | set(new)) - changed} outputs identical, {changed} differ")
    return changed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="file to write the digests to")
    ap.add_argument("--against", help="earlier digest file to compare with")
    ap.add_argument("--models", default=",".join(MODELS),
                    help="comma-separated models, from: " + ", ".join(MODELS))
    ap.add_argument("--lattices", default=",".join(f"{a}x{b}" for a, b in LATTICES),
                    help="comma-separated n_s x n_y lattices")
    args = ap.parse_args(argv)
    models = args.models.split(",")
    unknown = sorted(set(models) - set(MODELS))
    if unknown:
        ap.error(f"unknown models: {', '.join(unknown)}")
    lattices = [tuple(int(n) for n in lat.split("x")) for lat in args.lattices.split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        result = digests(models, lattices)
    write(args.out, result)
    if args.against:
        return 1 if compare(read(args.against), result) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

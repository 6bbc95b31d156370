"""Command-line front end.

Subcommands wrap the library modules and export plot-ready CSV and JSON:
``roots`` tabulates the characteristic exponents over the configured grid,
``boundary`` exports free-boundary curves (2D) or surfaces plus region data
(3D), ``value`` evaluates the option value at a point, ``verify`` runs the
full Monte Carlo verification report, and ``simulate`` prices a start point
under the solved stopping rule.

All numeric output uses 17 significant digits so reruns are byte-identical
and values round-trip exactly.  Exit codes: 0 success, 1 configuration or
I/O problem, 2 constraint breach (including a failed verification), 3 domain
violation, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .coefficients import _ORIENT, StateTriple, roots_arrays
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    ConstraintBreach,
    DomainError,
    NonConvergence,
    NonPositiveCoefficient,
    SingularDenominator,
    StepError,
    UnderdeterminedRegion,
)
from .montecarlo import rule_from_solution, simulate_stopped_payoff, verify_solution
from .solver2d import (
    CallSolution2D,
    PutSolution2D,
    put_boundary_2d,
    region_index_of,
)
from .solver3d import CallSolution3D, PutSolution3D

FMT = "%.17g"


def _f(v) -> str:
    return FMT % float(v)


def _write_rows(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _solution_2d(cfg: RunConfig):
    if cfg.spec.payoff_kind == "call":
        return CallSolution2D(cfg.spec)
    return PutSolution2D(cfg.spec)


def _solution_3d(cfg: RunConfig):
    cls = CallSolution3D if cfg.spec.payoff_kind == "call" else PutSolution3D
    return cls(cfg.spec, n_s=cfg.n_s, n_y=cfg.n_y)


def cmd_roots(cfg: RunConfig, args) -> int:
    s = np.linspace(cfg.s_min, cfg.s_max, cfg.n_s)
    y = np.linspace(0.0, cfg.y_max, cfg.n_y)
    ss, yy = np.meshgrid(s, y, indexing="ij")
    # rows where the nominal y exceeds s are evaluated on the diagonal
    yy = np.minimum(yy, ss)
    cols = roots_arrays(cfg.spec, ss, yy)
    rows = (
        [_f(ss[i, j]), _f(yy[i, j])] + [_f(c[i, j]) for c in cols]
        for i in range(cfg.n_s)
        for j in range(cfg.n_y)
    )
    _write_rows(
        os.path.join(cfg.output_dir, "roots.csv"),
        "s,y,gamma1,gamma2,dg1_ds,dg2_ds,dg1_dy,dg2_dy",
        rows,
    )
    return 0


def _boundary_2d(cfg: RunConfig, args) -> int:
    sol = _solution_2d(cfg)
    if cfg.spec.payoff_kind == "put":
        curve = sol.curve
        lo, hi = float(curve.grid[0]), float(curve.grid[-1])
        switches = curve.switches
    else:
        lo, hi = sol.s_lo, sol.s_hi
        switches = sol.switches
    s = np.linspace(max(cfg.s_min, lo), min(cfg.s_max, hi), cfg.n_s)
    vals = np.asarray(sol.boundary(s), dtype=float)
    rows = (
        [_f(sv), _f(vv), str(region_index_of(switches, sv))]
        for sv, vv in zip(s, vals)
    )
    _write_rows(
        os.path.join(cfg.output_dir, "boundary2d.csv"), "s,value,region_index", rows
    )
    _write_rows(
        os.path.join(cfg.output_dir, "switches.csv"),
        "s,direction",
        ([_f(pos), direction] for pos, direction in switches),
    )
    if args.shoot_offset:
        off = put_boundary_2d(cfg.spec, shoot_offset=args.shoot_offset)
        offs = off(s)
        _write_rows(
            os.path.join(cfg.output_dir, "boundary2d_offset.csv"),
            "s,value",
            ([_f(sv), _f(vv)] for sv, vv in zip(s, offs)),
        )
        lower = bool(np.all(offs < vals))
        gap = float(np.max(vals - offs))
        print(
            f"shoot-offset {args.shoot_offset:g}: strictly lower curve: {lower}, "
            f"largest drop {gap:.6g}"
        )
    return 0


def _boundary_3d(cfg: RunConfig, args) -> int:
    sol = _solution_3d(cfg)
    surf = sol.surface
    rows = (
        [
            _f(surf.s_grid[i]),
            _f(surf.y_grid[j]),
            _f(surf.values[i, j]),
            str(int(np.isfinite(surf.values[i, j]))),
            surf.labels[i, j],
        ]
        for i in range(surf.s_grid.size)
        for j in range(surf.y_grid.size)
    )
    _write_rows(
        os.path.join(cfg.output_dir, "boundary3d.csv"),
        "s,y,value,active,region_label",
        rows,
    )
    o = _ORIENT[surf.kind]
    slice_grid, cap_axis = o.swap(surf.s_grid, surf.y_grid)
    sw_rows = []
    for slice_pos, rec in zip(slice_grid, surf.slice_switches):
        for kind in ("reflect", "stop"):
            for pos, direction in rec[kind]:
                sw_rows.append([_f(slice_pos), kind, _f(pos), direction])
    _write_rows(
        os.path.join(cfg.output_dir, "switches.csv"),
        "slice,boundary,position,direction",
        sw_rows,
    )
    _write_rows(
        os.path.join(cfg.output_dir, "caps.csv"),
        f"{o.moving},{o.fixed}_bar",
        ([_f(a), _f(c)] for a, c in zip(cap_axis, surf.cap_curve)),
    )
    return 0


def cmd_boundary(cfg: RunConfig, args) -> int:
    kind = cfg.spec.payoff_kind
    if args.shoot_offset and (args.dim, kind) != (2, "put"):
        raise ConfigError(
            f"--shoot-offset applies to the 2D put only, got --dim {args.dim} on a {kind}"
        )
    if args.dim == 2:
        return _boundary_2d(cfg, args)
    return _boundary_3d(cfg, args)


def _point(cfg: RunConfig, args) -> StateTriple:
    x = cfg.spec.strike if args.x is None else args.x
    s = cfg.spec.strike if args.s is None else args.s
    y = 0.0 if args.y is None else args.y
    if args.y is None and getattr(args, "dim", 3) == 2 and x < s:
        # the maximum-only model reads no drawdown: give the point the
        # smallest one it admits, s - y <= x
        y = s - x
        while s - y > x:
            y = math.nextafter(y, math.inf)
    return StateTriple(x=x, s=s, y=y)


def cmd_value(cfg: RunConfig, args) -> int:
    p = _point(cfg, args)
    if args.dim == 2:
        sol = _solution_2d(cfg)
        val = sol.value(p.x, p.s)
    else:
        sol = _solution_3d(cfg)
        val = sol.value(p.x, p.s, p.y)
    _write_rows(
        os.path.join(cfg.output_dir, "value.csv"),
        "x,s,y,value",
        [[_f(p.x), _f(p.s), _f(p.y), _f(val)]],
    )
    print(f"value({_f(p.x)}, {_f(p.s)}, {_f(p.y)}) = {_f(val)}")
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    sol = _solution_3d(cfg)
    report = verify_solution(
        cfg.spec, sol, _point(cfg, args), cfg.sim, perturb_factors=args.perturb
    )
    path = os.path.join(cfg.output_dir, "verify.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(f"verification {'passed' if report.passed else 'FAILED'}; report at {path}")
    return 0 if report.passed else 2


def cmd_simulate(cfg: RunConfig, args) -> int:
    p = _point(cfg, args)
    if args.dim == 2:
        sol = _solution_2d(cfg)
    else:
        sol = _solution_3d(cfg)
    res = simulate_stopped_payoff(cfg.spec, p, rule_from_solution(sol), cfg.sim)
    out = dict(res.as_dict())
    out.update(x=p.x, s=p.s, y=p.y, seed=cfg.sim.seed, dt=cfg.sim.dt,
               horizon=cfg.sim.horizon)
    path = os.path.join(cfg.output_dir, "simulate.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(out, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"mean {_f(res.mean)} stderr {_f(res.stderr)}")
    return 0


def _factors(text: str):
    """--perturb: comma-separated barrier scale factors, finite and positive."""
    try:
        factors = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        msg = f"need comma-separated numbers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None
    if not all(math.isfinite(f) and f > 0 for f in factors):
        raise argparse.ArgumentTypeError(f"need finite positive factors, got {text!r}")
    return factors


def _finite(text: str) -> float:
    """--shoot-offset: a finite number."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return v


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The ddopt parser: each subcommand accepts only the flags it reads."""
    parser = _Parser(prog="ddopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, dim=None):
        # no prefix matching: "--s" on boundary must not mean --shoot-offset
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        if dim is not None:
            sp.add_argument("--dim", type=int, choices=(2, 3), default=dim)
        return sp

    def point(sp):
        for flag in ("--x", "--s", "--y"):
            sp.add_argument(flag, type=float, default=None)

    command("roots", cmd_roots)
    sp = command("boundary", cmd_boundary, dim=2)
    sp.add_argument("--shoot-offset", dest="shoot_offset", type=_finite, default=0.0)
    point(command("value", cmd_value, dim=2))
    sp = command("verify", cmd_verify)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--perturb", type=_factors, default="0.9,1.1")
    point(sp)
    sp = command("simulate", cmd_simulate, dim=3)
    sp.add_argument("--seed", type=int, default=None)
    point(sp)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        # only verify and simulate take --seed
        seed = getattr(args, "seed", None)
        if seed is not None:
            cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=seed))
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        os.makedirs(cfg.output_dir, exist_ok=True)
        return args.fn(cfg, args)
    except ConstraintBreach as exc:
        print(f"constraint breach: {exc}", file=sys.stderr)
        return 2
    except SingularDenominator as exc:
        print(f"singular denominator: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (NonConvergence, StepError, UnderdeterminedRegion) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, NonPositiveCoefficient) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

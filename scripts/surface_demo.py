"""Boundary surfaces under a drawdown-sensitive dividend.

Builds the put and call boundary surfaces for a model whose dividend rises
with the running drawdown, prints how the lattice splits into stopping,
direct and reflected regions, and samples a few slices so the shape of the
cap curve is visible in the terminal.

    python3 scripts/surface_demo.py [--n 129] [--csv DIR]
"""

import argparse
import os

import numpy as np

from drawdown_options import (
    CoefficientField,
    ModelSpec,
    build_call_surface,
    build_put_surface,
)
from drawdown_options.coefficients import _ORIENT


def make_spec(kind):
    # dividend 0.02 + 0.01 y/(1+y): a deep drawdown makes holding costlier
    return ModelSpec(
        r=0.06,
        strike=1.0,
        payoff_kind=kind,
        delta_field=CoefficientField("bounded_rational", (0.02, 0.0, 0.01)),
        sigma_field=CoefficientField("constant", (0.2,)),
    )


def describe(surf):
    labels, counts = np.unique(surf.labels, return_counts=True)
    total = surf.labels.size
    parts = ", ".join(
        f"{lab or 'off-space'} {100.0 * c / total:.1f}%"
        for lab, c in zip(labels, counts)
    )
    print(f"  node composition: {parts}")
    cap = surf.cap_curve
    ok = np.isfinite(cap)
    if ok.any():
        # one cap point per node of the axis the slices march along
        axis = _ORIENT[surf.kind].swap(surf.s_grid, surf.y_grid)[1]
        print(
            f"  cap curve spans [{cap[ok].min():.4f}, {cap[ok].max():.4f}] "
            f"over {ok.sum()} of {axis.size} slices"
        )
    n_switch = sum(
        len(rec["reflect"]) + len(rec["stop"]) for rec in surf.slice_switches
    )
    print(f"  switch points recorded: {n_switch}")


def sample_rows(surf, n=4):
    idx = np.linspace(8, surf.s_grid.size - 1, n, dtype=int)
    for i in idx:
        row = surf.values[i]
        ok = np.isfinite(row)
        if not ok.any():
            continue
        j = np.flatnonzero(ok)
        print(
            f"  s = {surf.s_grid[i]:6.3f}: barrier "
            f"{row[j[0]]:.4f} at y={surf.y_grid[j[0]]:.3f} -> "
            f"{row[j[-1]]:.4f} at y={surf.y_grid[j[-1]]:.3f}"
        )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=129, help="lattice nodes per axis")
    ap.add_argument("--csv", default=None, help="directory for raw CSV dumps")
    args = ap.parse_args()

    s_grid = np.linspace(0.05, 10.0, args.n)
    y_grid = np.linspace(0.0, 8.0, args.n)
    for kind, build in (("put", build_put_surface), ("call", build_call_surface)):
        surf = build(make_spec(kind), s_grid, y_grid)
        print(f"{kind} surface on {args.n}x{args.n}:")
        describe(surf)
        sample_rows(surf)
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"surface_{kind}.csv")
            ii, jj = np.meshgrid(
                np.arange(s_grid.size), np.arange(y_grid.size), indexing="ij"
            )
            np.savetxt(
                path,
                np.column_stack(
                    [s_grid[ii.ravel()], y_grid[jj.ravel()], surf.values.ravel()]
                ),
                delimiter=",",
                header="s,y,value",
                comments="",
            )
            print(f"  wrote {path}")
        print()


if __name__ == "__main__":
    main()

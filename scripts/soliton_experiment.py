#!/usr/bin/env python3
"""One-soliton benchmark run: travel, shape error, residual, invariant drift.

Writes a snapshot CSV suitable for external plotting.

Usage: python scripts/soliton_experiment.py [--c 4.0] [--t-end 1.0] [--csv soliton.csv]
"""

import argparse

import numpy as np

from g2soliton.pde import (
    Grid1D,
    conserved_quantities,
    evolve_trajectory,
    exact_soliton,
    kdv_residual,
    one_soliton,
    soliton_peak_travel,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--c", type=float, default=4.0)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--L", type=float, default=40.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    grid = Grid1D(args.n, args.L)
    x0 = args.L / 4
    u0 = one_soliton(grid, args.c, x0)
    traj = evolve_trajectory("kdv", u0, args.t_end, args.dt, save_every=1)
    final = traj[-1]

    shape_err = np.max(np.abs(final.values - exact_soliton(grid, args.c, x0, args.t_end)))
    travel = soliton_peak_travel(final, x0)
    residual = kdv_residual(traj, args.dt)
    q0, q1 = conserved_quantities(traj[0]), conserved_quantities(final)
    drifts = [abs(b - a) / abs(a) for a, b in zip(q0, q1)]

    print(f"speed c = {args.c}: trough traveled {travel:.4f} (expected {args.c * args.t_end:.4f})")
    print(f"shape error vs closed form: {shape_err:.3e}")
    print(f"trajectory residual:        {residual:.3e}")
    print(f"invariant drifts:           mass {drifts[0]:.2e}, momentum {drifts[1]:.2e}, energy {drifts[2]:.2e}")

    if args.csv:
        stride = max(1, len(traj) // 10)
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,x,re_u\n")
            for i in range(0, len(traj), stride):
                t = i * args.dt
                for xv, uv in zip(grid.x, traj[i].values):
                    fh.write(f"{t},{xv},{uv}\n")
        print(f"snapshots written to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

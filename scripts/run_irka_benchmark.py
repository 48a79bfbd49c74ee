#!/usr/bin/env python3
"""Sweep reduced orders on the heated-plate benchmark and tabulate how close
the fixed-point iteration gets to H2 optimality at each order."""

import argparse

import numpy as np

from opmor.funcspace import Patch, QuadratureGrid
from opmor.h2 import h2_error, h2_norm, optimality_residuals
from opmor.heat2d import FullModel, default_quad_order
from opmor.irka import IrkaConfig, run


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-modes", type=int, default=12, help="modal truncation N_max")
    ap.add_argument("--orders", default="1,2,3,4,5,6",
                    help="comma-separated reduced orders to sweep")
    ap.add_argument("--max-iter", type=int, default=100)
    ap.add_argument("--tol", type=float, default=1e-8)
    return ap.parse_args()


def main():
    args = parse_args()
    order = default_quad_order(args.n_modes)
    model = FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), order),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), order),
        args.n_modes,
    )
    norm = h2_norm(model)
    print(f"benchmark: {model.poles.size} modes, quadrature order {order}, "
          f"||G|| = {norm:.6e}")
    print(f"{'r':>3} {'iters':>6} {'converged':>10} {'rel H2 error':>14} "
          f"{'opt residual':>14}")
    for r in (int(tok) for tok in args.orders.split(",")):
        rom, report = run(model, IrkaConfig(r=r, max_iter=args.max_iter,
                                            point_tol=args.tol))
        if rom is None:
            print(f"{r:>3} {'-':>6} {'no':>10} {'-':>14} {'-':>14}")
            continue
        rel = np.sqrt(h2_error(model, rom)) / norm
        residual = optimality_residuals(model, rom).max_residual
        print(f"{r:>3} {report.iterations:>6} {str(report.converged):>10} "
              f"{rel:>14.6e} {residual:>14.6e}")


if __name__ == "__main__":
    main()

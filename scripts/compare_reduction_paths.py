#!/usr/bin/env python3
"""Build the same interpolatory reduced model twice, once from transfer
function samples alone and once by explicit Petrov-Galerkin projection of the
modal truncation, and report how well the two agree."""

import argparse

import numpy as np

from opmor.funcspace import Patch, QuadratureGrid
from opmor.h2 import interpolation_residuals
from opmor.heat2d import FullModel, default_quad_order
from opmor.loewner import assemble
from opmor.projection import build_bases, project_explicit, sylvester_residuals
from opmor.samples import collect

SIGMAS = [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j]
RHOS = [1.5, 2.5, 6.0 + 1.0j, 6.0 - 1.0j]
RIGHT_DIRS = ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,1"]
LEFT_DIRS = ["mode:1,1", "mode:2,2", "mode:1,3", "mode:1,3"]


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-modes", type=int, default=12)
    args = ap.parse_args()

    order = default_quad_order(args.n_modes)
    model = FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), order),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), order),
        args.n_modes,
    )
    dataset = collect(model, SIGMAS, RIGHT_DIRS, RHOS, LEFT_DIRS)
    rom_data = assemble(dataset)
    V, W, data = build_bases(model, SIGMAS, RIGHT_DIRS, RHOS, LEFT_DIRS)
    rom_proj = project_explicit(model, V, W, data)

    print(f"model: {model.poles.size} modes, r = {rom_data.r}")
    print(f"E agreement:        {rel_gap(rom_data.E, rom_proj.E):.3e}")
    print(f"A agreement:        {rel_gap(rom_data.A, rom_proj.A):.3e}")
    print(f"B rows agreement:   {rel_gap(rom_data.B, rom_proj.B):.3e}")
    print(f"C columns agreement:{rel_gap(rom_data.C, rom_proj.C):.3e}")
    rel_r, rel_l = sylvester_residuals(model, V, W, data)
    print(f"Sylvester residuals: right {rel_r:.3e}, left {rel_l:.3e}")

    worst = np.concatenate(interpolation_residuals(rom_data, dataset)).max()
    print(f"worst interpolation residual at the sample points: {worst:.3e}")


if __name__ == "__main__":
    main()

"""End-to-end acceptance checks at benchmark scale.

One test per criterion; each registers a PASS/FAIL line that the conftest
hook prints after the run. Scale: heat model with 144 modes (N_max = 12),
control patch [0.1,0.3]^2, observation patch [0.6,0.8]^2, quadrature order
28, reduced orders <= 6.
"""

import json

import numpy as np
import pytest

from opmor import rom as rom_mod
from opmor.cli import main
from opmor.funcspace import Patch, QuadratureGrid, inner_product, row_norms
from opmor.h2 import (
    frequency_rule,
    h2_error,
    h2_error_quadrature,
    h2_inner_rank1,
    h2_norm_report,
    optimality_residuals,
)
from opmor.heat2d import FullModel
from opmor.irka import IrkaConfig, run
from opmor.loewner import assemble
from opmor.projection import build_bases, project_explicit, sylvester_residuals
from opmor.rom import pole_residue
from opmor.samples import collect

from oracles import RankOneModel, projector_check

CON = Patch(0.1, 0.3, 0.1, 0.3)
OBS = Patch(0.6, 0.8, 0.6, 0.8)
QUAD_ORDER = 28

SIGMAS = [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j]
RHOS = [1.0, 3.0, 6.0 + 1.0j, 6.0 - 1.0j]  # first pair coincides with SIGMAS
RIGHT_DIRS = ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,1"]
LEFT_DIRS = ["mode:1,1", "mode:2,2", "mode:1,3", "mode:1,3"]


def unit_const(grid):
    f = np.ones(grid.size, dtype=np.complex128)
    return f / row_norms(f, grid)


def random_unit(grid, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return f / row_norms(f, grid)


@pytest.fixture(scope="module")
def heat():
    return FullModel(
        QuadratureGrid(CON, QUAD_ORDER),
        QuadratureGrid(OBS, QUAD_ORDER),
        12,
    )


@pytest.fixture(scope="module")
def heat8():
    # smaller truncation for the quadrature consistency criterion
    return FullModel(
        QuadratureGrid(CON, QUAD_ORDER),
        QuadratureGrid(OBS, QUAD_ORDER),
        8,
    )


@pytest.fixture(scope="module")
def toy():
    u_grid = QuadratureGrid(CON, 8)
    y_grid = QuadratureGrid(OBS, 8)
    return RankOneModel(u_grid, y_grid, unit_const(u_grid), unit_const(y_grid), -1.0)


@pytest.fixture(scope="module")
def irka_result(heat):
    return run(heat, IrkaConfig(r=2, init_points=[1.0, 10.0]))


def test_criterion_1_tangential_interpolation(heat, acceptance_log):
    ds = collect(heat, SIGMAS, RIGHT_DIRS, RHOS, LEFT_DIRS)
    rom = assemble(ds)
    worst_right = 0.0
    for s, p in zip(SIGMAS, ds.P):
        want = heat.apply_tf(s, p)
        worst_right = max(worst_right, row_norms(rom.eval_tf(s, p) - want, ds.y_grid)
                          / row_norms(want, ds.y_grid))
    worst_left = 0.0
    for t, q in zip(RHOS, ds.Q):
        want = heat.apply_tf_adjoint(t, q)
        worst_left = max(worst_left, row_norms(rom.eval_tf_adjoint(t, q) - want, ds.u_grid)
                         / row_norms(want, ds.u_grid))
    want = inner_product(heat.apply_tf_derivative(SIGMAS[0], ds.P[0]), ds.Q[0], ds.y_grid)
    got = inner_product(rom.eval_tf_derivative(SIGMAS[0], ds.P[0]), ds.Q[0], ds.y_grid)
    hermite = abs(got - want) / abs(want)
    ok = worst_right < 1e-8 and worst_left < 1e-8 and hermite < 1e-6
    acceptance_log(
        1, "tangential interpolation", ok,
        f"right {worst_right:.2e} / left {worst_left:.2e} (tol 1e-8), "
        f"hermite {hermite:.2e} (tol 1e-6)",
    )


def test_criterion_2_data_driven_matches_projection(heat, acceptance_log):
    def compare(sigmas, rhos):
        rom_data = assemble(collect(heat, sigmas, RIGHT_DIRS, rhos, LEFT_DIRS))
        rom_proj = project_explicit(heat, *build_bases(heat, sigmas, RIGHT_DIRS, rhos, LEFT_DIRS))
        rels = []
        for got, want in (
            (rom_data.E, rom_proj.E),
            (rom_data.A, rom_proj.A),
            (rom_data.B, rom_proj.B),
            (rom_data.C, rom_proj.C),
        ):
            rels.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        return max(rels)

    distinct = compare(SIGMAS, [1.5, 2.5, 6.0 + 1.0j, 6.0 - 1.0j])
    coincident = compare(SIGMAS, SIGMAS)
    ok = distinct < 1e-10 and coincident < 1e-10
    acceptance_log(
        2, "Loewner vs explicit projection", ok,
        f"distinct {distinct:.2e}, coincident {coincident:.2e} (tol 1e-10)",
    )


def test_criterion_3_sylvester_residuals(heat, acceptance_log):
    V, W, data = build_bases(heat, SIGMAS, RIGHT_DIRS, RHOS, LEFT_DIRS)
    rel_right, rel_left = sylvester_residuals(heat, V, W, data)
    res = {}
    for eps in (1e-6, 1e-4):
        pert = V.copy()
        pert[0, 0] += eps
        res[eps], _ = sylvester_residuals(heat, pert, W, data)
    slope = res[1e-4] / res[1e-6]
    ok = rel_right < 1e-11 and rel_left < 1e-11 and abs(slope - 100.0) < 10.0
    acceptance_log(
        3, "Sylvester residuals", ok,
        f"right {rel_right:.2e} / left {rel_left:.2e} (tol 1e-11), "
        f"perturbation slope {slope:.1f} (100 +- 10)",
    )


def test_criterion_4_skew_projector(heat, acceptance_log):
    V, W, _ = build_bases(heat, SIGMAS, RIGHT_DIRS, RHOS, LEFT_DIRS)
    worst = 0.0
    for s in (0.0, 3.0 + 2.0j):
        report = projector_check(heat, V, W, s, seed=1)
        worst = max(worst, report.idempotency_max, report.range_max, report.kernel_max)
    ok = worst < 1e-9
    acceptance_log(
        4, "skew projector", ok,
        f"worst of P^2, range fixing, kernel annihilation {worst:.2e} (tol 1e-9)",
    )


def test_criterion_5_rank1_inner_product(heat, acceptance_log):
    omegas, weights = frequency_rule(512)
    rng = np.random.default_rng(42)
    worst_probe = 0.0
    for trial in range(5):
        lam = complex(-0.5 - 3.0 * rng.random(), 4.0 * (rng.random() - 0.5))
        p = random_unit(heat.con_grid, seed=300 + trial)
        q = random_unit(heat.obs_grid, seed=400 + trial)
        vals = np.array([
            inner_product(q, heat.apply_tf(1j * w, p), heat.obs_grid) / (1j * w - lam)
            for w in omegas
        ])
        oracle = vals @ weights / (2.0 * np.pi)
        got = h2_inner_rank1(heat, lam, p, q)
        worst_probe = max(worst_probe, abs(got - oracle) / abs(oracle))

    u_grid = QuadratureGrid(CON, 8)
    y_grid = QuadratureGrid(OBS, 8)
    p = unit_const(u_grid) * 2.0
    q = unit_const(y_grid) * 3.0
    lam = -0.7
    model = RankOneModel(u_grid, y_grid, p, q, lam)
    want = row_norms(p, u_grid) ** 2 * row_norms(q, y_grid) ** 2 / (-2.0 * lam)
    self_rel = abs(h2_inner_rank1(model, lam, p, q) - want) / want
    ok = worst_probe < 1e-6 and self_rel < 1e-8
    acceptance_log(
        5, "rank-1 H2 inner product", ok,
        f"vs quadrature {worst_probe:.2e} (tol 1e-6), self-norm {self_rel:.2e} (tol 1e-8)",
    )


def test_criterion_6_h2_norm_and_error_consistency(heat8, acceptance_log):
    norms = h2_norm_report(heat8)
    norm_gap = abs(norms.quadrature - norms.closed) / norms.closed
    rom = assemble(collect(heat8, [1.0, 2.0], ["mode:1,1", "mode:1,2"],
                           [1.0, 2.0], ["mode:1,1", "mode:2,2"]))
    err_closed = h2_error(heat8, rom)
    err_quad = h2_error_quadrature(heat8, rom)
    err_gap = abs(err_closed - err_quad) / err_quad
    ok = norm_gap < 1e-6 and err_gap < 1e-5
    acceptance_log(
        6, "H2 norm consistency", ok,
        f"norm closed vs quadrature {norm_gap:.2e} (tol 1e-6), "
        f"error closed vs quadrature {err_gap:.2e} (tol 1e-5)",
    )


def test_criterion_7_fixed_point_optimality(heat, irka_result, acceptance_log):
    rom, report = irka_result
    residual = optimality_residuals(heat, rom).max_residual
    err_opt = h2_error(heat, rom)

    pr = pole_residue(rom)
    rng = np.random.default_rng(2026)
    worst_drop = 0.0
    all_stable = True
    for _ in range(50):
        dlam = rng.standard_normal(pr.poles.size) + 1j * rng.standard_normal(pr.poles.size)
        dlam *= 1e-3 * np.abs(pr.poles) / np.abs(dlam)
        poles = pr.poles + dlam
        all_stable = all_stable and bool(np.all(poles.real < 0))

        def jostle(rows, grid):
            out = []
            for d in rows:
                noise = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
                out.append(d + noise * (1e-3 * row_norms(d, grid) / row_norms(noise, grid)))
            return out

        perturbed = rom_mod.ReducedModel(
            np.eye(pr.poles.size), np.diag(poles),
            jostle(pr.input_factors, rom.u_grid), jostle(pr.output_factors, rom.y_grid),
            rom.u_grid, rom.y_grid,
        )
        worst_drop = max(worst_drop, err_opt - h2_error(heat, perturbed))
    ok = (report.converged and report.iterations <= 50
          and residual < 1e-6 and all_stable and worst_drop <= 1e-9)
    acceptance_log(
        7, "fixed-point H2 optimality", ok,
        f"converged in {report.iterations} iters, residual {residual:.2e} (tol 1e-6), "
        f"largest error drop over 50 perturbations {worst_drop:.2e} (tol 1e-9)",
    )


def test_criterion_8_exact_rank1_recovery(toy, acceptance_log):
    distinct = assemble(collect(toy, [1.0], [toy.p], [2.0], [toy.q]))
    e_err = abs(distinct.E[0, 0] - 1.0 / 6.0)
    a_err = abs(distinct.A[0, 0] + 1.0 / 6.0)
    err_distinct = h2_error(toy, distinct)
    coincident = assemble(collect(toy, [1.0], [toy.p], [1.0], [toy.q]))
    err_coincident = h2_error(toy, coincident)
    ok = (e_err < 1e-13 and a_err < 1e-13
          and err_distinct < 1e-10 and err_coincident < 1e-10)
    acceptance_log(
        8, "exact rank-1 recovery", ok,
        f"|E - 1/6| {e_err:.2e}, |A + 1/6| {a_err:.2e}, squared H2 error "
        f"distinct {err_distinct:.2e} / coincident {err_coincident:.2e} (tol 1e-10)",
    )


def test_criterion_9_time_domain_error_bound(heat, irka_result, acceptance_log):
    rom, _ = irka_result
    gain = np.sqrt(h2_error(heat, rom))
    dt, horizon = 0.01, 2.0
    n_steps = int(round(horizon / dt))
    rng = np.random.default_rng(7)
    worst_margin = -np.inf
    ok = True
    for _ in range(10):
        u = rng.standard_normal((n_steps + 1, heat.con_grid.size))
        y_full = heat.simulate(u, horizon, dt)
        y_rom = rom_mod.simulate(rom, u, horizon, dt)
        sq = row_norms(u, heat.con_grid) ** 2
        u_l2 = np.sqrt(dt * (np.sum(sq) - 0.5 * (sq[0] + sq[-1])))
        max_err = row_norms(y_full - y_rom, heat.obs_grid).max()
        scale = row_norms(y_full, heat.obs_grid).max()
        bound = gain * u_l2 + 1e-3 * scale
        ok = ok and max_err <= bound
        worst_margin = max(worst_margin, max_err / bound)
    acceptance_log(
        9, "time-domain error bound", ok,
        f"max ratio of observed error to sqrt(h2_error)*||u|| + 1e-3*scale: "
        f"{worst_margin:.3f} over 10 random inputs (must stay <= 1)",
    )


def test_criterion_10_reproducible_reports(tmp_path, acceptance_log):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"con_patch": {"x": [0.1, 0.3], "y": [0.1, 0.3]},
                  "obs_patch": {"x": [0.6, 0.8], "y": [0.6, 0.8]},
                  "n_modes": 6, "quad_order": 16},
        "sample": {"sigmas": [1.0, 2.0, [5.0, 1.0], [5.0, -1.0]],
                   "rhos": [1.0, 2.5, [5.0, 1.0], [5.0, -1.0]],
                   "right_dirs": RIGHT_DIRS, "left_dirs": LEFT_DIRS},
    }))

    def run_once(tag):
        d = tmp_path / tag
        d.mkdir()
        paths = {name: d / name for name in (
            "data.json", "rom.json", "vreport.json", "h2.json", "h2.csv",
            "irka.json", "irka.csv")}
        assert main(["sample", "--config", str(cfg), "--out", str(paths["data.json"])]) == 0
        assert main(["reduce", "--config", str(cfg), "--data", str(paths["data.json"]),
                     "--out", str(paths["rom.json"])]) == 0
        assert main(["validate", "--config", str(cfg), "--rom", str(paths["rom.json"]),
                     "--tol", "1e-8", "--out", str(paths["vreport.json"])]) == 0
        assert main(["h2", "--config", str(cfg), "--rom", str(paths["rom.json"]),
                     "--out", str(paths["h2.json"]), "--csv", str(paths["h2.csv"])]) == 0
        assert main(["irka", "--config", str(cfg), "--order", "2", "--init", "1,10",
                     "--out", str(paths["irka.json"]), "--csv", str(paths["irka.csv"])]) == 0
        return {name: p.read_bytes() for name, p in paths.items()}

    first, second = run_once("a"), run_once("b")
    mismatched = [name for name in first if first[name] != second[name]]
    ok = not mismatched
    acceptance_log(
        10, "reproducible reports", ok,
        "all 7 artifacts byte-identical across repeated runs" if ok
        else f"artifacts differ: {', '.join(mismatched)}",
    )

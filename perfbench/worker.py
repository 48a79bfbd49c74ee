"""Numerical side of the benchmark, run in a child process by run.py.

run.py starts this file with the BLAS thread count fixed in the environment
and the repository's ``src`` on PYTHONPATH. It has three modes, each writing
one JSON result to ``--out``:

  irka       the untraced IRKA operations of an irka_* workload
  check-cli  the correctness checks on the artifacts of a cli_n12 pass
  trace      the traced run of any workload; cli_n12 runs in process through
             ``opmor.cli.main``

All times are wall-clock ``time.perf_counter`` differences in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
import traceback

import numpy as np
import scipy

from opmor import cli, config, h2, irka

import tracer
import workloads

OPT_TOL = 1e-6           # criterion 7: optimality residual of a converged IRKA model
NORM_RTOL = 1e-6         # criterion 6: closed-form H2 norm against quadrature
ERROR_RTOL = 1e-5        # criterion 6: closed-form H2 error against quadrature
CROSS_CHECK_MAX_K = 144  # quadrature of the error takes 1.4 s at K = 144, 24 s at 900
THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------- irka_*

def irka_setup(n_modes):
    """Build the full model and its H2 norm, which also fills the model's
    Gram cache; returns (seconds, model, norm)."""
    t0 = time.perf_counter()
    model = config.build_model(workloads.irka_model(n_modes))
    norm = h2.h2_norm(model)
    return time.perf_counter() - t0, model, norm


def irka_op(model, norm, r, points):
    """One irka.run plus the diagnostics a user reads off its result."""
    t0 = time.perf_counter()
    rom, conv = irka.run(model, irka.IrkaConfig(r=r, init_points=[complex(p) for p in points]))
    t1 = time.perf_counter()
    err = h2.h2_error(model, rom)
    opt = h2.optimality_residuals(model, rom).max_residual
    t2 = time.perf_counter()
    return {
        "init": points, "irka_s": t1 - t0, "pipeline_s": t2 - t0,
        "h2_error": err, "rel_h2_error": math.sqrt(err) / norm, "opt_residual": opt,
        "converged": conv.converged, "sweeps": conv.iterations,
    }, rom


def irka_checks(model, r, res, rom, cross_check) -> dict:
    checks = {"rel_error_in_0_1": 0.0 < res["rel_h2_error"] < 1.0,
              "opt_residual_finite": math.isfinite(res["opt_residual"])}
    if r == 2:
        checks["criterion7_converged"] = bool(res["converged"])
        checks["criterion7_opt_residual"] = res["opt_residual"] <= OPT_TOL
    if cross_check:
        quad = h2.h2_error_quadrature(model, rom)
        checks["criterion6_error_vs_quadrature"] = abs(res["h2_error"] - quad) <= ERROR_RTOL * quad
    return {k: bool(v) for k, v in checks.items()}


def guarded(fn, *args):
    """fn(*args), or an error record: one failed operation must not stop
    the run from reporting the others."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        return {"error": traceback.format_exc(limit=3)}, None


def checked_irka_op(model, norm, r, points, first):
    """irka_op plus its checks; the quadrature cross-check runs on the
    run's first operation where it is affordable."""
    res, rom = guarded(irka_op, model, norm, r, points)
    if rom is not None:
        res["checks"] = irka_checks(model, r, res, rom,
                                    first and model.poles.size <= CROSS_CHECK_MAX_K)
    return res


def startup_probe():
    """Wall time of a fresh interpreter importing the modules the IRKA
    workloads use. The wait blocks: a wait with a timeout would poll and
    round the time up to 50 ms steps."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", workloads.IRKA_IMPORTS],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{workloads.IRKA_IMPORTS!r} exited with {code}")
    return wall


def run_irka(workload, seed, seconds):
    """Rounds of start-up probes, one set-up and one IRKA operation; round
    k starts IRKA from draw k of the seed."""
    n_modes, r = workloads.IRKA[workload]
    startup_probe()  # compiles the bytecode in a fresh checkout

    def one_round(k):
        startups = [startup_probe() for _ in range(workloads.IRKA_PROBES)]
        setup_s, model, norm = irka_setup(n_modes)
        res = checked_irka_op(model, norm, r, workloads.init_points(seed, k, r), k == 0)
        return dict(res, startup_s=startups, setup_s=setup_s)

    return {"rounds": workloads.closed_loop(seconds, one_round)}


# ---------------------------------------------------------------- cli_n12

def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_cli(work_dir) -> dict:
    """Checks on the artifacts of one cli_n12 pass, keyed by the subcommand
    whose output they judge, plus the quality figures read from them."""
    cfg = config.load_run_config(os.path.join(work_dir, "config.json"))
    model = config.build_model(cfg.model_block)

    def load(name):
        with open(os.path.join(work_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    val, rep, h2rep = load("validate.json"), load("irka.json"), load("h2.json")
    checks = {"validate": val["pass"] and val["max_residual"] <= workloads.VALIDATE_TOL}
    # a reference the h2 subcommand did not compute: node doubling until stable
    ref = h2.h2_norm_report(model).quadrature
    checks["h2"] = abs(h2rep["norm_closed"] - ref) <= NORM_RTOL * ref
    opt = max(max(e["eps_left"], e["eps_right"], e["eps_herm"]) for e in h2rep["residuals"])
    checks["irka"] = bool(rep["converged"]) and rep["final"]["max_residual"] <= OPT_TOL

    # criterion 9: |y_full - y_rom|(t) <= sqrt(h2_error) ||u||_L2 + 1e-3 max |y_full|
    u, y, y_full = (read_csv(os.path.join(work_dir, f)) for f in ("u.csv", "y.csv", "y_full.csv"))
    dt = u[1, 0] - u[0, 0]
    wu, wy = model.con_grid.weights, model.obs_grid.weights
    sq = (u[:, 1:] ** 2) @ wu
    u_l2 = math.sqrt(dt * (sq.sum() - 0.5 * (sq[0] + sq[-1])))
    err = np.sqrt(((y_full[:, 1:] - y[:, 1:]) ** 2) @ wy).max()
    scale = np.sqrt((y_full[:, 1:] ** 2) @ wy).max()
    bound = math.sqrt(h2rep["h2_error"]) * u_l2 + 1e-3 * scale
    checks["simulate"] = bool(err <= bound) and y.shape == y_full.shape and len(y) == len(u)
    return {
        "checks": {k: bool(v) for k, v in checks.items()},
        "rel_h2_error": math.sqrt(h2rep["h2_error"]) / h2rep["norm_closed"],
        "opt_residual": opt,
        "sweeps": rep["iterations"],
        "time_bound_ratio": float(err / bound),
        "artifact_bytes": sum(os.path.getsize(os.path.join(work_dir, f))
                              for f in workloads.ARTIFACTS),
    }


def cli_pass(commands) -> dict:
    """One in-process pass of the six subcommands; their printed lines go
    to cli.log in the working directory."""
    t0 = time.perf_counter()
    codes = {}
    with open("cli.log", "a", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        for name, argv in commands:
            codes[name] = cli.main(argv)
    return {"pipeline_s": time.perf_counter() - t0, "exit_codes": codes}


# ---------------------------------------------------------------- traced run

def run_trace(workload, seed, seconds, work_dir):
    """Pairs of one untraced and one traced operation on the same inputs,
    until the measuring time is used; the pair difference is the tracing
    overhead. Per-layer figures come from the traced operations, and from
    the one traced set-up of an irka_* workload."""
    tr = tracer.Tracer()
    setup_ids = []
    if workload == "cli_n12":
        commands = workloads.cli_commands(workloads.write_cli_inputs(seed, work_dir))

        def op(_k, _first):
            return guarded(lambda: (cli_pass(commands), None))[0]
    else:
        n_modes, r = workloads.IRKA[workload]
        tr.run_id = "setup"
        setup_ids = [tr.run_id]
        tr.install()
        try:
            _, model, norm = irka_setup(n_modes)
        finally:
            tr.uninstall()

        def op(k, first):
            return checked_irka_op(model, norm, r, workloads.init_points(seed, k, r), first)

    def pair(k):
        plain = op(k, False)
        tr.run_id = f"op{k}"
        tr.install()
        try:
            traced = op(k, k == 0)
        finally:
            tr.uninstall()
        if "error" not in traced and "error" not in plain:
            traced["overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
        return traced

    ops = workloads.closed_loop(seconds, pair)
    metrics = tracer.layer_metrics(tr.spans, [f"op{k}" for k in range(len(ops))], setup_ids)
    if workload == "cli_n12":
        quality = check_cli(work_dir)
        for res in ops:
            res["checks"] = quality["checks"]
        metrics["cli.artifact_bytes"] = quality["artifact_bytes"]
        metrics["irka.opt_residual"] = quality["opt_residual"]
    else:
        metrics["cli.artifact_bytes"] = 0
        metrics["irka.opt_residual"] = float(np.median([res.get("opt_residual", np.nan)
                                                        for res in ops]))
    with open(os.path.join(work_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id", "attrs"],
                   "spans": tr.spans}, fh)
    return {"metrics": metrics, "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["irka", "check-cli", "trace"])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="cli_n12")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--dir", required=True, help="working directory of the run")
    parser.add_argument("--out", required=True, help="result JSON to write")
    args = parser.parse_args(argv)
    os.chdir(args.dir)
    if args.mode == "irka":
        result = run_irka(args.workload, args.seed, args.seconds)
    elif args.mode == "check-cli":
        result = check_cli(args.dir)
    else:
        result = run_trace(args.workload, args.seed, args.seconds, args.dir)
    result["versions"] = versions()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line interface: sample, reduce, validate, h2, irka, simulate.

Exit codes: 0 success, 1 a computed check failed (validation residual above
tolerance, non-convergence, inconsistent artifacts), 2 unusable input or
config. All outputs are deterministic for a fixed config file; JSON is
written with sorted keys and floats serialized by repr, CSV numbers with a
fixed 17-significant-digit format, so repeated runs are byte-identical.

Set MOR_LOG=DEBUG|INFO|WARNING|ERROR to control log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import sys

import numpy as np

from . import __version__
from . import rom as rom_mod
from . import samples
from .config import build_model, load_run_config, parse_point
from .errors import DatasetError, ParseError, ReductionError
from .h2 import (
    DEFAULT_NODES,
    frequency_rule,
    h2_error,
    h2_norm_report,
    hs_norm,
    interpolation_residuals,
    optimality_residuals,
)
from .irka import IrkaConfig
from .irka import run as irka_run
from .jsonio import complex_to_pair, dump_json, integer, json_list, positive_float
from .loewner import assemble, dataset_hash

log = logging.getLogger("opmor")

IMAG_RESIDUE_RTOL = 1e-6


def _fmt(x) -> str:
    return "" if x != x else format(float(x), ".17g")  # an empty cell for NaN


def _report_base(cfg) -> dict:
    return {"tool_version": __version__, "config_sha256": cfg.sha256}


def _write_csv(path, header, rows) -> None:
    """A CSV table: the header names, then one line per row of numbers."""
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_all(writes) -> None:
    """Call write(path) for each (path, write) in order, every artifact's
    contents built beforehand. If one fails, the files the earlier ones
    created are removed before the error propagates, so a command that
    fails leaves no new file behind."""
    created = []
    try:
        for path, write in writes:
            if not os.path.exists(path):
                created.append(path)
            write(path)
    except Exception:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _load_rom(path, model):
    """The reduced model saved at path, or a ParseError unless its ports
    live on the config model's grids."""
    rom = rom_mod.load(path)
    if (rom.u_grid, rom.y_grid) != (model.con_grid, model.obs_grid):
        raise ParseError(f"{path}: reduced model ports do not live on the config model's grids")
    return rom


# ---------------------------------------------------------------- sample

def cmd_sample(args) -> int:
    cfg = load_run_config(args.config)
    model = build_model(cfg.model_block)
    block = cfg.task("sample")
    try:
        sigmas, rhos, right_dirs, left_dirs = [
            json_list(block[key], f"sample.{key}")
            for key in ("sigmas", "rhos", "right_dirs", "left_dirs")]
    except KeyError as e:
        raise ParseError(f"sample block is missing {e}") from e
    sigmas = [parse_point(s, f"sample.sigmas[{j}]") for j, s in enumerate(sigmas)]
    rhos = [parse_point(s, f"sample.rhos[{j}]") for j, s in enumerate(rhos)]
    close = block.get("conjugate_close", False)
    if not isinstance(close, bool):
        raise ParseError(f"sample.conjugate_close must be true or false, got {close!r}")
    dataset = samples.collect(model, sigmas, right_dirs, rhos, left_dirs, conjugate_close=close)
    samples.save(dataset, args.out)
    log.info("wrote %d+%d samples to %s", dataset.sigmas.size, dataset.rhos.size, args.out)
    print(f"sampled r={dataset.r} tangential dataset -> {args.out}")
    return 0


# ---------------------------------------------------------------- reduce

def cmd_reduce(args) -> int:
    cfg = load_run_config(args.config)
    dataset = samples.load(args.data)
    rom = assemble(dataset)
    rom.provenance.update(_report_base(cfg), dataset_sha256=dataset_hash(dataset))
    rom_mod.save(rom, args.out)
    print(f"assembled r={rom.r} reduced model (cond E = {rom.provenance['cond_E']:.3e}) "
          f"-> {args.out}")
    return 0


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    cfg = load_run_config(args.config)
    model = build_model(cfg.model_block)
    rom = _load_rom(args.rom, model)
    tol = args.tol if args.tol is not None else cfg.task("validate").get("tol", 1e-8)
    tol = positive_float(tol, "--tol or validate.tol")
    if rom.provenance.get("kind") != "loewner" or rom.data is None:
        raise ParseError(
            "reduced model provenance lacks tangential data; only data-driven "
            "models can be validated against their own interpolation points"
        )
    dataset = samples.collect(model, *rom.data)
    right, left, herm = interpolation_residuals(rom, dataset)
    points = {"right": dataset.sigmas, "left": dataset.rhos,
              "hermite": [dataset.sigmas[j] for _, j in dataset.hermites]}
    checks = [{"kind": kind, "point": complex_to_pair(s), "residual": float(res)}
              for kind, residuals in zip(points, (right, left, herm))
              for s, res in zip(points[kind], residuals)]
    worst = max(c["residual"] for c in checks)
    passed = worst <= tol
    report = _report_base(cfg)
    report.update({"tol": tol, "checks": checks, "max_residual": worst, "pass": passed})
    if args.out:
        dump_json(report, args.out)
    for c in checks:
        print(f"{c['kind']:>8} @ {complex(*c['point'])}: residual {c['residual']:.3e}")
    print(f"validate: max residual {worst:.3e} against tol {tol:.1e} -> "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------- h2

def cmd_h2(args) -> int:
    cfg = load_run_config(args.config)
    model = build_model(cfg.model_block)
    rom = _load_rom(args.rom, model) if args.rom else None
    norms = h2_norm_report(model, DEFAULT_NODES)
    report = _report_base(cfg)
    report.update({
        "norm_closed": norms.closed,
        "norm_quadrature": norms.quadrature,
        "h2_error": None,
        "residuals": [],
    })
    if rom is not None:
        report["h2_error"] = h2_error(model, rom)
        opt = optimality_residuals(model, rom)
        report["residuals"] = [
            {
                "pole": complex_to_pair(pole),
                "eps_left": float(el), "eps_right": float(er), "eps_herm": float(eh),
            }
            for pole, el, er, eh
            in zip(opt.poles, opt.eps_left, opt.eps_right, opt.eps_herm)
        ]
    writes = [(args.out, functools.partial(dump_json, report))]
    if args.csv:
        forms = [model] + ([rom_mod.pole_residue(rom)] if rom is not None else [])
        header = ["omega", "hs_full", "hs_rom"][: len(forms) + 1]
        rows = [[w] + [hs_norm(f, 1j * w) for f in forms]
                for w in frequency_rule(DEFAULT_NODES)[0]]
        writes.append((args.csv, functools.partial(_write_csv, header=header, rows=rows)))
    _write_all(writes)
    print(f"h2 norm closed {norms.closed:.6e}, quadrature {norms.quadrature:.6e}"
          + (f", error^2 {report['h2_error']:.6e}" if rom is not None else ""))
    return 0


# ---------------------------------------------------------------- irka

def _seeded_specs(block, key, base_seed):
    """irka.<key>'s direction specs, each 'random' seeded by its index, or None."""
    if block.get(key) is None:
        return None
    return [f"random:{base_seed + k}" if d == "random" else d
            for k, d in enumerate(json_list(block[key], f"irka.{key}"))]


def cmd_irka(args) -> int:
    cfg = load_run_config(args.config)
    model = build_model(cfg.model_block)
    block = cfg.task("irka")

    def option(arg, key, default=None):
        return arg if arg is not None else block.get(key, default)

    if args.init is not None:
        init_points = []
        for k, tok in enumerate(args.init.split(",")):
            try:
                z = complex(tok)
            except ValueError as e:
                raise ParseError(f"--init[{k}] must be a real or complex number, "
                                 f"got {tok!r}") from e
            init_points.append(parse_point(complex_to_pair(z), "--init"))
    elif "init_points" in block:
        init_points = [parse_point(s, "irka.init_points")
                       for s in json_list(block["init_points"], "irka.init_points")]
    else:
        init_points = None
    seed = integer(option(args.seed, "seed", 0), "--seed or irka.seed", allow_zero=True)
    irka_config = IrkaConfig(
        r=integer(option(args.order, "order"), "--order or irka.order"),
        init_points=init_points,
        init_right_dirs=_seeded_specs(block, "init_right_dirs", seed),
        init_left_dirs=_seeded_specs(block, "init_left_dirs", seed + 1000),
        max_iter=integer(option(args.max_iter, "max_iter", IrkaConfig.max_iter),
                         "--max-iter or irka.max_iter", allow_zero=True),
        point_tol=positive_float(option(args.tol, "point_tol", IrkaConfig.point_tol),
                                 "--tol or irka.point_tol"),
    )
    reduced, conv = irka_run(model, irka_config)

    def _clean(xs):
        return [None if x != x else float(x) for x in xs]

    report = _report_base(cfg)
    report.update({
        "converged": conv.converged,
        "iterations": conv.iterations,
        "best_iteration": conv.best_iteration,
        "point_history": [complex_to_pair(pts) for pts in conv.point_history],
        "movement_history": _clean(conv.movement_history),
        "residual_history": _clean(conv.residual_history),
        "h2_error_history": _clean(conv.h2_error_history),
        "final": None,
    })
    writes = []
    if reduced is not None:
        # the histories already hold the certificate of the returned iterate
        best = conv.best_iteration - 1
        report["final"] = {
            "h2_error": report["h2_error_history"][best],
            "max_residual": report["residual_history"][best],
            "poles": complex_to_pair(rom_mod.pole_residue(reduced).poles),
        }
        if args.rom_out:
            reduced.provenance.update(_report_base(cfg))
            writes.append((args.rom_out, functools.partial(rom_mod.save, reduced)))
    writes.append((args.out, functools.partial(dump_json, report)))
    if args.csv:
        rows = list(zip(range(1, conv.iterations + 1), conv.movement_history,
                        conv.residual_history, conv.h2_error_history))
        writes.append((args.csv, functools.partial(
            _write_csv, header=["iteration", "movement", "residual", "h2_error"], rows=rows)))
    _write_all(writes)
    status = "converged" if conv.converged else "did not converge"
    print(f"irka r={irka_config.r}: {status} after {conv.iterations} iterations")
    return 0 if conv.converged else 1


# ---------------------------------------------------------------- simulate

def _read_signal_csv(path, grid):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as e:
        raise ParseError(f"cannot read input signal {path}: {e}") from e
    if len(lines) < 3:
        raise ParseError(f"{path}: need a header and at least two time rows")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([float(tok) for tok in ln.split(",")])
        except ValueError as e:
            raise ParseError(f"{path}: non-numeric entry ({e})") from e
    for i, row in enumerate(rows):
        if len(row) != grid.size + 1:
            raise ParseError(f"{path}: time row {i} has {len(row)} columns, "
                             f"expected time plus {grid.size} node columns")
    data = np.array(rows)
    if not np.isfinite(data).all():
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"{path}: column {j} of time row {i} must be finite, got {data[i, j]}")
    t = data[:, 0]
    dt = t[1] - t[0]
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > 1e-9 * dt:
        raise ParseError(f"{path}: time column must be uniformly spaced")
    return t, float(dt), data[:, 1:]


def _output_table(t, vals, grid):
    """(header, rows) of a simulated output CSV; a ReductionError unless
    vals is real up to round-off."""
    scale = np.max(np.abs(vals)) or 1.0
    worst = np.max(np.abs(vals.imag))
    if worst > IMAG_RESIDUE_RTOL * scale:
        raise ReductionError(
            f"simulated output has imaginary residue {worst:.3e} against scale "
            f"{scale:.3e}; the model is not conjugate-symmetric, refusing to "
            "write a real-valued CSV"
        )
    return (["time"] + [f"x{x:.6f}y{y:.6f}" for x, y in grid.nodes],
            np.column_stack([t, vals.real]))


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    model = build_model(cfg.model_block)
    rom = _load_rom(args.rom, model)
    t, dt, u = _read_signal_csv(args.input, model.con_grid)
    horizon = positive_float(args.T, "--T") if args.T is not None else float(t[-1])
    n_steps = int(round(horizon / dt))
    t = t[: n_steps + 1]
    tables = [(args.out, _output_table(t, rom_mod.simulate(rom, u, horizon, dt), rom.y_grid))]
    if args.full_out:
        tables.append((args.full_out,
                       _output_table(t, model.simulate(u, horizon, dt), model.obs_grid)))
    _write_all([(path, functools.partial(_write_csv, header=header, rows=rows))
                for path, (header, rows) in tables])
    print(f"simulated {n_steps} steps of dt={dt:g} -> {args.out}")
    return 0


# ---------------------------------------------------------------- driver

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmor",
        description="Model reduction workbench for the heated-plate benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")

    p = sub.add_parser("sample", help="evaluate tangential data on the full model")
    common(p)
    p.add_argument("--out", required=True, help="dataset JSON to write")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reduce", help="assemble a reduced model from tangential data")
    common(p)
    p.add_argument("--data", required=True, help="dataset JSON from 'sample'")
    p.add_argument("--out", required=True, help="reduced model JSON to write")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("validate", help="check interpolation conditions of a reduced model")
    common(p)
    p.add_argument("--rom", required=True, help="reduced model JSON")
    p.add_argument("--tol", type=float, default=None, help="relative residual tolerance")
    p.add_argument("--out", default=None, help="optional report JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("h2", help="H2 norms, error and optimality residuals")
    common(p)
    p.add_argument("--rom", default=None, help="reduced model JSON (optional)")
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--csv", default=None, help="optional per-frequency HS-norm CSV")
    p.set_defaults(func=cmd_h2)

    p = sub.add_parser("irka", help="fixed-point iteration toward H2 optimality")
    common(p)
    p.add_argument("--order", type=int, default=None, help="reduced order r")
    p.add_argument("--init", default=None,
                   help="comma-separated initial points, e.g. '1,10' or '1+2j,1-2j'")
    p.add_argument("--tol", type=float, default=None, help="point movement tolerance")
    p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p.add_argument("--seed", type=int, default=None,
                   help="seed applied to 'random' direction specs")
    p.add_argument("--out", required=True, help="convergence report JSON")
    p.add_argument("--rom-out", default=None, dest="rom_out", help="reduced model JSON")
    p.add_argument("--csv", default=None, help="optional per-iteration history CSV")
    p.set_defaults(func=cmd_irka)

    p = sub.add_parser("simulate", help="time-domain response of a reduced model")
    common(p)
    p.add_argument("--rom", required=True, help="reduced model JSON")
    p.add_argument("--input", required=True,
                   help="input CSV: time column plus one column per control node")
    p.add_argument("--out", required=True, help="reduced output CSV")
    p.add_argument("--full-out", default=None, dest="full_out",
                   help="optional full-model output CSV for comparison")
    p.add_argument("--T", type=float, default=None, help="horizon (default: last input time)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MOR_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DatasetError, ValueError, OSError) as e:
        # bad arguments, files or config; keep these distinct from the
        # computational failures below
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ReductionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

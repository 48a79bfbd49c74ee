"""Spans around the calls into opmor's layers, recorded from outside the package.

``Tracer.install`` replaces each public layer function listed in ``LAYERS``
with a timing wrapper at every site that binds it: the defining module and
every opmor module that imported the name (``pole_residue`` is bound in
``rom``, ``h2`` and ``irka``; ``assemble`` in ``loewner``, ``irka`` and
``cli``). Methods are patched on the class that defines them. Nothing under
``src/`` is edited; ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, run_id, attrs]``. Spans stay in memory
until the caller writes them out once at the end of the run. Calls are
strictly nested in one thread, so a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

# (module, attribute) of every layer boundary; "Class.method" patches a method
LAYERS = [
    ("cli", "cmd_sample"), ("cli", "cmd_reduce"), ("cli", "cmd_validate"),
    ("cli", "cmd_irka"), ("cli", "cmd_h2"), ("cli", "cmd_simulate"),
    ("config", "build_model"),
    ("models", "PoleFactorModel.apply_tf"),
    ("models", "PoleFactorModel.apply_tf_adjoint"),
    ("models", "PoleFactorModel.apply_tf_derivative"),
    ("models", "PoleFactorModel.simulate"),
    ("samples", "collect"), ("samples", "save"), ("samples", "load"),
    ("loewner", "assemble"), ("loewner", "dataset_hash"),
    ("rom", "pole_residue"), ("rom", "save"), ("rom", "load"),
    ("rom", "ReducedModel.eval_tf"),
    ("rom", "ReducedModel.eval_tf_adjoint"),
    ("rom", "ReducedModel.eval_tf_derivative"),
    ("jsonio", "dump_json"), ("jsonio", "load_json"),
    ("h2", "h2_norm_report"), ("h2", "hs_norm"),
    ("h2", "h2_error"), ("h2", "optimality_residuals"),
    ("irka", "run"), ("irka", "step"),
]

CLI_COMMANDS = ["sample", "reduce", "validate", "irka", "h2", "simulate"]
EVAL_KINDS = ["apply_tf", "apply_tf_adjoint", "apply_tf_derivative"]

CALLS = [f"models.{k}" for k in EVAL_KINDS] + [
    "samples.collect", "rom.pole_residue",
    "rom.eval_tf", "rom.eval_tf_adjoint", "rom.eval_tf_derivative",
]
SELF = [f"models.{k}" for k in EVAL_KINDS] + [
    "config.build_model", "models.simulate",
    "samples.collect", "samples.save", "samples.load",
    "rom.save", "rom.load", "jsonio.dump_json", "jsonio.load_json",
    "loewner.assemble", "loewner.dataset_hash",
    "rom.pole_residue", "rom.eval_tf", "rom.eval_tf_adjoint", "rom.eval_tf_derivative",
    "h2.optimality_residuals", "h2.h2_error", "h2.h2_norm_report", "h2.hs_norm",
    "irka.step",
]


def _model_bytes(args, kwargs, model):
    """Computed sizes of a full model: its dense tables, and what one
    apply_tf reads (input pairing rows, output factors, poles)."""
    table = sum(getattr(model, a).nbytes for a in
                ("poles", "input_factors", "output_factors", "_in_pair", "_out_pair"))
    per_eval = model._in_pair.nbytes + model.output_factors.nbytes + model.poles.nbytes
    return {"table_bytes": table, "eval_bytes": per_eval}


def _irka_outcome(args, kwargs, result):
    _, report = result
    return {
        "sweeps": report.iterations,
        "converged": report.converged,
        "final_movement": report.movement_history[-1] if report.movement_history else 0.0,
    }


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


ANNOTATE = {
    "config.build_model": _model_bytes,
    "irka.run": _irka_outcome,
    "jsonio.dump_json": _written_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, annotate=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for mod_name in {m for m, _ in LAYERS}:
            importlib.import_module(f"opmor.{mod_name}")
        sites = [m for name, m in list(sys.modules.items()) if name.startswith("opmor.")]
        for mod_name, attr in LAYERS:
            mod = sys.modules[f"opmor.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, ANNOTATE.get(name))
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def self_times(spans):
    """Duration minus direct-children durations, per span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _inside(spans, k, name):
    """Index of the nearest enclosing span called ``name``, or -1."""
    p = spans[k][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def layer_metrics(spans, op_ids, setup_ids):
    """Per-layer figures, each the median over the operations that call the
    layer; a layer called only during set-up is taken over the set-ups, and
    a layer never called reads 0. Counts are per operation."""
    own = self_times(spans)
    groups = {}
    for k, s in enumerate(spans):
        groups.setdefault(s[0], {}).setdefault(s[4], []).append(k)

    def med(name, value):
        by_run = groups.get(name, {})
        for ids in (op_ids, setup_ids):
            vals = [value(by_run[i]) for i in ids if i in by_run]
            if vals:
                return statistics.median(vals)
        return 0

    out = {}
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = med(f"cli.cmd_{cmd}",
                                  lambda ks: sum(spans[k][2] - spans[k][1] for k in ks))
    for name in CALLS:
        out[f"{name}.calls"] = med(name, len)
    for name in SELF:
        out[f"{name}.self_s"] = med(name, lambda ks: sum(own[k] for k in ks))
    out["jsonio.bytes_written"] = med("jsonio.dump_json",
                                      lambda ks: sum(spans[k][5]["bytes"] for k in ks))
    builds = [s[5] for s in spans if s[0] == "config.build_model"]
    out["models.table_mb"] = builds[0]["table_bytes"] / 2**20 if builds else 0
    out["models.eval_bytes"] = builds[0]["eval_bytes"] if builds else 0

    runs = [k for k, s in enumerate(spans) if s[0] == "irka.run"]
    out.update(irka_metrics(spans, runs))
    return out


def irka_metrics(spans, runs):
    """Sweeps, convergence and exact evaluation counts per IRKA sweep."""
    if not runs:
        keys = ["irka.sweeps", "irka.converged", "irka.final_movement", "irka.sweep_ms",
                "irka.evals_per_sweep", "irka.pole_residue_per_sweep"]
        keys += [f"irka.{k}_per_sweep" for k in EVAL_KINDS]
        return dict.fromkeys(keys, 0)
    counts = {k: {} for k in EVAL_KINDS + ["pole_residue"]}
    for k, s in enumerate(spans):
        kind = s[0].split(".", 1)[1]
        if kind in counts:
            run = _inside(spans, k, "irka.run")
            if run >= 0:
                counts[kind][run] = counts[kind].get(run, 0) + 1
    out = {
        "irka.sweeps": statistics.median(spans[k][5]["sweeps"] for k in runs),
        "irka.converged": sum(spans[k][5]["converged"] for k in runs) / len(runs),
        "irka.final_movement": statistics.median(spans[k][5]["final_movement"] for k in runs),
        "irka.sweep_ms": statistics.median(
            1e3 * (spans[k][2] - spans[k][1]) / spans[k][5]["sweeps"] for k in runs),
    }
    for kind, per_run in counts.items():
        out[f"irka.{kind}_per_sweep"] = statistics.median(
            per_run.get(k, 0) / spans[k][5]["sweeps"] for k in runs)
    out["irka.evals_per_sweep"] = sum(out[f"irka.{k}_per_sweep"] for k in EVAL_KINDS)
    return out

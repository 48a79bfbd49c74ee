"""Tests of the benchmark's own tracing and counters.

Run from the repository root:

    python3 -m pytest perfbench/test_bench.py

The traced-run tests take about a minute: each makes two short traced runs
of a workload with the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

TIME_UNITS = {"s", "ms"}


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def count_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"] if m["unit"] not in TIME_UNITS]


@pytest.mark.parametrize("workload", ["cli_n12", "irka_n12_r6"])
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    for name in count_metrics():
        assert first[name] == second[name], name


def test_irka_evaluations_per_sweep():
    """IRKA at r = 2 (the irka subcommand of cli_n12): each sweep evaluates
    the full model 3r times to collect its samples and 4r times in the
    diagnostics, by kind 3r transfer, 2r adjoint and 2r derivative
    evaluations, and diagonalizes three times."""
    m = traced_run("cli_n12", 3)
    r = 2
    assert m["irka.sweeps"] >= 1
    assert m["irka.apply_tf_per_sweep"] == 3 * r
    assert m["irka.apply_tf_adjoint_per_sweep"] == 2 * r
    assert m["irka.apply_tf_derivative_per_sweep"] == 2 * r
    assert m["irka.evals_per_sweep"] == 3 * r + 4 * r
    assert m["irka.pole_residue_per_sweep"] == 3


def test_install_patches_every_binding_site():
    from opmor import cli, h2, irka, loewner, models, rom

    originals = (rom.pole_residue, loewner.assemble, models.PoleFactorModel.apply_tf)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert rom.pole_residue is h2.pole_residue is irka.pole_residue
        assert loewner.assemble is irka.assemble is cli.assemble
        for patched, original in zip(
                (rom.pole_residue, loewner.assemble, models.PoleFactorModel.apply_tf), originals):
            assert patched is not original and patched.__wrapped__ is original
    finally:
        tr.uninstall()
    assert (rom.pole_residue, loewner.assemble, models.PoleFactorModel.apply_tf) == originals
    assert h2.pole_residue is irka.pole_residue is rom.pole_residue


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, "op0", None],
        ["inner", 1.0, 4.0, 0, "op0", None],
        ["leaf", 2.0, 3.0, 1, "op0", None],
        ["inner", 5.0, 6.0, 0, "op0", None],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]

"""Smoke runs of the scripts under scripts/, as subprocesses on a small model."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compare_reduction_paths():
    out = run_script("compare_reduction_paths.py", "--n-modes", "6")
    # four agreements, two Sylvester residuals, one interpolation residual
    values = [float(v) for v in re.findall(r"\d\.\d+e[-+]\d+", out)]
    assert len(values) == 7, out
    assert all(v < 1e-10 for v in values), out


def test_run_irka_benchmark():
    out = run_script("run_irka_benchmark.py", "--n-modes", "6",
                     "--orders", "1,2", "--max-iter", "10")
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["1", "2"], out

"""opmor benchmark: one command per workload run.

    python3 perfbench/run.py --workload cli_n12 --seed 1 --seconds 30 --trace 0

Run it from the repository root. Workloads (see perfbench/README.md):

  cli_n12      one pass of the six ``opmor`` subcommands as subprocesses
  irka_n12_r6  in-process ``irka.run`` at r = 6, n_modes 12
  irka_n30_r2  in-process ``irka.run`` at r = 2, n_modes 30

With ``--trace 0`` the run measures the end-to-end metrics with no tracing;
with ``--trace 1`` it times the calls into each opmor layer instead. Either
way it checks the program's outputs. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
metric names and units are those of BENCHMARK.json. A run record with the
environment, every operation and every check goes to
perfbench/_out/records/. The exit code is 0 only when every check passed.

All numerical work happens in child processes whose environment fixes the
BLAS thread count and puts the repository's ``src`` on PYTHONPATH; their
bytecode and artifacts stay under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
sys.pycache_prefix = str(OUT / "pycache")  # before importing the modules beside this file

import workloads  # noqa: E402

RUN_LIMIT_S = 170        # every child is killed after this much of the run
# One BLAS thread: on a 2-core machine a second thread repeated the n_modes 30
# IRKA run within 12% (8.65-9.80 s) against 1.3% (12.34-12.51 s) with one, and
# it made the small-matrix r = 6 run slower while doubling its CPU time.
BLAS_THREADS = 1
THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
CLI_IMPORT = ("import time; t = time.perf_counter(); import opmor.cli; "
              "print(repr(time.perf_counter() - t))")


class BenchError(Exception):
    """The benchmark itself cannot run here (not an opmor failure)."""


class Children:
    """Starts the run's child processes, each waited for before the next.

    Every child gets the same fixed environment and is killed once the
    run's time limit has passed, so a run ends within its limit."""

    def __init__(self, deadline):
        self.deadline = deadline
        # bytecode is written, under the prefix, so start-up reads it as an
        # installed package would instead of compiling on every start
        drop = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "MOR_LOG")
        self.env = {k: v for k, v in os.environ.items() if k not in drop}
        self.env.update({k: str(BLAS_THREADS) for k in THREAD_VARS})
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
                        PYTHONHASHSEED="0")

    def run(self, argv, cwd, log):
        """(exit code, wall seconds, peak RSS in MB) of one child."""
        with open(log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=fh)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def python(self, args, cwd, log):
        return self.run([sys.executable, *args], cwd, log)

    def output(self, args):
        """Standard output of a short Python child, which must succeed."""
        proc = subprocess.run([sys.executable, *args], env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(self.deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"{args} failed:\n{proc.stderr}")
        return proc.stdout

    def worker(self, mode, args, work_dir):
        """Run worker.py; returns (its result, its peak RSS in MB)."""
        result = work_dir / f"{mode}.json"
        code, _, rss = self.python(
            [str(BENCH / "worker.py"), mode, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--dir", str(work_dir), "--out", str(result)],
            work_dir, work_dir / f"{mode}.log")
        if code != 0:
            log = (work_dir / f"{mode}.log").read_text()[-3000:]
            raise BenchError(f"worker {mode} exited with {code}:\n{log}")
        return json.loads(result.read_text()), rss


def artifact_digest(work_dir):
    h = hashlib.sha256()
    for name in workloads.ARTIFACTS:
        h.update((work_dir / name).read_bytes())
    return h.hexdigest()


def run_cli(args, kids, work_dir):
    """cli_n12, end to end: every subcommand is a fresh interpreter. A round
    is one set-up, one timed --version and one pass of the six subcommands."""
    version = ["-m", "opmor.cli", "--version"]
    log = work_dir / "cli.log"
    commands = workloads.cli_commands(workloads.cli_inputs(args.seed)["init"])

    def one_round(_k):
        t0 = time.perf_counter()
        workloads.write_cli_inputs(args.seed, work_dir)
        warm, _, _ = kids.python(version, work_dir, log)
        res = {"setup_s": time.perf_counter() - t0}
        code, res["startup_s"], _ = kids.python(version, work_dir, log)
        res.update(exit_codes={"version": max(warm, code)}, wall_s={}, rss_mb=0.0)
        t0 = time.perf_counter()
        for name, argv in commands:
            code, wall, rss = kids.python(["-m", "opmor.cli", *argv], work_dir, log)
            res["exit_codes"][name], res["wall_s"][name] = code, wall
            res["rss_mb"] = max(res["rss_mb"], rss)
        res["pipeline_s"] = time.perf_counter() - t0
        res["digest"] = artifact_digest(work_dir)
        return res

    rounds = workloads.closed_loop(args.seconds, one_round)
    check, _ = kids.worker("check-cli", args, work_dir)
    checks = dict(check["checks"])
    checks["reproducible_artifacts"] = len({p["digest"] for p in rounds}) == 1
    bad_codes = sum(c != 0 for p in rounds for c in p["exit_codes"].values())
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in rounds),
        "peak_rss_mb": max(p["rss_mb"] for p in rounds),
        "startup_s": statistics.median(p["startup_s"] for p in rounds),
        "pipeline_s": statistics.median(p["pipeline_s"] for p in rounds),
        "irka_s": statistics.median(p["wall_s"]["irka"] for p in rounds),
        "rel_h2_error": check["rel_h2_error"],
        "opt_digits": -math.log10(check["opt_residual"]),
    }
    record = {"rounds": rounds, "checks": checks, "quality": check, "versions": check["versions"]}
    attempted = (len(commands) + 1) * len(rounds)  # the six subcommands and --version
    return metrics, attempted, bad_codes + sum(not ok for ok in checks.values()), record


def op_failed(res):
    return "error" in res or not all(res.get("checks", {}).values())


def run_irka(args, kids, work_dir):
    """irka_*, end to end: one worker process runs every round (start-up
    probes, set-up, IRKA operation); see worker.run_irka."""
    result, rss = kids.worker("irka", args, work_dir)
    rounds = result["rounds"]
    ops = [res for res in rounds if "error" not in res]
    if not ops:
        raise BenchError(f"every IRKA operation failed: {rounds[0]['error']}")
    metrics = {
        "setup_s": statistics.median(o["setup_s"] for o in rounds),
        "peak_rss_mb": rss,
        "startup_s": statistics.median(t for o in rounds for t in o["startup_s"]),
        "pipeline_s": statistics.median(o["pipeline_s"] for o in ops),
        "irka_s": statistics.median(o["irka_s"] for o in ops),
        "rel_h2_error": statistics.median(o["rel_h2_error"] for o in ops),
        "opt_digits": statistics.median(-math.log10(o["opt_residual"]) for o in ops),
    }
    return metrics, len(rounds), sum(map(op_failed, rounds)), result


def run_traced(args, kids, work_dir):
    """Either workload with spans around every layer call; see tracer.py."""
    kids.python(["-c", "import opmor.cli"], work_dir, work_dir / "probe.log")
    imports = [float(kids.output(["-c", CLI_IMPORT])) for _ in range(workloads.IMPORT_PROBES)]
    result, _ = kids.worker("trace", args, work_dir)
    metrics = dict(result["metrics"], **{"cli.import_s": statistics.median(imports)})
    ops = result["ops"]
    record = dict(result, import_s=imports)
    overheads = [o["overhead_s"] for o in ops if "overhead_s" in o]
    record["trace_overhead_s"] = statistics.median(overheads) if overheads else None
    if args.workload == "cli_n12":
        per_op = len(workloads.cli_commands(""))
        bad = sum(c != 0 for o in ops for c in o.get("exit_codes", {}).values())
        bad += sum("error" in o for o in ops) * per_op
        bad += sum(not ok for ok in ops[0].get("checks", {}).values()) if ops else 0
        return metrics, per_op * len(ops), bad, record
    return metrics, len(ops), sum(map(op_failed, ops)), record


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "opmor").glob("*.py")))


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="opmor benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        if not (ROOT / "src" / "opmor" / "cli.py").is_file():
            raise BenchError(f"no opmor sources under {ROOT / 'src'}; run from a full checkout")
        declared = declared_metrics(args.trace)
        nproc = len(os.sched_getaffinity(0))
        kids = Children(start + RUN_LIMIT_S)
        work_dir = OUT / "work" / f"{args.workload}-trace{args.trace}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        if args.trace:
            runner = run_traced
        else:
            runner = run_cli if args.workload == "cli_n12" else run_irka
        metrics, attempted, failed, record = runner(args, kids, work_dir)
        missing = [name for name, _ in declared if name not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=nproc, blas_threads=BLAS_THREADS, commit=git_commit(),
                  src_lines=src_lines(), run_wall_s=time.monotonic() - start, metrics=metrics)
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    for name, unit in declared:
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

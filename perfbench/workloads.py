"""The benchmark's workloads: their seeded inputs and their schedule.

Everything the program sees is generated here from the workload seed with
Python's own ``random`` module, so the same seed gives the same config
files, initial points and input signals on any machine and numpy version.
Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time

CON_PATCH = {"x": [0.1, 0.3], "y": [0.1, 0.3]}
OBS_PATCH = {"x": [0.6, 0.8], "y": [0.6, 0.8]}

# the README model; quad_order 28 is its documented value at n_modes 12
CLI_MODEL = {"con_patch": CON_PATCH, "obs_patch": OBS_PATCH, "n_modes": 12, "quad_order": 28}

# conjugate closure needs real directions on the conjugate pair, so the
# directions stay the README's mode specs; only the points are drawn
RIGHT_DIRS = ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,1"]
LEFT_DIRS = ["mode:1,1", "mode:2,2", "mode:1,3", "mode:1,3"]

SIGNAL_ROWS = 51          # time samples in the simulate input, t = 0 .. 1
SIGNAL_DT = 0.02
SIGNAL_COMPONENTS = 3
VALIDATE_TOL = 1e-8

# files one cli_n12 pass writes, all in the pass's working directory
ARTIFACTS = ["data.json", "rom.json", "validate.json", "irka.json", "irka_rom.json",
             "irka.csv", "h2.json", "h2.csv", "y.csv", "y_full.csv"]

SLOWEST_POLE = 2.0 * math.pi ** 2   # |lambda_11| of the unit-square Laplacian

# Start-up and set-up are sampled once per round, spread over the run,
# rather than all at its start: on a shared 2-core VM the speed of plain
# Python code drifted by up to 20% over tens of seconds, and samples taken
# back to back share one drift.
IRKA_PROBES = 2      # fresh interpreters timed per round of an irka_* workload
IMPORT_PROBES = 5    # fresh interpreters timing `import opmor.cli` in a traced run
IRKA_IMPORTS = "import opmor.config, opmor.h2, opmor.irka"

# workload -> (n_modes, r) of the in-process IRKA workloads
IRKA = {"irka_n12_r6": (12, 6), "irka_n30_r2": (30, 2)}
WORKLOADS = ["cli_n12", *IRKA]


def closed_loop(seconds: float, step):
    """Call step(k) for k = 0, 1, ... and return the results.

    The first call always runs; another starts only while the median call
    so far still fits in the measuring time, so a run overshoots it by at
    most the spread of one call."""
    start = time.perf_counter()
    results, durations = [], []
    while not durations or (time.perf_counter() - start
                            + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t0)
    return results


def irka_model(n_modes: int) -> dict:
    """Model block of the in-process IRKA workloads; n_modes 12 keeps the
    README quadrature order, larger sizes use the package default."""
    block = {"con_patch": CON_PATCH, "obs_patch": OBS_PATCH, "n_modes": n_modes}
    if n_modes == 12:
        block["quad_order"] = 28
    return block


def init_points(seed: int, draw: int, r: int) -> list:
    """r real IRKA starting points, log-uniform in [1, 10 |slowest pole|].

    Each draw of one seed is independent, so a run that repeats IRKA
    covers several starting sets."""
    rng = random.Random(f"irka:{seed}:{draw}")
    hi = math.log(10.0 * SLOWEST_POLE)
    return sorted(math.exp(rng.uniform(0.0, hi)) for _ in range(r))


def cli_inputs(seed: int) -> dict:
    """Config, IRKA --init points and simulate input for one cli_n12 run."""
    rng = random.Random(f"cli:{seed}")
    s0 = rng.uniform(0.5, 1.5)                # sigma_0 = rho_0: Hermite data
    s1 = rng.uniform(1.6, 2.4)
    r1 = rng.uniform(2.6, 3.4)
    pair = [rng.uniform(3.5, 6.5), rng.uniform(0.5, 1.5)]
    conj = [pair[0], -pair[1]]
    config = {
        "model": CLI_MODEL,
        "sample": {
            "sigmas": [s0, s1, pair, conj],
            "rhos": [s0, r1, pair, conj],
            "right_dirs": RIGHT_DIRS,
            "left_dirs": LEFT_DIRS,
        },
    }
    init = init_points(seed, 0, 2)
    n_nodes = CLI_MODEL["quad_order"] ** 2
    comps = []
    for _ in range(SIGNAL_COMPONENTS):
        amp = rng.uniform(0.5, 2.0)
        freq = rng.uniform(0.2, 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        shape = [rng.gauss(0.0, 1.0) for _ in range(n_nodes)]
        comps.append((amp, freq, phase, shape))
    rows = ["time," + ",".join(f"u{k}" for k in range(n_nodes))]
    for k in range(SIGNAL_ROWS):
        t = round(k * SIGNAL_DT, 12)
        coef = [a * math.sin(2.0 * math.pi * f * t + p) for a, f, p, _ in comps]
        vals = [sum(c * comp[3][j] for c, comp in zip(coef, comps)) for j in range(n_nodes)]
        rows.append(",".join([repr(t)] + [repr(v) for v in vals]))
    return {
        "config": json.dumps(config, indent=2) + "\n",
        "init": ",".join(repr(x) for x in init),
        "signal": "\n".join(rows) + "\n",
    }


def cli_commands(init: str) -> list:
    """(name, argv) of the six subcommands of one cli_n12 pass, in order,
    with paths relative to the pass's working directory."""
    c = ["--config", "config.json"]
    return [
        ("sample", ["sample", *c, "--out", "data.json"]),
        ("reduce", ["reduce", *c, "--data", "data.json", "--out", "rom.json"]),
        ("validate", ["validate", *c, "--rom", "rom.json", "--tol", repr(VALIDATE_TOL),
                      "--out", "validate.json"]),
        ("irka", ["irka", *c, "--order", "2", "--init", init, "--out", "irka.json",
                  "--rom-out", "irka_rom.json", "--csv", "irka.csv"]),
        ("h2", ["h2", *c, "--rom", "irka_rom.json", "--out", "h2.json", "--csv", "h2.csv"]),
        ("simulate", ["simulate", *c, "--rom", "irka_rom.json", "--input", "u.csv",
                      "--out", "y.csv", "--full-out", "y_full.csv"]),
    ]


def write_cli_inputs(seed: int, work_dir) -> str:
    """Write config.json and u.csv for one cli_n12 run; returns the --init
    argument of its irka subcommand."""
    gen = cli_inputs(seed)
    with open(f"{work_dir}/config.json", "w", encoding="utf-8") as fh:
        fh.write(gen["config"])
    with open(f"{work_dir}/u.csv", "w", encoding="utf-8") as fh:
        fh.write(gen["signal"])
    return gen["init"]

"""twostate benchmark entry point.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (closed loop, one client, no think time, ``--workers 1``):
``mc-uniform-d4``, ``mc-haar-d16`` and ``scan-per-sample``; see
``workloads.py`` and ``README.md`` in this directory.

With ``--trace 0`` it runs the workload untraced in a child process and
measures set-up time (``import twostate.cli`` in fresh processes) before and
after it; with
``--trace 1`` it runs the traced workload only. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details
(environment, tail percentile, failures by kind). Both are also written to
``bench/out/result-<workload>-trace<0|1>.json``.

The program is imported from ``<checkout>/src``; without it the benchmark
exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_PROCESSES = 5  # before the workload process, and as many again after it
SETUP_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 150

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import twostate.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(twostate.cli.__file__)\n"
    "print(repr(elapsed))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds to ``import twostate.cli`` in each of ``SETUP_PROCESSES`` fresh processes."""
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-s", "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import twostate.cli failed:\n{proc.stderr.strip()}")
        path, elapsed = proc.stdout.split()
        if Path(path).resolve().parents[1] != ROOT / "src":
            raise RuntimeError(f"twostate imported from {path}, not from {ROOT / 'src'}")
        times.append(float(elapsed))
    return times


def run_child(args, env: dict) -> dict:
    cmd = [
        sys.executable, "-s", str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twostate benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    env = child_env()
    try:
        setup = measure_setup(env) if args.trace == 0 else None
        child = run_child(args, env)
        if setup is not None:
            setup += measure_setup(env)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    detail, metrics = child["detail"], child["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        detail["setup_runs_s"] = setup
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workload process: drives ``twostate.cli.main(argv)`` in-process.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS limited to one thread. It prints one JSON object as its
last line of standard output:

- ``--trace 0``: end-to-end figures over rounds run for ``--seconds``.
- ``--trace 1``: each round runs untraced and then again under the tracer;
  per-layer figures come from the traced rounds, and the ratio of the two
  times gives the tracing overhead. Spans go to ``out/spans-<workload>.jsonl``.

Every invocation's output is checked; a failing invocation is counted,
never skipped or re-run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import workloads
from tracer import LAYERS, Tracer, summarize

WARMUP_ROUNDS = 1
MIN_ROUNDS = 20  # so that the tail percentile always has ten rounds beyond it
TAIL_BEYOND = 10
MAX_SPANS = 200_000  # spans kept for the spans file (about 6 MB); later rounds are only summarized
CALIB_CHUNKS, CALIB_WORDS = 20, 10_000  # about 17 ms; small chunks keep the kernel out of peak_rss_mb
CALIB_REF_S = 0.015  # the kernel time that defines the reference host speed of ref-s units
ROOT = Path(__file__).resolve().parents[1]

BATCH_SAMPLERS = ("sampling.born_mc", "sampling.basis_mc", "sampling.haar_states")
SINGLE_DRAWS = ("sampling.haar_state", "sampling.haar_unitary")


def tail_latency(latencies) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its value.

    Of n sorted values, the (n - 10)-th smallest is the highest one with ten
    values strictly after it; it sits at percentile 100 * (n - 10) / n.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} latencies for a tail, got {n}")
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def calibration_kernel() -> float:
    """A fixed piece of numpy work whose time follows the host's speed.

    The host's speed switches between regimes up to about 1.8x apart, for
    seconds to minutes at a time. The kernel does what the estimators do most:
    Philox words, Box-Muller and a small matrix product. It shares no code
    with the program, so a change to the program does not change its time.
    Timed next to each round, it rescales that round to the reference speed
    (``host_normalized``).
    """
    acc = 0.0
    for key in range(CALIB_CHUNKS):
        raw = np.random.Philox(key=key).random_raw(CALIB_WORDS)
        u = (raw >> np.uint64(11)) * 2.0**-53 + 1e-300
        z = np.sqrt(-2.0 * np.log(u)) * np.exp(2j * np.pi * u[::-1])
        m = z.reshape(-1, 4)
        acc += float((np.abs(m @ m[0].conj()) ** 2).sum())
    return acc


def timed_calibration() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def host_normalized(latencies, calib) -> list:
    """Round times rescaled to the reference host speed, in ref-s.

    ``calib[i]`` and ``calib[i + 1]`` are the kernel times just before and
    just after round ``i``; a round's ref-s are its wall seconds times
    ``CALIB_REF_S`` over their mean.
    """
    return [t * 2.0 * CALIB_REF_S / (calib[i] + calib[i + 1]) for i, t in enumerate(latencies)]


class Runner:
    """Runs rounds of CLI calls, times each call and checks its output."""

    def __init__(self, cli, validator, workdir: Path):
        self.cli = cli
        self.validator = validator
        self.workdir = workdir
        self.attempted = 0
        self.failures = Counter()
        self.first_failure = None
        self.bytes_out = 0
        self.tracer = None

    def _fail(self, kind: str, argv, detail: str) -> None:
        self.failures[kind] += 1
        if self.first_failure is None:
            self.first_failure = f"{kind}: {' '.join(argv)}: {detail.strip()[-500:]}"

    def run_call(self, call) -> float:
        """Run one call, count it and check its output; returns its wall time."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.invocation = self.attempted
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(call.argv))
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.bytes_out += len(out.getvalue())
        if code != 0:
            self._fail(f"exit_{code}", call.argv, err.getvalue())
            return elapsed
        try:
            records = json.loads(out.getvalue())
            self.validator.validate(records)
            call.check(records)
        except (ValueError, KeyError, TypeError, jsonschema.ValidationError, workloads.CheckFailed) as exc:
            self._fail("check", call.argv, f"{type(exc).__name__}: {exc}")
        return elapsed

    def run_round(self, workload: str, seed: int, index: int) -> tuple[float, int]:
        """Wall time of the round's calls (checks excluded) and its work units."""
        calls = workloads.make_round(workload, seed, index, self.workdir)
        return sum(self.run_call(c) for c in calls), sum(c.units for c in calls)

    def run_for(self, workload: str, seed: int, first: int, seconds: float) -> tuple[list, list, list]:
        """Round times and work units, one per round, and the calibration-kernel
        times before the first round and after every round."""
        calibration_kernel()  # warm-up
        latencies, units, calib = [], [], [timed_calibration()]
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(latencies) < MIN_ROUNDS:
            elapsed, work = self.run_round(workload, seed, first + len(latencies))
            latencies.append(elapsed)
            units.append(work)
            calib.append(timed_calibration())
        return latencies, units, calib

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class TracedRun:
    """Totals over the rounds of a traced run."""

    rounds: int = 0
    units: int = 0
    bytes_out: int = 0
    plain_s: float = 0.0
    traced_s: float = 0.0
    self_ns: Counter = field(default_factory=Counter)
    inclusive_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)


def run_traced(runner: Runner, tracer: Tracer, workload: str, seed: int, seconds: float) -> TracedRun:
    """Run each round untraced, then again under the tracer, for ``seconds``.

    Alternating the two keeps drifts in host speed out of the overhead ratio.
    Every traced round is summarized as it ends; its spans stay in the tracer
    for the spans file only while they fit in ``MAX_SPANS``.
    """
    run = TracedRun()
    start = time.perf_counter()
    while run.rounds == 0 or time.perf_counter() - start < seconds:
        index = WARMUP_ROUNDS + run.rounds
        run.plain_s += runner.run_round(workload, seed, index)[0]
        bytes_before, first = runner.bytes_out, len(tracer.spans)
        runner.tracer = tracer
        with tracer:
            elapsed, work = runner.run_round(workload, seed, index)
        runner.tracer = None
        run.rounds += 1
        run.units += work
        run.traced_s += elapsed
        run.bytes_out += runner.bytes_out - bytes_before
        for total, part in zip((run.self_ns, run.inclusive_ns, run.calls),
                               summarize(tracer.spans, tracer.names, first)):
            total.update(part)
        if first and len(tracer.spans) > MAX_SPANS:
            del tracer.spans[first:]
    return run


def git_sha(root: Path) -> str:
    """The commit checked out at ``root``, read from ``.git`` without running git.

    HEAD is either a SHA or ``ref: <name>``; the named ref is a loose file or
    a line of ``packed-refs``. Anything else, such as a checkout without
    ``.git``, gives ``"unknown"``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                head = (git / ref).read_text().strip()
            else:
                packed = (git / "packed-refs").read_text().splitlines()
                head = next(line.split()[0] for line in packed if line.split()[1:] == [ref])
    except (OSError, StopIteration):
        return "unknown"
    return head if re.fullmatch(r"[0-9a-f]{40}", head) else "unknown"


def environment() -> dict:
    """Host, interpreter, library and BLAS facts recorded with every result."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(ROOT),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(latencies, units, calib) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and further figures for the detail line.

    The gated timings are host-normalized (ref-s); the detail line gives the
    same figures in wall seconds.
    """
    scaled = host_normalized(latencies, calib)
    percentile, tail = tail_latency(scaled)
    metrics = {
        "samples_per_s": _metric(sum(units) / sum(scaled), "samples/ref-s"),
        "latency_p50_s": _metric(statistics.median(scaled), "ref-s"),
        "latency_tail_s": _metric(tail, "ref-s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    reported = {
        "latency_tail_percentile": percentile,
        "latency_tail_beyond": TAIL_BEYOND,
        "rounds": len(latencies),
        "samples_per_round": sum(units) / len(units),
        "host_calib_s": _metric(statistics.median(calib), "s"),
        "wall": {
            "samples_per_s": _metric(sum(units) / sum(latencies), "samples/s"),
            "latency_p50_s": _metric(statistics.median(latencies), "s"),
            "latency_tail_s": _metric(tail_latency(latencies)[1], "s"),
        },
    }
    return metrics, reported


def per_layer(run: TracedRun, constructors) -> dict:
    """Per-layer metrics, normalized per round (invocation) or per work unit."""
    traced_ns = sum(run.self_ns.values())
    layer_calls = Counter()
    for name, count in run.calls.items():
        layer_calls[name.split(".", 1)[0]] += count
    per_round = "count/invocation"
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(run.self_ns[layer] / 1e9 / run.rounds, "s/invocation")
        metrics[f"{layer}.share"] = _metric(run.self_ns[layer] / traced_ns, "fraction")
        metrics[f"{layer}.calls"] = _metric(layer_calls[layer] / run.rounds, per_round)
    validations = sum(run.calls[name] for name in constructors if name.startswith("qcore."))
    metrics.update({
        "sampling.ns_per_sample": _metric(run.self_ns["sampling"] / run.units, "ns/sample"),
        "sampling.batch_calls": _metric(sum(run.calls[n] for n in BATCH_SAMPLERS) / run.rounds, per_round),
        "sampling.single_draws": _metric(sum(run.calls[n] for n in SINGLE_DRAWS) / run.rounds, per_round),
        "qcore.validations": _metric(validations / run.rounds, per_round),
        "qcore.validations_per_sample": _metric(validations / run.units, "count/sample"),
        "sic.validate_calls": _metric(run.calls["sic.validate_sic"] / run.rounds, per_round),
        "cli.emit_s": _metric(run.inclusive_ns["cli.emit_results"] / 1e9 / run.rounds, "s/invocation"),
        "cli.bytes_out": _metric(run.bytes_out / run.rounds, "B/invocation"),
        "trace.overhead": _metric(run.traced_s / run.plain_s - 1.0, "fraction"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import twostate.cli as cli

    if Path(cli.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: twostate imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1
    validator = jsonschema.Draft202012Validator(cli.result_schema())
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"work-{args.workload}-", dir=out_dir) as workdir:
        return measure(args, out_dir, Runner(cli, validator, Path(workdir)))


def measure(args, out_dir: Path, runner: Runner) -> int:
    """Warm up, run the timed or traced rounds and print the result line."""
    for i in range(WARMUP_ROUNDS):
        runner.run_round(args.workload, args.seed, i)

    detail = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if args.trace == 0:
        metrics, detail["reported"] = end_to_end(*runner.run_for(args.workload, args.seed, WARMUP_ROUNDS, args.seconds))
    else:
        tracer = Tracer()
        run = run_traced(runner, tracer, args.workload, args.seed, args.seconds)
        metrics = per_layer(run, tracer.constructors)
        spans_path = out_dir / f"spans-{args.workload}.jsonl"
        tracer.dump(spans_path)
        detail.update({"rounds": run.rounds, "wrapped": tracer.wrapped, "spans_in_file": len(tracer.spans),
                       "spans_file": str(spans_path.relative_to(ROOT))})

    detail.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": _metric(runner.failed / runner.attempted, "fraction"),
        "failures": dict(runner.failures),
        "first_failure": runner.first_failure,
    })
    print(json.dumps({"detail": detail, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import child
import workloads
from tracer import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_synthetic_nested_spans():
    names = ["cli.main", "sampling.born_mc", "qcore.StateVector"]
    spans = [
        (0, 0, 100, -1, 0),   # cli.main: 0..100
        (1, 10, 40, 0, 0),    # sampling under cli: 10..40
        (2, 15, 20, 1, 0),    # qcore under sampling: 15..20
        (1, 50, 70, 0, 0),    # sampling under cli: 50..70
    ]
    self_ns, inclusive_ns, calls = summarize(spans, names)
    assert self_ns == {"cli": 100 - 30 - 20, "sampling": (30 - 5) + 20, "qcore": 5}
    assert sum(self_ns.values()) == 100
    assert inclusive_ns["sampling.born_mc"] == 50
    assert calls == {"cli.main": 1, "sampling.born_mc": 2, "qcore.StateVector": 1}


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    leaf_t = tracer.wrap("qcore.leaf", leaf)
    mid_t = tracer.wrap("sampling.mid", lambda: leaf_t() + leaf_t())
    outer_t = tracer.wrap("cli.outer", lambda: mid_t())
    tracer.invocation = 7
    assert outer_t() == 2 * sum(range(1000))

    order = [tracer.names[s[0]] for s in tracer.spans]
    assert order == ["cli.outer", "sampling.mid", "qcore.leaf", "qcore.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {7}
    self_ns, _, _ = summarize(tracer.spans, tracer.names)
    root = tracer.spans[0]
    assert sum(self_ns.values()) == root[2] - root[1]
    assert all(v >= 0 for v in self_ns.values())


def test_install_wraps_public_names_and_uninstall_restores_them():
    import twostate
    import twostate.cli as cli
    import twostate.sampling as sampling
    from twostate.qcore import StateVector

    originals = (cli.haar_state, sampling.haar_state, twostate.haar_state, StateVector.__init__)
    with Tracer() as tracer:
        assert cli.haar_state is sampling.haar_state is twostate.haar_state
        assert cli.haar_state is not originals[0]
        assert "sampling.haar_state" in tracer.wrapped and "qcore.StateVector" in tracer.constructors
        assert "cli.ConfigError" not in tracer.wrapped  # exceptions are not traced
        StateVector.basis_state(2, 0)
    assert (cli.haar_state, sampling.haar_state, twostate.haar_state, StateVector.__init__) == originals
    assert [tracer.names[s[0]] for s in tracer.spans] == ["qcore.StateVector"]


@pytest.mark.parametrize("n, percentile, value", [(100, 90.0, 90), (11, 100.0 / 11, 1), (20, 50.0, 10)])
def test_tail_has_ten_values_beyond_it(n, percentile, value):
    latencies = list(range(n, 0, -1))  # n..1, unsorted order on purpose
    got_percentile, got_value = child.tail_latency(latencies)
    assert got_percentile == pytest.approx(percentile)
    assert got_value == value
    assert sum(1 for x in latencies if x > got_value) == 10


def test_tail_needs_more_than_ten_values():
    with pytest.raises(ValueError):
        child.tail_latency([1.0] * 10)


def test_rounds_are_rescaled_by_the_kernel_times_around_them():
    ref = child.CALIB_REF_S
    scaled = child.host_normalized([0.1, 0.3], [ref, 3 * ref, ref])
    assert scaled == pytest.approx([0.1 / 2, 0.3 / 2])  # both rounds ran at half the reference speed


def test_failed_invocations_are_counted_by_kind(tmp_path):
    import twostate.cli as cli

    validator = jsonschema.Draft202012Validator(cli.result_schema())
    runner = child.Runner(cli, validator, tmp_path)
    good = workloads.make_round("mc-uniform-d4", 1, 0, tmp_path)[0]
    no_seed = workloads.Call(("born-mc", "--dim", "2", "--samples", "10", "--format", "json"), 10, good.check)
    bad_flag = workloads.Call(("born-mc", "--no-such-flag"), 10, good.check)
    wrong_answer = workloads.Call(good.argv, good.units, workloads.born_mc_check(seed=12345))
    for call in (good, no_seed, bad_flag, wrong_answer):
        runner.run_call(call)
    assert runner.attempted == 4
    assert runner.failures == {"exit_2": 2, "check": 1}
    assert runner.failed / runner.attempted == 0.75
    assert runner.first_failure.startswith("exit_2: born-mc --dim 2")


def test_git_sha_reads_loose_packed_and_detached_heads(tmp_path):
    sha_a, sha_b = "a" * 40, "0123456789abcdef" * 2 + "01234567"
    git = tmp_path / ".git"
    assert child.git_sha(tmp_path) == "unknown"  # no .git, as in an exported checkout
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert child.git_sha(tmp_path) == "unknown"  # a branch with no commit yet
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha_b} refs/heads/other\n{sha_a} refs/heads/main\n")
    assert child.git_sha(tmp_path) == sha_a
    (git / "refs" / "heads" / "main").write_text(sha_b + "\n")
    assert child.git_sha(tmp_path) == sha_b  # a loose ref overrides its packed line
    (git / "HEAD").write_text(sha_a + "\n")
    assert child.git_sha(tmp_path) == sha_a


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="checkout without .git")
def test_recorded_git_sha_is_a_full_sha():
    assert re.fullmatch(r"[0-9a-f]{40}", child.environment()["git_sha"])


def _run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_seeds_give_the_declared_metrics_and_pass_every_check(workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for seed, trace in ((1, 0), (2, 0), (2, 1)):
        proc = _run_bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared[trace]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("mc-uniform-d4", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

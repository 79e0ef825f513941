"""The benchmark's workloads: the CLI invocations each one makes, and the
oracles that check their outputs.

A workload is a sequence of rounds. A round is the unit of latency: one CLI
invocation on the Monte Carlo workloads, and one pass over every per-sample
and one-shot experiment on ``scan-per-sample``. Round ``i`` of a workload is
a pure function of ``(seed, i)``: its invocation seeds and config files come
from a numpy generator keyed on both, so a traced run can replay exactly the
rounds an untraced run made. Every oracle is computed here from the inputs
the benchmark generated; the program's ``oracle`` column is never read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOAD_NAMES = ("mc-uniform-d4", "mc-haar-d16", "scan-per-sample")

SIGMAS = 5.0  # Monte Carlo frequencies must lie within this many binomial sigmas of the oracle
EXACT_TOL = 1e-12  # for identities the program computes in double precision

MC_SAMPLES = 32768
BORN_DIM = 4
BORN_GRID = (0.1, 0.5, 0.9)
HAAR_DIM = 16
HAAR_WEIGHTS = (0.9, 0.1)  # Born weights of the forward state on outcomes 0 and 1

# Per-sample experiment sizes, chosen so that the three take similar wall
# time. Medians over 25 rounds at the commit that added the benchmark, on a
# 2-vCPU Xeon VM with one BLAS thread, measured twice: exclusivity-scan
# 0.17-0.19 s, sic-distinguish 0.18-0.21 s, pbr-geometric 0.19-0.21 s; the
# four one-shot experiments together 0.03 s, about 5% of the round.
EXCLUSIVITY_DIM, EXCLUSIVITY_SAMPLES = 5, 400
SIC_DIM, SIC_PAIRS = 3, 250
PBR_INSTANCES = 350
SEARCH_DIM, SEARCH_RESTARTS = 3, 1
SOLVE_DIM = 4
WEAK_DIM = 3


class CheckFailed(Exception):
    """An invocation's output disagrees with the benchmark's oracle."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation, the work units it performs, and its output check."""

    argv: tuple
    units: int
    check: Callable[[list], None]


# --- input generators (numpy's generator, independent of the program's RNG) --


def _vector_json(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def _matrix_json(mat) -> list:
    return [_vector_json(row) for row in np.asarray(mat, dtype=complex)]


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def _write_config(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _common(experiment: str, seed: int) -> list:
    return [experiment, "--seed", str(seed), "--workers", "1", "--format", "json"]


# --- checks ----------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _within_sigmas(freq: float, prob: float, n: int, what: str) -> None:
    sigma = math.sqrt(prob * (1.0 - prob) / n)
    _require(abs(freq - prob) <= SIGMAS * sigma,
             f"{what}: frequency {freq!r} is more than {SIGMAS} sigma from {prob!r} (sigma {sigma:.3e})")


def _single(records: list, experiment: str) -> dict:
    _require(len(records) == 1, f"{experiment}: expected 1 record, got {len(records)}")
    return records[0]


def _check_echo(records: list, experiment: str, seed: int) -> None:
    for rec in records:
        _require(rec["experiment"] == experiment, f"record echoes experiment {rec['experiment']!r}, not {experiment!r}")
        _require(rec["seed"] == seed, f"{experiment}: record echoes seed {rec['seed']!r}, not {seed}")


def born_mc_check(seed: int):
    def check(records: list) -> None:
        _check_echo(records, "born-mc", seed)
        _require(len(records) == len(BORN_GRID), f"born-mc: expected {len(BORN_GRID)} records, got {len(records)}")
        for rec, p in zip(records, BORN_GRID):
            _require(rec["p_or_theta"] == p and rec["samples"] == MC_SAMPLES, f"born-mc: record echoes {rec}")
            _within_sigmas(rec["frequency"], p, MC_SAMPLES, f"born-mc p={p}")
    return check


def basis_mc_check(seed: int, born: np.ndarray):
    """Haar backward states fire outcome k with probability born_k**(d-1)."""
    dim = born.shape[0]
    fire = born ** (dim - 1)

    def check(records: list) -> None:
        _check_echo(records, "basis-mc", seed)
        _require(len(records) == dim, f"basis-mc: expected {dim} records, got {len(records)}")
        for k, rec in enumerate(records):
            _require(rec["extra"]["outcome"] == k, f"basis-mc: record {k} is for outcome {rec['extra']['outcome']}")
            _within_sigmas(rec["frequency"], float(fire[k]), MC_SAMPLES, f"basis-mc outcome {k}")
        total = math.fsum(rec["frequency"] for rec in records)
        for rec in records:
            _require(abs(rec["no_assign_rate"] - (1.0 - total)) <= EXACT_TOL,
                     f"basis-mc: no_assign_rate {rec['no_assign_rate']!r} != 1 - sum f = {1.0 - total!r}")
    return check


def exclusivity_check(seed: int, samples: int):
    def check(records: list) -> None:
        _check_echo(records, "exclusivity-scan", seed)
        rec = _single(records, "exclusivity-scan")
        _require(rec["extra"]["violations"] == 0, f"exclusivity-scan: {rec['extra']['violations']} violations")
        _require(abs(rec["frequency"] + rec["no_assign_rate"] - 1.0) <= EXACT_TOL,
                 "exclusivity-scan: assigned and unassigned rates do not sum to 1")
        _require(rec["samples"] == samples, f"exclusivity-scan: {rec['samples']} samples, asked for {samples}")
    return check


def sic_distinguish_check(seed: int, pairs: int):
    def check(records: list) -> None:
        _check_echo(records, "sic-distinguish", seed)
        extra = _single(records, "sic-distinguish")["extra"]
        _require(extra["separated"] + extra["no_separator"] == pairs,
                 f"sic-distinguish: {extra['separated']} + {extra['no_separator']} pairs != {pairs}")
    return check


def pbr_check(seed: int, instances: int):
    def check(records: list) -> None:
        _check_echo(records, "pbr-geometric", seed)
        extra = _single(records, "pbr-geometric")["extra"]
        _require(extra["min_margin"] is not None and extra["min_margin"] >= 1e-9,
                 f"pbr-geometric: min margin {extra['min_margin']!r} below 1e-9")
        _require(extra["separators_found"] + extra["degenerate"] == instances,
                 f"pbr-geometric: {extra['separators_found']} found + {extra['degenerate']} degenerate != {instances}")
    return check


def sic_validate_check(seed: int, tol: float):
    def check(records: list) -> None:
        _check_echo(records, "sic-validate", seed)
        extra = _single(records, "sic-validate")["extra"]
        _require(extra["passed"] is True, "sic-validate: the built-in set failed validation")
        _require(extra["max_pair_deviation"] <= tol and extra["identity_deviation"] <= tol,
                 f"sic-validate: deviations {extra['max_pair_deviation']!r}, {extra['identity_deviation']!r} exceed {tol}")
    return check


def sic_search_check(seed: int, dim: int, restarts: int):
    welch = 2.0 * dim**3 / (dim + 1)

    def check(records: list) -> None:
        _check_echo(records, "sic-search", seed)
        extra = _single(records, "sic-search")["extra"]
        _require(extra["frame_potential"] >= welch - 1e-9,
                 f"sic-search: frame potential {extra['frame_potential']!r} undercuts the Welch bound {welch!r}")
        _require(extra["restarts"] == restarts, f"sic-search: ran {extra['restarts']} restarts, asked for {restarts}")
    return check


def stationary_check(seed: int, h: np.ndarray, k: np.ndarray, diagonal: np.ndarray):
    energies, vecs = np.linalg.eigh(h)

    def check(records: list) -> None:
        _check_echo(records, "stationary-solve", seed)
        extra = _single(records, "stationary-solve")["extra"]
        rho = np.array([[complex(re, im) for re, im in row] for row in extra["rho"]])
        residual = float(np.linalg.norm(rho @ h - h @ rho - k))
        _require(residual <= 1e-10 and extra["residual"] <= 1e-10,
                 f"stationary-solve: residual {residual!r} (reported {extra['residual']!r}) above 1e-10")
        got = np.diagonal(vecs.conj().T @ rho @ vecs).real
        _require(np.allclose(got, diagonal, rtol=0.0, atol=1e-9),
                 f"stationary-solve: eigenbasis diagonal {got.tolist()} != requested {diagonal.tolist()}")
    return check


def weak_value_check(seed: int, observable: np.ndarray, forward: np.ndarray, final: np.ndarray):
    amplitude = np.vdot(final, forward)
    expected = complex(np.vdot(final, observable @ forward) / amplitude)
    probability = abs(amplitude) ** 2

    def check(records: list) -> None:
        _check_echo(records, "weak-value", seed)
        extra = _single(records, "weak-value")["extra"]
        got = complex(extra["value_re"], extra["value_im"])
        _require(abs(got - expected) <= 1e-9 * max(1.0, abs(expected)),
                 f"weak-value: {got!r} != <f|A|i>/<f|i> = {expected!r}")
        _require(abs(extra["event_probability"] - probability) <= EXACT_TOL,
                 f"weak-value: event probability {extra['event_probability']!r} != {probability!r}")
    return check


# --- round builders --------------------------------------------------------


def _invocation_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _born_round(rng: np.random.Generator, workdir: Path) -> list:
    seed = _invocation_seed(rng)
    argv = _common("born-mc", seed) + [
        "--dim", str(BORN_DIM), "--dist", "uniform-overlap", "--samples", str(MC_SAMPLES),
        "--p-grid", ",".join(repr(p) for p in BORN_GRID),
    ]
    return [Call(tuple(argv), len(BORN_GRID) * MC_SAMPLES, born_mc_check(seed))]


def _haar_round(rng: np.random.Generator, workdir: Path) -> list:
    seed = _invocation_seed(rng)
    basis = _random_unitary(rng, HAAR_DIM).T  # rows are the basis vectors
    phase = np.exp(2j * np.pi * rng.random())
    forward = math.sqrt(HAAR_WEIGHTS[0]) * basis[0] + math.sqrt(HAAR_WEIGHTS[1]) * phase * basis[1]
    forward /= np.linalg.norm(forward)
    born = np.abs(basis.conj() @ forward) ** 2
    config = _write_config(workdir / "basis-mc.json", {
        "basis": [_vector_json(b) for b in basis],
        "forward": _vector_json(forward),
    })
    argv = _common("basis-mc", seed) + [
        "--dim", str(HAAR_DIM), "--dist", "haar", "--samples", str(MC_SAMPLES), "--config", config,
    ]
    return [Call(tuple(argv), MC_SAMPLES, basis_mc_check(seed, born))]


def _scan_round(rng: np.random.Generator, workdir: Path) -> list:
    seeds = [_invocation_seed(rng) for _ in range(7)]
    calls = [
        Call(tuple(_common("exclusivity-scan", seeds[0]) + [
            "--dim", str(EXCLUSIVITY_DIM), "--samples", str(EXCLUSIVITY_SAMPLES)]),
            EXCLUSIVITY_SAMPLES, exclusivity_check(seeds[0], EXCLUSIVITY_SAMPLES)),
        Call(tuple(_common("sic-distinguish", seeds[1]) + ["--dim", str(SIC_DIM), "--samples", str(SIC_PAIRS)]),
             SIC_PAIRS, sic_distinguish_check(seeds[1], SIC_PAIRS)),
        Call(tuple(_common("pbr-geometric", seeds[2]) + ["--samples", str(PBR_INSTANCES)]),
             PBR_INSTANCES, pbr_check(seeds[2], PBR_INSTANCES)),
        Call(tuple(_common("sic-validate", seeds[3]) + ["--dim", str(SIC_DIM), "--tol", "1e-10"]),
             0, sic_validate_check(seeds[3], 1e-10)),
        Call(tuple(_common("sic-search", seeds[4]) + [
            "--dim", str(SEARCH_DIM), "--restarts", str(SEARCH_RESTARTS)]),
            0, sic_search_check(seeds[4], SEARCH_DIM, SEARCH_RESTARTS)),
    ]

    # stationary-solve: K = [rho0, H] for a random Hermitian rho0, so the
    # requested diagonal (rho0's, in H's eigenbasis) has an exact solution.
    h = _random_hermitian(rng, SOLVE_DIM)
    rho0 = _random_hermitian(rng, SOLVE_DIM)
    k = rho0 @ h - h @ rho0
    k = (k - k.conj().T) / 2.0
    vecs = np.linalg.eigh(h)[1]
    diagonal = np.diagonal(vecs.conj().T @ rho0 @ vecs).real.copy()
    config = _write_config(workdir / "stationary-solve.json", {
        "dim": SOLVE_DIM, "hamiltonian": _matrix_json(h), "target_k": _matrix_json(k), "diagonal": diagonal.tolist(),
    })
    calls.append(Call(tuple(_common("stationary-solve", seeds[5]) + ["--config", config]),
                      0, stationary_check(seeds[5], h, k, diagonal)))

    # weak-value: the final state leans on the forward state, so <f|i> is
    # bounded away from zero and the quotient is well conditioned.
    observable = _random_hermitian(rng, WEAK_DIM)
    forward = _random_state(rng, WEAK_DIM)
    final = forward + 0.5 * _random_state(rng, WEAK_DIM)
    final /= np.linalg.norm(final)
    config = _write_config(workdir / "weak-value.json", {
        "dim": WEAK_DIM, "observable": _matrix_json(observable),
        "forward": _vector_json(forward), "final": _vector_json(final),
    })
    calls.append(Call(tuple(_common("weak-value", seeds[6]) + ["--config", config]),
                      0, weak_value_check(seeds[6], observable, forward, final)))
    return calls


_BUILDERS = {
    "mc-uniform-d4": _born_round,
    "mc-haar-d16": _haar_round,
    "scan-per-sample": _scan_round,
}


def make_round(workload: str, seed: int, index: int, workdir: Path) -> list:
    """The calls of round ``index``; config files are written into ``workdir``.

    A round's config files are rewritten when the round is built, so build
    each round just before running it.
    """
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(workload), index])
    return _BUILDERS[workload](rng, workdir)

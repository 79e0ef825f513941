"""Reproducible command-line experiment harness.

Every experiment takes a mandatory seed and only the fields it reads: a flag it
lacks is a usage error, and a config key it lacks is a configuration error. Each
output record echoes the run's configuration, with null in the samples, tie_tol
and dist columns of an experiment that has no such field, and the emitted CSV or
JSON bytes depend only on the configuration (timing excluded via --no-timing).
Exit codes: 0 success, 2 configuration error, 3 runtime error, 4
model-invariant violation.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .assignment import MultipleOutcomesError, OrthogonalPostSelectionError, PreconditionError, weak_value
from .blochpbr import pbr_geometric, pbr_separators
from .dynamics import (
    CommutatorTarget,
    InfeasibleKError,
    NotPsdError,
    StationarySolveInput,
    commutator_solve,
)
from .qcore import (
    HermitianOperator,
    OrthonormalBasis,
    StateVector,
    commutator,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
)
from .sampling import (
    Fixed,
    HaarPure,
    UniformOverlap,
    basis_mc,
    born_mc,
    born_oracle,
    exclusivity_scan,
    haar_state,  # unused here; the benchmark's tracer test reads it as cli.haar_state
)
from .sic import (
    SEARCH_MAX_DIM,
    InvalidSicError,
    builtin_fiducial,
    search_fiducial,
    sic_distinguish,
    validate_sic,
)

__all__ = ["ExperimentConfig", "ConfigError", "run_experiment", "emit_results", "result_schema", "main"]

SCHEMA_VERSION = 2

DISTRIBUTIONS = ("uniform-overlap", "haar", "fixed")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's converted configuration: the ``_FIELDS``, ``_SAMPLED`` and ``_DIST`` rows, the rest in ``params``.

    ``samples``, ``tie_tol`` and ``dist`` are None when the experiment has no such row.
    ``params`` holds the experiment's other rows, converted, and the structured config keys it
    reads (states, matrices), which its runner converts where it reads them. ``given`` holds the
    keys that a flag or the config file set, so that a runner can tell a given row from a default.
    """

    experiment: str
    dim: int
    seed: int
    workers: int
    params: dict
    given: frozenset
    samples: int | None = None
    tie_tol: float | None = None
    dist: str | None = None


def _converted(key: str, build, *values, rejects=(TypeError, ValueError, OverflowError)):
    """``build(*values)``; an exception of a ``rejects`` class is a ConfigError that names ``key``.

    The default classes are those a rejected value raises (OverflowError: float() of a huge config integer).
    """
    try:
        return build(*values)
    except rejects as err:
        raise ConfigError(f"invalid {key}: {err}") from None


def _from_config(cfg: ExperimentConfig, build, *keys):
    """``build`` applied to the values of config ``keys``; a missing or rejected value is a ConfigError."""
    for key in keys:
        if key not in cfg.params:
            raise ConfigError(f"{cfg.experiment} requires {key!r} in the config file")
    return _converted("/".join(keys), build, *(cfg.params[key] for key in keys))


def _of_dim(value, dim: int, what: str):
    if value.dim != dim:
        raise ValueError(f"expected {what} of dimension {dim}, got {value.dim}")
    return value


def _state(data, dim: int) -> StateVector:
    return _of_dim(StateVector(vector_from_json(data)), dim, "a state")


def _hermitian(data, dim: int) -> HermitianOperator:
    return _of_dim(HermitianOperator(matrix_from_json(data)), dim, "an operator")


def _numbers(data) -> list:
    """A non-empty config list of finite numbers, or the comma-separated text of a flag."""
    if isinstance(data, str):
        data = [float(tok) for tok in data.split(",") if tok.strip()]
    if not isinstance(data, list) or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in data):
        raise ValueError(f"expected a list of numbers, got {data!r}")
    if not data:
        raise ValueError("expected at least one number")
    if not all(abs(x) < math.inf for x in data):  # false for NaN and +-inf; math.isfinite raises on huge ints
        raise ValueError(f"expected finite numbers, got {data!r}")
    return [float(x) for x in data]  # a config integer echoes as the flag's float; float() of a huge one overflows


def _number_list(data) -> list:
    """``_numbers`` of a config list; the comma-separated text a flag takes is no list here."""
    if not isinstance(data, list):
        raise ValueError(f"expected a list of numbers, got {data!r}")
    return _numbers(data)


def _probabilities(data) -> list:
    """``_numbers``, each in [0, 1]."""
    values = _numbers(data)
    for p in values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p values must lie in [0, 1], got {p}")
    return values


def _integer(data, least: int, below: int | None = None) -> int:
    """A JSON integer or the integer text a flag takes, >= ``least`` and < ``below``.

    A boolean or a float is no integer.
    """
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise ValueError(f"expected an integer, got {data!r}")
    value = int(data)
    if value < least:
        raise ValueError(f"expected an integer >= {least}, got {data!r}")
    if below is not None and value >= below:
        raise ValueError(f"expected an integer < {below}, got {data!r}")
    return value


_count = functools.partial(_integer, least=1)


def _tolerance(data) -> float:
    """A finite number >= 0, or the number text a flag takes; a boolean is no number."""
    if isinstance(data, bool):
        raise ValueError(f"expected a number, got {data!r}")
    value = float(data)
    if not 0.0 <= value < math.inf:  # false for NaN
        raise ValueError(f"expected a finite number >= 0, got {data!r}")
    return value


def _distribution(data) -> str:
    """One of DISTRIBUTIONS."""
    if data not in DISTRIBUTIONS:
        raise ValueError(f"expected one of {', '.join(DISTRIBUTIONS)}, got {data!r}")
    return data


def _boolean(data) -> bool:
    """A JSON boolean or the flag text true or false."""
    if isinstance(data, bool):
        return data
    if data not in ("true", "false"):
        raise ValueError(f"expected true or false, got {data!r}")
    return data == "true"


def _unread(cfg: ExperimentConfig, keys, condition: str) -> None:
    """A ConfigError for the first of config ``keys`` given: the run reads them only under ``condition``."""
    for key in keys:
        if key in cfg.given:
            raise ConfigError(f"{cfg.experiment} reads {key!r} only {condition}")


def _dist_for(cfg: ExperimentConfig):
    if cfg.dist == "fixed":
        return Fixed(_from_config(cfg, lambda data: _state(data, cfg.dim), "dist_state"))
    _unread(cfg, ["dist_state"], "under --dist fixed")
    return HaarPure() if cfg.dist == "haar" else UniformOverlap()


# --- experiment implementations --------------------------------------------


def _run_born_mc(cfg: ExperimentConfig) -> list[dict]:
    grid = cfg.params["p_grid"]
    forwards = []
    for p in grid:
        amps = np.zeros(cfg.dim, dtype=complex)
        amps[0] = np.sqrt(p)
        amps[1] = np.sqrt(1.0 - p)
        forwards.append(StateVector(amps))
    dist = _dist_for(cfg)
    estimates = born_mc(forwards, StateVector.basis_state(cfg.dim, 0), dist, cfg.samples, cfg.seed, cfg.tie_tol,
                        workers=cfg.workers)
    return [
        _record(cfg, p_or_theta=p, frequency=estimate.frequency, std_err=estimate.std_err,
                oracle=None if cfg.dist == "fixed" else born_oracle(dist, p, cfg.dim))
        for p, estimate in zip(grid, estimates)
    ]


def _tilted_qubit_basis(theta_rad: float) -> OrthonormalBasis:
    c, s = np.cos(theta_rad / 2.0), np.sin(theta_rad / 2.0)
    return OrthonormalBasis(np.array([[c, s], [-s, c]], dtype=complex))


def _run_basis_mc(cfg: ExperimentConfig) -> list[dict]:
    records = []
    if "basis" in cfg.params:
        basis = _from_config(cfg, lambda rows: _of_dim(OrthonormalBasis(matrix_from_json(rows)), cfg.dim, "a basis"),
                             "basis")
        forward = _from_config(cfg, lambda data: _state(data, basis.dim), "forward")
        _unread(cfg, ["theta_deg"], "without a 'basis'")
        cases = [(None, forward, basis)]
    else:
        if cfg.dim != 2:
            raise ConfigError("the tilted-basis parameterization requires dim 2; pass a 'basis' instead")
        _unread(cfg, ["forward"], "with a 'basis'")
        forward = StateVector.basis_state(2, 0)
        cases = [(theta, forward, _tilted_qubit_basis(np.deg2rad(theta))) for theta in cfg.params["theta_deg"]]

    dist = _dist_for(cfg)
    for point, (theta, fwd, basis) in enumerate(cases):
        try:
            result = basis_mc(
                fwd, basis, dist, cfg.samples, cfg.seed, cfg.tie_tol,
                stream_index=point, workers=cfg.workers,
            )
        except PreconditionError as err:  # the states' weights over the basis break the rule's precondition
            raise ConfigError(str(err)) from None
        # 0/0, when no sample assigned an outcome, is written as null
        conditional = [None if math.isnan(c) else c for c in result.conditional_frequencies().tolist()]
        born = (np.abs(basis.entries.conj() @ fwd.entries) ** 2).tolist()
        records.extend(
            _record(cfg, p_or_theta=theta, frequency=estimate.frequency, std_err=estimate.std_err,
                    no_assign_rate=result.no_assign_rate, oracle=oracle,
                    extra={"outcome": k, "conditional_frequency": c})
            for k, (estimate, c, oracle) in enumerate(zip(result.estimates, conditional, born))
        )
    return records


def _run_exclusivity_scan(cfg: ExperimentConfig) -> list[dict]:
    tallies = exclusivity_scan(cfg.dim, cfg.samples, cfg.seed, cfg.tie_tol, workers=cfg.workers)
    # P(some outcome fires) = d(d-1) B(d, d-1) for Haar states over a Haar basis, at tie_tol 0
    oracle = cfg.dim / math.comb(2 * cfg.dim - 2, cfg.dim - 1) if cfg.tie_tol == 0 else None
    return [_record(
        cfg, frequency=int(tallies[:-2].sum()) / cfg.samples, no_assign_rate=int(tallies[-2]) / cfg.samples,
        oracle=oracle, extra={"violations": int(tallies[-1])},
    )]


def _sic_for(cfg: ExperimentConfig) -> StateVector:
    """The fiducial that stands for the set: the built-in one at d = 2 and 3 unless the config has one."""
    if "fiducial" not in cfg.params and cfg.dim in (2, 3):
        return builtin_fiducial(cfg.dim)
    return _from_config(cfg, lambda data: _state(data, cfg.dim), "fiducial")


def _run_sic_validate(cfg: ExperimentConfig) -> list[dict]:
    tol = cfg.params["tol"]
    report = validate_sic(_sic_for(cfg), tol)
    return [_record(cfg, oracle=1.0 / (cfg.dim + 1), extra={
        "tol": tol,
        "max_pair_deviation": report.max_pair_deviation,
        "identity_deviation": report.identity_deviation,
        "passed": report.passed,
    })]


def _run_sic_search(cfg: ExperimentConfig) -> list[dict]:
    if cfg.dim > SEARCH_MAX_DIM:
        raise ConfigError(f"invalid dim: supported dimensions are 2..{SEARCH_MAX_DIM}, got {cfg.dim}")
    report = search_fiducial(cfg.dim, cfg.params["restarts"], cfg.params["max_iters"], cfg.seed)
    orbit_check = validate_sic(report.fiducial, 1e-5)
    return [_record(cfg, oracle=report.lower_bound, extra={
        "frame_potential": report.frame_potential,
        "iterations": report.iterations,
        "restarts": report.restarts,
        "converged": report.converged,
        "orbit_passes_1e-5": orbit_check.passed,
    })]


def _run_sic_distinguish(cfg: ExperimentConfig) -> list[dict]:
    separated = _converted(
        "fiducial", lambda f: sic_distinguish(f, cfg.samples, cfg.seed, cfg.tie_tol, workers=cfg.workers),
        _sic_for(cfg), rejects=InvalidSicError)
    return [_record(cfg, frequency=separated / cfg.samples, extra={
        "separated": separated,
        "no_separator": cfg.samples - separated,
    })]


def _run_stationary_solve(cfg: ExperimentConfig) -> list[dict]:
    solve_input = _from_config(
        cfg,
        lambda h, k, diagonal: StationarySolveInput(
            _hermitian(h, cfg.dim), CommutatorTarget(matrix_from_json(k)), _number_list(diagonal)),
        "hamiltonian", "target_k", "diagonal",
    )
    h, k = solve_input.hamiltonian, solve_input.target
    rho = _converted("target_k/diagonal", commutator_solve, solve_input, cfg.params["require_psd"],
                     rejects=(InfeasibleKError, NotPsdError))
    residual = float(np.linalg.norm(commutator(rho, h.entries) - k.entries))
    return [_record(cfg, extra={
        "residual": residual,
        "rho": matrix_to_json(rho),
    })]


def _bloch_instance(rows) -> np.ndarray:
    vectors = np.array(rows, dtype=float)
    if vectors.shape != (4, 3):
        raise ValueError(f"an explicit instance needs 4 Bloch vectors [m, m', x, x'], got shape {vectors.shape}")
    with np.errstate(over="ignore"):  # a huge component gives an inf norm
        norms = np.sqrt(np.sum(vectors**2, axis=1))
    bad = ~(np.abs(norms - 1.0) <= 1e-12)  # also rejects NaN
    if bad.any():
        raise ValueError(f"Bloch vector norm {float(norms[bad][0])!r} deviates from 1")
    return vectors


def _run_pbr_geometric(cfg: ExperimentConfig) -> list[dict]:
    if cfg.dim != 2:
        raise ConfigError("pbr-geometric instances are qubit instances and require dim 2")
    if "instance" in cfg.params:
        if cfg.samples != 1:
            raise ConfigError(f"pbr-geometric runs an explicit 'instance' once; samples must be 1, got {cfg.samples}")
        vectors = _from_config(cfg, lambda rows: _bloch_instance([_number_list(row) for row in rows]), "instance")
        found, degenerate, min_margin = pbr_separators(vectors[:, None], cfg.tie_tol)
    else:
        found, degenerate, min_margin = pbr_geometric(cfg.samples, cfg.seed, cfg.tie_tol, workers=cfg.workers)
    return [_record(cfg, frequency=found / cfg.samples, extra={
        "separators_found": found,
        "degenerate": degenerate,
        "min_margin": None if not np.isfinite(min_margin) else float(min_margin),
    })]


def _run_weak_value(cfg: ExperimentConfig) -> list[dict]:
    if "observable" in cfg.params:
        observable = _from_config(cfg, lambda data: _hermitian(data, cfg.dim), "observable")
        forward = _from_config(cfg, lambda data: _state(data, cfg.dim), "forward")
        final = _from_config(cfg, lambda data: _state(data, cfg.dim), "final")
    else:
        if cfg.dim != 2:
            raise ConfigError("the built-in weak-value example requires dim 2; pass an 'observable' instead")
        _unread(cfg, ["forward", "final"], "with an 'observable'")
        observable = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
        forward = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        final = StateVector.basis_state(2, 0)
    result = _converted("forward/final", weak_value, observable, forward, final, rejects=OrthogonalPostSelectionError)
    return [_record(cfg, frequency=result.event_probability, extra={
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "event_probability": result.event_probability,
    })]


class _Param(NamedTuple):
    """A row of the field table; its flag is the key spelled with dashes."""

    key: str  # config key
    convert: Callable  # config value or flag text -> the value the runner reads
    default: object
    help: str


# the rows of every experiment; `workers` cannot change a result, and every experiment takes it
# so that one command line shape runs them all
_FIELDS = (
    _Param("dim", functools.partial(_integer, least=2), 2, "Hilbert-space dimension"),
    _Param("seed", functools.partial(_integer, least=0, below=2**64), None, "RNG seed (mandatory; no entropy default)"),
    _Param("workers", _count, 1, "parallel workers (must not change results)"),
)
# the rows of the five sampled experiments
_SAMPLED = (
    _Param("samples", _count, 1, "number of Monte Carlo samples"),
    _Param("tie_tol", _tolerance, 0.0, "strictness margin added to the rule threshold"),
)
_DIST = _Param("dist", _distribution, "uniform-overlap", "backward-state distribution: uniform-overlap, haar or fixed")


class _Experiment(NamedTuple):
    run: Callable[[ExperimentConfig], list[dict]]
    help: str  # the first sentence is the one-line summary
    params: tuple = ()  # the experiment's own rows
    keys: tuple = ()  # the structured config keys its runner reads


_EXPERIMENTS = {
    "born-mc": _Experiment(_run_born_mc, (
        "Estimate how often the outcome rule |<fwd|a>|^2 + |<bwd|a>|^2 > 1 fires for a "
        "target state a over sampled backward states, across a grid of forward overlaps p. "
        "With the uniform-overlap backward distribution the frequency reproduces p itself "
        "(the Born value); with Haar sampling it reproduces p^(d-1)."
    ), (
        *_SAMPLED, _DIST,
        _Param("p_grid", _probabilities, tuple(round(0.1 * k, 10) for k in range(1, 10)),
               "comma-separated forward overlaps"),
    ), keys=("dist_state",)),
    "basis-mc": _Experiment(_run_basis_mc, (
        "Run the assignment rule against every element of an orthonormal basis per sample, "
        "tallying per-outcome frequencies and the rate of samples that assign no outcome. "
        "For a qubit basis tilted by theta the conditional assigned frequency of the near "
        "outcome is cos^2(theta/2)."
    ), (
        *_SAMPLED, _DIST,
        _Param("theta_deg", _numbers, (30.0, 60.0, 90.0, 120.0, 150.0),
               "comma-separated basis tilt angles in degrees"),
    ), keys=("basis", "forward", "dist_state")),
    "exclusivity-scan": _Experiment(_run_exclusivity_scan, (
        "Draw two independent Haar overlap vectors over a basis and verify that the rule "
        "|<fwd|a>|^2 + |<bwd|a>|^2 > 1 never fires for two basis elements at once; summed "
        "overlaps over orthogonal states cannot exceed 2. Any violation exits with code 4."
    ), _SAMPLED),
    "sic-validate": _Experiment(_run_sic_validate, (
        "Check that the displacement orbit of a fiducial state yields d^2 projectors with "
        "pairwise trace overlap 1/(d+1) summing to d times the identity."
    ), (
        _Param("tol", _tolerance, 1e-10, "validation tolerance"),
    ), keys=("fiducial",)),
    "sic-search": _Experiment(_run_sic_search, (
        "Search for a fiducial state whose displacement orbit is equiangular by minimizing "
        "the frame potential to its Welch bound 2d^3/(d+1), with seeded random restarts."
    ), (
        _Param("restarts", _count, 20, "number of random restarts"),
        _Param("max_iters", _count, 2000, "optimizer iterations per restart"),
    )),
    "sic-distinguish": _Experiment(_run_sic_distinguish, (
        "For random pairs of two-state assignments, find a projector-set element whose "
        "rule value lambda_k > 1 - 1/d differs between them, and tally how often a single "
        "separating element exists."
    ), _SAMPLED, keys=("fiducial",)),
    "stationary-solve": _Experiment(_run_stationary_solve, (
        "Solve [rho, H] = K for a Hermitian rho given the free diagonal in H's eigenbasis: "
        "rho_ij = K_ij/(E_j - E_i) off the diagonal; K must vanish on the diagonal and "
        "inside degenerate blocks."
    ), (
        _Param("require_psd", _boolean, False, "reject a solution that is not positive semidefinite: true or false"),
    ), keys=("hamiltonian", "target_k", "diagonal")),
    "pbr-geometric": _Experiment(_run_pbr_geometric, (
        "For qubit pair-vs-pair instances, construct the Bloch vector with positive "
        "projection on one pair sum and negative on the other (maximum-margin bisector), "
        "and verify it separates the pairs at the rule level."
    ), _SAMPLED, keys=("instance",)),
    "weak-value": _Experiment(_run_weak_value, (
        "Evaluate <final|A|forward>/<final|forward> together with the post-selection "
        "probability |<forward|final>|^2."
    ), keys=("observable", "forward", "final")),
}
EXPERIMENTS = tuple(_EXPERIMENTS)

# the result record's columns, in CSV order, each with the JSON Schema of its value
_COLUMNS = {
    "schema_version": {"const": SCHEMA_VERSION},
    "experiment": {"enum": list(EXPERIMENTS)},
    "dim": {"type": "integer", "minimum": 2},
    "samples": {"type": ["integer", "null"], "minimum": 1},
    "seed": {"type": "integer", "minimum": 0},
    "tie_tol": {"type": ["number", "null"], "minimum": 0},
    "dist": {"enum": [*DISTRIBUTIONS, None]},
    "p_or_theta": {"type": ["number", "null"]},
    "frequency": {"type": ["number", "null"], "minimum": 0, "maximum": 1},
    "std_err": {"type": ["number", "null"], "minimum": 0},
    "no_assign_rate": {"type": ["number", "null"], "minimum": 0, "maximum": 1},
    "oracle": {"type": ["number", "null"]},
    "extra": {"type": "object"},
    "wall_time_s": {"type": "number", "minimum": 0},  # stamped by run_experiment, dropped by --no-timing
}
CSV_COLUMNS = list(_COLUMNS)
_ECHOED = [col for col in _COLUMNS if col in ExperimentConfig.__dataclass_fields__]  # experiment .. dist
_NULLS = {col: None for col in _COLUMNS if col not in ("schema_version", *_ECHOED, "wall_time_s")}  # a runner sets them


def _record(cfg: ExperimentConfig, **cells) -> dict:
    """A record of ``cfg``'s run: its config echoed, ``cells`` set, and every other result null, ``extra`` empty.

    A name in ``cells`` that is no result column is a TypeError, rather than a cell the output drops.
    """
    unknown = cells.keys() - _NULLS.keys()
    if unknown:
        raise TypeError(f"no result columns {sorted(unknown)}")
    echo = {col: getattr(cfg, col) for col in _ECHOED}
    return {"schema_version": SCHEMA_VERSION, **echo, **_NULLS, "extra": {}, **cells}


def run_experiment(name: str, values: dict) -> list[dict]:
    """Convert every value once, by its row, then run experiment ``name`` and stamp wall time.

    ``values`` maps config keys to config values or flag text. A row whose key is absent takes
    its default; a key that is neither a row nor a structured key the experiment reads is an error.
    """
    experiment = _EXPERIMENTS[name]
    rows = _FIELDS + experiment.params
    known = {row.key for row in rows}.union(experiment.keys)
    for key in values:
        if key not in known:
            raise ConfigError(f"{name} has no config key {key!r}")
    converted = {row.key: _converted(row.key, row.convert, values[row.key]) if row.key in values else row.default
                 for row in rows}
    if converted["seed"] is None:
        raise ConfigError("a seed is mandatory; pass --seed or set it in the config file")
    attrs = {f.name: converted.pop(f.name) for f in fields(ExperimentConfig) if f.name in converted}
    params = {key: values[key] for key in experiment.keys if key in values}
    cfg = ExperimentConfig(name, params={**params, **converted}, given=frozenset(values), **attrs)
    start = time.perf_counter()
    records = experiment.run(cfg)
    elapsed = time.perf_counter() - start
    for rec in records:
        rec["wall_time_s"] = elapsed
    return records


# --- output -----------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, separators=(",", ":"), allow_nan=False)
    return str(value)


def emit_results(records: list[dict], fmt: str, path: str | None, include_timing: bool = True) -> None:
    """Write records as CSV or as compact JSON (one line) to a path ('-' or None for stdout)."""
    columns = list(CSV_COLUMNS)
    if not include_timing:
        columns.remove("wall_time_s")

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_format_cell(rec.get(col)) for col in columns])
        payload = buf.getvalue()
    elif fmt == "json":
        trimmed = [{col: rec.get(col) for col in columns} for rec in records]
        payload = json.dumps(trimmed, separators=(",", ":"), allow_nan=False) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")

    if path is None or path == "-":
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    except OSError as err:
        raise RuntimeError(f"could not write results to {path!r}: {err}") from err


def result_schema() -> dict:
    """The JSON Schema that record arrays emitted by this harness satisfy; every column but wall_time_s is required."""
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "twostate experiment result records",
        "type": "array",
        "items": {
            "type": "object",
            "required": [col for col in _COLUMNS if col != "wall_time_s"],
            "properties": copy.deepcopy(_COLUMNS),
            "additionalProperties": False,
        },
    }


# --- argument parsing --------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser with every experiment's subparser; built once per process, on its first call.

    Parsing leaves a parser unchanged, and argparse reads the terminal width when it formats
    help, not here, so one parser serves every call. Its ``experiment_parsers`` maps each
    experiment name to the subparser to which the parser hands the arguments after the name.
    """
    parser = argparse.ArgumentParser(
        prog="twostate",
        description="Deterministic experiment harness for the two-state outcome-assignment model.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    parser.experiment_parsers = {}
    for name in EXPERIMENTS:
        experiment = _EXPERIMENTS[name]
        p = parser.experiment_parsers[name] = sub.add_parser(
            name, help=experiment.help.split(".")[0], description=experiment.help)
        for row in _FIELDS + experiment.params:
            p.add_argument("--" + row.key.replace("_", "-"), help=row.help)
        p.add_argument("--config", default=None, help="JSON config file; flags override its fields")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--no-timing", action="store_true", help="omit the wall-time column (byte-comparison mode)")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, without the top parser's pass when ``argv`` starts with a name.

    That pass hands every argument after the name to the name's subparser, sets ``experiment``
    and rejects what the subparser leaves as unrecognized arguments; here the same subparser
    parses them directly and the same parser reports the leftovers, so every message and exit
    code is the same.
    """
    parser = _parser()
    if not argv or argv[0] not in _EXPERIMENTS:
        return parser.parse_args(argv)
    args, extras = parser.experiment_parsers[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.experiment = argv[0]
    return args


def _load_config(path: str | None, experiment: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"could not read config {path!r}: {err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")
    declared = data.pop("experiment", experiment)  # a null names no experiment
    if declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r} but {experiment!r} was requested")
    return data


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    flags = {row.key: getattr(args, row.key) for row in _FIELDS + _EXPERIMENTS[args.experiment].params}
    try:
        values = _load_config(args.config, args.experiment)
        values.update((key, text) for key, text in flags.items() if text is not None)
        records = run_experiment(args.experiment, values)
        emit_results(records, args.format, args.out, include_timing=not args.no_timing)
        violations = sum(rec["extra"].get("violations", 0) for rec in records)
        if violations:
            raise MultipleOutcomesError(f"{violations} samples fired more than one outcome")
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MultipleOutcomesError as err:
        print(f"error: model-invariant violation: {err}", file=sys.stderr)
        return 4
    except Exception as err:  # runtime failures -> exit 3 with context
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

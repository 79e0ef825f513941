"""Reproducible command-line experiment harness.

Every experiment takes a mandatory seed, echoes its configuration into each
output record, and emits CSV or JSON whose bytes depend only on the
configuration (timing excluded via --no-timing). Exit codes: 0 success,
2 configuration error, 3 runtime error, 4 model-invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .assignment import (
    MultipleOutcomesError,
    TwoStatePairMixed,
    TwoStatePairPure,
    satisfies_pure,
    tally_rule,
    weak_value,
)
from .blochpbr import (
    BlochVector,
    DegenerateInstanceError,
    PbrGeometricInstance,
    bloch_from_state,
    pbr_distinguishing_vector,
    state_from_bloch,
)
from .dynamics import (
    CommutatorTarget,
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
    RngStream,
    UniformOverlap,
    _haar_unitary_block,
    _map_reduce,
    basis_mc,
    born_mc,
    born_oracle,
    haar_state,
    haar_states,
)
from .sic import (
    builtin_fiducial,
    search_fiducial,
    sic_distinguish,
    sic_from_fiducial,
    validate_sic,
)

__all__ = ["ExperimentConfig", "ConfigError", "run_experiment", "emit_results", "result_schema", "main"]

SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "schema_version",
    "experiment",
    "dim",
    "samples",
    "seed",
    "tie_tol",
    "dist",
    "p_or_theta",
    "frequency",
    "std_err",
    "no_assign_rate",
    "oracle",
    "extra",
    "wall_time_s",
]

EXPERIMENTS = (
    "born-mc",
    "basis-mc",
    "exclusivity-scan",
    "sic-validate",
    "sic-search",
    "sic-distinguish",
    "stationary-solve",
    "pbr-geometric",
    "weak-value",
)
DISTRIBUTIONS = ("uniform-overlap", "haar", "fixed")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    dim: int = 2
    samples: int = 1
    seed: int | None = None
    tie_tol: float = 0.0
    dist: str = "uniform-overlap"
    workers: int = 1
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.seed is None:
            raise ConfigError("a seed is mandatory; pass --seed or set it in the config file")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.tie_tol < 0.0:
            raise ConfigError(f"tie-tol must be >= 0, got {self.tie_tol}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.dist not in DISTRIBUTIONS:
            raise ConfigError(f"unknown distribution {self.dist!r}")


def _record(cfg: ExperimentConfig, p_or_theta=None, frequency=None, std_err=None,
            no_assign_rate=None, oracle=None, extra=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "dim": cfg.dim,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tie_tol": cfg.tie_tol,
        "dist": cfg.dist,
        "p_or_theta": p_or_theta,
        "frequency": frequency,
        "std_err": std_err,
        "no_assign_rate": no_assign_rate,
        "oracle": oracle,
        "extra": extra or {},
    }


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise ConfigError(f"could not parse {what} list {text!r}: {err}") from None


def _from_config(cfg: ExperimentConfig, build, *keys):
    """``build`` applied to the values of config ``keys``; a missing or rejected value is a ConfigError."""
    for key in keys:
        if key not in cfg.params:
            raise ConfigError(f"{cfg.experiment} requires {key!r} in the config file")
    try:
        return build(*(cfg.params[key] for key in keys))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {'/'.join(keys)}: {err}") from None


def _state(data, dim: int | None = None) -> StateVector:
    state = StateVector(vector_from_json(data))
    if dim is not None and state.dim != dim:
        raise ValueError(f"expected a state of dimension {dim}, got {state.dim}")
    return state


def _hermitian(data) -> HermitianOperator:
    return HermitianOperator(matrix_from_json(data))


def _numbers(data) -> list:
    if not isinstance(data, list) or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in data):
        raise ValueError(f"expected a list of numbers, got {data!r}")
    return data


def _dist_for(cfg: ExperimentConfig, target: StateVector):
    if cfg.dist == "haar":
        return HaarPure()
    if cfg.dist == "uniform-overlap":
        return UniformOverlap(target)
    return Fixed(_from_config(cfg, lambda data: _state(data, target.dim), "dist_state"))


# --- experiment implementations --------------------------------------------


def _run_born_mc(cfg: ExperimentConfig) -> list[dict]:
    grid = [round(0.1 * k, 10) for k in range(1, 10)]
    if "p_grid" in cfg.params:
        grid = _from_config(cfg, _numbers, "p_grid")
    records = []
    target = StateVector.basis_state(cfg.dim, 0)
    for point, p in enumerate(grid):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p values must lie in [0, 1], got {p}")
        amps = np.zeros(cfg.dim, dtype=complex)
        amps[0] = np.sqrt(p)
        amps[1] = np.sqrt(1.0 - p)
        forward = StateVector(amps)
        dist = _dist_for(cfg, target)
        estimate = born_mc(
            forward, target, dist, cfg.samples, cfg.seed, cfg.tie_tol,
            stream_index=point, workers=cfg.workers,
        )
        try:
            oracle = born_oracle(dist, p, cfg.dim)
        except ValueError:
            oracle = None
        records.append(_record(
            cfg, p_or_theta=p, frequency=estimate.frequency, std_err=estimate.std_err,
            oracle=oracle,
        ))
    return records


def _tilted_qubit_basis(theta_rad: float) -> OrthonormalBasis:
    c, s = np.cos(theta_rad / 2.0), np.sin(theta_rad / 2.0)
    return OrthonormalBasis((
        StateVector(np.array([c, s], dtype=complex)),
        StateVector(np.array([-s, c], dtype=complex)),
    ))


def _run_basis_mc(cfg: ExperimentConfig) -> list[dict]:
    records = []
    if "basis" in cfg.params:
        basis = _from_config(cfg, lambda rows: OrthonormalBasis(tuple(_state(v) for v in rows)), "basis")
        forward = _from_config(cfg, lambda data: _state(data, basis.dim), "forward")
        cases = [(None, forward, basis)]
    else:
        if cfg.dim != 2:
            raise ConfigError("the tilted-basis parameterization requires dim 2; pass a 'basis' instead")
        thetas = [30.0, 60.0, 90.0, 120.0, 150.0]
        if "theta_deg" in cfg.params:
            thetas = _from_config(cfg, _numbers, "theta_deg")
        forward = StateVector.basis_state(2, 0)
        cases = [(theta, forward, _tilted_qubit_basis(np.deg2rad(theta))) for theta in thetas]

    for point, (theta, fwd, basis) in enumerate(cases):
        dist = _dist_for(cfg, basis[0])
        result = basis_mc(
            fwd, basis, dist, cfg.samples, cfg.seed, cfg.tie_tol,
            stream_index=point, workers=cfg.workers,
        )
        conditional = result.conditional_frequencies()
        bmat = basis.as_matrix()
        born = np.abs(bmat.conj() @ fwd.entries) ** 2
        for k, estimate in enumerate(result.estimates):
            records.append(_record(
                cfg, p_or_theta=theta, frequency=estimate.frequency, std_err=estimate.std_err,
                no_assign_rate=result.no_assign_rate, oracle=float(born[k]),
                extra={"outcome": k, "conditional_frequency": float(conditional[k])},
            ))
    return records


# Unitary entries per exclusivity-scan block: keeps its memory flat in dim.
_SCAN_BLOCK_ENTRIES = 2**18


def _run_exclusivity_scan(cfg: ExperimentConfig) -> list[dict]:
    fwd_stream, bwd_stream, basis_stream = (RngStream(cfg.seed, k) for k in (1, 2, 3))

    def chunk_tallies(lo: int, hi: int) -> np.ndarray:
        # row k of each matrix is <a_k|, for the basis in the unitary's columns
        rows = _haar_unitary_block(cfg.dim, basis_stream, lo, hi - lo).conj().transpose(0, 2, 1)
        p = np.abs(rows @ haar_states(cfg.dim, fwd_stream, lo, hi - lo)[:, :, None]) ** 2
        q = np.abs(rows @ haar_states(cfg.dim, bwd_stream, lo, hi - lo)[:, :, None]) ** 2
        return tally_rule((p + q)[:, :, 0], cfg.tie_tol)

    chunk_size = max(1, _SCAN_BLOCK_ENTRIES // cfg.dim**2)
    zero = np.zeros(cfg.dim + 2, dtype=np.int64)
    tallies = _map_reduce(chunk_tallies, cfg.samples, cfg.workers, chunk_size, zero)
    assigned = int(tallies[:-2].sum())
    return [_record(
        cfg, frequency=assigned / cfg.samples, no_assign_rate=int(tallies[-2]) / cfg.samples, oracle=0.0,
        extra={"violations": int(tallies[-1])},
    )]


def _sic_for(cfg: ExperimentConfig):
    if "fiducial" not in cfg.params and cfg.dim in (2, 3):
        return sic_from_fiducial(builtin_fiducial(cfg.dim))
    return sic_from_fiducial(_from_config(cfg, _state, "fiducial"))


def _run_sic_validate(cfg: ExperimentConfig) -> list[dict]:
    tol = _from_config(cfg, float, "tol") if "tol" in cfg.params else 1e-10
    povm = _sic_for(cfg)
    report = validate_sic(povm, tol)
    return [_record(cfg, oracle=1.0 / (cfg.dim + 1), extra={
        "tol": tol,
        "max_pair_deviation": report.max_pair_deviation,
        "identity_deviation": report.identity_deviation,
        "passed": report.passed,
    })]


def _run_sic_search(cfg: ExperimentConfig) -> list[dict]:
    restarts = _from_config(cfg, int, "restarts") if "restarts" in cfg.params else 20
    max_iters = _from_config(cfg, int, "max_iters") if "max_iters" in cfg.params else 2000
    report = search_fiducial(cfg.dim, restarts, max_iters, cfg.seed)
    orbit_check = validate_sic(sic_from_fiducial(report.fiducial), 1e-5)
    return [_record(cfg, oracle=report.lower_bound, extra={
        "frame_potential": report.frame_potential,
        "iterations": report.iterations,
        "restarts": report.restarts,
        "converged": report.converged,
        "orbit_passes_1e-5": orbit_check.passed,
    })]


def _run_sic_distinguish(cfg: ExperimentConfig) -> list[dict]:
    povm = _sic_for(cfg)
    streams = [RngStream(cfg.seed, 10 + k) for k in range(4)]
    separated = 0
    for i in range(cfg.samples):
        s0f, s0b, s1f, s1b = (haar_state(cfg.dim, st, i) for st in streams)
        pair0 = TwoStatePairMixed.from_pure(TwoStatePairPure(s0f, s0b))
        pair1 = TwoStatePairMixed.from_pure(TwoStatePairPure(s1f, s1b))
        if sic_distinguish(pair0, pair1, povm) is not None:
            separated += 1
    return [_record(cfg, frequency=separated / cfg.samples, extra={
        "separated": separated,
        "no_separator": cfg.samples - separated,
    })]


def _run_stationary_solve(cfg: ExperimentConfig) -> list[dict]:
    solve_input = _from_config(
        cfg,
        lambda h, k, diagonal: StationarySolveInput(
            _hermitian(h), CommutatorTarget(matrix_from_json(k)), diagonal),
        "hamiltonian", "target_k", "diagonal",
    )
    h, k = solve_input.hamiltonian, solve_input.target
    rho = commutator_solve(solve_input, require_psd=bool(cfg.params.get("require_psd", False)))
    residual = float(np.linalg.norm(commutator(rho, h.entries) - k.entries))
    return [_record(cfg, oracle=0.0, extra={
        "residual": residual,
        "rho": matrix_to_json(rho),
    })]


def _run_pbr_geometric(cfg: ExperimentConfig) -> list[dict]:
    explicit = cfg.params.get("instance")
    if explicit is not None:
        vectors = [np.asarray(v, dtype=float) for v in explicit]
        if len(vectors) != 4:
            raise ConfigError("an explicit instance needs 4 Bloch vectors [m, m', x, x']")
        cases = [tuple(vectors)]
    else:
        streams = [RngStream(cfg.seed, 20 + k) for k in range(4)]
        cases = [
            tuple(bloch_from_state(haar_state(2, st, i)).as_array() for st in streams)
            for i in range(cfg.samples)
        ]

    found = 0
    degenerate = 0
    min_margin = np.inf
    for m, mp, x, xp in cases:
        inst = PbrGeometricInstance(
            (BlochVector.from_array(m), BlochVector.from_array(mp)),
            (BlochVector.from_array(x), BlochVector.from_array(xp)),
        )
        try:
            a = pbr_distinguishing_vector(inst)
        except DegenerateInstanceError:
            degenerate += 1
            continue
        u = m + mp
        v = x + xp
        av = a.as_array()
        margin = min(float(av @ u / np.linalg.norm(u)), float(-av @ v / np.linalg.norm(v)))
        min_margin = min(min_margin, margin)
        state_a = state_from_bloch(a)
        pair_a = TwoStatePairPure(state_from_bloch(BlochVector.from_array(m)),
                                  state_from_bloch(BlochVector.from_array(mp)))
        pair_b = TwoStatePairPure(state_from_bloch(BlochVector.from_array(x)),
                                  state_from_bloch(BlochVector.from_array(xp)))
        if satisfies_pure(pair_a, state_a) and not satisfies_pure(pair_b, state_a):
            found += 1
    return [_record(cfg, frequency=found / len(cases), extra={
        "separators_found": found,
        "degenerate": degenerate,
        "min_margin": None if not np.isfinite(min_margin) else float(min_margin),
    })]


def _run_weak_value(cfg: ExperimentConfig) -> list[dict]:
    if "observable" in cfg.params:
        observable = _from_config(cfg, _hermitian, "observable")
        forward = _from_config(cfg, lambda data: _state(data, observable.dim), "forward")
        final = _from_config(cfg, lambda data: _state(data, observable.dim), "final")
    else:
        observable = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
        forward = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        final = StateVector.basis_state(2, 0)
    result = weak_value(observable, forward, final)
    return [_record(cfg, frequency=result.event_probability, extra={
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "event_probability": result.event_probability,
    })]


_RUNNERS = {
    "born-mc": _run_born_mc,
    "basis-mc": _run_basis_mc,
    "exclusivity-scan": _run_exclusivity_scan,
    "sic-validate": _run_sic_validate,
    "sic-search": _run_sic_search,
    "sic-distinguish": _run_sic_distinguish,
    "stationary-solve": _run_stationary_solve,
    "pbr-geometric": _run_pbr_geometric,
    "weak-value": _run_weak_value,
}


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Dispatch to the experiment implementation and stamp wall time."""
    cfg.validate()
    start = time.perf_counter()
    records = _RUNNERS[cfg.experiment](cfg)
    elapsed = time.perf_counter() - start
    for rec in records:
        rec["wall_time_s"] = elapsed
    return records


# --- output -----------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def emit_results(records: list[dict], fmt: str, path: str | None, include_timing: bool = True) -> None:
    """Write records as CSV or JSON to a path ('-' or None for stdout)."""
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
        payload = json.dumps(trimmed, indent=2) + "\n"
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
    """The JSON Schema that record arrays emitted by this harness satisfy."""
    number_or_null = {"type": ["number", "null"]}
    probability = {"type": ["number", "null"], "minimum": 0, "maximum": 1}
    properties = {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": list(EXPERIMENTS)},
        "dim": {"type": "integer", "minimum": 2},
        "samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "tie_tol": {"type": "number", "minimum": 0},
        "dist": {"enum": list(DISTRIBUTIONS)},
        "p_or_theta": number_or_null,
        "frequency": probability,
        "std_err": {"type": ["number", "null"], "minimum": 0},
        "no_assign_rate": probability,
        "oracle": number_or_null,
        "extra": {"type": "object"},
        "wall_time_s": {"type": "number", "minimum": 0},
    }
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "twostate experiment result records",
        "type": "array",
        "items": {
            "type": "object",
            "required": [col for col in CSV_COLUMNS if col != "wall_time_s"],
            "properties": {col: properties[col] for col in CSV_COLUMNS},
            "additionalProperties": False,
        },
    }


# --- argument parsing --------------------------------------------------------

_HELP = {
    "born-mc": (
        "Estimate how often the outcome rule |<fwd|a>|^2 + |<bwd|a>|^2 > 1 fires for a "
        "target state a over sampled backward states, across a grid of forward overlaps p. "
        "With the uniform-overlap backward distribution the frequency reproduces p itself "
        "(the Born value); with Haar sampling it reproduces p^(d-1)."
    ),
    "basis-mc": (
        "Run the assignment rule against every element of an orthonormal basis per sample, "
        "tallying per-outcome frequencies and the rate of samples that assign no outcome. "
        "For a qubit basis tilted by theta the conditional assigned frequency of the near "
        "outcome is cos^2(theta/2)."
    ),
    "exclusivity-scan": (
        "Draw random state pairs and random orthonormal bases and verify that the rule "
        "|<fwd|a>|^2 + |<bwd|a>|^2 > 1 never fires for two basis elements at once; summed "
        "overlaps over orthogonal states cannot exceed 2. Any violation exits with code 4."
    ),
    "sic-validate": (
        "Check that the displacement orbit of a fiducial state yields d^2 projectors with "
        "pairwise trace overlap 1/(d+1) summing to d times the identity."
    ),
    "sic-search": (
        "Search for a fiducial state whose displacement orbit is equiangular by minimizing "
        "the frame potential to its Welch bound 2d^3/(d+1), with seeded random restarts."
    ),
    "sic-distinguish": (
        "For random pairs of two-state assignments, find a projector-set element whose "
        "rule value lambda_k > 1 - 1/d differs between them, and tally how often a single "
        "separating element exists."
    ),
    "stationary-solve": (
        "Solve [rho, H] = K for a Hermitian rho given the free diagonal in H's eigenbasis: "
        "rho_ij = K_ij/(E_j - E_i) off the diagonal; K must vanish on the diagonal and "
        "inside degenerate blocks."
    ),
    "pbr-geometric": (
        "For qubit pair-vs-pair instances, construct the Bloch vector with positive "
        "projection on one pair sum and negative on the other (maximum-margin bisector), "
        "and verify it separates the pairs at the rule level."
    ),
    "weak-value": (
        "Evaluate <final|A|forward>/<final|forward> together with the post-selection "
        "probability |<forward|final>|^2."
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostate",
        description="Deterministic experiment harness for the two-state outcome-assignment model.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=_HELP[name].split(".")[0], description=_HELP[name])
        p.add_argument("--dim", type=int, default=None, help="Hilbert-space dimension")
        p.add_argument("--samples", type=int, default=None, help="number of Monte Carlo samples")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (mandatory; no entropy default)")
        p.add_argument("--tie-tol", type=float, default=None, help="strictness margin added to the rule threshold")
        p.add_argument("--dist", choices=DISTRIBUTIONS, default=None,
                       help="backward-state distribution")
        p.add_argument("--workers", type=int, default=None, help="parallel workers (must not change results)")
        p.add_argument("--config", default=None, help="JSON config file; flags override its fields")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--no-timing", action="store_true", help="omit the wall-time column (byte-comparison mode)")
        if name == "born-mc":
            p.add_argument("--p-grid", default=None, help="comma-separated forward overlaps")
        if name == "basis-mc":
            p.add_argument("--theta-deg", default=None, help="comma-separated basis tilt angles in degrees")
        if name == "sic-search":
            p.add_argument("--restarts", type=int, default=None)
            p.add_argument("--max-iters", type=int, default=None)
        if name == "sic-validate":
            p.add_argument("--tol", type=float, default=None, help="validation tolerance")
    return parser


_CONFIG_FIELDS = {"dim": int, "samples": int, "seed": int, "tie_tol": float, "dist": str, "workers": int}


def _load_config(path: str | None, experiment: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"could not read config {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")
    declared = data.get("experiment")
    if declared is not None and declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r} but {experiment!r} was requested")
    return data


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = _load_config(args.config, args.experiment)
    cfg = ExperimentConfig(experiment=args.experiment)

    for name, cast in _CONFIG_FIELDS.items():
        if name in data and data[name] is not None:
            try:
                setattr(cfg, name, cast(data[name]))
            except (TypeError, ValueError):
                raise ConfigError(f"config field {name!r} has invalid value {data[name]!r}") from None
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)

    cfg.params = {k: v for k, v in data.items() if k not in _CONFIG_FIELDS and k != "experiment"}
    if getattr(args, "p_grid", None) is not None:
        cfg.params["p_grid"] = _parse_float_list(args.p_grid, "p-grid")
    if getattr(args, "theta_deg", None) is not None:
        cfg.params["theta_deg"] = _parse_float_list(args.theta_deg, "theta-deg")
    for flag in ("restarts", "max_iters", "tol"):
        if getattr(args, flag, None) is not None:
            cfg.params[flag] = getattr(args, flag)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        records = run_experiment(_config_from_args(args))
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

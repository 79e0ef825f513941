"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test results.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from twostate import (
    CommutatorTarget,
    HaarPure,
    HermitianOperator,
    InfeasibleKError,
    OrthonormalBasis,
    RngStream,
    StateVector,
    StationarySolveInput,
    UniformOverlap,
    basis_mc,
    born_mc,
    builtin_fiducial,
    commutator,
    commutator_solve,
    haar_states,
    pbr_separators,
    search_fiducial,
    sic_from_fiducial,
    tally_rule,
    validate_sic,
    welch_bound,
)
from twostate.assignment import _fires
from twostate.blochpbr import _bloch_vectors
from twostate.cli import main

from helpers import (
    haar_unitaries,
    random_density,
    random_hermitian,
    random_unitary,
    sic_coefficients,
    sic_rule_check,
    sum_change,
    trace_product,
)

P_GRID = [round(0.1 * k, 10) for k in range(1, 10)]
THETA_GRID_DEG = [30, 60, 90, 120, 150]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def forward_with_overlap(p: float, dim: int) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = np.sqrt(p)
    amps[1] = np.sqrt(1.0 - p)
    return StateVector(amps)


def test_criterion_01_born_rule_uniform_overlap():
    with criterion(1, "uniform-overlap backward sampling reproduces p at 4 sigma, d in {2,3,4}"):
        start = time.perf_counter()
        for d in (2, 3, 4):
            target = StateVector.basis_state(d, 0)
            for point, p in enumerate(P_GRID):
                est = born_mc(
                    [forward_with_overlap(p, d)], target, UniformOverlap(),
                    100_000, seed=42, stream_index=100 * d + point,
                )[0]
                assert abs(est.frequency - p) <= 4 * est.std_err, (d, p, est)
        assert time.perf_counter() - start < 60.0


def test_criterion_02_bell_model_reproduction():
    with criterion(2, "Haar backward at d=2 reproduces cos^2(theta/2) per tilted outcome"):
        forward = StateVector.basis_state(2, 0)
        for point, theta_deg in enumerate(THETA_GRID_DEG):
            theta = np.deg2rad(theta_deg)
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            basis = OrthonormalBasis(np.array([[c, s], [-s, c]], dtype=complex))
            result = basis_mc(forward, basis, HaarPure(), 100_000, seed=43, stream_index=point)
            conditional = result.conditional_frequencies()[0]
            oracle = np.cos(theta / 2) ** 2
            assert abs(conditional - oracle) <= 4 * result.estimates[0].std_err, (theta_deg, conditional)


def test_criterion_03_haar_distribution_sensitivity():
    with criterion(3, "Haar backward at d=3 yields p^2, not p (Beta-tail oracle)"):
        target = StateVector.basis_state(3, 0)
        for point, p in enumerate(P_GRID):
            est = born_mc(
                [forward_with_overlap(p, 3)], target, HaarPure(),
                100_000, seed=44, stream_index=point,
            )[0]
            assert abs(est.frequency - p**2) <= 4 * est.std_err, (p, est.frequency)


@pytest.fixture(scope="module")
def assignment_corpus():
    """10^4 random (pair, basis) draws per d in {2,3,5}, tallied in one batch per d, both ways round."""
    stats = {"draws": 0, "violations": 0, "swap_mismatches": 0}
    for d in (2, 3, 5):
        # row i is haar_state(d, stream, i) and unitary i is haar_unitary(d, stream, i), bit for bit
        fwd = haar_states(d, RngStream(45, 100 + d), 0, 10_000)
        bwd = haar_states(d, RngStream(45, 200 + d), 0, 10_000)
        u = haar_unitaries(d, RngStream(45, 300 + d), 0, 10_000)  # the basis is the columns of u
        p, q = (np.abs(np.einsum("nji,nj->ni", u.conj(), s)) ** 2 for s in (fwd, bwd))  # |U^dagger f|^2, |U^dagger b|^2
        tally = tally_rule(p + q)
        stats["violations"] += int(tally[-1])
        stats["draws"] += int(tally.sum())
        stats["swap_mismatches"] += int(np.count_nonzero(_fires(p + q, 0.0) != _fires(q + p, 0.0)))
    return stats


def test_criterion_04_exclusivity(assignment_corpus):
    with criterion(4, "no draw ever satisfies the rule for two basis outcomes (3 x 10^4 draws)"):
        assert assignment_corpus["violations"] == 0
        assert assignment_corpus["draws"] == 30_000


def test_criterion_05_time_symmetry(assignment_corpus):
    with criterion(5, "swapping forward/backward leaves every assignment bitwise unchanged"):
        assert assignment_corpus["swap_mismatches"] == 0


def test_criterion_06_sic_suite():
    with criterion(6, "equiangularity, expansion round-trip, coefficient bounds, rule threshold"):
        rng = np.random.default_rng(46)
        for d in (2, 3):
            report = validate_sic(builtin_fiducial(d), 1e-10)
            proj = sic_from_fiducial(builtin_fiducial(d))
            assert report.passed, report

            for _ in range(100):
                mat = random_hermitian(rng, d)
                lambdas = sic_coefficients(mat, proj)
                assert np.linalg.norm(np.tensordot(lambdas, proj, axes=1) - mat) <= 1e-9

            for _ in range(1000):
                lambdas = sic_coefficients(random_density(rng, d), proj)
                assert np.all(lambdas >= -1.0 / d - 1e-10)
                assert np.all(lambdas <= 1.0 + 1e-10)

            for _ in range(1000):
                total = random_density(rng, d) + random_density(rng, d)
                lambdas = sic_coefficients(total, proj)
                for k in range(d * d):
                    direct = trace_product(total, proj[k]) > 1.0
                    assert sic_rule_check(lambdas, k) == direct

        example = np.array([0.75, 0.75, 0.25, 0.25])
        passing = [k for k in range(4) if sic_rule_check(example, k)]
        assert passing == [0, 1]


def test_criterion_07_fiducial_search():
    with criterion(7, "frame-potential search reaches the Welch bound for d in {2,3,4}"):
        for d in (2, 3, 4):
            start = time.perf_counter()
            report = search_fiducial(d, restarts=20, max_iters=2000, seed=47)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, (d, elapsed)
            assert report.converged
            assert abs(report.frame_potential - welch_bound(d)) <= 1e-6
            assert validate_sic(report.fiducial, 1e-5).passed


def _feasible_instance(rng, d, duplicate):
    gaps = rng.uniform(0.3, 1.2, size=d)
    evals = np.cumsum(gaps)
    if duplicate:
        evals[1] = evals[0]
    u = random_unitary(rng, d)
    mat = (u * evals) @ u.conj().T
    h = HermitianOperator((mat + mat.conj().T) / 2)
    k = CommutatorTarget(commutator(random_density(rng, d), h.entries))
    return StationarySolveInput(h, k, rng.uniform(0.0, 1.0, size=d))


def test_criterion_08_stationary_solver():
    with criterion(8, "commutator solve: residual bound, feasibility errors, invariance orders"):
        rng = np.random.default_rng(48)

        for trial in range(100):
            d = int(rng.integers(2, 7))
            inp = _feasible_instance(rng, d, duplicate=(trial % 10 == 0))
            rho = commutator_solve(inp)
            residual = np.linalg.norm(commutator(rho, inp.hamiltonian.entries) - inp.target.entries)
            assert residual <= 1e-12 * max(1.0, np.linalg.norm(inp.target.entries))

        h2 = HermitianOperator(np.diag([1.0, 3.0]).astype(complex))
        with pytest.raises(InfeasibleKError):
            commutator_solve(StationarySolveInput(
                h2, CommutatorTarget(np.diag([0.1j, -0.1j])), np.array([0.5, 0.5])))
        hdeg = HermitianOperator(np.diag([2.0, 2.0, 5.0]).astype(complex))
        kdeg = np.zeros((3, 3), dtype=complex)
        kdeg[0, 1], kdeg[1, 0] = 0.3, -0.3
        with pytest.raises(InfeasibleKError):
            commutator_solve(StationarySolveInput(hdeg, CommutatorTarget(kdeg), np.full(3, 1 / 3)))

        sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
        plus = np.full((2, 2), 0.5, dtype=complex)
        mixed = np.eye(2, dtype=complex) / 2
        partner = commutator_solve(StationarySolveInput(
            sz, CommutatorTarget(commutator(plus, sz.entries)), np.array([0.5, 0.5])), require_psd=True)
        assert np.linalg.norm(commutator(partner, sz.entries) - commutator(plus, sz.entries)) <= 1e-9
        assert not np.linalg.norm(commutator(plus, sz.entries) - commutator(mixed, sz.entries)) <= 1e-9
        for dt in (1e-2, 1e-3, 1e-4):
            ratio = sum_change(partner, plus, sz, dt) / sum_change(partner, plus, sz, dt / 2)
            assert 3.2 <= ratio <= 4.8, (dt, ratio)
            ratio = sum_change(plus, mixed, sz, dt) / sum_change(plus, mixed, sz, dt / 2)
            assert 1.6 <= ratio <= 2.4, (dt, ratio)


def test_criterion_09_pbr_geometric():
    with criterion(9, "10^3 random instances separate with strict margins >= 1e-9"):
        # row i of each stream is haar_state(2, stream, i), bit for bit
        vectors = np.array([_bloch_vectors(haar_states(2, RngStream(49, k), 0, 1000)) for k in range(4)])
        found, degenerate, min_margin = pbr_separators(vectors)
        assert (found, degenerate) == (1000, 0)
        assert min_margin >= 1e-9

        plus_z = [0.0, 0.0, 1.0]
        assert pbr_separators(np.array([[plus_z]] * 4)) == (0, 1, np.inf)


def test_criterion_10_byte_determinism(tmp_path):
    with criterion(10, "identical config at 1 and 8 workers gives byte-identical payloads"):
        solve_cfg = tmp_path / "solve.json"
        solve_cfg.write_text(json.dumps({
            "hamiltonian": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]],
            "target_k": [[[0.0, 0.0], [0.0, 2.0]], [[0.0, 2.0], [0.0, 0.0]]],
            "diagonal": [0.5, 0.5],
            "seed": 1,
        }))
        runs = {
            "born-mc": ["born-mc", "--dim", "2", "--samples", "20000", "--seed", "42",
                        "--p-grid", "0.3,0.7"],
            "basis-mc": ["basis-mc", "--dim", "2", "--samples", "20000", "--seed", "42",
                         "--dist", "haar", "--theta-deg", "60"],
            "exclusivity-scan": ["exclusivity-scan", "--dim", "3", "--samples", "2000", "--seed", "5"],
            "sic-validate": ["sic-validate", "--dim", "3", "--seed", "1"],
            "sic-search": ["sic-search", "--dim", "2", "--seed", "11", "--restarts", "4",
                           "--max-iters", "400"],
            "sic-distinguish": ["sic-distinguish", "--dim", "2", "--samples", "200", "--seed", "2"],
            "stationary-solve": ["stationary-solve", "--config", str(solve_cfg)],
            "pbr-geometric": ["pbr-geometric", "--samples", "500", "--seed", "3"],
            "weak-value": ["weak-value", "--seed", "1"],
        }
        for name, args in runs.items():
            payloads = []
            for workers in (1, 8):
                out = tmp_path / f"{name}-w{workers}.csv"
                code = main(args + ["--workers", str(workers), "--no-timing", "--out", str(out)])
                assert code == 0, (name, workers)
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1], name

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
    BlochVector,
    DegenerateInstanceError,
    CommutatorTarget,
    bloch_from_state,
    DensityMatrix,
    HaarPure,
    HermitianOperator,
    InfeasibleKError,
    OrthonormalBasis,
    PbrGeometricInstance,
    RngStream,
    SicCoefficients,
    StateVector,
    StationarySolveInput,
    TwoStatePairMixed,
    TwoStatePairPure,
    UniformOverlap,
    assign_over_basis,
    basis_mc,
    born_mc,
    builtin_sic,
    commutator,
    commutator_solve,
    first_order_invariance_check,
    haar_state,
    haar_states,
    pbr_distinguishing_vector,
    satisfies_pure,
    sic_expand,
    sic_reconstruct,
    sic_rule_check,
    search_fiducial,
    sic_from_fiducial,
    state_from_bloch,
    stationarity_check,
    stationary_partner,
    time_reverse,
    trace_product,
    validate_sic,
    welch_bound,
)
from twostate.cli import main

from helpers import haar_unitary, random_density, random_hermitian, random_unitary

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
                    forward_with_overlap(p, d), target, UniformOverlap(),
                    100_000, seed=42, stream_index=100 * d + point,
                )
                assert abs(est.frequency - p) <= 4 * est.std_err, (d, p, est)
        assert time.perf_counter() - start < 60.0


def test_criterion_02_bell_model_reproduction():
    with criterion(2, "Haar backward at d=2 reproduces cos^2(theta/2) per tilted outcome"):
        forward = StateVector.basis_state(2, 0)
        for point, theta_deg in enumerate(THETA_GRID_DEG):
            theta = np.deg2rad(theta_deg)
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            basis = OrthonormalBasis((
                StateVector(np.array([c, s], dtype=complex)),
                StateVector(np.array([-s, c], dtype=complex)),
            ))
            result = basis_mc(forward, basis, HaarPure(), 100_000, seed=43, stream_index=point)
            conditional = result.conditional_frequencies()[0]
            oracle = np.cos(theta / 2) ** 2
            assert abs(conditional - oracle) <= 4 * result.estimates[0].std_err, (theta_deg, conditional)


def test_criterion_03_haar_distribution_sensitivity():
    with criterion(3, "Haar backward at d=3 yields p^2, not p (Beta-tail oracle)"):
        target = StateVector.basis_state(3, 0)
        for point, p in enumerate(P_GRID):
            est = born_mc(
                forward_with_overlap(p, 3), target, HaarPure(),
                100_000, seed=44, stream_index=point,
            )
            assert abs(est.frequency - p**2) <= 4 * est.std_err, (p, est.frequency)


@pytest.fixture(scope="module")
def assignment_corpus():
    """10^4 random (pair, basis) draws per d in {2,3,5}, assigned two ways."""
    stats = {"draws": 0, "violations": 0, "swap_mismatches": 0, "assigned": 0}
    for d in (2, 3, 5):
        # one batch per stream: row i is haar_state(d, stream, i), bit for bit
        fwd = haar_states(d, RngStream(45, 100 + d), 0, 10_000)
        bwd = haar_states(d, RngStream(45, 200 + d), 0, 10_000)
        bas = RngStream(45, 300 + d)
        for i in range(10_000):
            pair = TwoStatePairPure(StateVector(fwd[i]), StateVector(bwd[i]))
            basis = OrthonormalBasis.from_unitary_matrix(haar_unitary(d, bas, i))
            try:
                result = assign_over_basis(pair, basis)
            except Exception:
                stats["violations"] += 1
                continue
            if assign_over_basis(time_reverse(pair), basis) != result:
                stats["swap_mismatches"] += 1
            if result.assigned:
                stats["assigned"] += 1
            stats["draws"] += 1
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
            povm = builtin_sic(d)
            report = validate_sic(povm, 1e-10)
            assert report.passed, report

            for _ in range(100):
                mat = random_hermitian(rng, d)
                coeffs = sic_expand(mat, povm)
                assert np.linalg.norm(sic_reconstruct(coeffs, povm) - mat) <= 1e-9

            for _ in range(1000):
                coeffs = sic_expand(random_density(rng, d).entries, povm)
                assert np.all(coeffs.lambdas >= -1.0 / d - 1e-10)
                assert np.all(coeffs.lambdas <= 1.0 + 1e-10)

            for _ in range(1000):
                total = random_density(rng, d).entries + random_density(rng, d).entries
                coeffs = sic_expand(total, povm)
                for k in range(d * d):
                    direct = trace_product(total, povm.projectors[k]) > 1.0
                    assert sic_rule_check(coeffs, k) == direct

        example = SicCoefficients(np.array([0.75, 0.75, 0.25, 0.25]), 2.0)
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
            assert validate_sic(sic_from_fiducial(report.fiducial), 1e-5).passed


def _feasible_instance(rng, d, duplicate):
    gaps = rng.uniform(0.3, 1.2, size=d)
    evals = np.cumsum(gaps)
    if duplicate:
        evals[1] = evals[0]
    u = random_unitary(rng, d)
    mat = (u * evals) @ u.conj().T
    h = HermitianOperator((mat + mat.conj().T) / 2)
    k = CommutatorTarget(commutator(random_density(rng, d).entries, h.entries))
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
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        stationary = TwoStatePairMixed(stationary_partner(plus, sz, [0.5, 0.5]), plus)
        assert stationarity_check(stationary, sz, 1e-9)
        drifting = TwoStatePairMixed(plus, DensityMatrix.maximally_mixed(2))
        assert not stationarity_check(drifting, sz, 1e-9)
        for dt in (1e-2, 1e-3, 1e-4):
            ratio = (first_order_invariance_check(stationary, sz, dt)
                     / first_order_invariance_check(stationary, sz, dt / 2))
            assert 3.2 <= ratio <= 4.8, (dt, ratio)
            ratio = (first_order_invariance_check(drifting, sz, dt)
                     / first_order_invariance_check(drifting, sz, dt / 2))
            assert 1.6 <= ratio <= 2.4, (dt, ratio)


def test_criterion_09_pbr_geometric():
    with criterion(9, "10^3 random instances separate with strict margins >= 1e-9"):
        streams = [RngStream(49, k) for k in range(4)]
        for i in range(1000):
            m, mp, x, xp = (bloch_from_state(haar_state(2, st, i)) for st in streams)
            inst = PbrGeometricInstance((m, mp), (x, xp))
            a = pbr_distinguishing_vector(inst)
            u = m.as_array() + mp.as_array()
            v = x.as_array() + xp.as_array()
            av = a.as_array()
            assert av @ (u / np.linalg.norm(u)) >= 1e-9
            assert -av @ (v / np.linalg.norm(v)) >= 1e-9
            state_a = state_from_bloch(a)
            assert satisfies_pure(TwoStatePairPure(state_from_bloch(m), state_from_bloch(mp)), state_a)
            assert not satisfies_pure(TwoStatePairPure(state_from_bloch(x), state_from_bloch(xp)), state_a)

        plus_z = BlochVector(0.0, 0.0, 1.0)
        with pytest.raises(DegenerateInstanceError):
            pbr_distinguishing_vector(PbrGeometricInstance((plus_z, plus_z), (plus_z, plus_z)))


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

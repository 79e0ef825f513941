import numpy as np
import pytest

from twostate import (
    FiducialSearchReport,
    InvalidSicError,
    StateVector,
    builtin_fiducial,
    frame_potential,
    search_fiducial,
    sic_distinguish,
    sic_from_fiducial,
    validate_sic,
    welch_bound,
    wh_displacements,
)
from twostate.assignment import _fires
from twostate.sampling import RngStream, haar_state, haar_states
from twostate.sic import SEARCH_MAX_DIM, _bfgs, _orbit_ops, _orbit_potential_and_grad

from helpers import (
    orbit_potential_and_grad,
    random_density,
    random_hermitian,
    random_state,
    random_unitary,
    sic_coefficients,
    sic_distinguish_pair,
    sic_fires,
    sic_rule_check,
    trace_product,
)

E0 = StateVector.basis_state(2, 0)
PLUS = StateVector(np.array([1, 1]) / np.sqrt(2))


def projector(state: StateVector) -> np.ndarray:
    return np.outer(state.entries, state.entries.conj())


def pure_sum(forward: StateVector, backward: StateVector) -> np.ndarray:
    """The summed matrix |f><f| + |b><b| of a pure pair."""
    return projector(forward) + projector(backward)


def orbit_states(d: int, fiducial: StateVector) -> np.ndarray:
    return wh_displacements(d) @ fiducial.entries


class TestDisplacements:
    def test_qubit_set_is_pauli_like(self):
        ops = wh_displacements(2)
        eye = np.eye(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(ops[0], eye)
        assert np.allclose(ops[1], z)
        assert np.allclose(ops[2], x)
        assert np.allclose(ops[3], x @ z)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitarity(self, d):
        for u in wh_displacements(d):
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_traceless_except_identity(self, d):
        # oracle: tr(X^j Z^k) is a root-of-unity sum, zero unless j = k = 0
        ops = wh_displacements(d)
        assert abs(np.trace(ops[0]) - d) < 1e-12
        for u in ops[1:]:
            assert abs(np.trace(u)) < 1e-12

    def test_count(self):
        assert len(wh_displacements(4)) == 16

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dimension"):
            wh_displacements(1)

    def test_one_read_only_array_per_dimension(self):
        ops = wh_displacements(3)
        assert ops.shape == (9, 3, 3) and not ops.flags.writeable
        assert wh_displacements(3) is ops
        # a rejected dimension is not cached: it raises again
        for _ in range(2):
            with pytest.raises(ValueError, match="dimension"):
                wh_displacements(0)


class TestTraceProduct:
    """The trace Tr(r P) that the coefficient form of the rule is checked against."""

    def test_maximally_mixed(self):
        rng = np.random.default_rng(4)
        proj = projector(random_state(rng, 2))
        assert trace_product(np.eye(2, dtype=complex) / 2, proj) == pytest.approx(0.5, abs=1e-12)

    def test_aligned_projector(self):
        assert trace_product(projector(E0), projector(E0)) == pytest.approx(1.0)

    def test_half_overlap(self):
        assert trace_product(projector(E0), projector(PLUS)) == pytest.approx(0.5)

    def test_range_for_density_projector_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            val = trace_product(random_density(rng, d), projector(random_state(rng, d)))
            assert -1e-10 <= val <= 1 + 1e-10

    def test_imaginary_residue_rejected(self):
        corrupted = np.array([[0.0, 1.0j], [0.0, 0.0]])
        with pytest.raises(ValueError, match="imaginary residue"):
            trace_product(corrupted, projector(PLUS))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_product(np.eye(3, dtype=complex) / 3, projector(E0))


class TestConstruction:
    def test_qubit_tetrahedron_overlaps(self):
        # Bloch geometry oracle: (1 + m.n)/2 with m.n = -1/3 gives 1/3
        report = validate_sic(builtin_fiducial(2), 1e-10)
        assert report.passed
        assert report.max_pair_deviation < 1e-15

    def test_qutrit_orbit_overlaps(self):
        assert validate_sic(builtin_fiducial(3), 1e-10).passed

    def test_orbit_has_d_squared_members(self):
        rng = np.random.default_rng(40)
        for d in (2, 3, 4):
            assert sic_from_fiducial(random_state(rng, d)).shape == (d * d, d, d)

    def test_degenerate_set_fails_validation(self):
        # the orbit of |0> is |0>, |0>, |1>, |1>: overlap 1 between equal members
        report = validate_sic(E0, 1e-10)
        assert not report.passed
        assert report.max_pair_deviation == pytest.approx(1 - 1 / 3)

    def test_builtin_fiducial_unknown_dim(self):
        with pytest.raises(ValueError, match="no built-in"):
            builtin_fiducial(5)


class TestExpansion:
    """The expansion in tests/helpers.py that the coefficient form of the rule is checked on."""

    def test_maximally_mixed_coefficients(self):
        for d in (2, 3):
            proj = sic_from_fiducial(builtin_fiducial(d))
            lambdas = sic_coefficients(np.eye(d, dtype=complex) / d, proj)
            assert np.allclose(lambdas, 1.0 / d**2, atol=1e-14)
            assert lambdas.sum() == pytest.approx(1.0)

    def test_projector_of_set_member(self):
        proj = sic_from_fiducial(builtin_fiducial(2))
        lambdas = sic_coefficients(proj[0], proj)
        assert lambdas[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(lambdas[1:], 0.0, atol=1e-12)

    def test_trace_two_sum(self):
        rng = np.random.default_rng(41)
        proj = sic_from_fiducial(builtin_fiducial(3))
        pair_sum = random_density(rng, 3) + random_density(rng, 3)
        assert sic_coefficients(pair_sum, proj).sum() == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_reconstruction_round_trip(self, d):
        rng = np.random.default_rng(42)
        proj = sic_from_fiducial(builtin_fiducial(d))
        for _ in range(100):
            mat = random_hermitian(rng, d)
            lambdas = sic_coefficients(mat, proj)
            assert abs(lambdas.sum() - np.trace(mat).real) <= 1e-10
            assert np.linalg.norm(np.tensordot(lambdas, proj, axes=1) - mat) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_density_matrix_coefficient_bounds(self, d):
        rng = np.random.default_rng(43)
        proj = sic_from_fiducial(builtin_fiducial(d))
        for _ in range(1000):
            lambdas = sic_coefficients(random_density(rng, d), proj)
            assert np.all(lambdas >= -1.0 / d - 1e-10)
            assert np.all(lambdas <= 1.0 + 1e-10)


class TestRuleCheck:
    def test_two_passing_indices(self):
        lambdas = np.array([0.75, 0.75, 0.25, 0.25])
        results = [sic_rule_check(lambdas, k) for k in range(4)]
        assert results == [True, True, False, False]

    def test_identity_sum_is_all_boundary(self):
        assert not any(sic_rule_check(np.full(4, 0.5), k) for k in range(4))

    def test_dimension_is_the_root_of_the_coefficient_count(self):
        # the threshold is 1 - 1/2 here; at d = 3 it would be 2/3, and outcome 3 would fire alone
        lambdas = np.array([0.456, 0.131, 0.543, 0.870])
        assert [k for k in range(4) if sic_rule_check(lambdas, k)] == [2, 3]

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_rejects_a_count_that_is_no_square_of_at_least_four(self, count):
        with pytest.raises(ValueError, match=r"d\^2 coefficients"):
            sic_rule_check(np.full(count, 2.0 / count), 0)

    def test_requires_trace_two(self):
        with pytest.raises(ValueError, match="trace-2"):
            sic_rule_check(np.full(4, 0.25), 0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_equivalent_to_trace_form(self, d):
        # lambda_k > 1 - 1/d must agree with Tr[rho P_k] > 1 on trace-2 input
        rng = np.random.default_rng(44)
        proj = sic_from_fiducial(builtin_fiducial(d))
        for _ in range(1000):
            total = random_density(rng, d) + random_density(rng, d)
            lambdas = sic_coefficients(total, proj)
            for k in range(d * d):
                direct = trace_product(total, proj[k]) > 1.0
                assert sic_rule_check(lambdas, k) == direct

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_the_distinguish_kernel(self, d):
        # the coefficient form against the overlap form sic_distinguish evaluates, on random pure pairs
        rng = np.random.default_rng(50)
        proj = sic_from_fiducial(builtin_fiducial(d))
        orbit = orbit_states(d, builtin_fiducial(d))
        pairs = np.array([[random_state(rng, d).entries for _ in range(2)] for _ in range(500)])
        overlaps = np.abs(pairs @ orbit.conj().T) ** 2
        kernel = _fires(overlaps[:, 0] + overlaps[:, 1], 0.0)
        for (f, b), fired in zip(pairs, kernel):
            lambdas = sic_coefficients(np.outer(f, f.conj()) + np.outer(b, b.conj()), proj)
            assert [sic_rule_check(lambdas, k) for k in range(d * d)] == fired.tolist()

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_ties_do_not_fire(self, d):
        # forward = orbit state k, backward orthogonal to it: Tr[(rho_f + rho_b) P_k]
        # is exactly 1, so lambda_k = 1 - 1/d; rounding once fired some of these
        rng = np.random.default_rng(49)
        fiducial = builtin_fiducial(d)
        proj = sic_from_fiducial(fiducial)
        orbit = orbit_states(d, fiducial)
        totals, pairs, elements = [], [], []
        for k, state in enumerate(orbit):
            for _ in range(500):
                b = rng.normal(size=d) + 1j * rng.normal(size=d)
                b -= np.vdot(state, b) * state
                b /= np.linalg.norm(b)
                totals.append(np.outer(state, state.conj()) + np.outer(b, b.conj()))
                pairs.append((state, b))
                elements.append(k)
        fired = [sic_rule_check(sic_coefficients(total, proj), k) for total, k in zip(totals, elements)]
        assert sum(fired) == 0
        batched = sic_fires(np.array(totals), fiducial)
        assert not batched[np.arange(len(elements)), elements].any()
        # the overlap form sic-distinguish evaluates: |<phi_k|f>|^2 + |<phi_k|b>|^2
        overlaps = np.abs(np.array(pairs) @ orbit.conj().T) ** 2
        in_overlaps = _fires(overlaps[:, 0] + overlaps[:, 1], 0.0)
        assert not in_overlaps[np.arange(len(elements)), elements].any()


class TestDistinguish:
    """The batch kernel, and the summed-pair trace form in tests/helpers.py that it is checked against."""

    def test_matches_per_instance_reference(self):
        # the batched kernel against one trace-form call per pair, drawn from the same streams
        dim, samples, seed = 3, 300, 12
        fiducial = builtin_fiducial(dim)
        streams = [RngStream(seed, 10 + k) for k in range(4)]
        separated = 0
        for i in range(samples):
            s0f, s0b, s1f, s1b = (haar_state(dim, st, i) for st in streams)
            separated += sic_distinguish_pair(pure_sum(s0f, s0b), pure_sum(s1f, s1b), fiducial) is not None
        assert sic_distinguish(fiducial, samples, seed) == separated

    def test_kernel_validates_the_set(self):
        with pytest.raises(InvalidSicError, match="fails validation"):
            sic_distinguish(StateVector.basis_state(4, 0), 10, seed=1)

    def test_z_vs_x_pairs(self):
        fiducial = builtin_fiducial(2)
        proj = sic_from_fiducial(fiducial)
        k = sic_distinguish_pair(pure_sum(E0, E0), pure_sum(PLUS, PLUS), fiducial)
        assert k is not None
        lam0 = sic_coefficients(2 * projector(E0), proj)
        lam1 = sic_coefficients(2 * projector(PLUS), proj)
        assert sic_rule_check(lam0, k) != sic_rule_check(lam1, k)

    def test_identical_pairs_are_inseparable(self):
        pair = pure_sum(E0, PLUS)
        assert sic_distinguish_pair(pair, pair, builtin_fiducial(2)) is None

    def test_identity_sums_are_inseparable(self):
        mixed = np.eye(2, dtype=complex) / 2
        pair = pure_sum(E0, StateVector.basis_state(2, 1))
        assert sic_distinguish_pair(mixed + mixed, pair, builtin_fiducial(2)) is None


class TestFramePotential:
    def test_repeated_state_maximum(self):
        states = np.tile(E0.entries, (4, 1))
        assert frame_potential(states) == pytest.approx(16.0)  # d^4 at d=2

    def test_tetrahedron_value(self):
        # 4 diagonal ones plus 12 off-diagonal (1/3)^2 terms
        states = orbit_states(2, builtin_fiducial(2))
        assert frame_potential(states) == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_welch_bound_is_never_undercut(self):
        rng = np.random.default_rng(45)
        for d in (2, 3):
            stream = RngStream(46 + d, 0)
            for trial in range(500):
                states = haar_states(d, stream, trial * d * d, d * d)
                assert frame_potential(states) >= welch_bound(d) - 1e-12

    def test_global_unitary_invariance(self):
        rng = np.random.default_rng(47)
        states = orbit_states(3, builtin_fiducial(3))
        u = random_unitary(rng, 3)
        rotated = states @ u.T
        assert frame_potential(rotated) == pytest.approx(frame_potential(states), abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            frame_potential(np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="normalized"):
            frame_potential(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def _split(grad: np.ndarray) -> np.ndarray:
    """A gradient in the interleaved (Re x_0, Im x_0, ...) order, as (Re x, Im x) halves."""
    return np.concatenate([grad[0::2], grad[1::2]])


class TestOrbitObjective:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_the_two_array_form(self, d):
        rng = np.random.default_rng(300 + d)
        disp = wh_displacements(d)
        for scale in (0.2, 1.0, 7.0):
            x = scale * (rng.normal(size=d) + 1j * rng.normal(size=d))
            value, grad = _orbit_potential_and_grad(x.view(float), _orbit_ops(d))
            ref_value, ref_grad = orbit_potential_and_grad(x, disp, disp.conj().transpose(0, 2, 1))
            assert abs(value - ref_value) <= 1e-12 * ref_value
            assert np.max(np.abs(_split(grad) - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_gradient_matches_central_differences(self, d):
        rng = np.random.default_rng(400 + d)
        t = rng.normal(size=2 * d)
        _, grad = _orbit_potential_and_grad(t, _orbit_ops(d))
        step = 1e-6
        numeric = np.array([
            (_orbit_potential_and_grad(t + step * e, _orbit_ops(d))[0]
             - _orbit_potential_and_grad(t - step * e, _orbit_ops(d))[0]) / (2 * step)
            for e in np.eye(2 * d)
        ])
        assert np.max(np.abs(numeric - grad)) <= 1e-6 * np.max(np.abs(grad))

    @pytest.mark.parametrize("d", [2, 3])
    def test_value_is_the_orbit_frame_potential(self, d):
        f = builtin_fiducial(d)
        value, grad = _orbit_potential_and_grad(3.0 * f.entries.view(float), _orbit_ops(d))
        assert value == pytest.approx(frame_potential(orbit_states(d, f)), rel=1e-12)
        assert value == pytest.approx(welch_bound(d), rel=1e-12)
        assert np.max(np.abs(grad)) <= 1e-12  # a SIC fiducial is a minimum

    def test_operator_stack_is_read_only_and_shared(self):
        ops = _orbit_ops(3)
        assert ops is _orbit_ops(3)
        assert ops.shape == (18, 3, 3) and not ops.flags.writeable
        assert np.array_equal(ops[9:], wh_displacements(3).conj().transpose(0, 2, 1))


class TestBfgs:
    def test_reaches_the_minimizer_of_a_convex_quadratic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        hess = a @ a.T + 6.0 * np.eye(6)
        b = rng.normal(size=6)
        t, value, iterations = _bfgs(lambda t: (0.5 * t @ hess @ t - b @ t, hess @ t - b), np.zeros(6), 200)
        assert np.allclose(t, np.linalg.solve(hess, b), atol=1e-10)
        assert value == pytest.approx(-0.5 * b @ np.linalg.solve(hess, b), rel=1e-12)
        assert 1 <= iterations < 200

    @pytest.mark.parametrize("max_iters", [1, 3])
    def test_stops_after_max_iters(self, max_iters):
        calls = []

        def fun(t):
            calls.append(t)
            return float(np.sum(np.cosh(t))), np.sinh(t)

        _, _, iterations = _bfgs(fun, np.full(4, 2.0), max_iters)
        assert iterations == max_iters
        assert len(calls) > max_iters


class TestSearch:
    def test_qubit_search_converges(self):
        report = search_fiducial(2, restarts=5, max_iters=500, seed=11)
        assert report.converged
        assert report.frame_potential == pytest.approx(welch_bound(2), abs=1e-6)
        assert validate_sic(report.fiducial, 1e-5).passed
        assert report.restarts == 5
        assert report.iterations > 0

    def test_deterministic_given_seed(self):
        a = search_fiducial(2, restarts=3, max_iters=300, seed=4)
        b = search_fiducial(2, restarts=3, max_iters=300, seed=4)
        assert a.frame_potential == b.frame_potential
        assert np.array_equal(a.fiducial.entries, b.fiducial.entries)

    def test_rejects_unsupported_dim(self):
        with pytest.raises(ValueError, match="supported"):
            search_fiducial(9, restarts=1, max_iters=10, seed=0)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            search_fiducial(2, restarts=0, max_iters=10, seed=0)

    def test_rejects_zero_max_iters(self):
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            search_fiducial(2, restarts=1, max_iters=0, seed=5)

    def test_converges_across_the_dimension_grid(self, capsys):
        # d = 2..8, seeds 0-9, 3 restarts: 69 of the 70 searches reach the Welch bound + 1e-6
        # (d = 4 misses once), as many as scipy's L-BFGS-B reached on the same grid.
        converged = sum(
            search_fiducial(d, restarts=3, max_iters=2000, seed=seed).converged
            for d in range(2, SEARCH_MAX_DIM + 1) for seed in range(10)
        )
        assert converged >= 69
        assert capsys.readouterr().err.count("restart 2:") == 70

    def test_report_rejects_sub_welch_potential(self):
        with pytest.raises(ValueError, match="undercuts"):
            FiducialSearchReport(E0, 5.0, welch_bound(2), 1, 1, True)

    def test_report_rejects_nan_potential(self):
        with pytest.raises(ValueError, match="undercuts"):
            FiducialSearchReport(E0, np.nan, welch_bound(2), 1, 1, True)

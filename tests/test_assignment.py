import numpy as np
import pytest

from twostate import (
    AssignmentResult,
    HermitianOperator,
    MultipleOutcomesError,
    OrthogonalPostSelectionError,
    OrthonormalBasis,
    StateVector,
    TwoStatePairMixed,
    TwoStatePairPure,
    assign_over_basis,
    projector_of,
    satisfies_mixed,
    satisfies_pure,
    tally_rule,
    time_reverse,
    weak_value,
)

from twostate.assignment import RULE_ROUNDING_BOUND

from helpers import random_basis, random_state

E0 = StateVector.basis_state(2, 0)
E1 = StateVector.basis_state(2, 1)
PLUS = StateVector(np.array([1, 1]) / np.sqrt(2))
MINUS = StateVector(np.array([1, -1]) / np.sqrt(2))
QUBIT_BASIS = OrthonormalBasis.computational(2)
EPS = np.finfo(float).eps


def tilted_state(theta_rad: float) -> StateVector:
    return StateVector(np.array([np.cos(theta_rad / 2), np.sin(theta_rad / 2)], dtype=complex))


class TestSatisfiesPure:
    def test_aligned_pair(self):
        assert satisfies_pure(TwoStatePairPure(E0, E0), E0)  # sum = 2

    def test_orthogonal_pair(self):
        assert not satisfies_pure(TwoStatePairPure(E0, E0), E1)  # sum = 0

    def test_overlap_arithmetic(self):
        # |<z|z>|^2 + |<x|z>|^2 = 1 + 1/2
        assert satisfies_pure(TwoStatePairPure(E0, PLUS), E0)

    def test_swap_symmetric(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            pair = TwoStatePairPure(random_state(rng, 3), random_state(rng, 3))
            a = random_state(rng, 3)
            assert satisfies_pure(pair, a) == satisfies_pure(time_reverse(pair), a)

    def test_rejects_negative_tie_tol(self):
        with pytest.raises(ValueError, match="tie tolerance"):
            satisfies_pure(TwoStatePairPure(E0, E0), E0, tie_tol=-0.1)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            satisfies_pure(TwoStatePairPure(E0, E0), StateVector.basis_state(3, 0))


class TestSatisfiesMixed:
    def test_aligned(self):
        pair = TwoStatePairMixed.from_pure(TwoStatePairPure(E0, E0))
        assert satisfies_mixed(pair, projector_of(E0))  # trace = 2

    def test_maximally_mixed_boundary(self):
        # Tr[(I/2 + I/2) P] = 1 exactly; the strict inequality must not fire.
        # Uses projectors whose float trace is exactly 1.
        from twostate import DensityMatrix

        mixed = DensityMatrix.maximally_mixed(2)
        pair = TwoStatePairMixed(mixed, mixed)
        half = np.full((2, 2), 0.5, dtype=complex)
        from twostate import Projector

        assert not satisfies_mixed(pair, projector_of(E0))
        assert not satisfies_mixed(pair, Projector(half))

    def test_cross_pair(self):
        pair = TwoStatePairMixed.from_pure(TwoStatePairPure(E0, E1))
        assert not satisfies_mixed(pair, projector_of(E0))  # trace = 1 boundary

    def test_reduces_to_pure(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            pure = TwoStatePairPure(random_state(rng, d), random_state(rng, d))
            a = random_state(rng, d)
            mixed = TwoStatePairMixed.from_pure(pure)
            assert satisfies_mixed(mixed, projector_of(a)) == satisfies_pure(pure, a)


class TestAssignOverBasis:
    def test_aligned_assigns_zero(self):
        assert assign_over_basis(TwoStatePairPure(E0, E0), QUBIT_BASIS) == AssignmentResult(0)

    def test_opposed_pair_no_outcome(self):
        # both sums are exactly 1: strict inequality rejects both
        result = assign_over_basis(TwoStatePairPure(E0, E1), QUBIT_BASIS)
        assert result == AssignmentResult.no_outcome()
        assert not result.assigned

    def test_sixty_degree_backward(self):
        # backward at polar angle 60 deg: 1 + cos^2(30 deg) = 1.75 > 1
        pair = TwoStatePairPure(E0, tilted_state(np.deg2rad(60)))
        assert assign_over_basis(pair, QUBIT_BASIS) == AssignmentResult(0)

    def test_mixed_pair_agrees_with_pure(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            pure = TwoStatePairPure(random_state(rng, d), random_state(rng, d))
            basis = random_basis(rng, d)
            assert assign_over_basis(pure, basis) == assign_over_basis(
                TwoStatePairMixed.from_pure(pure), basis
            )

    def test_multiple_outcomes_is_loud(self, monkeypatch):
        # unreachable through validated bases; forced through the rule sums
        monkeypatch.setattr("twostate.assignment._rule_sums", lambda pair, basis: np.array([1.5, 1.7]))
        with pytest.raises(MultipleOutcomesError):
            assign_over_basis(TwoStatePairPure(E0, E0), QUBIT_BASIS)

    def test_exact_ties_fire_nothing(self):
        # fwd = bwd = (|a_i> + |a_j>)/sqrt(2): the sums for a_i and a_j are
        # exactly 1, which rounding used to push over the threshold together
        rng = np.random.default_rng(27)
        errors = 0
        for d in (2, 3, 4, 5, 8):
            for _ in range(2000):
                basis = random_basis(rng, d)
                i, j = rng.choice(d, size=2, replace=False)
                tie = StateVector((basis[i].entries + basis[j].entries) / np.sqrt(2))
                pair = TwoStatePairPure(tie, tie)
                try:
                    result = assign_over_basis(pair, basis)
                except MultipleOutcomesError:
                    errors += 1
                    continue
                assert not result.assigned
                assert not satisfies_pure(pair, basis[i]) and not satisfies_pure(pair, basis[j])
        assert errors == 0

    def test_tie_tol_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            pair = TwoStatePairPure(random_state(rng, 3), random_state(rng, 3))
            basis = random_basis(rng, 3)
            loose = assign_over_basis(pair, basis, tie_tol=0.0)
            tight = assign_over_basis(pair, basis, tie_tol=0.05)
            if not loose.assigned:
                assert not tight.assigned


class TestTallyRule:
    def test_counts_single_none_and_multiple(self):
        sums = np.array([
            [1.5, 0.2, 0.3],  # outcome 0 alone
            [0.1, 0.2, 1.9],  # outcome 2 alone
            [1.0 + 9 * EPS, 1.0 + 9 * EPS, 0.0],  # rounded ties: nothing fires
            [0.5, 0.5, 0.5],  # nothing fires
            [1.8, 0.0, 1.7],  # far above 1 on two outcomes: a multiple fire
        ])
        assert tally_rule(sums).tolist() == [1, 0, 1, 2, 1]

    def test_tie_tol_raises_the_threshold(self):
        sums = np.array([[1.04, 0.0], [1.06, 0.0]])
        assert tally_rule(sums, tie_tol=0.05).tolist() == [1, 0, 1, 0]

    def test_rejects_negative_tie_tol(self):
        with pytest.raises(ValueError, match="tie tolerance"):
            tally_rule(np.ones((1, 2)), tie_tol=-0.1)

    @pytest.mark.parametrize("k", [1, 2, 16, 300])
    @pytest.mark.parametrize("n", [0, 1, 5000])
    @pytest.mark.parametrize("tie_tol", [0.0, 0.05])
    def test_matches_a_per_row_reference(self, k, n, tie_tol):
        threshold = 1.0 + tie_tol + RULE_ROUNDING_BOUND
        rng = np.random.default_rng([k, n])
        sums = rng.uniform(0.0, 1.0, (n, k))
        for row in sums:  # each row fires none, one or several outcomes, next to exact ties
            fire = rng.choice(k, size=rng.integers(0, min(k, 3) + 1), replace=False)
            row[fire] = rng.uniform(threshold, 2.0, fire.size)
            row[rng.integers(k)] = threshold  # a tie never fires, unless it is overwritten below
            if rng.random() < 0.5:
                row[rng.integers(k)] = np.nextafter(threshold, 2.0)
        expected = [0] * (k + 2)
        for row in sums.tolist():
            fired = [j for j, s in enumerate(row) if s > threshold]
            expected[fired[0] if len(fired) == 1 else k if not fired else k + 1] += 1
        tally = tally_rule(sums, tie_tol)
        assert tally.dtype == np.int64
        assert tally.tolist() == expected


class TestTimeReverse:
    def test_swaps(self):
        pair = time_reverse(TwoStatePairPure(E0, PLUS))
        assert np.array_equal(pair.forward.entries, PLUS.entries)
        assert np.array_equal(pair.backward.entries, E0.entries)

    def test_involution(self):
        pair = TwoStatePairPure(E0, PLUS)
        again = time_reverse(time_reverse(pair))
        assert np.array_equal(again.forward.entries, pair.forward.entries)
        assert np.array_equal(again.backward.entries, pair.backward.entries)

    def test_assignment_invariant(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            pair = TwoStatePairPure(random_state(rng, d), random_state(rng, d))
            basis = random_basis(rng, d)
            assert assign_over_basis(pair, basis) == assign_over_basis(time_reverse(pair), basis)

    def test_mixed_swap(self):
        pair = TwoStatePairMixed.from_pure(TwoStatePairPure(E0, PLUS))
        swapped = time_reverse(pair)
        assert np.array_equal(swapped.forward.entries, pair.backward.entries)


class TestWeakValue:
    SZ = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))

    def test_qubit_example(self):
        result = weak_value(self.SZ, PLUS, E0)
        assert result.value == pytest.approx(1.0)
        assert result.event_probability == pytest.approx(0.5)

    def test_identity_observable(self):
        rng = np.random.default_rng(25)
        eye = HermitianOperator(np.eye(3, dtype=complex))
        for _ in range(20):
            fwd = random_state(rng, 3)
            fin = random_state(rng, 3)
            if abs(np.vdot(fin.entries, fwd.entries)) < 1e-6:
                continue
            assert weak_value(eye, fwd, fin).value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_post_selection(self):
        with pytest.raises(OrthogonalPostSelectionError):
            weak_value(self.SZ, PLUS, MINUS)

    def test_strong_limit_recovers_eigenvalue_exactly(self):
        # power-of-two eigenvalues keep the quotient (a_i psi_i) / psi_i exact
        obs = HermitianOperator(np.diag([2.0, -1.0, 0.5]).astype(complex))
        fwd = StateVector(np.array([0.6, 0.3 + 0.4j, np.sqrt(0.39)], dtype=complex))
        for i, expected in enumerate([2.0, -1.0, 0.5]):
            result = weak_value(obs, fwd, StateVector.basis_state(3, i))
            assert result.value == expected

    def test_event_probability_matches_overlap(self):
        rng = np.random.default_rng(26)
        obs = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        for _ in range(50):
            fwd = random_state(rng, 2)
            fin = random_state(rng, 2)
            amp = np.vdot(fwd.entries, fin.entries)
            if abs(amp) < 1e-6:
                continue
            result = weak_value(obs, fwd, fin)
            assert result.event_probability == pytest.approx(abs(amp) ** 2, abs=1e-12)

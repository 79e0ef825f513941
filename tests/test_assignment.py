import numpy as np
import pytest

from twostate import (
    Fixed,
    HermitianOperator,
    OrthogonalPostSelectionError,
    StateVector,
    born_mc,
    tally_rule,
    weak_value,
)

from twostate.assignment import RULE_ROUNDING_BOUND, _fires

from helpers import random_basis, random_density, random_state, rule_sums, trace_rule_sums

E0 = StateVector.basis_state(2, 0)
E1 = StateVector.basis_state(2, 1)
PLUS = StateVector(np.array([1, 1]) / np.sqrt(2))
MINUS = StateVector(np.array([1, -1]) / np.sqrt(2))
QUBIT_BASIS = np.eye(2, dtype=complex)
EPS = np.finfo(float).eps


def tilted_state(theta_rad: float) -> StateVector:
    return StateVector(np.array([np.cos(theta_rad / 2), np.sin(theta_rad / 2)], dtype=complex))


def tally(forward: StateVector, backward: StateVector, bmat: np.ndarray = QUBIT_BASIS, tie_tol: float = 0.0):
    """``tally_rule`` over one pair's rule sums, as a list."""
    return tally_rule(rule_sums(forward.entries, backward.entries, bmat)[None, :], tie_tol).tolist()


def projector(state: StateVector) -> np.ndarray:
    return np.outer(state.entries, state.entries.conj())


class TestSatisfiesPure:
    """The rule's state-vector form, one outcome at a time, through ``tally_rule``."""

    def test_aligned_pair(self):
        assert tally(E0, E0, E0.entries[None]) == [1, 0, 0]  # sum = 2

    def test_orthogonal_pair(self):
        assert tally(E0, E0, E1.entries[None]) == [0, 1, 0]  # sum = 0

    def test_overlap_arithmetic(self):
        # |<z|z>|^2 + |<x|z>|^2 = 1 + 1/2
        assert tally(E0, PLUS, E0.entries[None]) == [1, 0, 0]

    def test_swap_symmetric(self):
        rng = np.random.default_rng(20)
        fwd, bwd, a = (np.array([random_state(rng, 3).entries for _ in range(100)]) for _ in range(3))
        fired = _fires(rule_sums(fwd, bwd, a[:, None]), 0.0)
        assert np.array_equal(fired, _fires(rule_sums(bwd, fwd, a[:, None]), 0.0))

    def test_rejects_negative_tie_tol(self):
        with pytest.raises(ValueError, match="tie tolerance"):
            tally(E0, E0, E0.entries[None], tie_tol=-0.1)

    def test_dim_mismatch(self):
        # the estimators check the outcome's dimension against the forward state's before any draw
        with pytest.raises(ValueError, match="mismatch"):
            born_mc(E0, StateVector.basis_state(3, 0), Fixed(E0), 1, seed=0)


class TestSatisfiesMixed:
    """The rule's trace form, Tr[(rho_fwd + rho_bwd) P], through ``tally_rule``."""

    @staticmethod
    def trace_tally(rho_f: np.ndarray, rho_b: np.ndarray, states: list) -> list:
        bmat = np.array([s.entries for s in states])
        return tally_rule(trace_rule_sums(rho_f, rho_b, bmat)[:, None]).tolist()

    def test_aligned(self):
        assert self.trace_tally(projector(E0), projector(E0), [E0]) == [1, 0, 0]  # trace = 2

    def test_maximally_mixed_boundary(self):
        # Tr[(I/2 + I/2) P] = 1 exactly, for P = |0><0| and |+><+|; the strict inequality must not fire
        mixed = np.eye(2, dtype=complex) / 2
        assert self.trace_tally(mixed, mixed, [E0, PLUS]) == [0, 2, 0]

    def test_cross_pair(self):
        assert self.trace_tally(projector(E0), projector(E1), [E0]) == [0, 1, 0]  # trace = 1 boundary

    def test_reduces_to_pure(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            fwd, bwd, a = (random_state(rng, d) for _ in range(3))
            trace = self.trace_tally(projector(fwd), projector(bwd), [a])
            assert trace == tally(fwd, bwd, a.entries[None])


class TestAssignOverBasis:
    """A whole basis at once, through ``tally_rule``: k + 2 counts per batch."""

    def test_aligned_assigns_zero(self):
        assert tally(E0, E0) == [1, 0, 0, 0]

    def test_opposed_pair_no_outcome(self):
        # both sums are exactly 1: strict inequality rejects both
        assert tally(E0, E1) == [0, 0, 1, 0]

    def test_sixty_degree_backward(self):
        # backward at polar angle 60 deg: 1 + cos^2(30 deg) = 1.75 > 1
        assert tally(E0, tilted_state(np.deg2rad(60))) == [1, 0, 0, 0]

    def test_mixed_pair_agrees_with_pure(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            fwd, bwd = random_state(rng, d), random_state(rng, d)
            bmat = random_basis(rng, d).entries
            trace = tally_rule(trace_rule_sums(projector(fwd), projector(bwd), bmat)[None, :])
            assert trace.tolist() == tally(fwd, bwd, bmat)

    def test_multiple_outcomes_is_loud(self):
        # unreachable through validated bases; forced through the rule sums, and counted apart
        assert tally_rule(np.array([[1.5, 1.7]])).tolist() == [0, 0, 0, 1]

    def test_exact_ties_fire_nothing(self):
        # fwd = bwd = (|a_i> + |a_j>)/sqrt(2): the sums for a_i and a_j are
        # exactly 1, which rounding used to push over the threshold together
        rng = np.random.default_rng(27)
        for d in (2, 3, 4, 5, 8):
            bmats, ties = [], []
            for _ in range(2000):
                bmat = random_basis(rng, d).entries
                i, j = rng.choice(d, size=2, replace=False)
                bmats.append(bmat)
                ties.append((bmat[i] + bmat[j]) / np.sqrt(2))
            ties = np.array(ties)
            assert tally_rule(rule_sums(ties, ties, np.array(bmats))).tolist() == [0] * d + [2000, 0]

    def test_tie_tol_monotonicity(self):
        rng = np.random.default_rng(23)
        fwd, bwd = (np.array([random_state(rng, 3).entries for _ in range(200)]) for _ in range(2))
        sums = rule_sums(fwd, bwd, np.array([random_basis(rng, 3).entries for _ in range(200)]))
        # no outcome fires at 0.05 that does not fire at 0
        assert not (_fires(sums, 0.05) & ~_fires(sums, 0.0)).any()
        assert tally_rule(sums, 0.05)[-2] >= tally_rule(sums, 0.0)[-2]


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
    """Swapping forward and backward swaps the two terms of each rule sum."""

    def test_assignment_invariant(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            fwd, bwd = random_state(rng, d).entries, random_state(rng, d).entries
            bmat = random_basis(rng, d).entries
            assert np.array_equal(_fires(rule_sums(fwd, bwd, bmat), 0.0), _fires(rule_sums(bwd, fwd, bmat), 0.0))

    def test_mixed_swap(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            rho_f, rho_b = random_density(rng, d), random_density(rng, d)
            bmat = random_basis(rng, d).entries
            assert np.array_equal(trace_rule_sums(rho_f, rho_b, bmat), trace_rule_sums(rho_b, rho_f, bmat))


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

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch between observable and states"):
            weak_value(self.SZ, PLUS, StateVector.basis_state(3, 0))

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

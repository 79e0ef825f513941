import numpy as np
import pytest

from twostate import RngStream, StateVector, haar_state, pbr_geometric, pbr_separators
from twostate.assignment import _fires
from twostate.blochpbr import _bisectors, _bloch_vectors
from twostate.cli import _bloch_instance

from helpers import bell_condition, bloch_states, pbr_separates, random_rotation, random_state

PLUS_Z = np.array([0.0, 0.0, 1.0])
MINUS_Z = np.array([0.0, 0.0, -1.0])
PLUS_X = np.array([1.0, 0.0, 0.0])


def random_blochs(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def overlap_rule(m: np.ndarray, n: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The rule on the overlap sums of the states of Bloch rows m, n and a, whose overlaps
    ``pbr_separators`` reads through the identity |<m|a>|^2 = (1 + m.a)/2."""
    sm, sn, sa = bloch_states(np.array([m, n, a]))
    overlaps = np.abs(np.sum(np.array([sm, sn]).conj() * sa, axis=-1)) ** 2
    return _fires(overlaps[0] + overlaps[1], 0.0)


class TestConversions:
    def test_north_pole_anchor(self):
        assert _bloch_vectors(StateVector.basis_state(2, 0).entries).tolist() == [0.0, 0.0, 1.0]

    def test_plus_state_points_along_x(self):
        v = _bloch_vectors(np.array([1, 1]) / np.sqrt(2))
        assert v[0] == pytest.approx(1.0)
        assert v[1] == pytest.approx(0.0, abs=1e-15)
        assert v[2] == pytest.approx(0.0, abs=1e-15)

    def test_poles_map_to_basis_states(self):
        assert np.array_equal(bloch_states(PLUS_Z), [1.0, 0.0])
        assert np.allclose(bloch_states(MINUS_Z), [0.0, 1.0], atol=1e-15)

    def test_half_angle_construction(self):
        assert np.allclose(bloch_states(PLUS_X), np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_round_trip_up_to_phase(self):
        rng = np.random.default_rng(30)
        states = np.array([random_state(rng, 2).entries for _ in range(100)])
        back = bloch_states(_bloch_vectors(states))
        assert np.allclose(np.abs(np.sum(back.conj() * states, axis=1)), 1.0, rtol=0.0, atol=1e-12)

    def test_nonneg_amplitude_convention(self):
        amplitudes = bloch_states(random_blochs(np.random.default_rng(31), 50))[:, 0]
        assert np.all(amplitudes.real >= 0.0)
        assert np.all(amplitudes.imag == 0.0)

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.5], [np.nan, 0.0, 1.0], [0.0, 0.0, 1.0 + 2e-12]],
                             ids=["half", "nan", "just-over-tolerance"])
    def test_rejects_non_unit_bloch(self, bad):
        # a Bloch vector enters the program as a row of an explicit pbr-geometric instance
        with pytest.raises(ValueError, match=r"^Bloch vector norm .* deviates from 1$"):
            _bloch_instance([PLUS_Z, bad, PLUS_X, MINUS_Z])
        assert np.array_equal(_bloch_instance([PLUS_Z, PLUS_X, MINUS_Z, PLUS_X]), [PLUS_Z, PLUS_X, MINUS_Z, PLUS_X])


class TestBellCondition:
    """The dot-product form of the rule against the state-vector overlap form."""

    def test_aligned(self):
        assert bell_condition(PLUS_Z, PLUS_Z, PLUS_Z) and overlap_rule(PLUS_Z, PLUS_Z, PLUS_Z)

    def test_orthogonal_pair_geometry(self):
        # m.a + n.a = 1 + 0 > 0; in overlap form 1 + 1/2 > 1
        assert bell_condition(PLUS_Z, PLUS_X, PLUS_Z) and overlap_rule(PLUS_Z, PLUS_X, PLUS_Z)

    def test_antipodal_cancellation(self):
        a = random_blochs(np.random.default_rng(32), 20)
        assert not any(bell_condition(PLUS_Z, MINUS_Z, row) for row in a)
        assert not overlap_rule(np.broadcast_to(PLUS_Z, a.shape), np.broadcast_to(MINUS_Z, a.shape), a).any()

    def test_matches_state_overlap_form(self):
        rng = np.random.default_rng(33)
        m, n, a = (random_blochs(rng, 12_000) for _ in range(3))
        keep = np.abs(np.sum(m * a, axis=1) + np.sum(n * a, axis=1)) >= 1e-12  # drop ties instead of judging them
        m, n, a = m[keep][:10_000], n[keep][:10_000], a[keep][:10_000]
        assert len(m) == 10_000
        assert [bell_condition(*row) for row in zip(m, n, a)] == overlap_rule(m, n, a).tolist()

    def test_reflected_ties_match_state_overlap_form(self):
        # n is m reflected in the plane normal to a, so n.a = -m.a: an exact tie, up to rounding
        rng = np.random.default_rng(37)
        m, a = random_blochs(rng, 2000), random_blochs(rng, 2000)
        n = m - 2.0 * np.sum(m * a, axis=1, keepdims=True) * a
        assert [bell_condition(*row) for row in zip(m, n, a)] == overlap_rule(m, n, a).tolist()


def instances(*rows) -> np.ndarray:
    """``pbr_separators`` input of shape (4, n, 3) from n instances (m, m', x, x')."""
    return np.array(rows, dtype=float).transpose(1, 0, 2)


class TestDistinguishingVector:
    """The maximum-margin bisector that ``pbr_separators`` takes, and what it counts."""

    def test_canonical_instance(self):
        a, degenerate, margin = _bisectors(PLUS_Z + PLUS_Z, PLUS_X + PLUS_X)
        assert not degenerate
        assert np.allclose(a, np.array([-1.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-15)
        assert a @ PLUS_Z == pytest.approx(1 / np.sqrt(2))
        assert a @ PLUS_X == pytest.approx(-1 / np.sqrt(2))
        assert pbr_separators(instances((PLUS_Z, PLUS_Z, PLUS_X, PLUS_X)))[:2] == (1, 0)

    def test_degenerate_parallel_sums(self):
        assert pbr_separators(instances((PLUS_Z, PLUS_Z, PLUS_Z, PLUS_Z))) == (0, 1, np.inf)

    def test_degenerate_vanishing_sum(self):
        assert pbr_separators(instances((PLUS_Z, MINUS_Z, PLUS_X, PLUS_X))) == (0, 1, np.inf)

    def test_antiparallel_sums_are_fine(self):
        a, degenerate, _ = _bisectors(PLUS_Z + PLUS_Z, MINUS_Z + MINUS_Z)
        assert not degenerate and a @ PLUS_Z == pytest.approx(1.0)
        found, degenerate, margin = pbr_separators(instances((PLUS_Z, PLUS_Z, MINUS_Z, MINUS_Z)))
        assert (found, degenerate) == (1, 0) and margin == pytest.approx(1.0)

    def test_random_instances_separate_with_margin(self):
        vectors = random_blochs(np.random.default_rng(34), 800).reshape(4, 200, 3)
        found, degenerate, margin = pbr_separators(vectors)
        assert degenerate == 0
        assert margin >= 1e-9

    def test_rule_level_separation(self):
        vectors = random_blochs(np.random.default_rng(35), 800).reshape(4, 200, 3)
        assert pbr_separators(vectors)[:2] == (200, 0)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(36)
        m, mp, x, xp = random_blochs(rng, 400).reshape(4, 100, 3)
        rot = np.array([random_rotation(rng) for _ in range(100)])
        turn = lambda v: np.einsum("nij,nj->ni", rot, v)  # noqa: E731
        expected = turn(_bisectors(m + mp, x + xp)[0])
        assert np.allclose(_bisectors(turn(m) + turn(mp), turn(x) + turn(xp))[0], expected, atol=1e-10)


class TestPbrGeometric:
    def test_matches_per_instance_reference(self):
        # the batched experiment against pbr_separates per instance, drawn from the same streams
        samples, seed = 300, 13
        streams = [RngStream(seed, 20 + k) for k in range(4)]
        found, degenerate, margins = 0, 0, []
        for i in range(samples):
            m, mp, x, xp = (_bloch_vectors(haar_state(2, st, i).entries) for st in streams)
            separates = pbr_separates(m, mp, x, xp)
            if separates is None:
                degenerate += 1
                continue
            uhat, vhat = (w / np.linalg.norm(w) for w in (m + mp, x + xp))
            a = (uhat - vhat) / np.linalg.norm(uhat - vhat)
            margins.append(min(a @ uhat, -a @ vhat))
            found += separates
        got_found, got_degenerate, min_margin = pbr_geometric(samples, seed)
        assert (got_found, got_degenerate) == (found, degenerate)
        assert min_margin == pytest.approx(min(margins), rel=1e-11)

    def test_reference_agrees_with_the_kernel(self):
        # pbr_separates and pbr_separators on the same instances, degenerate ones among them
        vectors = random_blochs(np.random.default_rng(38), 400).reshape(4, 100, 3)
        vectors[:, :5] = instances((PLUS_Z, PLUS_Z, PLUS_Z, PLUS_Z))
        vectors[:, 5:8] = instances((PLUS_Z, MINUS_Z, PLUS_X, PLUS_X))
        answers = [pbr_separates(*vectors[:, i]) for i in range(100)]
        found, degenerate, _ = pbr_separators(vectors)
        assert (found, degenerate) == (answers.count(True), answers.count(None)) == (92, 8)

    @pytest.mark.parametrize("instance, counts", [
        ((PLUS_Z, PLUS_Z, PLUS_X, PLUS_X), (1, 0, 1 / np.sqrt(2))),
        ((PLUS_Z, PLUS_Z, PLUS_Z, PLUS_Z), (0, 1, np.inf)),  # parallel sums: no margin to take
    ], ids=["canonical", "degenerate"])
    def test_counts_an_explicit_instance(self, instance, counts):
        found, degenerate, min_margin = pbr_separators(instances(instance))
        assert (found, degenerate) == counts[:2]
        assert min_margin == pytest.approx(counts[2])

import numpy as np
import pytest

from twostate import (
    BlochVector,
    DegenerateInstanceError,
    PbrGeometricInstance,
    RngStream,
    StateVector,
    TwoStatePairPure,
    bell_condition,
    bloch_from_state,
    haar_state,
    inner,
    pbr_distinguishing_vector,
    pbr_geometric,
    pbr_separators,
    satisfies_pure,
    state_from_bloch,
)

from helpers import random_rotation, random_state

PLUS_Z = BlochVector(0.0, 0.0, 1.0)
MINUS_Z = BlochVector(0.0, 0.0, -1.0)
PLUS_X = BlochVector(1.0, 0.0, 0.0)


def random_bloch(rng) -> BlochVector:
    v = rng.normal(size=3)
    return BlochVector.from_array(v / np.linalg.norm(v))


class TestConversions:
    def test_north_pole_anchor(self):
        assert bloch_from_state(StateVector.basis_state(2, 0)) == BlochVector(0.0, 0.0, 1.0)

    def test_plus_state_points_along_x(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        v = bloch_from_state(plus)
        assert v.x == pytest.approx(1.0)
        assert v.y == pytest.approx(0.0, abs=1e-15)
        assert v.z == pytest.approx(0.0, abs=1e-15)

    def test_poles_map_to_basis_states(self):
        assert np.array_equal(state_from_bloch(PLUS_Z).entries, [1.0, 0.0])
        assert np.allclose(state_from_bloch(MINUS_Z).entries, [0.0, 1.0], atol=1e-15)

    def test_half_angle_construction(self):
        target = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(state_from_bloch(PLUS_X).entries, target, atol=1e-15)

    def test_round_trip_up_to_phase(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            s = random_state(rng, 2)
            back = state_from_bloch(bloch_from_state(s))
            assert abs(inner(back, s)) == pytest.approx(1.0, abs=1e-12)

    def test_nonneg_amplitude_convention(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s = state_from_bloch(random_bloch(rng))
            assert s.entries[0].real >= 0.0
            assert s.entries[0].imag == 0.0

    def test_rejects_higher_dims(self):
        with pytest.raises(ValueError, match="dimension 2"):
            bloch_from_state(StateVector.basis_state(3, 0))

    def test_rejects_non_unit_bloch(self):
        with pytest.raises(ValueError, match="norm"):
            BlochVector(0.0, 0.0, 0.5)


class TestBellCondition:
    def test_aligned(self):
        assert bell_condition(PLUS_Z, PLUS_Z, PLUS_Z)

    def test_orthogonal_pair_geometry(self):
        # m.a + n.a = 1 + 0 > 0; in overlap form 1 + 1/2 > 1
        assert bell_condition(PLUS_Z, PLUS_X, PLUS_Z)

    def test_antipodal_cancellation(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = random_bloch(rng)
            assert not bell_condition(PLUS_Z, MINUS_Z, a)

    def test_matches_state_overlap_form(self):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 10_000:
            m, n, a = (random_bloch(rng) for _ in range(3))
            margin = m.dot(a) + n.dot(a)
            if abs(margin) < 1e-12:  # resample instead of judging a tie
                continue
            pair = TwoStatePairPure(state_from_bloch(m), state_from_bloch(n))
            assert bell_condition(m, n, a) == satisfies_pure(pair, state_from_bloch(a))
            checked += 1

    def test_reflected_ties_match_state_overlap_form(self):
        # n is m reflected in the plane normal to a, so n.a = -m.a: an exact tie, up to rounding
        rng = np.random.default_rng(37)
        for _ in range(2000):
            m, a = random_bloch(rng), random_bloch(rng)
            n = BlochVector.from_array(m.as_array() - 2.0 * m.dot(a) * a.as_array())
            pair = TwoStatePairPure(state_from_bloch(m), state_from_bloch(n))
            assert bell_condition(m, n, a) == satisfies_pure(pair, state_from_bloch(a))


class TestDistinguishingVector:
    def test_canonical_instance(self):
        inst = PbrGeometricInstance((PLUS_Z, PLUS_Z), (PLUS_X, PLUS_X))
        a = pbr_distinguishing_vector(inst)
        assert np.allclose(a.as_array(), np.array([-1.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-15)
        assert a.dot(PLUS_Z) == pytest.approx(1 / np.sqrt(2))
        assert a.dot(PLUS_X) == pytest.approx(-1 / np.sqrt(2))

    def test_degenerate_parallel_sums(self):
        inst = PbrGeometricInstance((PLUS_Z, PLUS_Z), (PLUS_Z, PLUS_Z))
        with pytest.raises(DegenerateInstanceError):
            pbr_distinguishing_vector(inst)

    def test_degenerate_vanishing_sum(self):
        inst = PbrGeometricInstance((PLUS_Z, MINUS_Z), (PLUS_X, PLUS_X))
        with pytest.raises(DegenerateInstanceError):
            pbr_distinguishing_vector(inst)

    def test_antiparallel_sums_are_fine(self):
        inst = PbrGeometricInstance((PLUS_Z, PLUS_Z), (MINUS_Z, MINUS_Z))
        a = pbr_distinguishing_vector(inst)
        assert a.dot(PLUS_Z) == pytest.approx(1.0)

    def test_random_instances_separate_with_margin(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            inst = PbrGeometricInstance(
                (random_bloch(rng), random_bloch(rng)),
                (random_bloch(rng), random_bloch(rng)),
            )
            a = pbr_distinguishing_vector(inst)
            u = inst.pair_a[0].as_array() + inst.pair_a[1].as_array()
            v = inst.pair_b[0].as_array() + inst.pair_b[1].as_array()
            av = a.as_array()
            assert av @ (u / np.linalg.norm(u)) >= 1e-9
            assert -av @ (v / np.linalg.norm(v)) >= 1e-9

    def test_rule_level_separation(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            m, mp, x, xp = (random_bloch(rng) for _ in range(4))
            inst = PbrGeometricInstance((m, mp), (x, xp))
            a = state_from_bloch(pbr_distinguishing_vector(inst))
            pair_a = TwoStatePairPure(state_from_bloch(m), state_from_bloch(mp))
            pair_b = TwoStatePairPure(state_from_bloch(x), state_from_bloch(xp))
            assert satisfies_pure(pair_a, a)
            assert not satisfies_pure(pair_b, a)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            vectors = [random_bloch(rng) for _ in range(4)]
            rot = random_rotation(rng)
            inst = PbrGeometricInstance((vectors[0], vectors[1]), (vectors[2], vectors[3]))
            rotated = [BlochVector.from_array(rot @ v.as_array()) for v in vectors]
            inst_rot = PbrGeometricInstance((rotated[0], rotated[1]), (rotated[2], rotated[3]))
            expected = rot @ pbr_distinguishing_vector(inst).as_array()
            assert np.allclose(pbr_distinguishing_vector(inst_rot).as_array(), expected, atol=1e-10)


class TestPbrGeometric:
    def test_matches_per_instance_reference(self):
        # the batched experiment against pbr_distinguishing_vector and
        # satisfies_pure per instance, drawn from the same streams
        samples, seed = 300, 13
        streams = [RngStream(seed, 20 + k) for k in range(4)]
        found, degenerate, margins = 0, 0, []
        for i in range(samples):
            m, mp, x, xp = (bloch_from_state(haar_state(2, st, i)) for st in streams)
            try:
                a = pbr_distinguishing_vector(PbrGeometricInstance((m, mp), (x, xp)))
            except DegenerateInstanceError:
                degenerate += 1
                continue
            u, v = m.as_array() + mp.as_array(), x.as_array() + xp.as_array()
            margins.append(min(a.as_array() @ u / np.linalg.norm(u), -a.as_array() @ v / np.linalg.norm(v)))
            state_a = state_from_bloch(a)
            found += (satisfies_pure(TwoStatePairPure(state_from_bloch(m), state_from_bloch(mp)), state_a)
                      and not satisfies_pure(TwoStatePairPure(state_from_bloch(x), state_from_bloch(xp)), state_a))
        got_found, got_degenerate, min_margin = pbr_geometric(samples, seed)
        assert (got_found, got_degenerate) == (found, degenerate)
        assert min_margin == pytest.approx(min(margins), rel=1e-11)

    @pytest.mark.parametrize("instance, counts", [
        ((PLUS_Z, PLUS_Z, PLUS_X, PLUS_X), (1, 0, 1 / np.sqrt(2))),
        ((PLUS_Z, PLUS_Z, PLUS_Z, PLUS_Z), (0, 1, np.inf)),  # parallel sums: no margin to take
    ], ids=["canonical", "degenerate"])
    def test_counts_an_explicit_instance(self, instance, counts):
        vectors = np.array([v.as_array() for v in instance])[:, None]
        found, degenerate, min_margin = pbr_separators(vectors)
        assert (found, degenerate) == counts[:2]
        assert min_margin == pytest.approx(counts[2])

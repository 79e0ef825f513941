"""Property-based tests of the model invariants.

Hypothesis draws the structure of each case (dimension, indices, seeds,
tolerances, chunking) and, for the SIC round trip, the matrix entries
themselves; random states and bases come from numpy generators seeded by
the drawn integers. Every test is derandomized, so a run is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twostate import (
    HaarPure,
    StateVector,
    TwoStatePairMixed,
    TwoStatePairPure,
    UniformOverlap,
    assign_over_basis,
    basis_mc,
    born_mc,
    builtin_sic,
    sic_expand,
    sic_reconstruct,
    tally_rule,
    time_reverse,
)

from helpers import chunk_samples, random_basis, random_state

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

dims = st.integers(2, 8)
seeds = st.integers(0, 2**32 - 1)
tie_tols = st.sampled_from([0.0, 1e-12, 0.05, 0.3])


def _tie_pair(basis, i: int, j: int, mixed: bool):
    """forward = backward = (a_i + a_j)/sqrt(2): the sums at a_i and a_j are exactly 1."""
    tie = StateVector((basis[i].entries + basis[j].entries) / np.sqrt(2.0))
    pair = TwoStatePairPure(tie, tie)
    return TwoStatePairMixed.from_pure(pair) if mixed else pair


@st.composite
def tie_cases(draw):
    d = draw(dims)
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    return d, i, j, draw(seeds), draw(st.booleans())


class TestExclusivity:
    @PROPERTY
    @given(tie_cases())
    def test_exact_ties_assign_nothing(self, case):
        d, i, j, seed, mixed = case
        basis = random_basis(np.random.default_rng(seed), d)
        assert not assign_over_basis(_tie_pair(basis, i, j, mixed), basis).assigned

    @PROPERTY
    @given(dims, seeds, st.integers(1, 64), tie_tols)
    def test_tally_never_fires_two_outcomes(self, d, seed, n, tie_tol):
        # rows alternate between exact ties and random pairs over random bases
        rng = np.random.default_rng(seed)
        rows = []
        for k in range(n):
            bmat = random_basis(rng, d).as_matrix()
            if k % 2:
                fwd = bwd = (bmat[0] + bmat[-1]) / np.sqrt(2.0)
            else:
                fwd, bwd = random_state(rng, d).entries, random_state(rng, d).entries
            rows.append(np.abs(bmat.conj() @ fwd) ** 2 + np.abs(bmat.conj() @ bwd) ** 2)
        tally = tally_rule(np.array(rows), tie_tol)
        assert tally[-1] == 0
        assert tally.sum() == n


class TestTimeReversal:
    @PROPERTY
    @given(dims, seeds, st.floats(0.35, 0.95), st.floats(-1e-7, 1e-7), tie_tols, st.booleans())
    def test_assignment_is_invariant(self, d, seed, p, delta, tie_tol, mixed):
        # the sum at a_0 is 1 + tie_tol + delta, within rounding reach of the threshold
        basis = random_basis(np.random.default_rng(seed), d)
        a0, a1, a_last = basis[0].entries, basis[1].entries, basis[d - 1].entries
        q = 1.0 - p + tie_tol + delta
        forward = StateVector(np.sqrt(p) * a0 + np.sqrt(1.0 - p) * a1)
        backward = StateVector(np.sqrt(q) * a0 + np.sqrt(1.0 - q) * a_last)
        pair = TwoStatePairPure(forward, backward)
        if mixed:
            pair = TwoStatePairMixed.from_pure(pair)
        assert assign_over_basis(pair, basis, tie_tol) == assign_over_basis(time_reverse(pair), basis, tie_tol)


@st.composite
def hermitian_matrices(draw):
    d = draw(st.sampled_from([2, 3]))
    parts = hnp.arrays(float, (d, d), elements=st.floats(-100.0, 100.0))
    a = draw(parts) + 1j * draw(parts)
    return (a + a.conj().T) / 2.0


class TestSicRoundTrip:
    @PROPERTY
    @given(hermitian_matrices())
    def test_reconstruct_inverts_expand(self, r):
        povm = builtin_sic(r.shape[0])
        back = sic_reconstruct(sic_expand(r, povm), povm)
        assert np.allclose(back, r, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(r)))))


# above 16384 samples, a default-chunked run spans several chunks whatever the law and dimension
estimator_cases = st.tuples(
    st.sampled_from([2, 3, 5, 16]), seeds, st.one_of(st.integers(16_385, 40_000), st.integers(1, 2000)),
    st.integers(64, 700), st.integers(2, 3),
    st.sampled_from(["haar", "uniform-overlap"]),
)


def _dist(name: str, target: StateVector):
    return HaarPure() if name == "haar" else UniformOverlap(target)


class TestChunkingInvariance:
    @settings(PROPERTY, max_examples=50)
    @given(estimator_cases)
    def test_born_mc_counts(self, case):
        d, seed, n, chunk_size, workers, dist = case
        forward = random_state(np.random.default_rng(seed), d)
        target = StateVector.basis_state(d, 0)
        whole = born_mc(forward, target, _dist(dist, target), n, seed)
        with chunk_samples(chunk_size):
            split = born_mc(forward, target, _dist(dist, target), n, seed, workers=workers)
        assert split == whole

    @settings(PROPERTY, max_examples=50)
    @given(estimator_cases)
    def test_basis_mc_counts(self, case):
        d, seed, n, chunk_size, workers, dist = case
        rng = np.random.default_rng(seed)
        forward, basis = random_state(rng, d), random_basis(rng, d)
        whole = basis_mc(forward, basis, _dist(dist, basis[0]), n, seed)
        with chunk_samples(chunk_size):
            split = basis_mc(forward, basis, _dist(dist, basis[0]), n, seed, workers=workers)
        assert split == whole

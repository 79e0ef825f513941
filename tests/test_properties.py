"""Property-based tests of the model invariants.

Hypothesis draws the structure of each case (dimension, indices, seeds,
tolerances, chunking) and, for the SIC round trip, the matrix entries
themselves; random states and bases come from numpy generators seeded by
the drawn integers. Every test is derandomized, so a run is reproducible.
The last test runs a failing property under the suite's own settings, so
that a falsified property fails alone rather than stopping the run.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twostate import (
    Fixed,
    HaarPure,
    RngStream,
    StateVector,
    UniformOverlap,
    basis_mc,
    born_mc,
    builtin_fiducial,
    sic_from_fiducial,
    tally_rule,
)
from twostate.assignment import RULE_ROUNDING_BOUND, _fires
from twostate.cli import main
from twostate.sampling import (
    _GOLDEN_GAMMA,
    _MASK64,
    _check_exclusive,
    _draw_plan,
    _mix64,
    _overlaps,
    _stick_bounds,
    _stick_tallies,
    _stream_key,
    _uniforms,
    _word_threshold,
    _word_uniforms,
    _words,
)
from twostate.sic import _orbit_ops, _orbit_potential_and_grad

from helpers import chunk_samples, random_basis, random_state, random_unitary, rule_sums, sic_coefficients, \
    trace_rule_sums, vector_to_json

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

dims = st.integers(2, 8)
seeds = st.integers(0, 2**32 - 1)
tie_tols = st.sampled_from([0.0, 1e-12, 0.05, 0.3])


def _pair_sums(forward: np.ndarray, backward: np.ndarray, bmat: np.ndarray, mixed: bool) -> np.ndarray:
    """The rule sums of one pair over the rows of ``bmat``, in the state or the density-matrix form."""
    if not mixed:
        return rule_sums(forward, backward, bmat)
    return trace_rule_sums(*(np.outer(s, s.conj()) for s in (forward, backward)), bmat)


@st.composite
def tie_cases(draw):
    d = draw(dims)
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    return d, i, j, draw(seeds), draw(st.booleans())


class TestExclusivity:
    @PROPERTY
    @given(tie_cases())
    def test_exact_ties_assign_nothing(self, case):
        # forward = backward = (a_i + a_j)/sqrt(2): the sums at a_i and a_j are exactly 1
        d, i, j, seed, mixed = case
        bmat = random_basis(np.random.default_rng(seed), d).entries
        tie = (bmat[i] + bmat[j]) / np.sqrt(2.0)
        assert tally_rule(_pair_sums(tie, tie, bmat, mixed)[None, :]).tolist() == [0] * d + [1, 0]

    @PROPERTY
    @given(dims, seeds, st.integers(1, 64), tie_tols)
    def test_tally_never_fires_two_outcomes(self, d, seed, n, tie_tol):
        # rows alternate between exact ties and random pairs over random bases
        rng = np.random.default_rng(seed)
        rows = []
        for k in range(n):
            bmat = random_basis(rng, d).entries
            if k % 2:
                fwd = bwd = (bmat[0] + bmat[-1]) / np.sqrt(2.0)
            else:
                fwd, bwd = random_state(rng, d).entries, random_state(rng, d).entries
            rows.append(np.abs(bmat.conj() @ fwd) ** 2 + np.abs(bmat.conj() @ bwd) ** 2)
        tally = tally_rule(np.array(rows), tie_tol)
        assert tally[-1] == 0
        assert tally.sum() == n


def _threshold_edges(tie_tol: float) -> list:
    """The sum at the rule's threshold ``1 + tie_tol + RULE_ROUNDING_BOUND`` and its float neighbours, in order."""
    edge = 1.0 + tie_tol + RULE_ROUNDING_BOUND
    return [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)]


def _per_sample_tally(sums: np.ndarray, tie_tol: float) -> list:
    """The ``tally_rule`` counts, built sample by sample from ``_fires``."""
    k = sums.shape[1]
    tally = [0] * (k + 2)
    for row in sums:
        fired = [j for j in range(k) if _fires(row[j], tie_tol)]
        tally[fired[0] if len(fired) == 1 else k if not fired else k + 1] += 1
    return tally


class TestOneOutcomeTally:
    """``tally_rule`` on one column agrees with ``_fires`` applied sample by sample."""

    @PROPERTY
    @given(tie_tols, st.lists(st.one_of(st.floats(0.0, 2.5), st.sampled_from([0, 1, 2])), max_size=64))
    def test_matches_the_per_sample_rule(self, tie_tol, drawn):
        # each sum is a drawn float or one of the three threshold edges (by index); every edge is in every batch
        edges = _threshold_edges(tie_tol)
        sums = np.array([edges[x] if isinstance(x, int) else x for x in drawn] + edges)[:, None]
        tally = tally_rule(sums, tie_tol)
        assert tally.dtype == np.int64
        assert tally.tolist() == _per_sample_tally(sums, tie_tol)

    @pytest.mark.parametrize("tie_tol", [0.0, 1e-12, 0.3])
    @pytest.mark.parametrize("edge", [0, 1, 2])
    def test_one_sample_matches_the_rule(self, tie_tol, edge):
        # the --dist fixed path: one evaluation of shape (1, 1)
        sums = np.array([[_threshold_edges(tie_tol)[edge]]])
        assert tally_rule(sums, tie_tol).tolist() == _per_sample_tally(sums, tie_tol) == [edge == 2, edge < 2, 0]


@st.composite
def tally_cases(draw, ks=(2, 3, 5, 16)):
    """Rule sums of shape (n, k) and a tie tolerance, with a drawn share of samples that fire once and
    of those that fire again (when k > 1), some of them every outcome; every other entry is below the
    threshold or one of its three edges."""
    k, n = draw(st.sampled_from(ks)), draw(st.one_of(st.just(1), st.integers(2, 300)))
    tie_tol = draw(tie_tols)
    fire_rate = draw(st.sampled_from([0.0, 0.02, 0.2, 0.9, 1.0]))
    # of the samples that fire, those that fire twice
    again_rate = draw(st.sampled_from([0.0, 0.05, 1.0])) if k > 1 else 0.0
    rng = np.random.default_rng(draw(seeds))
    edges = _threshold_edges(tie_tol)
    sums = rng.uniform(0.0, 1.0 + tie_tol, (n, k))
    at_edge = rng.random((n, k)) < 0.1
    sums[at_edge] = rng.choice(edges, np.count_nonzero(at_edge))
    fire = np.flatnonzero(rng.random(n) < fire_rate)
    cols = rng.integers(0, k, fire.size)
    sums[fire, cols] = rng.uniform(edges[2], 2.5, fire.size)
    again = rng.random(fire.size) < again_rate
    sums[fire[again], (cols[again] + rng.integers(1, k, np.count_nonzero(again))) % k] = edges[2]
    sums[fire[again & (rng.random(fire.size) < 0.5)]] = edges[2]
    return sums, tie_tol


class TestHitIndexTally:
    """``tally_rule`` over k >= 2 outcomes, counted from the fired entries alone, agrees with ``_fires``
    applied sample by sample, samples that fire two or more outcomes included."""

    @PROPERTY
    @given(tally_cases())
    def test_matches_the_per_sample_rule(self, case):
        sums, tie_tol = case
        tally = tally_rule(sums, tie_tol)
        assert tally.dtype == np.int64
        assert tally.tolist() == _per_sample_tally(sums, tie_tol)

    @pytest.mark.parametrize("k", [2, 3, 5, 16])
    @pytest.mark.parametrize("tie_tol", [0.0, 0.3])
    @pytest.mark.parametrize("edges", [(0,), (2,), (1, 2), (2, 2)], ids=["below", "above", "at-and-above", "twice"])
    def test_one_sample_matches_the_rule(self, k, tie_tol, edges):
        # one sample over a basis: one row of shape (1, k), its last entries at the given threshold edges
        sums = np.full((1, k), 0.5)
        sums[0, k - len(edges):] = [_threshold_edges(tie_tol)[e] for e in edges]
        tally = tally_rule(sums, tie_tol)
        assert tally.tolist() == _per_sample_tally(sums, tie_tol)
        assert tally[-1] == (edges == (2, 2))


class TestColumnTally:
    """``tally_rule`` on F-contiguous sums, one contiguous column per outcome as the stick-broken draw
    stores them, gives the counts of a C-contiguous copy: one column, one sample, no firing and
    samples that fire two or more outcomes included."""

    @PROPERTY
    @given(st.one_of(tally_cases(ks=(1,)), tally_cases()))
    def test_column_and_row_layouts_agree(self, case):
        sums, tie_tol = case
        columns, rows = np.asfortranarray(sums), np.ascontiguousarray(sums)
        assert columns.flags.f_contiguous and rows.flags.c_contiguous
        tally = tally_rule(columns, tie_tol)
        assert tally.dtype == np.int64
        assert tally.tolist() == tally_rule(rows, tie_tol).tolist() == _per_sample_tally(sums, tie_tol)


@st.composite
def wide_tie_cases(draw):
    d = draw(st.sampled_from([64, 512]))
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    return d, i, j, draw(seeds)


class TestRoundingBoundAtHighDimension:
    """``RULE_ROUNDING_BOUND`` holds beyond d = 32, at the dimensions its comment names."""

    @settings(PROPERTY, max_examples=20)
    @given(wide_tie_cases())
    def test_exact_ties_fire_nothing(self, case):
        # forward (a_i + a_j)/sqrt(2) and backward (a_i - a_j)/sqrt(2): the sums at a_i and a_j are exactly 1
        d, i, j, seed = case
        basis = random_basis(np.random.default_rng(seed), d)
        bmat = basis.entries
        fwd, bwd = (bmat[i] + bmat[j]) / np.sqrt(2.0), (bmat[i] - bmat[j]) / np.sqrt(2.0)
        sums = np.abs(bmat.conj() @ fwd) ** 2 + np.abs(bmat.conj() @ bwd) ** 2
        assert np.max(np.abs(sums[[i, j]] - 1.0)) <= RULE_ROUNDING_BOUND
        # no outcome fires, and none fires twice
        assert tally_rule(sums[None, :]).tolist() == [0] * d + [1, 0]


class TestTimeReversal:
    @PROPERTY
    @given(dims, seeds, st.floats(0.35, 0.95), st.floats(-1e-7, 1e-7), tie_tols, st.booleans())
    def test_assignment_is_invariant(self, d, seed, p, delta, tie_tol, mixed):
        # the sum at a_0 is 1 + tie_tol + delta, within rounding reach of the threshold
        basis = random_basis(np.random.default_rng(seed), d)
        a0, a1, a_last = basis.entries[0], basis.entries[1], basis.entries[d - 1]
        q = 1.0 - p + tie_tol + delta
        forward = StateVector(np.sqrt(p) * a0 + np.sqrt(1.0 - p) * a1)
        backward = StateVector(np.sqrt(q) * a0 + np.sqrt(1.0 - q) * a_last)
        bmat = basis.entries
        sums = _pair_sums(forward.entries, backward.entries, bmat, mixed)
        swapped = _pair_sums(backward.entries, forward.entries, bmat, mixed)
        assert np.array_equal(_fires(sums, tie_tol), _fires(swapped, tie_tol))
        assert np.array_equal(tally_rule(sums[None, :], tie_tol), tally_rule(swapped[None, :], tie_tol))


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
        proj = sic_from_fiducial(builtin_fiducial(r.shape[0]))
        back = np.tensordot(sic_coefficients(r, proj), proj, axes=1)
        assert np.allclose(back, r, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(r)))))


class TestOrbitPotentialInvariances:
    @PROPERTY
    @given(dims, seeds, st.floats(-3.0, 3.0))
    def test_gradient_is_orthogonal_to_scale_and_phase(self, d, seed, log_scale):
        # the potential of x/|x| stays put along t (a scale of x) and along the real
        # form of i x (a global phase), so its gradient is orthogonal to both
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * (rng.normal(size=d) + 1j * rng.normal(size=d))
        t = x.view(float)
        _, grad = _orbit_potential_and_grad(t, _orbit_ops(d))
        for direction in (t, (1j * x).view(float)):
            assert abs(grad @ direction) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(direction)


# above 16384 samples, a default-chunked run spans several chunks whatever the law and dimension,
# except a one-word born_mc sample, whose chunks hold 32768
estimator_cases = st.tuples(
    st.sampled_from([2, 3, 5, 16]), seeds, st.one_of(st.integers(16_385, 40_000), st.integers(1, 2000)),
    st.integers(64, 700), st.integers(2, 3),
    st.sampled_from(["haar", "uniform-overlap"]),
)


def _dist(name: str):
    return HaarPure() if name == "haar" else UniformOverlap()


class TestChunkingInvariance:
    @settings(PROPERTY, max_examples=50)
    @given(estimator_cases, st.integers(1, 4))
    def test_born_mc_counts(self, case, points):
        d, seed, n, chunk_size, workers, dist = case
        rng = np.random.default_rng(seed)
        forwards = [random_state(rng, d) for _ in range(points)]
        target = StateVector.basis_state(d, 0)
        whole = born_mc(forwards, target, _dist(dist), n, seed)
        with chunk_samples(chunk_size):
            split = born_mc(forwards, target, _dist(dist), n, seed, workers=workers)
        assert split == whole

    @settings(PROPERTY, max_examples=50)
    @given(estimator_cases)
    def test_basis_mc_counts(self, case):
        d, seed, n, chunk_size, workers, dist = case
        rng = np.random.default_rng(seed)
        forward, basis = random_state(rng, d), random_basis(rng, d)
        whole = basis_mc(forward, basis, _dist(dist), n, seed)
        with chunk_samples(chunk_size):
            split = basis_mc(forward, basis, _dist(dist), n, seed, workers=workers)
        assert split == whole


# a born-mc grid of 1-4 forward overlaps with the target, the edges 0, 1/2 and 1 among them, and a run of
# one chunk or of several (a one-word born_mc chunk holds 32768 samples)
grid_cases = st.tuples(
    st.sampled_from([2, 3, 5, 16]), seeds,
    st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    tie_tols, st.sampled_from(["haar", "uniform-overlap", "fixed"]),
    st.one_of(st.integers(1, 3000), st.integers(32_769, 70_000)),
)


def _grid(case):
    """``born_mc``'s arguments for a grid case: the forward states, target, law, sample count, seed and
    tie_tol; a fixed law's state is random."""
    d, seed, overlaps, tie_tol, law, n = case
    forwards = [StateVector(np.sqrt([p, 1.0 - p] + [0.0] * (d - 2)).astype(complex)) for p in overlaps]
    dist = Fixed(random_state(np.random.default_rng(seed), d)) if law == "fixed" else _dist(law)
    return forwards, StateVector.basis_state(d, 0), dist, n, seed, tie_tol


class TestBornGrid:
    """Every point of a born_mc grid reads the same sampled backward states."""

    @settings(PROPERTY, max_examples=60)
    @given(grid_cases)
    def test_each_point_is_its_own_one_point_call(self, case):
        forwards, *rest = _grid(case)
        assert born_mc(forwards, *rest) == [born_mc([forward], *rest)[0] for forward in forwards]

    @settings(PROPERTY, max_examples=60)
    @given(grid_cases)
    def test_counts_never_decrease_along_the_grid(self, case):
        # a sample that fires at overlap p fires at every larger p, under every law
        grid = born_mc(*_grid(case))
        frequencies = [grid[i].frequency for i in np.argsort(case[2], kind="stable")]
        assert frequencies == sorted(frequencies)


# 64-bit halves of a stream's (seed, stream_index), the edges among them
halves = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


def _unkey(key: int) -> tuple:
    """The pair a stream key was made of: the Feistel rounds of ``_stream_key`` run backwards."""
    left, right = key >> 64, key & _MASK64
    for k in (3, 2, 1):
        left, right = right ^ _mix64(left + k * _GOLDEN_GAMMA & _MASK64), left
    return left, right


class TestStreamKey:
    """Distinct streams start at distinct generator states: ``_stream_key`` is injective."""

    @PROPERTY
    @given(halves, halves)
    def test_the_key_inverts_to_its_pair(self, seed, stream_index):
        key = _stream_key(seed, stream_index)
        assert 0 <= key < 2**128
        assert _unkey(key) == (seed, stream_index)

    @PROPERTY
    @given(halves, halves, halves, halves)
    def test_distinct_pairs_get_distinct_keys(self, s, k, t, j):
        pairs = {(s, k), (k, s), (t, j), (j, t), (s, j), (t, k)}  # each pair and its swap, and mixed pairs
        assert len({_stream_key(*pair) for pair in pairs}) == len(pairs)

    def test_the_edge_pairs_get_distinct_keys(self):
        edges = [0, 1, 2**63, 2**64 - 1]
        assert len({_stream_key(s, k) for s in edges for k in edges}) == len(edges) ** 2


@st.composite
def word_tally_cases(draw):
    """A forward weight p_0, a tie tolerance and a stretch of one-word samples of a stream. p_0 is
    drawn, one of 0, 1, 1e-300 and 1 - 1e-16, or the weight that puts the threshold exactly on one
    of the stretch's own words, moved by up to two floats either way."""
    tie_tol = draw(st.sampled_from([0.0, 1e-15, 0.01, 0.25]))
    stream = RngStream(draw(seeds), draw(st.integers(0, 3)))
    # odd first samples start on a PCG64DXSM output's high half
    first = draw(st.one_of(st.integers(0, 17), st.integers(0, 2**40)))
    n = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(["drawn", "extreme", "on-a-word"]))
    if kind == "drawn":
        p0 = draw(st.floats(0.0, 1.0))
    elif kind == "extreme":
        p0 = draw(st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-16]))
    else:
        h = int(_words(stream, first, n, 1)[draw(st.integers(0, n - 1))])
        p0 = 1.0 + tie_tol + RULE_ROUNDING_BOUND - (h + 0.5) * 2.0**-32
        steps = draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            p0 = float(np.nextafter(p0, 2.0 if steps > 0 else 0.0))
    return p0, tie_tol, stream, first, n


class TestWordThreshold:
    """A one-word uniform-overlap sample fires exactly when its 32-bit word is at least
    ``_word_threshold``: the integer tally is the float tally, word for word."""

    @PROPERTY
    @given(word_tally_cases())
    def test_the_word_tally_is_the_float_tally(self, case):
        p0, tie_tol, stream, first, n = case
        threshold = _word_threshold(p0, tie_tol)
        sums = _uniforms(stream, first, n, 1) + p0  # the float path: uniforms, then the forward weight
        assert np.array_equal(_words(stream, first, n, 1) >= threshold, _fires(sums[:, 0], tie_tol))
        fired = np.count_nonzero(_words(stream, first, n, 1) >= threshold)
        assert tally_rule(sums, tie_tol).tolist() == [fired, n - fired, 0]

    @PROPERTY
    @given(word_tally_cases())
    def test_the_threshold_is_the_least_word_that_fires(self, case):
        p0, tie_tol = case[:2]
        threshold = _word_threshold(p0, tie_tol)
        assert 0 <= threshold <= 2**32
        # the two words either side of it, as the float path turns them into sums
        around = np.array([max(threshold - 1, 0), min(threshold, 2**32 - 1)], dtype=np.uint32)
        below, at = _fires((around + 0.5) * 2.0**-32 + p0, tie_tol).tolist()
        assert threshold == 2**32 or at
        assert threshold == 0 or not below


def _candidate_cut(tie_tol: float) -> float:
    """The weight just above the candidate cut: the float after the midpoint between 1 + tie_tol +
    ``RULE_ROUNDING_BOUND`` and the next float, less 1, so that its rule sum at an overlap of 1 fires."""
    c = 1.0 + tie_tol + RULE_ROUNDING_BOUND
    cut = float(np.nextafter(c - 1.0 + np.spacing(c) / 2.0, 2.0))
    assert _fires(cut + 1.0, tie_tol) and not _fires(c - 1.0 + 1.0, tie_tol)
    return cut


@st.composite
def stick_word_cases(draw):
    """A stick-broken draw and a chunk of its 32-bit words, many of them at or near its word bounds.

    d from 2 to 64, the law and tie_tol are drawn, and 1 to 4 candidates with weights: outcome 0's
    weight is 1e-300 (not a candidate), just above the candidate cut, 1, or drawn; the others' are
    drawn above the cut, then each held to c minus the largest weight, c = 1 + tie_tol +
    ``RULE_ROUNDING_BOUND``, so that ``_check_exclusive`` accepts them. Each word of the chunk is a
    random word, or, in about half the rows of each column, one of its column's bounds (``_stick_bounds``:
    Haar's fire and band, uniform overlap's threshold, the later columns' tops) moved by 0, 1, 2 or
    k words either way.
    """
    d = draw(st.integers(2, 64))
    law = draw(st.sampled_from(["haar", "uniform-overlap"]))
    tie_tol = draw(st.sampled_from([0.0, 1e-15, 0.01, 0.25]))
    c, cut = 1.0 + tie_tol + RULE_ROUNDING_BOUND, _candidate_cut(tie_tol)
    p0 = draw(st.one_of(st.sampled_from([1e-300, cut, 1.0]), st.floats(cut, 1.0)))
    target = p0 >= cut
    # the stick leaves at least one of its pieces unbroken, two above d = 32: words <= d - 1 - (d > 32)
    # (_draw_plan); and at most 4 outcomes in all: Haar takes a word per candidate, uniform overlap one
    # for q_0 and one per other
    cap = min(d - 1 - (d > 32) - (target if law == "haar" else 1), 4 - target)
    assume(cap >= 1 - target)
    others = draw(st.lists(st.integers(1, d - 1), min_size=1 - target, max_size=cap, unique=True))
    weights = np.zeros(d)
    weights[0] = p0
    weights[others] = [draw(st.one_of(st.just(cut), st.floats(cut, 1.0))) for _ in others]
    top = int(np.argmax(weights))
    held = np.minimum(weights, c - weights[top])
    held[top] = weights[top]
    _check_exclusive(held, tie_tol, "forward state")
    cand = [j for j, p_j in enumerate(held.tolist()) if _fires(p_j + 1.0, tie_tol)]
    dist = _dist(law)
    stick, words = _draw_plan(dist, cand, d)
    assert stick == cand
    p_drawn = held[stick].tolist()
    fire, band, tops = _stick_bounds(dist, d, stick, p_drawn, tie_tol)
    # column 0: Haar's fire and band, uniform overlap's threshold, or nothing when q_0 has no rule
    first = [fire, band] if law == "haar" else [] if fire is None else [fire]
    bounds = [first] + [[top] for top in tops]
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(1, 300))
    h = rng.integers(0, 2**32, size=(n, words), dtype=np.uint32)
    k = draw(st.integers(3, 400))
    steps = np.array([0, 1, -1, 2, -2, k, -k])
    for j, column in enumerate(bounds):
        for bound in column:
            rows = rng.random(n) < 0.5
            near = bound + rng.choice(steps, size=np.count_nonzero(rows))
            h[rows, j] = np.clip(near, 0, 2**32 - 1)
    return dist, d, stick, p_drawn, tie_tol, h


class TestStickWordKernel:
    """The word kernel of a stick-broken draw (``_stick_tallies``) counts what the float path counts
    on the same words, and each sample its bounds decide fires as they say."""

    @PROPERTY
    @given(stick_word_cases())
    def test_the_word_tallies_are_the_float_tallies(self, case):
        dist, d, stick, p_drawn, tie_tol, h = case
        u = np.asfortranarray(_word_uniforms(h))  # the float path's chunk: a contiguous column per word
        sums = _overlaps(dist, d, stick, u)
        sums += p_drawn
        expected = tally_rule(sums, tie_tol)
        assert _stick_tallies(dist, d, stick, p_drawn, tie_tol)(h).tolist() == expected.tolist()
        # sample for sample: a decided sample fires its column-0 outcome exactly when that word is sure to
        fire, band, tops = _stick_bounds(dist, d, stick, p_drawn, tie_tol)
        haar = isinstance(dist, HaarPure)
        undecided = (h[:, 1:] < np.array(tops, dtype=np.int64)).any(axis=1)
        sure = np.zeros(h.shape[0], dtype=bool)
        if haar:
            undecided |= (h[:, 0] >= fire) & (h[:, 0] < band)
            sure = h[:, 0] < fire
        elif fire is not None:
            sure = h[:, 0] >= fire
        fired = _fires(sums, tie_tol)[~undecided]
        first = 0 if haar or stick[0] == 0 else 1  # the tallied column of word column 0, if it has one
        assert np.array_equal(fired[:, 0], sure[~undecided]) if first == 0 else not fired[:, 0].any()
        assert not fired[:, 1:].any()


@st.composite
def accepted_tie_cases(draw):
    """A basis and a forward state that the boundary accepts, near an exact tie between two outcomes.

    The basis is a random unitary's rows plus a perturbation of up to about 5e-11 per entry, each row
    renormalized, so its Gram deviation may come close to ``ORTHONORMAL_TOL``; the state is
    (a_i + a_j)/sqrt(2) over it, scaled within ``NORM_TOL`` of norm 1. Used as forward and fixed
    backward state, its rule sums at a_i and a_j lie within about 1e-10 of 1.
    """
    d = draw(st.integers(2, 5))
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(seeds))
    tilt = draw(st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 2e-11, 5e-11]))
    basis = random_unitary(rng, d).T + tilt * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    tie = (basis[i] + basis[j]) / np.sqrt(2.0)
    stretch = draw(st.sampled_from([-9e-13, -1e-13, 0.0, 1e-14, 1e-13, 4e-13, 9e-13]))
    tie *= (1.0 + stretch) / np.linalg.norm(tie)
    return d, basis, tie, draw(st.sampled_from([0.0, 1e-13]))


class TestBoundaryImpliesExclusivity:
    """Inputs that pass every boundary check never exit 4: the check of the rule's precondition turns
    a state and basis whose weights can fire two outcomes into a configuration error (exit 2)."""

    @PROPERTY
    @given(accepted_tie_cases())
    def test_fixed_never_exits_four(self, case):
        d, basis, tie, tie_tol = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"basis": [vector_to_json(row) for row in basis],
                                       "forward": vector_to_json(tie), "dist_state": vector_to_json(tie)}))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["basis-mc", "--dim", str(d), "--dist", "fixed", "--samples", "10", "--seed", "1",
                             "--tie-tol", repr(tie_tol), "--config", str(cfg), "--no-timing"])
        assert code in (0, 2), err.getvalue()


FALSIFIED = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(0, 10))
def test_falsified(n):
    assert n < 5


def test_passing():
    pass
"""


class TestAFalsifiedPropertyFailsAlone:
    def test_the_run_goes_on_after_it(self, tmp_path):
        # reporting a falsified property imports modules that warn as they load; under the suite's
        # warnings-as-errors setting that must fail the one test, not abort the run
        (tmp_path / "test_falsified.py").write_text(FALSIFIED)
        settings_file = Path(__file__).resolve().parents[1] / "pyproject.toml"
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c",
                               str(settings_file), "test_falsified.py"], cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert "INTERNALERROR" not in proc.stdout + proc.stderr
        assert "1 failed, 1 passed" in proc.stdout

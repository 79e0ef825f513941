import math
import threading
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from numpy.random import PCG64DXSM
from scipy import stats

from twostate import (
    Fixed,
    HaarPure,
    OrthonormalBasis,
    RngStream,
    StateVector,
    UniformOverlap,
    basis_mc,
    born_mc,
    born_oracle,
    exclusivity_scan,
    haar_state,
    haar_states,
)
from twostate import sampling
from twostate.assignment import RULE_ROUNDING_BOUND
from twostate.cli import main
from twostate.sampling import (
    _CHUNK_WORDS,
    _chunk_samples,
    _complex_normals,
    _draw_plan,
    _flat_dirichlet,
    _haar_rows,
    _overlaps,
    _sampled,
    _stick_bounds,
    _uniforms,
    _word_uniforms,
    _words,
)

from helpers import FOUR_SIGMA_ALPHA, assert_binomial, assign_over_basis, chunk_samples, haar_unitary, random_unitary, \
    uniform_overlap_states

E0 = StateVector.basis_state(2, 0)

# one-sample KS critical value at the 1% level, asymptotic form
KS_CRIT_1PC = 1.628


def ks_stat(samples, cdf):
    return stats.kstest(samples, cdf).statistic


def drawn_overlaps(dist, dim: int, stream: RngStream, lo: int, n: int, stick=None) -> np.ndarray:
    """The estimators' overlaps of samples ``[lo, lo + n)`` with all d outcomes, or with the outcomes
    ``stick`` broken off a stick: ``_overlaps`` of the stream's uniforms."""
    words = dim if stick is None else _draw_plan(dist, stick, dim)[1]
    return _overlaps(dist, dim, stick, _uniforms(stream, lo, n, words))


def fresh_pcg(stream: RngStream, output: int = 0) -> PCG64DXSM:
    """A new PCG64DXSM set to a stream's key and increment and advanced to its output ``output``."""
    bit_gen = PCG64DXSM()
    bit_gen.state = {"bit_generator": "PCG64DXSM", "has_uint32": 0, "uinteger": 0,
                     "state": {"state": sampling._stream_key(stream.seed, stream.stream_index),
                               "inc": sampling._STREAM_INC}}
    return bit_gen.advance(output)


def pcg_uniforms(stream: RngStream, n: int) -> list:
    """The first ``n`` uniforms of a stream, from its raw PCG64DXSM outputs: 32-bit halves, low half first."""
    outputs = fresh_pcg(stream).random_raw((n + 1) // 2).tolist()
    halves = [(word >> shift) & 0xFFFFFFFF for word in outputs for shift in (0, 32)]
    return [(h + 0.5) * 2.0**-32 for h in halves[:n]]


def forward_with_overlap(p: float, dim: int) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = np.sqrt(p)
    amps[1] = np.sqrt(1.0 - p)
    return StateVector(amps)


class TestRngStream:
    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            RngStream(-1)
        with pytest.raises(ValueError, match="64-bit"):
            RngStream(2**64)

    def test_rejects_out_of_range_stream_index(self):
        with pytest.raises(ValueError, match="stream index must be a 64-bit"):
            RngStream(1, 2**64)

    def test_sample_is_pure_function_of_index(self):
        # overlapping index ranges must yield bitwise-identical draws
        stream = RngStream(5, 3)
        block = haar_states(4, stream, 0, 10)
        tail = haar_states(4, stream, 5, 5)
        assert np.array_equal(block[5:], tail)

    def test_uniform_overlap_purity(self):
        a = StateVector.basis_state(4, 0)
        stream = RngStream(5, 3)
        block = uniform_overlap_states(a, stream, 0, 10)
        tail = uniform_overlap_states(a, stream, 7, 3)
        assert np.array_equal(block[7:], tail)

    def test_streams_are_independent(self):
        a = haar_states(3, RngStream(5, 0), 0, 4)
        b = haar_states(3, RngStream(5, 1), 0, 4)
        assert not np.allclose(a, b)


class TestWordExactAddressing:
    """A sample that uses w words owns words [i*w, (i+1)*w) of its stream's one sequence of 32-bit words."""

    # first words lo * w: odd (lo 1, 3, 5, 7 or 333 with odd w), on an output's high half, and even
    # (lo 0, or w 2, 6, 16 or 50), on a low half
    @pytest.mark.parametrize("words", [1, 2, 3, 5, 6, 7, 16, 50])
    @pytest.mark.parametrize("lo", [0, 1, 3, 5, 7, 333])
    def test_samples_are_consecutive_slices_of_one_word_stream(self, words, lo):
        stream = RngStream(11, 2)
        n = 9
        block = _uniforms(stream, lo, n, words)
        assert block.shape == (n, words)
        assert block.flags.c_contiguous
        flat = _uniforms(stream, 0, (lo + n) * words, 1).ravel()
        assert np.array_equal(block.ravel(), flat[lo * words:])
        assert block.ravel().tolist() == pcg_uniforms(stream, (lo + n) * words)[lo * words:]

    # a kernel's uniforms: `_word_uniforms` of the words `_sampled` hands it, in rows or in one contiguous
    # column per word as the stick's survivors are gathered, with first words lo * w at odd offsets (lo 1,
    # 3 or 333 with odd w, a high half) and even ones (a low half)
    @pytest.mark.parametrize("words", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("lo", [0, 1, 3, 333])
    def test_the_uniforms_of_the_words_are_the_rows(self, words, lo):
        stream, n = RngStream(11, 2), 9
        rows = _uniforms(stream, lo, n, words)
        h = _words(stream, lo, n, words).reshape(n, words)
        assert same_bits(_word_uniforms(h), rows)
        columns = _word_uniforms(np.ascontiguousarray(h.T)).T
        assert columns.flags.f_contiguous and same_bits(columns, rows)

    # the words the uniforms are made of: first words at odd offsets (high halves) and even ones (low halves)
    @pytest.mark.parametrize("words", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("lo", [0, 1, 3, 333])
    def test_each_uniform_is_its_word_offset_and_scaled(self, words, lo):
        stream, n = RngStream(11, 2), 9
        drawn = _words(stream, lo, n, words)
        assert drawn.dtype == np.uint32 and drawn.shape == (n * words,)
        expected = (drawn.astype(float) + 0.5) * 2.0**-32
        assert np.array_equal(expected.view(np.uint64), _uniforms(stream, lo, n, words).ravel().view(np.uint64))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("sampler", ["haar_states", "haar_unitary", "uniform_overlap_states"])
    def test_split_is_bit_identical_to_one_call(self, sampler, dim):
        # these samplers take an even number of words per sample, so each boundary falls between two
        # outputs; splits within an output are the odd first words of the tests above
        stream = RngStream(13, 4)
        draw = {
            "haar_states": lambda lo, n: haar_states(dim, stream, lo, n),
            "haar_unitary": lambda lo, n: np.stack([haar_unitary(dim, stream, i) for i in range(lo, lo + n)]),
            "uniform_overlap_states": lambda lo, n: uniform_overlap_states(
                StateVector.basis_state(dim, 0), stream, lo, n),
        }[sampler]
        whole = draw(0, 8)
        split = np.concatenate([draw(0, 1), draw(1, 2), draw(3, 5)])
        assert np.array_equal(whole, split)

    @pytest.mark.parametrize("words, expected", [
        (4, [[0xa9d60060, 0xe71cb2d6, 0xa4c74582, 0xdaff3229], [0xd5a40cfe, 0x5579dfb8, 0xaf13a9ec, 0x45450eb3]]),
        (16, [[0x76f92ec8, 0x8dcb13f1, 0x1d4060ef, 0x361dc40a], [0xa5042de8, 0x37ce9174, 0x678feb54, 0xfd693a5e]]),
    ])
    def test_pinned_rows_keep_their_words(self, words, expected):
        # the first four words of samples 5 and 6 of haar_states at d = 2 (4 words) and d = 8 (16
        # words): outputs 10-11 and 12-13, and 40-41 and 48-49, of the stream's PCG64DXSM, each
        # output two words, low half first
        stream = RngStream(7, 3)
        for sample, row in zip((5, 6), expected):
            outputs = fresh_pcg(stream, sample * words // 2).random_raw(2).tolist()
            assert [(output >> shift) & 0xFFFFFFFF for output in outputs for shift in (0, 32)] == row
        assert _words(stream, 5, 2, words).reshape(2, words)[:, :4].tolist() == expected
        uniforms = [[(h + 0.5) * 2.0**-32 for h in row] for row in expected]
        assert _uniforms(stream, 5, 2, words)[:, :4].tolist() == uniforms


class TestHaarState:
    def test_norms(self):
        states = haar_states(5, RngStream(1, 0), 0, 10_000)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-12

    def test_single_draw_matches_batch(self):
        batch = haar_states(3, RngStream(9, 2), 0, 4)
        assert np.array_equal(haar_state(3, RngStream(9, 2), 2).entries, batch[2])

    def test_qubit_overlap_uniform(self):
        # Haar marginal |<n|a>|^2 ~ Beta(1, d-1); at d=2 that is U(0,1)
        states = haar_states(2, RngStream(77, 0), 0, 10_000)
        q = np.abs(states @ E0.entries.conj()) ** 2
        assert ks_stat(q, "uniform") < KS_CRIT_1PC / np.sqrt(10_000)

    def test_qutrit_overlap_beta_marginal(self):
        states = haar_states(3, RngStream(77, 0), 0, 10_000)
        a = np.zeros(3, dtype=complex)
        a[0] = 1.0
        q = np.abs(states @ a.conj()) ** 2
        assert ks_stat(q, lambda x: 1 - (1 - x) ** 2) < KS_CRIT_1PC / np.sqrt(10_000)

    def test_invariant_under_fixed_unitary(self):
        # equivalently: the overlap with an arbitrary fixed state is still uniform
        rng = np.random.default_rng(4)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        q = np.abs(haar_states(2, RngStream(81, 0), 0, 10_000) @ v.conj()) ** 2
        assert ks_stat(q, "uniform") < KS_CRIT_1PC / np.sqrt(10_000)

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dimension"):
            haar_state(1, RngStream(0))


class TestBackwardUniformOverlap:
    def test_overlap_mean(self):
        a = E0
        states = uniform_overlap_states(a, RngStream(80, 0), 0, 100_000)
        u = np.abs(states @ a.entries.conj()) ** 2
        assert abs(u.mean() - 0.5) < 3.0 / np.sqrt(12 * 100_000)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_overlap_uniform_by_construction(self, dim):
        a = StateVector.basis_state(dim, 0)
        states = uniform_overlap_states(a, RngStream(78, 0), 0, 10_000)
        u = np.abs(states @ a.entries.conj()) ** 2
        assert ks_stat(u, "uniform") < KS_CRIT_1PC / np.sqrt(10_000)

    def test_outputs_are_states(self):
        states = uniform_overlap_states(E0, RngStream(3, 0), 0, 100)
        assert states.shape == (100, 2)
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0.0, atol=1e-12)


class TestOverlapLaw:
    """The estimators' overlap draws against overlaps of built states: ``haar_states``, and the
    reference ``uniform_overlap_states`` of tests/helpers.py."""

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    @pytest.mark.parametrize("full_basis", [False, True], ids=["k=1", "k=d"])
    def test_matches_state_space_overlaps(self, law, dim, full_basis):
        n = 20_000
        # rows: an orthonormal set whose first vector is the uniform-overlap target up to a phase
        outcomes = random_unitary(np.random.default_rng(dim), dim).T
        target = StateVector(np.exp(0.4j) * outcomes[0])
        if law == "haar":
            dist, states = HaarPure(), haar_states(dim, RngStream(90, 0), 0, n)
        else:
            dist, states = UniformOverlap(), uniform_overlap_states(target, RngStream(90, 0), 0, n)
        k = dim if full_basis else 1
        drawn = drawn_overlaps(dist, dim, RngStream(91, 0), 0, n, None if full_basis else [0])
        reference = np.abs(states.conj() @ outcomes[:k].T) ** 2
        assert drawn.shape == (n, k)
        # each marginal, and for k = d the largest overlap as one joint statistic
        columns = [(drawn[:, j], reference[:, j]) for j in range(k)]
        if full_basis:
            columns.append((drawn.max(axis=1), reference.max(axis=1)))
            assert np.max(np.abs(drawn.sum(axis=1) - 1.0)) <= RULE_ROUNDING_BOUND
        for j, (x, y) in enumerate(columns):
            assert stats.ks_2samp(x, y).pvalue > 1e-3 / len(columns), j

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_scan_overlaps_have_beta_marginals(self, dim):
        # exclusivity-scan's p (and q): every basis overlap of a Haar state is Beta(1, d - 1)
        n = 10_000
        p = _flat_dirichlet(_uniforms(RngStream(92, 1), 0, n, dim), dim)
        for j in range(dim):
            assert ks_stat(p[:, j], lambda x: 1 - (1 - x) ** (dim - 1)) < KS_CRIT_1PC / np.sqrt(n), j

    def test_block_is_pure_function_of_index(self):
        dist = UniformOverlap()
        block = drawn_overlaps(dist, 5, RngStream(5, 3), 0, 10)
        assert np.array_equal(block[6:], drawn_overlaps(dist, 5, RngStream(5, 3), 6, 4))


def _dirichlet_reference(u: np.ndarray, k: int) -> np.ndarray:
    """The flat Dirichlet coordinates as fresh arrays: log u over the row sum of the logs."""
    logs = np.log(u)
    return logs[:, :k] / np.einsum("ij->i", logs)[:, None]


def _stick_reference(u: np.ndarray, sticks: int, rest=1.0) -> np.ndarray:
    """The first ``u.shape[1]`` pieces of a stick of length ``rest`` broken into ``sticks`` flat
    Dirichlet pieces, as fresh arrays: the differences of the remainders
    ``rest * prod_i u_i ** (1 / (sticks - 1 - i))``."""
    shares = [u[:, j] ** (1 / (sticks - 1 - j)) for j in range(u.shape[1])]
    rem = np.cumprod(np.column_stack([np.broadcast_to(rest, len(u))] + shares), axis=1)
    return rem[:, :-1] - rem[:, 1:]


class TestOverlapBlockArithmetic:
    """The in-place overlap kernel computes bit for bit what fresh arrays compute."""

    @pytest.mark.parametrize("dim", [2, 3, 16])
    @pytest.mark.parametrize("law, full_basis", [("haar", False), ("haar", True), ("uniform-overlap", True)],
                             ids=["haar-k=1", "haar-k=d", "uniform-overlap-k=d"])
    def test_matches_the_fresh_array_formula(self, law, full_basis, dim):
        stream, lo, n = RngStream(17, 2), 5, 3000
        k = dim if full_basis else 1
        u = _uniforms(stream, lo, n, dim)
        if law == "haar" and k == 1:  # the one-candidate stick: inverse CDF of Beta(1, d - 1) on one word
            dist, expected = HaarPure(), 1 - _uniforms(stream, lo, n, 1) ** (1 / (dim - 1))
        elif law == "haar":
            dist, expected = HaarPure(), _dirichlet_reference(u, k)
        else:
            dist = UniformOverlap()
            q0 = u[:, :1]
            expected = np.concatenate([q0, (1.0 - q0) * _dirichlet_reference(u[:, 1:], k - 1)], axis=1)
        drawn = drawn_overlaps(dist, dim, stream, lo, n, None if full_basis else [0])
        assert drawn.shape == (n, k)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("law, dim, cand", [
        ("haar", 5, [1, 3]), ("haar", 16, [2, 9]), ("haar", 16, range(0, 16, 2)), ("haar", 12, range(1, 7)),
        ("uniform-overlap", 5, [2, 4]), ("uniform-overlap", 5, [0, 3]), ("uniform-overlap", 7, [1, 2, 3]),
    ])
    def test_stick_breaks_the_candidates_in_index_order(self, law, dim, cand):
        stream, lo, n = RngStream(18, 4), 3, 2000
        cand = list(cand)
        dist = HaarPure() if law == "haar" else UniformOverlap()
        u = _uniforms(stream, lo, n, _draw_plan(dist, cand, dim)[1])
        if law == "haar":
            expected = _stick_reference(u, dim)
        else:  # q_0 from the first word, whether or not it is a candidate, then the rest's stick
            q0 = u[:, :1]
            rest = _stick_reference(u[:, 1:], dim - 1, 1.0 - q0[:, 0])
            expected = np.concatenate([q0, rest], axis=1) if cand[0] == 0 else rest
        drawn = drawn_overlaps(dist, dim, stream, lo, n, cand)
        assert drawn.shape == (n, len(cand))
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    @pytest.mark.parametrize("stick", [[0], None], ids=["one-candidate", "all-d"])
    def test_builds_the_overlaps_in_their_uniforms(self, law, stick):
        dim, stream = 3, RngStream(19, 1)
        dist = HaarPure() if law == "haar" else UniformOverlap()
        k = dim if stick is None else len(stick)
        u = _uniforms(stream, 7, 200, k)  # one word per overlap under both laws
        drawn = _overlaps(dist, dim, stick, u)
        assert drawn.shape == (200, k)
        assert np.shares_memory(drawn, u)

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    def test_a_stick_is_never_broken_to_its_last_piece(self, law):
        # the last of a stick's pieces would take the power 1/0: the estimators break a stick while at
        # least one of its pieces stays unbroken up to d = 32, and two above it, where the survivors of
        # the last piece but one cost more than the flat draw; they draw all d overlaps flat otherwise,
        # and a lone target, every born-mc point, is the one-candidate stick of one word
        dist = HaarPure() if law == "haar" else UniformOverlap()
        for dim in range(2, 67):
            assert _draw_plan(dist, [0], dim) == ([0], 1)
            sticks, left = (dim if law == "haar" else dim - 1), (1 if dim <= 32 else 2)
            for s in range(1, dim + 1):
                for cand in (list(range(s)), list(range(dim - s, dim))):
                    on_stick = s if law == "haar" else np.count_nonzero(cand)
                    stick, words = _draw_plan(dist, cand, dim)
                    if stick is not None:
                        assert stick == cand and sticks - on_stick >= left, (dim, cand)
                        assert words == dim - (sticks - on_stick), (dim, cand)
                    else:
                        assert sticks - on_stick < left and words == dim, (dim, cand)


class TestExtremeWords:
    """Words 0 and 2**32 - 1 give uniforms strictly inside (0, 1), so every transform stays finite."""

    @staticmethod
    def constant_outputs(monkeypatch, output: int) -> list:
        """Make every generator output of ``_uniforms`` equal ``output``; returns the output counts drawn."""
        drawn = []

        def constant(stream, first, n):
            drawn.append(n)
            return np.full(n, output, dtype=np.uint64)

        monkeypatch.setattr(sampling, "_pcg_outputs", constant)
        return drawn

    def test_words_map_to_the_extreme_uniforms(self, monkeypatch):
        drawn = self.constant_outputs(monkeypatch, 0xFFFFFFFF_00000000)  # words 0 and 2**32 - 1, low half first
        bottom, top = 2.0**-33, 1.0 - 2.0**-33
        assert _uniforms(RngStream(3), 0, 1, 4).tolist() == [[bottom, top, bottom, top]]
        # sample 1 of 3 words starts at word 3, on a high half
        assert _uniforms(RngStream(3), 1, 2, 3).tolist() == [[top, bottom, top], [bottom, top, bottom]]
        assert drawn == [2, 4]  # words 0-3; words 2-9, of which 3-8 are used

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_a_row_of_top_words_gives_a_finite_dirichlet_point(self, monkeypatch, dim):
        drawn = self.constant_outputs(monkeypatch, 2**64 - 1)
        point = _flat_dirichlet(_uniforms(RngStream(3), 0, 4, dim), dim)
        assert drawn == [2 * dim]
        assert np.isfinite(point).all() and (point > 0.0).all()
        assert np.max(np.abs(point.sum(axis=1) - 1.0)) <= RULE_ROUNDING_BOUND

    @pytest.mark.parametrize("dim", [2, 3, 16, 512])
    def test_haar_overlap_and_box_muller_radius_stay_in_range(self, monkeypatch, dim):
        drawn = self.constant_outputs(monkeypatch, 0xFFFFFFFF_00000000)
        q = _overlaps(HaarPure(), dim, [0], _uniforms(RngStream(3), 0, 2, 1))  # words 0, then 2**32 - 1
        assert np.isfinite(q).all() and 0.0 <= q.min() and q[0, 0] < 1.0 and q.max() <= 1.0
        radius = np.abs(_complex_normals(_uniforms(RngStream(3), 0, 1, 4)))  # both radius words are 0
        assert np.all(radius < 6.77)  # sqrt(-2 log 2**-33) = 6.7637
        assert drawn == [1, 2]
        drawn = self.constant_outputs(monkeypatch, 2**64 - 1)
        radius = np.abs(_complex_normals(_uniforms(RngStream(3), 0, 1, 4)))  # both radius words are 2**32 - 1
        assert np.all(radius >= 2.0**-16)
        states = haar_states(dim, RngStream(3), 0, 2)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-12
        assert drawn == [2, 2 * dim]


def fresh_uniforms(stream: RngStream, first_sample: int, count: int, words: int) -> np.ndarray:
    """``_uniforms`` rows from a freshly built PCG64DXSM advanced to the output of the first word."""
    first_word, n_words = first_sample * words, count * words
    output, skip = divmod(first_word, 2)
    outputs = fresh_pcg(stream, output).random_raw((skip + n_words + 1) // 2).tolist()
    halves = [(output >> shift) & 0xFFFFFFFF for output in outputs for shift in (0, 32)]
    return np.array([(h + 0.5) * 2.0**-32 for h in halves[skip:skip + n_words]]).reshape(count, words)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestThreadGenerator:
    """Each thread draws through one PCG64DXSM whose state it sets per draw, with a fresh generator's outputs."""

    # (first sample, words per sample): outputs 0-3 whole; the high half of output 1; the high half of
    # output 2; the low half of output 3; the high half of output 4
    STARTS = [(0, 8), (1, 3), (5, 1), (3, 2), (3, 3)]

    @pytest.mark.parametrize("first_sample, words", STARTS)
    def test_rows_match_a_fresh_generator_after_another_stream(self, first_sample, words):
        stream, other = RngStream(61, 2), RngStream(2**64 - 1, 7)
        _uniforms(other, 10**6 + 3, 5, 3)  # leaves the thread's generator on another key and output
        bit_gen = sampling._THREAD.pcg
        assert same_bits(_uniforms(stream, first_sample, 37, words), fresh_uniforms(stream, first_sample, 37, words))
        assert sampling._THREAD.pcg is bit_gen

    @pytest.mark.parametrize("first_sample, words", [
        (2**67 + 5, 1),  # output 2**66 + 2, its high half
        (2**65 - 1, 1),  # from the high half of output 2**64 - 1 into output 2**64
        (2**65 // 3, 3),  # from the low half of output 2**64 - 1 into output 2**64
        (2**100 + 3, 8),  # an output beyond 2**100
        (2**127 - 4, 4),  # the period's last eight outputs: the last word is word 2**129 - 1
    ])
    def test_outputs_beyond_64_bits_match_a_fresh_generator(self, first_sample, words):
        stream = RngStream(67, 3)
        assert ((first_sample + 4) * words - 1) // 2 >= 2**64  # the last word lies beyond output 2**64 - 1
        assert same_bits(_uniforms(stream, first_sample, 4, words), fresh_uniforms(stream, first_sample, 4, words))

    @pytest.mark.parametrize("first_sample, count", [(2**127 + 1, 1), (2**127 - 1, 2), (-1, 1)])
    def test_an_output_outside_the_period_is_rejected(self, first_sample, count):
        # four words per sample, two outputs: the draw's outputs run past 2**128 - 1, or start below 0
        with pytest.raises(ValueError, match="period"):
            _uniforms(RngStream(67), first_sample, count, 4)

    def test_the_period_ends_at_the_last_output(self):
        # haar_states at d = 2 takes four words, two outputs, per sample: sample 2**127 - 1 holds
        # outputs 2**128 - 2 and 2**128 - 1, the last of the period; sample 2**127 would hold output 2**128
        stream, last = RngStream(73, 5), 2**127 - 1
        fresh = _haar_rows(fresh_uniforms(stream, last, 1, 4))
        assert np.array_equal(haar_states(2, stream, last, 1), fresh)
        assert np.array_equal(haar_states(2, stream, last - 2, 3)[2], fresh[0])
        state = sampling._THREAD.pcg.state
        with pytest.raises(ValueError, match="period"):
            haar_states(2, stream, last + 1, 1)
        with pytest.raises(ValueError, match="period"):
            haar_states(2, stream, last - 2, 4)
        assert sampling._THREAD.pcg.state == state  # rejected before the draw: the generator is where it was

    def test_threads_build_their_generator_on_first_draw_and_interleave_freely(self):
        # two threads take turns: each draw follows one of the other thread's, on another stream
        turns, results, errors = threading.Barrier(2), {}, []

        def draw(name: str, stream: RngStream, first: bool):
            try:
                assert not hasattr(sampling._THREAD, "pcg")  # nothing is built before a thread's first draw
                rows = []
                for step, (first_sample, words) in enumerate(self.STARTS * 2):
                    if (step % 2 == 0) == first:
                        rows.append((first_sample, words, _uniforms(stream, first_sample, 29, words)))
                    turns.wait()
                results[name] = (sampling._THREAD.pcg, rows)
            except Exception as exc:  # a failed assertion in a thread is reported by the test's thread
                errors.append(exc)
                turns.abort()

        streams = {"a": RngStream(71, 0), "b": RngStream(71, 1)}
        threads = [threading.Thread(target=draw, args=(name, streams[name], name == "a")) for name in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results["a"][0] is not results["b"][0]
        for name, (_, rows) in results.items():
            assert len(rows) == len(self.STARTS)
            for first_sample, words, row in rows:
                assert same_bits(row, fresh_uniforms(streams[name], first_sample, 29, words))


class TestDefaultChunks:
    def test_chunks_are_sized_by_words(self):
        assert _chunk_samples(1) == 2**15  # the word budget
        assert _chunk_samples(4) == 8192
        assert _chunk_samples(16) == 2048
        assert _chunk_samples(2**16) == 1  # a sample above the budget still gets a chunk


def run_recorded(draws, n_samples: int, workers: int = 1) -> list:
    """``_sampled`` with a block that returns, per chunk, its thread and the word arrays it got, folded
    into one list in chunk order. The arrays are kept as they came: a kernel may keep its words."""
    return _sampled(lambda *words: [(threading.get_ident(), words)], n_samples, draws, workers,
                    reduce=lambda a, b: a + b)


def assert_chunk_words(words: list, draws, lo: int) -> int:
    """Assert that a chunk's block got, per draw, the draw's 32-bit words of the chunk's samples from
    ``lo`` on, one row per sample: ``_words(stream, lo, count, w)`` as a ``(count, w)`` uint32 array.
    Returns the chunk's sample count."""
    count = len(words[0])
    for (stream, w), h in zip(draws, words):
        assert h.dtype == np.uint32 and h.shape == (count, w) and h.flags.c_contiguous
        assert np.array_equal(h, _words(stream, lo, count, w).reshape(count, w))
    return count


class TestChunkWords:
    """``_sampled`` hands each kernel, per draw, its chunk's 32-bit words; the public samplers return fresh arrays."""

    def test_public_sampler_results_never_alias(self):
        stream, target = RngStream(23, 0), StateVector.basis_state(3, 0)
        draws = [
            haar_states(3, stream, 0, 50), haar_states(3, stream, 0, 50),
            uniform_overlap_states(target, stream, 0, 50), uniform_overlap_states(target, stream, 0, 50),
            haar_unitary(3, stream, 0), haar_unitary(3, stream, 0),
        ]
        for i, a in enumerate(draws):
            for b in draws[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("n_draws", [1, 2, 3, 4])
    def test_each_draw_gets_its_words_chunk_after_chunk(self, n_draws):
        draws = [(RngStream(43, k), 2 * k + 1) for k in range(n_draws)]  # 1, 3, 5 and 7 words
        n = 3 * _chunk_samples(sum(words for _, words in draws)) + 5
        calls = run_recorded(draws, n) + run_recorded(draws, n)  # chunk after chunk, call after call
        lo = 0
        for ident, words in calls:
            assert ident == threading.get_ident()
            lo = (lo + assert_chunk_words(words, draws, lo)) % n
        assert len(calls) == 8 and lo == 0

    def test_pool_threads_get_the_same_words(self):
        draws = [(RngStream(47, 0), 4), (RngStream(47, 1), 4)]
        n = 6 * _chunk_samples(8) + 3
        calls = run_recorded(draws, n, workers=2)
        lo = 0
        for ident, words in calls:
            assert ident != threading.get_ident()
            lo += assert_chunk_words(words, draws, lo)
        assert len(calls) == 7 and lo == n

    def test_pool_memory_stays_flat_in_the_chunk_count(self):
        # 20000 one-sample chunks: the driver holds no per-chunk bound or result while the pool runs
        with chunk_samples(1):
            tracemalloc.start()
            try:
                assert _sampled(lambda h: int(h.sum()), 20_000, [(RngStream(61, 0), 1)], workers=2) > 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20

    def test_an_explicit_chunk_beyond_the_word_budget_gets_its_words(self):
        draws = [(RngStream(53, 0), 4), (RngStream(53, 1), 4)]
        n = _CHUNK_WORDS // 8 + 1
        with chunk_samples(n):
            ((_, words),) = run_recorded(draws, n)
        assert assert_chunk_words(words, draws, 0) == n

    def test_a_sample_wider_than_the_word_budget_gets_a_chunk_of_its_own(self):
        # the default chunks reach this: exclusivity-scan at dim 16385 draws 2 * 16385 words per sample
        draws = [(RngStream(59, 0), _CHUNK_WORDS + 1)]
        calls = run_recorded(draws, 3)
        assert len(calls) == 3  # one sample per chunk
        for lo, (_, words) in enumerate(calls):
            assert assert_chunk_words(words, draws, lo) == 1

    @pytest.mark.parametrize("law, weights, stick", [
        ("haar", [5, 0, 3, 0, 0, 2, 0, 0], True),
        ("uniform-overlap", [5, 0, 3, 0, 0, 2, 0, 0], True),
        ("haar", [1] * 8, False),  # full support: all d overlaps, flat Dirichlet rows
    ], ids=["haar-stick", "uniform-overlap-stick", "haar-flat"])
    def test_a_draw_gets_its_words_and_makes_uniforms_where_it_needs_them(self, law, weights, stick, monkeypatch):
        # three of eight candidates are stick-broken, three words per sample under either law: the
        # block makes uniforms of its survivors' words alone; the flat draw makes them of all its words
        calls, made, sampled, word_uniforms = [], [], sampling._sampled, sampling._word_uniforms

        def recording(block, *args, **kwargs):
            def recorded(*drawn):
                result = block(*drawn)
                calls.append((drawn, result))
                return result
            return sampled(recorded, *args, **kwargs)

        def making(h):
            made.append(h.copy())
            return word_uniforms(h)

        monkeypatch.setattr(sampling, "_sampled", recording)
        monkeypatch.setattr(sampling, "_word_uniforms", making)
        dist = HaarPure() if law == "haar" else UniformOverlap()
        words = 3 if stick else 8
        fwd = forward_with_weights(weights)
        basis_mc(fwd, OrthonormalBasis(np.eye(8)), dist, 3 * _chunk_samples(words) + 5, 7)
        assert len(calls) == 4
        for (h,), result in calls:
            assert h.dtype == np.uint32 and h.shape[1] == words
            assert not np.shares_memory(result, h)
        if not stick:
            assert len(made) == len(calls) and all(np.array_equal(u, h) for u, ((h,), _) in zip(made, calls))
            return
        p = np.abs(fwd.entries) ** 2
        cand = [0, 2, 5]
        fire, band, tops = _stick_bounds(dist, 8, cand, p[cand].tolist(), 0.0)
        survivors = []
        for (h,), _ in calls:
            undecided = (h[:, 1:] < np.array(tops)).any(axis=1)
            if law == "haar":
                undecided |= (h[:, 0] >= fire) & (h[:, 0] < band)
            if undecided.any():  # a chunk whose every sample the bounds decide makes no uniform
                survivors.append(h[undecided].T)
        assert survivors  # some later word lies below its top
        assert len(made) == len(survivors) and all(map(np.array_equal, made, survivors))

    @pytest.mark.parametrize("estimator", ["born-mc", "basis-mc-target-alone"])
    def test_a_one_word_uniform_overlap_draw_gets_its_words(self, estimator, monkeypatch):
        # q_0 alone, one word per sample: the block gets the 32-bit words, and no uniform is made
        calls, sampled = [], sampling._sampled

        def recording(block, *args, **kwargs):
            def recorded(*words):
                result = block(*words)
                calls.append((words, result))
                return result
            return sampled(recorded, *args, **kwargs)

        monkeypatch.setattr(sampling, "_sampled", recording)
        floats = []
        monkeypatch.setattr(sampling, "_uniforms", lambda *args: floats.append(args))
        monkeypatch.setattr(sampling, "_word_uniforms", lambda *args: floats.append(args))
        n = 3 * _chunk_samples(1) + 5
        if estimator == "born-mc":
            born_mc([forward_with_overlap(0.6, 4)], StateVector.basis_state(4, 0), UniformOverlap(), n, 7)[0]
        else:  # outcome 1 cannot fire: 0.2 + 1 is below 1 + tie_tol
            basis_mc(forward_with_weights([8, 2, 0]), OrthonormalBasis(np.eye(3)), UniformOverlap(), n, 7,
                     tie_tol=0.25)
        assert floats == [] and len(calls) == 4
        for (h,), result in calls:
            assert h.dtype == np.uint32 and h.shape[1] == 1
            assert not np.shares_memory(result, h)

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_tallies_do_not_depend_on_workers_or_chunks(self, law, dim):
        n = 7001
        basis = OrthonormalBasis(np.eye(dim))
        fwd = StateVector(np.sqrt(np.linspace(1.0, 2.0, dim) / np.linspace(1.0, 2.0, dim).sum()).astype(complex))
        dist = HaarPure() if law == "haar" else UniformOverlap()
        runs = set()
        for workers in (1, 3):
            for chunk in (None, 7, 997, 4096, 10**5):
                with chunk_samples(chunk) if chunk else nullcontext():
                    runs.add((
                        born_mc([fwd], StateVector.basis_state(dim, 0), dist, n, seed=31, workers=workers)[0],
                        basis_mc(fwd, basis, dist, n, seed=31, workers=workers),
                    ))
        assert len(runs) == 1


def recorded_draws(monkeypatch) -> list:
    """Make every draw of words (``_words``, which every draw of uniforms makes too) as before,
    recording its words per sample."""
    draws, draw = [], sampling._words

    def recording(stream, first_sample, count, words_per_sample):
        draws.append(words_per_sample)
        return draw(stream, first_sample, count, words_per_sample)

    monkeypatch.setattr(sampling, "_words", recording)
    return draws


def forward_with_weights(weights) -> StateVector:
    amps = np.sqrt(np.asarray(weights, dtype=float) / np.sum(weights))
    return StateVector(amps * np.exp(1j * np.arange(len(amps))))


def uniform_overlap_rate(p: float, outcome: int, dim: int, tie_tol: float = 0.0) -> float:
    """The uniform-overlap law's firing rate at the forward weight p, with c = 1 + tie_tol - p: P[q_0 > c] = 1 - c
    for the target; for another outcome P[(1 - q_0) B > c], B ~ Beta(1, d - 2) (B = 1 at d = 2), which is the
    integral of (1 - c/v)**(d - 2) over v in (c, 1), summed term by term. The terms alternate and cancel as d
    grows: at d = 8 the sum agrees with quadrature to 1e-9 of the rate, at d = 16 only to 1e-4."""
    c = 1.0 + tie_tol - p
    if c >= 1.0:
        return 0.0
    m = 0 if outcome == 0 else dim - 2
    rate = 1.0 - c + (m * c * np.log(c) if c > 0.0 else 0.0)
    return rate + sum(math.comb(m, k) * (-1) ** k * (c - c**k) / (k - 1) for k in range(2, m + 1))


class TestCandidates:
    """The estimators draw and tally only the outcomes whose rule fires at an overlap of 1."""

    @pytest.mark.parametrize("tie_tol", [0.0, 0.01, 0.25])
    def test_an_outcome_is_drawn_exactly_when_it_fires_at_an_overlap_of_one(self, tie_tol, monkeypatch):
        threshold = 1.0 + tie_tol + RULE_ROUNDING_BOUND
        neighbours = [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 2.0)]
        neighbours.append(np.nextafter(neighbours[-1], 2.0))
        for top in neighbours:
            amp = np.sqrt(top - 1.0)
            fwd = StateVector(np.array([amp, np.sqrt(1.0 - amp * amp), 0.0], dtype=complex))
            assert abs(amp) ** 2 + 1.0 == top  # the outcome's largest rule sum is this neighbour
            draws = recorded_draws(monkeypatch)
            est = born_mc([fwd], StateVector.basis_state(3, 0), HaarPure(), 64, seed=3, tie_tol=tie_tol)[0]
            assert draws == ([1] if top > threshold else []), top
            assert est.frequency == 0.0  # no overlap of 64 samples comes within 2**-33 of 1

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    def test_outcomes_that_cannot_fire_count_exactly_zero(self, law, monkeypatch):
        dist = HaarPure() if law == "haar" else UniformOverlap()
        n, tie_tol = 30_000, 0.02
        weights = [0.0, 0.495, 0.0, 0.0, 0.495, 0.0, 0.01, 0.0]  # outcome 6 cannot fire: 0.01 + 1 < 1 + tie_tol
        # outcomes 1 and 4 fire at the closed-form rates 5.5e-3 (Haar, (p - tie_tol)**7) and 1.2e-3 (uniform
        # overlap): at least 36 expected samples each, so the > 0 checks fail with probability below 2 e**-36
        rate = (weights[4] - tie_tol) ** 7 if law == "haar" else uniform_overlap_rate(weights[4], 4, 8, tie_tol)
        assert rate * n >= 36
        draws = recorded_draws(monkeypatch)
        result = basis_mc(forward_with_weights(weights), OrthonormalBasis(np.eye(8)), dist, n, seed=4,
                          tie_tol=tie_tol)
        freqs = result.frequencies()
        assert set(draws) == ({2} if law == "haar" else {3})  # outcomes 1 and 4 (and q_0 of uniform overlap)
        assert (freqs[[0, 2, 3, 5, 6, 7]] == 0.0).all() and (freqs[[1, 4]] > 0.0).all()
        assert freqs.sum() + result.no_assign_rate == 1.0

    def test_a_call_with_no_candidate_draws_nothing(self, monkeypatch):
        draws = recorded_draws(monkeypatch)
        est = born_mc([forward_with_overlap(0.0, 3)], StateVector.basis_state(3, 0), HaarPure(), 5000, seed=1)[0]
        assert est == sampling.BornEstimate(0.0, 0.0, 5000)
        spread = forward_with_weights([1.0, 1.0, 1.0, 1.0])  # every weight 1/4: nothing fires above 1.8
        result = basis_mc(spread, OrthonormalBasis(np.eye(4)), UniformOverlap(), 5000, seed=1, tie_tol=0.8)
        assert result.frequencies().tolist() == [0.0] * 4 and result.no_assign_rate == 1.0
        assert draws == []
        with pytest.raises(ValueError, match="sample count"):
            born_mc([forward_with_overlap(0.0, 3)], StateVector.basis_state(3, 0), HaarPure(), 0, seed=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_mc([forward_with_overlap(0.0, 3)], E0, HaarPure(), 10, seed=1)
        assert draws == []


class TestBornGrid:
    """``born_mc`` scores every forward state of a grid against one set of sampled backward states."""

    def test_a_three_point_run_draws_once_per_chunk(self, tmp_path, monkeypatch):
        draws = recorded_draws(monkeypatch)
        n = 3 * _chunk_samples(1) + 5
        argv = ["born-mc", "--dim", "4", "--samples", str(n), "--seed", "7", "--p-grid", "0.2,0.5,0.9", "--no-timing",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 0
        assert draws == [1] * 4  # four chunks of one word per sample, shared by the three points

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    def test_a_point_that_cannot_fire_draws_nothing_and_moves_no_other_point(self, law, monkeypatch):
        dist, target, n = HaarPure() if law == "haar" else UniformOverlap(), StateVector.basis_state(3, 0), 5000
        points = [forward_with_overlap(p, 3) for p in (0.4, 0.8)]
        nothing = sampling.BornEstimate(0.0, 0.0, n)
        draws = recorded_draws(monkeypatch)
        assert born_mc([forward_with_overlap(0.0, 3)] * 3, target, dist, n, seed=2) == [nothing] * 3
        assert draws == []
        alone = born_mc(points, target, dist, n, seed=2)
        assert born_mc([forward_with_overlap(0.0, 3), *points], target, dist, n, seed=2) == [nothing, *alone]
        assert draws == [1, 1]

    def test_an_empty_grid_raises(self, monkeypatch):
        draws = recorded_draws(monkeypatch)
        for dist in (UniformOverlap(), HaarPure(), Fixed(E0)):
            with pytest.raises(ValueError, match="no forward state"):
                born_mc([], E0, dist, 10, seed=1)
        assert draws == []

    def test_rows_that_can_fire_share_their_candidates(self):
        # one draw plan serves every row: rows of a basis whose candidates differ cannot share it
        rows = [forward_with_weights([1, 1, 0]), forward_with_weights([1, 0, 1])]  # candidates [0, 1], then [0, 2]
        with pytest.raises(ValueError, match="share their candidate outcomes"):
            sampling._rule_tallies(rows, np.eye(3, dtype=complex), HaarPure(), 10, 1, 0.0, 0, 1)


class TestStickBrokenLaw:
    """Overlaps broken off a stick one at a time have the flat Dirichlet's law (neutrality)."""

    @pytest.mark.parametrize("dim, pieces", [(3, 2), (5, 2), (5, 4), (16, 2), (16, 8)])
    def test_haar_pieces_are_beta_and_a_pair_sums_to_beta_two(self, dim, pieces):
        n = 20_000
        q = _uniforms(RngStream(93, 1), 0, n, pieces)
        sampling._break_stick(q, dim)
        columns = [(q[:, j], stats.beta(1, dim - 1).cdf) for j in range(pieces)]
        columns.append((q[:, 0] + q[:, -1], stats.beta(2, dim - 2).cdf))
        for j, (x, cdf) in enumerate(columns):
            assert stats.kstest(x, cdf).pvalue > 1e-3 / len(columns), j

    @pytest.mark.parametrize("dim, cand", [(3, [0, 1]), (3, [2]), (5, [0, 2, 4]), (5, [1, 3]), (16, [0, 3, 7]),
                                           (16, [5, 9, 12, 15])])
    def test_uniform_overlap_candidates_match_the_flat_dirichlet_draw(self, dim, cand):
        n = 20_000
        dist = UniformOverlap()
        assert _draw_plan(dist, cand, dim)[0] == cand
        drawn = drawn_overlaps(dist, dim, RngStream(94, 0), 0, n, cand)
        flat = drawn_overlaps(dist, dim, RngStream(95, 0), 0, n)[:, cand]  # all d overlaps, drawn flat
        columns = [(drawn[:, j], flat[:, j]) for j in range(len(cand))]
        columns.append((drawn[:, 0] + drawn[:, -1], flat[:, 0] + flat[:, -1]))
        for j, (x, y) in enumerate(columns):
            assert stats.ks_2samp(x, y).pvalue > 1e-3 / len(columns), j

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_candidate_set_of_a_small_basis_draws_overlaps_in_range(self, law, dim):
        # every nonempty set of outcomes with forward weight: stick-broken while at least one of the
        # stick's pieces stays unbroken, flat otherwise, and each rate at its law's closed form
        n, dist = 40_000, HaarPure() if law == "haar" else UniformOverlap()
        for support in range(1, 2**dim):
            cand = np.array([j for j in range(dim) if support >> j & 1])
            stick = _draw_plan(dist, cand.tolist(), dim)[0]
            drawn = drawn_overlaps(dist, dim, RngStream(96), 0, 500, stick)
            assert np.isfinite(drawn).all() and (drawn >= 0.0).all() and (drawn <= 1.0).all()
            weights = np.zeros(dim)
            weights[cand] = np.arange(cand.size, 0, -1)
            p = weights / weights.sum()
            freqs = basis_mc(forward_with_weights(weights), OrthonormalBasis(np.eye(dim)), dist, n,
                             seed=support).frequencies()
            for k in range(dim):
                rate = p[k] ** (dim - 1) if law == "haar" else uniform_overlap_rate(p[k], k, dim)
                sigma = np.sqrt(rate * (1.0 - rate) / n)
                assert abs(freqs[k] - rate) <= 5 * sigma + 1e-12, (cand, k, freqs[k], rate)


class TestBornMc:
    def test_uniform_overlap_recovers_p(self):
        p = 0.7
        est = born_mc([forward_with_overlap(p, 2)], E0, UniformOverlap(), 100_000, seed=42)[0]
        assert_binomial(round(est.frequency * est.samples), est.samples, p, FOUR_SIGMA_ALPHA)

    def test_fixed_backward_is_deterministic(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        est = born_mc([E0], E0, Fixed(plus), 1000, seed=0)[0]
        assert est.frequency == 1.0  # 1 + 1/2 > 1 for every sample
        est2 = born_mc([E0], StateVector.basis_state(2, 1), Fixed(plus), 1000, seed=0)[0]
        assert est2.frequency == 0.0  # 0 + 1/2 < 1

    def test_haar_qutrit_matches_beta_tail(self):
        p = 0.5
        est = born_mc([forward_with_overlap(p, 3)], StateVector.basis_state(3, 0),
                      HaarPure(), 100_000, seed=7)[0]
        assert_binomial(round(est.frequency * est.samples), est.samples, p**2, FOUR_SIGMA_ALPHA)

    def test_std_err_formula(self):
        est = born_mc([forward_with_overlap(0.3, 2)], E0, UniformOverlap(), 5000, seed=1)[0]
        expected = np.sqrt(est.frequency * (1 - est.frequency) / est.samples)
        assert abs(est.std_err - expected) <= 1e-12

    def test_deterministic_rerun(self):
        args = ([forward_with_overlap(0.4, 2)], E0, UniformOverlap(), 30_000)
        assert born_mc(*args, seed=9) == born_mc(*args, seed=9)

    def test_worker_count_does_not_change_result(self):
        args = ([forward_with_overlap(0.4, 2)], E0, HaarPure(), 50_000)
        single = born_mc(*args, seed=9, workers=1)
        pooled = born_mc(*args, seed=9, workers=8)
        assert single == pooled

    def test_chunk_size_does_not_change_result(self):
        args = ([forward_with_overlap(0.4, 2)], E0, HaarPure(), 30_000)
        with chunk_samples(997):
            a = born_mc(*args, seed=9)
        with chunk_samples(16384):
            b = born_mc(*args, seed=9)
        assert a == b

    def test_global_phase_invariance(self):
        fwd = forward_with_overlap(0.7, 2)
        base = born_mc([fwd], E0, UniformOverlap(), 20_000, seed=123)[0]
        fwd_rot = StateVector(np.exp(0.9j) * fwd.entries)
        target_rot = StateVector(np.exp(-1.3j) * E0.entries)
        rot = born_mc([fwd_rot], target_rot, UniformOverlap(), 20_000, seed=123)[0]
        assert base.frequency == rot.frequency

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError, match="sample count"):
            born_mc([E0], E0, HaarPure(), 0, seed=1)

    def test_rejects_a_fixed_state_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch: fixed state 3 vs 2"):
            born_mc([E0], E0, Fixed(StateVector.basis_state(3, 0)), 10, seed=1)

    def test_the_exact_binomial_check_rejects_its_tails_alone(self):
        # at n = 20, p = 1/2: P[X <= 3] = P[X >= 17] = 1351 / 2**20 = 1.3e-3, P[X <= 4] = P[X >= 16] = 5.9e-3
        for count in (4, 10, 16):
            assert_binomial(count, 20, 0.5, 0.01)
        for count in (3, 17):
            with pytest.raises(AssertionError):
                assert_binomial(count, 20, 0.5, 0.01)
        assert_binomial(0, 100, 0.0, FOUR_SIGMA_ALPHA)
        assert_binomial(100, 100, 1.0, FOUR_SIGMA_ALPHA)
        with pytest.raises(AssertionError):
            assert_binomial(1, 100, 0.0, FOUR_SIGMA_ALPHA)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_four_sigma_coverage_across_seeds(self, dim):
        # over 100 independent seeds per p, at most one run may land outside
        # the 4-sigma band (the binomial tail allows ~0.006 expected misses)
        target = StateVector.basis_state(dim, 0)
        for p in [round(0.1 * k, 10) for k in range(1, 10)]:
            fwd = forward_with_overlap(p, dim)
            within = 0
            for seed in range(100):
                est = born_mc([fwd], target, UniformOverlap(), 10_000, seed=seed)[0]
                if abs(est.frequency - p) <= 4 * est.std_err:
                    within += 1
            assert within >= 99, (dim, p, within)


class TestBasisMc:
    def test_fixed_matching_backward(self):
        basis = OrthonormalBasis(np.eye(3))
        fwd = StateVector.basis_state(3, 0)
        result = basis_mc(fwd, basis, Fixed(fwd), 1000, seed=0)
        assert result.frequencies().tolist() == [1.0, 0.0, 0.0]
        assert result.no_assign_rate == 0.0

    def test_qubit_z_basis_haar(self):
        # Analytic oracle from the uniform overlap marginal q ~ U(0,1):
        # outcome 0 fires iff 1 + q > 1 (almost surely), outcome 1 iff
        # (1 - q) > 1 (never), so the frequencies are (1, 0) and nothing
        # is left unassigned. A 1e7-draw reference run of the marginal
        # reproduces the same numbers.
        result = basis_mc(E0, OrthonormalBasis(np.eye(2)), HaarPure(), 100_000, seed=55)
        assert result.frequencies().tolist() == [1.0, 0.0]
        assert result.no_assign_rate == 0.0
        assert result.conditional_frequencies()[0] == 1.0

    def test_tilted_basis_reproduces_born_weight(self):
        theta = np.deg2rad(60)
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        basis = OrthonormalBasis(np.array([[c, s], [-s, c]], dtype=complex))
        result = basis_mc(E0, basis, HaarPure(), 100_000, seed=60)
        conditional = result.conditional_frequencies()
        oracle = np.cos(np.deg2rad(30)) ** 2  # 0.75
        assert abs(conditional[0] - oracle) <= 4 * result.estimates[0].std_err

    def test_frequencies_and_no_assign_sum_to_one(self):
        fwd = StateVector(np.sqrt(np.array([0.5, 0.3, 0.2])).astype(complex))
        result = basis_mc(fwd, OrthonormalBasis(np.eye(3)), HaarPure(), 50_000, seed=61)
        total = result.frequencies().sum() + result.no_assign_rate
        assert abs(total - 1.0) <= 1e-12
        assert result.no_assign_rate > 0.5  # most qutrit samples assign nothing

    def test_worker_count_does_not_change_result(self):
        fwd = StateVector(np.sqrt(np.array([0.5, 0.3, 0.2])).astype(complex))
        basis = OrthonormalBasis(np.eye(3))
        a = basis_mc(fwd, basis, HaarPure(), 30_000, seed=8, workers=1)
        b = basis_mc(fwd, basis, HaarPure(), 30_000, seed=8, workers=8)
        assert a == b


class TestExclusivityScan:
    @pytest.mark.parametrize("tie_tol", [0.0, 0.05])
    def test_matches_per_sample_reference(self, tie_tol):
        # the batched scan against one assign_over_basis call per sample: real
        # states whose computational-basis overlaps are the flat Dirichlet
        # points of the same uniforms
        dim, samples, seed = 4, 300, 11
        bmat = np.eye(dim)

        def overlap_state(stream, i):
            logs = np.log(_uniforms(stream, i, 1, dim)[0])
            return np.sqrt(logs / logs.sum())

        fwd, bwd = RngStream(seed, 1), RngStream(seed, 2)
        assigned = 0
        for i in range(samples):
            assigned += assign_over_basis(overlap_state(fwd, i), overlap_state(bwd, i), bmat, tie_tol) is not None
        tallies = exclusivity_scan(dim, samples, seed, tie_tol)
        assert tallies.shape == (dim + 2,)
        assert (int(tallies[:-2].sum()), int(tallies[-2]), int(tallies[-1])) == (assigned, samples - assigned, 0)

    @pytest.mark.parametrize("dim, samples", [(1, 10), (2, 0)])
    def test_rejects_bad_dimension_or_sample_count(self, dim, samples):
        with pytest.raises(ValueError, match="dimension|sample count"):
            exclusivity_scan(dim, samples, seed=1)


class TestBornOracle:
    def test_uniform_overlap_is_identity(self):
        assert born_oracle(UniformOverlap(), 0.3, 5) == 0.3

    def test_haar_qubit(self):
        assert born_oracle(HaarPure(), 0.5, 2) == 0.5

    def test_haar_qutrit(self):
        assert born_oracle(HaarPure(), 0.5, 3) == 0.25

    def test_fixed_has_no_oracle(self):
        with pytest.raises(ValueError, match="no analytic oracle"):
            born_oracle(Fixed(E0), 0.5, 2)

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError, match="p must lie"):
            born_oracle(HaarPure(), 1.5, 2)

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            born_oracle(HaarPure(), 0.5, 1)


class TestHaarUnitary:
    def test_unitarity(self):
        for i in range(20):
            u = haar_unitary(4, RngStream(13, 0), i)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(3, RngStream(2, 1), 5), haar_unitary(3, RngStream(2, 1), 5))

import threading
from contextlib import nullcontext

import numpy as np
import pytest
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
    haar_state,
    haar_states,
    haar_unitary,
    uniform_overlap_states,
)
from twostate import sampling
from twostate.assignment import RULE_ROUNDING_BOUND
from twostate.sampling import (
    _CHUNK_WORDS,
    _chunk_samples,
    _flat_dirichlet,
    _overlap_words,
    _overlaps,
    _sampled,
    _uniforms,
)

from helpers import chunk_samples, random_unitary

E0 = StateVector.basis_state(2, 0)

# one-sample KS critical value at the 1% level, asymptotic form
KS_CRIT_1PC = 1.628


def ks_stat(samples, cdf):
    return stats.kstest(samples, cdf).statistic


def drawn_overlaps(dist, dim: int, k: int, stream: RngStream, lo: int, n: int) -> np.ndarray:
    """The estimators' overlaps of samples ``[lo, lo + n)``: ``_overlaps`` of the stream's uniforms."""
    return _overlaps(dist, dim, k, _uniforms(stream, lo, n, _overlap_words(dist, dim, k)))


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
    """A sample that uses w words owns words [i*w, (i+1)*w) of its stream's one word sequence."""

    @pytest.mark.parametrize("words", [1, 2, 3, 5, 6, 7, 16, 50])
    @pytest.mark.parametrize("lo", [0, 1, 3, 333])
    def test_samples_are_consecutive_slices_of_one_word_stream(self, words, lo):
        stream = RngStream(11, 2)
        n = 9
        block = _uniforms(stream, lo, n, words)
        assert block.shape == (n, words)
        assert block.flags.c_contiguous
        flat = _uniforms(stream, 0, (lo + n) * words, 1).ravel()
        assert np.array_equal(block.ravel(), flat[lo * words:])

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("sampler", ["haar_states", "haar_unitary", "uniform_overlap_states"])
    def test_split_is_bit_identical_to_one_call(self, sampler, dim):
        # boundaries at samples 1 and 3 fall mid-tick whenever the words per
        # sample are not a multiple of 4 (haar_states at odd d, haar_unitary
        # at odd d, uniform_overlap_states at d=2)
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
        (4, [[0xc5fcb19f3348699d, 0x8333bde819728965, 0xb93fbcb38e0edb6d, 0x0e061fe183c3f693],
             [0xd41b1957f40df0e9, 0xc9b622e9af14dfbd, 0x2b5d2164f29dd78d, 0x6d55372a505f74f9]]),
        (16, [[0x47a2b1d8f5789225, 0xa3e8c89196bed3d2, 0xa09d0dcd099d30c3, 0xdb10e348ad0f0925],
              [0xbacfd1fe7e2caf99, 0x6308f9a9d2bfcffb, 0x33639c7198150cf0, 0x8e1bdcd3e77b7b25]]),
    ])
    def test_whole_tick_layouts_keep_their_words(self, words, expected):
        # samples of a multiple of 4 words keep the words they had when every
        # sample started on a fresh counter tick: pbr-geometric's qubit states
        # (4 words) and d=16 Haar overlaps (16 words); each word's uniform is its top 53 bits
        uniforms = [[(word >> 11) * 2.0**-53 for word in row] for row in expected]
        assert _uniforms(RngStream(7, 3), 5, 2, words)[:, :4].tolist() == uniforms


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
    """The estimators' overlap draws against overlaps of the public state samplers."""

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
            dist, states = UniformOverlap(target), uniform_overlap_states(target, RngStream(90, 0), 0, n)
        k = dim if full_basis else 1
        drawn = drawn_overlaps(dist, dim, k, RngStream(91, 0), 0, n)
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
        p = drawn_overlaps(HaarPure(), dim, dim, RngStream(92, 1), 0, n)
        for j in range(dim):
            assert ks_stat(p[:, j], lambda x: 1 - (1 - x) ** (dim - 1)) < KS_CRIT_1PC / np.sqrt(n), j

    def test_block_is_pure_function_of_index(self):
        dist = UniformOverlap(StateVector.basis_state(5, 0))
        block = drawn_overlaps(dist, 5, 5, RngStream(5, 3), 0, 10)
        assert np.array_equal(block[6:], drawn_overlaps(dist, 5, 5, RngStream(5, 3), 6, 4))


def _dirichlet_reference(u: np.ndarray, k: int) -> np.ndarray:
    """The flat Dirichlet coordinates as fresh arrays: log(u + 2**-53) over the row sum of the logs."""
    logs = np.log(u + 2.0**-53)
    total = np.einsum("ij->i", logs)
    total[total == 0.0] = 1.0
    return logs[:, :k] / total[:, None]


class TestOverlapBlockArithmetic:
    """The in-place overlap kernel computes bit for bit what fresh arrays compute."""

    @pytest.mark.parametrize("dim", [2, 3, 16])
    @pytest.mark.parametrize("law, full_basis", [("haar", False), ("haar", True), ("uniform-overlap", True)],
                             ids=["haar-k=1", "haar-k=d", "uniform-overlap-k=d"])
    def test_matches_the_fresh_array_formula(self, law, full_basis, dim):
        stream, lo, n = RngStream(17, 2), 5, 3000
        k = dim if full_basis else 1
        u = _uniforms(stream, lo, n, dim)
        if law == "haar" and k == 1:  # inverse CDF of Beta(1, d - 1) on one word
            dist, expected = HaarPure(), 1 - (_uniforms(stream, lo, n, 1) + 2**-53) ** (1 / (dim - 1))
        elif law == "haar":
            dist, expected = HaarPure(), _dirichlet_reference(u, k)
        else:
            dist = UniformOverlap(StateVector.basis_state(dim, 0))
            q0 = u[:, :1]
            expected = np.concatenate([q0, (1.0 - q0) * _dirichlet_reference(u[:, 1:], k - 1)], axis=1)
        drawn = drawn_overlaps(dist, dim, k, stream, lo, n)
        assert drawn.shape == (n, k)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("law, k", [("haar", 1), ("haar", 3), ("uniform-overlap", 1), ("uniform-overlap", 3)])
    def test_builds_the_overlaps_in_their_uniforms(self, law, k):
        dim, stream = 3, RngStream(19, 1)
        dist = HaarPure() if law == "haar" else UniformOverlap(StateVector.basis_state(dim, 0))
        u = _uniforms(stream, 7, 200, _overlap_words(dist, dim, k))
        drawn = _overlaps(dist, dim, k, u)
        assert drawn.shape == (200, k)
        assert np.shares_memory(drawn, u)

    def test_a_row_of_top_words_gives_zeros(self):
        u = _uniforms(RngStream(3), 0, 4, 5)
        u[2] = (2**64 - 1 >> 11) * 2.0**-53  # the top word's uniform: every log is 0, and so is their sum
        expected = _dirichlet_reference(u, 5)
        drawn = _flat_dirichlet(u.copy(), 5)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))
        assert not drawn[2].any()


class TestDefaultChunks:
    def test_chunks_are_sized_by_words(self):
        assert _chunk_samples(1) == 16384  # the sample cap, not the word budget
        assert _chunk_samples(4) == 8192
        assert _chunk_samples(16) == 2048
        assert _chunk_samples(2**16) == 1  # a sample above the budget still gets a chunk


def run_recorded(draws, n_samples: int, workers: int = 1) -> list:
    """``_sampled`` with a block that keeps, per chunk, its thread, its uniform arrays and copies of them."""
    calls = []

    def block(*uniforms):
        calls.append((threading.get_ident(), uniforms, [u.copy() for u in uniforms]))
        return 1

    assert _sampled(block, n_samples, draws, workers) == len(calls)
    return calls


class TestChunkBuffers:
    """The driver draws each chunk into its thread's one buffer; the public samplers return fresh arrays."""

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

    @pytest.mark.parametrize("n_draws", [1, 2, 4])
    def test_each_draw_is_a_view_of_the_calling_threads_buffer(self, n_draws):
        draws = [(RngStream(43, k), 2 * k + 1) for k in range(n_draws)]  # 1, 3, 5 and 7 words
        n = 3 * _chunk_samples(sum(words for _, words in draws)) + 5
        calls = run_recorded(draws, n) + run_recorded(draws, n)  # chunk after chunk, call after call
        buffer = sampling._THREAD.buffer
        lo = 0
        for ident, uniforms, copies in calls:
            assert ident == threading.get_ident()
            count, start = len(uniforms[0]), 0
            for (stream, words), u, copy in zip(draws, uniforms, copies):
                assert u.shape == (count, words) and u.flags.c_contiguous
                assert u.base is buffer
                # consecutive: each draw starts where the one before it ends
                assert u.ctypes.data - buffer.ctypes.data == start
                start += u.nbytes
                assert np.array_equal(copy.view(np.uint64), _uniforms(stream, lo, count, words).view(np.uint64))
            for i, u in enumerate(uniforms):
                assert not any(np.shares_memory(u, v) for v in uniforms[i + 1:])
            lo = (lo + count) % n
        assert len(calls) == 8 and lo == 0

    def test_pool_threads_draw_into_buffers_of_their_own(self):
        draws = [(RngStream(47, 0), 4), (RngStream(47, 1), 4)]
        run_recorded(draws, 10)
        buffer = sampling._THREAD.buffer
        calls = run_recorded(draws, 6 * _chunk_samples(8), workers=2)
        bases = {}
        for ident, uniforms, _ in calls:
            assert ident != threading.get_ident()
            for u in uniforms:
                assert bases.setdefault(ident, u.base) is u.base  # one buffer per pool thread
        assert not any(np.shares_memory(base, buffer) for base in bases.values())
        assert len({id(base) for base in bases.values()}) == len(bases)

    def test_a_chunk_beyond_the_buffer_gets_arrays_of_its_own(self):
        draws = [(RngStream(53, 0), 4), (RngStream(53, 1), 4)]
        run_recorded(draws, 10)
        buffer = sampling._THREAD.buffer
        n = _CHUNK_WORDS // 8 + 1
        with chunk_samples(n):
            ((_, uniforms, copies),) = run_recorded(draws, n)
        assert not np.shares_memory(uniforms[0], uniforms[1])
        for (stream, words), u, copy in zip(draws, uniforms, copies):
            assert not np.shares_memory(u, buffer)
            assert np.array_equal(copy.view(np.uint64), _uniforms(stream, 0, n, words).view(np.uint64))

    def test_a_sample_wider_than_the_buffer_gets_arrays_of_its_own(self):
        # the default chunks reach this: exclusivity-scan at dim 16385 draws 2 * 16385 words per sample
        stream = RngStream(59, 0)
        run_recorded([(stream, 4)], 10)
        buffer = sampling._THREAD.buffer
        calls = run_recorded([(stream, _CHUNK_WORDS + 1)], 3)
        assert len(calls) == 3  # one sample per chunk
        for lo, (_, (u,), (copy,)) in enumerate(calls):
            assert u.shape == (1, _CHUNK_WORDS + 1) and not np.shares_memory(u, buffer)
            assert np.array_equal(copy.view(np.uint64), _uniforms(stream, lo, 1, _CHUNK_WORDS + 1).view(np.uint64))

    @pytest.mark.parametrize("law", ["haar", "uniform-overlap"])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_tallies_do_not_depend_on_workers_or_chunks(self, law, dim):
        n = 7001
        basis = OrthonormalBasis.computational(dim)
        fwd = StateVector(np.sqrt(np.linspace(1.0, 2.0, dim) / np.linspace(1.0, 2.0, dim).sum()).astype(complex))
        dist = HaarPure() if law == "haar" else UniformOverlap(basis[0])
        runs = set()
        for workers in (1, 3):
            for chunk in (None, 7, 997, 4096, 10**5):
                with chunk_samples(chunk) if chunk else nullcontext():
                    runs.add((
                        born_mc(fwd, basis[0], dist, n, seed=31, workers=workers),
                        basis_mc(fwd, basis, dist, n, seed=31, workers=workers),
                    ))
        assert len(runs) == 1


class TestUniformOverlapContract:
    @pytest.mark.parametrize("target", [
        StateVector.basis_state(2, 1),
        StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)),
    ], ids=["orthogonal", "overlapping"])
    def test_target_other_than_the_first_outcome_is_rejected(self, target):
        dist = UniformOverlap(target)
        with pytest.raises(ValueError, match="first outcome"):
            born_mc(E0, E0, dist, 10, seed=1)
        with pytest.raises(ValueError, match="first outcome"):
            basis_mc(E0, OrthonormalBasis.computational(2), dist, 10, seed=1)

    def test_phase_rotated_target_is_accepted(self):
        basis = OrthonormalBasis.computational(3)
        rotated = UniformOverlap(StateVector(np.exp(2.1j) * basis[0].entries))
        fwd = StateVector.basis_state(3, 1)
        assert basis_mc(fwd, basis, rotated, 1000, seed=4) == basis_mc(fwd, basis, UniformOverlap(basis[0]), 1000, seed=4)


class TestBornMc:
    def test_uniform_overlap_recovers_p(self):
        p = 0.7
        est = born_mc(forward_with_overlap(p, 2), E0, UniformOverlap(E0), 100_000, seed=42)
        assert abs(est.frequency - p) <= 4 * est.std_err

    def test_fixed_backward_is_deterministic(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        est = born_mc(E0, E0, Fixed(plus), 1000, seed=0)
        assert est.frequency == 1.0  # 1 + 1/2 > 1 for every sample
        est2 = born_mc(E0, StateVector.basis_state(2, 1), Fixed(plus), 1000, seed=0)
        assert est2.frequency == 0.0  # 0 + 1/2 < 1

    def test_haar_qutrit_matches_beta_tail(self):
        p = 0.5
        est = born_mc(forward_with_overlap(p, 3), StateVector.basis_state(3, 0),
                      HaarPure(), 100_000, seed=7)
        assert abs(est.frequency - p**2) <= 4 * est.std_err

    def test_std_err_formula(self):
        est = born_mc(forward_with_overlap(0.3, 2), E0, UniformOverlap(E0), 5000, seed=1)
        expected = np.sqrt(est.frequency * (1 - est.frequency) / est.samples)
        assert abs(est.std_err - expected) <= 1e-12

    def test_deterministic_rerun(self):
        args = (forward_with_overlap(0.4, 2), E0, UniformOverlap(E0), 30_000)
        assert born_mc(*args, seed=9) == born_mc(*args, seed=9)

    def test_worker_count_does_not_change_result(self):
        args = (forward_with_overlap(0.4, 2), E0, HaarPure(), 50_000)
        single = born_mc(*args, seed=9, workers=1)
        pooled = born_mc(*args, seed=9, workers=8)
        assert single == pooled

    def test_chunk_size_does_not_change_result(self):
        args = (forward_with_overlap(0.4, 2), E0, HaarPure(), 30_000)
        with chunk_samples(997):
            a = born_mc(*args, seed=9)
        with chunk_samples(16384):
            b = born_mc(*args, seed=9)
        assert a == b

    def test_global_phase_invariance(self):
        fwd = forward_with_overlap(0.7, 2)
        base = born_mc(fwd, E0, UniformOverlap(E0), 20_000, seed=123)
        fwd_rot = StateVector(np.exp(0.9j) * fwd.entries)
        target_rot = StateVector(np.exp(-1.3j) * E0.entries)
        rot = born_mc(fwd_rot, target_rot, UniformOverlap(target_rot), 20_000, seed=123)
        assert base.frequency == rot.frequency

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError, match="sample count"):
            born_mc(E0, E0, HaarPure(), 0, seed=1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_four_sigma_coverage_across_seeds(self, dim):
        # over 100 independent seeds per p, at most one run may land outside
        # the 4-sigma band (the binomial tail allows ~0.006 expected misses)
        target = StateVector.basis_state(dim, 0)
        for p in [round(0.1 * k, 10) for k in range(1, 10)]:
            fwd = forward_with_overlap(p, dim)
            within = 0
            for seed in range(100):
                est = born_mc(fwd, target, UniformOverlap(target), 10_000, seed=seed)
                if abs(est.frequency - p) <= 4 * est.std_err:
                    within += 1
            assert within >= 99, (dim, p, within)


class TestBasisMc:
    def test_fixed_matching_backward(self):
        basis = OrthonormalBasis.computational(3)
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
        result = basis_mc(E0, OrthonormalBasis.computational(2), HaarPure(), 100_000, seed=55)
        assert result.frequencies().tolist() == [1.0, 0.0]
        assert result.no_assign_rate == 0.0
        assert result.conditional_frequencies()[0] == 1.0

    def test_tilted_basis_reproduces_born_weight(self):
        theta = np.deg2rad(60)
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        basis = OrthonormalBasis((
            StateVector(np.array([c, s], dtype=complex)),
            StateVector(np.array([-s, c], dtype=complex)),
        ))
        result = basis_mc(E0, basis, HaarPure(), 100_000, seed=60)
        conditional = result.conditional_frequencies()
        oracle = np.cos(np.deg2rad(30)) ** 2  # 0.75
        assert abs(conditional[0] - oracle) <= 4 * result.estimates[0].std_err

    def test_frequencies_and_no_assign_sum_to_one(self):
        fwd = StateVector(np.sqrt(np.array([0.5, 0.3, 0.2])).astype(complex))
        result = basis_mc(fwd, OrthonormalBasis.computational(3), HaarPure(), 50_000, seed=61)
        total = result.frequencies().sum() + result.no_assign_rate
        assert abs(total - 1.0) <= 1e-12
        assert result.no_assign_rate > 0.5  # most qutrit samples assign nothing

    def test_worker_count_does_not_change_result(self):
        fwd = StateVector(np.sqrt(np.array([0.5, 0.3, 0.2])).astype(complex))
        basis = OrthonormalBasis.computational(3)
        a = basis_mc(fwd, basis, HaarPure(), 30_000, seed=8, workers=1)
        b = basis_mc(fwd, basis, HaarPure(), 30_000, seed=8, workers=8)
        assert a == b


class TestBornOracle:
    def test_uniform_overlap_is_identity(self):
        assert born_oracle(UniformOverlap(E0), 0.3, 5) == 0.3

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


class TestHaarUnitary:
    def test_unitarity(self):
        for i in range(20):
            u = haar_unitary(4, RngStream(13, 0), i)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(3, RngStream(2, 1), 5), haar_unitary(3, RngStream(2, 1), 5))

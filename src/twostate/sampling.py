"""Backward-state distributions and the seeded Monte Carlo estimator.

Randomness is counter-based: sample ``i`` of a stream ``(seed, stream_index)``
is a pure function of ``(seed, stream_index, i)``. A stream is one sequence
of Philox words; a sample that uses ``w`` words owns words
``[i*w, (i+1)*w)`` of it (sample-stream version 3), and every variate is
produced with a fixed word consumption (no rejection), so estimates are
bitwise reproducible no matter how the index range is chunked or how many
workers run them. Each word becomes one uniform on [0, 1) (``_uniforms``),
written straight into a float array with no array of words in between.

One driver, ``_sampled``, runs every sampled experiment: it takes the
``(stream, words)`` pair of each draw a sample makes, sizes chunks by
Philox words, not by samples (``_chunk_samples``: at most ``_CHUNK_WORDS``
words, 256 KiB of uniforms), draws each chunk's uniforms into the calling
thread's one buffer of that size, hands them to a kernel, and folds the
kernels' results exactly. A chunk thus allocates no large array for its
uniforms, and whether their pages stay mapped does not depend on the heap's
history.

The state samplers (``haar_states``, ``uniform_overlap_states``,
``haar_unitary``) build complex vectors from Box-Muller normals. The
estimators never build a backward state: the rule sees one only through its
overlaps ``|<b|a_k>|^2`` with the outcomes, and those are drawn from their
closed-form laws (``_overlaps``).
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .assignment import MultipleOutcomesError, tally_rule
from .qcore import ORTHONORMAL_TOL, OrthonormalBasis, StateVector

__all__ = [
    "RngStream",
    "UniformOverlap",
    "HaarPure",
    "Fixed",
    "BornEstimate",
    "BasisMcResult",
    "haar_state",
    "haar_states",
    "haar_unitary",
    "uniform_overlap_states",
    "born_mc",
    "basis_mc",
    "born_oracle",
]

_MASK64 = (1 << 64) - 1
_U53 = 2.0**-53
_MAX_CHUNK_SAMPLES = 16384
_CHUNK_WORDS = 2**15  # 256 KiB of uniforms per chunk buffer


def _chunk_samples(words_per_sample: int) -> int:
    """Samples per chunk when each sample uses ``words_per_sample`` Philox words."""
    return max(1, min(_MAX_CHUNK_SAMPLES, _CHUNK_WORDS // words_per_sample))


_THREAD = threading.local()  # each thread's chunk buffer, kept for the thread's life


@dataclass(frozen=True)
class RngStream:
    """A deterministic stream of per-sample randomness blocks."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0 <= self.stream_index <= _MASK64:
            raise ValueError(f"stream index must be a 64-bit unsigned integer, got {self.stream_index!r}")

    def key(self) -> int:
        return self.seed | (self.stream_index << 64)


@dataclass(frozen=True, eq=False)
class UniformOverlap:
    """Backward states whose squared overlap with the target is U(0,1).

    The estimators accept it only with the target as the first outcome, up
    to a phase: that is the frame in which they draw its overlaps.
    """

    target: StateVector


@dataclass(frozen=True)
class HaarPure:
    """Backward states drawn from the unitarily invariant pure-state measure."""


@dataclass(frozen=True, eq=False)
class Fixed:
    """A single fixed backward state; the estimator becomes deterministic."""

    state: StateVector


BackwardDistribution = UniformOverlap | HaarPure | Fixed


@dataclass(frozen=True)
class BornEstimate:
    """Monte Carlo frequency with its binomial standard error."""

    frequency: float
    std_err: float
    samples: int
    no_assign_rate: float | None = None


@dataclass(frozen=True)
class BasisMcResult:
    """Per-outcome estimates plus the fraction of samples assigning nothing."""

    estimates: tuple
    no_assign_rate: float
    samples: int

    def frequencies(self) -> np.ndarray:
        return np.array([e.frequency for e in self.estimates])

    def conditional_frequencies(self) -> np.ndarray:
        """Frequencies renormalized over the samples that assigned an outcome."""
        assigned = 1.0 - self.no_assign_rate
        if assigned <= 0.0:
            return np.full(len(self.estimates), np.nan)
        return self.frequencies() / assigned


# --- counter-based uniforms -----------------------------------------------


def _uniforms(
    stream: RngStream, first_sample: int, count: int, words_per_sample: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniforms on [0, 1), one per Philox word, one contiguous row per sample.

    With ``w = words_per_sample``, sample ``j`` owns words ``[j*w, (j+1)*w)``
    of the stream's one word sequence, so row i depends only on
    (stream, first_sample + i). A Philox counter tick yields four words:
    the draw starts at the tick holding the first word and drops the words
    before it. Each word becomes ``(word >> 11) * 2**-53``, numpy's Philox
    double, so ``u + 2**-53`` is the same word's uniform on (0, 1], exactly.
    The rows are written into ``out`` (C-contiguous, shape ``(count, w)``)
    when it is given: ``_sampled`` passes views of its thread's chunk buffer.
    """
    first_word = first_sample * words_per_sample
    bit_gen = Philox(key=stream.key(), counter=first_word // 4)
    bit_gen.random_raw(first_word % 4)
    if out is None:
        out = np.empty((count, words_per_sample))
    return Generator(bit_gen).random(out=out)


def _complex_normals(u: np.ndarray) -> np.ndarray:
    """One standard complex normal per pair of uniforms (Box-Muller, fixed cost)."""
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2] + _U53))
    return radius * np.exp(2j * np.pi * u[..., 1::2])


def _flat_dirichlet(u: np.ndarray, k: int, first: int = 0) -> np.ndarray:
    """First ``k`` coordinates of one flat Dirichlet point per row, over the
    row's uniforms from column ``first`` on.

    The point is the standard exponentials ``-log v`` (v = u + 2**-53, in
    (0, 1]) over their sum, computed as ``log v`` over the sum of the logs. A
    zero sum needs every uniform at its top value; that row gives zeros,
    which never fire. Returns columns ``[0, first + k)`` of ``u`` itself,
    overwritten in place; the point is in columns ``first`` on, and the
    columns before them are for the caller to overwrite.
    """
    u += _U53
    np.log(u, out=u)
    total = np.einsum("ij->i", u[:, first:])  # row sums; about 3x faster than sum(axis=1) on short rows
    total[total == 0.0] = 1.0
    head = u[:, : first + k]
    return np.divide(head, total[:, None], out=head)


def _overlap_words(dist: BackwardDistribution, dim: int, k: int) -> int:
    """Philox words per sample of ``_overlaps``."""
    if isinstance(dist, (HaarPure, UniformOverlap)):
        return 1 if k == 1 else dim
    raise TypeError(f"unknown backward distribution: {type(dist).__name__}")


def _overlaps(dist: BackwardDistribution, dim: int, k: int, u: np.ndarray) -> np.ndarray:
    """Overlaps ``|<b|a_j>|^2``, shape (count, k), of sampled backward states b
    with the first ``k`` vectors of an orthonormal set, from uniforms ``u`` of
    shape ``(count, _overlap_words(dist, dim, k))``, one row per sample.

    Haar, whatever the set: for k = 1 the overlap is Beta(1, d - 1), drawn
    by inverse CDF as q_0 = 1 - v**(1/(d - 1)) with v = u + 2**-53 (one
    word); for k > 1 the d overlaps are flat Dirichlet (d words per sample).
    Uniform overlap, with the target as a_0: q_0 ~ U(0, 1) (one word), and
    for k > 1 the rest is (1 - q_0) times a flat Dirichlet over the target's
    complement (d - 1 more words). The overlaps are built in ``u`` itself,
    and the result is a view of it.
    """
    if isinstance(dist, HaarPure):
        if k > 1:
            return _flat_dirichlet(u, k)
        u += _U53
        u **= 1.0 / (dim - 1)
        return np.subtract(1.0, u, out=u)
    if k == 1:
        return u
    scale = 1.0 - u[:, :1]  # exact, as is 1 - scale: q_0 is a multiple of 2**-53 in [0, 1)
    block = _flat_dirichlet(u, k - 1, first=1)  # whole rows: strided in-place steps read slower
    block *= scale
    np.subtract(1.0, scale, out=block[:, :1])
    return block


# --- public single-draw and batch samplers --------------------------------


def haar_state(dim: int, rng: RngStream, index: int = 0) -> StateVector:
    """Draw sample ``index`` of the Haar pure-state stream."""
    return StateVector(haar_states(dim, rng, index, 1)[0])


def _haar_rows(u: np.ndarray) -> np.ndarray:
    """One Haar state per row of ``2 * dim`` uniforms: ``dim`` complex normals, normalized."""
    gauss = _complex_normals(u)
    norms = np.linalg.norm(gauss, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return gauss / norms


def haar_states(dim: int, rng: RngStream, start: int, count: int) -> np.ndarray:
    """Rows are Haar states for sample indices start..start+count-1."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return _haar_rows(_uniforms(rng, start, count, 2 * dim))


def uniform_overlap_states(a: StateVector, rng: RngStream, start: int, count: int) -> np.ndarray:
    """Rows are states whose squared overlap with ``a`` is uniform on [0, 1)."""
    target = a.entries
    dim = target.shape[0]
    u = _uniforms(rng, start, count, 2 * dim + 2)
    gauss = _complex_normals(u[:, : 2 * dim])
    overlap_sq = u[:, 2 * dim]
    phase = np.exp(2j * np.pi * u[:, 2 * dim + 1])

    # Haar direction in the orthogonal complement of the target.
    coeff = gauss @ target.conj()
    perp = gauss - coeff[:, None] * target[None, :]
    norms = np.linalg.norm(perp, axis=1)
    norms[norms == 0.0] = 1.0
    perp /= norms[:, None]

    amp_target = np.sqrt(overlap_sq)
    amp_perp = np.sqrt(1.0 - overlap_sq) * phase
    return amp_target[:, None] * target[None, :] + amp_perp[:, None] * perp


def haar_unitary(dim: int, rng: RngStream, index: int = 0) -> np.ndarray:
    """Haar-distributed unitary; sample ``index`` of the stream."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    gauss = _complex_normals(_uniforms(rng, index, 1, 2 * dim * dim))
    q, r = np.linalg.qr(gauss.reshape(dim, dim))
    diag = np.diagonal(r).copy()
    diag[diag == 0.0] = 1.0
    return q * (diag / np.abs(diag))[None, :]


# --- Monte Carlo estimators ------------------------------------------------


def _sampled(block, n_samples: int, draws, workers: int, reduce=np.add):
    """``block(*uniforms)`` over the chunks of samples ``[0, n_samples)``, folded with ``reduce`` in chunk order.

    ``draws`` holds one ``(stream, words)`` pair per draw a sample makes; for the chunk of samples
    ``[lo, hi)`` the block gets, per draw, the ``(hi - lo, words)`` array
    ``_uniforms(stream, lo, hi - lo, words)``. ``_chunk_samples`` sizes the chunks by the words of
    all draws. The arrays are consecutive views of the calling thread's one buffer of
    ``_CHUNK_WORDS`` uniforms, so chunk after chunk and call after call write the same pages, and
    no two threads share one; only a sample wider than the buffer (a one-sample chunk) gets arrays
    of its own. The next chunk overwrites the uniforms, so a block must not return a view of them.
    With an exact ``reduce`` (integer addition, or that and a minimum) neither the chunk size nor
    ``workers`` changes the result.
    """
    words = sum(w for _, w in draws)
    chunk_size = _chunk_samples(words)

    def run(lo: int, hi: int):
        count = hi - lo
        if count * words > _CHUNK_WORDS:
            buffer = np.empty(count * words)
        else:
            if not hasattr(_THREAD, "buffer"):
                _THREAD.buffer = np.empty(_CHUNK_WORDS)
            buffer = _THREAD.buffer
        uniforms, start = [], 0
        for stream, w in draws:
            view = buffer[start:start + count * w].reshape(count, w)
            uniforms.append(_uniforms(stream, lo, count, w, view))
            start += count * w
        return block(*uniforms)

    los = range(0, n_samples, chunk_size)
    his = [min(lo + chunk_size, n_samples) for lo in los]
    workers = min(workers, len(los))  # one chunk runs in the calling thread
    if workers <= 1:
        return functools.reduce(reduce, map(run, los, his))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return functools.reduce(reduce, pool.map(run, los, his))


def _binomial_estimate(count: int, n_samples: int, no_assign_rate: float | None = None) -> BornEstimate:
    freq = count / n_samples
    std_err = math.sqrt(freq * (1.0 - freq) / n_samples)
    return BornEstimate(freq, std_err, n_samples, no_assign_rate)


def _rule_tallies(
    forward: StateVector,
    targets: np.ndarray,
    dist: BackwardDistribution,
    n_samples: int,
    seed: int,
    tie_tol: float,
    stream_index: int,
    workers: int,
) -> np.ndarray:
    """``tally_rule`` summed over sampled backward states; ``targets`` rows are the outcomes."""
    dim = forward.dim
    if targets.shape[1] != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {targets.shape[1]}")
    if n_samples < 1:
        raise ValueError(f"sample count must be >= 1, got {n_samples}")
    if isinstance(dist, UniformOverlap):  # the overlap law holds only for the target as first outcome
        if dist.target.dim != dim:
            raise ValueError(f"dimension mismatch: target {dist.target.dim} vs {dim}")
        if not abs(abs(np.vdot(dist.target.entries, targets[0])) - 1.0) <= ORTHONORMAL_TOL:
            raise ValueError("the uniform-overlap target must be the first outcome, up to a phase")
    conj_targets = targets.conj()
    p = np.abs(conj_targets @ forward.entries) ** 2

    if isinstance(dist, Fixed):  # deterministic: one evaluation stands for every sample
        if dist.state.dim != dim:
            raise ValueError(f"dimension mismatch: fixed state {dist.state.dim} vs {dim}")
        q = np.abs(conj_targets @ dist.state.entries) ** 2
        return tally_rule((p + q)[None, :], tie_tol) * n_samples

    k = targets.shape[0]

    def chunk_tallies(u: np.ndarray) -> np.ndarray:
        sums = _overlaps(dist, dim, k, u)
        sums += p
        return tally_rule(sums, tie_tol)

    draws = [(RngStream(seed, stream_index), _overlap_words(dist, dim, k))]
    return _sampled(chunk_tallies, n_samples, draws, workers)


def born_mc(
    forward: StateVector,
    a: StateVector,
    dist: BackwardDistribution,
    n_samples: int,
    seed: int,
    tie_tol: float = 0.0,
    *,
    stream_index: int = 0,
    workers: int = 1,
) -> BornEstimate:
    """Frequency with which sampled backward states make the rule fire for ``a``."""
    tallies = _rule_tallies(forward, a.entries[None, :], dist, n_samples, seed, tie_tol, stream_index, workers)
    return _binomial_estimate(int(tallies[0]), n_samples)


def basis_mc(
    forward: StateVector,
    basis: OrthonormalBasis,
    dist: BackwardDistribution,
    n_samples: int,
    seed: int,
    tie_tol: float = 0.0,
    *,
    stream_index: int = 0,
    workers: int = 1,
) -> BasisMcResult:
    """Per-outcome rule frequencies over a full basis, plus the no-assignment rate.

    Raises MultipleOutcomesError if any sample satisfies the rule for two
    outcomes; for an orthonormal basis this must never happen.
    """
    tallies = _rule_tallies(forward, basis.as_matrix(), dist, n_samples, seed, tie_tol, stream_index, workers)
    if tallies[-1]:
        raise MultipleOutcomesError(
            f"{int(tallies[-1])} samples fired more than one outcome; the basis is not orthonormal"
        )
    no_assign_rate = int(tallies[-2]) / n_samples
    estimates = tuple(
        _binomial_estimate(int(c), n_samples, no_assign_rate) for c in tallies[:-2]
    )
    return BasisMcResult(estimates, no_assign_rate, n_samples)


def born_oracle(dist: BackwardDistribution, p: float, d: int) -> float:
    """Analytic firing probability for a forward overlap of ``p``.

    Uniform-overlap sampling reproduces ``p`` itself; Haar sampling gives the
    tail of the Beta(1, d-1) overlap marginal, ``p**(d-1)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if isinstance(dist, UniformOverlap):
        return p
    if isinstance(dist, HaarPure):
        return p ** (d - 1)
    if isinstance(dist, Fixed):
        raise ValueError("no analytic oracle for a fixed backward state")
    raise TypeError(f"unknown backward distribution: {type(dist).__name__}")

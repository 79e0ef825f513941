"""Backward-state distributions and the seeded Monte Carlo estimator.

Randomness is counter-based: sample ``i`` of a stream ``(seed, stream_index)``
is a pure function of ``(seed, stream_index, i)``. A stream is one sequence
of 32-bit words, the halves of its 64-bit Philox outputs, low half first; a
sample that uses ``w`` words owns words ``[i*w, (i+1)*w)`` of it
(sample-stream version 6), and every variate is produced with a fixed word
consumption (no rejection), so estimates are bitwise reproducible no matter
how the index range is chunked or how many workers run them. Each word
``h`` becomes one uniform ``(h + 0.5) * 2**-32``, strictly inside (0, 1)
(``_uniforms``), so no variate transform needs a guard against 0 or 1.

Each thread keeps one Philox generator (``_philox_outputs``), built on its
first draw; a draw sets its key and counter, which are the generator's whole
state, rather than building a new one.

One driver, ``_sampled``, runs every sampled experiment: it takes the
``(stream, words)`` pair of each draw a sample makes, sizes chunks by
words, not by samples (``_chunk_samples``: ``_CHUNK_WORDS`` words, 256 KiB
of uniforms, so 32768 one-word samples), draws each chunk's uniforms into
the calling thread's one buffer of that size, hands them to a kernel, and
folds the kernels' results exactly. A chunk thus allocates no float array
for its uniforms; only its Philox outputs (half the buffer's size) are
drawn into a fresh array, since ``random_raw`` takes no ``out``.

The Haar state sampler (``haar_states``) builds complex vectors from
Box-Muller normals. The estimators and the exclusivity scan never build a
backward state: the rule sees one only through its overlaps ``|<b|a_k>|^2``
with the outcomes, and those are drawn from their closed-form laws
(``_overlaps``). The estimators draw only the overlaps of the outcomes that
can fire, by stick-breaking, while those are at most half of them
(sample-stream version 6, ``_rule_tallies``).
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .assignment import MultipleOutcomesError, _fires, tally_rule
from .qcore import OrthonormalBasis, StateVector

__all__ = [
    "RngStream",
    "UniformOverlap",
    "HaarPure",
    "Fixed",
    "BornEstimate",
    "BasisMcResult",
    "haar_state",
    "haar_states",
    "born_mc",
    "basis_mc",
    "exclusivity_scan",
    "born_oracle",
]

_MASK64 = (1 << 64) - 1
_CHUNK_WORDS = 2**15  # 256 KiB of uniforms per chunk buffer
# The largest share of a stick's pieces that an estimator draws by stick-breaking; above it the
# flat Dirichlet over all d overlaps is cheaper: the Haar crossover at d = 4 to 32, where uniform
# overlap's lies at or above it (BENCH_stream_v6.json).
_STICK_SHARE = 0.5


def _chunk_samples(words_per_sample: int) -> int:
    """Samples per chunk when each sample uses ``words_per_sample`` words (uniforms)."""
    return max(1, _CHUNK_WORDS // words_per_sample)


_THREAD = threading.local()  # each thread's chunk buffer and Philox, kept for the thread's life


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


@dataclass(frozen=True)
class UniformOverlap:
    """Backward states whose squared overlap with the first outcome is U(0,1).

    The first outcome is the estimator's target: ``born_mc``'s ``a``,
    or ``basis[0]`` in ``basis_mc``.
    """


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


def _philox_outputs(stream: RngStream, tick: int, n: int) -> np.ndarray:
    """``n`` 64-bit Philox outputs of ``stream`` from the start of counter tick ``tick``.

    The same outputs as ``Philox(key=seed | stream_index << 64, counter=tick).random_raw(n)``,
    drawn from the calling thread's one generator: its state, key and counter packed in 64-bit
    limbs, low limb first, as the constructor packs them, is set per draw. Each thread builds its
    generator on its first draw.
    """
    if not 0 <= tick < 2**256:
        raise ValueError("counter must be positive and less than 2**256.")
    bit_gen = getattr(_THREAD, "philox", None)
    if bit_gen is None:
        bit_gen = _THREAD.philox = Philox()
    bit_gen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": [tick & _MASK64, tick >> 64 & _MASK64, tick >> 128 & _MASK64, tick >> 192],
            "key": [stream.seed, stream.stream_index],
        },
        "buffer": (0, 0, 0, 0),  # one tick's four outputs, spent: the first output drawn is the tick's first
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_gen.random_raw(n)


def _uniforms(
    stream: RngStream, first_sample: int, count: int, words_per_sample: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniforms on (0, 1), one per 32-bit word, one contiguous row per sample.

    With ``w = words_per_sample``, sample ``j`` owns words ``[j*w, (j+1)*w)``
    of the stream's one word sequence, so row i depends only on
    (stream, first_sample + i). A Philox counter tick yields four 64-bit
    outputs, eight words, each output's low half first: the draw starts at
    the tick holding the first word and drops the words before it, so a
    draw may start on an output's high half. Each word ``h`` becomes
    ``(h + 0.5) * 2**-32``, exactly, from 2**-33 to 1 - 2**-33. The rows are
    written into ``out`` (C-contiguous, shape ``(count, w)``) when it is
    given: ``_sampled`` passes views of its thread's chunk buffer.
    """
    first_word, n_words = first_sample * words_per_sample, count * words_per_sample
    skip = first_word % 8
    outputs = _philox_outputs(stream, first_word // 8, (skip + n_words + 1) // 2)
    halves = outputs.astype("<u8", copy=False).view("<u4")
    out = np.add(halves[skip:skip + n_words].reshape(count, words_per_sample), 0.5, out=out)
    out *= 2.0**-32
    return out


def _complex_normals(u: np.ndarray) -> np.ndarray:
    """One standard complex normal per pair of uniforms (Box-Muller, fixed cost)."""
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    return radius * np.exp(2j * np.pi * u[..., 1::2])


def _flat_dirichlet(u: np.ndarray, k: int, first: int = 0) -> np.ndarray:
    """First ``k`` coordinates of one flat Dirichlet point per row, over the
    row's uniforms from column ``first`` on.

    The point is the standard exponentials ``-log u`` over their sum,
    computed as ``log u`` over the sum of the logs; every uniform is below 1,
    so every log, and the sum, is negative. Returns columns ``[0, first + k)``
    of ``u`` itself, overwritten in place; the point is in columns ``first``
    on, and the columns before them are for the caller to overwrite.
    """
    np.log(u, out=u)
    total = np.einsum("ij->i", u[:, first:])  # row sums; about 3x faster than sum(axis=1) on short rows
    head = u[:, : first + k]
    return np.divide(head, total[:, None], out=head)


def _breaks_stick(dist: BackwardDistribution, cand: list, dim: int) -> bool:
    """Whether the estimators draw the overlaps of the candidates ``cand`` (ascending outcome
    indices) alone, by stick-breaking, rather than all d: while the candidates on the stick (the d
    overlaps for Haar, the d - 1 beside the target for uniform overlap) are at most
    ``_STICK_SHARE`` of its pieces. So the stick's last piece, whose power would be 1/0, is never
    drawn."""
    if isinstance(dist, HaarPure):
        return len(cand) <= _STICK_SHARE * dim
    return len(cand) - (cand[0] == 0) <= _STICK_SHARE * (dim - 1)  # the candidates besides the target, 0


def _overlap_words(dist: BackwardDistribution, dim: int, k: int, stick: list | None) -> int:
    """Words (uniforms) per sample of ``_overlaps``: one per overlap drawn, and q_0 of the
    uniform-overlap law."""
    if not isinstance(dist, (HaarPure, UniformOverlap)):
        raise TypeError(f"unknown backward distribution: {type(dist).__name__}")
    if stick is None:
        return 1 if k == 1 else dim
    return len(stick) if isinstance(dist, HaarPure) else 1 + len(stick) - (stick[0] == 0)


def _break_stick(u: np.ndarray, sticks: int, rest: np.ndarray | None = None) -> None:
    """Overwrite the columns of ``u`` with the first pieces of a stick of length ``rest`` (one
    per row; None for 1) broken into ``sticks`` flat Dirichlet pieces, one column at a time.

    Piece j is ``rem[j - 1] - rem[j]``, where ``rem[-1] = rest`` and ``rem[j]`` is ``rem[j - 1]``
    times ``u[:, j] ** (1 / (sticks - 1 - j))``, the Beta(sticks - 1 - j, 1) share of the rest
    that piece j leaves (neutrality: Connor & Mosimann, JASA 64, 194, 1969). ``u`` has fewer
    than ``sticks`` columns.
    """
    for j in range(u.shape[1]):  # rem[j], in place of its uniform
        column = u[:, j]
        column **= 1.0 / (sticks - 1 - j)
        if j:
            column *= u[:, j - 1]
        elif rest is not None:
            column *= rest
    for j in range(u.shape[1] - 1, 0, -1):  # right to left, each piece from two remainders
        np.subtract(u[:, j - 1], u[:, j], out=u[:, j])
    np.subtract(1.0 if rest is None else rest, u[:, 0], out=u[:, 0])


def _overlaps(dist: BackwardDistribution, dim: int, k: int, stick: list | None, u: np.ndarray) -> np.ndarray:
    """Overlaps ``|<b|a_j>|^2`` of sampled backward states b with outcomes ``a_j`` of an
    orthonormal set of d, from uniforms ``u`` of shape ``(count, _overlap_words(dist, dim, k,
    stick))``, one row per sample (sample-stream version 6): with the first ``k`` outcomes when
    ``stick`` is None, shape (count, k), and otherwise with the outcomes ``stick`` (ascending
    indices), shape (count, len(stick)).

    ``stick`` None draws as version 5 did. Haar, whatever the set: for k = 1 the overlap is
    Beta(1, d - 1), drawn by inverse CDF as q_0 = 1 - u**(1/(d - 1)) (one word); for k > 1 the
    d overlaps are flat Dirichlet (d words per sample). Uniform overlap, with the target as a_0:
    q_0 ~ U(0, 1) (one word), and for k > 1 the rest is (1 - q_0) times a flat Dirichlet over
    the target's complement (d - 1 more words).
    Otherwise the overlaps of ``stick`` are broken off a stick one at a time, in index order
    (``_break_stick``); the stick's last piece must not be among them (``_breaks_stick``). Haar
    breaks the stick of length 1 into the d overlaps, so a single candidate's overlap is version
    5's one-word draw. Uniform overlap draws q_0 ~ U(0, 1) from one word, whether or not 0 is in
    ``stick``, and breaks the stick of length 1 - q_0 into the other d - 1 overlaps.
    The overlaps are built in ``u`` itself, and the result is a view of it.
    """
    if stick is None:
        if isinstance(dist, HaarPure):
            if k > 1:
                return _flat_dirichlet(u, k)
            u **= 1.0 / (dim - 1)
            return np.subtract(1.0, u, out=u)
        if k == 1:
            return u
        scale = 1.0 - u[:, :1]  # exact, as is 1 - scale: q_0 is a multiple of 2**-33 in (0, 1)
        block = _flat_dirichlet(u, k - 1, first=1)  # whole rows: strided in-place steps read slower
        block *= scale
        np.subtract(1.0, scale, out=block[:, :1])
        return block
    if isinstance(dist, HaarPure):
        _break_stick(u, dim)
        return u
    if u.shape[1] > 1:
        _break_stick(u[:, 1:], dim - 1, 1.0 - u[:, 0])
    return u if stick[0] == 0 else u[:, 1:]


# --- public single-draw and batch samplers --------------------------------


def haar_state(dim: int, rng: RngStream, index: int = 0) -> StateVector:
    """Draw sample ``index`` of the Haar pure-state stream."""
    return StateVector(haar_states(dim, rng, index, 1)[0])


def _haar_rows(u: np.ndarray) -> np.ndarray:
    """One Haar state per row of ``2 * dim`` uniforms: ``dim`` complex normals, normalized."""
    gauss = _complex_normals(u)  # each normal's modulus is at least 2**-16: no row is zero
    return gauss / np.linalg.norm(gauss, axis=1, keepdims=True)


def haar_states(dim: int, rng: RngStream, start: int, count: int) -> np.ndarray:
    """Rows are Haar states for sample indices start..start+count-1."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return _haar_rows(_uniforms(rng, start, count, 2 * dim))


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
    if n_samples < 1:
        raise ValueError(f"sample count must be >= 1, got {n_samples}")
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


def _binomial_estimate(count: int, n_samples: int) -> BornEstimate:
    freq = count / n_samples
    std_err = math.sqrt(freq * (1.0 - freq) / n_samples)
    return BornEstimate(freq, std_err, n_samples)


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
    conj_targets = targets.conj()
    p = np.abs(conj_targets @ forward.entries) ** 2

    if isinstance(dist, Fixed):  # deterministic: one evaluation stands for every sample
        if dist.state.dim != dim:
            raise ValueError(f"dimension mismatch: fixed state {dist.state.dim} vs {dim}")
        q = np.abs(conj_targets @ dist.state.entries) ** 2
        return tally_rule((p + q)[None, :], tie_tol) * n_samples

    k = targets.shape[0]
    # Every drawn overlap is at most 1, and float addition is monotonic: an outcome that does not
    # fire at p + 1 never fires. Only the candidates' overlaps are drawn and tallied.
    cand = [j for j, p_j in enumerate(p.tolist()) if _fires(p_j + 1.0, tie_tol)]
    if not cand:  # no sample can assign an outcome
        return np.array([0] * k + [n_samples, 0], dtype=np.int64)
    # the candidates broken off a stick, or None: all k overlaps drawn as version 5 drew them
    stick = cand if len(cand) < k and _breaks_stick(dist, cand, dim) else None
    p_drawn = p if stick is None else p[stick]

    def chunk_tallies(u: np.ndarray) -> np.ndarray:
        sums = _overlaps(dist, dim, k, stick, u)
        sums += p_drawn
        return tally_rule(sums, tie_tol)

    draws = [(RngStream(seed, stream_index), _overlap_words(dist, dim, k, stick))]
    counts = _sampled(chunk_tallies, n_samples, draws, workers)
    if stick is None:
        return counts
    tallies = np.zeros(k + 2, dtype=np.int64)
    tallies[stick], tallies[-2:] = counts[:-2], counts[-2:]
    return tallies


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
    tallies = _rule_tallies(forward, basis.entries, dist, n_samples, seed, tie_tol, stream_index, workers)
    if tallies[-1]:
        raise MultipleOutcomesError(
            f"{int(tallies[-1])} samples fired more than one outcome; the basis is not orthonormal"
        )
    no_assign_rate = int(tallies[-2]) / n_samples
    estimates = tuple(_binomial_estimate(int(c), n_samples) for c in tallies[:-2])
    return BasisMcResult(estimates, no_assign_rate, n_samples)


def exclusivity_scan(dim: int, n_samples: int, seed: int, tie_tol: float = 0.0, *, workers: int = 1) -> np.ndarray:
    """The rule's ``tally_rule`` counts over a Haar basis, for Haar forward and backward states.

    For Haar states f, b and a Haar basis U, U^dagger f and U^dagger b are independent Haar
    states, so the basis overlaps p and q of a sample are two independent flat Dirichlet
    vectors, drawn from streams 1 and 2 of ``seed``, ``dim`` words each. Returns the
    ``dim + 2`` counts: each outcome fired alone, none fired, more than one fired (a violation).
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")

    def chunk_tallies(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        p = _flat_dirichlet(u, dim)
        p += _flat_dirichlet(v, dim)
        return tally_rule(p, tie_tol)

    draws = [(RngStream(seed, 1), dim), (RngStream(seed, 2), dim)]  # p, then q
    return _sampled(chunk_tallies, n_samples, draws, workers)


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

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
drawn into a fresh array, since ``random_raw`` takes no ``out``. A chunk's
uniforms are one contiguous row per sample. A stick-broken draw takes its
chunk's 32-bit words instead (below).

The Haar state sampler (``haar_states``) builds complex vectors from
Box-Muller normals. The estimators and the exclusivity scan never build a
backward state: the rule sees one only through its overlaps ``|<b|a_k>|^2``
with the outcomes, and those are drawn from their closed-form laws
(``_overlaps``). The estimators draw only the overlaps of the outcomes that
can fire, by stick-breaking, while those are at most half of them
(sample-stream version 6, ``_draw_plan``). In a flat Dirichlet vector an
outcome's overlap is the first piece of a stick broken by neutrality, so
every ``born_mc`` point is the one-candidate stick: one word per sample,
under either law.

Every stick-broken draw is tallied on its 32-bit words (``_stick_tallies``).
Each piece a word breaks off is at most a monotone function of that word
alone, so integer bounds fixed for the call (``_stick_bounds``) decide
almost every sample: its first word surely fires, or surely does not, and
no later word can fire. Only the rest, the survivors (a first word whose
rule sum lies within about 2**-30 of the rule's threshold, or a later word
that may fire), run the float path, and every step of it acts on each
sample alone, so the counts are the float path's, sample for sample. A
uniform-overlap call whose only candidate is the target (every such
``born_mc`` point, and a ``basis_mc`` whose other outcomes cannot fire) has
no survivor and is one count: sample i fires exactly when
its word is at least one integer threshold (``_word_threshold``), since its
rule sum ``p_0 + (h + 0.5) * 2**-32`` is one rounded addition, monotone in
its word h; no transcendental function decides those counts, so they are
the same under any SIMD dispatch.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.random import Philox

from .assignment import RULE_ROUNDING_BOUND, MultipleOutcomesError, PreconditionError, _fires, tally_rule
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
# flat Dirichlet over all d overlaps is drawn. With the stick tallied on its words, the stick is faster
# than the flat draw at every candidate count up to d - 2, at every d from 4 to 64 under both laws
# (BENCH_stick_words.json), so a larger share would draw faster; a new share is a change of sample
# streams.
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


class BornEstimate(NamedTuple):
    """Monte Carlo frequency with its binomial standard error."""

    frequency: float
    std_err: float
    samples: int


class BasisMcResult(NamedTuple):
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
        raise ValueError(f"counter must be non-negative and less than 2**256, got {tick}")
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


def _words(stream: RngStream, first_sample: int, count: int, words_per_sample: int) -> np.ndarray:
    """The 32-bit words of samples ``[first_sample, first_sample + count)``, in stream order.

    With ``w = words_per_sample``, sample ``j`` owns words ``[j*w, (j+1)*w)``
    of the stream's one word sequence, so the words of sample i depend only
    on (stream, i). A Philox counter tick yields four 64-bit outputs, eight
    words, each output's low half first: the draw starts at the tick holding
    the first word and drops the words before it, so a draw may start on an
    output's high half. Returns a ``count * w`` uint32 view of the draw's
    Philox outputs.
    """
    first_word, n_words = first_sample * words_per_sample, count * words_per_sample
    skip = first_word % 8
    outputs = _philox_outputs(stream, first_word // 8, (skip + n_words + 1) // 2)
    return outputs.astype("<u8", copy=False).view("<u4")[skip:skip + n_words]


def _uniforms(
    stream: RngStream, first_sample: int, count: int, words_per_sample: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniforms on (0, 1), one per 32-bit word: a ``(count, w)`` array, one row per sample.

    Row i holds the ``w = words_per_sample`` words of sample ``first_sample + i``
    (``_words``) as ``_word_uniforms`` makes them, written into ``out`` (shape
    ``(count, w)``) when it is given: ``_sampled`` passes views of its
    thread's chunk buffer.
    """
    halves = _words(stream, first_sample, count, words_per_sample)
    return _word_uniforms(halves.reshape(count, words_per_sample), out)


def _word_uniforms(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each 32-bit word ``h`` as the uniform ``(h + 0.5) * 2**-32``, exactly, from 2**-33 to
    1 - 2**-33, written into ``out`` (of ``h``'s shape, in any layout) when it is given."""
    out = np.add(h, 0.5, out=out)
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


def _draw_plan(dist: BackwardDistribution, cand: list, dim: int) -> tuple[list | None, int]:
    """``(stick, words)``: the candidates ``cand`` (ascending outcome indices) broken off a stick,
    or None for all d overlaps drawn flat, and the words (uniforms) each sample takes.

    The stick is broken while the candidates on it (of the d overlaps for Haar, of the d - 1
    beside the target for uniform overlap, which draws q_0 from one more word) are at most
    ``_STICK_SHARE`` of its pieces, so its last piece, whose power would be 1/0, is never drawn.
    A lone target, ``[0]``, is a one-word stick under both laws."""
    if isinstance(dist, HaarPure):
        return (cand, len(cand)) if len(cand) <= _STICK_SHARE * dim else (None, dim)
    if isinstance(dist, UniformOverlap):
        rest = len(cand) - (cand[0] == 0)  # the candidates besides the target, 0
        return (cand, 1 + rest) if rest <= _STICK_SHARE * (dim - 1) else (None, dim)
    raise TypeError(f"unknown backward distribution: {type(dist).__name__}")


def _break_stick(u: np.ndarray, sticks: int, rest: np.ndarray | None = None) -> None:
    """Overwrite the columns of ``u`` with the first pieces of a stick of length ``rest`` (one
    per row; None for 1) broken into ``sticks`` flat Dirichlet pieces, one column at a time.

    Piece j is ``rem[j - 1] - rem[j]``, where ``rem[-1] = rest`` and ``rem[j]`` is ``rem[j - 1]``
    times ``u[:, j] ** (1 / (sticks - 1 - j))``, the Beta(sticks - 1 - j, 1) share of the rest
    that piece j leaves (neutrality: Connor & Mosimann, JASA 64, 194, 1969). ``u`` has fewer
    than ``sticks`` columns. Every pass reads and writes whole columns, each contiguous when ``u``
    is F-contiguous, as ``_stick_tallies`` gathers its survivors.
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


def _overlaps(dist: BackwardDistribution, dim: int, stick: list | None, u: np.ndarray) -> np.ndarray:
    """Overlaps ``|<b|a_j>|^2`` of sampled backward states b with the outcomes ``a_j`` of an
    orthonormal basis, from uniforms ``u`` of shape ``(count, words)`` as ``_draw_plan`` sizes them,
    one row per sample (sample-stream version 6): with the outcomes ``stick`` (ascending indices),
    shape (count, len(stick)), or with all d outcomes when ``stick`` is None, shape (count, d).

    ``stick`` None draws all d overlaps flat: under Haar they are flat Dirichlet; under uniform
    overlap, with the target as a_0, q_0 ~ U(0, 1) and the rest is (1 - q_0) times a flat Dirichlet
    over the target's complement (d - 1 more words).
    Otherwise the overlaps of ``stick`` are broken off a stick one at a time, in index order
    (``_break_stick``). Haar breaks the stick of length 1 into the d overlaps, so a lone
    candidate's overlap is Beta(1, d - 1), q_0 = 1 - u**(1/(d - 1)) from one word. Uniform overlap
    draws q_0 ~ U(0, 1) from one word, whether or not 0 is in ``stick``, and breaks the stick of
    length 1 - q_0 into the other d - 1 overlaps.
    The overlaps are built in ``u`` itself, and the result is a view of it.
    """
    if stick is None:
        if isinstance(dist, HaarPure):
            return _flat_dirichlet(u, dim)
        scale = 1.0 - u[:, :1]  # exact, as is 1 - scale: q_0 is a multiple of 2**-33 in (0, 1)
        block = _flat_dirichlet(u, dim - 1, first=1)  # whole rows: strided in-place steps read slower
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


def _sampled(block, n_samples: int, draws, workers: int, reduce=np.add, *, raw: bool = False):
    """``block(*uniforms)`` over the chunks of samples ``[0, n_samples)``, folded with ``reduce`` in chunk order.

    ``draws`` holds one ``(stream, words)`` pair per draw a sample makes; for the chunk of samples
    ``[lo, hi)`` the block gets, per draw, the ``(hi - lo, words)`` array
    ``_uniforms(stream, lo, hi - lo, words)``, one contiguous row per sample.
    With ``raw`` it gets the same draw's 32-bit words instead, ``_words(stream, lo, hi - lo,
    words)`` as a ``(hi - lo, words)`` uint32 array, for a block that builds floats only where it
    needs them: the stick-broken tally (``_stick_tallies``).
    ``_chunk_samples`` sizes the chunks by the words of all draws. The arrays of uniforms are
    consecutive views of the calling thread's one buffer of ``_CHUNK_WORDS`` uniforms, so chunk
    after chunk and call after call write the same pages, and no two threads share one; only a
    sample wider than the buffer (a one-sample chunk) gets arrays of its own. The next chunk
    overwrites the uniforms, so a block must not return a view of them. With an exact ``reduce``
    (integer addition, or that and a minimum) neither the chunk size nor ``workers`` changes the
    result.
    """
    if n_samples < 1:
        raise ValueError(f"sample count must be >= 1, got {n_samples}")
    words = sum(w for _, w in draws)
    chunk_size = _chunk_samples(words)

    def run(lo: int, hi: int):
        count = hi - lo
        if raw:
            return block(*(_words(stream, lo, count, w).reshape(count, w) for stream, w in draws))
        if count * words > _CHUNK_WORDS:
            buffer = np.empty(count * words)
        else:
            if not hasattr(_THREAD, "buffer"):
                _THREAD.buffer = np.empty(_CHUNK_WORDS)
            buffer = _THREAD.buffer
        uniforms, start = [], 0
        for stream, w in draws:
            uniforms.append(_uniforms(stream, lo, count, w, buffer[start:start + count * w].reshape(count, w)))
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


def _check_exclusive(weights: np.ndarray, tie_tol: float, what: str) -> None:
    """PreconditionError unless the two largest ``weights`` sum to at most 1 + tie_tol + ``RULE_ROUNDING_BOUND``.

    That is the rule's precondition for firing at most one outcome: two outcomes fire together only
    when each one's forward and backward weight sum exceeds that bound (``_fires``), so their four
    weights sum to more than twice it, which a forward and a backward pair that each meet it cannot
    reach (the float sums round alike, since they round the same values in one binade). States and
    bases within the boundary's tolerances may miss it.
    """
    if weights.shape[0] < 2:
        return
    second, first = sorted(weights.tolist())[-2:]
    total = first + second
    if _fires(total, tie_tol):
        raise PreconditionError(
            f"the {what}'s two largest weights over the outcomes sum to {total!r}, more than "
            f"1 + tie_tol + {RULE_ROUNDING_BOUND:.1e} (tie_tol = {tie_tol!r}), the bound under which "
            "the rule fires at most one outcome per sample"
        )


def _word_threshold(p0: float, tie_tol: float) -> int:
    """The least word h in [0, 2**32) whose overlap ``(h + 0.5) * 2**-32`` fires the rule at the
    forward weight ``p0``, or 2**32 if none does.

    The rule's sum ``p0 + (h + 0.5) * 2**-32`` is one rounded addition, monotone in h, and Python
    floats are the IEEE doubles the chunks add, so the words that fire are exactly those from the
    result on. The closed form below is within a word or two of it; ``_fires`` at its neighbours
    steps it to the exact boundary.
    """
    def fires(h: int) -> bool:
        return bool(_fires(p0 + (h + 0.5) * 2.0**-32, tie_tol))

    guess = (1.0 + tie_tol + RULE_ROUNDING_BOUND - p0) * 2.0**32 - 0.5
    h = math.ceil(min(max(guess, 0.0), 2.0**32))
    while h > 0 and fires(h - 1):
        h -= 1
    while h < 2**32 and not fires(h):
        h += 1
    return h


# The slack in a rule sum by which the stick's word bounds clear the float path. Its sums lie within a
# few roundings per column of the exact ones (a power, a product per column broken before, a difference
# and the forward weight's addition), about 1e-15 over tens of columns, so a word that a bound decides
# is decided the same by the float path.
_WORD_SLACK = 2.0**-30


def _word_bound(x: float, power: int, pad: int) -> int:
    """The number of words h whose uniform ``(h + 0.5) * 2**-32`` lies below ``x**power`` (none for x
    at most 0, all for x at least 1), plus ``pad``, held to [0, 2**32]."""
    if x <= 0.0:
        return 0
    return min(max(math.ceil(min(x, 1.0) ** power * 2.0**32 - 0.5) + pad, 0), 2**32)


def _stick_bounds(dist: BackwardDistribution, dim: int, stick: list, p_drawn: list, tie_tol: float) -> tuple:
    """``(fire, band, tops)``: the integer word bounds that decide most samples of a stick-broken draw
    of the outcomes ``stick``, whose forward weights are ``p_drawn`` (``_stick_tallies``).

    Word column j of a sample breaks piece j off the stick under Haar, and under uniform overlap,
    for j >= 1, piece j - 1 of the target's complement; either way the piece is at most
    ``1 - u_j**(1/(d - 1 - j))``, a monotone function of its own word, with equality for Haar's
    column 0 (neutrality: Connor & Mosimann, JASA 64, 1969; the inverse of the Beta(1, d - 1 - j)
    CDF: Devroye, Non-Uniform Random Variate Generation, 1986, ch. II). With
    ``c = 1 + tie_tol + RULE_ROUNDING_BOUND`` and its outcome's room ``a = 1 + p_j - c``, the
    column cannot fire once ``u_j >= (a + s)**(d - 1 - j)``, s being ``_WORD_SLACK``: ``tops[j - 1]``
    is the number of words below that, plus 2, for each later column j. Under Haar, column 0 surely
    fires while ``u_0 < (a - s)**(d - 1)``: ``fire`` is the number of words below that, less 2, and
    the words in ``[fire, band)``, up to column 0's own may-fire bound, are undecided. Under uniform
    overlap column 0 is q_0 itself, and ``band`` is 0: the target fires exactly at and above ``fire
    = _word_threshold``, or, when it is not on the stick, column 0 has no rule and ``fire`` is None.
    """
    c = 1.0 + tie_tol + RULE_ROUNDING_BOUND
    if isinstance(dist, HaarPure):
        room = 1.0 + p_drawn[0] - c
        fire, band = _word_bound(room - _WORD_SLACK, dim - 1, -2), _word_bound(room + _WORD_SLACK, dim - 1, 2)
    else:
        fire, band = (_word_threshold(p_drawn[0], tie_tol) if stick[0] == 0 else None), 0
    later = p_drawn[1:] if fire is not None else p_drawn  # the weights of word columns 1, 2, ...
    return fire, band, [_word_bound(1.0 + p_j - c + _WORD_SLACK, dim - 1 - j, 2) for j, p_j in enumerate(later, 1)]


def _stick_tallies(dist: BackwardDistribution, dim: int, stick: list, p_drawn: list, tie_tol: float):
    """The chunk kernel of a stick-broken draw: from a chunk's ``(count, words)`` block of 32-bit
    words (``_sampled(..., raw=True)``), the ``tally_rule`` counts of its rule sums ``_overlaps +
    p_drawn``, the same, sample for sample, as the float path over the whole chunk.

    The word bounds (``_stick_bounds``) decide every sample whose column-0 word lies outside Haar's
    undecided band and whose later words all lie at or above their may-fire bounds: it fires column
    0 alone if that word is sure to fire, and nothing otherwise. The rest, the survivors, are
    gathered one contiguous column per word and run the float path (``_word_uniforms``,
    ``_overlaps``, the forward weights' addition, ``tally_rule``); its every step acts on each
    sample alone, so their pieces are bit for bit those of the whole chunk. A draw with neither band
    nor later column, the one-word uniform-overlap draw, is one count of its words.
    """
    haar = isinstance(dist, HaarPure)
    fire, band, tops = _stick_bounds(dist, dim, stick, p_drawn, tie_tol)
    sure = np.less if haar else None if fire is None else np.greater_equal  # column 0's sure fires
    # a candidate's room is positive, so each top is at least 2 and each last may-fire word fits 32 bits
    lasts = np.array([top - 1 for top in tops], dtype=np.uint32)[:, None] if tops else None
    zeros = [0] * (len(p_drawn) - 1)

    def tallies(h: np.ndarray) -> np.ndarray:
        n, columns = h.shape[0], np.ascontiguousarray(h.T)  # one contiguous row per word column
        fired = 0 if sure is None else np.count_nonzero(sure(columns[0], fire))
        survivors = None
        if haar and np.count_nonzero(columns[0] < band) > fired:  # some column-0 word in [fire, band)
            survivors = np.subtract(columns[0], fire, dtype=np.uint32) < band - fire
        if lasts is not None and (columns[1:].min(axis=1) <= lasts[:, 0]).any():  # a later word below its top
            below = np.logical_or.reduce(columns[1:] <= lasts, axis=0)
            survivors = below if survivors is None else np.logical_or(survivors, below, out=survivors)
        if survivors is None:
            return np.array([fired, *zeros, n - fired, 0], dtype=np.int64)
        gathered = columns.take(np.flatnonzero(survivors), axis=1)  # faster than a boolean index here
        if sure is not None:
            fired -= np.count_nonzero(sure(gathered[0], fire))
        sums = _overlaps(dist, dim, stick, _word_uniforms(gathered).T)  # F-contiguous: a column per word
        sums += p_drawn
        counts = tally_rule(sums, tie_tol)
        counts[0] += fired
        counts[-2] += n - gathered.shape[1] - fired
        return counts

    return tallies


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
    """``tally_rule`` summed over sampled backward states; ``targets`` rows are the outcomes: the
    target alone, so that ``_draw_plan`` makes it the one-candidate stick ``[0]`` (``born_mc``), or
    a whole basis, the target first (``basis_mc``).

    Raises PreconditionError when two outcomes' forward weights (or, for a ``Fixed`` state, its
    weights) sum to more than 1 + tie_tol + ``RULE_ROUNDING_BOUND``: such inputs may fire both
    outcomes of one sample.

    A stick-broken draw is tallied on its 32-bit words (``_stick_tallies``): integer bounds fixed
    for the call decide each sample but those near a bound, and only those run the float path, so
    the counts are the float path's, sample for sample. Under uniform overlap a sample of one word,
    ``h``, has the overlap ``(h + 0.5) * 2**-32`` with the target, and ``p_0`` plus it is one
    rounded float addition, monotone in ``h``: the samples that fire are exactly those whose word
    is at least ``_word_threshold(p_0, tie_tol)``, so such a call counts each chunk's words against
    that one integer and builds no float. The flat draw of all d overlaps keeps its float path.
    """
    dim = forward.dim
    if targets.shape[1] != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {targets.shape[1]}")
    if n_samples < 1:
        raise ValueError(f"sample count must be >= 1, got {n_samples}")
    conj_targets = targets.conj()
    p = np.abs(conj_targets @ forward.entries) ** 2
    k = targets.shape[0]
    _check_exclusive(p, tie_tol, "forward state")

    if isinstance(dist, Fixed):  # deterministic: one evaluation stands for every sample
        if dist.state.dim != dim:
            raise ValueError(f"dimension mismatch: fixed state {dist.state.dim} vs {dim}")
        q = np.abs(conj_targets @ dist.state.entries) ** 2
        _check_exclusive(q, tie_tol, "fixed backward state")
        return tally_rule((p + q)[None, :], tie_tol) * n_samples

    # Every drawn overlap is at most 1, and float addition is monotonic: an outcome that does not
    # fire at p + 1 never fires. Only the candidates' overlaps are drawn and tallied.
    weights = p.tolist()
    cand = [j for j, p_j in enumerate(weights) if _fires(p_j + 1.0, tie_tol)]
    if not cand:  # no sample can assign an outcome
        return np.array([0] * k + [n_samples, 0], dtype=np.int64)
    stick, words = _draw_plan(dist, cand, dim)  # the candidates broken off a stick, or None: all d
    draws = [(RngStream(seed, stream_index), words)]
    if stick is None:
        def chunk_tallies(u: np.ndarray) -> np.ndarray:
            sums = _overlaps(dist, dim, None, u)
            sums += p
            return tally_rule(sums, tie_tol)

        return _sampled(chunk_tallies, n_samples, draws, workers)
    kernel = _stick_tallies(dist, dim, stick, [weights[j] for j in stick], tie_tol)
    counts = _sampled(kernel, n_samples, draws, workers, raw=True)
    if len(counts) == k + 2:  # every outcome on the stick, in index order, as a lone target's stick [0]
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

    Raises PreconditionError if two of ``forward``'s weights over the basis (or of a ``Fixed``
    state's) sum to more than 1 + tie_tol + ``RULE_ROUNDING_BOUND``, the rule's precondition for
    exclusivity, and
    MultipleOutcomesError if any sample satisfies the rule for two outcomes all the same.
    """
    tallies = _rule_tallies(forward, basis.entries, dist, n_samples, seed, tie_tol, stream_index, workers)
    if tallies[-1]:
        raise MultipleOutcomesError(f"{int(tallies[-1])} samples fired more than one outcome")
    counts = tallies.tolist()
    estimates = tuple(map(_binomial_estimate, counts[:-2], repeat(n_samples)))
    return BasisMcResult(estimates, counts[-2] / n_samples, n_samples)


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

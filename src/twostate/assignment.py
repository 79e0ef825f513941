"""Deterministic measurement-outcome assignment for two-state pairs.

A pair of states (one labelled forward, one backward) assigns outcome ``a``
exactly when the two squared overlaps with ``a`` sum to more than 1; the
mixed-state form replaces the overlaps with Tr[(rho_fwd + rho_bwd) P_a].
At most one element of an orthonormal basis can satisfy the rule, so the
assignment is deterministic; it may also be empty.

Every evaluation of the rule goes through one comparison (``_fires``) and
every tally over outcomes through one batch kernel (``tally_rule``). Since
at most one outcome of a sample fires, the kernel counts from the indices
of the fired entries alone, a violation included: a sample that fired twice
holds more than one consecutive index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    DensityMatrix,
    HermitianOperator,
    OrthonormalBasis,
    Projector,
    StateVector,
    inner,
    trace_product,
)

__all__ = [
    "TwoStatePairPure",
    "TwoStatePairMixed",
    "AssignmentResult",
    "WeakValueResult",
    "MultipleOutcomesError",
    "OrthogonalPostSelectionError",
    "satisfies_pure",
    "satisfies_mixed",
    "tally_rule",
    "assign_over_basis",
    "time_reverse",
    "weak_value",
]


class MultipleOutcomesError(RuntimeError):
    """Two or more basis elements satisfied the rule.

    Impossible for an orthonormal basis; raised loudly because it can only
    mean the inputs violated a model invariant.
    """


class OrthogonalPostSelectionError(ValueError):
    """Weak value requested for a (numerically) orthogonal post-selection."""


class _Pair:
    """A forward and a backward component of one dimension."""

    def __post_init__(self):
        if self.forward.dim != self.backward.dim:
            raise ValueError(f"dimension mismatch: {self.forward.dim} vs {self.backward.dim}")

    @property
    def dim(self) -> int:
        return self.forward.dim


@dataclass(frozen=True, eq=False)
class TwoStatePairPure(_Pair):
    forward: StateVector
    backward: StateVector


@dataclass(frozen=True, eq=False)
class TwoStatePairMixed(_Pair):
    forward: DensityMatrix
    backward: DensityMatrix

    @classmethod
    def from_pure(cls, pair: TwoStatePairPure) -> "TwoStatePairMixed":
        return cls(DensityMatrix.pure(pair.forward), DensityMatrix.pure(pair.backward))


@dataclass(frozen=True)
class AssignmentResult:
    """Either ``Assigned(index)`` or ``NoOutcome`` (index is None)."""

    index: int | None

    @property
    def assigned(self) -> bool:
        return self.index is not None

    @classmethod
    def no_outcome(cls) -> "AssignmentResult":
        return cls(None)


@dataclass(frozen=True)
class WeakValueResult:
    value: complex
    event_probability: float


# An exact tie, a sum of exactly 1, comes out of floating point up to about
# 10 eps above 1 for d <= 32 and at d = 64 and 512, the dimensions the tests
# check; sums must clear the threshold by more than this.
RULE_ROUNDING_BOUND = 128 * np.finfo(float).eps
SINGULAR_TOL = 1e-12  # |<final|forward>| below which a weak value is singular


def _fires(sums, tie_tol: float):
    """The rule's comparison: sum > 1 + tie_tol, beyond rounding."""
    if tie_tol < 0.0:
        raise ValueError(f"tie tolerance must be >= 0, got {tie_tol!r}")
    return sums > 1.0 + tie_tol + RULE_ROUNDING_BOUND


def satisfies_pure(pair: TwoStatePairPure, a: StateVector, tie_tol: float = 0.0) -> bool:
    """True iff |<fwd|a>|^2 + |<bwd|a>|^2 > 1 + tie_tol."""
    if pair.dim != a.dim:
        raise ValueError(f"dimension mismatch: {pair.dim} vs {a.dim}")
    p = abs(inner(pair.forward, a)) ** 2
    q = abs(inner(pair.backward, a)) ** 2
    return bool(_fires(p + q, tie_tol))


def satisfies_mixed(pair: TwoStatePairMixed, p: Projector, tie_tol: float = 0.0) -> bool:
    """True iff Tr[(rho_fwd + rho_bwd) P] > 1 + tie_tol."""
    if pair.dim != p.dim:
        raise ValueError(f"dimension mismatch: {pair.dim} vs {p.dim}")
    total = trace_product(pair.forward.entries + pair.backward.entries, p)
    return bool(_fires(total, tie_tol))


def tally_rule(sums: np.ndarray, tie_tol: float = 0.0) -> np.ndarray:
    """Tally the rule over a batch of rule sums, one row per sample.

    ``sums[i, k]`` is the rule's left-hand side for sample ``i`` and outcome
    ``k``. Returns k + 2 int64 counts: the samples that fired only outcome
    0, ..., only outcome k-1, then the samples that fired no outcome, then
    the samples that fired more than one (an exclusivity violation).
    """
    fired = _fires(sums, tie_tol)
    n, k = fired.shape
    if k == 1:  # one outcome never fires twice: no per-sample count is needed
        count = np.count_nonzero(fired)
        return np.array([count, n - count, 0], dtype=np.int64)
    # the fired entries in sample order, each split into its sample and its outcome; a sample's
    # hits are one run, so a run of length one is a sample that fired that outcome alone
    rows, cols = np.divmod(np.flatnonzero(fired), k)
    first = np.ones(rows.size, dtype=bool)  # the first hit of each sample that fired
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    alone = first.copy()  # ... that is also its last: the sample fired that outcome alone
    alone[:-1] &= first[1:]
    firing, single = np.count_nonzero(first), np.count_nonzero(alone)
    return np.concatenate([np.bincount(cols[alone], minlength=k), (n - firing, firing - single)])


def _rule_sums(pair, basis: OrthonormalBasis) -> np.ndarray:
    """Per-outcome values of the rule's left-hand side, one per basis vector."""
    bmat = basis.as_matrix()
    if isinstance(pair, TwoStatePairPure):
        p = np.abs(bmat.conj() @ pair.forward.entries) ** 2
        q = np.abs(bmat.conj() @ pair.backward.entries) ** 2
        return p + q
    total = pair.forward.entries + pair.backward.entries
    # Tr[(rho_f + rho_b) |a_k><a_k|] = <a_k| (rho_f + rho_b) |a_k>
    vals = np.einsum("ki,ij,kj->k", bmat.conj(), total, bmat)
    return vals.real


def assign_over_basis(pair, basis: OrthonormalBasis, tie_tol: float = 0.0) -> AssignmentResult:
    """Assign the unique satisfying basis index, or NoOutcome.

    Evaluates the rule for every basis element so that exclusivity is checked
    on every call; a second satisfying index raises MultipleOutcomesError.
    """
    if pair.dim != basis.dim:
        raise ValueError(f"dimension mismatch: {pair.dim} vs {basis.dim}")
    sums = _rule_sums(pair, basis)
    tally = tally_rule(sums[None, :], tie_tol)
    if tally[-1]:
        raise MultipleOutcomesError(
            f"rule sums {sums.tolist()} fire more than one outcome; the inputs violate orthonormality"
        )
    hits = np.flatnonzero(tally[:-2])
    return AssignmentResult(int(hits[0])) if hits.size else AssignmentResult.no_outcome()


def time_reverse(pair):
    """Swap forward and backward components; an involution."""
    if isinstance(pair, TwoStatePairPure):
        return TwoStatePairPure(pair.backward, pair.forward)
    if isinstance(pair, TwoStatePairMixed):
        return TwoStatePairMixed(pair.backward, pair.forward)
    raise TypeError(f"not a two-state pair: {type(pair).__name__}")


def weak_value(a: HermitianOperator, forward: StateVector, final: StateVector) -> WeakValueResult:
    """<final|A|forward> / <final|forward>, plus the post-selection probability.

    Raises OrthogonalPostSelectionError when the post-selection amplitude is
    below ``SINGULAR_TOL`` in magnitude, where the quotient is singular.
    """
    if a.dim != forward.dim or forward.dim != final.dim:
        raise ValueError("dimension mismatch between observable and states")
    amplitude = complex(np.vdot(final.entries, forward.entries))
    if abs(amplitude) < SINGULAR_TOL:
        raise OrthogonalPostSelectionError(
            f"post-selection amplitude {abs(amplitude):.3e} below {SINGULAR_TOL:.1e}"
        )
    numerator = complex(np.vdot(final.entries, a.entries @ forward.entries))
    probability = abs(complex(np.vdot(forward.entries, final.entries))) ** 2
    return WeakValueResult(numerator / amplitude, probability)

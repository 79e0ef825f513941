"""The two-state outcome rule and its one batch kernel.

A pair of states (one labelled forward, one backward) assigns outcome ``a``
exactly when the two squared overlaps with ``a`` sum to more than 1; for
mixed states the sum is Tr[(rho_fwd + rho_bwd) P_a]. At most one element of
an orthonormal basis can satisfy the rule, so the assignment is
deterministic; it may also be empty.

Every evaluation of the rule goes through one comparison (``_fires``) and
every tally over outcomes through one batch kernel (``tally_rule``). Since
at most one outcome of a sample fires, the kernel counts each outcome's
column when the sums are stored a column at a time: if the column counts
add up to the samples that fired at all, no sample fired twice. Otherwise,
and for sums stored a row at a time, it counts from the indices of the
fired entries alone, a violation included: a sample that fired twice holds
more than one consecutive index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import HermitianOperator, StateVector

__all__ = [
    "WeakValueResult",
    "MultipleOutcomesError",
    "OrthogonalPostSelectionError",
    "PreconditionError",
    "tally_rule",
    "weak_value",
]


class MultipleOutcomesError(RuntimeError):
    """Two or more basis elements satisfied the rule.

    Impossible for an orthonormal basis; raised loudly because it can only
    mean the inputs violated a model invariant.
    """


class OrthogonalPostSelectionError(ValueError):
    """Weak value requested for a (numerically) orthogonal post-selection."""


class PreconditionError(ValueError):
    """Inputs beyond the bound under which the rule fires at most one outcome per sample."""


@dataclass(frozen=True)
class WeakValueResult:
    value: complex
    event_probability: float


# An exact tie, a sum of exactly 1, comes out of floating point up to about
# 10 eps above 1 for d <= 32 and at d = 64 and 512, the dimensions the tests
# check; sums must clear the threshold by more than this.
RULE_ROUNDING_BOUND = 128 * float(np.finfo(float).eps)
SINGULAR_TOL = 1e-12  # |<final|forward>| below which a weak value is singular


def _fires(sums, tie_tol: float):
    """The rule's comparison: sum > 1 + tie_tol, beyond rounding."""
    if tie_tol < 0.0:
        raise ValueError(f"tie tolerance must be >= 0, got {tie_tol!r}")
    return sums > 1.0 + tie_tol + RULE_ROUNDING_BOUND


def tally_rule(sums: np.ndarray, tie_tol: float = 0.0) -> np.ndarray:
    """Tally the rule over a batch of rule sums, one row per sample.

    ``sums[i, k]`` is the rule's left-hand side for sample ``i`` and outcome
    ``k``. Returns k + 2 int64 counts: the samples that fired only outcome
    0, ..., only outcome k-1, then the samples that fired no outcome, then
    the samples that fired more than one (an exclusivity violation).

    A single column is counted whole. When ``sums`` is F-contiguous with
    more than one row (one contiguous column per outcome, as the
    stick-broken draw stores them) each outcome's column is counted, and
    the columns ORed together count the samples that fired. If the two
    agree no sample fired twice and the column counts are the tally;
    otherwise, and for rows (C-contiguous sums, a single row among them),
    the tally is counted from the fired entries' indices in sample order.
    """
    fired = _fires(sums, tie_tol)
    n, k = fired.shape
    if k == 1:  # one outcome never fires twice: no per-sample count is needed
        count = np.count_nonzero(fired)
        return np.array([count, n - count, 0], dtype=np.int64)
    if not fired.flags.c_contiguous:  # F order: one contiguous column per outcome
        counts = [np.count_nonzero(fired[:, j]) for j in range(k)]
        firing = np.count_nonzero(np.logical_or.reduce(fired, axis=1))
        if firing == sum(counts):
            return np.array(counts + [n - firing, 0], dtype=np.int64)
        fired = np.ascontiguousarray(fired)  # a sample fired twice: count it from the hit index
    # the fired entries in sample order, each split into its sample and its outcome; a sample's
    # hits are one run, so a run of length one is a sample that fired that outcome alone
    rows, cols = np.divmod(np.flatnonzero(fired), k)
    first = np.ones(rows.size, dtype=bool)  # the first hit of each sample that fired
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    alone = first.copy()  # ... that is also its last: the sample fired that outcome alone
    alone[:-1] &= first[1:]
    firing, single = np.count_nonzero(first), np.count_nonzero(alone)
    return np.concatenate([np.bincount(cols[alone], minlength=k), (n - firing, firing - single)])


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

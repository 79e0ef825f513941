"""Qubit Bloch-sphere geometry and the geometric pair-distinguishing count.

Conventions: |0> maps to +z, and the overlap identity |<m|a>|^2 =
(1 + m.a)/2 ties the dot-product form of the outcome rule to the
state-vector form. The
pbr-geometric experiment is one counting kernel (``pbr_separators``) over
rows of Bloch vectors, given explicitly or drawn as Haar qubit states
(``pbr_geometric``). It takes each instance's maximum-margin bisector of the
two pair sums and judges it on the overlaps that the identity gives; a
degenerate instance, whose sums vanish or are parallel, is counted, not
judged.
Bloch vectors are plain float rows (..., 3) with no value type; the CLI
checks the unit norms of an explicit instance where it reads the config.
"""

from __future__ import annotations

import numpy as np

from .assignment import tally_rule
from .sampling import RngStream, _haar_rows, _sampled, _word_uniforms

__all__ = [
    "pbr_separators",
    "pbr_geometric",
]

# Radians; at or below this the two target sums are degenerate. The smallest nonzero angle arccos returns in
# double precision, arccos(nextafter(1.0, 0.0)), is 1.49e-8, above this tolerance: the test `angle > 1e-9`
# decides only whether the unit vectors' dot product, clipped to [-1, 1], is exactly 1 (or NaN).
PARALLEL_ANGLE_TOL = 1e-9


def _bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Pauli expectation values of qubit states: rows (..., 2) to rows (..., 3)."""
    c0, c1 = states[..., 0], states[..., 1]
    cross = c0.conj() * c1
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, np.abs(c0) ** 2 - np.abs(c1) ** 2], axis=-1)


def _bisectors(u: np.ndarray, v: np.ndarray):
    """Maximum-margin bisectors for rows of pair sums ``u`` and ``v``.

    Returns the unit vectors (u/|u| - v/|v|) normalized, the mask of rows
    whose sums vanish or are parallel within PARALLEL_ANGLE_TOL (their
    vectors are meaningless), and each margin min(a.u/|u|, -a.v/|v|).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        uhat = u / np.linalg.norm(u, axis=-1, keepdims=True)
        vhat = v / np.linalg.norm(v, axis=-1, keepdims=True)
        angle = np.arccos(np.clip(np.sum(uhat * vhat, axis=-1), -1.0, 1.0))
        diff = uhat - vhat
        a = diff / np.linalg.norm(diff, axis=-1, keepdims=True)
    degenerate = ~(angle > PARALLEL_ANGLE_TOL)  # NaN angles, from vanishing sums, count as degenerate
    margin = np.minimum(np.sum(a * uhat, axis=-1), -np.sum(a * vhat, axis=-1))
    return a, degenerate, margin


def pbr_separators(vectors: np.ndarray, tie_tol: float = 0.0) -> tuple:
    """Separators found, degenerate instances, and the least margin of the rest.

    ``vectors`` has shape (4, n, 3): the unit Bloch vectors m, m', x, x' of n instances, pair
    (m, m') against pair (x, x'). An instance whose pair sums are not degenerate gets its
    maximum-margin bisector a, and a is a separator when the rule fires for it on the first
    pair and not on the second. The margin is inf when every instance is degenerate.
    """
    m, mp, x, xp = vectors
    a, skip, margin = _bisectors(m + mp, x + xp)
    keep = ~skip
    overlaps = (1.0 + np.sum(vectors[:, keep] * a[keep], axis=-1)) / 2.0  # |<.|a>|^2, by the identity
    # columns [pair a, pair b] of the rule sums; a separator fires pair a alone
    sums = np.stack([overlaps[0] + overlaps[1], overlaps[2] + overlaps[3]], axis=1)
    found = int(tally_rule(sums, tie_tol)[0])
    return found, int(np.count_nonzero(skip)), float(np.min(margin[keep], initial=np.inf))


def pbr_geometric(n_samples: int, seed: int, tie_tol: float = 0.0, *, workers: int = 1) -> tuple:
    """``pbr_separators`` over ``n_samples`` instances of Haar qubit states, folded exactly.

    Instance i draws m, m', x, x' from streams 20-23 of ``seed``, 4 words (two complex
    normals) each.
    """
    draws = [(RngStream(seed, 20 + k), 4) for k in range(4)]
    return _sampled(
        lambda *words: pbr_separators(_bloch_vectors(np.stack([_haar_rows(_word_uniforms(h)) for h in words])),
                                      tie_tol),
        n_samples, draws, workers, reduce=lambda a, b: (a[0] + b[0], a[1] + b[1], min(a[2], b[2])))

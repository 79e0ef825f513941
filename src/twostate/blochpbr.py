"""Qubit Bloch-sphere geometry and the geometric pair-distinguishing vector.

Conventions: |0> maps to +z, and the overlap identity
|<m|a>|^2 = (1 + m.a)/2 ties the dot-product form of the outcome rule to the
state-vector form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import StateVector

__all__ = [
    "BlochVector",
    "PbrGeometricInstance",
    "DegenerateInstanceError",
    "bloch_from_state",
    "state_from_bloch",
    "bell_condition",
    "pbr_distinguishing_vector",
]

PARALLEL_ANGLE_TOL = 1e-9  # radians; below this the two target sums are degenerate


class DegenerateInstanceError(ValueError):
    """No in-plane separating vector exists (parallel or vanishing sums)."""


@dataclass(frozen=True)
class BlochVector:
    """Unit 3-vector representing a pure qubit state."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        nrm = float(np.sqrt(self.x**2 + self.y**2 + self.z**2))
        if not abs(nrm - 1.0) <= 1e-12:  # also rejects NaN
            raise ValueError(f"Bloch vector norm {nrm!r} deviates from 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, v) -> "BlochVector":
        arr = np.asarray(v, dtype=float)
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


@dataclass(frozen=True)
class PbrGeometricInstance:
    """Two pairs of Bloch vectors to be told apart by one measurement."""

    pair_a: tuple
    pair_b: tuple

    def __post_init__(self):
        if len(self.pair_a) != 2 or len(self.pair_b) != 2:
            raise ValueError("each pair must contain exactly two Bloch vectors")


def _bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Pauli expectation values of qubit states: rows (..., 2) to rows (..., 3)."""
    c0, c1 = states[..., 0], states[..., 1]
    cross = c0.conj() * c1
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, np.abs(c0) ** 2 - np.abs(c1) ** 2], axis=-1)


def _bloch_states(vectors: np.ndarray) -> np.ndarray:
    """Qubit states with a real non-negative amplitude on |0>: rows (..., 3) to rows (..., 2)."""
    theta = np.arccos(np.clip(vectors[..., 2], -1.0, 1.0))
    phi = np.arctan2(vectors[..., 1], vectors[..., 0])
    return np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)


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


def bloch_from_state(s: StateVector) -> BlochVector:
    """Pauli expectation values of a qubit state."""
    if s.dim != 2:
        raise ValueError(f"Bloch conversion requires dimension 2, got {s.dim}")
    return BlochVector.from_array(_bloch_vectors(s.entries))


def state_from_bloch(v: BlochVector) -> StateVector:
    """Qubit state with a real non-negative amplitude on |0>."""
    return StateVector(_bloch_states(v.as_array()))


def bell_condition(m: BlochVector, n: BlochVector, a: BlochVector) -> bool:
    """Dot-product form of the outcome rule: m.a + n.a > 0."""
    return m.dot(a) + n.dot(a) > 0.0


def pbr_distinguishing_vector(inst: PbrGeometricInstance) -> BlochVector:
    """Unit vector with positive projection on the pair-a sum and negative on
    the pair-b sum, chosen as the maximum-margin bisector in their plane.

    With u, v the two (normalized) sums, the returned vector is
    (u - v)/|u - v|, which equalizes and maximizes min(a.u, -a.v).
    """
    u = inst.pair_a[0].as_array() + inst.pair_a[1].as_array()
    v = inst.pair_b[0].as_array() + inst.pair_b[1].as_array()
    a, degenerate, _ = _bisectors(u, v)
    if degenerate:
        raise DegenerateInstanceError(
            f"pair sums vanish or are parallel within {PARALLEL_ANGLE_TOL:.1e} rad; no separator exists"
        )
    return BlochVector.from_array(a)

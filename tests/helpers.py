"""Shared random-input generators for the test suite.

These are deliberately independent of the package's own samplers: tests use
numpy's default generator so that oracle inputs never flow through the code
under test.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from twostate import DensityMatrix, OrthonormalBasis, StateVector, sampling


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec / np.linalg.norm(vec))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_basis(rng: np.random.Generator, dim: int) -> OrthonormalBasis:
    return OrthonormalBasis.from_unitary_matrix(random_unitary(rng, dim))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish 3x3 rotation matrix (QR with determinant fix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def chunk_samples(count: int):
    """A context in which the sampling driver runs ``count`` samples per chunk, whatever a sample's words."""
    return mock.patch.object(sampling, "_chunk_samples", lambda words_per_sample: count)

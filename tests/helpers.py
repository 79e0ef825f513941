"""Shared random-input generators and references for the test suite.

The generators are deliberately independent of the package's own samplers:
tests use numpy's default generator so that oracle inputs never flow through
the code under test. The references below them are forms the package no
longer runs, kept to check its kernels and overlap laws against: states and
unitaries built from Box-Muller normals of a stream's uniforms, and the
mixed-pair trace form of the projector-set rule.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from twostate import DensityMatrix, OrthonormalBasis, RngStream, SicPovm, StateVector, TwoStatePairMixed, sampling
from twostate.assignment import _fires
from twostate.sampling import _complex_normals, _uniforms
from twostate.sic import _require_valid


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


def uniform_overlap_states(a: StateVector, rng: RngStream, start: int, count: int) -> np.ndarray:
    """Rows are states whose squared overlap with ``a`` is uniform on (0, 1)."""
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


def sic_fires(sums: np.ndarray, s: SicPovm) -> np.ndarray:
    """The rule Tr[sum P_k] > 1 for each set element, over summed pair matrices.

    On a trace-2 sum this is lambda_k > 1 - 1/d. ``sums`` has shape
    (..., d, d); the result has shape (..., d^2). The set is validated once
    per call.
    """
    _require_valid(s)
    return _fires(np.einsum("...ij,kji->...k", sums, s.projectors).real, 0.0)


def sic_distinguish_pair(pair0: TwoStatePairMixed, pair1: TwoStatePairMixed, s: SicPovm):
    """First element index whose rule value differs between the two pairs.

    Returns None when no element separates them; distinct pairs with equal
    summed matrices are legitimately inseparable.
    """
    if pair0.dim != pair1.dim or pair0.dim != s.dim:
        raise ValueError(f"dimension mismatch: pairs {pair0.dim}/{pair1.dim} vs set {s.dim}")
    fired = sic_fires(np.array([pair.forward.entries + pair.backward.entries for pair in (pair0, pair1)]), s)
    differs = np.flatnonzero(fired[0] != fired[1])
    return int(differs[0]) if differs.size else None

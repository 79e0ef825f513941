"""Dense complex linear algebra for small (d <= ~32) Hilbert spaces.

Value types (states, Hermitian operators, and orthonormal bases as one matrix
whose rows are the basis vectors) are checked once at construction and
immutable after it (backing arrays are frozen), and every operation is a pure
function, so everything here is safe to share across threads without
coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateVector",
    "HermitianOperator",
    "OrthonormalBasis",
    "commutator",
    "spectral",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
]


# Validator tolerances. Every check is written ``not dev <= TOL`` so that a
# NaN deviation fails it.
NORM_TOL = 1e-12  # |norm - 1| of a state vector
HERMITIAN_TOL = 1e-12  # max |M - M^H|
ORTHONORMAL_TOL = 1e-10  # max Gram deviation of a basis
RECONSTRUCTION_TOL = 1e-10  # ||V diag(E) V^H - H||_F of a spectral decomposition
DEGENERACY_REL = 1e-9  # eigenvalue gap, relative to the spectral range, that splits blocks


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _as_matrix(value) -> np.ndarray:
    """Accept raw arrays or any entries-bearing value type."""
    entries = getattr(value, "entries", value)
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _check_hermitian(mat: np.ndarray, what: str) -> None:
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian: max deviation {dev:.3e} > {HERMITIAN_TOL:.1e}")


@dataclass(frozen=True, eq=False)
class _Checked:
    """A checked, immutable array: ``_check`` converts and checks ``entries``, which are stored frozen.

    Each subclass is declared a frozen dataclass itself, so that it has an ``__init__`` of its
    own: ``bench/tracer.py`` times a construction by wrapping the class's own ``__init__``.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self._check(self.entries)))

    @staticmethod
    def _check(entries) -> np.ndarray:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector(_Checked):
    """A normalized pure state: d complex amplitudes, d >= 2."""

    @staticmethod
    def _check(entries) -> np.ndarray:
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 1:
            raise ValueError(f"state vector must be 1-D, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"dimension must be >= 2, got {arr.shape[0]}")
        nrm = float(np.linalg.norm(arr))
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {nrm!r} deviates from 1 beyond {NORM_TOL:.1e}")
        return arr

    @classmethod
    def normalized(cls, entries) -> "StateVector":
        """Build from an arbitrary nonzero vector by normalizing it."""
        arr = np.asarray(entries, dtype=complex)
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / nrm)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        arr = np.zeros(dim, dtype=complex)
        arr[index] = 1.0
        return cls(arr)


@dataclass(frozen=True, eq=False)
class HermitianOperator(_Checked):
    @staticmethod
    def _check(entries) -> np.ndarray:
        mat = _as_matrix(entries)
        _check_hermitian(mat, "operator")
        return mat


@dataclass(frozen=True, eq=False)
class OrthonormalBasis(_Checked):
    """A complete orthonormal basis: a (d, d) matrix whose rows are the basis vectors, d >= 2."""

    @staticmethod
    def _check(entries) -> np.ndarray:
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError(f"basis must be exactly d rows of dimension d >= 2, got shape {mat.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or huge entry gives an inf norm
            norms = np.linalg.norm(mat, axis=1)
        bad = ~(np.abs(norms - 1.0) <= NORM_TOL)
        if bad.any():
            raise ValueError(f"state vector norm {float(norms[bad][0])!r} deviates from 1 beyond {NORM_TOL:.1e}")
        dev = float(np.max(np.abs(mat.conj() @ mat.T - np.eye(mat.shape[0]))))
        if not dev <= ORTHONORMAL_TOL:
            raise ValueError(f"vectors are not orthonormal: max Gram deviation {dev:.3e} > {ORTHONORMAL_TOL:.1e}")
        return mat


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


def spectral(h: HermitianOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eigh``'s ascending eigenvalues and eigenvectors (as columns), and each eigenvalue's degeneracy block.

    Consecutive eigenvalues closer than ``DEGENERACY_REL`` times the spectral
    range share a block: block ids count the wider gaps below each eigenvalue.
    """
    hm = _as_matrix(h)
    _check_hermitian(hm, "spectral input")
    evals, evecs = np.linalg.eigh(hm)
    OrthonormalBasis._check(evecs.T)
    residual = float(np.linalg.norm((evecs * evals) @ evecs.conj().T - hm))
    if not residual <= RECONSTRUCTION_TOL:
        raise ValueError(f"spectral reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:.1e}")
    gap_tol = DEGENERACY_REL * float(evals[-1] - evals[0])
    blocks = np.concatenate([[0], np.cumsum(np.diff(evals) > gap_tol)])
    return evals, evecs, blocks


# --- JSON fixture format: [re, im] pairs, row-major for matrices ---------


def _complex_entries(pairs) -> list:
    """``complex(re, im)`` of each ``[re, im]`` pair; a boolean, which ``complex`` takes as 0 or 1, is no number."""
    return [complex(re, im) if type(re) is not bool and type(im) is not bool else _not_numbers(re, im)
            for re, im in pairs]


def _not_numbers(re, im):
    raise TypeError(f"expected [re, im] pairs of numbers, got {[re, im]!r}")


def vector_from_json(data) -> np.ndarray:
    return np.array(_complex_entries(data), dtype=complex)


def matrix_to_json(mat) -> list:
    arr = np.asarray(getattr(mat, "entries", mat), dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data) -> np.ndarray:
    rows = [_complex_entries(row) for row in data]
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError(f"expected a square matrix of {len(rows)} rows, but row {i} has {len(row)} entries")
    return np.array(rows, dtype=complex)

"""Dense complex linear algebra for small (d <= ~32) Hilbert spaces.

Value types are immutable after construction (backing arrays are frozen),
and every operation is a pure function, so everything here is safe to share
across threads without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateVector",
    "DensityMatrix",
    "HermitianOperator",
    "UnitaryOperator",
    "Projector",
    "OrthonormalBasis",
    "SpectralDecomposition",
    "inner",
    "projector_of",
    "trace_product",
    "commutator",
    "spectral",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
]


# Validator tolerances. Every check is written ``not dev <= TOL`` so that a
# NaN deviation fails it.
NORM_TOL = 1e-12  # |norm - 1| of a state vector
HERMITIAN_TOL = 1e-12  # max |M - M^H|
TRACE_TOL = 1e-12  # |Tr rho - 1| of a density matrix
PSD_FLOOR = 1e-10  # lowest eigenvalue a density matrix may have is -PSD_FLOOR
UNITARY_TOL = 1e-10  # ||U^H U - I||_F
IDEMPOTENT_TOL = 1e-10  # max |P^2 - P| and |Tr P - 1| of a projector
ORTHONORMAL_TOL = 1e-10  # max Gram deviation of a basis
RECONSTRUCTION_TOL = 1e-10  # ||V diag(E) V^H - H||_F of a spectral decomposition
IMAG_RESIDUE_TOL = 1e-10  # imaginary part a trace of Hermitian products may carry
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
class StateVector:
    """A normalized pure state: d complex amplitudes, d >= 2."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 1:
            raise ValueError(f"state vector must be 1-D, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"dimension must be >= 2, got {arr.shape[0]}")
        nrm = float(np.linalg.norm(arr))
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {nrm!r} deviates from 1 beyond {NORM_TOL:.1e}")
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

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
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite d x d matrix."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        _check_hermitian(mat, "density matrix")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {TRACE_TOL:.1e}")
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        if not float(evals.min()) >= -PSD_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {float(evals.min()):.3e} below -{PSD_FLOOR:.1e}")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def pure(cls, state: StateVector) -> "DensityMatrix":
        return cls(np.outer(state.entries, state.entries.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    entries: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        _check_hermitian(mat, "operator")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    entries: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        d = mat.shape[0]
        dev = float(np.linalg.norm(mat.conj().T @ mat - np.eye(d)))
        if not dev <= UNITARY_TOL:
            raise ValueError(f"matrix is not unitary: ||U^H U - I||_F = {dev:.3e}")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """Rank-1 orthogonal projector: Hermitian, idempotent, trace 1."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        _check_hermitian(mat, "projector")
        dev = float(np.max(np.abs(mat @ mat - mat)))
        if not dev <= IDEMPOTENT_TOL:
            raise ValueError(f"projector is not idempotent: max |P^2 - P| = {dev:.3e}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= IDEMPOTENT_TOL:
            raise ValueError(f"projector trace {tr!r} deviates from 1 (rank must be 1)")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """A complete orthonormal basis: d state vectors of dimension d."""

    vectors: tuple

    def __post_init__(self):
        vecs = tuple(self.vectors)
        if not vecs:
            raise ValueError("basis must contain at least one vector")
        d = vecs[0].dim
        if any(v.dim != d for v in vecs):
            raise ValueError("basis vectors have mixed dimensions")
        if len(vecs) != d:
            raise ValueError(f"basis must contain exactly {d} vectors, got {len(vecs)}")
        mat = np.array([v.entries for v in vecs])
        gram = mat.conj() @ mat.T
        dev = float(np.max(np.abs(gram - np.eye(d))))
        if not dev <= ORTHONORMAL_TOL:
            raise ValueError(f"vectors are not orthonormal: max Gram deviation {dev:.3e} > {ORTHONORMAL_TOL:.1e}")
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    def as_matrix(self) -> np.ndarray:
        """Row i is basis vector i."""
        return np.array([v.entries for v in self.vectors])

    @classmethod
    def from_unitary(cls, u: UnitaryOperator) -> "OrthonormalBasis":
        """Columns of the unitary become the basis vectors."""
        return cls.from_unitary_matrix(u.entries)

    @classmethod
    def from_unitary_matrix(cls, mat) -> "OrthonormalBasis":
        cols = _as_matrix(mat).T
        return cls(tuple(StateVector(c) for c in cols))

    @classmethod
    def computational(cls, dim: int) -> "OrthonormalBasis":
        return cls(tuple(StateVector.basis_state(dim, k) for k in range(dim)))

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, k: int) -> StateVector:
        return self.vectors[k]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator with explicit degeneracy grouping.

    ``eigenvalues`` are ascending; ``degeneracy_blocks`` partitions the index
    range into runs whose eigenvalues differ by less than the gap tolerance
    used at decomposition time.
    """

    eigenvalues: tuple
    eigenvectors: OrthonormalBasis
    degeneracy_blocks: tuple
    gap_tolerance: float

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("eigenvalues must be ascending")
        flat = [i for block in self.degeneracy_blocks for i in block]
        if sorted(flat) != list(range(len(vals))):
            raise ValueError("degeneracy blocks must partition the index range")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "degeneracy_blocks", tuple(tuple(b) for b in self.degeneracy_blocks))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors.as_matrix().T  # columns are eigenvectors
        return (v * np.asarray(self.eigenvalues)) @ v.conj().T


def inner(x: StateVector, y: StateVector) -> complex:
    """Inner product <x|y>, conjugate-linear in x."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return complex(np.vdot(x.entries, y.entries))


def projector_of(x: StateVector) -> Projector:
    """|x><x|; invariant under a global phase of x."""
    return Projector(np.outer(x.entries, x.entries.conj()))


def trace_product(r, p: Projector) -> float:
    """Tr(r P) for Hermitian r, returned as a real number.

    An imaginary residue above the tolerance signals a corrupted input and
    raises; below it, the residue is discarded.
    """
    mat = _as_matrix(r)
    pm = p.entries if isinstance(p, Projector) else _as_matrix(p)
    if mat.shape != pm.shape:
        raise ValueError(f"dimension mismatch: {mat.shape} vs {pm.shape}")
    val = complex(np.sum(mat * pm.T))
    if not abs(val.imag) <= IMAG_RESIDUE_TOL:
        raise ValueError(f"trace product has imaginary residue {val.imag:.3e}; inputs are not Hermitian")
    return val.real


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


def spectral(h: HermitianOperator, gap_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator with degeneracy detection.

    ``gap_tol`` defaults to ``DEGENERACY_REL`` times the spectral range;
    consecutive eigenvalues closer than that are grouped into one block.
    """
    hm = h.entries if isinstance(h, HermitianOperator) else _as_matrix(h)
    _check_hermitian(hm, "spectral input")
    evals, evecs = np.linalg.eigh(hm)
    if gap_tol is None:
        gap_tol = DEGENERACY_REL * float(evals[-1] - evals[0])

    blocks: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if float(evals[i] - evals[i - 1]) <= gap_tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])

    basis = OrthonormalBasis.from_unitary_matrix(evecs)
    dec = SpectralDecomposition(tuple(evals), basis, tuple(tuple(b) for b in blocks), float(gap_tol))
    residual = float(np.linalg.norm(dec.reconstruct() - hm))
    if not residual <= RECONSTRUCTION_TOL:
        raise ValueError(f"spectral reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:.1e}")
    return dec


# --- JSON fixture format: [re, im] pairs, row-major for matrices ---------


def vector_to_json(vec) -> list:
    arr = np.asarray(getattr(vec, "entries", vec), dtype=complex)
    return [[float(z.real), float(z.imag)] for z in arr]


def vector_from_json(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def matrix_to_json(mat) -> list:
    arr = np.asarray(getattr(mat, "entries", mat), dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)

"""Dense complex linear algebra for small (d <= ~32) Hilbert spaces.

Value types are immutable after construction (backing arrays are frozen),
and every operation is a pure function, so everything here is safe to share
across threads without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
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


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances used by all value-type validators."""

    norm: float = 1e-12
    hermitian: float = 1e-12
    trace: float = 1e-12
    psd_floor: float = 1e-10
    unitary: float = 1e-10
    idempotent: float = 1e-10
    orthonormal: float = 1e-10
    reconstruction: float = 1e-10
    imag_residue: float = 1e-10
    degeneracy_rel: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()


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


def _check_hermitian(mat: np.ndarray, tol: float, what: str) -> None:
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > tol:
        raise ValueError(f"{what} is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state: d complex amplitudes, d >= 2."""

    entries: np.ndarray
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 1:
            raise ValueError(f"state vector must be 1-D, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"dimension must be >= 2, got {arr.shape[0]}")
        nrm = float(np.linalg.norm(arr))
        if abs(nrm - 1.0) > self.tolerances.norm:
            raise ValueError(f"state vector norm {nrm!r} deviates from 1 beyond {self.tolerances.norm:.1e}")
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def normalized(cls, entries, tolerances: Tolerances = DEFAULT_TOLERANCES) -> "StateVector":
        """Build from an arbitrary nonzero vector by normalizing it."""
        arr = np.asarray(entries, dtype=complex)
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / nrm, tolerances)

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
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        tol = self.tolerances
        _check_hermitian(mat, tol.hermitian, "density matrix")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > tol.trace:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {tol.trace:.1e}")
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        if float(evals.min()) < -tol.psd_floor:
            raise ValueError(f"density matrix has eigenvalue {float(evals.min()):.3e} below -{tol.psd_floor:.1e}")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def pure(cls, state: StateVector) -> "DensityMatrix":
        return cls(np.outer(state.entries, state.entries.conj()), state.tolerances)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    entries: np.ndarray
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        _check_hermitian(mat, self.tolerances.hermitian, "operator")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    entries: np.ndarray
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        d = mat.shape[0]
        dev = float(np.linalg.norm(mat.conj().T @ mat - np.eye(d)))
        if dev > self.tolerances.unitary:
            raise ValueError(f"matrix is not unitary: ||U^H U - I||_F = {dev:.3e}")
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """Rank-1 orthogonal projector: Hermitian, idempotent, trace 1."""

    entries: np.ndarray
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        tol = self.tolerances
        _check_hermitian(mat, tol.hermitian, "projector")
        dev = float(np.max(np.abs(mat @ mat - mat)))
        if dev > tol.idempotent:
            raise ValueError(f"projector is not idempotent: max |P^2 - P| = {dev:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > tol.idempotent:
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
        tol = vecs[0].tolerances.orthonormal
        if dev > tol:
            raise ValueError(f"vectors are not orthonormal: max Gram deviation {dev:.3e} > {tol:.1e}")
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
        return cls.from_unitary_matrix(u.entries, u.tolerances)

    @classmethod
    def from_unitary_matrix(cls, mat, tolerances: Tolerances = DEFAULT_TOLERANCES) -> "OrthonormalBasis":
        cols = _as_matrix(mat).T
        return cls(tuple(StateVector(c, tolerances) for c in cols))

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
    return Projector(np.outer(x.entries, x.entries.conj()), x.tolerances)


def trace_product(r, p: Projector, tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Tr(r P) for Hermitian r, returned as a real number.

    An imaginary residue above the tolerance signals a corrupted input and
    raises; below it, the residue is discarded.
    """
    mat = _as_matrix(r)
    pm = p.entries if isinstance(p, Projector) else _as_matrix(p)
    if mat.shape != pm.shape:
        raise ValueError(f"dimension mismatch: {mat.shape} vs {pm.shape}")
    val = complex(np.sum(mat * pm.T))
    if abs(val.imag) > tolerances.imag_residue:
        raise ValueError(f"trace product has imaginary residue {val.imag:.3e}; inputs are not Hermitian")
    return val.real


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


def spectral(
    h: HermitianOperator,
    gap_tol: float | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator with degeneracy detection.

    ``gap_tol`` defaults to ``degeneracy_rel`` times the spectral range;
    consecutive eigenvalues closer than that are grouped into one block.
    """
    hm = h.entries if isinstance(h, HermitianOperator) else _as_matrix(h)
    _check_hermitian(hm, tolerances.hermitian, "spectral input")
    evals, evecs = np.linalg.eigh(hm)
    if gap_tol is None:
        gap_tol = tolerances.degeneracy_rel * float(evals[-1] - evals[0])

    blocks: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if float(evals[i] - evals[i - 1]) <= gap_tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])

    basis = OrthonormalBasis(tuple(StateVector(evecs[:, k], tolerances) for k in range(len(evals))))
    dec = SpectralDecomposition(tuple(evals), basis, tuple(tuple(b) for b in blocks), float(gap_tol))
    residual = float(np.linalg.norm(dec.reconstruct() - hm))
    if residual > tolerances.reconstruction:
        raise ValueError(f"spectral reconstruction residual {residual:.3e} exceeds {tolerances.reconstruction:.1e}")
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

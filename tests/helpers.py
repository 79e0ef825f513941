"""Shared random-input generators and references for the test suite.

The generators are deliberately independent of the package's own samplers:
tests use numpy's default generator so that oracle inputs never flow through
the code under test. The references below them are forms the package does
not run, kept to check its kernels, overlap laws and solver against: states
and unitaries built from Box-Muller normals of a stream's uniforms, the rule
one sample or one instance at a time, its dot-product and projector-set
coefficient forms, the projector-set expansion, the trace Tr(r P), the
summed-pair trace form of the projector-set rule, and the change of an
evolving pair's component sum. ``vector_to_json`` writes a state in the
config format.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from twostate import (
    HermitianOperator,
    MultipleOutcomesError,
    OrthonormalBasis,
    RngStream,
    StateVector,
    sampling,
    sic_from_fiducial,
    spectral,
    tally_rule,
)
from twostate.assignment import _fires
from twostate.blochpbr import _bisectors, _bloch_states
from twostate.sampling import _complex_normals, _uniforms
from twostate.sic import _require_valid

IMAG_RESIDUE_TOL = 1e-10  # imaginary part a trace of Hermitian products may carry


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec / np.linalg.norm(vec))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A density matrix: Hermitian, positive semidefinite, trace 1."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return mat / np.trace(mat).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_basis(rng: np.random.Generator, dim: int) -> OrthonormalBasis:
    return OrthonormalBasis(random_unitary(rng, dim).T)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish 3x3 rotation matrix (QR with determinant fix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def vector_to_json(vec) -> list:
    """A state in the config format: one [re, im] pair per amplitude."""
    arr = np.asarray(getattr(vec, "entries", vec), dtype=complex)
    return [[float(z.real), float(z.imag)] for z in arr]


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


def haar_unitaries(dim: int, rng: RngStream, start: int, count: int) -> np.ndarray:
    """Haar-distributed unitaries, shape (count, dim, dim): samples ``start`` onward of the stream."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    gauss = _complex_normals(_uniforms(rng, start, count, 2 * dim * dim))
    q, r = np.linalg.qr(gauss.reshape(count, dim, dim))
    diag = np.diagonal(r, axis1=1, axis2=2).copy()
    diag[diag == 0.0] = 1.0
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(dim: int, rng: RngStream, index: int = 0) -> np.ndarray:
    """Haar-distributed unitary; sample ``index`` of the stream."""
    return haar_unitaries(dim, rng, index, 1)[0]


def rule_sums(forward: np.ndarray, backward: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """The rule's left-hand side |<a_k|f>|^2 + |<a_k|b>|^2 for each row <a_k| of ``bmat``.

    States have shape (..., d) and ``bmat`` (..., k, d), batched alike; the sums have shape (..., k).
    """
    def overlaps(state):
        return np.abs(np.einsum("...kd,...d->...k", bmat.conj(), state)) ** 2

    return overlaps(forward) + overlaps(backward)


def trace_rule_sums(rho_f: np.ndarray, rho_b: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """The mixed form of ``rule_sums``: Tr[(rho_f + rho_b) |a_k><a_k|] = <a_k|(rho_f + rho_b)|a_k>."""
    return np.einsum("ki,ij,kj->k", bmat.conj(), rho_f + rho_b, bmat).real


def assign_over_basis(forward: np.ndarray, backward: np.ndarray, bmat: np.ndarray, tie_tol: float = 0.0):
    """The one basis index whose rule sum fires, or None, for one sample.

    Evaluates the rule for every basis row, so that a second satisfying index raises
    MultipleOutcomesError.
    """
    sums = rule_sums(forward, backward, bmat)
    tally = tally_rule(sums[None, :], tie_tol)
    if tally[-1]:
        raise MultipleOutcomesError(f"rule sums {sums.tolist()} fire more than one outcome")
    hits = np.flatnonzero(tally[:-2])
    return int(hits[0]) if hits.size else None


def bell_condition(m: np.ndarray, n: np.ndarray, a: np.ndarray) -> bool:
    """Dot-product form of the rule for Bloch vectors, m.a + n.a > 0, judged by the rule's one comparison.

    By the overlap identity the overlap sum is 1 + (m.a + n.a)/2, so a tie does not fire.
    """
    return bool(_fires(1.0 + (m @ a + n @ a) / 2.0, 0.0))


def pbr_separates(m: np.ndarray, mp: np.ndarray, x: np.ndarray, xp: np.ndarray):
    """One instance of ``pbr_separators``: whether the maximum-margin bisector a of the pair sums fires
    the rule on pair (m, m') and not on pair (x, x'), judged on each pair's states.

    Returns None when the sums vanish or are parallel, where no separator exists.
    """
    a, degenerate, _ = _bisectors(m + mp, x + xp)
    if degenerate:
        return None
    sm, smp, sx, sxp, sa = _bloch_states(np.array([m, mp, x, xp, a]))

    def fires(f, b):
        return bool(_fires(abs(np.vdot(f, sa)) ** 2 + abs(np.vdot(b, sa)) ** 2, 0.0))

    return fires(sm, smp) and not fires(sx, sxp)


def sic_rule_check(lambdas: np.ndarray, k: int) -> bool:
    """Outcome rule for a projector-set element: lambda_k > 1 - 1/d.

    Applies to the expansion of a summed forward+backward pair, so the coefficients must total 2;
    d is the square root of their count. The comparison is the rule's own, on
    Tr[rho P_k] = (d lambda_k + Tr rho) / (d + 1), so exact ties do not fire.
    """
    d = math.isqrt(len(lambdas))
    if d < 2 or d * d != len(lambdas):
        raise ValueError(f"expected d^2 coefficients with d >= 2, got {len(lambdas)}")
    trace = float(np.sum(lambdas))
    if abs(trace - 2.0) > 1e-8:
        raise ValueError(f"rule applies to trace-2 sums; got trace {trace!r}")
    if not 0 <= k < len(lambdas):
        raise ValueError(f"index {k} out of range for {len(lambdas)} coefficients")
    return bool(_fires((d * lambdas[k] + trace) / (d + 1), 0.0))


def sic_coefficients(mat: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Coefficients lambda_k = [(d+1) Tr(r P_k) - Tr r] / d of a Hermitian d x d matrix r over d^2 projectors.

    Over an equiangular set, sum_k lambda_k P_k reconstructs r, and a density matrix's coefficients lie in
    [-1/d, 1].
    """
    d = mat.shape[0]
    traces = np.einsum("ij,kji->k", mat, projectors).real
    return ((d + 1) * traces - np.trace(mat).real) / d


def trace_product(r: np.ndarray, p: np.ndarray) -> float:
    """Tr(r P) for Hermitian matrices r and P, returned as a real number.

    An imaginary residue above the tolerance signals a corrupted input and
    raises; below it, the residue is discarded.
    """
    if r.shape != p.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {p.shape}")
    val = complex(np.sum(r * p.T))
    if not abs(val.imag) <= IMAG_RESIDUE_TOL:
        raise ValueError(f"trace product has imaginary residue {val.imag:.3e}; inputs are not Hermitian")
    return val.real


def sic_fires(sums: np.ndarray, f: StateVector) -> np.ndarray:
    """The rule Tr[sum P_k] > 1 for each element of the fiducial's set, over summed pair matrices.

    On a trace-2 sum this is lambda_k > 1 - 1/d. ``sums`` has shape
    (..., d, d); the result has shape (..., d^2). The set is validated once
    per call.
    """
    _require_valid(f)
    return _fires(np.einsum("...ij,kji->...k", sums, sic_from_fiducial(f)).real, 0.0)


def sic_distinguish_pair(sum0: np.ndarray, sum1: np.ndarray, f: StateVector):
    """First element index whose rule value differs between two pairs, given each pair's summed matrix.

    Returns None when no element separates them; distinct pairs with equal
    summed matrices are legitimately inseparable.
    """
    if sum0.shape != (f.dim, f.dim) or sum1.shape != (f.dim, f.dim):
        raise ValueError(f"dimension mismatch: sums {sum0.shape}/{sum1.shape} vs set {f.dim}")
    fired = sic_fires(np.array([sum0, sum1]), f)
    differs = np.flatnonzero(fired[0] != fired[1])
    return int(differs[0]) if differs.size else None


def sum_change(rho_f: np.ndarray, rho_b: np.ndarray, h: HermitianOperator, dt: float) -> float:
    """Frobenius change of the evolving component sum U^H rho_f U + U rho_b U^H after time dt, U = e^{-iH dt}.

    It changes at second order in dt exactly when [rho_f, H] = [rho_b, H], so halving dt divides it by about
    4 for such a pair and by about 2 otherwise.
    """
    energies, v, _ = spectral(h)
    u = (v * np.exp(-1j * energies * dt)) @ v.conj().T
    uh = u.conj().T
    return float(np.linalg.norm(uh @ rho_f @ u + u @ rho_b @ uh - rho_f - rho_b))

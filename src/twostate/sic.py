"""Equiangular projector sets from clock-and-shift orbits.

A fiducial state stands for its set: it is orbited under the d^2
displacement operators X^j Z^k to produce d^2 rank-1 projectors, as one
(d^2, d, d) array; a valid set has pairwise trace overlap 1/(d+1) and sums to
d times the identity. The module also counts how often a set element
separates random pairs of two-state assignments under the outcome rule
(``sic_distinguish``, the sic-distinguish experiment), and searches for
fiducials numerically by driving the frame potential of a fiducial's
orbit down to its Welch bound W = 2 d^3 / (d+1). That potential is W plus d^2
times the sum of squares of d^2 - 1 overlap residuals, so the search is a
zero-residual least-squares problem, solved by Levenberg-Marquardt in numpy.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .assignment import _fires
from .qcore import StateVector
from .sampling import RngStream, _haar_rows, _sampled, _word_uniforms, haar_states

__all__ = [
    "SicValidationReport",
    "FiducialSearchReport",
    "InvalidSicError",
    "wh_displacements",
    "sic_from_fiducial",
    "builtin_fiducial",
    "validate_sic",
    "sic_distinguish",
    "frame_potential",
    "welch_bound",
    "search_fiducial",
]


SEARCH_MAX_DIM = 8  # the largest dimension search_fiducial runs at
VALID_TOL = 1e-8  # pair and identity deviation a set must pass before it is distinguished


class InvalidSicError(ValueError):
    """The projector set fails the equiangularity/identity validation."""


def welch_bound(d: int) -> float:
    """Minimum frame potential of d^2 unit vectors in dimension d."""
    return 2.0 * d**3 / (d + 1)


@dataclass(frozen=True)
class SicValidationReport:
    max_pair_deviation: float
    identity_deviation: float
    passed: bool


@dataclass(frozen=True, eq=False)
class FiducialSearchReport:
    fiducial: StateVector
    frame_potential: float
    lower_bound: float
    iterations: int
    restarts: int
    converged: bool

    def __post_init__(self):
        if not self.frame_potential >= self.lower_bound - 1e-9:  # also rejects NaN
            raise ValueError(
                f"frame potential {self.frame_potential!r} undercuts the bound {self.lower_bound!r}"
            )


@functools.cache
def wh_displacements(d: int) -> np.ndarray:
    """The d^2 operators X^j Z^k as one read-only (d^2, d, d) array, built once per dimension.

    Operator m = j*d + k is X^j Z^k, so m = 0 is the identity. X is the cyclic
    shift |m> -> |m+1 mod d| and Z = diag(1, w, ..., w^(d-1)) with w = exp(2 pi i / d).
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    out = []
    xj = np.eye(d, dtype=complex)
    for _ in range(d):
        zk = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(xj @ zk)
            zk = zk @ clock
        xj = shift @ xj
    stack = np.array(out)
    stack.setflags(write=False)
    return stack


def _orbit(fiducial: np.ndarray, d: int) -> np.ndarray:
    """Rows are the d^2 orbit states of the fiducial."""
    return wh_displacements(d) @ fiducial


def sic_from_fiducial(f: StateVector) -> np.ndarray:
    """The (d^2, d, d) projectors onto the orbit of |f> under all displacements.

    Construction does not certify equiangularity; run ``validate_sic``.
    """
    states = _orbit(f.entries, f.dim)
    return states[:, :, None] * states[:, None, :].conj()


def builtin_fiducial(d: int) -> StateVector:
    """Known-good fiducials for d = 2 and d = 3."""
    if d == 2:
        # Bloch vector (1,1,1)/sqrt(3)
        theta = np.arccos(1.0 / np.sqrt(3.0))
        return StateVector(
            np.array([np.cos(theta / 2.0), np.exp(1j * np.pi / 4.0) * np.sin(theta / 2.0)])
        )
    if d == 3:
        return StateVector(np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0))
    raise ValueError(f"no built-in fiducial for dimension {d}; run search_fiducial")


def validate_sic(f: StateVector, tol: float) -> SicValidationReport:
    """Check the pairwise overlaps of the fiducial's set against 1/(d+1) and their sum against d*I."""
    d = f.dim
    proj = sic_from_fiducial(f)
    overlaps = np.einsum("kij,lji->kl", proj, proj).real
    off = overlaps - 1.0 / (d + 1)
    np.fill_diagonal(off, 0.0)
    max_pair = float(np.max(np.abs(off)))
    identity_dev = float(np.linalg.norm(proj.sum(axis=0) - d * np.eye(d)))
    return SicValidationReport(max_pair, identity_dev, max_pair <= tol and identity_dev <= tol)


def _require_valid(f: StateVector) -> None:
    report = validate_sic(f, VALID_TOL)
    if not report.passed:
        raise InvalidSicError(
            f"projector set fails validation at {VALID_TOL:.1e}: pair deviation {report.max_pair_deviation:.3e}, "
            f"identity deviation {report.identity_deviation:.3e}"
        )


def sic_distinguish(fiducial: StateVector, n_samples: int, seed: int, tie_tol: float = 0.0, *, workers: int = 1) -> int:
    """How many of ``n_samples`` random pairs of pure two-state assignments a set element separates.

    Sample i draws the forward and backward Haar states of pair 0, then of pair 1, from streams
    10-13 of ``seed``, 2d words each. An element separates the pairs when the rule fires for one
    and not the other; distinct pairs with equal summed matrices are legitimately inseparable.
    For pure states Tr[(|f><f| + |b><b|) P_k] = |<phi_k|f>|^2 + |<phi_k|b>|^2, with phi_k the
    orbit states of the fiducial, so the rule reads overlaps only. The set is validated once,
    before sampling: one that fails raises InvalidSicError.
    """
    _require_valid(fiducial)
    orbit_bras = _orbit(fiducial.entries, fiducial.dim).conj().T

    def chunk_separated(*words: np.ndarray) -> int:
        states = np.stack([_haar_rows(_word_uniforms(h)) for h in words])
        overlaps = np.abs(states @ orbit_bras) ** 2
        fired = _fires(overlaps[0::2] + overlaps[1::2], tie_tol)
        return np.count_nonzero((fired[0] != fired[1]).any(axis=-1))

    draws = [(RngStream(seed, 10 + k), 2 * fiducial.dim) for k in range(4)]
    return int(_sampled(chunk_separated, n_samples, draws, workers))


def frame_potential(states: np.ndarray) -> float:
    """sum_{k,l} |<psi_k|psi_l>|^4 over all ordered pairs of rows, diagonal included."""
    mat = np.asarray(states, dtype=complex)
    norms = np.linalg.norm(mat, axis=1)
    if not float(np.max(np.abs(norms - 1.0))) <= 1e-9:  # also rejects NaN
        raise ValueError("states must be normalized")
    gram = mat.conj() @ mat.T
    return float(np.sum(np.abs(gram) ** 4))


# --- fiducial search -------------------------------------------------------


@functools.cache
def _overlap_forms(d: int) -> np.ndarray:
    """Real symmetric forms of the Hermitian (D_m + D_m^dagger)/2, then (D_m - D_m^dagger)/2i, m = 1..d^2-1, in one read-only array.

    Form k, rows 2d k to 2d (k+1), maps t = x.view(float) to (A_k x).view(float) for the k-th of
    those operators A_k, so t.form_k.t is Re, then Im, of <x|D_m|x>.
    """
    disp = wh_displacements(d)[1:]
    adj = disp.conj().transpose(0, 2, 1)
    cols = np.concatenate([disp + adj, 1j * (adj - disp)]) @ np.kron(np.eye(d), [0.5, 0.5j])
    forms = np.stack([cols.real, cols.imag], axis=2).reshape(-1, 2 * d)
    forms.setflags(write=False)
    return forms


def _orbit_residuals(t: np.ndarray, forms: np.ndarray):
    """Residuals r_m = |<x|D_m|x>|^2 / |x|^4 - 1/(d+1), m = 1..d^2-1, of x = t.view(complex), and their Jacobian in t.

    ``forms`` is ``_overlap_forms(d)``. The d^2 displacements are an orthogonal
    operator basis, so the frame potential of the orbit of x/|x| is W + d^2 sum_m r_m^2
    (Renes, Blume-Kohout, Scott & Caves, J. Math. Phys. 45, 2171, 2004). The residuals
    are invariant under x -> a x, a != 0 complex, so the Jacobian vanishes along t and (i x).view(float).
    """
    n = t.dot(t)
    y = forms.dot(t).reshape(-1, t.size)
    q = y.dot(t / n)  # Re, then Im, of <x|D_m|x> / |x|^2
    w = q[:, None] * y
    half = q.size // 2
    q *= q
    abs2 = q[:half] + q[half:]
    jac = (w[:half] + w[half:] - np.multiply.outer(abs2, t)) * (4.0 / n)
    return abs2 - 1.0 / (t.size // 2 + 1), jac


def _levenberg_marquardt(fun, t: np.ndarray, max_iters: int):
    """Drive the residuals ``fun(t)`` (values and Jacobian) to zero; returns the last t, its sum of squares and the steps tried.

    The residuals must be invariant under x -> a x (x = t.view(complex), a != 0 complex), so J^T J
    is singular along t and (i x).view(float); t is kept at unit length. Each step solves
    (A + mu diag(A)) h = -J^T r, A = J^T J plus the projector onto those two directions (Marquardt,
    SIAM J. Appl. Math. 11, 431, 1963), and mu follows the gain ratio (Madsen, Nielsen & Tingleff,
    Methods for Non-Linear Least Squares Problems, 2004, Alg. 3.16). Stops once max |J^T r| <= 1e-15
    or |h| <= 1e-12, or after ``max_iters`` steps.
    """
    t = t / np.sqrt(t.dot(t))
    r, jac = fun(t)
    cost, mu, nu, it = r.dot(r), 1e-3, 2.0, 0
    while it < max_iters:
        gauge = np.array((t, (1j * t.view(complex)).view(float)))
        a, g = jac.T.dot(jac) + gauge.T.dot(gauge), jac.T.dot(r)
        if np.abs(g).max() <= 1e-15:
            break
        damp = mu * a.diagonal()
        h = np.linalg.solve(a + np.diag(damp), -g)
        if h.dot(h) <= 1e-24:
            break
        t_new = t + h
        t_new /= np.sqrt(t_new.dot(t_new))
        r_new, jac_new = fun(t_new)
        cost_new = r_new.dot(r_new)
        gain = (cost - cost_new) / h.dot(damp * h - g)
        if gain > 0.0:
            t, r, jac, cost = t_new, r_new, jac_new, cost_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        it += 1
    return t, cost, it


def search_fiducial(d: int, restarts: int, max_iters: int, seed: int) -> FiducialSearchReport:
    """Drive the orbit frame potential down to the Welch bound from seeded random starts.

    Each restart runs ``_levenberg_marquardt`` for at most ``max_iters`` steps on
    the d^2 - 1 residuals of ``_orbit_residuals``, whose sum of squares is
    (FP - W) / d^2. Runs every restart, keeps the one with the smallest potential
    (ties to the lowest restart index), and reports convergence against the
    Welch bound plus 1e-6. One progress line per restart goes to stderr.
    """
    if not 2 <= d <= SEARCH_MAX_DIM:
        raise ValueError(f"supported dimensions are 2..{SEARCH_MAX_DIM}, got {d}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    residuals = functools.partial(_orbit_residuals, forms=_overlap_forms(d))
    bound = welch_bound(d)
    starts = haar_states(d, RngStream(seed, stream_index=0), 0, restarts)
    runs = []  # (potential, t, iterations) per restart
    for r in range(restarts):
        t, cost, nit = _levenberg_marquardt(residuals, starts[r].view(float), max_iters)
        runs.append((bound + d * d * cost, t, nit))
        print(f"[fiducial-search d={d}] restart {r}: potential {runs[-1][0]:.12f}", file=sys.stderr)

    fiducial = StateVector.normalized(min(runs, key=lambda run: run[0])[1].view(complex))
    potential = frame_potential(_orbit(fiducial.entries, d))
    return FiducialSearchReport(
        fiducial=fiducial,
        frame_potential=potential,
        lower_bound=bound,
        iterations=sum(run[2] for run in runs),
        restarts=restarts,
        converged=potential <= bound + 1e-6,
    )

"""Equiangular projector sets from clock-and-shift orbits.

A fiducial state stands for its set: it is orbited under the d^2
displacement operators X^j Z^k to produce d^2 rank-1 projectors, as one
(d^2, d, d) array; a valid set has pairwise trace overlap 1/(d+1) and sums to
d times the identity. The module also counts how often a set element
separates random pairs of two-state assignments under the outcome rule
(``sic_distinguish``, the sic-distinguish experiment), and searches for
fiducials numerically by minimizing the frame potential of a fiducial's
orbit down to its Welch bound 2 d^3 / (d+1), with a dense BFGS written in
numpy.
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
def _orbit_ops(d: int) -> np.ndarray:
    """The d^2 displacements D_m, then their adjoints D_m^dagger, as one read-only (2d^2, d, d) array."""
    disp = wh_displacements(d)
    stack = np.concatenate([disp, disp.conj().transpose(0, 2, 1)])
    stack.setflags(write=False)
    return stack


def _orbit_potential_and_grad(t: np.ndarray, ops: np.ndarray):
    """Frame potential of the displacement orbit of x/|x| and its gradient in t.

    t is the real view of x, real and imaginary parts interleaved, and ``ops``
    is ``_orbit_ops(d)``. Uses the group collapse FP(f) = d^2 * sum_m
    |<f|D_m|f>|^4 and the scale invariance of the normalized objective, so x
    can roam all of C^d.
    """
    d = ops.shape[-1]
    x = t.view(complex)
    nsq = t @ t
    y = ops @ x  # rows D_m x, then D_m^dagger x
    c = y[: d * d] @ x.conj()
    abs2 = c.real**2 + c.imag**2
    g = abs2 @ abs2
    w = abs2 * c
    h = 2.0 * (np.concatenate([w.conj(), w]) @ y) - (4.0 * g / nsq) * x
    scale = d * d / nsq**4
    return scale * g, (2.0 * scale) * h.view(float)


def _bfgs(fun, t: np.ndarray, max_iters: int):
    """Minimize ``fun`` (value and gradient) from t; returns the last point, its value and the iterations run.

    Dense BFGS on the inverse Hessian with Armijo backtracking (Nocedal & Wright,
    Numerical Optimization, Alg. 6.1 and 3.1), H0 scaled by s.y / y.y after the
    first step (their eq. 6.20). Stops on a relative decrease of at most 1e-16, a
    max |grad| of at most 1e-12, a backtracked step too short to pass that
    decrease test, or after ``max_iters`` iterations.
    """
    f, g = fun(t)
    h = np.eye(t.size)
    for it in range(1, max_iters + 1):
        p = -(h @ g)
        slope = g @ p
        step = 1.0
        while True:
            t_new = t + step * p
            f_new, g_new = fun(t_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
            if -step * slope <= 1e-16 * max(abs(f), 1.0):  # too short to pass the decrease test
                return t, f, it
        s, y = t_new - t, g_new - g
        sy = s @ y
        if sy > 0.0:
            if it == 1:
                h *= sy / (y @ y)
            hy = h @ y
            u = (1.0 + (y @ hy) / sy) * s - hy
            h += (np.multiply.outer(s, u) - np.multiply.outer(hy, s)) / sy
        stalled = f - f_new <= 1e-16 * max(abs(f), abs(f_new), 1.0)
        t, f, g = t_new, f_new, g_new
        if stalled or np.abs(g).max() <= 1e-12:
            break
    return t, f, it


def search_fiducial(d: int, restarts: int, max_iters: int, seed: int) -> FiducialSearchReport:
    """Minimize the orbit frame potential from seeded random starts.

    Runs every restart, keeps the one with the smallest potential (ties to
    the lowest restart index), and reports convergence against the Welch
    bound plus 1e-6. One progress line per restart goes to stderr.
    """
    if not 2 <= d <= SEARCH_MAX_DIM:
        raise ValueError(f"supported dimensions are 2..{SEARCH_MAX_DIM}, got {d}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    objective = functools.partial(_orbit_potential_and_grad, ops=_orbit_ops(d))
    bound = welch_bound(d)
    starts = haar_states(d, RngStream(seed, stream_index=0), 0, restarts)

    best_potential = np.inf
    best_t = None
    iterations = 0
    for r in range(restarts):
        t, pot, nit = _bfgs(objective, starts[r].view(float), max_iters)
        iterations += nit
        print(f"[fiducial-search d={d}] restart {r}: potential {pot:.12f}", file=sys.stderr)
        if pot < best_potential:
            best_potential = pot
            best_t = t

    fiducial = StateVector.normalized(best_t.view(complex))
    orbit = _orbit(fiducial.entries, d)
    potential = frame_potential(orbit)
    return FiducialSearchReport(
        fiducial=fiducial,
        frame_potential=potential,
        lower_bound=bound,
        iterations=iterations,
        restarts=restarts,
        converged=potential <= bound + 1e-6,
    )

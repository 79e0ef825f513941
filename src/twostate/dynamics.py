"""The stationary-pair commutator problem.

A pair is stationary when its two components have equal commutators with
the Hamiltonian; the inverse problem "find rho with [rho, H] = K" is solved
in H's eigenbasis, as ``qcore.spectral`` returns it (eigenvalues, eigenvector
columns and a block id per eigenvalue): the off-diagonal entries are
K_ij / (E_j - E_i), the diagonal is free, and K must vanish on the diagonal
and inside every degenerate block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import HermitianOperator, _Checked, _as_matrix, spectral

__all__ = [
    "CommutatorTarget",
    "StationarySolveInput",
    "InfeasibleKError",
    "NotPsdError",
    "commutator_solve",
]

FEASIBILITY_TOL = 1e-10  # max |K| allowed on the diagonal / inside degenerate blocks
PSD_FLOOR = 1e-10  # lowest eigenvalue a positive-semidefinite solution may have is -PSD_FLOOR


class InfeasibleKError(ValueError):
    """K has nonzero diagonal or degenerate-block entries in H's eigenbasis."""


class NotPsdError(ValueError):
    """The chosen diagonal does not admit a positive-semidefinite solution."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(f"solution has eigenvalue {min_eigenvalue:.6e} below -{PSD_FLOOR:.1e}")


@dataclass(frozen=True, eq=False)
class CommutatorTarget(_Checked):
    """Target commutator K; anti-Hermitian, as any [rho, H] must be."""

    @staticmethod
    def _check(entries) -> np.ndarray:
        mat = _as_matrix(entries)
        dev = float(np.max(np.abs(mat + mat.conj().T)))
        if not dev <= 1e-12:
            raise ValueError(f"target is not anti-Hermitian: max |K + K^H| = {dev:.3e}")
        return mat


@dataclass(frozen=True, eq=False)
class StationarySolveInput:
    """Hamiltonian, target commutator, and the free diagonal (in H's eigenbasis)."""

    hamiltonian: HermitianOperator
    target: CommutatorTarget
    diagonal: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=float)
        if diag.shape != (self.hamiltonian.dim,):
            raise ValueError(f"diagonal must have {self.hamiltonian.dim} real entries, got shape {diag.shape}")
        if not np.isfinite(diag).all():
            raise ValueError(f"diagonal entries must be finite, got {diag.tolist()}")
        if self.hamiltonian.dim != self.target.dim:
            raise ValueError(f"dimension mismatch: H {self.hamiltonian.dim} vs K {self.target.dim}")
        diag = diag.copy()
        diag.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)


def commutator_solve(inp: StationarySolveInput, require_psd: bool = False) -> np.ndarray:
    """Hermitian rho with [rho, H] = K and the requested eigenbasis diagonal.

    Off-diagonal entries inside degenerate blocks are set to zero (they are
    free once K vanishes there). Raises InfeasibleKError when K has diagonal
    or degenerate-block content, and NotPsdError when ``require_psd`` is set
    and the chosen diagonal fails.
    """
    energies, v, blocks = spectral(inp.hamiltonian)
    k_eig = v.conj().T @ inp.target.entries @ v

    diag_dev = float(np.max(np.abs(np.diagonal(k_eig))))
    if diag_dev > FEASIBILITY_TOL:
        raise InfeasibleKError(
            f"K has diagonal magnitude {diag_dev:.3e} in H's eigenbasis (must vanish)"
        )
    same_block = blocks[:, None] == blocks[None, :]
    off_block_dev = np.where(same_block, np.abs(k_eig), 0.0)
    np.fill_diagonal(off_block_dev, 0.0)
    worst = float(np.max(off_block_dev))
    if worst > FEASIBILITY_TOL:
        raise InfeasibleKError(
            f"K has magnitude {worst:.3e} inside a degenerate block (must vanish)"
        )

    with np.errstate(divide="ignore", invalid="ignore"):  # the masked entries divide by zero gaps
        upper = np.triu(np.where(same_block, 0.0, k_eig / (energies[None, :] - energies[:, None])), 1)
    rho_eig = upper + upper.conj().T + np.diag(inp.diagonal)

    mixed = v @ rho_eig @ v.conj().T
    rho = (mixed + mixed.conj().T) / 2.0
    if require_psd:
        evals = np.linalg.eigvalsh(rho)
        lowest = float(evals.min())
        if lowest < -PSD_FLOOR:
            raise NotPsdError(lowest)
    return rho

import numpy as np
import pytest

from twostate import (
    CommutatorTarget,
    HermitianOperator,
    InfeasibleKError,
    NotPsdError,
    StationarySolveInput,
    commutator,
    commutator_solve,
    spectral,
)

from helpers import random_density, random_unitary, sum_change

SZ = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
PLUS_PROJ = np.full((2, 2), 0.5, dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2


def partner(rho: np.ndarray, h: HermitianOperator, diagonal) -> np.ndarray:
    """The positive-semidefinite rho' with [rho', H] = [rho, H] and the given eigenbasis diagonal."""
    target = CommutatorTarget(commutator(rho, h.entries))
    return commutator_solve(StationarySolveInput(h, target, np.asarray(diagonal, dtype=float)), require_psd=True)


def stationary(rho_f: np.ndarray, rho_b: np.ndarray, h: HermitianOperator, tol: float) -> bool:
    """Whether the pair's two components have equal commutators with H, within tol."""
    return float(np.linalg.norm(commutator(rho_f, h.entries) - commutator(rho_b, h.entries))) <= tol


def gapped_hamiltonian(rng, d: int, duplicate: bool = False) -> HermitianOperator:
    gaps = rng.uniform(0.3, 1.2, size=d)
    evals = np.cumsum(gaps)
    if duplicate:
        evals[1] = evals[0]
    u = random_unitary(rng, d)
    mat = (u * evals) @ u.conj().T
    return HermitianOperator((mat + mat.conj().T) / 2)


def feasible_instance(rng, d: int, duplicate: bool = False):
    h = gapped_hamiltonian(rng, d, duplicate)
    rho0 = random_density(rng, d)
    k = CommutatorTarget(commutator(rho0, h.entries))
    diagonal = rng.uniform(0.0, 1.0, size=d)
    return StationarySolveInput(h, k, diagonal)


class TestCommutatorTarget:
    def test_rejects_hermitian_input(self):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            CommutatorTarget(np.diag([1.0, 2.0]).astype(complex))

    def test_accepts_commutators(self):
        k = commutator(PLUS_PROJ, SZ.entries)
        assert CommutatorTarget(k).dim == 2

    def test_rejects_nan_entries(self):
        # the anti-Hermitian check fails on a NaN deviation instead of comparing false
        with pytest.raises(ValueError, match="anti-Hermitian"):
            CommutatorTarget(np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square matrix"):
            CommutatorTarget(np.zeros((2, 3), dtype=complex))

    def test_entries_are_frozen(self):
        k = CommutatorTarget(commutator(PLUS_PROJ, SZ.entries))
        with pytest.raises(ValueError):
            k.entries[0, 1] = 0.0


class TestStationarySolveInput:
    K2 = CommutatorTarget(commutator(PLUS_PROJ, SZ.entries))

    def test_rejects_wrong_diagonal_length(self):
        with pytest.raises(ValueError, match="diagonal must have 2 real entries"):
            StationarySolveInput(SZ, self.K2, np.array([0.2, 0.3, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_nonfinite_diagonal(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StationarySolveInput(SZ, self.K2, np.array([0.5, bad]))

    def test_rejects_dimension_mismatch(self):
        k3 = CommutatorTarget(np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValueError, match="dimension mismatch: H 2 vs K 3"):
            StationarySolveInput(SZ, k3, np.array([0.5, 0.5]))

    def test_diagonal_is_a_frozen_copy(self):
        given = np.array([0.25, 0.75])
        inp = StationarySolveInput(SZ, self.K2, given)
        given[0] = 0.5
        assert inp.diagonal.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            inp.diagonal[0] = 0.5


class TestCommutatorSolve:
    def test_worked_qubit_example(self):
        h = HermitianOperator(np.diag([1.0, 3.0]).astype(complex))
        k = CommutatorTarget(np.array([[0.0, 2.0j], [2.0j, 0.0]]))
        rho = commutator_solve(StationarySolveInput(h, k, np.array([0.5, 0.5])))
        assert rho[0, 1] == pytest.approx(1.0j)  # 2i / (3 - 1)
        assert np.linalg.norm(commutator(rho, h.entries) - k.entries) <= 1e-12

    def test_worked_example_fails_psd(self):
        h = HermitianOperator(np.diag([1.0, 3.0]).astype(complex))
        k = CommutatorTarget(np.array([[0.0, 2.0j], [2.0j, 0.0]]))
        with pytest.raises(NotPsdError) as info:
            commutator_solve(StationarySolveInput(h, k, np.array([0.5, 0.5])), require_psd=True)
        assert info.value.min_eigenvalue == pytest.approx(-0.5)  # eigenvalues 1/2 -+ 1

    def test_zero_target_keeps_any_diagonal(self):
        h = HermitianOperator(np.diag([1.0, 2.0, 4.0]).astype(complex))
        k = CommutatorTarget(np.zeros((3, 3), dtype=complex))
        diagonal = np.array([0.2, 0.5, 0.3])
        rho = commutator_solve(StationarySolveInput(h, k, diagonal))
        assert np.allclose(rho, np.diag(diagonal), atol=1e-14)

    def test_fully_degenerate_hamiltonian_rejects_nonzero_k(self):
        h = HermitianOperator(np.eye(2, dtype=complex))
        k = CommutatorTarget(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(InfeasibleKError):
            commutator_solve(StationarySolveInput(h, k, np.array([0.5, 0.5])))

    def test_nonzero_diagonal_rejected(self):
        h = HermitianOperator(np.diag([1.0, 3.0]).astype(complex))
        k = CommutatorTarget(np.diag([0.1j, -0.1j]))
        with pytest.raises(InfeasibleKError, match="diagonal"):
            commutator_solve(StationarySolveInput(h, k, np.array([0.5, 0.5])))

    def test_degenerate_block_content_rejected(self):
        h = HermitianOperator(np.diag([2.0, 2.0, 5.0]).astype(complex))
        k = np.zeros((3, 3), dtype=complex)
        k[0, 1], k[1, 0] = 0.3, -0.3
        with pytest.raises(InfeasibleKError, match="degenerate"):
            commutator_solve(StationarySolveInput(h, CommutatorTarget(k), np.full(3, 1 / 3)))

    def test_random_feasible_instances(self):
        rng = np.random.default_rng(51)
        for trial in range(100):
            d = int(rng.integers(2, 7))
            inp = feasible_instance(rng, d, duplicate=(trial % 10 == 0))
            rho = commutator_solve(inp)
            residual = np.linalg.norm(commutator(rho, inp.hamiltonian.entries) - inp.target.entries)
            assert residual <= 1e-12 * max(1.0, np.linalg.norm(inp.target.entries))
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
            _, v, _ = spectral(inp.hamiltonian)
            assert np.allclose(np.diagonal(v.conj().T @ rho @ v).real, inp.diagonal, atol=1e-10)

    def test_matches_the_per_entry_formula(self):
        rng = np.random.default_rng(52)
        for trial in range(300):
            inp = feasible_instance(rng, int(rng.integers(2, 9)), duplicate=(trial % 3 == 0))
            assert np.array_equal(commutator_solve(inp), per_entry_solve(inp))


def per_entry_solve(inp: StationarySolveInput) -> np.ndarray:
    """``commutator_solve`` one entry at a time: rho_ij = K_ij / (E_j - E_i) in H's eigenbasis,
    zero inside degenerate blocks, the given diagonal, and the conjugate below it."""
    energies, v, block_of = spectral(inp.hamiltonian)
    d = len(energies)
    k_eig = v.conj().T @ inp.target.entries @ v
    rho_eig = np.zeros((d, d), dtype=complex)
    for i in range(d):
        rho_eig[i, i] = inp.diagonal[i]
        for j in range(i + 1, d):
            if block_of[i] != block_of[j]:
                val = k_eig[i, j] / (energies[j] - energies[i])
                rho_eig[i, j], rho_eig[j, i] = val, val.conjugate()
    mixed = v @ rho_eig @ v.conj().T
    return (mixed + mixed.conj().T) / 2.0


class TestStationaryPartner:
    """``commutator_solve`` with ``require_psd`` on the commutator of a given density matrix."""

    def test_diagonal_input_reproduces_itself(self):
        h = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.allclose(partner(rho, h, [0.7, 0.3]), rho, atol=1e-12)

    def test_plus_state_self_partner(self):
        rho = partner(PLUS_PROJ, SZ, [0.5, 0.5])
        assert np.allclose(rho, PLUS_PROJ, atol=1e-12)
        assert stationary(rho, PLUS_PROJ, SZ, 1e-9)

    def test_skewed_diagonal_fails_psd(self):
        # oracle: [[3/4, 1/2], [1/2, 1/4]] has a negative eigenvalue
        candidate = np.array([[0.75, 0.5], [0.5, 0.25]])
        oracle_min = float(np.linalg.eigvalsh(candidate).min())
        assert oracle_min < -1e-10
        with pytest.raises(NotPsdError) as info:
            partner(PLUS_PROJ, SZ, [0.75, 0.25])
        assert info.value.min_eigenvalue == pytest.approx(oracle_min, abs=1e-12)

    def test_trace_is_the_diagonal_sum(self):
        # the diagonal is taken as given, not normalized: [[3/4, 1/2], [1/2, 3/4]] is PSD with trace 3/2
        rho = partner(PLUS_PROJ, SZ, [0.75, 0.75])
        assert np.allclose(rho, [[0.75, 0.5], [0.5, 0.75]], atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.5)
        assert stationary(rho, PLUS_PROJ, SZ, 1e-9)

    def test_random_partners_are_stationary(self):
        rng = np.random.default_rng(52)
        built = 0
        while built < 30:
            d = int(rng.integers(2, 5))
            h = HermitianOperator(np.diag(np.cumsum(rng.uniform(0.3, 1.0, size=d))).astype(complex))
            rho_down = random_density(rng, d)
            raw = rng.uniform(0.2, 1.0, size=d)
            try:
                rho = partner(rho_down, h, raw / raw.sum())
            except NotPsdError:
                continue
            assert stationary(rho, rho_down, h, 1e-9)
            built += 1


class TestFirstOrderInvariance:
    """``sum_change`` over dt and dt/2: second order in dt for stationary pairs, first order otherwise."""

    def test_diagonal_pair_never_moves(self):
        h = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        rho = np.diag([0.6, 0.4]).astype(complex)
        for dt in (1e-1, 1e-2, 1e-3):
            assert sum_change(rho, rho, h, dt) < 1e-14

    def test_stationary_pair_second_order(self):
        # equal commutators, nonzero curvature
        for dt in (1e-2, 1e-3, 1e-4):
            ratio = sum_change(PLUS_PROJ, PLUS_PROJ, SZ, dt) / sum_change(PLUS_PROJ, PLUS_PROJ, SZ, dt / 2)
            assert 3.2 <= ratio <= 4.8

    def test_partner_pair_second_order(self):
        rho = partner(PLUS_PROJ, SZ, [0.5, 0.5])
        for dt in (1e-3, 5e-4):
            ratio = sum_change(rho, PLUS_PROJ, SZ, dt) / sum_change(rho, PLUS_PROJ, SZ, dt / 2)
            assert 3.2 <= ratio <= 4.8

    def test_non_stationary_pair_first_order(self):
        assert not stationary(PLUS_PROJ, MIXED, SZ, 1e-9)
        for dt in (1e-2, 1e-3, 1e-4):
            ratio = sum_change(PLUS_PROJ, MIXED, SZ, dt) / sum_change(PLUS_PROJ, MIXED, SZ, dt / 2)
            assert 1.6 <= ratio <= 2.4

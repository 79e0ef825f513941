import numpy as np
import pytest

from twostate import (
    CommutatorTarget,
    DensityMatrix,
    HermitianOperator,
    InfeasibleKError,
    NotPsdError,
    StationarySolveInput,
    TwoStatePairMixed,
    UnitaryOperator,
    commutator,
    commutator_solve,
    evolve_pair,
    first_order_invariance_check,
    spectral,
    stationarity_check,
    stationary_partner,
)

from helpers import random_density, random_unitary

SZ = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
PLUS_PROJ = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
MIXED = DensityMatrix.maximally_mixed(2)


def evolution(h: HermitianOperator, t: float) -> UnitaryOperator:
    dec = spectral(h)
    v = dec.eigenvectors.as_matrix().T
    return UnitaryOperator((v * np.exp(-1j * np.asarray(dec.eigenvalues) * t)) @ v.conj().T)


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
    k = CommutatorTarget(commutator(rho0.entries, h.entries))
    diagonal = rng.uniform(0.0, 1.0, size=d)
    return StationarySolveInput(h, k, diagonal)


class TestCommutatorTarget:
    def test_rejects_hermitian_input(self):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            CommutatorTarget(np.diag([1.0, 2.0]).astype(complex))

    def test_accepts_commutators(self):
        k = commutator(PLUS_PROJ.entries, SZ.entries)
        assert CommutatorTarget(k).dim == 2


class TestEvolvePair:
    def test_identity_is_noop(self):
        pair = TwoStatePairMixed(PLUS_PROJ, MIXED)
        out = evolve_pair(pair, UnitaryOperator(np.eye(2, dtype=complex)))
        assert np.array_equal(out.forward.entries, pair.forward.entries)
        assert np.array_equal(out.backward.entries, pair.backward.entries)

    def test_preserves_density_structure(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            pair = TwoStatePairMixed(random_density(rng, d), random_density(rng, d))
            u = UnitaryOperator(random_unitary(rng, d))
            out = evolve_pair(pair, u)  # construction re-validates trace/PSD
            for before, after in ((pair.forward, out.forward), (pair.backward, out.backward)):
                assert abs(np.trace(after.entries) - np.trace(before.entries)) < 1e-10
                assert np.allclose(
                    np.linalg.eigvalsh(after.entries), np.linalg.eigvalsh(before.entries), atol=1e-10
                )

    def test_energy_diagonal_pair_is_invariant(self):
        h = HermitianOperator(np.diag([0.3, 1.1, 2.4]).astype(complex))
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        pair = TwoStatePairMixed(rho, rho)
        out = evolve_pair(pair, evolution(h, 0.7))
        assert np.allclose(out.forward.entries, rho.entries, atol=1e-12)
        assert np.allclose(out.backward.entries, rho.entries, atol=1e-12)

    def test_inverse_unitary_gives_the_textbook_placement(self):
        rng = np.random.default_rng(51)
        pair = TwoStatePairMixed(random_density(rng, 3), random_density(rng, 3))
        um = random_unitary(rng, 3)
        u, uh = UnitaryOperator(um), UnitaryOperator(um.conj().T)
        textbook = evolve_pair(pair, uh)
        assert np.allclose(textbook.forward.entries, um @ pair.forward.entries @ um.conj().T, atol=1e-12)
        assert np.allclose(textbook.backward.entries, um.conj().T @ pair.backward.entries @ um, atol=1e-12)
        back = evolve_pair(evolve_pair(pair, u), uh)
        assert np.allclose(back.forward.entries, pair.forward.entries, atol=1e-12)
        assert np.allclose(back.backward.entries, pair.backward.entries, atol=1e-12)


class TestStationarityCheck:
    def test_equal_components(self):
        pair = TwoStatePairMixed(PLUS_PROJ, PLUS_PROJ)
        assert stationarity_check(pair, SZ, 1e-12)

    def test_both_diagonal(self):
        rho_a = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        rho_b = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        assert stationarity_check(TwoStatePairMixed(rho_a, rho_b), SZ, 1e-12)

    def test_unbalanced_pair_fails(self):
        pair = TwoStatePairMixed(PLUS_PROJ, MIXED)
        assert not stationarity_check(pair, SZ, 1e-9)


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
            assert np.allclose(np.diagonal(
                spectral(inp.hamiltonian).eigenvectors.as_matrix().conj() @ rho
                @ spectral(inp.hamiltonian).eigenvectors.as_matrix().T
            ).real, inp.diagonal, atol=1e-10)

    def test_matches_the_per_entry_formula(self):
        rng = np.random.default_rng(52)
        for trial in range(300):
            inp = feasible_instance(rng, int(rng.integers(2, 9)), duplicate=(trial % 3 == 0))
            assert np.array_equal(commutator_solve(inp), per_entry_solve(inp))


def per_entry_solve(inp: StationarySolveInput) -> np.ndarray:
    """``commutator_solve`` one entry at a time: rho_ij = K_ij / (E_j - E_i) in H's eigenbasis,
    zero inside degenerate blocks, the given diagonal, and the conjugate below it."""
    dec = spectral(inp.hamiltonian)
    d = dec.dim
    v = dec.eigenvectors.as_matrix().T
    energies = np.asarray(dec.eigenvalues)
    k_eig = v.conj().T @ inp.target.entries @ v
    block_of = {i: b for b, block in enumerate(dec.degeneracy_blocks) for i in block}
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
    def test_diagonal_input_reproduces_itself(self):
        h = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        partner = stationary_partner(rho, h, [0.7, 0.3])
        assert np.allclose(partner.entries, rho.entries, atol=1e-12)

    def test_plus_state_self_partner(self):
        partner = stationary_partner(PLUS_PROJ, SZ, [0.5, 0.5])
        assert np.allclose(partner.entries, PLUS_PROJ.entries, atol=1e-12)
        pair = TwoStatePairMixed(partner, PLUS_PROJ)
        assert stationarity_check(pair, SZ, 1e-9)

    def test_skewed_diagonal_fails_psd(self):
        # oracle: [[3/4, 1/2], [1/2, 1/4]] has a negative eigenvalue
        candidate = np.array([[0.75, 0.5], [0.5, 0.25]])
        oracle_min = float(np.linalg.eigvalsh(candidate).min())
        assert oracle_min < -1e-10
        with pytest.raises(NotPsdError) as info:
            stationary_partner(PLUS_PROJ, SZ, [0.75, 0.25])
        assert info.value.min_eigenvalue == pytest.approx(oracle_min, abs=1e-12)

    def test_diagonal_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            stationary_partner(PLUS_PROJ, SZ, [0.75, 0.75])

    def test_random_partners_are_stationary(self):
        rng = np.random.default_rng(52)
        built = 0
        while built < 30:
            d = int(rng.integers(2, 5))
            h = HermitianOperator(np.diag(np.cumsum(rng.uniform(0.3, 1.0, size=d))).astype(complex))
            rho_down = random_density(rng, d)
            raw = rng.uniform(0.2, 1.0, size=d)
            try:
                partner = stationary_partner(rho_down, h, raw / raw.sum())
            except NotPsdError:
                continue
            assert stationarity_check(TwoStatePairMixed(partner, rho_down), h, 1e-9)
            built += 1


class TestFirstOrderInvariance:
    def test_diagonal_pair_never_moves(self):
        h = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        pair = TwoStatePairMixed(rho, rho)
        for dt in (1e-1, 1e-2, 1e-3):
            assert first_order_invariance_check(pair, h, dt) < 1e-14

    def test_stationary_pair_second_order(self):
        pair = TwoStatePairMixed(PLUS_PROJ, PLUS_PROJ)  # equal commutators, nonzero curvature
        for dt in (1e-2, 1e-3, 1e-4):
            ratio = first_order_invariance_check(pair, SZ, dt) / first_order_invariance_check(pair, SZ, dt / 2)
            assert 3.2 <= ratio <= 4.8

    def test_partner_pair_second_order(self):
        partner = stationary_partner(PLUS_PROJ, SZ, [0.5, 0.5])
        pair = TwoStatePairMixed(partner, PLUS_PROJ)
        for dt in (1e-3, 5e-4):
            ratio = first_order_invariance_check(pair, SZ, dt) / first_order_invariance_check(pair, SZ, dt / 2)
            assert 3.2 <= ratio <= 4.8

    def test_non_stationary_pair_first_order(self):
        pair = TwoStatePairMixed(PLUS_PROJ, MIXED)
        assert not stationarity_check(pair, SZ, 1e-9)
        for dt in (1e-2, 1e-3, 1e-4):
            ratio = first_order_invariance_check(pair, SZ, dt) / first_order_invariance_check(pair, SZ, dt / 2)
            assert 1.6 <= ratio <= 2.4

    def test_rejects_nonpositive_dt(self):
        pair = TwoStatePairMixed(PLUS_PROJ, PLUS_PROJ)
        with pytest.raises(ValueError, match="dt"):
            first_order_invariance_check(pair, SZ, 0.0)

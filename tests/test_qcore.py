import json

import numpy as np
import pytest

from twostate import (
    DensityMatrix,
    HermitianOperator,
    OrthonormalBasis,
    Projector,
    StateVector,
    UnitaryOperator,
    commutator,
    inner,
    projector_of,
    spectral,
    trace_product,
)
from twostate.qcore import (
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)

from helpers import random_density, random_hermitian, random_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

E0 = StateVector.basis_state(2, 0)
E1 = StateVector.basis_state(2, 1)
PLUS = StateVector(np.array([1, 1]) / np.sqrt(2))


class TestTypeInvariants:
    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_state_vector_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dimension"):
            StateVector(np.array([1.0]))

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOperator(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projector(np.diag([0.5, 0.5]).astype(complex))

    def test_projector_rejects_rank_two(self):
        with pytest.raises(ValueError, match="trace"):
            Projector(np.eye(2, dtype=complex))

    def test_basis_rejects_non_orthonormal(self):
        tilted = StateVector(np.array([np.sqrt(0.9), np.sqrt(0.1)]))
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis((E0, tilted))

    def test_basis_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="exactly"):
            OrthonormalBasis((E0,))

    @pytest.mark.parametrize("build, message", [
        (lambda: StateVector(np.array([np.nan, 0.0])), "norm"),
        (lambda: DensityMatrix(np.diag([np.nan, 0.0])), "Hermitian"),
        (lambda: HermitianOperator(np.diag([np.nan, 1.0])), "Hermitian"),
        (lambda: UnitaryOperator(np.diag([np.nan, 1.0])), "unitary"),
        (lambda: Projector(np.diag([np.nan, 0.0])), "Hermitian"),
        (lambda: OrthonormalBasis.from_unitary_matrix(np.diag([np.nan, 1.0])), "norm"),
    ], ids=["state", "density", "hermitian", "unitary", "projector", "basis"])
    def test_rejects_nan_entries(self, build, message):
        # every check fails on a NaN deviation instead of comparing false
        with pytest.raises(ValueError, match=message):
            build()

    def test_values_are_frozen(self):
        with pytest.raises(ValueError):
            E0.entries[0] = 0.0


class TestInner:
    def test_identity(self):
        assert inner(E0, E0) == 1.0

    def test_orthogonal(self):
        assert inner(E0, E1) == 0.0

    def test_superposition(self):
        assert inner(E0, PLUS) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = random_state(rng, 3)
            y = random_state(rng, 3)
            assert inner(x, y) == pytest.approx(np.conj(inner(y, x)), abs=1e-14)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert abs(inner(random_state(rng, 4), random_state(rng, 4))) <= 1 + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(E0, StateVector.basis_state(3, 0))


class TestProjectorOf:
    def test_basis_state(self):
        assert np.array_equal(projector_of(E0).entries, np.diag([1.0, 0.0]).astype(complex))

    def test_phase_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_state(rng, 3)
            rotated = StateVector(np.exp(0.7j) * s.entries)
            assert np.allclose(projector_of(rotated).entries, projector_of(s).entries, atol=1e-15)

    def test_plus_state_all_half(self):
        assert np.allclose(projector_of(PLUS).entries, np.full((2, 2), 0.5), atol=1e-15)


class TestTraceProduct:
    def test_maximally_mixed(self):
        rng = np.random.default_rng(4)
        proj = projector_of(random_state(rng, 2))
        assert trace_product(np.eye(2, dtype=complex) / 2, proj) == pytest.approx(0.5, abs=1e-12)

    def test_aligned_projector(self):
        assert trace_product(projector_of(E0).entries, projector_of(E0)) == pytest.approx(1.0)

    def test_half_overlap(self):
        assert trace_product(projector_of(E0).entries, projector_of(PLUS)) == pytest.approx(0.5)

    def test_range_for_density_projector_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            val = trace_product(random_density(rng, d).entries, projector_of(random_state(rng, d)))
            assert -1e-10 <= val <= 1 + 1e-10

    def test_imaginary_residue_rejected(self):
        corrupted = np.array([[0.0, 1.0j], [0.0, 0.0]])
        with pytest.raises(ValueError, match="imaginary residue"):
            trace_product(corrupted, projector_of(PLUS))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_product(np.eye(3, dtype=complex) / 3, projector_of(E0))


class TestCommutator:
    def test_self_commutes(self):
        h = random_hermitian(np.random.default_rng(6), 3)
        assert np.array_equal(commutator(h, h), np.zeros((3, 3)))

    def test_pauli_algebra(self):
        assert np.allclose(commutator(SX, SY), 2j * SZ, atol=1e-15)

    def test_identity_commutes(self):
        rho = random_density(np.random.default_rng(7), 4)
        assert np.allclose(commutator(rho.entries, np.eye(4, dtype=complex)), 0.0)

    def test_anti_hermitian_for_hermitian_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            k = commutator(random_hermitian(rng, d), random_hermitian(rng, d))
            assert np.max(np.abs(k + k.conj().T)) < 1e-12


class TestSpectral:
    def test_diagonal(self):
        dec = spectral(HermitianOperator(np.diag([1.0, 3.0]).astype(complex)))
        assert dec.eigenvalues == (1.0, 3.0)
        assert abs(inner(dec.eigenvectors[0], E0)) == pytest.approx(1.0)
        assert abs(inner(dec.eigenvectors[1], E1)) == pytest.approx(1.0)

    def test_pauli_x_closed_form(self):
        dec = spectral(HermitianOperator(SX))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        minus = StateVector(np.array([1, -1]) / np.sqrt(2))
        assert abs(inner(dec.eigenvectors[0], minus)) == pytest.approx(1.0, abs=1e-14)
        assert abs(inner(dec.eigenvectors[1], PLUS)) == pytest.approx(1.0, abs=1e-14)

    def test_identity_single_block(self):
        dec = spectral(HermitianOperator(np.eye(4, dtype=complex)))
        assert dec.degeneracy_blocks == ((0, 1, 2, 3),)

    def test_near_degenerate_grouping(self):
        h = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex))
        dec = spectral(h)
        assert dec.degeneracy_blocks == ((0, 1), (2,))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            h = random_hermitian(rng, d)
            dec = spectral(HermitianOperator(h))
            assert np.linalg.norm(dec.reconstruct() - h) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            spectral(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestJsonFixtures:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(10)
        vec = rng.normal(size=5) + 1j * rng.normal(size=5)
        recovered = vector_from_json(json.loads(json.dumps(vector_to_json(vec))))
        assert np.array_equal(recovered, vec)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        recovered = matrix_from_json(json.loads(json.dumps(matrix_to_json(mat))))
        assert np.array_equal(recovered, mat)

    def test_row_major_layout(self):
        data = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
        assert data[0] == [[1.0, 0.0], [2.0, 0.0]]
        assert data[1] == [[3.0, 0.0], [4.0, 0.0]]

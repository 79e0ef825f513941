import json

import numpy as np
import pytest

from twostate import (
    HermitianOperator,
    OrthonormalBasis,
    StateVector,
    commutator,
    spectral,
)
from twostate.qcore import (
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
)

from helpers import random_density, random_hermitian, vector_to_json

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

    def test_state_vector_normalized_rescales(self):
        assert np.allclose(StateVector.normalized(np.array([3.0, 4.0j])).entries, [0.6, 0.8j], atol=1e-15)

    def test_state_vector_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero vector"):
            StateVector.normalized(np.zeros(2))

    @pytest.mark.parametrize("index", [-1, 2], ids=["negative", "past-end"])
    def test_basis_state_rejects_out_of_range_index(self, index):
        with pytest.raises(ValueError, match="out of range"):
            StateVector.basis_state(2, index)

    def test_hermitian_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(np.array([[1.0, 0.1], [0.3, 1.0]]))

    def test_hermitian_rejects_non_square(self):
        with pytest.raises(ValueError, match="square matrix"):
            HermitianOperator(np.eye(3)[:, :2])

    def test_basis_rejects_non_orthonormal(self):
        tilted = [np.sqrt(0.9), np.sqrt(0.1)]
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis(np.array([E0.entries, tilted]))

    @pytest.mark.parametrize("rows", [[[1.0, 0.0]], [[1.0]], [1.0, 0.0], np.eye(3)[:, :2], np.eye(2)[None]],
                             ids=["one-row", "dim-one", "one-dim-array", "non-square", "three-dim-array"])
    def test_basis_rejects_wrong_count(self, rows):
        with pytest.raises(ValueError, match="exactly"):
            OrthonormalBasis(np.asarray(rows))

    def test_basis_checks_row_norms_before_the_gram_matrix(self):
        # the Gram deviation of this basis, 1e-11, is within ORTHONORMAL_TOL; its first row's norm is not
        # within NORM_TOL
        rows = np.eye(3, dtype=complex)
        rows[0, 0] = 1.0 + 5e-12
        with pytest.raises(ValueError, match=r"^state vector norm 1\.0000000000\d* deviates from 1 beyond 1\.0e-12$"):
            OrthonormalBasis(rows)
        rows[0, 0] = 1.0
        rows[2] = [0.6, 0.0, 0.8]
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis(rows)

    @pytest.mark.parametrize("build, message", [
        (lambda: StateVector(np.array([np.nan, 0.0])), "norm"),
        (lambda: HermitianOperator(np.diag([np.nan, 1.0])), "Hermitian"),
        (lambda: OrthonormalBasis(np.diag([np.nan, 1.0])), "norm"),
        (lambda: OrthonormalBasis(np.diag([1.0, np.nan])), "norm"),
    ], ids=["state", "hermitian", "basis", "basis-second-row"])
    def test_rejects_nan_entries(self, build, message):
        # every check fails on a NaN deviation instead of comparing false
        with pytest.raises(ValueError, match=message):
            build()

    def test_values_are_frozen(self):
        with pytest.raises(ValueError):
            E0.entries[0] = 0.0


class TestCommutator:
    def test_self_commutes(self):
        h = random_hermitian(np.random.default_rng(6), 3)
        assert np.array_equal(commutator(h, h), np.zeros((3, 3)))

    def test_pauli_algebra(self):
        assert np.allclose(commutator(SX, SY), 2j * SZ, atol=1e-15)

    def test_identity_commutes(self):
        rho = random_density(np.random.default_rng(7), 4)
        assert np.allclose(commutator(rho, np.eye(4, dtype=complex)), 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator(np.eye(2), np.eye(3))

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
        assert abs(np.vdot(dec.eigenvectors.entries[0], E0.entries)) == pytest.approx(1.0)
        assert abs(np.vdot(dec.eigenvectors.entries[1], E1.entries)) == pytest.approx(1.0)

    def test_pauli_x_closed_form(self):
        dec = spectral(HermitianOperator(SX))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        minus = StateVector(np.array([1, -1]) / np.sqrt(2))
        assert abs(np.vdot(dec.eigenvectors.entries[0], minus.entries)) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(dec.eigenvectors.entries[1], PLUS.entries)) == pytest.approx(1.0, abs=1e-14)

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
            v = dec.eigenvectors.entries.T  # columns are eigenvectors
            assert np.linalg.norm((v * np.asarray(dec.eigenvalues)) @ v.conj().T - h) <= 1e-10

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

    def test_matrix_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row 1 has 1 entries"):
            matrix_from_json([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]])

    def test_row_major_layout(self):
        data = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
        assert data[0] == [[1.0, 0.0], [2.0, 0.0]]
        assert data[1] == [[3.0, 0.0], [4.0, 0.0]]

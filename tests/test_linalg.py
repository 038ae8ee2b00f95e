"""Dense kernels: validation, determinant, normal eigendecomposition."""

import numpy as np
import pytest
import scipy.linalg

from wignerpf import InputError, NotNormalError, Tolerances
from wignerpf.linalg import (
    DEFAULT_TOL,
    as_matrix,
    as_square_matrix,
    det_lu,
    eig_normal,
    frobenius,
    unitarity_defect,
)


class TestValidation:
    def test_as_matrix_promotes_to_complex(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        np.testing.assert_array_equal(m, [[1, 2], [3, 4]])

    def test_as_matrix_rejects_vectors(self):
        with pytest.raises(InputError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(InputError):
            as_matrix(np.zeros((0, 0)))

    def test_as_matrix_rejects_non_finite(self):
        with pytest.raises(InputError):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_as_square_matrix_rejects_rectangular(self):
        with pytest.raises(InputError):
            as_square_matrix(np.zeros((2, 3)))

    def test_as_matrix_passes_through_complex_input(self):
        src = np.eye(2, dtype=np.complex128)
        np.testing.assert_array_equal(as_matrix(src), src)


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.eig_residual == 1e-10
        assert DEFAULT_TOL.cluster == 1e-8
        assert DEFAULT_TOL.unitarity == 1e-10
        assert DEFAULT_TOL.reconstruct == 1e-9

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            Tolerances(eig_residual=0.0)
        with pytest.raises(InputError):
            Tolerances(cluster=-1e-8)
        with pytest.raises(InputError):
            Tolerances(unitarity=np.inf)

    def test_rejects_cluster_below_eig_residual(self):
        with pytest.raises(InputError):
            Tolerances(eig_residual=1e-6, cluster=1e-8)

    def test_threshold_scaling(self):
        tol = Tolerances()
        assert tol.cluster_threshold(3.0) == pytest.approx(1e-8 * 10.0)
        assert tol.unitarity_threshold(16) == pytest.approx(1e-10 * 4.0)


class TestDeterminant:
    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for dim in (1, 2, 3, 5, 8, 13, 21):
            for _ in range(5):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                np.testing.assert_allclose(
                    det_lu(a), np.linalg.det(a), rtol=1e-10, atol=1e-12
                )

    def test_triangular_and_permuted(self):
        a = np.triu(np.arange(1, 10, dtype=float).reshape(3, 3))
        assert det_lu(a) == pytest.approx(1 * 5 * 9)
        # a row swap flips the sign
        swapped = a[[1, 0, 2]]
        assert det_lu(swapped) == pytest.approx(-45.0)

    def test_singular_matrix(self):
        v = np.array([[1.0], [2.0], [3.0]])
        assert abs(det_lu(v @ v.T)) < 1e-12

    def test_scalar(self):
        assert det_lu([[2.0 - 3.0j]]) == pytest.approx(2.0 - 3.0j)


class TestEigNormal:
    def test_hermitian(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        values, vectors = eig_normal(h)
        assert unitarity_defect(vectors) < 1e-12
        np.testing.assert_allclose(
            h @ vectors, vectors @ np.diag(values), atol=1e-11 * frobenius(h)
        )
        np.testing.assert_allclose(np.sort(values.real), np.linalg.eigvalsh(h), atol=1e-10)
        np.testing.assert_allclose(values.imag, 0.0, atol=1e-10)

    def test_unitary_with_degenerate_eigenvalues(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        m = q @ np.diag([1j, 1j, -1.0, 1.0]) @ q.conj().T
        values, vectors = eig_normal(m)
        assert unitarity_defect(vectors) < 1e-12
        np.testing.assert_allclose(
            m @ vectors, vectors @ np.diag(values), atol=1e-11
        )

    @staticmethod
    def _normal(values, seed):
        rng = np.random.default_rng(seed)
        dim = len(values)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(g)
        return q @ np.diag(values) @ q.conj().T

    @staticmethod
    def _count_schur(monkeypatch):
        calls = []
        schur = scipy.linalg.schur

        def counting(*args, **kwargs):
            calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
        return calls

    @staticmethod
    def _assert_working_precision(m, values, vectors):
        eps = np.finfo(float).eps
        dim = m.shape[0]
        assert unitarity_defect(vectors) < 4 * dim * eps
        residual = np.linalg.norm(m @ vectors - vectors @ np.diag(values))
        assert residual <= 4 * dim * eps * frobenius(m)

    @staticmethod
    def _assert_spectrum(values, want):
        def ordered(z):
            return sorted(z, key=lambda w: (round(w.real, 6), round(w.imag, 6)))

        np.testing.assert_allclose(ordered(values), ordered(want), atol=1e-12)

    def test_distinct_spectrum_to_working_precision_without_schur(self, monkeypatch):
        rng = np.random.default_rng(5)
        want = rng.normal(size=150) + 1j * rng.normal(size=150)
        want = np.concatenate([want, np.conj(want)])
        m = self._normal(want, 6)
        schur_calls = self._count_schur(monkeypatch)
        values, vectors = eig_normal(m)
        assert schur_calls == []
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_degenerate_clusters_to_working_precision(self):
        want = np.array([-2.0] * 60 + [3.0] * 60 + [1 + 1j] * 10 + [1 - 1j] * 10)
        m = self._normal(want, 8)
        values, vectors = eig_normal(m)
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_eigenvalues_the_hermitian_combination_merges_use_schur(self, monkeypatch):
        # w = c and w = i share Re w + c Im w = c, so H + c K cannot separate
        # their eigenvectors; the Schur form has to
        c = (5**0.5 - 1) / 2
        want = np.array([c, 1j, -1j, 2.0, -0.5 + 0.25j, -0.5 - 0.25j])
        m = self._normal(want, 9)
        schur_calls = self._count_schur(monkeypatch)
        values, vectors = eig_normal(m)
        assert schur_calls == [1]
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormalError) as info:
            eig_normal([[1.0, 1.0], [0.0, 1.0]])
        assert info.value.residual > 0

    def test_residual_scale_invariance(self):
        # the normality test is relative, so rescaling must not change it
        m = np.array([[0.0, 1e6], [-1e6, 0.0]])
        eig_normal(m)
        eig_normal(m * 1e-6)


class TestSmallHelpers:
    def test_frobenius(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0j]])
        assert frobenius(a) == pytest.approx(5.0)

    def test_unitarity_defect(self):
        assert unitarity_defect(np.eye(3)) == 0.0
        # U^H U - 1 = 3*eye(3), Frobenius norm 3*sqrt(3)
        assert unitarity_defect(2.0 * np.eye(3)) == pytest.approx(3.0 * np.sqrt(3.0))

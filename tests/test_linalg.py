"""Dense kernels: validation, determinant, normal eigendecomposition."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from wignerpf import InputError, NotNormalError, Tolerances
from wignerpf.linalg import (
    DEFAULT_TOL,
    _components,
    _frozen,
    _gram,
    _hermitian_norm,
    as_matrix,
    as_square_matrix,
    det_lu,
    eig_normal,
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

    def test_as_matrix_accepts_finite_entries_whose_sum_overflows(self):
        # the sum is only a fast proof of finiteness; when it overflows, the
        # element-wise scan decides, and no overflow warning escapes
        big = np.full((3, 3), 1e308) - 1j * np.full((3, 3), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(as_matrix(big), big)

    @pytest.mark.parametrize(
        "entries",
        [[np.inf], [np.nan], [np.inf, -np.inf], [1j * np.inf, -1j * np.inf], [1e308, np.nan]],
    )
    def test_as_matrix_rejects_every_non_finite_entry(self, entries):
        # +inf with -inf sums to nan, and an overflowing sum hides nothing
        m = np.full((3, 3), 1e308, dtype=complex)
        m.flat[: len(entries)] = entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="matrix entries must be finite"):
                as_matrix(m)

    def test_as_square_matrix_rejects_rectangular(self):
        with pytest.raises(InputError):
            as_square_matrix(np.zeros((2, 3)))

    def test_as_matrix_passes_through_complex_input(self):
        src = np.eye(2, dtype=np.complex128)
        np.testing.assert_array_equal(as_matrix(src), src)


    def test_non_numeric_entry(self):
        with pytest.raises(InputError) as info:
            as_matrix([[1, "a"]])
        assert type(info.value) is InputError
        assert str(info.value).startswith("cannot interpret input as a complex matrix: ")


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.eig_residual == 1e-10
        assert DEFAULT_TOL.cluster == 1e-8

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            Tolerances(eig_residual=0.0)
        with pytest.raises(InputError):
            Tolerances(cluster=-1e-8)
        with pytest.raises(InputError):
            Tolerances(cluster=np.inf)

    def test_rejects_bool(self):
        with pytest.raises(InputError):
            Tolerances(eig_residual=True, cluster=True)

    def test_takes_cluster_below_eig_residual(self):
        # only the clustering ties the two (see test_normal_form.py)
        tol = Tolerances(eig_residual=1e-6, cluster=1e-8)
        assert (tol.eig_residual, tol.cluster) == (1e-6, 1e-8)

    def test_threshold_scaling(self):
        tol = Tolerances()
        assert tol.cluster_threshold(3.0) == pytest.approx(1e-8 * 9.0)


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
        a = np.triu(np.arange(1, 10, dtype=complex).reshape(3, 3))
        assert det_lu(a) == pytest.approx(1 * 5 * 9)
        # a row swap flips the sign
        swapped = a[[1, 0, 2]]
        assert det_lu(swapped) == pytest.approx(-45.0)

    def test_singular_matrix(self):
        v = np.array([[1.0], [2.0], [3.0]], dtype=complex)
        assert abs(det_lu(v @ v.T)) < 1e-12

    def test_scalar(self):
        assert det_lu(np.array([[2.0 - 3.0j]])) == pytest.approx(2.0 - 3.0j)

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_stack_gives_each_members_determinant_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        stack = rng.normal(size=(6, k, k)) + 1j * rng.normal(size=(6, k, k))
        stack[1] = stack[1][::-1]  # a member with its own swap parity
        stack[2] = 0.0  # exactly singular
        stack[3, :, 0] = 0.0  # singular through one column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dets = det_lu(stack)
        assert dets.shape == (6,)
        assert dets[2] == 0 and dets[3] == 0
        for member, det in zip(stack, dets):
            want = det_lu(member)
            assert isinstance(want, complex)
            assert (det.real.hex(), det.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_stack_takes_one_factorization(self, monkeypatch):
        calls = []
        original = scipy.linalg.lu_factor
        monkeypatch.setattr(
            scipy.linalg, "lu_factor", lambda *a, **kw: calls.append(1) or original(*a, **kw)
        )
        det_lu(np.tile(np.eye(4, dtype=complex), (50, 1, 1)))
        assert calls == [1]


class TestEigNormal:
    def test_hermitian(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        values, vectors = eig_normal(h)
        assert unitarity_defect(vectors) < 1e-12
        np.testing.assert_allclose(
            h @ vectors, vectors @ np.diag(values), atol=1e-11 * np.linalg.norm(h)
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
    def _assert_working_precision(m, values, vectors):
        eps = np.finfo(float).eps
        dim = m.shape[0]
        assert unitarity_defect(vectors) < 4 * dim * eps
        residual = np.linalg.norm(m @ vectors - vectors @ np.diag(values))
        assert residual <= 4 * dim * eps * np.linalg.norm(m)

    @staticmethod
    def _assert_spectrum(values, want):
        def ordered(z):
            return sorted(z, key=lambda w: (round(w.real, 6), round(w.imag, 6)))

        np.testing.assert_allclose(ordered(values), ordered(want), atol=1e-12)

    def test_distinct_spectrum_to_working_precision_schurs_only_the_mixed_block(
        self, schur_orders
    ):
        rng = np.random.default_rng(5)
        want = rng.normal(size=150) + 1j * rng.normal(size=150)
        want = np.concatenate([want, np.conj(want)])
        m = self._normal(want, 6)
        values, vectors = eig_normal(m)
        assert len(schur_orders) <= 1 and all(k < m.shape[0] / 10 for k in schur_orders)
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_degenerate_clusters_to_working_precision(self):
        want = np.array([-2.0] * 60 + [3.0] * 60 + [1 + 1j] * 10 + [1 - 1j] * 10)
        m = self._normal(want, 8)
        values, vectors = eig_normal(m)
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_eigenvalues_the_hermitian_combination_merges_use_schur(self, schur_orders):
        # w = c and w = i share Re w + c Im w = c, so H + c K cannot separate
        # their eigenvectors; the Schur form of their 2 x 2 block has to
        c = (5**0.5 - 1) / 2
        want = np.array([c, 1j, -1j, 2.0, -0.5 + 0.25j, -0.5 - 0.25j])
        m = self._normal(want, 9)
        values, vectors = eig_normal(m)
        assert schur_orders == [2]
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_one_exact_collision_schurs_only_the_mixed_block(self, schur_orders):
        # one pair that H + c K merges among 298 distinct eigenvalues: only the
        # mixed columns go through a Schur form, not the whole matrix
        c = (5**0.5 - 1) / 2
        rng = np.random.default_rng(16)
        want = np.concatenate([rng.normal(size=298) + 1j * rng.normal(size=298), [c, 1j]])
        m = self._normal(want, 17)
        values, vectors = eig_normal(m)
        assert schur_orders and all(k < m.shape[0] for k in schur_orders)
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    @staticmethod
    def _colliding_pairs(collision, count, seed):
        """``count`` pairs w, w' = w + 0.5 u + 0.5 collision with Re u + c Im u
        = 0: each pair's ``Re w + c Im w`` differ by ``collision`` times
        |w - w'|, about 0.5, so H + cK nearly merges the pair's eigenvectors
        while M keeps them apart."""
        c = (5**0.5 - 1) / 2
        rng = np.random.default_rng(seed)
        w = rng.normal(size=count) + 1j * rng.normal(size=count)
        u = (-c + 1j) / abs(-c + 1j)
        return np.concatenate([w, w + 0.5 * u + 0.5 * collision])

    @pytest.mark.parametrize("collision", [1e-4, 1e-6])
    def test_pairs_the_hermitian_combination_nearly_merges(self, collision):
        want = self._colliding_pairs(collision, 60, 12)
        m = self._normal(want, 13)
        values, vectors = eig_normal(m)
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_pairs_merged_to_1e7_use_schur(self, schur_orders):
        # the eigensolve mixes such a pair by more than sqrt(eps): the Schur
        # form of the mixed block unmixes it
        want = self._colliding_pairs(1e-7, 60, 12)
        m = self._normal(want, 13)
        values, vectors = eig_normal(m)
        assert len(schur_orders) == 1
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_schur_sees_only_the_mixed_columns(self, schur_orders):
        # three colliding pairs among 100 eigenvalues whose Re w + c Im w lie
        # at least 0.05 apart: the Schur form is taken of the pairs' six columns
        separated = np.arange(100) * 0.05 + 1j * np.tile([-1.0, 1.0], 50) / 1.5
        separated = separated - (5**0.5 - 1) / 2 * separated.imag + 10
        want = np.concatenate([separated, self._colliding_pairs(1e-6, 3, 14)])
        m = self._normal(want, 15)
        values, vectors = eig_normal(m)
        assert schur_orders == [6]
        self._assert_working_precision(m, values, vectors)
        self._assert_spectrum(values, want)

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormalError) as info:
            eig_normal(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
        assert info.value.residual > 0

    def test_residual_scale_invariance(self):
        # the normality test is relative, so rescaling must not change it
        m = np.array([[0.0, 1e6], [-1e6, 0.0]], dtype=complex)
        eig_normal(m)
        eig_normal(m * 1e-6)


class TestSmallHelpers:
    def test_unitarity_defect(self):
        eye = np.eye(3, dtype=complex)
        assert unitarity_defect(eye) == 0.0
        # U^H U - 1 = 3*eye(3), Frobenius norm 3*sqrt(3)
        assert unitarity_defect(2.0 * eye) == pytest.approx(3.0 * np.sqrt(3.0))


class TestFrozen:
    def test_only_an_owned_read_only_array_is_kept(self):
        owned = np.arange(9.0).reshape(3, 3) + 0j
        owned.flags.writeable = False
        assert _frozen(owned) is owned
        writable = np.arange(9.0).reshape(3, 3) + 1j
        view = writable[:]
        view.flags.writeable = False
        for m in (writable, view, writable.T):
            held = _frozen(m)
            assert held is not m and held.base is None and not held.flags.writeable
            np.testing.assert_array_equal(held, m)


class TestGramTriangles:
    """Hermitian Gram products as one triangle, and norms read from it."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 40])
    def test_gram_is_the_upper_triangle_of_the_product(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for x in (a, a.T):
            for adjoint_first, full in ((False, x @ x.conj().T), (True, x.conj().T @ x)):
                gram = _gram(x, adjoint_first=adjoint_first)
                assert not np.tril(gram, -1).any()
                np.testing.assert_allclose(
                    gram, np.triu(full), rtol=0, atol=1e-14 * np.linalg.norm(full)
                )

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 40, 300])
    def test_triangle_norm_matches_the_dense_norm(self, dim):
        rng = np.random.default_rng(100 + dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        diagonal = np.diag(rng.normal(size=dim)).astype(complex)
        for h in (g + g.conj().T, diagonal, 1e-150 * (g + g.conj().T), 1e150 * diagonal):
            want = np.linalg.norm(h)
            assert abs(_hermitian_norm(np.triu(h)) - want) <= 1e-14 * want

    def test_triangle_norm_of_scalars(self):
        assert _hermitian_norm(np.array([[-3.0 + 0j]])) == 3.0
        assert _hermitian_norm(np.zeros((1, 1), dtype=complex)) == 0.0
        assert _hermitian_norm(np.zeros((4, 4), dtype=complex)) == 0.0


def least_reachable(linked):
    """Each node's least reachable node, by plain breadth-first searches from
    the nodes in ascending order."""
    labels = np.full(len(linked), -1)
    for start in range(len(linked)):
        frontier = [start] if labels[start] < 0 else []
        while frontier:
            labels[frontier] = start
            frontier = sorted({j for i in frontier for j in np.flatnonzero(linked[i]) if labels[j] < 0})
    return labels


class TestComponents:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.05, 0.3])
    def test_labels_are_least_reachable_nodes(self, seed, density):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        linked = rng.random((n, n)) < density
        linked |= linked.T
        linked.flat[:: n + 1] = True
        assert np.array_equal(_components(linked), least_reachable(linked))

    def test_a_long_path_is_one_component(self):
        # the chain 0 - 2 - 4 - ... - 1 - 3 - ...: each link halves the
        # label's distance at best, which the label's labels make up for
        n = 301
        order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]])
        linked = np.eye(n, dtype=bool)
        linked[order[:-1], order[1:]] = linked[order[1:], order[:-1]] = True
        assert not _components(linked).any()


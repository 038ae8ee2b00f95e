"""Skew Pfaffian routes against each other and against hand values."""

import numpy as np
import pytest

from wignerpf import InputError, pf_polynomial, pf_skew_householder, pf_skew_parlett_reid
from wignerpf.linalg import det_lu
from wignerpf.pfaffian import MAX_POLYNOMIAL_DIM, as_skew_matrix

ROUTES = [pf_skew_householder, pf_skew_parlett_reid, pf_polynomial]


def random_skew_dense(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a - a.T


def standard_symplectic(half):
    j = np.zeros((2 * half, 2 * half))
    for k in range(half):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


class TestHandValues:
    @pytest.mark.parametrize("route", ROUTES)
    def test_standard_symplectic_is_one(self, route):
        for half in (1, 2, 3, 4):
            assert route(standard_symplectic(half)) == pytest.approx(1.0)

    @pytest.mark.parametrize("route", ROUTES)
    def test_four_by_four_formula(self, route):
        # pf = af - be + cd for the generic 4x4 skew matrix
        a, b, c, d, e, f = 1.5, -0.25, 2.0 + 1.0j, 0.5j, 3.0, -1.0 + 0.5j
        m = np.array(
            [
                [0, a, b, c],
                [-a, 0, d, e],
                [-b, -d, 0, f],
                [-c, -e, -f, 0],
            ]
        )
        np.testing.assert_allclose(route(m), a * f - b * e + c * d, rtol=1e-13)

    @pytest.mark.parametrize("route", ROUTES)
    def test_zero_matrix(self, route):
        assert route(np.zeros((4, 4))) == 0

    @pytest.mark.parametrize("route", ROUTES)
    def test_odd_dimension_is_zero(self, route):
        m = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
        assert route(m) == 0


class TestCrossValidation:
    def test_three_routes_agree_on_random_skew(self):
        rng = np.random.default_rng(2024)
        for dim in (2, 4, 6, 8, 10, 12):
            for _ in range(5):
                m = random_skew_dense(rng, dim)
                reference = pf_polynomial(m)
                scale = max(abs(reference), 1.0)
                np.testing.assert_allclose(
                    pf_skew_householder(m), reference, atol=1e-11 * scale
                )
                np.testing.assert_allclose(
                    pf_skew_parlett_reid(m), reference, atol=1e-11 * scale
                )

    def test_square_equals_determinant(self):
        rng = np.random.default_rng(5)
        for dim in (2, 6, 14, 20):
            m = random_skew_dense(rng, dim)
            pf = pf_skew_householder(m)
            np.testing.assert_allclose(pf * pf, det_lu(m), rtol=1e-9)

    def test_householder_handles_structured_zeros(self):
        # a leading column that already is tridiagonal (no reflection needed)
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 1] = 2.0
        m[1, 0] = -2.0
        m[2, 3] = 1.0 - 1.0j
        m[3, 2] = -1.0 + 1.0j
        assert pf_skew_householder(m) == pytest.approx(2.0 * (1.0 - 1.0j))
        assert pf_skew_parlett_reid(m) == pytest.approx(2.0 * (1.0 - 1.0j))


class TestAlgebraicProperties:
    def test_scaling_power(self):
        rng = np.random.default_rng(17)
        m = random_skew_dense(rng, 6)
        lam = 0.3 - 1.2j
        np.testing.assert_allclose(
            pf_skew_householder(lam * m),
            lam**3 * pf_skew_householder(m),
            rtol=1e-11,
        )

    def test_congruence_multiplies_by_determinant(self):
        rng = np.random.default_rng(23)
        m = random_skew_dense(rng, 6)
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        np.testing.assert_allclose(
            pf_skew_householder(b @ m @ b.T),
            det_lu(b) * pf_skew_householder(m),
            rtol=1e-10,
        )


class TestValidationAndLimits:
    def test_rejects_non_skew(self):
        with pytest.raises(InputError):
            as_skew_matrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InputError):
            pf_skew_householder([[1.0, 0.0], [0.0, 1.0]])

    def test_polynomial_accepts_general_matrices(self):
        # only the antisymmetric part contributes: (7 - 2) / 2
        assert pf_polynomial([[5.0, 7.0], [2.0, 9.0]]) == pytest.approx(2.5)

    def test_polynomial_dimension_limit(self):
        big = np.zeros((MAX_POLYNOMIAL_DIM + 2, MAX_POLYNOMIAL_DIM + 2))
        with pytest.raises(InputError):
            pf_polynomial(big)

    def test_parlett_reid_singular_returns_exact_zero(self):
        # rank-2 skew matrix of dimension 4
        rng = np.random.default_rng(3)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        m = np.outer(u, v) - np.outer(v, u)
        assert pf_skew_parlett_reid(m) == 0

"""Skew Pfaffian routes against each other and against hand values.

Householder is the reference oracle; the blocked Parlett-Reid kernel, the
one production route, is compared with it on both sides of its panel
boundaries (a panel is ``_PANEL`` pivot steps, two columns each), and its
exact output bits are pinned on fixed inputs."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerpf import InputError, pf_polynomial, pf_skew_parlett_reid, pfaffian
from wignerpf.linalg import det_lu
from wignerpf.pfaffian import (
    _PANEL,
    MAX_POLYNOMIAL_DIM,
    as_skew_matrix,
    pf_skew_householder,
)

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

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_polynomial_accepts_general_matrices(self, dim):
        # only the antisymmetric part contributes: (7 - 2) / 2
        assert pf_polynomial([[5.0, 7.0], [2.0, 9.0]]) == pytest.approx(2.5)
        # the matching sum of a stack, as the group kernel takes its blocks,
        # gives every member's pf_polynomial bit for bit
        rng = np.random.default_rng(dim)
        stack = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        sums = pfaffian._matching_sum((stack - stack.transpose(0, 2, 1)) / 2.0)
        for member, value in zip(stack, sums.tolist()):
            want = pf_polynomial(member)
            assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex())

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


#: both sides of the first panel boundary, plus sizes spanning several panels
PANEL_DIMS = [2, 4, 2 * _PANEL - 2, 2 * _PANEL, 2 * _PANEL + 2, 130, 300]


class TestBlockedParlettReid:
    @pytest.mark.parametrize("dim", PANEL_DIMS)
    def test_agrees_with_householder_across_panels(self, dim):
        m = random_skew_dense(np.random.default_rng(dim), dim)
        reference = pf_skew_householder(m)
        assert abs(pf_skew_parlett_reid(m) - reference) <= 1e-11 * abs(reference)

    @pytest.mark.parametrize("dim", [2 * _PANEL + 2, 130])
    def test_swap_into_the_stale_trailing_block(self, dim):
        # step 0 keeps its pivot row; at step 1 column 2 peaks in the last
        # row, beyond the panel, whose entries and pending G, C rows have not
        # been brought up to date yet
        m = random_skew_dense(np.random.default_rng(29), dim)
        m[1, 0], m[0, 1] = 10.0, -10.0
        m[-1, 2], m[2, -1] = 50.0, -50.0
        reference = pf_skew_householder(m)
        assert abs(pf_skew_parlett_reid(m) - reference) <= 1e-11 * abs(reference)

    def test_rank_deficient_zero_pivot_in_second_panel(self):
        # rank 2 * _PANEL + 2: pivot step _PANEL + 1, in the second panel, is
        # the first to vanish
        rng = np.random.default_rng(31)
        rank = 2 * _PANEL + 2
        b = rng.normal(size=(130, rank)) + 1j * rng.normal(size=(130, rank))
        m = b @ random_skew_dense(rng, rank) @ b.T
        m = (m - m.T) / 2.0
        assert pf_skew_parlett_reid(m[:rank, :rank]) != 0
        assert pf_skew_parlett_reid(m) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-300, 1e154, 1e300])
    def test_norms_are_taken_at_unit_scale(self, c):
        # ||c J||_F overflows from c ~ 1e154 on: the floor PIVOT_RTOL ||A||
        # was inf and every pivot fell under it; both norms are now taken on
        # A times a power of two
        assert pf_skew_parlett_reid(c * np.array([[0.0, 1.0], [-1.0, 0.0]])) == c

    def test_huge_non_skew_input_is_rejected(self):
        # ||A + A^T|| and ||A|| are both inf on A itself, and inf > inf is false
        with pytest.raises(InputError, match="not skew-symmetric"):
            pf_skew_parlett_reid(1e300 * np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_pivot_product_never_leaves_the_double_range(self):
        # 80 pivots 1e5, then 80 pivots 1e-5: the plain running product
        # overflows at step 62, while the Pfaffian is 1
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        m = scipy.linalg.block_diag(*[1e5 * j] * 80, *[1e-5 * j] * 80)
        pf, shift, _ = pfaffian._parlett_reid(m.astype(np.complex128))
        assert 0.5 <= abs(pf) < 1.0
        assert pfaffian._ldexp(pf, shift) == pytest.approx(1.0, rel=1e-15)
        assert pf_skew_parlett_reid(m) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("dim", PANEL_DIMS)
    def test_scaling_and_congruence(self, dim):
        rng = np.random.default_rng(100 + dim)
        k = random_skew_dense(rng, dim) / np.sqrt(dim)
        pf_k = pf_skew_parlett_reid(k)
        c = 0.9 + 0.5j
        np.testing.assert_allclose(
            pf_skew_parlett_reid(c * k), c ** (dim // 2) * pf_k, rtol=1e-11
        )
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b /= np.sqrt(2.0 * dim)
        congruent = b @ k @ b.T
        congruent = (congruent - congruent.T) / 2.0
        np.testing.assert_allclose(
            pf_skew_parlett_reid(congruent), det_lu(b) * pf_k, rtol=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(half=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_householder_property(self, half, seed):
        m = random_skew_dense(np.random.default_rng(seed), 2 * half)
        reference = pf_skew_householder(m)
        assert abs(pf_skew_parlett_reid(m) - reference) <= 1e-11 * abs(reference)


def swap_chain_skew(dim, seed):
    """Noise of size 1e-3 plus the pairs (0, dim-1) and (2j, 2j-1) of size
    about 1: at every pivot step but the last (which has one candidate row)
    the pivot sits in the last row, so each of those steps swaps."""
    m = 1e-3 * random_skew_dense(np.random.default_rng(seed), dim)
    pairs = [(0, dim - 1)] + [(2 * j, 2 * j - 1) for j in range(1, dim // 2)]
    for r, (i, j) in enumerate(pairs):
        m[i, j] += 1.0 + r / dim
        m[j, i] -= 1.0 + r / dim
    return m


def pinned_input(kind, dim, seed):
    if kind == "dense":
        return random_skew_dense(np.random.default_rng(seed), dim)
    if kind == "swap-chain":
        return swap_chain_skew(dim, seed)
    # a real skew matrix times i: the Pfaffian is real, and the sign of its
    # zero imaginary part follows every signed zero of the elimination
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    return 1j * (a - a.T)


#: pf_skew_parlett_reid on fixed inputs, as float.hex of (real, imag): the
#: kernel's arithmetic order, row swaps and signed zeros included, is pinned
PINNED = {
    ("dense", 4, 804): ("-0x1.01901c5734458p+1", "0x1.91d17c435f4d2p+0"),
    ("dense", 64, 864): ("0x1.6c860b4c0e812p+103", "-0x1.3244a96b4b2a0p+104"),
    ("dense", 66, 866): ("-0x1.56a0473f40d46p+105", "-0x1.55ed7a5c87303p+106"),
    ("dense", 130, 930): ("0x1.ec5d5f85e13c0p+241", "0x1.6f6a55c5ee6d4p+244"),
    ("swap-chain", 66, 966): ("0x1.021da2f0c50a7p+10", "-0x1.8383319c33c6ap+3"),
    ("swap-chain", 130, 1030): ("0x1.fefcc0a209171p+19", "0x1.3446ac9a3f83dp+14"),
    # the workloads' sizes: several panels, a partial last one
    ("dense", 100, 900): ("-0x1.0239daac91a29p+178", "0x1.24a04bae9367dp+177"),
    ("dense", 200, 1000): ("0x1.01eb6c7a4555fp+408", "0x1.1963d2b76288ap+406"),
    ("dense", 300, 1100): ("0x1.3f2dab3399361p+654", "-0x1.2806dec281f7fp+657"),
    ("swap-chain", 300, 1200): ("-0x1.6a5f1b72eb42fp+46", "0x1.805fd37fcc237p+36"),
    ("imaginary", 4, 1016): ("0x1.5f94faccd25aap-1", "0x0.0p+0"),
}


class TestPinnedParlettReid:
    @pytest.mark.parametrize("kind, dim, seed", list(PINNED))
    def test_bits(self, kind, dim, seed):
        value = pf_skew_parlett_reid(pinned_input(kind, dim, seed))
        assert (value.real.hex(), value.imag.hex()) == PINNED[kind, dim, seed]

    @pytest.mark.parametrize("dim", [66, 130])
    def test_swap_chain_swaps_at_every_step_but_the_last(self, dim, monkeypatch):
        swapped = []
        original = pfaffian._swap_rows
        monkeypatch.setattr(
            pfaffian, "_swap_rows", lambda x, i, j: swapped.append(i) or original(x, i, j)
        )
        pf_skew_parlett_reid(swap_chain_skew(dim, 900 + dim))
        # three swaps per step (rows of A, columns of A, rows of the G, C
        # buffer), two at a panel's first step, where nothing is pending
        steps = range(0, dim - 2, 2)
        want = [k + 1 for k in steps for _ in range(2 if k % (2 * _PANEL) == 0 else 3)]
        assert swapped == want


def factors_as_lu(m):
    """``(pf, -Pi P A P^T, L', U, packed)`` from the in-place kernel's run on
    a copy of ``m``: P the kernel's interchanges, Pi the swap of the two rows
    of each pair, and L', U the unit lower and upper triangles of the packed
    LU that :func:`wignerpf.pfaffian._packed_lu` reads off its factors."""
    work = m.copy()
    pf, shift, pivots = pfaffian._parlett_reid(work)
    dim = m.shape[0]
    order = np.arange(dim)
    for j, kp in enumerate(pivots.tolist()):
        order[[2 * j + 1, kp]] = order[[kp, 2 * j + 1]]
    rows = order[np.arange(dim) ^ 1]
    packed = pfaffian._packed_lu(work)
    lower = np.tril(packed, -1) + np.eye(dim)
    return pfaffian._ldexp(pf, shift), -m[np.ix_(rows, order)], lower, np.triu(packed), packed


class TestFactorsAsLU:
    """The in-place kernel's ``L D L^T`` factors, read as one LU of the
    permuted matrix, rebuild it; its pf is the public kernel's."""

    @pytest.mark.parametrize("dim", [2, 4, 62, 64, 66, 130])
    def test_rebuild_the_permuted_matrix(self, dim):
        m = random_skew_dense(np.random.default_rng(dim), dim)
        pf, permuted, lower, upper, packed = factors_as_lu(m)
        assert pf == pf_skew_parlett_reid(m)
        eps = np.finfo(float).eps
        assert np.linalg.norm(lower @ upper - permuted) <= 10 * dim * eps * np.linalg.norm(m)
        # Fortran order: LAPACK takes it without a copy
        assert packed.flags.f_contiguous

    @pytest.mark.parametrize("dim", [66, 130])
    def test_rebuild_after_a_swap_at_every_step(self, dim):
        m = swap_chain_skew(dim, 900 + dim)
        pf, permuted, lower, upper, _ = factors_as_lu(m)
        assert pf == pf_skew_parlett_reid(m)
        _, _, pivots = pfaffian._parlett_reid(m.copy())
        # each step's pivot row is the last one, the last step's without a swap
        assert pivots.tolist() == [dim - 1] * (dim // 2)
        eps = np.finfo(float).eps
        assert np.linalg.norm(lower @ upper - permuted) <= 10 * dim * eps * np.linalg.norm(m)

    def test_odd_dimension_and_singular_input_give_zero(self):
        assert pfaffian._parlett_reid(random_skew_dense(np.random.default_rng(3), 5))[0] == 0
        assert pfaffian._parlett_reid(np.zeros((4, 4), dtype=np.complex128))[0] == 0

"""Generalized Pfaffian, the determinant-ratio route, and the identity battery."""

import cmath
import itertools
import math
import traceback

import numpy as np
import pytest
import scipy.linalg

from wignerpf import (
    InputError,
    NotConjugateNormalError,
    PfDiagnostics,
    PfResult,
    PfUndefinedError,
    ReconstructionError,
    SpectralConsistencyError,
    SpectrumEntry,
    SpectrumSpec,
    antisymmetrized_pfaffian,
    classify_spectrum,
    generalized_pfaffian,
    generalized_pfaffian_via_relation,
    identity_report,
    is_conjugate_normal,
    pf_polynomial,
    pfaffian_derivative,
    random_conjugate_normal,
    wigner_normal_form,
)
from wignerpf import errors, generalized, linalg, normal_form, pfaffian
from wignerpf.ensembles import random_unitary
from wignerpf.linalg import det_lu
from wignerpf.pfaffian import pf_skew_parlett_reid

from conftest import CORPUS_SIZE, corpus_spec, mixed_gauge, only_svd_route
from test_scale import table_matrix

SQRT2 = np.sqrt(2.0)


def jump_matrix(x):
    return np.array([[0.0, 1.0 + 1.0j * x], [1.0 - 1.0j * x, 0.0]])


class TestHandValues:
    def test_real_skew(self):
        result = generalized_pfaffian([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(result.value, 1.0, atol=1e-14)
        assert result.method == "normal-form"
        assert not result.diagnostics.singular
        np.testing.assert_allclose(result.diagnostics.det, 1.0, atol=1e-14)
        assert result.diagnostics.cross_check_residual < 1e-12

    def test_hermitian_with_negative_squared(self):
        result = generalized_pfaffian(jump_matrix(1.0))
        np.testing.assert_allclose(result.value, 1j * SQRT2, atol=1e-14)
        np.testing.assert_allclose(result.diagnostics.det, -2.0, atol=1e-14)

    def test_conjugate_of_hand_example(self):
        result = generalized_pfaffian(np.conj(jump_matrix(1.0)))
        np.testing.assert_allclose(result.value, -1j * SQRT2, atol=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
    def test_jump_magnitude_and_sign(self, x):
        plus = generalized_pfaffian(jump_matrix(x)).value
        minus = generalized_pfaffian(jump_matrix(-x)).value
        np.testing.assert_allclose(abs(plus), np.sqrt(1.0 + x * x), atol=1e-12)
        assert minus == -plus


class TestUndefinedAndSingular:
    def test_positive_diagonal_is_undefined(self):
        with pytest.raises(PfUndefinedError) as info:
            generalized_pfaffian(np.diag([3.0, 5.0]))
        assert "positive real" in str(info.value)

    def test_odd_nonsingular_is_undefined(self):
        with pytest.raises(PfUndefinedError) as info:
            generalized_pfaffian([[2.0]])
        assert "odd dimension" in str(info.value)

    def test_singular_returns_exact_zero(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("complex", 1.0 + 1.0j, 1),
                SpectrumEntry("zero", 0.0, 2),
            ),
            seed=3,
        )
        result = generalized_pfaffian(random_conjugate_normal(spec))
        assert result.value == 0
        assert result.diagnostics.singular
        assert result.diagnostics.cross_check_residual is None

    def test_underflowed_determinant_is_not_singular(self):
        # scale-table cell n = 200, c = 1e-2: det(cA) = c^200 det(A)
        # underflows to 0 while pf(cA) = c^100 pf(A) is in range; only a
        # sigma = 0 block makes a matrix singular, and with no determinant
        # the cross-check cannot run
        rng = np.random.default_rng(5)
        radius = np.exp(rng.uniform(-2.7, 2.7, 100))
        angle = rng.uniform(0.1, np.pi - 0.1, 100)
        spec = SpectrumSpec(
            entries=tuple(
                SpectrumEntry("complex", complex(z), 1) for z in radius * np.exp(1j * angle)
            ),
            seed=5,
        )
        matrix = random_conjugate_normal(spec)
        scale = 1e-2
        result = generalized_pfaffian(scale * matrix)
        want = scale**100 * generalized_pfaffian(matrix).value
        assert result.diagnostics.det == 0
        assert not result.diagnostics.singular
        assert result.diagnostics.cross_check_residual is None
        assert abs(result.value - want) <= 1e-10 * abs(want)

    def test_zero_matrix_is_singular(self):
        result = generalized_pfaffian(np.zeros((2, 2)))
        assert result.value == 0
        assert result.diagnostics.singular

    def test_rejects_non_conjugate_normal(self):
        with pytest.raises(NotConjugateNormalError):
            generalized_pfaffian([[1.0, 5.0], [0.0, 2.0]])

    @pytest.mark.parametrize(
        "matrix,error,message",
        [
            ([[2.0]], PfUndefinedError, "positive real eigenvalue (odd dimension); the"),
            (np.diag([3.0, 5.0]), PfUndefinedError, "positive real eigenvalue; the"),
            (1e-8 * table_matrix(200), InputError, "|pf(A)| ~ 1e-798 is outside the double range"),
        ],
        ids=["odd-dimension", "positive-real", "out-of-range"],
    )
    def test_errors_are_raised_before_the_cross_check(self, monkeypatch, matrix, error, message):
        # neither det(X) nor the diagnostics' det and apf of A is read
        calls = []
        original = generalized.det_lu
        monkeypatch.setattr(generalized, "det_lu", lambda m: calls.append("det_lu") or original(m))
        for name in ("det", "apf"):
            read = getattr(generalized._Factors, name).fget
            monkeypatch.setattr(
                generalized._Factors,
                name,
                property(lambda f, read=read, n=name: calls.append(n) or read(f)),
            )
        with pytest.raises(error) as info:
            generalized_pfaffian(matrix)
        assert message in str(info.value)
        assert calls == []


class TestSquareIsDeterminant:
    @pytest.mark.parametrize("index", [1, 2, 6, 11, 12])
    def test_on_corpus_samples(self, index):
        matrix = random_conjugate_normal(corpus_spec(index))
        result = generalized_pfaffian(matrix)
        np.testing.assert_allclose(
            result.value**2, result.diagnostics.det, rtol=1e-9
        )
        np.testing.assert_allclose(result.diagnostics.det, det_lu(matrix), rtol=1e-12)


class TestAntisymmetrized:
    def test_matches_polynomial_oracle(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4, 6):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            result = antisymmetrized_pfaffian(g)
            np.testing.assert_allclose(result.value, pf_polynomial(g), rtol=1e-11)
            assert result.method == "antisymmetrized"

    def test_odd_dimension_gives_singular_zero(self):
        result = antisymmetrized_pfaffian(np.eye(3))
        assert result.value == 0
        assert result.diagnostics.singular

    def test_defined_on_non_conjugate_normal_input(self):
        result = antisymmetrized_pfaffian([[1.0, 5.0], [0.0, 2.0]])
        np.testing.assert_allclose(result.value, 2.5)

    def test_runs_no_guard_and_one_determinant(self, monkeypatch):
        calls = []
        original = generalized._lu

        def counted_det(m):
            calls.append(1)
            return original(m)

        def no_guard(m, tol):
            raise AssertionError("apf runs no conjugate-normality test")

        monkeypatch.setattr(generalized, "_lu", counted_det)
        monkeypatch.setattr(normal_form, "_require_conjugate_normal", no_guard)
        monkeypatch.setattr(generalized, "_require_conjugate_normal", no_guard)
        result = antisymmetrized_pfaffian(random_conjugate_normal(corpus_spec(1)))
        assert len(calls) == 1
        assert result.diagnostics.conjugate_normal_residual is None
        assert result.diagnostics.det_antisymmetric == result.value**2

    @pytest.mark.filterwarnings("error")
    def test_subnormal_pivots_leave_det_a_number(self):
        # 2^-shift is no double for a subnormal LU pivot (2^1062 here): a
        # one-step scaling made det nan; the skew part is read off A alone
        matrix = np.array([[1e-320, 1.0], [0.0, 1e-320]])
        result = antisymmetrized_pfaffian(matrix)
        assert result.value == 0.5
        assert not result.diagnostics.singular
        assert result.diagnostics.det == 0
        mantissa, shift = generalized._Factors(matrix).det_parts
        assert 0.25 <= abs(mantissa) < 1.0
        assert abs(math.log2(abs(mantissa)) + shift - 2 * math.log2(1e-320)) < 1e-3


class TestRelationRoute:
    @pytest.mark.parametrize("engine,method", [("parlett-reid", "relation"), ("polynomial", "polynomial")])
    def test_agrees_with_normal_form(self, engine, method):
        matrix = random_conjugate_normal(corpus_spec(201))
        if engine == "polynomial" and matrix.shape[0] > 12:
            matrix = random_conjugate_normal(
                SpectrumSpec(
                    entries=(
                        SpectrumEntry("complex", 0.7 + 0.9j, 1),
                        SpectrumEntry("negative-real", -2.5, 2),
                    ),
                    seed=77,
                )
            )
        reference = generalized_pfaffian(matrix)
        result = generalized_pfaffian_via_relation(matrix, engine=engine)
        assert result.method == method
        np.testing.assert_allclose(result.value, reference.value, rtol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-8, 1e8, 1e155, 1e300])
    def test_two_by_two_example_at_every_scale(self, c):
        # the relation route and apf factor A times a power of two, as pf
        # does: on A itself apf^2 underflowed at 1e-200, and the Gram guard's
        # norm and apf's pivot floor overflowed from 1e154 on
        matrix = c * np.array([[0.0, 1 + 1j], [1 - 1j, 0.0]])
        assert generalized_pfaffian_via_relation(matrix).value == generalized_pfaffian(matrix).value
        assert antisymmetrized_pfaffian(matrix).value == 1j * c

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_apf_out_of_range_is_an_input_error(self, c):
        # apf(c (J + J)) = c^2 is no double: the out-of-range error, not 0
        matrix = c * np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(InputError, match=r"\|apf\(A\)\| ~ 1e[-]?400 is outside"):
            antisymmetrized_pfaffian(matrix)

    def test_rejects_unknown_engine(self):
        with pytest.raises(InputError):
            generalized_pfaffian_via_relation(np.zeros((2, 2)), engine="qr")

    @pytest.mark.parametrize("engine", ["parlett-reid", "polynomial"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_conjugate_normal(
                SpectrumSpec(
                    (SpectrumEntry("complex", 1 + 1j), SpectrumEntry("zero", 0.0, 2)), seed=3
                )
            ),
            lambda: np.zeros((2, 2)),
        ],
        ids=["zero-pair", "zero-matrix"],
    )
    def test_singular_input_gives_zero_as_pf_does(self, build, engine):
        # singularity comes first, from A's LU: the skew part is singular
        # too, which without A's decision would make the relation undefined
        matrix = build()
        want = generalized_pfaffian(matrix)
        result = generalized_pfaffian_via_relation(matrix, engine=engine)
        assert want.value == result.value == 0
        assert want.diagnostics.singular and result.diagnostics.singular
        assert result.diagnostics.det == want.diagnostics.det
        assert result.diagnostics.cross_check_residual is None

    def test_singular_antisymmetric_part_is_undefined(self):
        with pytest.raises(PfUndefinedError):
            generalized_pfaffian_via_relation(np.diag([3.0, 5.0]))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_positive_real_eigenvalue_is_undefined_not_rejected(self, scale):
        # the antisymmetric part is exactly singular: apf must be an exact 0
        # (not rounding noise, whose ratio test would reject the
        # conjugate-normal input with exit 3), so the relation is undefined
        for seed in range(4):
            spec = SpectrumSpec(
                entries=(
                    SpectrumEntry("positive-real", 3.0, 2),
                    SpectrumEntry("complex", 1.0 + 2.0j, 1),
                ),
                seed=seed,
            )
            matrix = scale * random_conjugate_normal(spec)
            with pytest.raises(PfUndefinedError):
                generalized_pfaffian_via_relation(matrix)
            apf = antisymmetrized_pfaffian(matrix)
            assert apf.value == 0
            assert apf.diagnostics.singular


    def test_positive_real_ratio_off_conjugate_normal_input(self):
        # det/apf^2 is positive real on every conjugate-normal matrix, but not
        # only there: this one has ratio 8/9, and the guard rejects it
        matrix = np.array([[0.0, 2.0], [-1.0, 0.0]])
        apf = antisymmetrized_pfaffian(matrix)
        ratio = apf.diagnostics.det / apf.value**2
        assert ratio.real == pytest.approx(8 / 9, rel=1e-15)
        assert ratio.imag == 0
        with pytest.raises(NotConjugateNormalError) as info:
            generalized_pfaffian_via_relation(matrix)
        assert info.value.residual == pytest.approx(0.6 * math.sqrt(2), rel=1e-12)
        assert str(info.value) == (
            "matrix is not conjugate-normal: residual 8.485e-01 exceeds 1.0e-10"
        )

    def test_ratio_that_is_not_positive_real(self):
        with pytest.raises(NotConjugateNormalError) as info:
            generalized._relation_value(-1 + 0j, 1 + 0j)
        assert str(info.value) == (
            "det(A)/det((A - A^T)/2) = -1+0j is not positive real; the input is "
            "not conjugate-normal (the ratio is guaranteed positive for "
            "conjugate-normal matrices)"
        )

    @pytest.mark.parametrize("c", [1e-200, 1.0, 1e200])
    def test_ratio_is_reported_at_a_scale(self, c):
        # the relation runs on mantissas; the message reports A's own
        # det(A)/apf(A)^2 = -1 at every scale.  The guard, loosened, lets the
        # non-conjugate-normal input through
        loose = linalg.Tolerances(eig_residual=10.0, cluster=10.0)
        with pytest.raises(NotConjugateNormalError, match=r"= -1\+0j is not positive real"):
            generalized_pfaffian_via_relation(c * np.array([[1.0, 1.0], [-1.0, -2.0]]), loose)


def near_axis_pair(radius, seed):
    """A conjugate-normal 4x4 matrix whose Lambda holds 1+2i and a complex
    pair of modulus ``radius`` at angle 1 (and their conjugates)."""
    spec = SpectrumSpec(
        (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("complex", cmath.rect(radius, 1.0))),
        seed=seed,
    )
    return random_conjugate_normal(spec)


class TestNearAxisComplexPair:
    """A complex pair with ``|omega - conj(omega)|`` of 5e-8 to 2e-6 times
    ``||Lambda||`` has Lambda-eigenvectors fixed only to about ``eps ||Lambda|| /
    |omega - conj(omega)|``, so a normal form built from them fails its
    unitarity check (exit 5).  The Pfaffian and the normal form read the pair
    from A's singular values instead, whose resolution is relative to
    ``||A||``, not ``||A||^2``: the small pair is a group of its own."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("radius", [1e-7, 3e-7, 1e-6, 3e-6, 1e-5])
    def test_small_pair_gives_the_pfaffian(self, radius, seed):
        matrix = near_axis_pair(radius, seed)
        value = generalized_pfaffian(matrix).value
        np.testing.assert_allclose(value**2, np.linalg.det(matrix), rtol=1e-6)
        relation = generalized_pfaffian_via_relation(matrix).value
        np.testing.assert_allclose(value, relation, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("radius", [1e-7, 3e-7, 1e-6, 3e-6, 1e-5])
    def test_small_pair_gives_the_normal_form(self, radius, seed):
        matrix = near_axis_pair(radius, seed)
        nf = wigner_normal_form(matrix)
        big, small = nf.blocks
        assert abs(big.s - cmath.sqrt(1 + 2j)) <= 1e-14
        want = cmath.sqrt(cmath.rect(radius, 1.0))
        assert abs(small.s - want) <= 1e-11 * abs(want)
        # pf = i^(n^2) det(U) prod |s| with n = 2
        value = generalized_pfaffian(matrix).value
        assert abs(nf.det_u * abs(big.s) * abs(small.s) - value) <= 1e-10 * abs(value)


def real_pair_spec(omega, delta):
    """Lambda-eigenvalues omega and omega (1 + delta), each of multiplicity 2,
    next to the complex pair 1+2i."""
    kind = "negative-real" if omega < 0 else "positive-real"
    return SpectrumSpec(
        (
            SpectrumEntry("complex", 1 + 2j),
            SpectrumEntry(kind, omega, 2),
            SpectrumEntry(kind, omega * (1 + delta), 2),
        ),
        seed=1,
    )


def assert_relation_value(matrix, rtol):
    value = generalized_pfaffian(matrix).value
    relation = generalized_pfaffian_via_relation(matrix).value
    assert abs(value - relation) <= rtol * abs(relation)


def oracle_pfaffian(spec):
    """``i^(n^2) det(U) prod |s_k|`` of a spectrum of complex pairs, with
    det(U) from the slogdet of the generator's U, as the benchmark's oracle:
    no code in common with the Pfaffian under test."""
    sign, log_det = np.linalg.slogdet(random_unitary(spec.dimension, spec.seed))
    n = spec.dimension // 2
    log_abs = log_det + sum(0.5 * e.multiplicity * math.log(abs(e.omega)) for e in spec.entries)
    return 1j ** (n * n % 4) * complex(sign) * math.exp(log_abs)


def near_axis_oracle_cases():
    """(angle, side, seed, one_group) over the near-axis sweep from
    10^-9.5 on; the pair alone is one group.  At seed 3 the two-group
    input's pair at 10^-9.5 is within its ratio's resolution of a positive
    sigma: its w^2 fails RATIO_IMAG_RTOL, and it exits 4 as at the parent."""
    cases = []
    for angle in np.logspace(-9.5, -4, 12).tolist():
        for side, seed, one_group in itertools.product((1, -1), (2, 3), (False, True)):
            marks = ()
            if (side, seed, one_group) == (1, 3, False) and angle < 1e-9:
                marks = pytest.mark.xfail(
                    strict=True, raises=PfUndefinedError, reason="w^2 not positive real"
                )
            cases.append(pytest.param(angle, side, seed, one_group, marks=marks))
    return cases


def wnf_window(still_open, reason):
    """A strict xfail mark on the ``wigner_normal_form`` inputs of a standing
    window that still exit 5, or no mark."""
    if not still_open:
        return ()
    return pytest.mark.xfail(strict=True, raises=ReconstructionError, reason=reason)


class TestStandingDefectWindows:
    """The inputs on which the cluster pipeline on Lambda exits 5 (the standing defects:
    near-degenerate real eigenvalues, pairs near the real axis, eigenvalues
    under the zero floor ``cluster ||A||^2``).  The Pfaffian gives the value
    of the determinant-ratio relation there, or exits 4 for a positive
    sigma.  ``wigner_normal_form`` takes them from A's singular-value groups
    and gives the normal form wherever its one threshold classes the
    spectrum as it is; where that threshold merges two eigenvalues into one
    real cluster, or puts a small one under the zero floor, the blocks
    cannot reconstruct A and it still exits 5 (strict xfails)."""

    @pytest.mark.parametrize("omega", [2.0, -2.0])
    @pytest.mark.parametrize(
        "delta",
        [
            pytest.param(
                delta,
                marks=wnf_window(6e-9 < delta < 3e-7, "omega and omega (1 + delta) merge"),
            )
            for delta in np.logspace(-10, -5, 26).tolist()
        ],
    )
    def test_near_degenerate_real_eigenvalues_in_the_normal_form(self, delta, omega):
        spec = real_pair_spec(omega, delta)
        nf = wigner_normal_form(random_conjugate_normal(spec))
        assert len(nf.blocks) == (2 if delta < 6e-9 else 3)

    @pytest.mark.parametrize("side", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "angle",
        [
            pytest.param(
                angle, marks=wnf_window(3e-9 < angle < 2e-8, "the pair merges into a real cluster")
            )
            for angle in np.logspace(-12, -4, 17).tolist()
        ],
    )
    def test_pair_near_the_real_axis_in_the_normal_form(self, angle, side):
        # 2 |Im omega| > t = 1e-8 ||A||^2 from angle 2.1e-8 on: a complex pair,
        # read from its 2 x 2 block at the scale of each part; below it a real
        # cluster of two, which reconstructs A to about angle
        omega = side * 2.0 * cmath.exp(1j * side * angle)
        entries = (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("complex", omega))
        nf = wigner_normal_form(random_conjugate_normal(SpectrumSpec(entries, seed=2)))
        if angle > 2e-8:
            assert abs(nf.blocks[1].s - cmath.sqrt(omega)) <= 1e-13
        else:
            assert len(nf.blocks) == 2

    @pytest.mark.parametrize("delta", np.logspace(-10, -5, 26).tolist())
    def test_near_degenerate_negative_real_eigenvalues(self, delta):
        assert_relation_value(random_conjugate_normal(real_pair_spec(-2.0, delta)), 1e-12)

    @pytest.mark.parametrize("delta", np.logspace(-10, -5, 26).tolist())
    def test_near_degenerate_positive_real_eigenvalues(self, delta):
        with pytest.raises(PfUndefinedError, match="positive real eigenvalue; the"):
            generalized_pfaffian(random_conjugate_normal(real_pair_spec(2.0, delta)))

    @pytest.mark.parametrize("side", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize("angle", np.logspace(-12, -4, 17).tolist())
    def test_pair_near_the_real_axis(self, angle, side):
        omega = side * 2.0 * cmath.exp(1j * side * angle)
        entries = (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("complex", omega))
        matrix = random_conjugate_normal(SpectrumSpec(entries, seed=2))
        try:
            value = generalized_pfaffian(matrix).value
        except PfUndefinedError:
            # within the resolution of the pair's ratio it is a positive sigma
            assert side == 1 and angle < 1e-9
            return
        relation = generalized_pfaffian_via_relation(matrix).value
        # both routes' phase is good to eps times the pair's factor |s| / Im s
        s = cmath.sqrt(omega)
        factor = abs(s) / abs(s.imag)
        assert abs(value - relation) <= (1e-13 + 10 * np.finfo(float).eps * factor) * abs(relation)

    @pytest.mark.parametrize("angle, side, seed, one_group", near_axis_oracle_cases())
    def test_pair_near_the_real_axis_meets_the_oracle(self, angle, side, seed, one_group):
        # pf takes its phase from sqrt(det) of the pair's block, which is
        # well conditioned, and only its sign from the pair's apf
        omega = side * 2.0 * cmath.exp(1j * side * angle)
        entries = (SpectrumEntry("complex", omega),)
        if not one_group:
            entries = (SpectrumEntry("complex", 1 + 2j),) + entries
        spec = SpectrumSpec(entries, seed=seed)
        value = generalized_pfaffian(random_conjugate_normal(spec)).value
        want = oracle_pfaffian(spec)
        assert abs(value - want) <= 1e-12 * abs(want)

    def test_underflowing_apf_squared_meets_the_oracle(self):
        # one group of 40 pairs at angle 1e-4 from the axis: its block's apf
        # is about 1e-172, whose square underflows, so its phase is read
        # from the apf of the rescaled skew part
        spec = SpectrumSpec((SpectrumEntry("complex", 4 * cmath.exp(1e-4j), 40),), seed=1)
        value = generalized_pfaffian(random_conjugate_normal(spec)).value
        want = oracle_pfaffian(spec)
        assert abs(value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "entry",
        [
            SpectrumEntry("negative-real", -5e-8, 2),
            SpectrumEntry("complex", 9e-8 + 6e-8j),
        ],
        ids=["negative-real", "complex"],
    )
    def test_small_block_under_the_zero_floor(self, entry):
        base = (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("negative-real", -3.0, 2))
        matrix = random_conjugate_normal(SpectrumSpec(base + (entry,), seed=1))
        assert_relation_value(matrix, 1e-10)

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param(
                SpectrumEntry("negative-real", -5e-8, 2),
                marks=wnf_window(True, "the pair is under the zero floor"),
            ),
            pytest.param(
                SpectrumEntry("positive-real", 5e-8),
                marks=wnf_window(True, "sigma is under the zero floor"),
            ),
            SpectrumEntry("complex", 9e-8 + 6e-8j),
        ],
        ids=["negative-real", "positive-real", "complex"],
    )
    def test_small_block_under_the_zero_floor_in_the_normal_form(self, entry):
        # |omega| of the complex pair is just above t = 1e-8 ||A||^2: a pair
        base = (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("negative-real", -3.0, 2))
        spec = SpectrumSpec(base + (entry,), seed=1)
        nf = wigner_normal_form(random_conjugate_normal(spec))
        assert abs(nf.blocks[2].s - cmath.sqrt(entry.omega)) <= 1e-13

    def test_small_positive_sigma_under_the_zero_floor_is_undefined(self):
        base = (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("negative-real", -3.0, 2))
        entry = SpectrumEntry("positive-real", 5e-8)
        matrix = random_conjugate_normal(SpectrumSpec(base + (entry,), seed=1))
        with pytest.raises(PfUndefinedError, match=r"eigenvalue \(odd dimension\)"):
            generalized_pfaffian(matrix)


class TestDerivative:
    def test_matches_central_differences(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("complex", 0.8 + 1.1j, 1),
                SpectrumEntry("negative-real", -1.7, 2),
            ),
            seed=4,
        )
        a0 = random_conjugate_normal(spec)
        rng = np.random.default_rng(40)
        g = rng.normal(size=a0.shape) + 1j * rng.normal(size=a0.shape)
        h = (g + g.conj().T) / 2.0

        def path(x):
            # A(x) = G A0 G^T with unitary G = exp(i x H) stays
            # conjugate-normal for every x
            from scipy.linalg import expm

            gx = expm(1j * x * h)
            return gx @ a0 @ gx.T

        da = 1j * (h @ a0 + a0 @ h.T)
        step = 1e-5
        numeric = (
            generalized_pfaffian(path(step)).value
            - generalized_pfaffian(path(-step)).value
        ) / (2.0 * step)
        analytic = pfaffian_derivative(a0, da)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            pfaffian_derivative(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_singular_matrix_rejected(self):
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        singular = np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])
        with pytest.raises(PfUndefinedError, match="requires a non-singular matrix"):
            pfaffian_derivative(singular, np.eye(4))


class TestPfResultValidation:
    def _diag(self, singular):
        return PfDiagnostics(1.0 + 0j, 1.0 + 0j, 0.0, singular, None)

    def test_rejects_unknown_method(self):
        with pytest.raises(InputError):
            PfResult(1.0 + 0j, "guess", self._diag(False))

    def test_singular_result_must_be_zero(self):
        with pytest.raises(InputError):
            PfResult(1.0 + 0j, "normal-form", self._diag(True))
        PfResult(0j, "normal-form", self._diag(True))


EXPECTED_CHECKS = [
    "square-det",
    "scale",
    "transpose",
    "adjoint",
    "inverse",
    "direct-sum",
    "tensor",
    "row-swap",
    "unitary-congruence",
    "phase",
]


class TestIdentityReport:
    def test_full_battery_passes(self):
        matrix = random_conjugate_normal(corpus_spec(14))
        report = identity_report(matrix)
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        assert report.passed
        for check in report.checks:
            assert check.residual <= check.threshold

    def test_battery_with_odd_tensor_partner(self):
        matrix = random_conjugate_normal(
            SpectrumSpec(entries=(SpectrumEntry("complex", 1.0 + 0.5j, 1),), seed=6)
        )
        b3 = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.25], [0.0, 0.25, 1.5]])
        report = identity_report(matrix, b=b3)
        assert report.passed

    def test_scalar_lambda_variants(self):
        matrix = random_conjugate_normal(corpus_spec(2))
        assert identity_report(matrix, lam=-0.7 + 0.3j).passed

    def test_check_lookup(self):
        matrix = jump_matrix(1.0)
        report = identity_report(matrix)
        assert report.check("scale").passed
        with pytest.raises(KeyError):
            report.check("unknown")

    def test_impossible_threshold_reports_failures(self, monkeypatch):
        monkeypatch.setattr(generalized, "IDENTITY_THRESHOLD", 1e-300)
        matrix = random_conjugate_normal(corpus_spec(8))
        report = identity_report(matrix)
        assert not report.passed
        # the phase row keeps its own floor
        assert report.check("phase").threshold == generalized.PHASE_THRESHOLD

    def test_one_skew_pfaffian_per_battery(self, monkeypatch, svd_route):
        # on the SVD route (A - A^T)/2 is factored once: corpus matrix 14 is
        # one 2x2 group, whose block is A itself, and the base call's
        # diagnostics and the phase row reuse that apf.  A derived row whose
        # matrix is one group factors that matrix's skew part as its block,
        # and every row is but the tensor row, whose kron with B splits into
        # pairs: 1 + 7
        calls = []
        original = generalized._parlett_reid
        monkeypatch.setattr(
            generalized, "_parlett_reid", lambda m, **kw: calls.append(1) or original(m, **kw)
        )
        identity_report(random_conjugate_normal(corpus_spec(14)))
        assert len(calls) == 8

    def test_negative_congruence_seed_rejected_before_the_battery(self, monkeypatch):
        calls = []
        original = generalized.generalized_pfaffian

        def counted(m, tol):
            calls.append(1)
            return original(m, tol)

        monkeypatch.setattr(generalized, "generalized_pfaffian", counted)
        with pytest.raises(InputError, match="seed must be >= 0"):
            identity_report(random_conjugate_normal(corpus_spec(14)), congruence_seed=-1)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_lam_rejected_before_any_pipeline(self, monkeypatch, lam):
        def no_pipeline(m, tol):
            raise AssertionError("a non-finite lam runs no pipeline")

        monkeypatch.setattr(generalized, "generalized_pfaffian", no_pipeline)
        with pytest.raises(InputError, match="lam must be finite"):
            identity_report(random_conjugate_normal(corpus_spec(14)), lam=lam)

    def test_rejects_asymmetric_tensor_partner(self):
        with pytest.raises(InputError):
            identity_report(jump_matrix(1.0), b=[[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_singular_matrix(self):
        with pytest.raises(PfUndefinedError):
            identity_report(np.zeros((2, 2)))

    def test_adjoint_and_inverse_signs_on_hand_example(self):
        # the 2x2 Hermitian example equals its own adjoint, which pins the
        # (-1)^n factor: pf = i sqrt(2), so conj(pf) alone would be wrong
        matrix = jump_matrix(1.0)
        pf = generalized_pfaffian(matrix).value
        pf_adj = generalized_pfaffian(matrix.conj().T).value
        np.testing.assert_allclose(pf_adj, -np.conj(pf), atol=1e-13)
        pf_inv = generalized_pfaffian(np.linalg.inv(matrix)).value
        np.testing.assert_allclose(pf_inv, -1.0 / pf, atol=1e-13)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_derived_rows_take_the_full_pipeline_value(self, scale):
        for index in range(0, CORPUS_SIZE, 20):
            assert_rows_take_the_full_pipeline_value(
                scale * random_conjugate_normal(corpus_spec(index))
            )

    def test_derived_rows_take_the_full_pipeline_value_with_b_and_lam(self):
        b3 = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.25], [0.0, 0.25, 1.5]])
        assert_rows_take_the_full_pipeline_value(
            random_conjugate_normal(corpus_spec(2)), b=b3, lam=-0.7 + 0.3j
        )


def assert_rows_take_the_full_pipeline_value(matrix, **kwargs):
    """Every value the battery takes from the normal form alone (the base
    call's and the eight derived rows') has the bits of
    ``generalized_pfaffian(x).value`` on the same input."""
    seen = []
    original = generalized._normal_form_pfaffian

    def recording(x, tol):
        residual, factors, value = original(x, tol)
        seen.append((np.array(x), value))
        return residual, factors, value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generalized, "_normal_form_pfaffian", recording)
        identity_report(matrix, **kwargs)
    assert len(seen) == 9
    for x, value in seen:
        full = generalized_pfaffian(x).value
        assert (value.real.hex(), value.imag.hex()) == (full.real.hex(), full.imag.hex())


class TestPassBudget:
    """Every O(n^3) pass of one call, counted through the bindings the
    pipeline calls: a change that adds a pass changes this test."""

    @pytest.fixture
    def passes(self, monkeypatch):
        counts = dict.fromkeys(("svd", "eigh", "lu_factor", "zherk", "skew"), 0)

        def counting(name, f):
            def counted(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return counted

        for module, attr, name in (
            (scipy.linalg, "svd", "svd"),
            (scipy.linalg, "eigh", "eigh"),
            (scipy.linalg, "lu_factor", "lu_factor"),
            (scipy.linalg.blas, "zherk", "zherk"),
            (generalized, "_parlett_reid", "skew"),
        ):
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        return counts

    def test_passes_per_call_and_per_battery(self, passes, svd_route):
        matrix = random_conjugate_normal(corpus_spec(2))  # 14 groups of two
        generalized_pfaffian(matrix)
        # on the SVD route: the SVD, which also gives the guard; det(X) and
        # det(A); the unitarity witness's Gram triangle; the cross-check's apf
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 2, "zherk": 1, "skew": 1}
        passes.update(dict.fromkeys(passes, 0))
        identity_report(matrix)
        # nine SVDs, each with its det(X) and one Gram triangle; the
        # direct-sum row doubles every singular value, and its 14 groups of
        # four take one LU of their stack and no skew kernel; then det(A),
        # det(B) and det(Q), and the apf the phase row reads
        assert passes == {"svd": 9, "eigh": 0, "lu_factor": 13, "zherk": 9, "skew": 1}

    def test_well_conditioned_input_takes_no_svd(self, passes, monkeypatch):
        matrix = random_conjugate_normal(corpus_spec(2))  # 14 groups of two
        generalized_pfaffian(matrix)
        # the guard's two Gram triangles; the LU of A with its condition
        # estimate; one skew kernel, whose factors give (A - A^T)/2 its
        # estimate.  The diagnostics reuse its apf and the LU's det
        assert passes == {"svd": 0, "eigh": 0, "lu_factor": 1, "zherk": 2, "skew": 1}
        passes.update(dict.fromkeys(passes, 0))
        identity_report(matrix)
        # nine such calls, then det(B) and det(Q)
        assert passes == {"svd": 0, "eigh": 0, "lu_factor": 11, "zherk": 18, "skew": 9}
        passes.update(dict.fromkeys(passes, 0))
        # the solve takes the fast path's LU: nothing else factors A
        monkeypatch.setattr(np.linalg, "solve", None)
        monkeypatch.setattr(np.linalg, "inv", None)
        pfaffian_derivative(matrix, np.eye(matrix.shape[0]))
        assert passes == {"svd": 0, "eigh": 0, "lu_factor": 1, "zherk": 2, "skew": 1}

    def test_direct_sum_rows_run_half_size_passes(self, monkeypatch):
        # the battery at n = 100 on the fast path, as the identities workload
        # runs it.  The direct-sum and tensor rows are direct sums of two
        # copies of A up to a symmetric permutation: each runs two kernels
        # and four Gram triangles of size 100, and its LU of size 200 whole.
        # Every other row runs one kernel and two triangles of size 100
        rng = np.random.default_rng(100)
        omegas = np.exp(rng.uniform(-1.0, 1.0, 50)) * np.exp(1j * rng.uniform(0.2, 2.9, 50))
        spec = SpectrumSpec(tuple(SpectrumEntry("complex", complex(w)) for w in omegas), seed=1)
        sizes = {"zherk": [], "skew": [], "lu_factor": []}

        def sizing(name, f):
            def sized(*args, **kwargs):
                sizes[name].append(len(args[1] if name == "zherk" else args[0]))
                return f(*args, **kwargs)

            return sized

        for module, attr in (
            (scipy.linalg.blas, "zherk"),
            (generalized, "_parlett_reid"),
            (scipy.linalg, "lu_factor"),
        ):
            name = "skew" if attr == "_parlett_reid" else attr
            monkeypatch.setattr(module, attr, sizing(name, getattr(module, attr)))
        report = identity_report(random_conjugate_normal(spec))
        assert report.passed
        assert sizes["skew"] == [100] * 11
        assert sizes["zherk"] == [100] * 22
        # nine pipelines, det(B) and det(Q)
        assert sorted(sizes["lu_factor"]) == [2] + [100] * 8 + [200] * 2

    @pytest.mark.parametrize(
        "entries, seed, outcome",
        [
            # a pair 1e-8 rad from the real axis: the skew part's condition
            # estimate declines, and the SVD route gives the value
            (
                (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("complex", 2 * cmath.exp(1e-8j))),
                2,
                None,
            ),
            # one group whose pairs all sit 1e-13 rad from the axis: the skew
            # part is a multiple of a unitary matrix, well conditioned on its
            # own but tiny against A, so the estimate taken against ||A||_1
            # declines, and the SVD route finds a positive sigma
            ((SpectrumEntry("complex", 2 * cmath.exp(1e-13j), 2),), 2, PfUndefinedError),
        ],
        ids=["near-axis", "one-group-at-1e-13"],
    )
    def test_ill_conditioned_skew_part_takes_the_svd(self, passes, entries, seed, outcome):
        matrix = random_conjugate_normal(SpectrumSpec(entries, seed=seed))
        if outcome is None:
            generalized_pfaffian(matrix)
        else:
            with pytest.raises(outcome):
                generalized_pfaffian(matrix)
        # the fast path's two Gram triangles, its LU of A and its skew
        # kernel, whose factors' estimate declines; then the SVD, whose guard
        # reads W.  Two groups: the unitarity witness's Gram triangle and
        # det(X); the cross-check reuses the fast path's det(A) and apf.  One
        # group: its block is A, whose det and apf the fast path gave, and the
        # positive sigma raises
        assert passes == {
            "svd": 1,
            "eigh": 0,
            "lu_factor": 2 if outcome is None else 1,
            "zherk": 3 if outcome is None else 2,
            "skew": 1,
        }

    def test_group_of_four_takes_one_lu_and_no_skew_pfaffian(self, passes, svd_route):
        matrix = random_conjugate_normal(corpus_spec(6))  # a complex pair of multiplicity 2
        generalized_pfaffian(matrix)
        # the group of four's apf is its three-term matching sum; the one
        # skew kernel is the cross-check's
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 3, "zherk": 1, "skew": 1}

    def test_groups_of_one_size_take_one_lu(self, passes, svd_route):
        # groups [2, 6, 6]: the pair in closed form, both blocks of six from
        # one LU of their stack and one skew kernel each
        spec = SpectrumSpec(
            (
                SpectrumEntry("complex", 3 + 1j, 1),
                SpectrumEntry("negative-real", -1.5, 6),
                SpectrumEntry("negative-real", -0.4, 6),
            ),
            seed=4,
        )
        generalized_pfaffian(random_conjugate_normal(spec))
        # det(X), the stack and det(A); the cross-check's apf is the third
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 3, "zherk": 1, "skew": 3}

    def test_single_group_takes_the_normal_form(self, passes, svd_route):
        # both singular values of a 2x2 pair are equal: the one group spans A,
        # so X = 1 and its block is A, factored once by one LU and one skew
        # kernel whose det and apf the diagnostics reuse; the guard comes from
        # the SVD, and there is no unitarity witness
        generalized_pfaffian(random_conjugate_normal(corpus_spec(14)))
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 1, "zherk": 0, "skew": 1}

    def test_single_group_of_four_is_factored_once(self, passes, svd_route):
        # a complex pair of multiplicity 2: the one group spans A, as above
        spec = SpectrumSpec((SpectrumEntry("complex", 1 + 1j, 2),), seed=5)
        generalized_pfaffian(random_conjugate_normal(spec))
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 1, "zherk": 0, "skew": 1}

    def test_normal_form_of_groups_forms_no_lambda(self, passes, monkeypatch):
        # the degenerate workload's shape at n = 40: a negative-real and a
        # positive-real group of 16 and four pairs, each factored at its own
        # size; nothing forms Lambda, clusters its spectrum or takes the
        # guard's Gram triangles
        for name in ("_clusters", "_require_conjugate_normal"):
            monkeypatch.setattr(normal_form, name, None)
        omegas = (1 + 2j, -0.5 + 1j, 2.5 + 0.5j, -3 + 0.2j)
        spec = SpectrumSpec(
            (SpectrumEntry("negative-real", -2.0, 16), SpectrumEntry("positive-real", 0.7, 16))
            + tuple(SpectrumEntry("complex", omega) for omega in omegas),
            seed=3,
        )
        nf = wigner_normal_form(random_conjugate_normal(spec))
        assert [b.multiplicity for b in nf.blocks] == [1, 1, 1, 8, 1, 16]
        # the SVD, which also gives the guard; U's unitarity check
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 0, "zherk": 1, "skew": 0}

    def test_normal_form_of_one_group_takes_no_svd(self, passes):
        # a multiple of a unitary matrix, whose column norms agree: its one
        # group's Lambda eigensolve, the guard's two Gram triangles and U's
        # unitarity
        spec = SpectrumSpec((SpectrumEntry("complex", 1 + 1j, 20),), seed=3)
        wigner_normal_form(random_conjugate_normal(spec))
        assert passes == {"svd": 0, "eigh": 1, "lu_factor": 0, "zherk": 3, "skew": 0}

    def test_derivative_runs_one_normal_form_and_no_diagnostics(self, passes, svd_route):
        matrix = random_conjugate_normal(corpus_spec(2))
        pfaffian_derivative(matrix, np.eye(matrix.shape[0]))
        # the SVD, which also gives the guard; det(X); the unitarity
        # witness's Gram triangle; no apf, and one LU of A for the solve
        # (where the fast path runs, its LU serves)
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 2, "zherk": 1, "skew": 0}

    @pytest.mark.parametrize(
        "index, counts",
        [(2, [1, 3, 2]), (14, [1, 3, 2])],
        ids=["groups", "single-group"],
    )
    def test_each_matrix_is_checked_where_it_enters(self, monkeypatch, svd_route, index, counts):
        # as_square_matrix reads as_matrix as a module global, so the spy
        # sees every check; the kernels, the skew kernel among them, take the
        # pipeline's arrays as given.  A call checks its entry; a battery its
        # entry, one call and B; the derivative A and dA, with groups or one
        kernels = {"det_lu", "eig_normal", "unitarity_defect"}
        callers = []
        original = linalg.as_matrix

        def counted(a):
            callers.append({frame.name for frame in traceback.extract_stack()} & kernels)
            return original(a)

        monkeypatch.setattr(linalg, "as_matrix", counted)
        matrix = random_conjugate_normal(corpus_spec(index))
        seen = []
        for call in (
            lambda: generalized_pfaffian(matrix),
            lambda: identity_report(matrix),
            lambda: pfaffian_derivative(matrix, np.eye(matrix.shape[0])),
        ):
            callers.clear()
            call()
            assert not any(callers)
            seen.append(len(callers))
        assert seen == counts


def per_block_value(matrix):
    """Oracle of the stacked blocks: the value of a non-singular input, each
    group's block factored on its own (a pair's determinant in closed form,
    any other's by its own LU) with its own Parlett-Reid apf, and the values
    multiplied as the kernel multiplies them: the pairs first, then the
    other blocks in the order of d."""
    x, d, yh = scipy.linalg.svd(matrix, lapack_driver="gesdd", check_finite=False)
    c = yh @ x.conj()
    c *= d[:, None]
    stops = np.flatnonzero(d[:-1] - d[1:] > 1e-6 * d[0]) + 1
    bounds = list(zip([0, *stops.tolist()], [*stops.tolist(), len(d)]))
    bounds.sort(key=lambda bound: bound[1] - bound[0] != 2)
    dets, apfs, exponent = [], [], 0
    for lo, hi in bounds:
        e = int(generalized._near_exponent(d[lo]))
        block = c[lo:hi, lo:hi] * math.ldexp(1.0, -e)
        if hi - lo == 2:
            dets.append(block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0])
        else:
            dets.append(det_lu(block))
        apfs.append(pf_skew_parlett_reid((block - block.T) / 2.0))
        exponent += e * (hi - lo) // 2
    mantissa = 1 + 0j
    for value in generalized._relation_value(dets, apfs).tolist():
        mantissa *= value
        _, e = math.frexp(abs(mantissa))
        mantissa = complex(math.ldexp(mantissa.real, -e), math.ldexp(mantissa.imag, -e))
        exponent += e
    return generalized._ldexp(mantissa * det_lu(x), exponent)


@pytest.mark.usefixtures("svd_route")
class TestGroupKernel:
    """The singular-value group kernel behind every Pfaffian value the fast
    path declines, pinned on inputs the fast path would otherwise serve."""

    def test_gesdd_failure_falls_back_to_gesvd(self, monkeypatch):
        matrix = random_conjugate_normal(corpus_spec(2))
        default = generalized_pfaffian(matrix).value
        svd = scipy.linalg.svd
        drivers = []

        def failing(a, *args, lapack_driver, **kwargs):
            drivers.append(lapack_driver)
            if lapack_driver == "gesdd":
                raise scipy.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, lapack_driver=lapack_driver, **kwargs)

        def gesvd_only(a, *args, lapack_driver, **kwargs):
            return svd(a, *args, lapack_driver="gesvd", **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg, "svd", failing)
            value = generalized_pfaffian(matrix).value
        assert drivers == ["gesdd", "gesvd"]
        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg, "svd", gesvd_only)
            want = generalized_pfaffian(matrix).value
        assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert abs(value - default) <= 1e-13 * abs(default)

    def test_kramers_degenerate_input_keeps_its_value_bit_for_bit(self):
        # every complex pair at multiplicity 2, n = 200: 50 groups of four,
        # factored as one stack, give the per-block loop's value bit for bit
        rng = np.random.default_rng(23)
        omegas = np.exp(rng.uniform(-0.5, 0.5, 50)) * np.exp(
            1j * rng.uniform(0.1, math.pi - 0.1, 50)
        )
        spec = SpectrumSpec(tuple(SpectrumEntry("complex", complex(w), 2) for w in omegas), seed=23)
        matrix = random_conjugate_normal(spec)
        value = generalized_pfaffian(matrix).value
        want = per_block_value(matrix)
        assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize(
        "entries, sizes",
        [
            (
                (
                    SpectrumEntry("complex", 3 + 1j, 1),
                    SpectrumEntry("complex", 0.5 + 2j, 2),
                    SpectrumEntry("negative-real", -1.5, 6),
                    SpectrumEntry("complex", -0.4 + 0.3j, 2),
                ),
                [2, 4, 6, 4],
            ),
            (
                (
                    SpectrumEntry("negative-real", -2.5, 6),
                    SpectrumEntry("complex", 0.5 + 2j, 2),
                    SpectrumEntry("negative-real", -0.4, 8),
                    SpectrumEntry("complex", -0.3 + 0.2j, 1),
                    SpectrumEntry("negative-real", -0.1, 6),
                ),
                [6, 4, 8, 2, 6],
            ),
        ],
        ids=["2-4-6-4", "6-4-8-2-6"],
    )
    def test_groups_of_every_size_keep_their_order(self, entries, sizes):
        # the blocks of each size, one stack per size, multiply as the
        # per-block oracle does: the pairs first, then the rest in the order of d
        matrix = random_conjugate_normal(SpectrumSpec(entries, seed=4))
        d = scipy.linalg.svdvals(matrix)
        stops = np.flatnonzero(d[:-1] - d[1:] > 1e-6 * d[0]) + 1
        assert np.diff(np.concatenate(([0], stops, [len(d)]))).tolist() == sizes
        value = generalized_pfaffian(matrix).value
        want = per_block_value(matrix)
        assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex())
        want = generalized_pfaffian_via_relation(matrix).value
        assert abs(value - want) <= 1e-13 * abs(want)

    def test_flagged_group_of_four_alone_is_checked(self, monkeypatch):
        # a positive-sigma group of four beside a pair: the stacked floor test
        # flags it, and only it reaches the checked apf, which raises
        flagged = []
        original = generalized._checked_apf
        monkeypatch.setattr(
            generalized,
            "_checked_apf",
            lambda skew, *args: flagged.append(skew.shape) or original(skew, *args),
        )
        core = scipy.linalg.block_diag(3.0 * np.eye(4), [[0.0, 1.0], [-1.0, 0.0]])
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal(core.shape))
        with pytest.raises(PfUndefinedError, match="eigenvalue; the"):
            generalized_pfaffian(q @ core @ q.T)
        assert flagged == [(4, 4)]

    @pytest.mark.parametrize("pairs", [100, 150])
    def test_out_of_range_apf_takes_its_phase_without_a_second_kernel(self, monkeypatch, pairs):
        # one group spans A and its apf^2 underflows at the block's scale:
        # its phase comes from the mantissa A's factors already hold, so the
        # kernel runs once, and the value keeps the bits that a second run
        # on the block's skew part gives
        spec = SpectrumSpec((SpectrumEntry("complex", 2 * cmath.exp(0.01j), pairs),), seed=1)
        matrix = random_conjugate_normal(spec)
        calls = []
        original = generalized._parlett_reid
        monkeypatch.setattr(
            generalized,
            "_parlett_reid",
            lambda m, **kw: calls.append(m.shape) or original(m, **kw),
        )
        checked = []
        checked_apf = generalized._checked_apf
        monkeypatch.setattr(
            generalized,
            "_checked_apf",
            lambda skew, apf, *args: checked.append(apf) or checked_apf(skew, apf, *args),
        )
        result = generalized_pfaffian(matrix)
        assert calls == [(2 * pairs, 2 * pairs)]
        assert len(checked) == 1 and not generalized._in_range(checked[0] ** 2)

        def second_run(skew, apf, mantissa, *args):
            return checked_apf(skew, apf, pfaffian._parlett_reid(skew.copy())[0], *args)

        monkeypatch.setattr(generalized, "_checked_apf", second_run)
        again = generalized_pfaffian(matrix)
        value = result.value
        assert (again.value.real.hex(), again.value.imag.hex()) == (value.real.hex(), value.imag.hex())
        assert again.diagnostics == result.diagnostics
        want = oracle_pfaffian(spec)
        assert abs(value - want) <= 1e-10 * abs(want)

    def test_unitarity_witness_raises(self, monkeypatch):
        monkeypatch.setattr(generalized, "_UNITARITY_RTOL", 1e-17)
        with pytest.raises(SpectralConsistencyError, match="X are not unitary"):
            generalized_pfaffian(random_conjugate_normal(corpus_spec(2)))

    def test_reconstruction_witness_raises(self, monkeypatch):
        monkeypatch.setattr(generalized, "_RECONSTRUCT_RTOL", 1e-18)
        with pytest.raises(ReconstructionError, match="outside the singular-value groups"):
            generalized_pfaffian(random_conjugate_normal(corpus_spec(2)))

    @pytest.mark.parametrize("odd", [1, 3])
    def test_odd_group_is_a_positive_sigma(self, odd):
        spec = SpectrumSpec(
            (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("positive-real", 0.5, odd)),
            seed=3,
        )
        with pytest.raises(PfUndefinedError, match="eigenvalue \\(odd dimension\\); the"):
            generalized_pfaffian(random_conjugate_normal(spec))

    def test_positive_sigma_group_of_two_is_undefined(self):
        spec = SpectrumSpec(
            (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("positive-real", 0.5, 2)),
            seed=3,
        )
        with pytest.raises(PfUndefinedError, match="eigenvalue; the"):
            generalized_pfaffian(random_conjugate_normal(spec))

    @pytest.mark.parametrize("scale", [2.0**-60, 1.0, 2.0**60])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "core",
        [
            np.diag([3.0, 3.0, 1.0, 1.0]),
            scipy.linalg.block_diag(3.0 * np.eye(4), [[0.0, 1.0], [-1.0, 0.0]]),
        ],
        ids=["two-pairs", "group-of-four"],
    )
    def test_real_positive_sigma_group_is_undefined(self, core, seed, scale):
        # on real input a positive-sigma block's det/apf^2 is real and
        # positive; only its apf, rounding noise, tells it from a pair
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(core.shape))
        with pytest.raises(PfUndefinedError, match="eigenvalue; the"):
            generalized_pfaffian(scale * (q @ core @ q.T))


def kramers_spec(pairs, seed):
    """Every complex pair at multiplicity 2: groups of four."""
    rng = np.random.default_rng(seed)
    omegas = np.exp(rng.uniform(-0.5, 0.5, pairs)) * np.exp(
        1j * rng.uniform(0.1, math.pi - 0.1, pairs)
    )
    return SpectrumSpec(tuple(SpectrumEntry("complex", complex(w), 2) for w in omegas), seed=seed)


def pf_outcome(matrix):
    """``(error class or None, value or None, whether the fast path gave
    the value)`` of ``generalized_pfaffian(matrix)``."""
    served = []
    original = generalized._well_conditioned_pfaffian

    def spy(m, tol):
        result = original(m, tol)
        served.append(result[1] is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generalized, "_well_conditioned_pfaffian", spy)
        try:
            value = generalized_pfaffian(matrix).value
        except errors.Error as exc:
            return type(exc), None, served == [True]
    return None, value, served == [True]


def assert_routes_agree(matrix, rtol=1e-13):
    """The fast path and the SVD route give ``matrix`` the same error class
    and values within ``rtol``; returns whether the fast path served."""
    error, value, fast = pf_outcome(matrix)
    with only_svd_route():
        want_error, want, _ = pf_outcome(matrix)
    assert error is want_error
    if value is not None:
        assert abs(value - want) <= rtol * abs(want)
    return fast


class TestWellConditionedPath:
    """Where A and its skew part are well conditioned, pf is ``+-sqrt(det
    A)`` with apf's sign, from one LU and one Parlett-Reid factorization;
    everywhere else the SVD route decides, and the two never disagree."""

    @pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
    def test_corpus_takes_it_and_agrees_with_the_svd_route(self, corpus, scale):
        served = [assert_routes_agree(scale * matrix) for _, matrix in corpus]
        assert all(served)

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("side", [1, -1], ids=["positive", "negative"])
    def test_pairs_near_the_real_axis_agree(self, side, seed):
        for angle in np.logspace(-12, -4, 17).tolist():
            omega = side * 2.0 * cmath.exp(1j * side * angle)
            for entries in (
                (SpectrumEntry("complex", omega),),
                (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("complex", omega)),
            ):
                fast = assert_routes_agree(random_conjugate_normal(SpectrumSpec(entries, seed)))
                # near the positive axis the skew part's singular value is
                # about 2 sin(angle / 2); near the negative one it is about 2
                if side == 1 and angle < 1e-6:
                    assert not fast

    @pytest.mark.parametrize("omega", [2.0, -2.0])
    def test_near_degenerate_real_eigenvalues_agree(self, omega):
        for delta in np.logspace(-10, -5, 26).tolist():
            fast = assert_routes_agree(random_conjugate_normal(real_pair_spec(omega, delta)))
            assert fast == (omega < 0)  # a positive sigma makes the skew part singular

    @pytest.mark.parametrize(
        "entry",
        [
            SpectrumEntry("negative-real", -5e-8, 2),
            SpectrumEntry("positive-real", 5e-8),
            SpectrumEntry("complex", 9e-8 + 6e-8j),
        ],
        ids=["negative-real", "positive-real", "complex"],
    )
    def test_blocks_under_the_zero_floor_agree(self, entry):
        # |s| = 2.2e-4 beside |s| = 1.7: cond(A) is 5e3, and each route's value
        # carries rounding of about dim eps cond(A) (measured 1.7e-13 apart;
        # against a 40-digit det of the same matrix the fast path is 3.5e-14
        # and 2.1e-13 off, the SVD route 1.9e-13 and 3.2e-13)
        base = (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("negative-real", -3.0, 2))
        matrix = random_conjugate_normal(SpectrumSpec(base + (entry,), seed=1))
        eps = np.finfo(float).eps
        assert_routes_agree(matrix, matrix.shape[0] * eps * np.linalg.cond(matrix))

    @pytest.mark.parametrize("pairs, seed", [(2, 5), (10, 7), (50, 23)])
    def test_kramers_inputs_take_it_and_agree(self, pairs, seed):
        assert assert_routes_agree(random_conjugate_normal(kramers_spec(pairs, seed)))

    @pytest.mark.parametrize("j", [-6, 6])
    def test_power_of_two_scales_bit_for_bit(self, j):
        for index in range(0, CORPUS_SIZE, 10):
            matrix = random_conjugate_normal(corpus_spec(index))
            _, value, fast = pf_outcome(matrix)
            _, scaled, scaled_fast = pf_outcome(math.ldexp(1.0, j) * matrix)
            assert fast and scaled_fast
            want = generalized._ldexp(value, j * matrix.shape[0] // 2)
            assert (scaled.real.hex(), scaled.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_diagnostics_are_the_factorizations_own(self):
        # the det and apf the value came from, so the cross-check reads 0,
        # and the guard's residual in its Gram form, as is_conjugate_normal
        # reads it
        matrix = random_conjugate_normal(corpus_spec(2))
        result = generalized_pfaffian(matrix)
        assert result.diagnostics.cross_check_residual == 0
        assert result.diagnostics.conjugate_normal_residual == is_conjugate_normal(matrix)[1]
        assert abs(result.diagnostics.det - det_lu(matrix)) <= 1e-13 * abs(det_lu(matrix))
        apf = pf_skew_parlett_reid((matrix - matrix.T) / 2.0)
        assert abs(result.diagnostics.apf - apf) <= 1e-13 * abs(apf)

    def test_skew_estimate_from_the_kernels_factors(self, corpus):
        # zgecon on the Parlett-Reid factors read as an LU lies within 2x of
        # zgecon on an LU of (A - A^T)/2, and, as it bounds ||A_as^-1||_1
        # from below, never under the exact reciprocal but for rounding
        for _, matrix in corpus:
            skew = (matrix - matrix.T) / 2.0
            norm_1 = float(np.abs(matrix).sum(axis=0).max())
            work = skew.copy()
            pfaffian._parlett_reid(work)
            estimate = generalized._rcond(pfaffian._packed_lu(work), norm_1)
            on_lu = generalized._rcond(scipy.linalg.lu_factor(skew)[0], norm_1)
            exact = 1.0 / (norm_1 * np.abs(np.linalg.inv(skew)).sum(axis=0).max())
            assert on_lu / 2 <= estimate <= 2 * on_lu
            assert estimate >= exact * (1 - 1e-12)

    def test_skew_estimate_bits(self):
        # the fast path's skew gate, as it reads the kernel's factors: pins
        # the layout of the L D L^T that _packed_lu reads, as well as its
        # values.  The input takes no BLAS call to build, so its bits do not
        # depend on the thread count
        rng = np.random.default_rng(1300)
        factors = generalized._Factors(rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300)))
        (work,), _, _ = factors.skew_factors
        norm_1 = float(np.abs(factors.unit).sum(axis=0).max())
        estimate = generalized._rcond(pfaffian._packed_lu(work), norm_1)
        assert estimate.hex() == "0x1.de1fb265f4be4p-15"

    @pytest.mark.parametrize(
        "entries",
        [
            (SpectrumEntry("complex", 1 + 2j), SpectrumEntry("complex", 2 * cmath.exp(1e-8j))),
            (SpectrumEntry("complex", 2 * cmath.exp(1e-13j), 2),),
        ],
        ids=["near-axis", "one-group-at-1e-13"],
    )
    def test_ill_conditioned_skew_parts_decline_after_the_kernel(self, entries):
        # the estimate on the kernel's factors declines; the LU's det and the
        # kernel's apf, which the SVD route reuses, are A's own
        matrix = random_conjugate_normal(SpectrumSpec(entries, seed=2))
        factors = generalized._Factors(matrix)
        _, value = generalized._well_conditioned_pfaffian(factors, linalg.DEFAULT_TOL)
        assert value is None
        assert factors.apf == pf_skew_parlett_reid((matrix - matrix.T) / 2.0)
        assert abs(factors.det - det_lu(matrix)) <= 1e-14 * abs(det_lu(matrix))

    @pytest.mark.parametrize("scale", [2.0**-40, 1e-3, 1.0, 1e3, 2.0**40])
    def test_derivative_solves_with_the_value_lu(self, scale):
        # the LU of A 2^-e, rescaled, solves as an LU of A would
        matrix = scale * random_conjugate_normal(corpus_spec(2))
        da = np.random.default_rng(2).normal(size=matrix.shape) + 0j
        value = generalized_pfaffian(matrix).value
        want = 0.5 * value * np.trace(np.linalg.solve(matrix, da))
        assert abs(pfaffian_derivative(matrix, da) - want) <= 1e-12 * abs(want)

    def test_a_determinant_out_of_range_stays_on_it(self):
        # det(A 2^-e) of 300 pairs is no double as a plain product of the LU
        # diagonal: it is multiplied as a mantissa and a power of two, and
        # the kernel renormalizes its pivot product the same way
        matrix = table_matrix(600)
        unit, _ = normal_form._unit_scaled(matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = np.prod(np.diagonal(scipy.linalg.lu_factor(unit)[0]))
        assert not generalized._in_range(plain)
        assert assert_routes_agree(matrix)


@pytest.mark.usefixtures("svd_route")
class TestGaugeInvariance:
    @pytest.mark.parametrize(
        "matrix",
        [
            random_conjugate_normal(corpus_spec(6)),  # a group of four
            # one group spans A, which takes the normal form
            random_conjugate_normal(SpectrumSpec((SpectrumEntry("complex", 1 + 1j, 2),), seed=5)),
        ],
        ids=["groups", "single-group"],
    )
    def test_value_ignores_gauge_seed(self, matrix):
        base = generalized_pfaffian(matrix).value
        for seed in (1, 2, 5):
            with mixed_gauge(seed):
                value = generalized_pfaffian(matrix).value
            np.testing.assert_allclose(value, base, rtol=1e-10)


class TestDerivedAttributes:
    """Every derived attribute of a result equals the function of its source."""

    def test_derived_attributes_match_their_sources(self, corpus):
        for index, (_, matrix) in enumerate(corpus):
            nf = wigner_normal_form(matrix)
            assert nf.det_u == det_lu(nf.u)
            for cluster in classify_spectrum(matrix).clusters:
                assert cluster.multiplicity == len(cluster.columns)
            result = generalized_pfaffian(matrix)
            assert result.diagnostics.det_antisymmetric == result.diagnostics.apf**2
            if index % 10 == 0:
                for check in identity_report(matrix).checks:
                    assert check.passed == (check.residual <= check.threshold)

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
    pf_polynomial,
    pfaffian_derivative,
    random_conjugate_normal,
    wigner_normal_form,
)
from wignerpf import generalized, linalg, normal_form
from wignerpf.ensembles import random_unitary
from wignerpf.linalg import det_lu
from wignerpf.pfaffian import pf_skew_parlett_reid

from conftest import CORPUS_SIZE, corpus_spec, mixed_gauge
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
        calls = []
        for name in ("det_lu", "pf_skew_parlett_reid"):
            original = getattr(generalized, name)
            monkeypatch.setattr(
                generalized, name, lambda m, f=original, n=name: calls.append(n) or f(m)
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

        def counted_det(m):
            calls.append(1)
            return det_lu(m)

        def no_guard(m, tol):
            raise AssertionError("apf runs no conjugate-normality test")

        monkeypatch.setattr(generalized, "det_lu", counted_det)
        monkeypatch.setattr(normal_form, "_require_conjugate_normal", no_guard)
        monkeypatch.setattr(generalized, "_require_conjugate_normal", no_guard)
        result = antisymmetrized_pfaffian(random_conjugate_normal(corpus_spec(1)))
        assert len(calls) == 1
        assert result.diagnostics.conjugate_normal_residual is None
        assert result.diagnostics.det_antisymmetric == result.value**2


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

    def test_rejects_unknown_engine(self):
        with pytest.raises(InputError):
            generalized_pfaffian_via_relation(np.zeros((2, 2)), engine="qr")

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
    |omega - conj(omega)|``, so the normal form's U fails its unitarity check
    (exit 5).  The Pfaffian reads the pair from A's singular values instead,
    whose resolution is relative to ``||A||``, not ``||A||^2``."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("radius", [1e-7, 3e-7, 1e-6, 3e-6, 1e-5])
    def test_small_pair_gives_the_pfaffian(self, radius, seed):
        matrix = near_axis_pair(radius, seed)
        value = generalized_pfaffian(matrix).value
        np.testing.assert_allclose(value**2, np.linalg.det(matrix), rtol=1e-6)
        relation = generalized_pfaffian_via_relation(matrix).value
        np.testing.assert_allclose(value, relation, rtol=1e-10)

    @pytest.mark.xfail(
        strict=True,
        raises=SpectralConsistencyError,
        reason="near-axis complex pair: U is not unitary (standing defect of wnf)",
    )
    @pytest.mark.parametrize("seed", range(20))
    def test_small_pair_gives_the_normal_form(self, seed):
        wigner_normal_form(near_axis_pair(1e-7, seed))


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


class TestStandingDefectWindows:
    """The inputs on which the Lambda route exits 5 (the standing defects:
    near-degenerate real eigenvalues, pairs near the real axis, eigenvalues
    under the zero floor ``cluster ||A||^2``).  The Pfaffian gives the value
    of the determinant-ratio relation there, or exits 4 for a positive
    sigma; ``wigner_normal_form`` still exits 5 on them."""

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

    def test_one_skew_pfaffian_per_battery(self, monkeypatch):
        # (A - A^T)/2 is factored once: corpus matrix 14 is one 2x2 group,
        # whose block is A itself, and the base call's diagnostics and the
        # phase row reuse that apf.  A derived row whose matrix is one group
        # factors that matrix's skew part as its block, and every row is but
        # the tensor row, whose kron with B splits into pairs: 1 + 7
        calls = []
        original = generalized.pf_skew_parlett_reid
        monkeypatch.setattr(
            generalized, "pf_skew_parlett_reid", lambda m: calls.append(1) or original(m)
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
        residual, value = original(x, tol)
        seen.append((np.array(x), value))
        return residual, value

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
            (generalized, "pf_skew_parlett_reid", "skew"),
        ):
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        return counts

    def test_passes_per_call_and_per_battery(self, passes):
        matrix = random_conjugate_normal(corpus_spec(2))  # 14 groups of two
        generalized_pfaffian(matrix)
        # the SVD, which also gives the guard; det(X) and det(A); the
        # unitarity witness's Gram triangle; the cross-check's apf
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 2, "zherk": 1, "skew": 1}
        passes.update(dict.fromkeys(passes, 0))
        identity_report(matrix)
        # nine SVDs, each with its det(X) and one Gram triangle; the
        # direct-sum row doubles every singular value, and its 14 groups of
        # four take one LU of their stack and no skew kernel; then det(A),
        # det(B) and det(Q), and the apf the phase row reads
        assert passes == {"svd": 9, "eigh": 0, "lu_factor": 13, "zherk": 9, "skew": 1}

    def test_group_of_four_takes_one_lu_and_no_skew_pfaffian(self, passes):
        matrix = random_conjugate_normal(corpus_spec(6))  # a complex pair of multiplicity 2
        generalized_pfaffian(matrix)
        # the group of four's apf is its three-term matching sum; the one
        # skew kernel is the cross-check's
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 3, "zherk": 1, "skew": 1}

    def test_groups_of_one_size_take_one_lu(self, passes):
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

    def test_single_group_takes_the_normal_form(self, passes):
        # both singular values of a 2x2 pair are equal: the one group spans A,
        # so X = 1 and its block is A, factored once by one LU and one skew
        # kernel whose det and apf the diagnostics reuse; the guard comes from
        # the SVD, and there is no unitarity witness
        generalized_pfaffian(random_conjugate_normal(corpus_spec(14)))
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 1, "zherk": 0, "skew": 1}

    def test_single_group_of_four_is_factored_once(self, passes):
        # a complex pair of multiplicity 2: the one group spans A, as above
        spec = SpectrumSpec((SpectrumEntry("complex", 1 + 1j, 2),), seed=5)
        generalized_pfaffian(random_conjugate_normal(spec))
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 1, "zherk": 0, "skew": 1}

    def test_derivative_runs_one_normal_form_and_no_diagnostics(self, passes):
        matrix = random_conjugate_normal(corpus_spec(2))
        pfaffian_derivative(matrix, np.eye(matrix.shape[0]))
        # the SVD, which also gives the guard; det(X); the unitarity
        # witness's Gram triangle; no det(A) and no apf (the solve factors A)
        assert passes == {"svd": 1, "eigh": 0, "lu_factor": 1, "zherk": 1, "skew": 0}

    @pytest.mark.parametrize(
        "index, counts",
        [(2, [2, 4, 2]), (14, [2, 11, 3])],
        ids=["groups", "single-group"],
    )
    def test_each_matrix_is_checked_where_it_enters(self, monkeypatch, index, counts):
        # as_square_matrix reads as_matrix as a module global, so the spy
        # sees every check; the kernels take the pipeline's arrays as given.
        # With groups, a call checks its entry and the skew kernel's input; a
        # battery its entry, one call and B (the direct-sum row's groups of
        # four take no skew kernel); the derivative A and dA.  A single group checks the
        # skew kernel's input of its block, which is the whole matrix: the
        # call's one, the battery's base call and seven derived rows (all but
        # the tensor row, whose groups are pairs), and the derivative's one
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


class TestGroupKernel:
    """The singular-value group kernel behind every Pfaffian value."""

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

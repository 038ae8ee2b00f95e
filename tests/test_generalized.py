"""Generalized Pfaffian, the determinant-ratio route, and the identity battery."""

import cmath
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
from wignerpf.linalg import det_lu

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
    """The standing near-axis defect: a complex pair with ``|omega - conj(omega)|``
    of 5e-8 to 2e-6 times ``||Lambda||`` has eigenvectors fixed only to about
    ``eps ||Lambda|| / |omega - conj(omega)|``, so U fails the unitarity check
    (exit 5) on conjugate-normal input."""

    @pytest.mark.xfail(
        strict=True,
        raises=SpectralConsistencyError,
        reason="near-axis complex pair: U is not unitary (standing defect)",
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_small_pair_gives_the_pfaffian(self, seed):
        matrix = near_axis_pair(1e-7, seed)
        value = generalized_pfaffian(matrix).value
        np.testing.assert_allclose(value**2, np.linalg.det(matrix), rtol=1e-6)

    def test_pair_clear_of_the_axis_gives_the_pfaffian(self):
        for seed in range(5):
            matrix = near_axis_pair(1e-5, seed)
            value = generalized_pfaffian(matrix).value
            np.testing.assert_allclose(value**2, np.linalg.det(matrix), rtol=1e-6)


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
        # only the base call factors (A - A^T)/2, and the phase row reads its
        # apf; the derived rows take the normal-form value alone
        calls = []
        original = generalized.pf_skew_parlett_reid
        monkeypatch.setattr(
            generalized, "pf_skew_parlett_reid", lambda m: calls.append(1) or original(m)
        )
        identity_report(random_conjugate_normal(corpus_spec(14)))
        assert len(calls) == 1

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
        nf, value = original(x, tol)
        seen.append((np.array(x), value))
        return nf, value

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
        counts = dict.fromkeys(("eigh", "lu_factor", "zherk", "skew"), 0)

        def counting(name, f):
            def counted(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return counted

        for module, attr, name in (
            (scipy.linalg, "eigh", "eigh"),
            (scipy.linalg, "lu_factor", "lu_factor"),
            (scipy.linalg.blas, "zherk", "zherk"),
            (generalized, "pf_skew_parlett_reid", "skew"),
        ):
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        return counts

    def test_passes_per_call_and_per_battery(self, passes):
        matrix = random_conjugate_normal(corpus_spec(14))
        generalized_pfaffian(matrix)
        # eigh of H + cK; det(U) and det(A); the guard's two Gram triangles
        # and the unitarity check's one; the cross-check's apf
        assert passes == {"eigh": 1, "lu_factor": 2, "zherk": 3, "skew": 1}
        passes.update(dict.fromkeys(passes, 0))
        identity_report(matrix)
        # nine normal forms, each with its det(U), then det(A), det(B) and
        # det(Q); one apf, read by the phase row
        assert passes == {"eigh": 9, "lu_factor": 12, "zherk": 27, "skew": 1}

    def test_derivative_runs_one_normal_form_and_no_diagnostics(self, passes):
        matrix = random_conjugate_normal(corpus_spec(14))
        pfaffian_derivative(matrix, np.eye(matrix.shape[0]))
        # eigh of H + cK; det(U); the guard's two Gram triangles and the
        # unitarity check's one; no det(A) and no apf (the solve factors A)
        assert passes == {"eigh": 1, "lu_factor": 1, "zherk": 3, "skew": 0}

    def test_each_matrix_is_checked_where_it_enters(self, monkeypatch):
        # as_square_matrix reads as_matrix as a module global, so the spy
        # sees every check; the kernels take the pipeline's arrays as given
        kernels = {"det_lu", "eig_normal", "unitarity_defect"}
        callers = []
        original = linalg.as_matrix

        def counted(a):
            callers.append({frame.name for frame in traceback.extract_stack()} & kernels)
            return original(a)

        monkeypatch.setattr(linalg, "as_matrix", counted)
        matrix = random_conjugate_normal(corpus_spec(14))
        counts = []
        for call in (
            lambda: generalized_pfaffian(matrix),
            lambda: identity_report(matrix),
            lambda: pfaffian_derivative(matrix, np.eye(matrix.shape[0])),
        ):
            callers.clear()
            call()
            assert not any(callers)
            counts.append(len(callers))
        # a call: its entry, wigner_normal_form, classify_spectrum, the
        # pairing's vectors and images, NormalForm's u and the skew check; a
        # battery: its entry, one call, B and five per derived row; the
        # derivative: A, dA and five
        assert counts == [7, 49, 7]


class TestGaugeInvariance:
    def test_value_ignores_gauge_seed(self):
        matrix = random_conjugate_normal(corpus_spec(6))  # degenerate spectrum
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

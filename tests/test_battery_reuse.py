"""The identity battery lends A's factors to its rows: invisible in every bit.

A row whose ``A 2^-e`` is bit for bit A's (the scale row at a power-of-two
lambda) takes all of A's products, and a diagonal block that is A's (the
direct-sum row's copies, the tensor row's 2A where its scale allows) takes
A's Gram defect and, where the floor rule allows, A's kernel run and skew
estimate.  Each test compares the battery with a run whose rows are
handed no reference and so factor everything themselves.
"""

import cmath

import numpy as np
import pytest
import scipy.linalg

from wignerpf import SpectrumEntry, SpectrumSpec, identity_report, random_conjugate_normal
from wignerpf import generalized, linalg, pfaffian

from test_direct_sums import block

SYMMETRIC_B = np.random.default_rng(33).normal(size=(2, 2))
SYMMETRIC_B = SYMMETRIC_B + SYMMETRIC_B.T


def bits(x):
    """The bits of a float, a complex or None, comparable with ==."""
    if x is None:
        return None
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def battery(matrix, reuse=True, **kwargs):
    """``(outcome, kernel runs)`` of one battery: the outcome is every row's
    residual and the base result's fields as bits, or the error's class and
    message.  ``reuse=False`` hands no row a reference."""
    seen, kernels = [], []
    result_of = generalized._normal_form_result
    value_of = generalized._normal_form_pfaffian
    kernel = generalized._parlett_reid

    def recording(m, tol):
        result, factors = result_of(m, tol)
        seen.append(result)
        return result, factors

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generalized, "_normal_form_result", recording)
        patch.setattr(
            generalized, "_parlett_reid", lambda m, **kw: kernels.append(1) or kernel(m, **kw)
        )
        if not reuse:
            patch.setattr(
                generalized,
                "_normal_form_pfaffian",
                lambda m, tol, reference=None: value_of(m, tol),
            )
        try:
            report = identity_report(matrix, **kwargs)
        except Exception as exc:  # the same error, with or without reuse
            return (type(exc), str(exc)), len(kernels)
    (base,) = seen
    d = base.diagnostics
    fields = [bits(x) for x in (base.value, d.det, d.apf, d.conjugate_normal_residual)]
    fields += [bits(d.cross_check_residual), d.singular]
    return ([bits(c.residual) for c in report.checks], fields), len(kernels)


def assert_reuse_is_invisible(matrix, **kwargs):
    """The battery with reuse has the bits of the battery without it;
    returns the kernel runs it saved."""
    outcome, kernels = battery(matrix, **kwargs)
    want, full = battery(matrix, reuse=False, **kwargs)
    assert outcome == want
    return full - kernels


def workload_matrix():
    """An n = 100 input of the identities workload's kind: 50 distinct
    complex pairs, their arguments off the real axis."""
    rng = np.random.default_rng(100)
    omegas = np.exp(rng.uniform(-1.0, 1.0, 50)) * np.exp(1j * rng.uniform(0.2, 2.9, 50))
    spec = SpectrumSpec(tuple(SpectrumEntry("complex", complex(w)) for w in omegas), seed=1)
    return random_conjugate_normal(spec)


@pytest.mark.parametrize("b", [None, SYMMETRIC_B], ids=["diag", "symmetric"])
@pytest.mark.parametrize("lam", [2.0, 0.5, 3.0, 0.6 + 0.8j])
def test_rows_keep_their_bits(lam, b):
    saved = assert_reuse_is_invisible(workload_matrix(), lam=lam, b=b)
    # the direct-sum row's two copies of A always; the scale row's kernel at
    # a power-of-two lambda; the tensor row's 2A block (A's largest entry
    # lies under 2/3 of a power of two here) where B is diag(2, 3)
    power_of_two = lam in (2.0, 0.5)
    assert saved == 2 + power_of_two + (b is None)


def test_reducible_input_keeps_its_bits():
    # A splits into two blocks of 80 of its own, so no block of a row is A:
    # only the scale row, which is A's whole, takes A's factors
    matrix = scipy.linalg.block_diag(block(40, 1), block(40, 2))
    assert len(pfaffian._direct_blocks(linalg._unit_scaled(matrix)[0])) == 2
    assert assert_reuse_is_invisible(matrix) == 2


def test_svd_route_input_keeps_its_bits():
    # a pair 1e-8 rad from the real axis: A's skew estimate declines, and so
    # do the rows' that take it; each such row's value comes from its SVD
    matrix = block(49, 3, SpectrumEntry("complex", 2 * cmath.exp(1e-8j)))
    factors = generalized._Factors(matrix)
    assert generalized._well_conditioned_pfaffian(factors, linalg.DEFAULT_TOL)[1] is None
    assert assert_reuse_is_invisible(matrix) > 0


def skew_input(ratio):
    """An exactly skew, hence conjugate-normal, n = 100 matrix ``L D L^T``
    with L within 2e-3 of 1, whose kernel's smallest pivot is about
    ``ratio`` times its own pivot floor ``PIVOT_RTOL ||A||_F``; banded, so
    it is taken whole, while its direct sum with itself splits."""
    n = 100
    rng = np.random.default_rng(3)
    alphas = rng.uniform(1.0, 2.0, n // 2) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n // 2))
    alphas[n // 4] = 0.0
    alphas[n // 4] = ratio * pfaffian.PIVOT_RTOL * np.sqrt(2.0) * np.linalg.norm(alphas)
    d = np.zeros((n, n), dtype=complex)
    d[np.arange(1, n, 2), np.arange(0, n, 2)] = alphas
    d[np.arange(0, n, 2), np.arange(1, n, 2)] = -alphas
    lower = np.eye(n) + np.diag(1e-3 * rng.uniform(1.0, 2.0, n - 1), -1)
    m = lower @ d @ lower.T
    return (m - m.T) / 2.0


@pytest.mark.parametrize("ratio, kernels", [(1.2, (1, 1)), (2.0, (0, 2))])
def test_floor_rule_decides_the_kernel_reuse(ratio, kernels):
    # A ⊕ A's pivot floor is sqrt(2) times A's.  A's kernel, whose smallest
    # pivot is 1.2 times its own floor, stopped at no pivot, but a kernel
    # run at the direct sum's floor stops: the row runs its own, which stops
    # in its first block.  At twice the floor the row takes A's for both
    matrix = skew_input(ratio)
    reference = generalized._Factors(matrix)
    products = reference.products
    floor = pfaffian.PIVOT_RTOL * np.linalg.norm(products.skew())
    assert products.blocks is None
    assert products.smallest_pivot / floor == pytest.approx(ratio, rel=1e-3)
    direct_sum = scipy.linalg.block_diag(matrix, matrix)
    outcomes = []
    kernel = generalized._parlett_reid
    for lent in (reference, None):
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                generalized, "_parlett_reid", lambda m, **kw: runs.append(1) or kernel(m, **kw)
            )
            try:
                residual, factors, value = generalized._normal_form_pfaffian(
                    direct_sum, linalg.DEFAULT_TOL, lent
                )
                outcome = [bits(residual), bits(value), bits(factors.det), bits(factors.apf)]
            except Exception as exc:
                outcome = [type(exc), str(exc)]
        outcomes.append((outcome, len(runs)))
    (with_reference, lent_runs), (without, own_runs) = outcomes
    assert with_reference == without
    assert (lent_runs, own_runs) == kernels
    assert_reuse_is_invisible(matrix)


def test_no_factors_cross_batteries():
    # 2A is A times a power of two: were A's factors kept between calls, the
    # second battery would take them
    matrix = workload_matrix()
    runs = [battery(x)[1] for x in (matrix, 2.0 * matrix, matrix)]
    assert runs == [7, 7, 7]


@pytest.mark.parametrize(
    "row",
    [
        lambda a: 2.0 * a,
        lambda a: scipy.linalg.block_diag(a, a),
        lambda a: np.kron(a, np.diag([2.0, 3.0])),
        lambda a: np.kron(a, SYMMETRIC_B),
    ],
    ids=["scale", "direct-sum", "tensor", "tensor-symmetric"],
)
def test_lent_products_are_the_rows_own(row):
    # every product a row reads, each block's skew estimate among them (the
    # tensor row's whole ||.||_1 is not A's), has the bits it has unlent
    matrix = workload_matrix()
    reference = generalized._Factors(matrix)
    assert generalized._well_conditioned_pfaffian(reference, linalg.DEFAULT_TOL)[1] is not None
    lent, own = (generalized._Factors(row(matrix), r) for r in (reference, None))
    assert lent.exponent == own.exponent
    for name in ("det_parts", "defects", "rcond", "skew_rconds"):
        lent_bits, own_bits = (np.array(getattr(f.products, name)).tobytes() for f in (lent, own))
        assert lent_bits == own_bits, name
    (parts, apf, shift), (own_parts, own_apf, own_shift) = lent.skew_factors, own.skew_factors
    assert (bits(apf), shift) == (bits(own_apf), own_shift)
    for part, own_part in zip(parts, own_parts):
        assert part.tobytes() == own_part.tobytes()


def test_equal_values_with_zeros_of_other_signs_are_not_bitwise_equal():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert generalized._bitwise_equal(a, a.copy())
    b = a.copy()
    b[0, 0] = complex(-0.0, 0.0)
    assert np.array_equal(a, b) and not generalized._bitwise_equal(a, b)
    assert not generalized._bitwise_equal(a, a[:1])

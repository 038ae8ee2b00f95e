"""Scale: every tolerance is relative to ||A||, so c A behaves as A does.

A power of two scales every floating-point value exactly, so the normal form
of 2^j A is U with every block scaled by 2^j, and pf(2^j A) = 2^(j dim/2)
pf(A) bit for bit, or an InputError when that value leaves the double range.
For other scales the value agrees to rounding, and the error class is
decided by the range of the value alone.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerpf import (
    InputError,
    OffDiagBlock,
    PfUndefinedError,
    ReconstructionError,
    SpectrumEntry,
    SpectrumSpec,
    classify_spectrum,
    generalized_pfaffian,
    generalized_pfaffian_via_relation,
    is_conjugate_normal,
    random_conjugate_normal,
    wigner_normal_form,
)
from wignerpf import normal_form

from conftest import CORPUS_SIZE, corpus_spec

TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max

#: every spectral class at once: zero and positive-real 1x1 blocks next to
#: negative-real and complex 2x2 blocks, several of them degenerate
MIXED_KINDS = SpectrumSpec(
    entries=(
        SpectrumEntry("negative-real", -4.0, 6),
        SpectrumEntry("negative-real", -0.5, 2),
        SpectrumEntry("positive-real", 3.0, 5),
        SpectrumEntry("positive-real", 0.25, 1),
        SpectrumEntry("zero", 0.0, 3),
        SpectrumEntry("complex", 1.0 + 2.0j, 2),
        SpectrumEntry("complex", -1.5 + 0.5j, 1),
    ),
    seed=17,
)


def scaled_exactly(value: complex, exponent: int) -> complex | None:
    """2^exponent value, or None when it is not a normal double."""
    try:
        scaled = complex(math.ldexp(value.real, exponent), math.ldexp(value.imag, exponent))
    except OverflowError:
        return None
    return scaled if TINY <= abs(scaled) < math.inf else None


def assert_out_of_range(info):
    assert info.value.exit_code == 2
    assert "outside the double range" in str(info.value)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.one_of(st.integers(0, CORPUS_SIZE - 1).map(corpus_spec), st.just(MIXED_KINDS)),
    j=st.integers(-72, 72),
)
def test_power_of_two_scaling_is_exact(spec, j):
    matrix = random_conjugate_normal(spec)
    scale = 2.0**j
    nf, scaled_nf = wigner_normal_form(matrix), wigner_normal_form(scale * matrix)
    assert scaled_nf.u.tobytes() == nf.u.tobytes()
    assert len(scaled_nf.blocks) == len(nf.blocks)
    for block, scaled in zip(nf.blocks, scaled_nf.blocks):
        assert scaled.multiplicity == block.multiplicity
        if isinstance(block, OffDiagBlock):
            assert scaled.s == scale * block.s
        else:
            assert scaled.sigma == scale * block.sigma
    assert scaled_nf.reconstruction_residual == scale * nf.reconstruction_residual
    assert scaled_nf.conjugate_normal_residual == nf.conjugate_normal_residual
    assert is_conjugate_normal(scale * matrix) == is_conjugate_normal(matrix)

    try:
        base = generalized_pfaffian(matrix)
    except PfUndefinedError:
        with pytest.raises(PfUndefinedError):
            generalized_pfaffian(scale * matrix)
        return
    if base.diagnostics.singular:
        assert generalized_pfaffian(scale * matrix).diagnostics.singular
        return
    want = scaled_exactly(base.value, j * matrix.shape[0] // 2)
    if want is None:
        with pytest.raises(InputError) as info:
            generalized_pfaffian(scale * matrix)
        assert_out_of_range(info)
    else:
        assert generalized_pfaffian(scale * matrix).value == want


@functools.lru_cache(maxsize=None)
def table_matrix(dim: int) -> np.ndarray:
    """The scale table's input: dim/2 complex pairs with |omega| log-uniform
    in [e^-2.7, e^2.7]."""
    rng = np.random.default_rng(5)
    radius = np.exp(rng.uniform(-2.7, 2.7, dim // 2))
    angle = rng.uniform(0.1, np.pi - 0.1, dim // 2)
    spec = SpectrumSpec(
        entries=tuple(
            SpectrumEntry("complex", complex(z), 1) for z in radius * np.exp(1j * angle)
        ),
        seed=5,
    )
    return random_conjugate_normal(spec)


@pytest.mark.parametrize("j", [-20, -6, 6, 20])
def test_power_of_two_scaling_is_exact_through_the_mixed_block(schur_orders, j):
    # the normal form takes its 150 pairs from singular-value groups, with no
    # eigensolve of Lambda and so no Schur step, and U scales with A.  At n =
    # 300 the Lambda eigensolve leaves a few columns mixed and only those take
    # the Schur step, one per component of them; the columns chosen and
    # their components scale with A
    matrix = table_matrix(300)
    scale = 2.0**j
    assert wigner_normal_form(scale * matrix).u.tobytes() == wigner_normal_form(matrix).u.tobytes()
    assert schur_orders == []
    classify_spectrum(matrix)
    orders = schur_orders.copy()
    schur_orders.clear()
    classify_spectrum(scale * matrix)
    assert schur_orders == orders and sum(orders) > 0
    want = scaled_exactly(generalized_pfaffian(matrix).value, j * 150)
    if want is None:
        with pytest.raises(InputError) as info:
            generalized_pfaffian(scale * matrix)
        assert_out_of_range(info)
    else:
        assert generalized_pfaffian(scale * matrix).value == want


@pytest.mark.parametrize("scale", [2.0**-40, 1e-3 * (1 + 1j)], ids=["2^-40", "1e-3(1+i)"])
def test_every_corpus_normal_form_scales(corpus, scale):
    # the normal form of c A has A's blocks with |s| times |c|
    for _, matrix in corpus:
        nf, scaled_nf = wigner_normal_form(matrix), wigner_normal_form(scale * matrix)
        assert [type(b) for b in scaled_nf.blocks] == [type(b) for b in nf.blocks]
        for block, scaled in zip(nf.blocks, scaled_nf.blocks):
            assert scaled.multiplicity == block.multiplicity
            assert abs(abs(scaled.s) - abs(scale) * abs(block.s)) <= 1e-12 * abs(scaled.s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e-100, 1e100, 1e150, 1e160])
def test_normal_form_of_groups_far_from_unit_scale(scale):
    # the singular-value route takes every test at its group's scale and
    # squares no entry of A, so c A has A's blocks times c where the Gram
    # guard's norms overflow (from ||A||_F ~ 1e77 on) or underflow; the
    # column norms that choose the route are taken at unit scale, so from
    # 1e154 on, where A's squared entries overflow, and at 1e-170, where they
    # underflow, c A still takes that route
    matrix = random_conjugate_normal(MIXED_KINDS)
    nf, scaled_nf = wigner_normal_form(matrix), wigner_normal_form(scale * matrix)
    assert [(type(b), b.multiplicity) for b in scaled_nf.blocks] == [
        (type(b), b.multiplicity) for b in nf.blocks
    ]
    for block, scaled in zip(nf.blocks, scaled_nf.blocks):
        if isinstance(block, OffDiagBlock):
            assert abs(scaled.s / scale - block.s) <= 1e-14 * abs(block.s)
        else:
            assert abs(scaled.sigma / scale - block.sigma) <= 1e-14 * max(block.sigma, 1.0)


def in_range(z: complex) -> bool:
    return TINY <= abs(z) < math.inf


@pytest.mark.parametrize(
    "dim, scale",
    [(dim, c) for dim in (40, 200) for c in (1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e8)]
    + [(600, 1e-2)],
)
def test_scale_table_cell(dim, scale):
    # ok while c^(dim/2) pf(A) is a normal double, else one InputError (exit
    # 2): never not conjugate-normal (exit 3), a failed check (exit 5) or a
    # non-singular 0.  The relation route, which factors the same A 2^-e,
    # gives the same class and value on the n = 40 and 200 rows
    matrix = table_matrix(dim)
    base = generalized_pfaffian(matrix).value
    log_want = math.log(abs(base)) + dim // 2 * math.log(scale)
    relation = generalized_pfaffian_via_relation
    for route in (generalized_pfaffian, relation) if dim <= 200 else (generalized_pfaffian,):
        if not math.log(TINY) < log_want < math.log(HUGE):
            with pytest.raises(InputError) as info:
                route(scale * matrix)
            assert_out_of_range(info)
            continue
        result = route(scale * matrix)
        assert not result.diagnostics.singular
        assert abs(math.log(abs(result.value)) - log_want) <= 1e-10 * max(1.0, abs(log_want))
        assert abs(np.angle(result.value / base)) <= 1e-10
        d = result.diagnostics
        if route is relation or not (in_range(d.det) and in_range(d.det_antisymmetric)):
            assert d.cross_check_residual is None
        else:
            assert d.cross_check_residual <= 1e-10


def test_subnormal_determinant_skips_the_cross_check():
    # det(cA) = c^40 det(A) and apf(cA)^2 are subnormal at c = 10^-7.75 while
    # pf(cA) = c^20 pf(A) is not: their ratio has lost its digits, so the
    # cross-check must not run (it would reject the input as not
    # conjugate-normal)
    matrix = table_matrix(40)
    scale = 10**-7.75
    result = generalized_pfaffian(scale * matrix)
    assert 0 < abs(result.diagnostics.det) < TINY
    assert result.diagnostics.cross_check_residual is None
    want = scale**20 * generalized_pfaffian(matrix).value
    assert abs(result.value - want) <= 1e-12 * abs(want)


def test_overflowing_block_power_is_out_of_range():
    # |s|^5 of one block of multiplicity 5 overflows on its own (a Python
    # OverflowError, not inf); it is the same out-of-range InputError.  At
    # this scale the norms of Lambda's Gram products overflow and warn.
    matrix = random_conjugate_normal(
        SpectrumSpec((SpectrumEntry("complex", 1.0 + 1.0j, 5),), seed=2)
    )
    with np.errstate(all="ignore"), pytest.raises(InputError) as info:
        generalized_pfaffian(1e70 * matrix)
    assert_out_of_range(info)


#: a complex pair of multiplicity 2: A is a multiple of a unitary matrix,
#: which the normal form takes as one group
ONE_GROUP = SpectrumSpec((SpectrumEntry("complex", 1 + 1j, 2),), seed=5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [MIXED_KINDS, ONE_GROUP], ids=["groups", "one-group"])
@pytest.mark.parametrize("scale", [1e-160, 1e200])
def test_reconstruction_check_rejects_a_wrong_u_at_every_scale(monkeypatch, scale, spec):
    # ||A - U Sigma U^T|| is taken as 2^e ||(A - U Sigma U^T) 2^-e||: taken on A
    # itself, its squares underflow to 0 at 1e-160, so a U off by 1e-6 passed,
    # and overflow from about 1e170 on
    matrix = scale * random_conjugate_normal(spec)
    nf = wigner_normal_form(matrix)
    assert 0 < nf.reconstruction_residual <= 1e-13 * scale
    original = normal_form._reconstruct

    def wrong(u, blocks):
        u = u.copy()
        u[:, 0] *= np.exp(1e-6j)
        return original(u, blocks)

    monkeypatch.setattr(normal_form, "_reconstruct", wrong)
    with pytest.raises(ReconstructionError, match="exceeds 1.0e-09"):
        wigner_normal_form(matrix)

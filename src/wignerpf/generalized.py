"""Generalized Pfaffians of conjugate-normal matrices.

Two extensions of the Pfaffian beyond skew-symmetric matrices live here:

* the normal-form Pfaffian ``pf(A) = i^(n^2) det(U) sqrt(|det(Sigma)|)``,
  defined for conjugate-normal A whose Lambda = A conj(A) has no positive
  real eigenvalue (equivalently, whose antisymmetric part is non-singular),
  extended by pf(A) = 0 for singular A;
* the antisymmetrized Pfaffian ``apf(A) = pf_skew((A - A^T)/2)``, defined
  for every square matrix.

pf is a square root of det(A) and differs from apf by a positive real
factor, so ``pf(A) = +-sqrt(det(A))`` with the sign that agrees with apf
(:func:`_relation_value`).

:func:`generalized_pfaffian` builds no U.  Where A and its skew part are
well conditioned (a condition estimate of each on an LU), that rule gives
the value at once, from the LU of A and one Parlett-Reid factorization of
its skew part (:func:`_well_conditioned_pfaffian`), after the guard in its
Gram form.  Everywhere else unitary congruence, ``pf(Q A Q^T) = det(Q)
pf(A)``, and the direct sum, ``pf(A + B) = pf(A) pf(B)``, give ``pf(A) =
det(X) prod_J pf(C_J)`` from one SVD ``A = X D Y^H``, with ``C_J`` the
diagonal blocks of ``X^H A conj(X)`` on the groups of equal singular
values; each block takes that one rule, and the same SVD gives the
conjugate-normality guard's residual.  The SVD, the guard in both its
forms and the group split live in :mod:`wignerpf.normal_form`, whose
normal form starts from the same groups.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ensembles import random_unitary
from .errors import (
    InputError,
    NotConjugateNormalError,
    PfUndefinedError,
    ReconstructionError,
    SpectralConsistencyError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _lu,
    _odd_swaps,
    as_square_matrix,
    det_lu,
    unitarity_defect,
)
from .normal_form import (
    _RECONSTRUCT_RTOL,
    _UNITARITY_RTOL,
    _require_conjugate_normal,
    _singular_groups,
    _unit_scaled,
)
from .pfaffian import _matching_sum, pf_polynomial, pf_skew_parlett_reid

#: |Im(w2)| <= RATIO_IMAG_RTOL * |Re(w2)| is required of w2 = det conj(apf)^2 /
#: |apf|^2, a positive multiple of the det(A)/det((A - A^T)/2) ratio
RATIO_IMAG_RTOL = 1e-6

METHODS = ("normal-form", "antisymmetrized", "relation", "polynomial")

DEFAULT_IDENTITY_SEED = 1905  #: seeds Q in the battery's congruence row

#: a singular value of a group block's skew part at or below
#: _APF_NOISE * dim * eps * d_1 is rounding noise: the block holds a positive sigma
_APF_NOISE = 16.0

#: the fast path's one gate: zgecon's reciprocal 1-norm condition estimates
#: of A and of (A - A^T)/2, the second relative to ||A||_1, must both reach
#: it.  dim eps / _RCOND_FLOOR then stays far under RATIO_IMAG_RTOL, and the
#: skew part's smallest singular value far above the SVD route's floors
_RCOND_FLOOR = 1e-6

#: an LU diagonal is multiplied in chunks of this many pivots, each scaled
#: into [1/2, 1) first, so no partial product leaves the double range
_CHUNK = 256

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class PfDiagnostics:
    """Side values recorded while computing a Pfaffian.

    ``apf`` is the route's skew Pfaffian of ``(A - A^T)/2`` and
    ``det_antisymmetric`` is ``apf**2``.  ``cross_check_residual`` is the
    relative discrepancy between the normal-form value and a recomputation
    through the determinant-ratio relation (None when not applicable or when
    a determinant is not a normal double).  It is an independent recheck only
    where the value came from A's singular-value groups, two or more of
    them: on the well-conditioned fast path, and where one group spans A,
    the value and the relation share A's LU and apf, so it reads 0 by
    construction.  ``conjugate_normal_residual`` is
    ``||A^T A* - A A^H||_F / ||A||_F^2``: on the normal-form route from two
    Gram triangles of A times a power of two on the fast path, read off the
    SVD elsewhere (:func:`_normal_form_pfaffian`), on the relation and
    polynomial routes from two Gram triangles of A; None on the
    antisymmetrized route, which runs no conjugate-normality test.
    """

    det: complex
    apf: complex
    conjugate_normal_residual: float | None
    singular: bool
    cross_check_residual: float | None

    @property
    def det_antisymmetric(self) -> complex:
        return self.apf**2


@dataclass(frozen=True)
class PfResult:
    value: complex
    method: str
    diagnostics: PfDiagnostics

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.diagnostics.singular and self.value != 0:
            raise InputError("a singular result must carry the exact value 0")


@np.errstate(over="ignore", invalid="ignore")
def _relation_value(det, apf):
    """``sqrt(det)`` with the sign that makes ``w = sqrt(det) conj(apf) /
    |apf|`` positive, elementwise over arrays of determinants and apfs.

    pf is a square root of det and shares its phase with apf (their ratio is
    a positive real factor), so ``w**2 = det conj(apf)^2 / |apf|^2``, a
    positive multiple of ``det / apf**2``, must be positive real within
    :data:`RATIO_IMAG_RTOL`; a nan or inf fails that test.  Raises
    :class:`PfUndefinedError` where ``apf**2`` is 0 and
    :class:`NotConjugateNormalError` where ``w**2`` is not positive real.
    """
    det = np.asarray(det, dtype=np.complex128)
    apf = np.asarray(apf, dtype=np.complex128)
    if np.any(apf * apf == 0):
        raise PfUndefinedError(
            "the antisymmetric part is singular; the determinant-ratio "
            "relation does not apply"
        )
    phase = apf.conj() / abs(apf)
    w2 = det * phase * phase
    positive = (w2.real > 0.0) & (abs(w2.imag) <= RATIO_IMAG_RTOL * abs(w2.real))
    if not positive.all():
        ratio = complex((det / (apf * apf))[~positive].flat[0])
        raise NotConjugateNormalError(
            f"det(A)/det((A - A^T)/2) = {ratio:.6g} is not positive real; "
            "the input is not conjugate-normal (the ratio is guaranteed "
            "positive for conjugate-normal matrices)"
        )
    root = np.sqrt(det)
    return np.where((root * phase).real < 0.0, -root, root)


@dataclass(frozen=True)
class _Measured:
    """What :func:`_normal_form_pfaffian` measured on A besides its value:
    the guard's residual and, where the value came from A's own LU and apf
    (the fast path, or one group spanning A), that det(A) and apf(A) (None
    otherwise)."""

    conjugate_normal_residual: float
    det: complex | None = None
    apf: complex | None = None


def generalized_pfaffian(a, tol: Tolerances = DEFAULT_TOL) -> PfResult:
    """Pfaffian of a conjugate-normal matrix through its normal form.

    ``pf(A) = i^(n^2) det(U) prod |s_k|`` over the 2x2 blocks, n = dim/2,
    read as ``det(X) prod_J pf(C_J)`` over the groups of A's singular values
    (see :func:`_normal_form_pfaffian`); every tolerance is relative to
    ||A||, so pf(2^j A) = 2^(j n) pf(A) bit for bit.  A smallest singular
    value at or below ``dim * eps * d_1`` makes A singular: the value is then
    0 with ``diagnostics.singular`` set.  A positive sigma (a group of odd
    size, which includes every non-singular odd-dimensional matrix, or a
    group block that fails the rule) means no continuous Pfaffian extension
    exists and :class:`PfUndefinedError` is raised.  A non-singular
    ``|pf|`` outside ``[tiny, inf)`` raises :class:`InputError`; it is never
    returned as 0.  Both errors come before any diagnostic is computed.

    Where A and its skew part are well conditioned the value is
    ``+-sqrt(det A)`` with apf's sign, read straight off A's LU and one
    Parlett-Reid factorization (:func:`_well_conditioned_pfaffian`), and the
    guard takes its Gram form on A times a power of two; elsewhere the
    guard's residual comes from the SVD.  Neither form's norms overflow
    before the value does.

    Only then are ``det(A)`` and ``apf`` (one Parlett-Reid factorization)
    computed, unless the value already came from A's own LU and apf (the
    fast path, or one group spanning A), rescaled exactly.  A non-singular
    value is recomputed through the determinant-ratio relation on A, its
    relative discrepancy recorded in ``diagnostics.cross_check_residual``;
    that is None unless ``det(A)`` and ``det((A - A^T)/2) = apf**2`` both lie
    in ``[tiny, inf)``, and 0 by construction where the value came from A's
    own LU and apf (the value and the relation then share them).
    """
    m = as_square_matrix(a)
    measured, value = _normal_form_pfaffian(m, tol)
    det_a, apf = measured.det, measured.apf
    if det_a is None:
        det_a = det_lu(m)
        apf = pf_skew_parlett_reid((m - m.T) / 2.0)
    cross = None
    if value != 0 and _in_range(det_a) and _in_range(apf**2):
        cross = float(abs(value - _relation_value(det_a, apf)) / abs(value))
    diag = PfDiagnostics(det_a, apf, measured.conjugate_normal_residual, value == 0, cross)
    return PfResult(value, "normal-form", diag)


def _normal_form_pfaffian(m: np.ndarray, tol: Tolerances) -> tuple[_Measured, complex]:
    """:func:`generalized_pfaffian`'s value of a square ``m`` (0 when
    singular), with its errors and no diagnostics, and what it measured on
    the way (:class:`_Measured`).

    One SVD ``A = X D Y^H``, the guard read off it and the groups J of
    equal singular values, all from
    :func:`~wignerpf.normal_form._singular_groups`, which the normal form
    shares.  ``C = X^H A conj(X) = D W`` (formed in W's place) is block
    diagonal over the groups, so ``A = X C X^T`` and ``pf(A) = det(X)
    prod_J pf(C_J)``.  Two witnesses bound what the
    normal form's unitarity and reconstruction checks bound:
    ``unitarity_defect(X) <= _UNITARITY_RTOL sqrt(dim)``, and the norm of C
    outside its group blocks, which is ``||A - X (+)_J C_J X^T||``, at most
    ``_RECONSTRUCT_RTOL ||A||_F``; both norms are taken as ``d_1 ||. /
    d_1||``, so none overflows.  A single group that spans A takes X = 1 and
    C = A instead: both witnesses hold exactly and det(X) = 1.

    A smallest d at or below ``dim * eps * d_1`` makes A singular; otherwise
    a group of odd size holds a positive sigma and the value is undefined.
    The blocks of each size k, one stack per size, are scaled by powers of
    two near their d and take :func:`_relation_value` on their determinants
    and apfs: the determinant in closed form at k = 2 and from one LU of the
    stack otherwise, the apf as the matching sum
    (:func:`~wignerpf.pfaffian._matching_sum`) at k <= 4 and by Parlett-Reid
    block by block otherwise.  The one block of a single group, A itself,
    takes one LU and one Parlett-Reid factorization whatever its size.  A
    block holds a positive sigma, and raises, when its skew part has a
    singular value at or below the noise floor ``_APF_NOISE * dim * eps *
    d_1`` or when it fails the rule; ``svdvals`` runs only on a block whose
    ``|apf|``, a product of half of those singular values, each at most d_J,
    is at most ``floor * d_J^(k/2 - 1)``.  A block whose ``apf**2`` leaves
    the double range takes the phase of the apf of its skew part scaled by
    a power of two near the mean of those singular values.

    All of this runs only where :func:`_well_conditioned_pfaffian`, tried
    first, declines; it decides every singular, positive-sigma, near-axis
    and multi-group input.
    """
    fast = _well_conditioned_pfaffian(m, tol)
    if fast is not None:
        return fast
    x, d, w, cn_residual, starts, stops = _singular_groups(m, tol)
    dim = m.shape[0]
    sizes = stops - starts
    single = len(stops) == 1
    if single:  # X = 1 and C = A: no witness to take, and det(X) = 1
        stacks = {dim: m[None]}
    else:
        c = w
        c *= d[:, None]
        # the blocks of each size as one stack, zeroed in C, so that what is
        # left of C is the reconstruction residual
        stacks = {k: _take_blocks(c, starts[sizes == k], k) for k in np.unique(sizes).tolist()}
        defect = unitarity_defect(x)
        if defect > _UNITARITY_RTOL * math.sqrt(dim):
            raise SpectralConsistencyError(
                f"singular vectors X are not unitary within tolerance: defect "
                f"{defect:.3e} exceeds {_UNITARITY_RTOL:.1e} * sqrt({dim})"
            )
        # ||A||_F = d_1 ||d / d_1|| and the residual d_1 ||C / d_1||: neither
        # overflows, and d_1 > 0 where there are two groups
        residual = float(np.linalg.norm(c / d[0]))
        if residual > _RECONSTRUCT_RTOL * float(np.linalg.norm(d / d[0])):
            raise ReconstructionError(
                f"||A - X C X^T|| = {float(d[0]) * residual:.3e} outside the "
                f"singular-value groups exceeds {_RECONSTRUCT_RTOL:.1e} * ||A||; the "
                "input is likely further from conjugate-normal than the tolerances assume"
            )

    measured = _Measured(cn_residual)
    if d[-1] <= dim * np.finfo(float).eps * d[0]:
        return measured, 0j
    if np.any(sizes % 2):
        raise _positive_sigma(dim)

    # each block is scaled by 2^-e, e the exponent nearest log2 of its
    # largest d, so pf(2^j A) = 2^(j dim/2) pf(A) bit for bit.  C's entries
    # carry rounding of about dim eps d_1, which sets the noise floor
    noise = _APF_NOISE * dim * np.finfo(float).eps
    values = np.empty(len(stops), dtype=np.complex128)
    exponent = 0
    for k, blocks in stacks.items():
        at = sizes == k
        lead = d[starts[at]]  # each block's largest d
        e = _near_exponent(lead)
        blocks = blocks * np.ldexp(1.0, -e)[:, None, None]
        skews = (blocks - blocks.transpose(0, 2, 1)) / 2.0
        if single:  # the block is A: its det (taken as the fast path takes it)
            # and apf, rescaled, are A's own
            det, shift = _det_parts(*_lu(blocks[0]))
            dets, apfs = np.array([det]), np.array([pf_skew_parlett_reid(skews[0])])
            measured = _Measured(
                cn_residual,
                _ldexp(det, shift + int(e[0]) * k),
                _ldexp(complex(apfs[0]), int(e[0]) * k // 2),
            )
            exponent += shift // 2
        else:
            if k == 2:
                dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
            else:
                dets = det_lu(blocks)
            if k <= 4:
                apfs = _matching_sum(skews)
            else:
                apfs = np.array([pf_skew_parlett_reid(skew) for skew in skews])
        floors = noise * np.ldexp(d[0], -e)
        with np.errstate(over="ignore", invalid="ignore"):
            flagged = (
                abs(apfs) <= floors * np.ldexp(lead, -e) ** (k // 2 - 1)
            ) | ~_in_range(apfs * apfs)
        for i in np.flatnonzero(flagged).tolist():
            apfs[i] = _checked_apf(skews[i], complex(apfs[i]), float(floors[i]), dim)
        try:
            values[at] = _relation_value(dets, apfs)
        except (NotConjugateNormalError, PfUndefinedError):
            raise _positive_sigma(dim) from None
        exponent += k // 2 * int(np.sum(e))

    # the product as a mantissa and a power of two, so no partial product
    # leaves the double range; |det(X)| = 1 decides nothing about the range.
    # The pairs come first, then the other blocks in the order of d
    mantissa = 1 + 0j
    for value in values[np.argsort(sizes != 2, kind="stable")].tolist():
        mantissa *= value
        _, e = math.frexp(abs(mantissa))
        mantissa = complex(math.ldexp(mantissa.real, -e), math.ldexp(mantissa.imag, -e))
        exponent += e
    _require_range(mantissa, exponent)
    # det(X) joins the mantissa before the scaling, the one step that may
    # round (a subnormal part), so 2^j A scales bit for bit
    if not single:
        mantissa *= det_lu(x)
    value = _ldexp(mantissa, exponent)
    if not _in_range(value):  # |det(X)| = 1 to rounding moved it out
        raise _out_of_range(_log10_abs(mantissa, exponent))
    return measured, value


def _well_conditioned_pfaffian(
    m: np.ndarray, tol: Tolerances
) -> tuple[_Measured, complex] | None:
    """:func:`_normal_form_pfaffian` without the SVD, where a condition
    estimate proves the determinant-ratio relation safe; None where it does
    not, and the SVD route then decides.

    ``pf(A) = +-sqrt(det A)`` with the sign of ``apf(A)``: the paper's
    positive real factor between them.  For a conjugate-normal A the
    singular values of ``A_as = (A - A^T)/2`` are the ``|Im s_k|``, twice
    each, and a 0 per sigma, so a bounded condition number of A_as rules out
    every sigma and bounds apf's relative error near ``dim eps cond``, which
    cannot flip the sign.  So, on ``A 2^-e`` (:func:`_unit_scaled`, exact):

    * the guard in its Gram form, which raises on a non-conjugate-normal A;
    * one LU of A and one of A_as, each with LAPACK's ``zgecon`` (Hager's
      1-norm estimator as refined by Higham), both taken against ``||A||_1``
      so that a small skew part counts as ill-conditioned; either reciprocal
      estimate under :data:`_RCOND_FLOOR` (or not a number) declines;
    * ``|pf| = sqrt|det A|`` as a mantissa and a power of two from the LU
      diagonal (:func:`_det_parts`), whose range raises the out-of-range
      :class:`InputError` before any skew kernel runs;
    * the Parlett-Reid apf of A_as scaled by the power of two nearest
      ``|det|^(1/dim)``, and the value :func:`_relation_value` of the det
      mantissa and that apf.  An apf whose square is not a normal double, or
      a ratio that is not positive real, declines.

    An odd dimension declines at once: such an A is singular or holds a
    positive sigma.  Every step is exact under ``A -> 2^j A``, so the value
    scales bit for bit; the det and apf it reports are A's own, rescaled.
    """
    dim = m.shape[0]
    if dim % 2:
        return None
    unit, e = _unit_scaled(m)
    cn_residual, _ = _require_conjugate_normal(unit, tol)
    norm_1 = float(np.abs(unit).sum(axis=0).max())
    lu, piv = _lu(unit)
    skew = (unit - unit.T) / 2.0
    if not (_rcond(lu, norm_1) >= _RCOND_FLOOR and _rcond(_lu(skew)[0], norm_1) >= _RCOND_FLOOR):
        return None
    det, shift = _det_parts(lu, piv)
    half = (shift + e * dim) // 2
    _require_range(complex(np.sqrt(det)), half)
    scale = (2 * shift + dim) // (2 * dim)  # nearest shift / dim
    apf = pf_skew_parlett_reid(skew * math.ldexp(1.0, -scale))
    if not _in_range(apf * apf):
        return None
    try:
        root = complex(_relation_value(det, apf))
    except NotConjugateNormalError:
        return None
    measured = _Measured(
        cn_residual, _ldexp(det, shift + e * dim), _ldexp(apf, (e + scale) * dim // 2)
    )
    return measured, _ldexp(root, half)


def _rcond(lu: np.ndarray, norm_1: float) -> float:
    """LAPACK ``zgecon``'s reciprocal 1-norm condition estimate from an LU
    factor, relative to ``norm_1``: 0 where U has a zero on its diagonal."""
    return float(scipy.linalg.lapack.zgecon(lu, norm_1, norm="1")[0])


def _det_parts(lu: np.ndarray, piv: np.ndarray) -> tuple[complex, int]:
    """The determinant of an LU factorization as ``(mantissa, shift)``, det =
    mantissa 2^shift with shift even and ``|mantissa|`` in ``[1/4, 1)`` (0 for
    a singular factor).  Each pivot is scaled into ``[1/2, 1)`` by a power of
    two and the chunks of :data:`_CHUNK` multiplied in order, so no partial
    product leaves the double range; up to that size the mantissa is the
    plain product's, bit for bit, times a power of two."""
    diag = np.diagonal(lu)
    _, shifts = np.frexp(np.abs(diag))
    diag = diag * np.ldexp(1.0, -shifts)
    mantissa, shift = 1 + 0j, int(shifts.sum())
    for start in range(0, len(diag), _CHUNK):
        mantissa *= complex(np.prod(diag[start : start + _CHUNK]))
        _, e = math.frexp(abs(mantissa))
        mantissa, shift = _ldexp(mantissa, -e), shift + e
    if shift % 2:
        mantissa, shift = mantissa / 2.0, shift + 1
    return (-mantissa if _odd_swaps(piv) else mantissa), shift


def _take_blocks(c: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """The k x k diagonal blocks of ``c`` that begin at ``starts``, as one
    ``(G, k, k)`` stack; they are zeroed in ``c``."""
    rows = starts[:, None] + np.arange(k)
    index = (rows[:, :, None], rows[:, None, :])
    blocks = c[index]
    c[index] = 0.0
    return blocks


def _near_exponent(d):
    """The integer e with ``d / 2^e`` in ``[sqrt(1/2), sqrt(2))``, elementwise
    and exact under power-of-two scaling."""
    mantissa, e = np.frexp(d)
    return e - (mantissa < _SQRT_HALF)


def _checked_apf(skew: np.ndarray, apf: complex, floor: float, dim: int) -> complex:
    """The apf of a block whose skew part may have a singular value at or
    below ``floor``, where the block holds a positive sigma and this raises.
    Where ``apf**2`` leaves the double range, the apf of the skew part scaled
    by the power of two nearest the geometric mean of its singular values: a
    positive multiple of apf, read only for its phase."""
    sv = scipy.linalg.svdvals(skew, check_finite=False)
    if sv[-1] <= floor:
        raise _positive_sigma(dim)
    if _in_range(apf * apf):
        return apf
    return pf_skew_parlett_reid(skew * math.ldexp(1.0, -round(float(np.mean(np.log2(sv))))))


@np.errstate(over="ignore")
def _ldexp(z: complex, k: int) -> complex:
    """``z * 2^k`` as it rounds (inf where it overflows)."""
    return complex(np.ldexp(z.real, k), np.ldexp(z.imag, k))


def _positive_sigma(dim: int) -> PfUndefinedError:
    extra = " (odd dimension)" if dim % 2 else ""
    return PfUndefinedError(
        "the spectrum of A conj(A) contains a positive real "
        f"eigenvalue{extra}; the antisymmetric part is singular while A "
        "is not, so no continuous Pfaffian extension exists"
    )


def _out_of_range(log10_abs: float) -> InputError:
    return InputError(f"|pf(A)| ~ 1e{log10_abs:.0f} is outside the double range")


def _log10_abs(mantissa: complex, exponent: int) -> float:
    return math.log10(abs(mantissa)) + exponent * math.log10(2.0)


def _require_range(mantissa: complex, exponent: int) -> None:
    """Raises the out-of-range :class:`InputError` unless ``|mantissa|
    2^exponent``, with ``|mantissa|`` in ``[1/2, 1)``, is a normal double."""
    if not -1021 <= exponent <= 1024:
        raise _out_of_range(_log10_abs(mantissa, exponent))


def _in_range(x):
    """Whether |x| is a normal double: in [tiny, inf), never nan; elementwise."""
    size = abs(x)
    return (np.finfo(float).tiny <= size) & (size < math.inf)


def antisymmetrized_pfaffian(a) -> PfResult:
    """Pfaffian of the antisymmetric part (A - A^T)/2.

    Defined for every square matrix, so no conjugate-normality test runs
    (``conjugate_normal_residual`` is None); odd dimension gives 0 (there
    the antisymmetric part is always singular).  ``apf`` is the value itself.
    """
    m = as_square_matrix(a)
    value = pf_skew_parlett_reid((m - m.T) / 2.0)
    diag = PfDiagnostics(det_lu(m), value, None, value == 0, None)
    return PfResult(value, "antisymmetrized", diag)


def generalized_pfaffian_via_relation(
    a,
    tol: Tolerances = DEFAULT_TOL,
    *,
    engine: str = "parlett-reid",
) -> PfResult:
    """Pfaffian via ``sqrt(det(A)/det((A - A^T)/2)) * apf(A)``.

    Avoids the normal-form construction entirely: one determinant and one
    skew Pfaffian, with ``det((A - A^T)/2) = apf**2``.  The ratio must be
    positive real within ``RATIO_IMAG_RTOL``; a violation signals
    non-conjugate-normal input, and an antisymmetric part with a zero apf
    raises :class:`PfUndefinedError`.

    ``engine`` selects how the skew Pfaffian is evaluated: "parlett-reid"
    (default; result method "relation") or "polynomial" (the brute-force
    matching sum, subject to its size guard; result method "polynomial").
    """
    if engine not in ("parlett-reid", "polynomial"):
        raise InputError(f"unknown engine {engine!r}")
    m = as_square_matrix(a)
    cn_residual, _ = _require_conjugate_normal(m, tol)
    a_as = (m - m.T) / 2.0
    det_a = det_lu(m)
    if engine == "polynomial":
        apf = pf_polynomial(a_as)
        method = "polynomial"
    else:
        apf = pf_skew_parlett_reid(a_as)
        method = "relation"
    value = complex(_relation_value(det_a, apf))
    diag = PfDiagnostics(det_a, apf, cn_residual, value == 0, None)
    return PfResult(value, method, diag)


def pfaffian_derivative(a, da, tol: Tolerances = DEFAULT_TOL) -> complex:
    """Directional derivative ``(1/2) pf(A) tr(A^{-1} dA)``.

    Requires a non-singular A with a defined Pfaffian.  pf(A) is
    :func:`generalized_pfaffian`'s value, without its diagnostics; A is
    factored by the solve, and also by the value's LU where the value comes
    from A's own LU (the fast path, or one group spanning A).
    """
    m = as_square_matrix(a)
    d = as_square_matrix(da)
    if d.shape != m.shape:
        raise InputError(f"dA has shape {d.shape}, expected {m.shape}")
    _, value = _normal_form_pfaffian(m, tol)
    if value == 0:
        raise PfUndefinedError("the derivative formula requires a non-singular matrix")
    trace = complex(np.trace(np.linalg.solve(m, d)))
    return complex(0.5 * value * trace)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the full identity battery on one matrix."""

    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


#: bound of every row's relative residual; the phase row has its own (radians)
IDENTITY_THRESHOLD = 1e-8
PHASE_THRESHOLD = 1e-7


def identity_report(
    a,
    b=None,
    lam: complex = 2.0,
    tol: Tolerances = DEFAULT_TOL,
    *,
    congruence_seed: int = DEFAULT_IDENTITY_SEED,
) -> IdentityReport:
    """Evaluate every algebraic Pfaffian identity on (A, B, lambda).

    Checks, relative residuals |lhs - rhs| / |rhs| <= IDENTITY_THRESHOLD:

    * ``square-det``          pf(A)^2 = det(A)
    * ``scale``               pf(lam A) = lam^n pf(A)
    * ``transpose``           pf(A^T) = (-1)^n pf(A)
    * ``adjoint``             pf(A^H) = (-1)^n conj(pf(A))
    * ``inverse``             pf(A^{-1}) = (-1)^n pf(A)^{-1}
    * ``direct-sum``          pf(A + A) = pf(A)^2 (block direct sum)
    * ``tensor``              pf(A x B) = (-1)^(n m(m-1)/2) pf(A)^m det(B)^n
      for symmetric m x m B
    * ``row-swap``            swapping rows/columns 0,1 negates pf
    * ``unitary-congruence``  pf(Q A Q^T) = det(Q) pf(A), seeded random Q
    * ``phase``               arg apf(A) = arg pf(A) (mod 2pi, radians;
      compared against :data:`PHASE_THRESHOLD`)

    Note the (-1)^n in the adjoint and inverse rows.  Both operations
    conjugate the i^(n^2) prefactor of the definition (i^(n^2) vs
    i^(-n^2) differ by (-1)^(n^2) = (-1)^n), so the naive identities
    without the sign fail exactly for every odd n.  The skew-symmetric
    special case pins both: for A = [[0,1],[-1,0]], pf(A^H) = pf(-A) = -1
    and pf(A^{-1}) = pf(-A) = -1, while conj(pf(A)) = pf(A)^{-1} = +1; the
    Hermitian example [[0,1+i],[1-i,0]] (equal to its own adjoint, Pfaffian
    i sqrt(2)) confirms the adjoint sign independently.

    One :func:`generalized_pfaffian` call on A gives the det(A) and apf(A)
    the ``square-det`` and ``phase`` rows read; each derived row takes the
    value alone (:func:`_normal_form_pfaffian`, with the guard, and on the
    SVD route both witnesses) and no determinant-ratio cross-check.
    B defaults to diag(2, 3).  Raises :class:`PfUndefinedError` for
    singular A (most rows degenerate there); other errors propagate from
    the individual Pfaffian computations.
    """
    m = as_square_matrix(a)
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise InputError(f"lam must be finite, got {lam}")
    base = generalized_pfaffian(m, tol)
    if base.diagnostics.singular:
        raise PfUndefinedError("the identity battery requires a non-singular matrix")
    pf_a = base.value
    dim = m.shape[0]
    n = dim // 2
    if b is None:
        b = np.diag([2.0, 3.0])
    b = as_square_matrix(b)
    if np.linalg.norm(b - b.T) > 1e-12 * np.linalg.norm(b):
        raise InputError("the tensor partner B must be symmetric")
    q = random_unitary(dim, congruence_seed)  # rejects a bad seed before the battery

    checks: list[IdentityCheck] = []

    def add(name: str, lhs: complex, rhs: complex):
        residual = float(abs(lhs - rhs) / max(abs(rhs), 1e-300))
        checks.append(IdentityCheck(name, residual, IDENTITY_THRESHOLD))

    def pf(x) -> complex:
        return _normal_form_pfaffian(x, tol)[1]

    sign_n = -1.0 if n % 2 else 1.0
    add("square-det", pf_a * pf_a, base.diagnostics.det)
    add("scale", pf(lam * m), lam**n * pf_a)
    add("transpose", pf(m.T), sign_n * pf_a)
    add("adjoint", pf(m.conj().T), sign_n * np.conj(pf_a))
    add("inverse", pf(np.linalg.inv(m)), sign_n / pf_a)
    add("direct-sum", pf(scipy.linalg.block_diag(m, m)), pf_a * pf_a)

    mdim = b.shape[0]
    tensor_sign = -1.0 if (n * mdim * (mdim - 1) // 2) % 2 else 1.0
    add("tensor", pf(np.kron(m, b)), tensor_sign * pf_a**mdim * det_lu(b) ** n)

    perm = np.arange(dim)
    perm[[0, 1]] = perm[[1, 0]]
    add("row-swap", pf(m[np.ix_(perm, perm)]), -pf_a)

    add("unitary-congruence", pf(q @ m @ q.T), det_lu(q) * pf_a)

    delta = cmath.phase(base.diagnostics.apf) - cmath.phase(pf_a)
    wrapped = (delta + math.pi) % (2.0 * math.pi) - math.pi
    checks.append(IdentityCheck("phase", abs(wrapped), PHASE_THRESHOLD))

    return IdentityReport(checks=tuple(checks))

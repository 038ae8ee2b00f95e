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

Every route factors A and its skew part at most once, on A times a power
of two (:class:`_Factors`).  Where both are well conditioned,
:func:`generalized_pfaffian` takes that rule on them at once
(:func:`_well_conditioned_pfaffian`); :func:`generalized_pfaffian_via_relation`
is the same rule without the condition estimates.  Everywhere else unitary
congruence, ``pf(Q A Q^T) = det(Q) pf(A)``, and the direct sum, ``pf(A + B)
= pf(A) pf(B)``, give ``pf(A) = det(X) prod_J pf(C_J)`` from one SVD ``A = X
D Y^H``, with ``C_J`` the diagonal blocks of ``X^H A conj(X)`` on the groups
of equal singular values; each block takes the same rule, and the SVD gives
the conjugate-normality guard's residual.  The SVD, the guard in both its
forms and the group split live in :mod:`wignerpf.normal_form`, whose normal
form starts from the same groups.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

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
    _ldexp,
    _lu,
    _odd_swaps,
    _unit_scaled,
    as_square_matrix,
    det_lu,
    unitarity_defect,
)
from .normal_form import (
    _RECONSTRUCT_RTOL,
    _UNITARITY_RTOL,
    _require_conjugate_normal,
    _singular_groups,
)
from .pfaffian import (
    PIVOT_RTOL,
    _diagonal_block,
    _direct_blocks,
    _matching_sum,
    _packed_lu,
    _parlett_reid,
    pf_polynomial,
)

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

    ``det`` and ``apf``, the skew Pfaffian of ``(A - A^T)/2``, are A's own,
    from its factors (:class:`_Factors`); ``det_antisymmetric`` is
    ``apf**2``.  ``cross_check_residual`` is the relative discrepancy between
    the normal-form value and the determinant-ratio relation on them (None
    off that route and unless both determinants are normal doubles); it
    rechecks the value only where it came from two or more singular-value
    groups, and reads 0 by construction elsewhere.
    ``conjugate_normal_residual`` is ``||A^T A* - A A^H||_F / ||A||_F^2``,
    from two Gram triangles of A times a power of two, or read off the SVD
    where :func:`generalized_pfaffian` takes it (None on the antisymmetrized
    route, which runs no conjugate-normality test).

    Where A is a direct sum of diagonal blocks up to a symmetric permutation
    (:func:`~wignerpf.pfaffian._direct_blocks`), apf is the permutation's
    sign times the blocks' skew Pfaffians, and the residual's numerator is
    the root of the sum of the blocks' squared Gram differences, over the
    whole ``||A||_F^2``: both may differ from A's whole factors in their
    last bits.  ``det`` comes from A's LU, which is never split.
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
    :func:`_not_positive_ratio` where ``w**2`` is not positive real.
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
        raise _not_positive_ratio(complex((det / (apf * apf))[~positive].flat[0]))
    root = np.sqrt(det)
    return np.where((root * phase).real < 0.0, -root, root)


def _not_positive_ratio(ratio: complex) -> NotConjugateNormalError:
    return NotConjugateNormalError(
        f"det(A)/det((A - A^T)/2) = {ratio:.6g} is not positive real; "
        "the input is not conjugate-normal (the ratio is guaranteed "
        "positive for conjugate-normal matrices)"
    )


class _Factors:
    """A's LU and the Parlett-Reid factors of its skew part, each made once,
    where a route first reads it, on ``A 2^-e`` (:func:`_unit_scaled`): det(A)
    as ``det_parts = (mantissa, shift)``, ``mantissa 2^shift``, and apf(A)
    as the last two of ``skew_factors = (factors, apf, shift)``, the kernel
    run on ``(A - A^T)/2 2^-e`` (:meth:`skew`).  Every step is exact under
    ``A -> 2^j A``, so no mantissa depends on A's scale, and none leaves the
    double range; ``det`` and ``apf`` round once.

    ``blocks`` are A's diagonal blocks (:func:`~wignerpf.pfaffian._direct_blocks`,
    None where A is taken whole), found once on ``A 2^-e``: the Gram guard
    and the skew kernel run block by block, and A's LU whole."""

    def __init__(self, m: np.ndarray):
        self.unit, self.exponent = _unit_scaled(m)

    @cached_property
    def blocks(self) -> list[np.ndarray] | None:
        return _direct_blocks(self.unit)

    @cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray]:
        return _lu(self.unit)

    @cached_property
    def norm_1(self) -> float:
        """``||A 2^-e||_1``, against which both condition estimates are taken."""
        return float(np.abs(self.unit).sum(axis=0).max())

    @cached_property
    def det_parts(self) -> tuple[complex, int]:
        """The LU pivots scaled into ``[1/2, 1)`` by powers of two and
        multiplied in chunks of :data:`_CHUNK`: up to that size the plain
        product's bits.  ``|mantissa|`` is in ``[1/4, 1)`` (0 where singular),
        and the shift is even where dim is."""
        lu, piv = self.lu
        diag = np.diagonal(lu)
        _, shifts = np.frexp(np.abs(diag))
        # 2^-shift is no double for a subnormal pivot: it takes two steps
        diag = diag * np.ldexp(1.0, -np.maximum(shifts, -1021))
        if np.any(shifts < -1021):
            diag *= np.ldexp(1.0, -np.minimum(shifts + 1021, 0))
        mantissa, shift = 1 + 0j, int(shifts.sum())
        for start in range(0, len(diag), _CHUNK):
            mantissa *= complex(np.prod(diag[start : start + _CHUNK]))
            _, e = math.frexp(abs(mantissa))
            mantissa, shift = _ldexp(mantissa, -e), shift + e
        if shift % 2:
            mantissa, shift = mantissa / 2.0, shift + 1
        if _odd_swaps(piv):
            mantissa = -mantissa
        return mantissa, shift + self.exponent * len(diag)

    def skew(self) -> np.ndarray:
        """``(A - A^T)/2 2^-e``, a fresh array."""
        skew = self.unit - self.unit.T
        skew *= 0.5
        return skew

    @cached_property
    def skew_factors(self) -> tuple[list[np.ndarray], complex, int]:
        """The kernel's factors of each diagonal block of the skew part (the
        whole, where A is one block), each run against the whole skew part's
        pivot floor; apf is the sign of the blocks' permutation times their
        pfs, multiplied into one mantissa and a power of two."""
        skew = self.skew()
        shift = self.exponent * len(skew) // 2
        if self.blocks is None:
            apf, kernel_shift, _ = _parlett_reid(skew)
            return [skew], apf, kernel_shift + shift
        floor = PIVOT_RTOL * float(np.linalg.norm(skew))
        parts = [_diagonal_block(skew, block) for block in self.blocks]
        apf = 1 + 0j
        for part in parts:
            pf, kernel_shift, _ = _parlett_reid(part, floor=floor)
            if pf == 0:  # as the whole's kernel, stop at the first zero pivot
                return parts, 0j, shift
            apf *= pf
            _, e = math.frexp(abs(apf))
            apf, shift = _ldexp(apf, -e), shift + kernel_shift + e
        order = np.concatenate(self.blocks)
        if np.count_nonzero(np.triu(order[:, None] > order, 1)) % 2:  # sgn = -1
            apf = -apf
        return parts, apf, shift

    @property
    def det(self) -> complex:
        return _ldexp(*self.det_parts)

    @property
    def apf(self) -> complex:
        _, apf, shift = self.skew_factors
        return _ldexp(apf, shift)


def generalized_pfaffian(a, tol: Tolerances = DEFAULT_TOL) -> PfResult:
    """Pfaffian of a conjugate-normal matrix through its normal form.

    ``pf(A) = i^(n^2) det(U) prod |s_k|`` over the 2x2 blocks, n = dim/2:
    ``+-sqrt(det A)`` with apf's sign where A and its skew part are well
    conditioned (:func:`_well_conditioned_pfaffian`), else ``det(X) prod_J
    pf(C_J)`` over the groups of A's singular values
    (:func:`_normal_form_pfaffian`).  Every tolerance is relative to ||A||,
    so pf(2^j A) = 2^(j n) pf(A) bit for bit.  A smallest singular value at
    or below ``dim * eps * d_1`` makes A singular: the value is then 0 with
    ``diagnostics.singular`` set.  A positive sigma (a group of odd size,
    which includes every non-singular odd-dimensional matrix, or a group
    block that fails the rule) means no continuous Pfaffian extension exists
    and :class:`PfUndefinedError` is raised.  A non-singular ``|pf|`` outside
    ``[tiny, inf)`` raises :class:`InputError`; it is never returned as 0.
    Both errors come before the cross-check runs.

    The diagnostics' ``det(A)`` and ``apf`` come from A's factors, made by
    the value's route or, where it made none, now.  A non-singular value is
    recomputed through the determinant-ratio relation on them, its relative
    discrepancy recorded in ``diagnostics.cross_check_residual``; that is
    None unless ``det(A)`` and ``apf**2`` both lie in ``[tiny, inf)``, and 0
    by construction where the value came from the same factors.
    """
    cn_residual, factors, value = _normal_form_pfaffian(as_square_matrix(a), tol)
    det_a, apf = factors.det, factors.apf
    cross = None
    if value != 0 and _in_range(det_a) and _in_range(apf**2):
        cross = float(abs(value - _relation_value(det_a, apf)) / abs(value))
    diag = PfDiagnostics(det_a, apf, cn_residual, value == 0, cross)
    return PfResult(value, "normal-form", diag)


def _normal_form_pfaffian(m: np.ndarray, tol: Tolerances) -> tuple[float, _Factors, complex]:
    """:func:`generalized_pfaffian`'s value of a square ``m`` (0 when
    singular), with its errors and no diagnostics: ``(the guard's residual,
    A's factors, value)``.

    One SVD ``A = X D Y^H``, the guard read off it and the groups J of
    equal singular values, all from
    :func:`~wignerpf.normal_form._singular_groups`, which the normal form
    shares.  ``C = X^H A conj(X) = D W`` (formed in W's place) is block
    diagonal over the groups, so ``A = X C X^T`` and ``pf(A) = det(X)
    prod_J pf(C_J)``.  Two witnesses bound what the normal form's checks do:
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
    takes A's det and apf from its factors (:class:`_Factors`), rescaled,
    whatever its size.  A block holds a positive sigma, and raises, when its
    skew part has a singular value at or below the noise floor ``_APF_NOISE
    * dim * eps * d_1`` or when it fails the rule; ``svdvals`` runs only on a block whose
    ``|apf|``, a product of half of those singular values, each at most d_J,
    is at most ``floor * d_J^(k/2 - 1)``.  A block whose ``apf**2`` leaves
    the double range takes the phase of the kernel's mantissa of its apf.

    All of this runs only where :func:`_well_conditioned_pfaffian` declines.
    """
    factors = _Factors(m)
    cn_residual, value = _well_conditioned_pfaffian(factors, tol)
    if value is not None:
        return cn_residual, factors, value
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

    if d[-1] <= dim * np.finfo(float).eps * d[0]:
        return cn_residual, factors, 0j
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
        if single:  # the block is A 2^-e0: its det and apf are A's own,
            # from A's factors, rescaled
            e0 = int(e[0])
            det, shift = factors.det_parts
            _, apf, apf_shift = factors.skew_factors
            dets, mantissas = np.array([det]), np.array([apf])
            apfs = np.array([_ldexp(apf, apf_shift - e0 * k // 2)])
            exponent += (shift - e0 * k) // 2
        else:
            if k == 2:
                dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
            else:
                dets = det_lu(blocks)
            if k <= 4:
                apfs = _matching_sum(skews)
                mantissas = apfs.copy()
            else:
                # a copy: a flagged block's skew part is read again
                parts = [_parlett_reid(skew.copy())[:2] for skew in skews]
                mantissas = np.array([mantissa for mantissa, _ in parts])
                apfs = np.array([_ldexp(*part) for part in parts])
        floors = noise * np.ldexp(d[0], -e)
        with np.errstate(over="ignore", invalid="ignore"):
            flagged = (
                abs(apfs) <= floors * np.ldexp(lead, -e) ** (k // 2 - 1)
            ) | ~_in_range(apfs * apfs)
        for i in np.flatnonzero(flagged).tolist():
            apfs[i] = _checked_apf(
                skews[i], complex(apfs[i]), complex(mantissas[i]), float(floors[i]), dim
            )
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
        mantissa, exponent = _ldexp(mantissa, -e), exponent + e
    _require_range(mantissa, exponent)
    # det(X) joins the mantissa before the scaling, the one step that may
    # round (a subnormal part), so 2^j A scales bit for bit
    if not single:
        mantissa *= det_lu(x)
    value = _ldexp(mantissa, exponent)
    if not _in_range(value):  # |det(X)| = 1 to rounding moved it out
        raise _out_of_range(_log10_abs(mantissa, exponent))
    return cn_residual, factors, value


def _well_conditioned_pfaffian(
    factors: _Factors, tol: Tolerances
) -> tuple[float | None, complex | None]:
    """:func:`_normal_form_pfaffian` without the SVD, where a condition
    estimate proves the determinant-ratio relation safe: ``(the guard's
    residual, value)``, the value None where it does not.

    For a conjugate-normal A the singular values of ``A_as = (A - A^T)/2``
    are the ``|Im s_k|``, twice each, and a 0 per sigma, so a bounded
    condition number of A_as rules out every sigma and bounds apf's relative
    error near ``dim eps cond``, which cannot flip the sign.  So, on A's
    factors (:class:`_Factors`): the guard in its Gram form, which raises on
    a non-conjugate-normal A; LAPACK's ``zgecon`` (Hager's 1-norm estimator
    as refined by Higham) on A's LU, and on the Parlett-Reid ``L D L^T`` of
    A_as read as an LU (:func:`~wignerpf.pfaffian._packed_lu`) against
    ``||A||_1`` at its scale, so that a small skew part counts as
    ill-conditioned; on a direct sum, whose inverse's 1-norm is its blocks'
    largest, every block's estimate must pass.  Then
    :func:`_relation_pfaffian`, whose out-of-range
    :class:`InputError` propagates.  A reciprocal estimate under
    :data:`_RCOND_FLOOR` (or not a number), a zero apf or a relation that
    finds no Pfaffian declines, and so does an odd dimension, at once: such
    an A is singular or holds a positive sigma.
    """
    if len(factors.unit) % 2:
        return None, None
    cn_residual, _ = _require_conjugate_normal(factors.unit, tol, factors.blocks)
    if not _rcond(factors.lu[0], factors.norm_1) >= _RCOND_FLOOR:
        return cn_residual, None
    parts, apf, shift = factors.skew_factors
    if apf == 0 or not all(
        _rcond(_packed_lu(part), factors.norm_1) >= _RCOND_FLOOR for part in parts
    ):
        return cn_residual, None
    try:
        return cn_residual, _relation_pfaffian(factors, apf, shift)
    except (NotConjugateNormalError, PfUndefinedError):
        return cn_residual, None


def _relation_pfaffian(factors: _Factors, apf: complex, apf_shift: int) -> complex:
    """``pf(A) = +-sqrt(det A)`` with the sign of ``apf(A) = apf 2^apf_shift``
    (:func:`_relation_value`, which raises where it finds no Pfaffian), from
    A's ``det_parts``: range-checked (:func:`_require_range`), then rescaled."""
    det, shift = factors.det_parts
    try:
        root = complex(_relation_value(det, apf))
    except NotConjugateNormalError:
        ratio = _ldexp(det / (apf * apf), shift - 2 * apf_shift)
        raise _not_positive_ratio(ratio) from None
    _require_range(root, shift // 2)
    return _ldexp(root, shift // 2)


def _rcond(lu: np.ndarray, norm_1: float) -> float:
    """LAPACK ``zgecon``'s reciprocal 1-norm condition estimate from an LU
    factor, relative to ``norm_1``: 0 where U has a zero on its diagonal or
    ``norm_1`` is 0."""
    return float(scipy.linalg.lapack.zgecon(lu, norm_1, norm="1")[0])


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


def _checked_apf(
    skew: np.ndarray, apf: complex, mantissa: complex, floor: float, dim: int
) -> complex:
    """The apf of a block whose skew part may have a singular value at or
    below ``floor``, where the block holds a positive sigma and this raises.
    Where ``apf**2`` leaves the double range, ``mantissa``, the kernel's
    mantissa of apf (:func:`~wignerpf.pfaffian._parlett_reid`, run once per
    block by the caller), a positive multiple of apf whose square is a
    normal double, read only for its phase; a block of size 4 or less,
    whose apf is the matching sum, passes apf itself."""
    if scipy.linalg.svdvals(skew, check_finite=False)[-1] <= floor:
        raise _positive_sigma(dim)
    return apf if _in_range(apf * apf) else mantissa


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
    """Pfaffian of the antisymmetric part (A - A^T)/2, from A's factors
    (:class:`_Factors`).

    Defined for every square matrix, so no conjugate-normality test runs
    (``conjugate_normal_residual`` is None); odd dimension gives 0 (there
    the antisymmetric part is always singular).  ``apf`` is the value itself;
    a non-zero apf outside the double range raises :class:`InputError`.
    """
    factors = _Factors(as_square_matrix(a))
    _, apf, shift = factors.skew_factors
    value = _ldexp(apf, shift)
    if apf != 0 and not _in_range(value):
        log10_abs = _log10_abs(apf, shift)
        raise InputError(f"|apf(A)| ~ 1e{log10_abs:.0f} is outside the double range")
    diag = PfDiagnostics(factors.det, value, None, value == 0, None)
    return PfResult(value, "antisymmetrized", diag)


def generalized_pfaffian_via_relation(
    a,
    tol: Tolerances = DEFAULT_TOL,
    *,
    engine: str = "parlett-reid",
) -> PfResult:
    """Pfaffian via ``sqrt(det(A)/det((A - A^T)/2)) * apf(A)``.

    The well-conditioned path of :func:`generalized_pfaffian` without its
    skew part's condition estimate: the Gram guard and
    :func:`_relation_pfaffian` on A's factors (:class:`_Factors`).
    Singularity is decided first, from A's LU, as :func:`generalized_pfaffian`
    decides it from the smallest singular value: a zero pivot, or a ``zgecon``
    reciprocal condition estimate at or below ``dim * eps``, gives the value 0
    with ``diagnostics.singular`` set.  Otherwise a ratio that is not positive
    real within ``RATIO_IMAG_RTOL`` signals non-conjugate-normal input, and
    a zero apf (on the polynomial engine, one whose square underflows) is
    undefined: A holds a positive sigma.

    ``engine`` selects how the skew Pfaffian is evaluated: "parlett-reid"
    (default; result method "relation") or "polynomial" (the brute-force
    matching sum of the same scaled skew part, subject to its size guard;
    result method "polynomial").
    """
    if engine not in ("parlett-reid", "polynomial"):
        raise InputError(f"unknown engine {engine!r}")
    factors = _Factors(as_square_matrix(a))
    cn_residual, _ = _require_conjugate_normal(factors.unit, tol, factors.blocks)
    if engine == "polynomial":
        apf, method = pf_polynomial(factors.skew()), "polynomial"
        shift = factors.exponent * len(factors.unit) // 2
    else:
        _, apf, shift = factors.skew_factors
        method = "relation"
    dim = len(factors.unit)
    if not _rcond(factors.lu[0], factors.norm_1) > dim * np.finfo(float).eps:
        value = 0j
    else:
        value = _relation_pfaffian(factors, apf, shift)
    diag = PfDiagnostics(factors.det, _ldexp(apf, shift), cn_residual, value == 0, None)
    return PfResult(value, method, diag)


def pfaffian_derivative(a, da, tol: Tolerances = DEFAULT_TOL) -> complex:
    """Directional derivative ``(1/2) pf(A) tr(A^{-1} dA)``.

    Requires a non-singular A with a defined Pfaffian.  pf(A) is
    :func:`generalized_pfaffian`'s value, without its diagnostics.  A is
    factored once: the solve takes the LU of ``A 2^-e`` in A's factors
    (:class:`_Factors`) and rescales the trace by ``2^-e``.
    """
    m = as_square_matrix(a)
    d = as_square_matrix(da)
    if d.shape != m.shape:
        raise InputError(f"dA has shape {d.shape}, expected {m.shape}")
    _, factors, value = _normal_form_pfaffian(m, tol)
    if value == 0:
        raise PfUndefinedError("the derivative formula requires a non-singular matrix")
    solved = scipy.linalg.lu_solve(factors.lu, d, check_finite=False)
    return complex(0.5 * value * _ldexp(complex(np.trace(solved)), -factors.exponent))


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
    SVD route both witnesses) and no determinant-ratio cross-check.  The
    ``direct-sum`` matrix, and the ``tensor`` one where B is diagonal, as by
    default, are direct sums of copies of A up to a symmetric permutation:
    where A has 64 rows (two kernel panels) or more, their guard residual is
    the root of the copies' summed squared Gram differences over the whole
    ``||A||_F^2``, and their apf the permutation's sign times the copies'
    apfs, in one mantissa and power of two (:class:`_Factors`); their LU
    runs whole, so their values keep the unsplit bits.
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
        return _normal_form_pfaffian(x, tol)[2]

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

"""Generalized Pfaffians of conjugate-normal matrices.

Two extensions of the Pfaffian beyond skew-symmetric matrices live here:

* the normal-form Pfaffian ``pf(A) = i^(n^2) det(U) sqrt(|det(Sigma)|)``,
  defined for conjugate-normal A whose Lambda = A conj(A) has no positive
  real eigenvalue (equivalently, whose antisymmetric part is non-singular),
  extended by pf(A) = 0 for singular A;
* the antisymmetrized Pfaffian ``apf(A) = pf_skew((A - A^T)/2)``, defined
  for every square matrix.

They are linked by ``pf(A) = sqrt(det(A) / det((A - A^T)/2)) * apf(A)``
with a positive real ratio, which :func:`generalized_pfaffian` cross-checks
once its value is decided, and they always share their complex phase.
The conjugate-normality guard lives in :mod:`wignerpf.normal_form`;
:func:`generalized_pfaffian` meets it inside :func:`wigner_normal_form`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ensembles import random_unitary
from .errors import InputError, NotConjugateNormalError, PfUndefinedError
from .linalg import DEFAULT_TOL, Tolerances, as_square_matrix, det_lu
from .normal_form import (
    NormalForm,
    Real1Block,
    _require_conjugate_normal,
    wigner_normal_form,
)
from .pfaffian import pf_polynomial, pf_skew_parlett_reid

#: |Im(ratio)| <= RATIO_IMAG_RTOL * |Re(ratio)| is required of the
#: det(A)/det((A - A^T)/2) ratio before its square root is taken
RATIO_IMAG_RTOL = 1e-6

METHODS = ("normal-form", "antisymmetrized", "relation", "polynomial")

DEFAULT_IDENTITY_SEED = 1905  #: seeds Q in the battery's congruence row

#: i**k by k mod 4, the exact 4-cycle (never a floating-point power)
_I_POWER = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class PfDiagnostics:
    """Side values recorded while computing a Pfaffian.

    ``apf`` is the route's skew Pfaffian of ``(A - A^T)/2`` and
    ``det_antisymmetric`` is ``apf**2``.  ``cross_check_residual`` is the
    relative discrepancy between the normal-form value and an independent
    recomputation through the determinant-ratio relation (None when not
    applicable or when a determinant is not a normal double), and
    ``conjugate_normal_residual`` is None on the antisymmetrized route,
    which runs no conjugate-normality test.
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


def _relation_value(det_a: complex, apf: complex) -> complex:
    """sqrt(det(A)/apf**2) * apf with the positivity checks applied."""
    det_as = apf**2
    if det_as == 0:
        raise PfUndefinedError(
            "the antisymmetric part is singular; the determinant-ratio "
            "relation does not apply"
        )
    ratio = det_a / det_as
    if not (ratio.real > 0.0 and abs(ratio.imag) <= RATIO_IMAG_RTOL * abs(ratio.real)):
        raise NotConjugateNormalError(
            f"det(A)/det((A - A^T)/2) = {ratio:.6g} is not positive real; "
            "the input is not conjugate-normal (the ratio is guaranteed "
            "positive for conjugate-normal matrices)"
        )
    # positive real root of the real part; the imaginary residue is noise
    return math.sqrt(ratio.real) * apf


def generalized_pfaffian(a, tol: Tolerances = DEFAULT_TOL) -> PfResult:
    """Pfaffian of a conjugate-normal matrix through its normal form.

    ``pf(A) = i^(n^2) det(U) prod |s_k|`` over the 2x2 blocks, n = dim/2;
    every tolerance is relative to ||A||, so pf(2^j A) = 2^(j n) pf(A) bit
    for bit.  Singularity comes only from a 1x1 block with sigma = 0 (a
    "zero" Lambda-eigenvalue, decided by :func:`classify_spectrum` at
    ``tol.cluster * ||A||^2``): the value is then 0 with
    ``diagnostics.singular`` set.  A 1x1 block with sigma > 0 (this includes
    every non-singular odd-dimensional matrix) means no continuous Pfaffian
    extension exists and :class:`PfUndefinedError` is raised.  A non-singular
    ``|pf|`` outside ``[tiny, inf)`` raises :class:`InputError`; it is never
    returned as 0.  Both errors come before any diagnostic is computed.

    Only then are ``det(A)`` and ``apf`` (one Parlett-Reid factorization)
    computed, and a non-singular value is recomputed through the
    determinant-ratio relation, its relative discrepancy recorded in
    ``diagnostics.cross_check_residual``; that is None unless ``det(A)`` and
    ``det((A - A^T)/2) = apf**2`` both lie in ``[tiny, inf)``.
    """
    m = as_square_matrix(a)
    nf, value = _normal_form_pfaffian(m, tol)
    det_a = det_lu(m)
    apf = pf_skew_parlett_reid((m - m.T) / 2.0)
    cross = None
    if value != 0 and _in_range(det_a) and _in_range(apf**2):
        cross = float(abs(value - _relation_value(det_a, apf)) / abs(value))
    diag = PfDiagnostics(det_a, apf, nf.conjugate_normal_residual, value == 0, cross)
    return PfResult(value, "normal-form", diag)


def _normal_form_pfaffian(m: np.ndarray, tol: Tolerances) -> tuple[NormalForm, complex]:
    """The normal form of a square ``m`` and :func:`generalized_pfaffian`'s
    value from it (0 when singular), with its errors and no diagnostics."""
    nf = wigner_normal_form(m, tol)
    real_blocks = [b for b in nf.blocks if isinstance(b, Real1Block)]
    if any(b.sigma == 0.0 for b in real_blocks):
        return nf, 0j
    if real_blocks:
        dim = m.shape[0]
        extra = " (odd dimension)" if dim % 2 else ""
        raise PfUndefinedError(
            "the spectrum of A conj(A) contains a positive real "
            f"eigenvalue{extra}; the antisymmetric part is singular while A "
            "is not, so no continuous Pfaffian extension exists"
        )

    try:
        magnitude = math.prod(abs(b.s) ** b.multiplicity for b in nf.blocks)
    except OverflowError:  # one block's power alone overflows
        magnitude = math.inf
    value = _I_POWER[nf.half_dim * nf.half_dim % 4] * nf.det_u * magnitude
    if not _in_range(value):
        exponent = sum(b.multiplicity * math.log10(abs(b.s)) for b in nf.blocks)
        raise InputError(f"|pf(A)| ~ 1e{exponent:.0f} is outside the double range")
    return nf, complex(value)


def _in_range(x: complex) -> bool:
    """Whether |x| is a normal double: in [tiny, inf), never nan."""
    return np.finfo(float).tiny <= abs(x) < math.inf


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
    value = _relation_value(det_a, apf)
    diag = PfDiagnostics(det_a, apf, cn_residual, value == 0, None)
    return PfResult(complex(value), method, diag)


def pfaffian_derivative(a, da, tol: Tolerances = DEFAULT_TOL) -> complex:
    """Directional derivative ``(1/2) pf(A) tr(A^{-1} dA)``.

    Requires a non-singular A with a defined Pfaffian.  pf(A) is
    :func:`generalized_pfaffian`'s value, without its diagnostics; A is
    factored once, by the solve.
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
    the ``square-det`` and ``phase`` rows read; each derived row runs the
    normal form with all of its checks but no determinant-ratio cross-check.
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

"""Dense complex linear-algebra kernels shared by the rest of the package.

Everything here works on plain ``numpy.ndarray``s with dtype complex128;
:func:`as_matrix` / :func:`as_square_matrix` are the validation gates through
which all user input passes.  The kernels (:func:`det_lu`,
:func:`eig_normal`, :func:`unitarity_defect`) take a square complex128
array as given: their callers pass arrays that were checked where they
entered or that the pipeline made itself.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NotNormalError


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` as a dense complex matrix and return it as complex128.

    Requirements: two-dimensional, at least 1x1, all entries finite.  A
    finite sum proves every entry finite; only a sum that is not (an inf or
    nan entry, or huge finite entries that overflow) costs the element-wise
    scan.
    """
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot interpret input as a complex matrix: {exc}") from exc
    if m.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got {m.ndim} dimension(s)")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"matrix must be at least 1x1, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = m.sum()
    if not cmath.isfinite(total) and not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    return m


def as_square_matrix(a) -> np.ndarray:
    """Like :func:`as_matrix` but additionally requires a square shape."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    return m


def _frozen(m: np.ndarray) -> np.ndarray:
    """The one rule for the arrays a result type holds: ``m`` itself when it
    is read-only and owns its memory, else a read-only copy, so no write
    through a view of the caller's array can change the result."""
    if m.flags.writeable or m.base is not None:
        m = m.copy()
        m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    eig_residual
        Relative bound both for the eigen-residual of the normal eigensolver
        and for the conjugate-normality defect.
    cluster
        The relative resolution of the spectrum of A·conj(A): two of its
        eigenvalues closer than ``cluster * ||A||^2`` are one eigenvalue.
        The clustering, the only code that reads both, requires
        ``cluster >= eig_residual``.
    """

    eig_residual: float = 1e-10
    cluster: float = 1e-8

    def __post_init__(self):
        for name in ("eig_residual", "cluster"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and math.isfinite(value) and value > 0
            ):
                raise InputError(f"tolerance {name!r} must be a positive finite number")

    def cluster_threshold(self, norm_a: float) -> float:
        """The one threshold of every decision on the spectrum of A·conj(A)."""
        return self.cluster * norm_a * norm_a


DEFAULT_TOL = Tolerances()

#: c in :func:`eig_normal`'s ``H + c K``; irrational, so distinct eigenvalues
#: with rational parts never share ``Re w + c Im w``
_HERMITIAN_SLOPE = (math.sqrt(5.0) - 1.0) / 2.0


@np.errstate(over="ignore", invalid="ignore")
def det_lu(m: np.ndarray):
    """Determinant of a square complex128 array via LU factorization with
    partial pivoting; of a ``(G, k, k)`` stack, the array of its G
    determinants from one ``scipy.linalg.lu_factor`` call, each bit for bit
    its member's.

    The determinant is the product of the U diagonal times (-1) per row swap
    recorded in the pivot vector, returned as it rounds (0, inf or nan).
    """
    lu, piv = _lu(m)
    det = np.prod(np.diagonal(lu, axis1=-2, axis2=-1), axis=-1)
    det = np.where(_odd_swaps(piv), -det, det)
    return complex(det) if m.ndim == 2 else det


def _unit_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(m 2^-e, e)`` with e the exponent of ``max |a_ij|`` over real and
    imaginary parts: exact, and the largest part of the result lies in
    ``[1/2, 1)`` at every scale of ``m`` (e = 0 for the zero matrix)."""
    peak = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    e = math.frexp(peak)[1]
    return _times_power_of_two(m, -e), e


def _times_power_of_two(x, k: int, out=None):
    """``x 2^k``, rounded once, written into ``out`` where given: in two exact
    steps where ``2^k`` is no double (k > 1023, a subnormal x)."""
    for step in (k,) if k <= 1023 else (k // 2, k - k // 2):
        factor = math.ldexp(1.0, step)
        x = x * factor if out is None else np.multiply(x, factor, out=out)
    return x


@np.errstate(over="ignore")
def _ldexp(z: complex, k: int) -> complex:
    """``z * 2^k`` as it rounds (inf where it overflows)."""
    return complex(np.ldexp(z.real, k), np.ldexp(z.imag, k))


def _lu(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.lu_factor`` of a square complex128 array or a stack of
    them, partial pivoting; an exactly singular factor is returned as it is
    (a zero on U's diagonal), without the warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(m, check_finite=False)


def _odd_swaps(piv: np.ndarray):
    """Whether the row swaps an LU pivot vector records are odd in number
    (det is then minus the product of U's diagonal); elementwise over a stack."""
    return np.count_nonzero(piv != np.arange(piv.shape[-1]), axis=-1) % 2 == 1


def _components(linked: np.ndarray) -> np.ndarray:
    """The connected components of the graph whose symmetric boolean
    adjacency matrix is ``linked``, every node linked to itself, as one label
    per node: its component's least node.  Each node takes the least label
    among its neighbours, then jumps twice to its label's label, until none
    changes.  The labels are taken over the links alone, row by row, so a
    sparse graph costs its links."""
    n = len(linked)
    rows, cols = np.divmod(np.flatnonzero(linked), n)
    firsts = np.searchsorted(rows, np.arange(n))  # no row is empty
    labels = np.arange(n)
    while True:
        new = np.minimum.reduceat(labels[cols], firsts)
        new = new[new]
        new = new[new]
        if (new == labels).all():
            return labels
        labels = new


def eig_normal(m, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a normal square complex128 array with orthonormal
    eigenvectors.

    For a normal M, H = (M + M^H)/2 and K = (M - M^H)/2i commute, so the
    Hermitian part ``H + c K`` of ``(1 - i c) M`` (c = :data:`_HERMITIAN_SLOPE`)
    has M's eigenvectors; a Hermitian eigensolve costs the same on every
    spectrum, unlike the QR iterations of a Schur form.

    After the eigensolve one product P = M Q gives T's diagonal,
    ``T_jj = q_j^H p_j`` (T = Q^H M Q), and the residual ``R = P - Q diag(T)``,
    whose norm is ``||T - diag(T)||`` for a unitary Q, so T is never formed.
    Only the k columns S whose residual exceeds their share
    ``4 sqrt(dim) eps ||M||`` of the bound below are ones the eigensolve left
    mixed (eigenvalues whose ``Re w + c Im w`` lie close).  Their span is
    invariant up to the other columns' residual, so one Rayleigh-Ritz step
    unmixes them: with Z the Schur vectors of the k x k ``T_SS = Q_S^H P_S``,
    ``Q_S Z`` and ``P_S Z`` replace Q_S and P_S, at O(dim k^2) and without a
    product with M.  The off-diagonal mass ``||R||`` left after that is both
    the eigen-residual of the result and the witness that M is normal
    (``||[M, M^H]|| <= 4 ||M|| ||R|| + 2 ||R||^2``), held to
    ``tol.eig_residual``.

    Returns ``(values, vectors)`` with ``vectors[:, k]`` belonging to
    ``values[k]``; ``vectors`` owns its memory.  Raises
    :class:`NotNormalError` if M is not normal within ``tol.eig_residual``
    (relative), with the offending residual attached.
    """
    dim = m.shape[0]
    norm = float(np.linalg.norm(m))
    herm = (1 - 1j * _HERMITIAN_SLOPE) / 2 * m
    herm += herm.conj().T
    # after this, herm.T is H + cK in Fortran order: LAPACK overwrites it, no copy
    np.conjugate(herm, out=herm)
    _, q = scipy.linalg.eigh(herm.T, overwrite_a=True, check_finite=False, driver="evd")
    # eigh may hand back a view of herm: Q owns its memory, and herm is freed
    q = np.array(q, order="F")
    del herm
    p = m @ q
    values = np.einsum("ij,ij->j", q.conj(), p)  # T_jj = q_j^H p_j
    residual = q * values
    np.subtract(p, residual, out=residual)  # M Q - Q diag(T)
    eps = np.finfo(float).eps
    mixed = np.flatnonzero(
        np.linalg.norm(residual, axis=0) > 4 * math.sqrt(dim) * eps * norm
    )
    if mixed.size:
        q_s, p_s = q[:, mixed], p[:, mixed]
        _, z = scipy.linalg.schur(q_s.conj().T @ p_s, output="complex", check_finite=False)
        q_s = q_s @ z
        p_s = p_s @ z
        q[:, mixed] = q_s
        values[mixed] = np.einsum("ij,ij->j", q_s.conj(), p_s)
        residual[:, mixed] = p_s - q_s * values[mixed]
    off = np.linalg.norm(residual)
    if off > tol.eig_residual * max(norm, np.finfo(float).tiny):
        raise NotNormalError(
            "eigenvectors of a nominally normal matrix leave a residual: "
            f"off-diagonal mass {off:.3e} exceeds {tol.eig_residual:.1e} * ||M||",
            residual=float(off / max(norm, np.finfo(float).tiny)),
        )
    return values, q


def unitarity_defect(u: np.ndarray) -> float:
    """||U^H U - 1|| in the Frobenius norm of a square complex128 array, read
    from one Gram triangle."""
    gram = _gram(u.T)  # conj(U^H U), whose distance to 1 is the same
    gram.flat[:: u.shape[0] + 1] -= 1.0
    return _hermitian_norm(gram)


def _gram(x: np.ndarray, adjoint_first: bool = False) -> np.ndarray:
    """Upper triangle of the Hermitian ``X X^H`` (or ``X^H X`` when
    ``adjoint_first``) from one BLAS ``zherk``: half the flops of a full
    product.  The strict lower triangle is zero, as :func:`_hermitian_norm`
    expects.  X is read in Fortran order, so pass the transpose of a
    C-ordered matrix to avoid a copy."""
    return scipy.linalg.blas.zherk(1.0, x, trans=2 if adjoint_first else 0)


def _hermitian_norm(upper: np.ndarray) -> float:
    """Frobenius norm of a Hermitian matrix stored as its upper triangle
    (strict lower triangle zero): the strict triangle counts twice."""
    total = float(np.linalg.norm(upper))
    if total == 0.0:
        return 0.0
    diag = float(np.linalg.norm(np.diagonal(upper))) / total
    return total * math.sqrt(2.0 - diag * diag)

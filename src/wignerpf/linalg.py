"""Dense complex linear-algebra kernels shared by the rest of the package.

Everything here works on plain ``numpy.ndarray``s with dtype complex128;
:func:`as_matrix` / :func:`as_square_matrix` are the validation gates through
which all user input passes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NotNormalError


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` as a dense complex matrix and return it as complex128.

    Requirements: two-dimensional, at least 1x1, all entries finite.
    """
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot interpret input as a complex matrix: {exc}") from exc
    if m.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got {m.ndim} dimension(s)")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    return m


def as_square_matrix(a) -> np.ndarray:
    """Like :func:`as_matrix` but additionally requires a square shape."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(a) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(a))


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    eig_residual
        Relative bound both for the eigen-residual of the normal eigensolver
        and for the conjugate-normality defect.
    cluster
        Base rate for grouping eigenvalues of A·conj(A); the absolute
        grouping threshold is ``cluster * (1 + ||A||^2)`` (that product is
        the scale of the eigenvalues being grouped), while sign/reality
        classification of a representative omega uses
        ``cluster * (1 + |omega|)``.
    unitarity
        ||U^H U - 1|| must stay below ``unitarity * sqrt(dim)``.
    reconstruct
        ||A - U Sigma U^T|| must stay below ``reconstruct * ||A||``.
    """

    eig_residual: float = 1e-10
    cluster: float = 1e-8
    unitarity: float = 1e-10
    reconstruct: float = 1e-9

    def __post_init__(self):
        for name in ("eig_residual", "cluster", "unitarity", "reconstruct"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise InputError(f"tolerance {name!r} must be a positive finite number")
        if self.cluster < self.eig_residual:
            raise InputError("cluster tolerance must be at least the eigen-residual tolerance")

    def cluster_threshold(self, norm_a: float) -> float:
        """Absolute grouping threshold for the spectrum of A·conj(A)."""
        return self.cluster * (1.0 + norm_a * norm_a)

    def unitarity_threshold(self, dim: int) -> float:
        return self.unitarity * math.sqrt(dim)


DEFAULT_TOL = Tolerances()

#: c in :func:`eig_normal`'s ``H + c K``; irrational, so distinct eigenvalues
#: with rational parts never share ``Re w + c Im w``
_HERMITIAN_SLOPE = (math.sqrt(5.0) - 1.0) / 2.0


def det_lu(a) -> complex:
    """Determinant via LU factorization with partial pivoting.

    The determinant is the product of the U diagonal times (-1) per row swap
    recorded in the pivot vector.
    """
    m = as_square_matrix(a)
    with warnings.catch_warnings():
        # an exactly singular factor only warns; a zero determinant is a
        # legitimate result here
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    swaps = int(np.count_nonzero(piv != np.arange(m.shape[0])))
    det = complex(np.prod(np.diag(lu)))
    return -det if swaps % 2 else det


def eig_normal(m, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a normal matrix with orthonormal eigenvectors.

    For a normal M, H = (M + M^H)/2 and K = (M - M^H)/2i commute, so the
    Hermitian part ``H + c K`` of ``(1 - i c) M`` (c = :data:`_HERMITIAN_SLOPE`)
    has M's eigenvectors; a Hermitian eigensolve costs the same on every
    spectrum, unlike the QR iterations of a Schur form.  One Newton step
    (:func:`_newton_step`) unmixes eigenvalues whose ``Re w + c Im w`` lie
    close; the complex Schur form is the fallback when that step X is not
    small (``||X|| > sqrt(eps)``) or leaves T = Q^H M Q off diagonal by more
    than a Schur form would (``4 dim eps ||M||``).

    The off-diagonal mass of T is both the eigen-residual of the returned
    decomposition (||M V - V diag|| equals ||T - diag(T)|| exactly) and a
    second witness of normality, so it is checked against the same bound.

    Returns ``(values, vectors)`` with ``vectors[:, k]`` belonging to
    ``values[k]``.  Raises :class:`NotNormalError` if M is not normal within
    ``tol.eig_residual`` (relative), with the offending residual attached.
    """
    m = as_square_matrix(m)
    norm = frobenius(m)
    commutator = np.linalg.norm(m @ m.conj().T - m.conj().T @ m)
    if commutator > tol.eig_residual * norm * norm:
        raise NotNormalError(
            "matrix is not normal: ||[M, M^H]|| = "
            f"{commutator:.3e} > {tol.eig_residual:.1e} * ||M||^2",
            residual=float(commutator / max(norm * norm, np.finfo(float).tiny)),
        )
    herm = (1 - 1j * _HERMITIAN_SLOPE) / 2 * m
    herm += herm.conj().T
    # after this, herm.T is H + cK in Fortran order: LAPACK overwrites it, no copy
    np.conjugate(herm, out=herm)
    _, q = scipy.linalg.eigh(herm.T, overwrite_a=True, check_finite=False, driver="evd")
    step_norm = _newton_step(m, q, tol.cluster * norm)
    t = q.conj().T @ (m @ q)
    values = np.diag(t).copy()
    off = np.linalg.norm(t - np.diag(values))
    eps = np.finfo(float).eps
    if step_norm > math.sqrt(eps) or off > 4 * m.shape[0] * eps * norm:
        t, q = scipy.linalg.schur(m, output="complex")
        values = np.diag(t).copy()
        off = np.linalg.norm(t - np.diag(values))
    if off > tol.eig_residual * max(norm, np.finfo(float).tiny):
        raise NotNormalError(
            "Schur form of a nominally normal matrix is not diagonal: "
            f"off-diagonal mass {off:.3e} exceeds {tol.eig_residual:.1e} * ||M||",
            residual=float(off / max(norm, np.finfo(float).tiny)),
        )
    return values, q


def _newton_step(m, q, floor: float) -> float:
    """Q <- Q (1 + X) in place, X the skew-Hermitian part of ``T_ij / (T_jj -
    T_ii)`` (T = Q^H M Q) where ``|T_jj - T_ii| > floor``; returns ||X||."""
    step = q.conj().T @ (m @ q)  # T, turned into X in place
    gap = np.diag(step)[None, :] - np.diag(step)[:, None]
    close = np.abs(gap) <= floor
    step[close] = 0.0
    gap[close] = 1.0
    step /= gap
    step -= step.conj().T
    step /= 2
    q += q @ step
    return float(np.linalg.norm(step))


def unitarity_defect(u) -> float:
    """||U^H U - 1|| in the Frobenius norm."""
    u = as_square_matrix(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))

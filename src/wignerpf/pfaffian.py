"""Pfaffians of skew-symmetric matrices, plus a polynomial-definition oracle.

:func:`pf_skew_parlett_reid`, a blocked LTL^T elimination with partial
pivoting whose trailing updates are matrix products (after Wimmer, ACM TOMS
38, 2012), is the one skew-Pfaffian kernel the package computes with.  Its
work is :func:`_parlett_reid`'s, which overwrites its input with the
factors; :func:`_packed_lu` reads them as one LU, whose condition estimate
the fast path of :func:`wignerpf.generalized_pfaffian` takes.  Two
references check it: :func:`pf_skew_householder`, an independent O(n^3)
route by unitary Householder tridiagonalization that only the tests call,
and :func:`pf_polynomial`, a brute-force sum over perfect matchings that
accepts arbitrary square matrices and backs ``--method polynomial``.  Its
sum, :func:`_matching_sum`, takes stacks of matrices too and gives the apf
of the 2x2 and 4x4 group blocks of :func:`wignerpf.generalized_pfaffian`.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linalg import as_square_matrix

#: ||A + A^T|| <= SKEW_RTOL * ||A|| is required of skew input.
SKEW_RTOL = 1e-12

#: pf_polynomial refuses matrices larger than this (the matching count is
#: (dim - 1)!! and grows too fast to be useful as an oracle beyond it).
MAX_POLYNOMIAL_DIM = 12

#: A Parlett-Reid pivot below PIVOT_RTOL * ||A|| declares the matrix singular.
PIVOT_RTOL = 1e-13

#: Parlett-Reid pivot steps per panel, each eliminating two columns
_PANEL = 32


def as_skew_matrix(a) -> np.ndarray:
    """Validate ``a`` as skew-symmetric (A = -A^T) within :data:`SKEW_RTOL`."""
    m = as_square_matrix(a)
    defect = float(np.linalg.norm(m + m.T))
    if defect > SKEW_RTOL * float(np.linalg.norm(m)):
        raise InputError(
            f"matrix is not skew-symmetric: ||A + A^T|| = {defect:.3e}"
        )
    return m


def _householder(x: np.ndarray) -> tuple[np.ndarray, float, complex]:
    """Unitary reflection data for a column vector.

    Returns ``(v, tau, alpha)`` such that ``(1 - tau v v^H) x = alpha e_1``
    with ``||v|| = 1``.  ``tau == 0`` means x needs no reflection.
    """
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0 or np.linalg.norm(x[1:]) == 0.0:
        return np.zeros_like(x), 0.0, complex(x[0])
    phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0 + 0j
    alpha = phase * norm_x
    v = x.copy()
    v[0] += alpha
    v /= np.linalg.norm(v)
    return v, 2.0, complex(-alpha)


def pf_skew_householder(a) -> complex:
    """Pfaffian of a skew-symmetric matrix via Householder tridiagonalization.

    The matrix is reduced to skew tridiagonal form T by a sequence of unitary
    congruences P A P^T; the Pfaffian is the product of the even-position
    superdiagonal entries of T times the accumulated determinant of the
    transformations (each reflection contributes ``1 - tau``).
    Odd-dimensional input returns 0.
    """
    m = as_skew_matrix(a).copy()
    n = m.shape[0]
    if n % 2:
        return 0j
    pf = 1.0 + 0j
    for i in range(n - 2):
        v, tau, alpha = _householder(m[i + 1:, i])
        m[i + 1, i] = alpha
        m[i, i + 1] = -alpha
        m[i + 2:, i] = 0.0
        m[i, i + 2:] = 0.0
        if tau:
            # congruence of the trailing block: B <- B + [v, -w] [w, v]^T
            # with w = tau * B conj(v) (the v v^H ... v* v^T cross term
            # vanishes because conj(v)^T B conj(v) = 0 for skew B)
            block = m[i + 1:, i + 1:]
            w = tau * (block @ v.conj())
            block += np.stack([v, -w], 1) @ np.stack([w, v])
            pf *= 1.0 - tau  # det of the reflection
        if i % 2 == 0:
            pf *= -alpha  # tridiagonal entry T[i, i+1]
    pf *= m[n - 2, n - 1]
    return complex(pf)


def pf_skew_parlett_reid(a) -> complex:
    """Pfaffian of a skew-symmetric matrix via Parlett-Reid elimination.

    Computes an L T L^T factorization with partial pivoting (the pivot is the
    largest entry in the working column; each row/column interchange flips
    the sign).  A pivot smaller than ``PIVOT_RTOL * ||A||`` declares the
    matrix numerically singular and returns 0 exactly.  Odd-dimensional
    input returns 0.  The product of pivots is returned as it rounds.  The
    work is :func:`_parlett_reid`'s, on a copy of the validated input.
    """
    return _parlett_reid(as_skew_matrix(a).copy())[0]


@np.errstate(over="ignore", invalid="ignore")
def _parlett_reid(m: np.ndarray) -> tuple[complex, np.ndarray]:
    """:func:`pf_skew_parlett_reid` of a skew C-ordered complex128 array,
    which it overwrites with its factors: ``(pf, pivots)``.

    Each pivot step eliminates two columns k, k+1 by the skew rank-2 update
    ``A22 += g c^T - c g^T`` (g the Gauss vector, c column k+1).  The steps
    run in panels of :data:`_PANEL`: inside a panel only the two columns
    being eliminated are brought up to date (skew symmetry supplies their
    rows), the panel's g and c are collected as the columns of G and C (a
    swap also swaps their rows), and the trailing block takes the panel's
    whole update as one product ``G C^T`` minus its transpose.  A panel's
    first step has no pending update, so it skips the two column products,
    and a row interchange is two slice copies (:func:`_swap_rows`), not a
    fancy-indexed gather and scatter.

    ``pivots[j]`` is the row that traded places with row ``2j + 1`` at step
    j.  With P those interchanges, ``P A P^T = L D L^T``: D is the direct sum
    of ``[[0, -alpha_j], [alpha_j, 0]]``, ``alpha_j = m[2j + 1, 2j]``, and
    below pair j the columns 2j, 2j + 1 of the unit lower triangular L are
    ``-m[:, 2j + 1] / alpha_j`` and ``m[:, 2j] / alpha_j``: the whole-row
    swaps have applied the later interchanges to them.  m's diagonal stays
    0 and its upper triangle is stale (:func:`_packed_lu` reads the factors).
    Where pf is 0 the elimination stopped early and m is not factored.
    """
    n = m.shape[0]
    pivots = np.arange(1, n, 2)
    if n % 2:
        return 0j, pivots
    floor = PIVOT_RTOL * float(np.linalg.norm(m))
    pf = 1.0 + 0j
    g = np.empty((n, _PANEL), dtype=np.complex128)
    c = np.empty_like(g)
    for start in range(0, n, 2 * _PANEL):
        stop = min(start + 2 * _PANEL, n)
        for j, k in enumerate(range(start, stop, 2)):
            # rows of g, c below the panel's earlier steps are all written; at
            # a panel's first step nothing is pending, and adding 0 still maps
            # -0.0 to +0.0 as every other step's update does
            m[k + 1:, k] += (
                g[k + 1:, :j] @ c[k, :j] - c[k + 1:, :j] @ g[k, :j] if j else 0.0
            )
            kp = k + 1 + int(np.argmax(np.abs(m[k + 1:, k])))
            if abs(m[kp, k]) <= floor:
                return 0j, pivots
            if kp != k + 1:
                # rows and columns k+1, kp of A trade places, and so do the
                # rows of the panel's pending update
                for x in (m, m.T, g[:, :j], c[:, :j]):
                    _swap_rows(x, k + 1, kp)
                pf = -pf
                pivots[k // 2] = kp
            pivot = m[k + 1, k]  # = -A[k, k+1]
            pf *= -pivot
            if k + 2 < n:
                m[k + 2:, k + 1] += (
                    g[k + 2:, :j] @ c[k + 1, :j] - c[k + 2:, :j] @ g[k + 1, :j]
                    if j
                    else 0.0
                )
                g[k + 2:, j] = m[k + 2:, k] / pivot  # A[k, k+2:] / A[k, k+1]
                c[k + 2:, j] = m[k + 2:, k + 1]
        if stop < n:
            steps = (stop - start) // 2
            update = g[stop:, :steps] @ c[stop:, :steps].T
            m[stop:, stop:] += update - update.T
    return complex(pf), pivots


def _packed_lu(m: np.ndarray) -> np.ndarray:
    """The factors :func:`_parlett_reid` left in ``m`` as an LU factorization
    of ``-Pi P A P^T``, packed as ``scipy.linalg.lu_factor`` packs one (unit
    lower L' below the diagonal, U on and above it) and in Fortran order.
    LAPACK's ``zgecon`` reads it as it reads an LU of A: permutations and a
    sign leave the 1-norm of the inverse as it is.

    Swapping the two rows of each pair (the permutation Pi) turns ``Pi D``
    into ``Delta = diag(alpha_0, -alpha_0, alpha_1, ...)``, so ``-Pi P A P^T
    = (Pi L Pi) (-Delta L^T)``: L' is m's strict lower triangle with its rows
    in the order Pi, times ``1 / Delta`` column by column, and U is
    ``-Delta`` on the diagonal and ``m[:, Pi]^T`` above it, no division and
    no negation.  Both are written into the C-ordered transpose of the
    result.
    """
    n = m.shape[0]
    pi = np.arange(n) ^ 1
    delta = np.empty(n, dtype=np.complex128)
    delta[0::2] = np.diagonal(m, -1)[0::2]
    delta[1::2] = -delta[0::2]
    packed = np.take(m, pi, axis=1)  # C-ordered; below the diagonal, U^T
    lower = m.T[:, pi]  # above the diagonal, once scaled, L'^T
    lower *= (1.0 / delta)[:, None]
    np.copyto(packed, lower, where=~np.tri(n, dtype=bool))
    packed.flat[:: n + 1] = -delta
    return packed.T


def _swap_rows(x: np.ndarray, i: int, j: int) -> None:
    """Rows i and j of ``x`` (a view is written through) trade places."""
    row = x[i].copy()
    x[i] = x[j]
    x[j] = row


def pf_polynomial(a) -> complex:
    """Pfaffian of an arbitrary square matrix from its polynomial definition.

    Evaluates ``(1 / (2^n n!)) sum_pi sgn(pi) prod_i a[pi(2i-1), pi(2i)]``
    over all permutations of 2n indices, collapsed exactly to a sum over the
    (2n-1)!! perfect matchings: for a matched pair (i, j) the two orders of
    the pair are the only difference between permutations mapped to the same
    matching, which yields a factor ``(a[i, j] - a[j, i]) / 2`` per pair.
    The collapse is a combinatorial identity, so this equals the permutation
    sum exactly while staying computable.

    Odd-dimensional input returns 0 (no perfect matchings).  Input larger
    than :data:`MAX_POLYNOMIAL_DIM` is refused.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    if n % 2:
        return 0j
    if n > MAX_POLYNOMIAL_DIM:
        raise InputError(
            f"polynomial pfaffian limited to dimension {MAX_POLYNOMIAL_DIM}, got {n}"
        )
    return complex(_matching_sum((m - m.T) / 2.0))


def _matching_sum(half: np.ndarray):
    """The perfect-matching sum of each member of a ``(..., k, k)`` stack of
    skew matrices, k even and at least 2, elementwise over the stack: the
    Pfaffian expanded along the first row.  At k = 2 it is ``half[..., 0,
    1]`` and at k = 4 ``a01 a23 - a02 a13 + a03 a12``, term for term."""

    def matchings(indices: tuple[int, ...]):
        # pair the first index with each other one; crossing the pos indices
        # before it contributes the sign (-1)**pos
        first, rest = indices[0], indices[1:]
        if len(rest) == 1:
            return half[..., first, rest[0]]
        total = half[..., first, rest[0]] * matchings(rest[1:])
        for pos in range(1, len(rest)):
            term = half[..., first, rest[pos]] * matchings(rest[:pos] + rest[pos + 1:])
            total = total - term if pos % 2 else total + term
        return total

    return matchings(tuple(range(half.shape[-1])))

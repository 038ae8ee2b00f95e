"""Normal form A = U Sigma U^T of a conjugate-normal matrix.

A square complex A is *conjugate-normal* when A^T A* = A A^H.  Equivalently
the antilinear operator x -> A conj(x) is normal, and A is then unitarily
congruent to a Hermitian matrix Sigma built from 2x2 blocks
``[[0, s], [conj(s), 0]]`` and real non-negative 1x1 blocks.  The spectrum of
Lambda = A conj(A) drives everything: an eigenvalue omega contributes

* a conjugate pair of eigenspaces and blocks with ``s = sqrt(omega)``
  (principal branch) when omega is genuinely complex,
* blocks with ``s = i sqrt(|omega|)`` — half the eigenspace dimension of them
  — when omega is negative real,
* 1x1 blocks ``sigma = sqrt(omega)`` when omega is non-negative real.

This module classifies the spectrum, constructs U block by block (a real
omega's columns from one Takagi/Youla-type factorization of x -> A conj(x)
restricted to its eigenspace; Fassbender & Ikramov, LAA 422, 2007), and
assembles the *collected* Sigma: all 2x2 blocks first, as
``[[0, S], [S^H ... ]]`` with the s values on an off-diagonal, then the 1x1
entries on the diagonal.  Of the blocks' symmetries only those of zero and
positive-real clusters move det(U); those clusters orient their columns from
their span, so det(U) is a function of A.

Each block carries one singular value of A (``|s|`` or sigma), so one SVD
``A = X D Y^H`` splits U into groups whose normal forms are small problems:
``C = X^H A conj(X)`` is block diagonal over the groups of equal singular
values (:func:`_singular_groups`, which the Pfaffian shares), and the
congruence and direct-sum properties give ``U = [X_J Z_J]`` from the normal
forms ``Z_J`` of its blocks, factored with the same restricted-map kernels
at group size (:func:`_group_pieces`).  A multiple of a unitary matrix is
one group, ``X = 1`` and ``C = A``: :func:`wigner_normal_form` takes A so
wherever its column norms agree, with no SVD, and runs one loop over the
groups on every input.
The package's one conjugate-normality guard lives here as well, in two
forms: read off that SVD, or from two Gram triangles (two per diagonal
block of a direct sum), which measure ||A||_F
for :func:`classify_spectrum`'s thresholds and for A's one group;
:func:`is_conjugate_normal`, the one group and the Pfaffian's fast path take
the Gram form on A times a power of two (:func:`_unit_scaled`).
:func:`~wignerpf.linalg.eig_normal` finds V from one Hermitian eigensolve,
unmixing only the columns it leaves mixed by a Rayleigh-Ritz step on them;
its one full product is Lambda V, and its residual check is the one witness
that Lambda is normal.  One product P = A conj(V) over Lambda's eigenvectors V
then serves three uses: the mu check from P's column norms
(``v^H A^T A* v = ||A conj(v)||^2``), the partner columns of complex pairs
and the restricted maps of real clusters.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    InputError,
    NotConjugateNormalError,
    ReconstructionError,
    SpectralConsistencyError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _components,
    _frozen,
    _gram,
    _hermitian_norm,
    _times_power_of_two,
    _unit_scaled,
    as_square_matrix,
    det_lu,
    eig_normal,
    unitarity_defect,
)
from .pfaffian import _diagonal_block, _direct_blocks

#: the spectral classes of a Lambda-eigenvalue omega, named as in the
#: spectrum-prescription format; each fixes the block omega contributes
COMPLEX_PAIR = "complex"
NEGATIVE_REAL = "negative-real"
POSITIVE_REAL = "positive-real"
ZERO = "zero"

#: bounds of ||U^H U - 1|| / sqrt(dim) and ||A - U Sigma U^T|| / ||A||
_UNITARITY_RTOL = 1e-10
_RECONSTRUCT_RTOL = 1e-9

_SQRT_HALF = math.sqrt(0.5)

#: Q^H for Q = [[1, i], [1, -i]] / sqrt(2), whose Q Q^T is [[0, 1], [1, 0]]
_Q_ADJOINT = np.array([[1.0, 1.0], [-1j, 1j]]) * _SQRT_HALF

#: singular values of A whose gap is at most _GROUP_RTOL * d_1 share a group:
#: a group's singular vectors are good to about eps ||A|| / gap
_GROUP_RTOL = 1e-6


@dataclass(frozen=True)
class OffDiagBlock:
    """A 2x2 Hermitian block [[0, s], [conj(s), 0]] with sqrt eigenvalue s.

    ``s = sqrt(omega)`` lies in the closed upper half plane and is never a
    non-negative real (those are 1x1 blocks).  ``multiplicity`` counts how
    many identical copies of the block the spectrum carries.
    """

    s: complex
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise InputError("block multiplicity must be >= 1")
        s = complex(self.s)
        if not cmath.isfinite(s):
            raise InputError(f"off-diagonal block value s must be finite, got {s}")
        if s.imag < 0 or (s.imag == 0 and s.real >= 0):
            raise InputError(
                f"off-diagonal block value {s} must lie in the open upper "
                "half plane or on the negative real axis"
            )


@dataclass(frozen=True)
class Real1Block:
    """A 1x1 block holding sigma = sqrt(omega) >= 0."""

    sigma: float
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise InputError("block multiplicity must be >= 1")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise InputError(f"1x1 block value must be finite and >= 0, got {self.sigma}")


def _block(kind: str, omega: complex, multiplicity: int):
    """The block of a Lambda-eigenvalue omega of the given class and
    multiplicity: complex omega gives s = sqrt(omega), negative real omega
    half as many 2x2 blocks s = i sqrt(|omega|), positive real omega
    sigma = sqrt(omega), and zero sigma = 0."""
    if kind == COMPLEX_PAIR:
        return OffDiagBlock(complex(np.sqrt(omega)), multiplicity)
    if kind == ZERO:
        return Real1Block(0.0, multiplicity)
    root = math.sqrt(abs(omega.real))
    if kind == NEGATIVE_REAL:
        return OffDiagBlock(1j * root, multiplicity // 2)
    return Real1Block(root, multiplicity)


def _block_key(block) -> tuple:
    """Canonical order: 2x2 blocks by descending |s|, ties by ascending
    arg(s), then 1x1 blocks by ascending sigma."""
    if isinstance(block, OffDiagBlock):
        return (0, -abs(block.s), cmath.phase(block.s))
    return (1, block.sigma, 0.0)


def _check_block_order(blocks) -> int:
    """Validate the canonical block order; returns the pair count."""
    prev = None
    pairs = 0
    for block in blocks:
        if not isinstance(block, (OffDiagBlock, Real1Block)):
            raise InputError(f"unknown block type: {type(block).__name__}")
        key = _block_key(block)
        if prev is not None and key < prev:
            if key[0] < prev[0]:
                raise InputError("2x2 blocks must precede all 1x1 blocks")
            if key[0] == 0:
                raise InputError(
                    "2x2 blocks must be sorted by descending |s|, ties by ascending arg(s)"
                )
            raise InputError("1x1 blocks must be sorted by ascending sigma")
        prev = key
        if key[0] == 0:
            pairs += block.multiplicity
    return pairs


def _block_values(blocks) -> tuple[list[complex], list[float]]:
    """The s of every 2x2 block and the sigma of every 1x1 block, each
    repeated by its multiplicity, in block order."""
    svals = []
    sigmas = []
    for block in blocks:
        if isinstance(block, OffDiagBlock):
            svals.extend([complex(block.s)] * block.multiplicity)
        else:
            sigmas.extend([float(block.sigma)] * block.multiplicity)
    return svals, sigmas


def assemble_sigma(blocks) -> np.ndarray:
    """Dense Sigma for a block sequence in collected order.

    The 2x2 blocks are interleaved across the two off-diagonals of the
    leading 2p x 2p sector (entry (j, p+j) holds s_j), then the 1x1 sigmas
    sit on the trailing diagonal.  The result is Hermitian by construction.
    """
    blocks = tuple(blocks)
    pairs = _check_block_order(blocks)
    svals, sigmas = _block_values(blocks)
    dim = 2 * pairs + len(sigmas)
    sigma = np.zeros((dim, dim), dtype=np.complex128)
    for j, s in enumerate(svals):
        sigma[j, pairs + j] = s
        sigma[pairs + j, j] = np.conj(s)
    for r, value in enumerate(sigmas):
        sigma[2 * pairs + r, 2 * pairs + r] = value
    return sigma


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Result of the normal-form construction.

    u
        Unitary factor; columns are ordered to match ``blocks`` (all first
        members of the 2x2 pairs, then all second members in the same order,
        then the 1x1 columns).  Held read-only: taken as given when it is
        read-only and owns its memory, copied otherwise.
    blocks
        Canonically sorted block sequence.
    conjugate_normal_residual, reconstruction_residual
        The input's :func:`is_conjugate_normal` residual and ``||A - U Sigma
        U^T||_F``, both checked by :func:`wigner_normal_form`.
    half_dim, det_u
        Derived, never passed in: the number p of 2x2 pairs with multiplicity
        (dim/2 without 1x1 blocks), and det(u), computed on first read.
    """

    u: np.ndarray
    blocks: tuple
    conjugate_normal_residual: float
    reconstruction_residual: float
    half_dim: int = field(init=False)

    def __post_init__(self):
        u = _frozen(as_square_matrix(self.u))
        object.__setattr__(self, "u", u)
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        pairs = _check_block_order(blocks)
        object.__setattr__(self, "half_dim", pairs)
        dim = 2 * pairs + sum(
            b.multiplicity for b in blocks if isinstance(b, Real1Block)
        )
        if u.shape[0] != dim:
            raise InputError(
                f"u has dimension {u.shape[0]} but blocks describe dimension {dim}"
            )

    @functools.cached_property
    def det_u(self) -> complex:
        return det_lu(self.u)


def reconstruct(nf: NormalForm) -> np.ndarray:
    """U Sigma U^T for a normal form, as one product ``(U Sigma) U^T``.

    Sigma has one non-zero per column, so U Sigma is a gather and scaling of
    U's columns in O(n^2) and no dense Sigma is built: column j < p is
    ``conj(s_j) u_(p+j)``, column p + j is ``s_j u_j`` and a 1x1 column is
    ``sigma u``.
    """
    return _reconstruct(nf.u, nf.blocks)


def _reconstruct(u: np.ndarray, blocks) -> np.ndarray:
    """:func:`reconstruct` for blocks already in canonical order."""
    svals, sigmas = _block_values(blocks)
    pairs = len(svals)
    order = np.concatenate(
        [np.arange(pairs, 2 * pairs), np.arange(pairs), np.arange(2 * pairs, u.shape[1])]
    )
    scale = np.concatenate([np.conj(svals), svals, sigmas]).astype(np.complex128)
    u_sigma = u[:, order]
    u_sigma *= scale
    return u_sigma @ u.T


def is_conjugate_normal(a, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether A^T A* = A A^H within tolerance; returns (flag, residual).

    The residual is ``||A^T A* - A A^H||_F / ||A||_F^2`` (0 for the zero
    matrix), compared against ``tol.eig_residual``.  It is taken on A times
    a power of two near ``1 / max |a_ij|`` (:func:`_unit_scaled`), so it is
    bit for bit that of A wherever A's own Gram products stay normal
    doubles, and no product overflows at any scale of A.
    """
    try:
        unit, _ = _unit_scaled(as_square_matrix(a))
        defects = _gram_defects(unit, _direct_blocks(unit))
        residual, _ = _require_conjugate_normal(unit, tol, defects)
    except NotConjugateNormalError as exc:
        return False, exc.residual
    return True, residual


@np.errstate(over="ignore", invalid="ignore")
def _require_conjugate_normal(
    m: np.ndarray, tol: Tolerances, defects: list[float]
) -> tuple[float, float]:
    """The conjugate-normality guard: returns ``(residual, ||A||_F)`` or raises
    :class:`NotConjugateNormalError` carrying the residual.  A norm or Gram
    difference (:func:`_gram_defect`, silent too) that overflows gives an
    inf or nan residual, which fails.

    ``defects`` are the Gram defects of A's diagonal blocks
    (:func:`_gram_defects`).  Where A is their direct sum up to a symmetric
    permutation, so is its Gram difference, whose norm is the root of the
    sum of the blocks' squares: the one residual of the one rule."""
    norm = float(np.linalg.norm(m))
    residual = math.hypot(*defects) / max(norm * norm, np.finfo(float).tiny)
    return _guard(residual, tol), norm


def _gram_defects(m: np.ndarray, blocks: list[np.ndarray] | None) -> list[float]:
    """:func:`_gram_defect` of each diagonal block of ``m`` on the index sets
    ``blocks`` (:func:`~wignerpf.pfaffian._direct_blocks`), or of ``m`` whole
    where that is None: each block takes its own two Gram triangles."""
    parts = [m] if blocks is None else [_diagonal_block(m, block) for block in blocks]
    return [_gram_defect(part) for part in parts]


@np.errstate(over="ignore", invalid="ignore")
def _gram_defect(m: np.ndarray) -> float:
    """``||A^T A* - A A^H||_F``: with X = A^T, X X^H = A^T A* and X^H X =
    conj(A A^H), one Gram triangle each."""
    defect = _gram(m.T)
    defect -= np.conj(_gram(m.T, adjoint_first=True))
    return _hermitian_norm(defect)


def _guard(residual: float, tol: Tolerances) -> float:
    """The one rule of the conjugate-normality guard, whichever way its
    relative residual ``||A^T A* - A A^H||_F / ||A||_F^2`` was measured:
    returns it, or raises :class:`NotConjugateNormalError` carrying it where
    it exceeds ``tol.eig_residual`` or is nan."""
    if not residual <= tol.eig_residual:
        raise NotConjugateNormalError(
            f"matrix is not conjugate-normal: residual {residual:.3e} exceeds "
            f"{tol.eig_residual:.1e}",
            residual=residual,
        )
    return residual


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, d, Y^H)`` of ``m`` from LAPACK's divide and conquer ``gesdd``, or
    from ``gesvd`` when ``gesdd`` does not converge."""
    try:
        return scipy.linalg.svd(m, lapack_driver="gesdd", check_finite=False)
    except scipy.linalg.LinAlgError:
        return scipy.linalg.svd(m, lapack_driver="gesvd", check_finite=False)


def _singular_groups(m: np.ndarray, tol: Tolerances):
    """One SVD ``A = X D Y^H`` of a square ``m`` (:func:`_svd`), the guard read
    off it, and the descending d split into groups wherever a gap exceeds
    ``_GROUP_RTOL * d_1``: returns ``(X, d, W, residual, starts, stops)``,
    with ``W = Y^H conj(X)`` and group J the indices ``starts[J]:stops[J]``.

    ``A^T A* - A A^H = conj(Y) [D^2, conj(W)] X^H``, so the guard's residual
    is ``||(delta_i^2 - delta_j^2) W_ij||_F / sum delta^2`` on ``delta = d /
    d_1`` (0 for the zero matrix), held to ``tol.eig_residual`` by the rule
    the Gram form shares; taken on delta, none of its norms overflows.  A
    group's left singular space is spanned by U's columns for the blocks with
    ``|s|`` (or sigma) in it and its right one by their conjugates, so ``C =
    X^H A conj(X) = D W`` is block diagonal over the groups."""
    x, d, yh = _svd(m)
    w = yh @ x.conj()
    delta = d / d[0] if d[0] else d
    square = delta * delta
    commutator = float(np.linalg.norm(w * (square[:, None] - square)))
    residual = _guard(commutator / max(float(square.sum()), np.finfo(float).tiny), tol)
    stops = np.append(np.flatnonzero(d[:-1] - d[1:] > _GROUP_RTOL * d[0]) + 1, len(d))
    return x, d, w, residual, np.concatenate(([0], stops[:-1])), stops


@dataclass(frozen=True)
class SpectralCluster:
    """One clustered eigenvalue of Lambda = A conj(A).

    ``kind`` is its spectral class: :data:`COMPLEX_PAIR`,
    :data:`NEGATIVE_REAL`, :data:`POSITIVE_REAL` or :data:`ZERO`.
    ``partner`` is the index of the conjugate cluster for complex pairs
    (None for real clusters).  ``mu`` is the common eigenvalue of
    M = A^T A* on the cluster subspace, which must equal |omega|.
    ``columns`` indexes the cluster's eigenvectors inside
    :attr:`SpectralPairing.vectors`; ``multiplicity`` is their count.
    """

    omega: complex
    kind: str
    partner: int | None
    mu: float
    columns: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class SpectralPairing:
    """Clustered, classified and paired spectrum of Lambda = A conj(A), with
    ``images = A conj(vectors)`` (the antilinear map x -> A conj(x) applied
    to every eigenvector; same shape as ``vectors``), the
    :func:`is_conjugate_normal` residual of A and ``frobenius_norm``, the
    ||A||_F that set the cluster threshold.  ``vectors`` are the eigensolver's
    own (no phase convention); both arrays are held read-only: taken as given
    when read-only and owning their memory, as :func:`classify_spectrum`
    passes them, copied otherwise."""

    clusters: tuple[SpectralCluster, ...]
    vectors: np.ndarray
    images: np.ndarray
    conjugate_normal_residual: float
    frobenius_norm: float

    def __post_init__(self):
        v = _frozen(as_square_matrix(self.vectors))
        object.__setattr__(self, "vectors", v)
        images = as_square_matrix(self.images)
        if images.shape != v.shape:
            raise InputError(
                f"images shape {images.shape} does not match vectors shape {v.shape}"
            )
        object.__setattr__(self, "images", _frozen(images))
        object.__setattr__(self, "clusters", tuple(self.clusters))


def _cluster_indices(values: np.ndarray, threshold: float) -> list[list[int]]:
    """Group eigenvalues into connected components at the given distance
    (single linkage, order independent; :func:`~wignerpf.linalg._components`),
    in order of their smallest index, members ascending."""
    close = np.abs(values[:, None] - values[None, :]) <= threshold
    close.flat[:: len(values) + 1] = True  # a nan is its own component
    labels = _components(close)
    order = np.argsort(labels, kind="stable").tolist()
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def classify_spectrum(a, tol: Tolerances = DEFAULT_TOL) -> SpectralPairing:
    """Cluster and classify the spectrum of Lambda = A conj(A).

    One threshold ``t = tol.cluster * ||A||^2`` makes every decision, so 2^j A
    gives A's clusters with every omega and mu scaled by 4^j.  Eigenvalues
    within t of each other are merged.  A cluster's representative omega is
    "zero" when ``|omega| <= t``, else "complex" (one half of a conjugate
    pair) when it is farther than t from its conjugate (``2 |Im omega| >
    t``), else "positive-real" or "negative-real" by the sign of Re omega,
    which noise cannot flip (``|Re omega| > (sqrt(3)/2) t`` there).  Complex
    clusters are matched with their partner, which must exist with equal
    multiplicity.  The common
    M = A^T A* eigenvalue ``mu`` of every cluster is computed and verified
    to equal |omega|; it is read from the images ``A conj(v)`` of the
    eigenvectors, since ``v^H M v = ||A conj(v)||^2``.

    Raises :class:`NotConjugateNormalError` for input failing the guard,
    :class:`NotNormalError` when the eigensolver finds Lambda not normal, and
    :class:`SpectralConsistencyError` when the clusters violate the constraints
    above (odd negative-real multiplicity, unmatched complex pair, mu mismatch).
    Raises :class:`InputError` when ``tol.cluster < tol.eig_residual``: a
    resolution finer than the eigen-residual would split noise.
    """
    _require_resolution(tol)
    m = as_square_matrix(a)
    cn_residual, norm = _require_conjugate_normal(m, tol, [_gram_defect(m)])
    clusters, vectors, images = _clusters(m, m @ m.conj(), tol.cluster_threshold(norm), tol)
    return SpectralPairing(clusters, vectors, images, cn_residual, norm)


def _require_resolution(tol: Tolerances) -> None:
    """The one rule that ties the two knobs: a resolution finer than the
    eigen-residual would split noise."""
    if tol.cluster < tol.eig_residual:
        raise InputError("cluster tolerance must be at least the eigen-residual tolerance")


def _clusters(m: np.ndarray, lam: np.ndarray, threshold: float, tol: Tolerances):
    """:func:`classify_spectrum` of a square ``m`` at a given threshold, from
    its ``lam = m conj(m)`` and with no guard: returns ``(clusters, vectors,
    images)``."""
    values, vectors = eig_normal(lam, tol)
    images = m @ vectors.conj()
    # both are fresh: the pairing holds them without a copy
    vectors.flags.writeable = images.flags.writeable = False
    # Rayleigh quotient v^H M v = ||A conj(v)||^2 of M = A^T A* on every eigenvector
    rayleigh = np.sum(images.real**2 + images.imag**2, axis=0)

    groups = _cluster_indices(values, threshold)
    # an isolated eigenvalue is its own mean, read by index
    firsts = [g[0] for g in groups]
    reps, mus = values[firsts], rayleigh[firsts]
    for i, group in enumerate(groups):
        if len(group) > 1:
            reps[i], mus[i] = np.mean(values[group]), np.mean(rayleigh[group])
    order = np.lexsort((reps.imag, reps.real))  # stable: ties keep group order
    groups = [groups[i] for i in order]
    reps, mus = reps[order].tolist(), mus[order].tolist()

    kinds = []
    for group, omega, mu in zip(groups, reps, mus):
        if abs(mu - abs(omega)) > threshold:
            raise SpectralConsistencyError(
                f"cluster at omega={omega:.6g} has mu={mu:.6g} != |omega|; "
                "the spectra of A conj(A) and A^T A* are inconsistent"
            )
        # zero first: a zero eigenvalue's rounding noise scales with
        # ||A||^2, not with |omega|
        if abs(omega) <= threshold:
            kind = ZERO
        elif 2.0 * abs(omega.imag) > threshold:
            kind = COMPLEX_PAIR
        elif omega.real > 0.0:
            kind = POSITIVE_REAL
        else:
            kind = NEGATIVE_REAL
            if len(group) % 2:
                raise SpectralConsistencyError(
                    f"negative real eigenvalue {omega.real:.6g} has odd "
                    f"multiplicity {len(group)}"
                )
        kinds.append(kind)

    # a complex cluster's partner is the cluster nearest its conjugate, and
    # that choice must be mutual (the distance matrix is symmetric)
    complex_ids = [i for i, kind in enumerate(kinds) if kind == COMPLEX_PAIR]
    omegas = np.array([reps[i] for i in complex_ids], dtype=np.complex128)
    dist = np.abs(omegas[None, :] - omegas.conj()[:, None])
    np.fill_diagonal(dist, np.inf)
    nearest = dist.argmin(axis=1).tolist() if complex_ids else []
    partners: list[int | None] = [None] * len(groups)
    for k, best in enumerate(nearest):
        i, j = complex_ids[k], complex_ids[best]
        if dist[k, best] > threshold or nearest[best] != k:
            raise SpectralConsistencyError(
                f"complex eigenvalue {reps[i]:.6g} has no conjugate partner "
                "in the spectrum"
            )
        if len(groups[j]) != len(groups[i]):
            raise SpectralConsistencyError(
                f"conjugate eigenvalues {reps[i]:.6g} have mismatched "
                f"multiplicities {len(groups[i])} vs {len(groups[j])}"
            )
        partners[i] = j

    clusters = tuple(
        SpectralCluster(omega, kind, partner, mu, tuple(group))
        for group, omega, kind, partner, mu in zip(groups, reps, kinds, partners, mus)
    )
    return clusters, vectors, images


def _fixed_basis(c: np.ndarray) -> np.ndarray:
    """Orthonormal fixed vectors y = C conj(y) of a unitary symmetric C, or of
    each member of a ``(G, d, d)`` stack: with y = p + i q, the +1
    eigenvectors of the involution [[Re C, Im C], [Im C, -Re C]] (eigenvalues
    +-1, gap 2).  Inner products of fixed vectors are real once C is exactly
    symmetric, so orthonormal (p, q) give orthonormal y."""
    d = c.shape[-1]
    c = (c + np.swapaxes(c, -1, -2)) / 2.0
    top = np.concatenate([c.real, c.imag], axis=-1)
    bottom = np.concatenate([c.imag, -c.real], axis=-1)
    _, vecs = np.linalg.eigh(np.concatenate([top, bottom], axis=-2))
    return vecs[..., :d, d:] + 1j * vecs[..., d:, d:]


def _oriented(frame: np.ndarray, kind: str) -> np.ndarray:
    """``frame`` with column 0 rescaled in place so that its minor on the pivot
    rows of a pivoted QR of frame^H (rows set by span(frame) alone) has a positive
    determinant (zero: any unitary mix is free) or one of positive real part
    (positive-real fixed vectors: only a sign is free)."""
    _, pivots = scipy.linalg.qr(frame.conj().T, mode="r", pivoting=True, check_finite=False)
    phase, _ = np.linalg.slogdet(frame[pivots[: frame.shape[1]]])
    if kind == ZERO:
        frame[:, 0] *= phase.conjugate()
    elif phase.real < 0:
        frame[:, 0] *= -1.0
    return frame


def _orthonormalize(v: np.ndarray, found: np.ndarray) -> np.ndarray:
    """v minus its part along the orthonormal columns ``found``, normalized."""
    v = v - found @ (found.conj().T @ v)
    return v / np.linalg.norm(v)


def _symplectic_basis(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pairs (x_k, i C conj(x_k)) spanning C^d for a unitary skew C.

    x is orthogonal to i C conj(x) and a pair's orthocomplement maps into
    itself, so Gram-Schmidt adding one pair per step spans C^d in O(d^3): pivot
    on the largest diagonal p of 1 - Q Q^H (kept in O(d) per pair), take its
    column ``e_p - Q conj(Q[p])`` from Q (column-major), orthogonalize again."""
    d = c.shape[0]
    q = np.zeros((d, d), dtype=np.complex128, order="F")  # x_0, w_0, x_1, w_1, ...
    residual = np.ones(d)  # the diagonal of 1 - Q Q^H
    for k in range(0, d, 2):
        p = int(np.argmax(residual))
        pivot = np.eye(1, d, p, dtype=np.complex128)[0] - q[:, :k] @ q[p, :k].conj()
        x = q[:, k] = _orthonormalize(pivot, q[:, :k])
        q[:, k + 1] = _orthonormalize(1j * (c @ x.conj()), q[:, : k + 1])
        residual -= np.sum(np.abs(q[:, k : k + 2]) ** 2, axis=1)
    return q[:, 0::2], q[:, 1::2]


def _cluster_columns(cluster: SpectralCluster, basis: np.ndarray, image: np.ndarray):
    """The block of one cluster and its U columns ``(block, V, W or None)``,
    from an orthonormal eigenbasis B of the cluster and its image
    ``A conj(B)``; zero and positive-real columns are not yet oriented."""
    block = _block(cluster.kind, cluster.omega, cluster.multiplicity)
    if cluster.kind == COMPLEX_PAIR:
        return block, basis, (block.s / cluster.mu) * image
    if cluster.kind == ZERO:
        return block, basis, None
    # real omega != 0: factor the restricted map C
    root = block.s.imag if cluster.kind == NEGATIVE_REAL else block.sigma
    c = basis.conj().T @ image / root
    if cluster.kind == NEGATIVE_REAL:
        xs, ws = _symplectic_basis(c)
        return block, basis @ xs, basis @ ws
    return block, basis @ _fixed_basis(c), None


def _pair_pieces(x: np.ndarray, d: np.ndarray, c: np.ndarray, starts: np.ndarray, root: float):
    """The complex pairs among the 2 x 2 groups at ``starts``, found and
    factored as one stack: returns their pieces and their starts.

    A 2 x 2 ``C = Z [[0, s], [conj(s), 0]] Z^T`` with ``Z = [v, w]`` unitary
    has the symmetric part ``Re(s) (v w^T + w v^T)``, of norm ``sqrt(2)
    Re(s)``, and the skew part ``i Im(s) det(Z) J``.  So s has the phase of
    ``||(C + C^T) / 2|| / sqrt(2) + i |C_01 - C_10| / 2`` and the mean d as
    its modulus, and the group is a pair where ``2 |Im s^2| > t``.  Z is the
    fixed basis of the symmetric part over ``Re(s)``, times ``Q^H`` (``Q Q^T
    = [[0, 1], [1, 0]]``), reflected where its determinant has the wrong
    sign; nearer the negative real axis (``Im s >= Re s``), where that
    determinant carries more of C, its phase is set to the skew part's.
    Each part is read at its own scale, so no pair near either real axis
    loses digits to the other, and every test is taken on ``C / |s|`` with
    ``root = sqrt(t)``, so no square leaves the double range.  The columns
    are ``X_J v`` and ``X_J w``.  (The cluster pipeline, which takes v from
    an eigenvector of ``C conj(C)``, loses the pairs between about 3e-8 and
    1e-6 rad from the positive real axis.)"""
    index = starts[:, None] + np.arange(2)
    modulus = d[index].mean(axis=1)
    blocks = c[index[:, :, None], index[:, None, :]] / modulus[:, None, None]
    sym = (blocks + blocks.transpose(0, 2, 1)) / 2.0
    skew = (blocks[:, 0, 1] - blocks[:, 1, 0]) / 2.0
    real = np.linalg.norm(sym, axis=(1, 2)) * _SQRT_HALF
    unit = (real + 1j * abs(skew)) / np.hypot(real, abs(skew))
    pair = 2.0 * abs((unit * unit).imag) > (root / modulus) ** 2
    index, sym, skew, real, unit, modulus = (
        index[pair], sym[pair], skew[pair], real[pair], unit[pair], modulus[pair]
    )
    y = _fixed_basis(sym / real[:, None, None])
    target = skew / (1j * abs(skew))  # det(Z)
    det_z = (y[:, 0, 0] * y[:, 1, 1] - y[:, 0, 1] * y[:, 1, 0]) * 1j  # det(Q^H) = i
    flip = abs(det_z - target) > abs(det_z + target)
    y[flip, :, 1] *= -1.0
    det_z[flip] *= -1.0
    z = y @ _Q_ADJOINT
    skewed = unit.imag >= unit.real
    z[skewed] *= np.sqrt(target[skewed] / det_z[skewed])[:, None, None]
    columns = x[:, index]  # (n, G, 2)
    vs = np.einsum("ngk,gk->ng", columns, z[:, :, 0])
    ws = np.einsum("ngk,gk->ng", columns, z[:, :, 1])
    pieces = [
        (OffDiagBlock(complex(value), 1), vs[:, g : g + 1], ws[:, g : g + 1])
        for g, value in enumerate((modulus * unit).tolist())
    ]
    return pieces, starts[pair]


def _group_pieces(c: np.ndarray, modulus: float, root: float, tol):
    """``(pieces, zeros)`` of one group's block ``C_J`` with mean singular value
    ``modulus``, in the group's own coordinates: a ``(block, V, W or None)``
    piece for every cluster but the zero ones and the Im < 0 halves of
    complex pairs, and the zero clusters' columns; positive-real columns are
    not yet oriented.  ``root`` is ``sqrt(t)``.

    Every product is taken on ``C_J 2^-f``, f the exponent of ``modulus``, so
    none leaves the double range before A's entries do, and ``L = C_J
    conj(C_J) 4^-f`` is formed once.  Where every eigenvalue of L lies within
    ``t 4^-f / 2`` of ``+-(modulus 2^-f)^2`` (``||L -+ (modulus 2^-f)^2|| <=
    t 4^-f / 2``), the clusters would be one real cluster, whose mean omega
    ``tr(L) / k`` is not zero: ``C_J / modulus`` is then factored at once, by
    :func:`_fixed_basis` or :func:`_symplectic_basis`.  Any other group takes
    the cluster pipeline on L at A's threshold, and its blocks are scaled
    back: its columns and decisions are those of ``C_J``, bit for bit."""
    k = c.shape[0]
    f = math.frexp(modulus)[1]
    scaled = _times_power_of_two(c, -f)
    lam = scaled @ scaled.conj()
    omega = complex(np.trace(lam)) / k
    sign = 1.0 if omega.real > 0.0 else -1.0
    diagonal = lam.diagonal().copy()
    lam.flat[:: k + 1] -= sign * math.ldexp(modulus, -f) ** 2
    threshold = math.ldexp(root, -f) ** 2
    one_class = abs(omega) > threshold and float(np.linalg.norm(lam)) <= threshold / 2.0
    # a negative-real eigenvalue has even multiplicity: an odd group that
    # seems to be one goes to the pipeline, which raises on it
    if one_class and (sign > 0.0 or k % 2 == 0):
        if sign > 0.0:
            return [(Real1Block(modulus, k), _fixed_basis(c / modulus), None)], []
        xs, ws = _symplectic_basis(c / modulus)
        return [(OffDiagBlock(1j * modulus, k // 2), xs, ws)], []
    lam.flat[:: k + 1] = diagonal
    clusters, vectors, images = _clusters(scaled, lam, threshold, tol)
    pieces, zeros = [], []
    for cluster in clusters:
        if cluster.kind == COMPLEX_PAIR and cluster.omega.imag < 0:
            continue  # handled through the Im > 0 partner
        columns = list(cluster.columns)
        block, v, w = _cluster_columns(cluster, vectors[:, columns], images[:, columns])
        if cluster.kind == ZERO:
            zeros.append(v)
        elif w is None:
            pieces.append((Real1Block(math.ldexp(block.sigma, f), block.multiplicity), v, None))
        else:
            s = _times_power_of_two(block.s, f)
            pieces.append((OffDiagBlock(s, block.multiplicity), v, w))
    return pieces, zeros


def wigner_normal_form(a, tol: Tolerances = DEFAULT_TOL) -> NormalForm:
    """Construct the normal form A = U Sigma U^T of a conjugate-normal A.

    U is built from A's groups of equal singular values: each group J with
    singular vectors X_J has the block ``C_J = X_J^H A conj(X_J)`` of ``C =
    X^H A conj(X)``, whose normal form ``Z_J`` gives the columns ``X_J Z_J``.
    A = c V with V unitary has equal column norms and one group, ``X = 1``
    and ``C = A``.  Where A's column norms agree to within ``_GROUP_RTOL``
    (compared at unit scale, so at any scale of A), A is taken as that one
    group, with mean singular value ``||A||_F / sqrt(n)`` and the guard's Gram
    form on A times a power of two (:func:`_require_conjugate_normal`).  Any
    other A takes one SVD and the guard read off it
    (:func:`_singular_groups`), with ``C = D W`` and ``||A||_F = d_1 ||d /
    d_1||``; a group of those is zero when its largest d has ``d^2 <= t``,
    and the complex pairs among its 2 x 2 groups are found and factored as
    one stack (:func:`_pair_pieces`).  Every other group, A's one group
    among them, is factored by :func:`_group_pieces`:

    1. a group of k columns and one real class is factored at once, as ``C =
       C_J / d`` with d its mean singular value: for omega < 0, C is skew
       and a pivoted symplectic Gram-Schmidt yields k/2 column pairs (x, i C
       conj(x)) with ``s = i d``; for omega > 0, C is symmetric and one
       symmetric eigensolve of size 2k yields k columns y = C conj(y),
       sigma = d, unique up to a real orthogonal mix;
    2. any other group takes the cluster pipeline on ``L = C_J conj(C_J)``:
       a complex pair omega (the Im > 0 member is used) with orthonormal
       eigenbasis V yields partner columns ``W = (s / mu) C_J conj(V)`` with
       ``s = sqrt(omega)``; a real omega != 0 with eigenbasis B gives the
       restricted map ``B^H C_J conj(B) / sqrt(|omega|)``, factored as in
       step 1; a zero cluster contributes its eigenbasis with sigma = 0.

    Every decision is taken on the threshold ``t = tol.cluster *
    ||A||_F^2``; a block's ``|s|`` or sigma is the mean d of its group, or on
    the pipeline ``sqrt(|omega|)`` of its cluster.  The loop maps each
    group's columns through X_J (not for A's one group) and orients its
    positive-real frames, whose sign :func:`_oriented` fixes from their span;
    the zero columns of every group form one frame whose phase it fixes, so
    det(U) is a function of A.  The blocks are then sorted canonically (2x2
    first, by descending |s| with ties by ascending arg(s); then 1x1 by
    ascending sigma), the columns of U are permuted to match, and unitarity
    of U plus the reconstruction residual are verified before returning;
    the residual is taken as ``2^e ||(A - U Sigma U^T) 2^-e||``, e from A's
    largest entry, so it neither underflows to 0 nor overflows at any scale
    of A.  ``conjugate_normal_residual`` is the Gram form of the guard's
    residual for A's one group and the SVD form otherwise.
    """
    _require_resolution(tol)
    m = as_square_matrix(a)
    dim = m.shape[0]
    # the column norms of A times a power of two near 1 / max |a_ij|: exact,
    # and no square leaves the double range at any scale of A
    unit, exponent = _unit_scaled(m)
    squares = np.einsum("ij,ij->j", unit.real, unit.real) + np.einsum(
        "ij,ij->j", unit.imag, unit.imag
    )
    if squares.min() >= (1.0 - _GROUP_RTOL) ** 2 * squares.max():
        # one group, X = 1 and C = A: the Gram guard and ||A||_F at unit scale
        cn_residual, norm = _require_conjugate_normal(
            unit, tol, _gram_defects(unit, _direct_blocks(unit))
        )
        del unit
        norm = math.ldexp(norm, exponent)
        root = math.sqrt(tol.cluster) * norm
        pieces, zeros, groups = [], [], [(None, m, norm / math.sqrt(dim))]
    else:
        del unit
        x, d, c, cn_residual, starts, stops = _singular_groups(m, tol)
        norm = float(d[0]) * float(np.linalg.norm(d / d[0]))
        # sqrt(t): each test compares omega with t at its group's scale, so
        # that no square leaves the double range before A's entries do
        root = math.sqrt(tol.cluster) * norm
        c *= d[:, None]  # C = D W, in W's place
        nonzero = d[starts] > root
        pieces, paired = _pair_pieces(x, d, c, starts[nonzero & (stops - starts == 2)], root)
        zeros = [x[:, lo:hi] for lo, hi in zip(starts[~nonzero], stops[~nonzero])]
        rest = nonzero & ~np.isin(starts, paired)
        groups = [
            (x[:, lo:hi], c[lo:hi, lo:hi], float(np.mean(d[lo:hi])))
            for lo, hi in zip(starts[rest].tolist(), stops[rest].tolist())
        ]
    for frame, block, modulus in groups:
        more, more_zeros = _group_pieces(block, modulus, root, tol)
        if frame is not None:  # the group's columns X_J Z_J
            more = [(b, frame @ v, None if w is None else frame @ w) for b, v, w in more]
            more_zeros = [frame @ v for v in more_zeros]
        pieces += [
            (b, _oriented(v, POSITIVE_REAL) if w is None else v, w) for b, v, w in more
        ]
        zeros += more_zeros

    # each piece: (block, V columns, W columns of a 2x2 block or None)
    if zeros:
        frame = _oriented(np.column_stack(zeros), ZERO)
        pieces.append((Real1Block(0.0, frame.shape[1]), frame, None))
    pieces.sort(key=lambda g: _block_key(g[0]))
    pairs = [g for g in pieces if g[2] is not None]
    columns = [g[1] for g in pairs] + [g[2] for g in pairs]
    columns += [g[1] for g in pieces if g[2] is None]
    u_mat = np.column_stack(columns)
    u_mat.flags.writeable = False  # fresh: the NormalForm holds it without a copy

    defect = unitarity_defect(u_mat)
    if defect > _UNITARITY_RTOL * math.sqrt(dim):
        raise SpectralConsistencyError(
            f"normal-form U is not unitary within tolerance: defect {defect:.3e} "
            f"exceeds {_UNITARITY_RTOL:.1e} * sqrt({dim})"
        )

    blocks = tuple(g[0] for g in pieces)
    difference = m - _reconstruct(u_mat, blocks)
    _times_power_of_two(difference, -exponent, out=difference)
    residual = math.ldexp(float(np.linalg.norm(difference)), exponent)
    if residual > _RECONSTRUCT_RTOL * norm:
        raise ReconstructionError(
            f"||A - U Sigma U^T|| = {residual:.3e} exceeds "
            f"{_RECONSTRUCT_RTOL:.1e} * ||A||; the input is likely further from "
            "conjugate-normal than the tolerances assume"
        )
    return NormalForm(u_mat, blocks, cn_residual, residual)

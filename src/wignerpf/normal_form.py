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
The package's one conjugate-normality guard lives here as well; it measures
||A||_F, which :func:`classify_spectrum` reuses for its thresholds and
:func:`wigner_normal_form` for its reconstruction check.
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
    _frozen,
    _gram,
    _hermitian_norm,
    as_square_matrix,
    det_lu,
    eig_normal,
    unitarity_defect,
)

#: the spectral classes of a Lambda-eigenvalue omega, named as in the
#: spectrum-prescription format; each fixes the block omega contributes
COMPLEX_PAIR = "complex"
NEGATIVE_REAL = "negative-real"
POSITIVE_REAL = "positive-real"
ZERO = "zero"

#: bounds of ||U^H U - 1|| / sqrt(dim) and ||A - U Sigma U^T|| / ||A||
_UNITARITY_RTOL = 1e-10
_RECONSTRUCT_RTOL = 1e-9


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
    matrix), compared against ``tol.eig_residual``.
    """
    try:
        residual, _ = _require_conjugate_normal(as_square_matrix(a), tol)
    except NotConjugateNormalError as exc:
        return False, exc.residual
    return True, residual


@np.errstate(over="ignore", invalid="ignore")
def _require_conjugate_normal(m: np.ndarray, tol: Tolerances) -> tuple[float, float]:
    """The conjugate-normality guard: returns ``(residual, ||A||_F)`` or raises
    :class:`NotConjugateNormalError` carrying the residual.  A norm or Gram
    difference that overflows gives an inf or nan residual, which fails."""
    norm = float(np.linalg.norm(m))
    # with X = A^T: X X^H = A^T A* and X^H X = conj(A A^H), one Gram triangle each
    defect = _gram(m.T)
    defect -= np.conj(_gram(m.T, adjoint_first=True))
    residual = _hermitian_norm(defect) / max(norm * norm, np.finfo(float).tiny)
    if not residual <= tol.eig_residual:
        raise NotConjugateNormalError(
            f"matrix is not conjugate-normal: residual {residual:.3e} exceeds "
            f"{tol.eig_residual:.1e}",
            residual=residual,
        )
    return residual, norm


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
    (single linkage, order independent), in order of their smallest index,
    members ascending.  An eigenvalue close to no other is its own component;
    the others take their neighbours' least label, then that label's label,
    until none changes: each is then labelled by its component's least index."""
    close = np.abs(values[:, None] - values[None, :]) <= threshold
    labels = np.arange(len(values))
    linked = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
    close = close[linked][:, linked]
    roots = np.arange(len(linked))
    while len(roots):
        new = np.where(close, roots, len(roots)).min(axis=1)
        new = new[new]
        if np.array_equal(new, roots):
            break
        roots = new
    labels[linked] = linked[roots]
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
    if tol.cluster < tol.eig_residual:
        raise InputError("cluster tolerance must be at least the eigen-residual tolerance")
    m = as_square_matrix(a)
    cn_residual, norm = _require_conjugate_normal(m, tol)
    values, vectors = eig_normal(m @ m.conj(), tol)
    images = m @ vectors.conj()
    # both are fresh: the pairing holds them without a copy
    vectors.flags.writeable = images.flags.writeable = False
    # Rayleigh quotient v^H M v = ||A conj(v)||^2 of M = A^T A* on every eigenvector
    rayleigh = np.sum(images.real**2 + images.imag**2, axis=0)

    threshold = tol.cluster_threshold(norm)
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
    return SpectralPairing(clusters, vectors, images, cn_residual, norm)


def _fixed_basis(c: np.ndarray) -> np.ndarray:
    """Orthonormal fixed vectors y = C conj(y) of a unitary symmetric C: with
    y = p + i q, the +1 eigenvectors of the involution [[Re C, Im C], [Im C,
    -Re C]] (eigenvalues +-1, gap 2).  Inner products of fixed vectors are
    real once C is exactly symmetric, so orthonormal (p, q) give orthonormal y."""
    d = c.shape[0]
    c = (c + c.T) / 2.0
    _, vecs = np.linalg.eigh(np.block([[c.real, c.imag], [c.imag, -c.real]]))
    return vecs[:d, d:] + 1j * vecs[d:, d:]


def _oriented(frame: np.ndarray, kind: str) -> np.ndarray:
    """``frame`` with column 0 rescaled in place so that its minor on the pivot
    rows of a pivoted QR of frame^H (rows set by span(frame) alone) has a positive
    determinant (zero: any unitary mix is free) or one of positive real part
    (positive-real fixed vectors: only a sign is free)."""
    _, pivots = scipy.linalg.qr(frame.conj().T, mode="r", pivoting=True)
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
    ``A conj(B)``."""
    block = _block(cluster.kind, cluster.omega, cluster.multiplicity)
    if cluster.kind == COMPLEX_PAIR:
        return block, basis, (block.s / cluster.mu) * image
    if cluster.kind == ZERO:
        return block, _oriented(basis, ZERO), None
    # real omega != 0: factor the restricted map C
    root = block.s.imag if cluster.kind == NEGATIVE_REAL else block.sigma
    c = basis.conj().T @ image / root
    if cluster.kind == NEGATIVE_REAL:
        xs, ws = _symplectic_basis(c)
        return block, basis @ xs, basis @ ws
    return block, _oriented(basis @ _fixed_basis(c), POSITIVE_REAL), None


def wigner_normal_form(a, tol: Tolerances = DEFAULT_TOL) -> NormalForm:
    """Construct the normal form A = U Sigma U^T of a conjugate-normal A.

    The construction walks the classified spectrum of Lambda = A conj(A),
    reading every image ``A conj(B)`` of an eigenbasis B from
    :attr:`SpectralPairing.images` (no further product with A):

    1. a complex pair omega (the Im > 0 member is used) with orthonormal
       eigenbasis V yields partner columns ``W = (s / mu) A conj(V)`` with
       ``s = sqrt(omega)``; (V, W) columns carry 2x2 blocks s;
    2. a real omega != 0 with orthonormal eigenbasis B (d columns) gives the
       restricted map ``C = B^H A conj(B) / sqrt(|omega|)``, and one
       factorization of C gives all d columns of the cluster;
    3. for omega < 0, C is skew and a pivoted symplectic Gram-Schmidt yields
       d/2 column pairs (B x, i B C conj(x)) with ``s = i sqrt(|omega|)``; for
       omega > 0, C is symmetric and one symmetric eigensolve of size 2d yields
       d columns B y, y = C conj(y), sigma = sqrt(omega), unique up to a real
       orthogonal mix, whose sign :func:`_oriented` fixes from their span;
    4. a zero cluster contributes its eigenbasis with sigma = 0, its phase
       fixed by :func:`_oriented`, so det(U) is a function of A.

    The blocks are then sorted canonically (2x2 first, by descending |s|
    with ties by ascending arg(s); then 1x1 by ascending sigma), the columns
    of U are permuted to match, and unitarity of U plus the reconstruction
    residual are verified before returning.
    """
    m = as_square_matrix(a)
    dim = m.shape[0]
    pairing = classify_spectrum(m, tol)
    cn_residual, norm = pairing.conjugate_normal_residual, pairing.frobenius_norm

    # each entry: (block, V columns, W columns of a 2x2 block or None)
    groups: list[tuple] = []
    for cluster in pairing.clusters:
        if cluster.kind == COMPLEX_PAIR and cluster.omega.imag < 0:
            continue  # handled through the Im > 0 partner
        basis = pairing.vectors[:, cluster.columns]
        image = pairing.images[:, cluster.columns]
        groups.append(_cluster_columns(cluster, basis, image))
    # V and A conj(V) are not needed past this point
    del pairing

    groups.sort(key=lambda g: _block_key(g[0]))
    pairs = [g for g in groups if g[2] is not None]
    columns = [g[1] for g in pairs] + [g[2] for g in pairs]
    columns += [g[1] for g in groups if g[2] is None]
    u_mat = np.column_stack(columns)
    u_mat.flags.writeable = False  # fresh: the NormalForm holds it without a copy

    defect = unitarity_defect(u_mat)
    if defect > _UNITARITY_RTOL * math.sqrt(dim):
        raise SpectralConsistencyError(
            f"normal-form U is not unitary within tolerance: defect {defect:.3e} "
            f"exceeds {_UNITARITY_RTOL:.1e} * sqrt({dim})"
        )

    blocks = tuple(g[0] for g in groups)
    residual = float(np.linalg.norm(m - _reconstruct(u_mat, blocks)))
    if residual > _RECONSTRUCT_RTOL * norm:
        raise ReconstructionError(
            f"||A - U Sigma U^T|| = {residual:.3e} exceeds "
            f"{_RECONSTRUCT_RTOL:.1e} * ||A||; the input is likely further from "
            "conjugate-normal than the tolerances assume"
        )
    return NormalForm(u_mat, blocks, cn_residual, residual)

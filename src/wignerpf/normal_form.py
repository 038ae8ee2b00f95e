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
entries on the diagonal.
The package's one conjugate-normality guard lives here as well; it forms
M = A^T A*, which :func:`classify_spectrum` reuses for its mu check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InputError,
    NotConjugateNormalError,
    ReconstructionError,
    SpectralConsistencyError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_square_matrix,
    det_lu,
    eig_normal,
    frobenius,
    unitarity_defect,
)

#: the spectral classes of a Lambda-eigenvalue omega, named as in the
#: spectrum-prescription format; each fixes the block omega contributes
COMPLEX_PAIR = "complex"
NEGATIVE_REAL = "negative-real"
POSITIVE_REAL = "positive-real"
ZERO = "zero"

#: threshold below which a column component is ignored when fixing the
#: eigenvector phase gauge (relative to the column's largest component)
_PHASE_GAUGE_RTOL = 1e-8


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
        return (0, -abs(block.s), np.angle(block.s))
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


def assemble_sigma(blocks) -> np.ndarray:
    """Dense Sigma for a block sequence in collected order.

    The 2x2 blocks are interleaved across the two off-diagonals of the
    leading 2p x 2p sector (entry (j, p+j) holds s_j), then the 1x1 sigmas
    sit on the trailing diagonal.  The result is Hermitian by construction.
    """
    blocks = tuple(blocks)
    pairs = _check_block_order(blocks)
    svals = []
    sigmas = []
    for block in blocks:
        if isinstance(block, OffDiagBlock):
            svals.extend([complex(block.s)] * block.multiplicity)
        else:
            sigmas.extend([float(block.sigma)] * block.multiplicity)
    dim = 2 * pairs + len(sigmas)
    sigma = np.zeros((dim, dim), dtype=np.complex128)
    for j, s in enumerate(svals):
        sigma[j, pairs + j] = s
        sigma[pairs + j, j] = np.conj(s)
    for r, value in enumerate(sigmas):
        sigma[2 * pairs + r, 2 * pairs + r] = value
    return sigma


@dataclass(frozen=True)
class NormalForm:
    """Result of the normal-form construction.

    u
        Unitary factor; columns are ordered to match ``blocks`` (all first
        members of the 2x2 pairs, then all second members in the same order,
        then the 1x1 columns).
    blocks
        Canonically sorted block sequence.
    half_dim
        Number of 2x2 pairs p (with multiplicity); for an even-dimensional
        matrix without 1x1 blocks this is dim/2.
    det_u
        Cached determinant of u.
    conjugate_normal_residual, reconstruction_residual
        The input's :func:`is_conjugate_normal` residual and ``||A - U Sigma
        U^T||_F``, both checked by :func:`wigner_normal_form`.
    """

    u: np.ndarray
    blocks: tuple
    half_dim: int
    det_u: complex
    conjugate_normal_residual: float
    reconstruction_residual: float

    def __post_init__(self):
        u = as_square_matrix(self.u).copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        pairs = _check_block_order(blocks)
        if pairs != self.half_dim:
            raise InputError(
                f"half_dim {self.half_dim} does not match the {pairs} pair(s) in blocks"
            )
        dim = 2 * pairs + sum(
            b.multiplicity for b in blocks if isinstance(b, Real1Block)
        )
        if u.shape[0] != dim:
            raise InputError(
                f"u has dimension {u.shape[0]} but blocks describe dimension {dim}"
            )


def reconstruct(nf: NormalForm) -> np.ndarray:
    """U Sigma U^T for a normal form."""
    sigma = assemble_sigma(nf.blocks)
    return nf.u @ sigma @ nf.u.T


def is_conjugate_normal(a, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether A^T A* = A A^H within tolerance; returns (flag, residual).

    The residual is ``||A^T A* - A A^H||_F / (1 + ||A||_F^2)``, compared
    against ``tol.eig_residual``.
    """
    try:
        _, residual = _require_conjugate_normal(as_square_matrix(a), tol)
    except NotConjugateNormalError as exc:
        return False, exc.residual
    return True, residual


def _require_conjugate_normal(m: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, float]:
    """The conjugate-normality guard: returns ``(A^T A*, residual)`` or raises
    :class:`NotConjugateNormalError` carrying the residual."""
    norm = frobenius(m)
    m_op = m.T @ m.conj()
    residual = float(np.linalg.norm(m_op - m @ m.conj().T) / (1.0 + norm * norm))
    if not residual <= tol.eig_residual:
        raise NotConjugateNormalError(
            f"matrix is not conjugate-normal: residual {residual:.3e} exceeds "
            f"{tol.eig_residual:.1e}",
            residual=residual,
        )
    return m_op, residual


def antisymmetric_part(a) -> np.ndarray:
    """(A - A^T) / 2."""
    m = as_square_matrix(a)
    return (m - m.T) / 2.0


@dataclass(frozen=True)
class SpectralCluster:
    """One clustered eigenvalue of Lambda = A conj(A).

    ``kind`` is its spectral class: :data:`COMPLEX_PAIR`,
    :data:`NEGATIVE_REAL`, :data:`POSITIVE_REAL` or :data:`ZERO`.
    ``partner`` is the index of the conjugate cluster for complex pairs
    (None for real clusters).  ``mu`` is the common eigenvalue of
    M = A^T A* on the cluster subspace, which must equal |omega|.
    ``columns`` indexes the cluster's eigenvectors inside
    :attr:`SpectralPairing.vectors`.
    """

    omega: complex
    multiplicity: int
    kind: str
    partner: int | None
    mu: float
    columns: tuple[int, ...]


@dataclass(frozen=True)
class SpectralPairing:
    """Clustered, classified and paired spectrum of Lambda = A conj(A), with
    the :func:`is_conjugate_normal` residual of A."""

    clusters: tuple[SpectralCluster, ...]
    vectors: np.ndarray
    conjugate_normal_residual: float

    def __post_init__(self):
        v = as_square_matrix(self.vectors).copy()
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "clusters", tuple(self.clusters))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Deterministic gauge: first significant component of each column made
    positive real.  Significant means > _PHASE_GAUGE_RTOL times the column's
    largest magnitude."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        idx = int(np.argmax(mags > _PHASE_GAUGE_RTOL * top))
        pivot = col[idx]
        out[:, k] = col * (np.conj(pivot) / abs(pivot))
    return out


def _cluster_indices(values: np.ndarray, threshold: float) -> list[list[int]]:
    """Group eigenvalues into connected components at the given distance
    (single linkage, order independent), in order of their smallest index,
    members ascending; each is grown from that index over a closeness matrix."""
    close = np.abs(values[:, None] - values[None, :]) <= threshold
    unassigned = np.ones(len(values), dtype=bool)
    groups = []
    while unassigned.any():
        member = np.zeros_like(unassigned)
        frontier = np.arange(len(values)) == np.argmax(unassigned)
        while frontier.any():
            member |= frontier
            frontier = close[frontier].any(axis=0) & ~member
        unassigned &= ~member
        groups.append(np.flatnonzero(member).tolist())
    return groups


def classify_spectrum(a, tol: Tolerances = DEFAULT_TOL) -> SpectralPairing:
    """Cluster and classify the spectrum of Lambda = A conj(A).

    Eigenvalues within ``tol.cluster * (1 + ||A||^2)`` of each other are
    merged.  Each cluster is labelled by its representative omega: "zero"
    when ``|omega|`` is within that same threshold, else "complex" (one half
    of a conjugate pair), "positive-real" or "negative-real" by the tests
    ``cluster * (1 + |omega|)`` on Im and Re.  Complex clusters are matched
    with their partner, which must exist with equal multiplicity.  The common
    M = A^T A* eigenvalue ``mu`` of every cluster is computed and verified
    to equal |omega|.

    Raises :class:`NotConjugateNormalError` for input failing the
    conjugate-normality test and :class:`SpectralConsistencyError` when the
    cluster structure violates the constraints above (odd negative-real
    multiplicity, unmatched complex cluster, mu mismatch).
    """
    m = as_square_matrix(a)
    m_op, cn_residual = _require_conjugate_normal(m, tol)
    norm = frobenius(m)
    lam = m @ m.conj()
    values, vectors = eig_normal(lam, tol)
    vectors = _fix_phases(vectors)
    # Rayleigh quotient of M = A^T A* on every eigenvector
    rayleigh = np.real(np.sum(vectors.conj() * (m_op @ vectors), axis=0))

    threshold = tol.cluster_threshold(norm)
    groups = _cluster_indices(values, threshold)
    reps = [complex(np.mean(values[g])) for g in groups]
    order = sorted(range(len(reps)), key=lambda i: (reps[i].real, reps[i].imag))

    clusters: list[SpectralCluster] = []
    for pos in order:
        group, omega = groups[pos], reps[pos]
        mu = float(np.mean(rayleigh[group]))
        if abs(mu - abs(omega)) > threshold:
            raise SpectralConsistencyError(
                f"cluster at omega={omega:.6g} has mu={mu:.6g} != |omega|; "
                "the spectra of A conj(A) and A^T A* are inconsistent"
            )
        # zero first, at the grouping threshold: a zero eigenvalue's rounding
        # noise scales with ||A||^2, not with |omega|
        scale = tol.cluster * (1.0 + abs(omega))
        if abs(omega) <= threshold:
            kind = ZERO
        elif abs(omega.imag) > scale:
            kind = COMPLEX_PAIR
        elif omega.real >= -scale:
            kind = POSITIVE_REAL
        else:
            kind = NEGATIVE_REAL
            if len(group) % 2:
                raise SpectralConsistencyError(
                    f"negative real eigenvalue {omega.real:.6g} has odd "
                    f"multiplicity {len(group)}"
                )
        clusters.append(SpectralCluster(omega, len(group), kind, None, mu, tuple(group)))

    # a complex cluster's partner is the cluster nearest its conjugate, and
    # that choice must be mutual (the distance matrix is symmetric)
    complex_ids = [i for i, c in enumerate(clusters) if c.kind == COMPLEX_PAIR]
    omegas = np.array([clusters[i].omega for i in complex_ids], dtype=np.complex128)
    dist = np.abs(omegas[None, :] - omegas.conj()[:, None])
    np.fill_diagonal(dist, np.inf)
    nearest = [int(np.argmin(row)) for row in dist]
    for k, best in enumerate(nearest):
        ci, cj = clusters[complex_ids[k]], clusters[complex_ids[best]]
        if dist[k, best] > threshold or nearest[best] != k:
            raise SpectralConsistencyError(
                f"complex eigenvalue {ci.omega:.6g} has no conjugate partner "
                "in the spectrum"
            )
        if cj.multiplicity != ci.multiplicity:
            raise SpectralConsistencyError(
                f"conjugate eigenvalues {ci.omega:.6g} have mismatched "
                f"multiplicities {ci.multiplicity} vs {cj.multiplicity}"
            )
        clusters[complex_ids[k]] = replace(ci, partner=complex_ids[best])

    return SpectralPairing(tuple(clusters), vectors, cn_residual)


def _fixed_basis(c: np.ndarray) -> np.ndarray:
    """Orthonormal fixed vectors y = C conj(y) of a unitary symmetric C: with
    y = p + i q, the +1 eigenvectors of the involution [[Re C, Im C], [Im C,
    -Re C]] (eigenvalues +-1, gap 2).  Inner products of fixed vectors are
    real once C is exactly symmetric, so orthonormal (p, q) give orthonormal y."""
    d = c.shape[0]
    c = (c + c.T) / 2.0
    _, vecs = np.linalg.eigh(np.block([[c.real, c.imag], [c.imag, -c.real]]))
    return vecs[:d, d:] + 1j * vecs[d:, d:]


def _orthonormalize(v: np.ndarray, found: np.ndarray) -> np.ndarray:
    """v minus its part along the orthonormal columns ``found``, normalized."""
    v = v - found @ (found.conj().T @ v)
    return v / np.linalg.norm(v)


def _symplectic_basis(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pairs (x_k, i C conj(x_k)) spanning C^d for a unitary skew C.

    x is orthogonal to i C conj(x) and a pair's orthocomplement maps into
    itself, so Gram-Schmidt adding one pair per step (pivot on the residual
    projector's largest diagonal, orthogonalize once more, rank-2 update)
    spans C^d in O(d^3)."""
    d = c.shape[0]
    q = np.zeros((d, d), dtype=np.complex128)  # columns x_0, w_0, x_1, w_1, ...
    proj = np.eye(d, dtype=np.complex128)
    for k in range(0, d, 2):
        x = _orthonormalize(proj[:, int(np.argmax(proj.diagonal().real))], q[:, :k])
        q[:, k] = x
        q[:, k + 1] = _orthonormalize(1j * (c @ x.conj()), q[:, : k + 1])
        proj -= q[:, k : k + 2] @ q[:, k : k + 2].conj().T
    return q[:, 0::2], q[:, 1::2]


def wigner_normal_form(
    a,
    tol: Tolerances = DEFAULT_TOL,
    *,
    gauge_seed: int | None = None,
) -> NormalForm:
    """Construct the normal form A = U Sigma U^T of a conjugate-normal A.

    The construction walks the classified spectrum of Lambda = A conj(A):

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
       orthogonal mix: there the sign of det(U) is a gauge choice;
    4. a zero cluster contributes its eigenbasis unchanged with sigma = 0.

    The blocks are then sorted canonically (2x2 first, by descending |s|
    with ties by ascending arg(s); then 1x1 by ascending sigma), the columns
    of U are permuted to match, and unitarity of U plus the reconstruction
    residual are verified before returning.

    ``gauge_seed`` (testing hook) re-mixes every cluster's eigenbasis by a
    random unitary and randomizes the processing order; the result must
    agree with the deterministic gauge up to the block structure's intrinsic
    freedom.
    """
    from .ensembles import random_unitary  # local import to keep layering acyclic

    m = as_square_matrix(a)
    dim = m.shape[0]
    norm = frobenius(m)
    pairing = classify_spectrum(m, tol)

    rng = np.random.default_rng(gauge_seed) if gauge_seed is not None else None
    order = list(range(len(pairing.clusters)))
    if rng is not None:
        order = [int(i) for i in rng.permutation(len(order))]

    # each entry: (block, V columns, W columns of a 2x2 block or None)
    groups: list[tuple] = []
    for idx in order:
        cluster = pairing.clusters[idx]
        basis = pairing.vectors[:, cluster.columns].copy()
        if rng is not None:
            basis = basis @ random_unitary(basis.shape[1], int(rng.integers(2**32)))
        if cluster.kind == COMPLEX_PAIR and cluster.omega.imag < 0:
            continue  # handled through the Im > 0 partner

        block = _block(cluster.kind, cluster.omega, cluster.multiplicity)
        if cluster.kind == COMPLEX_PAIR:
            w = (block.s / cluster.mu) * (m @ basis.conj())
            groups.append((block, basis, w))
        elif cluster.kind == ZERO:
            groups.append((block, basis, None))
        else:  # real omega != 0: factor the restricted map C
            root = block.s.imag if cluster.kind == NEGATIVE_REAL else block.sigma
            c = basis.conj().T @ (m @ basis.conj()) / root
            if cluster.kind == NEGATIVE_REAL:
                xs, ws = _symplectic_basis(c)
                groups.append((block, basis @ xs, basis @ ws))
            else:
                groups.append((block, basis @ _fixed_basis(c), None))

    groups.sort(key=lambda g: _block_key(g[0]))
    pairs = [g for g in groups if g[2] is not None]
    columns = [g[1] for g in pairs] + [g[2] for g in pairs]
    columns += [g[1] for g in groups if g[2] is None]
    u_mat = np.column_stack(columns) if columns else np.zeros((dim, 0))
    if u_mat.shape != (dim, dim):
        raise SpectralConsistencyError(
            f"normal-form construction produced {u_mat.shape[1]} columns for "
            f"a dimension-{dim} matrix"
        )

    defect = unitarity_defect(u_mat)
    if defect > tol.unitarity_threshold(dim):
        raise SpectralConsistencyError(
            f"normal-form U is not unitary within tolerance: defect {defect:.3e} "
            f"exceeds {tol.unitarity:.1e} * sqrt({dim})"
        )

    blocks = tuple(g[0] for g in groups)
    half_dim = sum(g[0].multiplicity for g in pairs)
    cn_residual = pairing.conjugate_normal_residual
    # a draft: its reconstruction residual is measured on it next
    nf = NormalForm(u_mat, blocks, half_dim, det_lu(u_mat), cn_residual, math.nan)

    residual = float(np.linalg.norm(m - reconstruct(nf)))
    if residual > tol.reconstruct * norm:
        raise ReconstructionError(
            f"||A - U Sigma U^T|| = {residual:.3e} exceeds "
            f"{tol.reconstruct:.1e} * ||A||; the input is likely further from "
            "conjugate-normal than the tolerances assume"
        )
    return replace(nf, reconstruction_residual=residual)

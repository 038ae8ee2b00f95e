"""Normal-form construction: blocks, classification, reconstruction, gauges."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerpf import (
    DEFAULT_TOL,
    InputError,
    NotConjugateNormalError,
    NotNormalError,
    OffDiagBlock,
    Real1Block,
    ReconstructionError,
    SpectralConsistencyError,
    SpectrumEntry,
    SpectrumSpec,
    Tolerances,
    classify_spectrum,
    generalized_pfaffian,
    generalized_pfaffian_via_relation,
    is_conjugate_normal,
    random_conjugate_normal,
    reconstruct,
    wigner_normal_form,
)
from wignerpf import errors, generalized, linalg, normal_form, pfaffian
from wignerpf.cli import main
from wignerpf.ensembles import random_unitary, spectrum_blocks
from wignerpf.linalg import det_lu, unitarity_defect
from wignerpf.normal_form import (
    _RECONSTRUCT_RTOL,
    _UNITARITY_RTOL,
    COMPLEX_PAIR,
    NEGATIVE_REAL,
    ZERO,
    NormalForm,
    SpectralPairing,
    _block_key,
    _check_block_order,
    _cluster_indices,
    _orthonormalize,
    _symplectic_basis,
    assemble_sigma,
)

from conftest import corpus_spec, mixed_gauge, only_svd_route


class TestBlocks:
    def test_offdiag_block_keeps_upper_half_plane(self):
        OffDiagBlock(1.0 + 1.0j, 1)
        OffDiagBlock(2.0j, 3)
        with pytest.raises(InputError):
            OffDiagBlock(1.0 - 1.0j, 1)  # Im s < 0
        with pytest.raises(InputError):
            OffDiagBlock(2.0 + 0.0j, 1)  # non-negative real s belongs to 1x1 blocks
        with pytest.raises(InputError):
            OffDiagBlock(1.0j, 0)

    @pytest.mark.parametrize(
        "s", [complex(-math.inf, 0.0), complex(0.0, math.inf), complex(1.0, math.nan)]
    )
    def test_offdiag_block_rejects_non_finite_s(self, s):
        with pytest.raises(InputError, match="value s must be finite"):
            OffDiagBlock(s, 1)

    def test_real1_block_requires_nonnegative(self):
        Real1Block(0.0, 2)
        Real1Block(1.5, 1)
        with pytest.raises(InputError):
            Real1Block(-0.5, 1)

    def test_assemble_sigma_layout(self):
        sigma = assemble_sigma(
            [OffDiagBlock(2.0j, 1), OffDiagBlock(1.0 + 1.0j, 1), Real1Block(0.5, 2)]
        )
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 2] = 2.0j
        expected[2, 0] = -2.0j
        expected[1, 3] = 1.0 + 1.0j
        expected[3, 1] = 1.0 - 1.0j
        expected[4, 4] = expected[5, 5] = 0.5
        np.testing.assert_array_equal(sigma, expected)
        np.testing.assert_array_equal(sigma, sigma.conj().T)

    def test_assemble_sigma_rejects_unsorted_blocks(self):
        with pytest.raises(InputError):
            assemble_sigma([OffDiagBlock(1.0j, 1), OffDiagBlock(2.0j, 1)])
        with pytest.raises(InputError):
            assemble_sigma([Real1Block(1.0, 1), OffDiagBlock(2.0j, 1)])


    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Real1Block(1.0, 0), "block multiplicity must be >= 1"),
            (lambda: assemble_sigma(["x"]), "unknown block type: str"),
            (
                lambda: NormalForm(np.eye(3), (OffDiagBlock(1j, 1),), 0.0, 0.0),
                "u has dimension 3 but blocks describe dimension 2",
            ),
        ],
        ids=["multiplicity", "block-type", "u-dimension"],
    )
    def test_exact_error(self, make, message):
        with pytest.raises(InputError) as info:
            make()
        assert type(info.value) is InputError
        assert str(info.value) == message


class TestConjugateNormality:
    def test_constructed_matrices_pass(self):
        spec = corpus_spec(1)
        flag, residual = is_conjugate_normal(random_conjugate_normal(spec))
        assert flag
        assert residual < 1e-14

    def test_generic_matrix_fails(self):
        flag, residual = is_conjugate_normal([[1.0, 0.0], [1.0, 0.0]])
        assert not flag
        assert residual > 1e-2

    def test_unitary_symmetric_and_skew_pass(self):
        # three standard families inside the conjugate-normal class
        rng = np.random.default_rng(8)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(g)
        assert is_conjugate_normal(q)[0]
        assert is_conjugate_normal(g + g.T)[0]
        assert is_conjugate_normal(g - g.T)[0]

    @pytest.mark.filterwarnings("error")
    def test_residual_is_taken_at_unit_scale(self):
        # ||A||^2 overflows on A itself, but is_conjugate_normal takes the
        # residual on A times a power of two: 1e200 times 1 passes with 0.
        # The spectrum classifier still takes its guard on A: nan, and nan
        # is not a pass
        matrix = 1e200 * np.eye(2)
        assert is_conjugate_normal(matrix) == (True, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotConjugateNormalError, match="residual nan"):
                classify_spectrum(matrix)

    def test_generic_hermitian_fails(self):
        # complex Hermitian matrices are not conjugate-normal in general
        # (the defect is ||conj(A^2) - A^2||), only when A^2 is real
        rng = np.random.default_rng(9)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        assert not is_conjugate_normal(h)[0]
        assert is_conjugate_normal([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])[0]


class TestClassifySpectrum:
    def test_kinds_multiplicities_and_partners(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("complex", 1.0 + 2.0j, 2),
                SpectrumEntry("negative-real", -3.0, 2),
                SpectrumEntry("positive-real", 4.0, 1),
                SpectrumEntry("zero", 0.0, 1),
            ),
            seed=5,
        )
        pairing = classify_spectrum(random_conjugate_normal(spec))
        by_kind = {}
        for cluster in pairing.clusters:
            by_kind.setdefault(cluster.kind, []).append(cluster)

        complex_clusters = by_kind["complex"]
        assert len(complex_clusters) == 2
        for cluster in complex_clusters:
            assert cluster.multiplicity == 2
            partner = pairing.clusters[cluster.partner]
            assert partner.partner == pairing.clusters.index(cluster)
            np.testing.assert_allclose(
                partner.omega, np.conj(cluster.omega), atol=1e-8
            )
            np.testing.assert_allclose(cluster.mu, abs(cluster.omega), atol=1e-8)

        (negative,) = by_kind["negative-real"]
        assert negative.multiplicity == 2
        np.testing.assert_allclose(negative.omega, -3.0, atol=1e-8)

        nonneg = sorted(c.omega.real for c in by_kind["zero"] + by_kind["positive-real"])
        np.testing.assert_allclose(nonneg, [0.0, 4.0], atol=1e-8)

    def test_clusters_sorted_by_real_then_imag(self):
        spec = corpus_spec(2)
        pairing = classify_spectrum(random_conjugate_normal(spec))
        keys = [(c.omega.real, c.omega.imag) for c in pairing.clusters]
        assert keys == sorted(keys)

    def test_eigenvector_columns_partition(self):
        spec = corpus_spec(3)
        matrix = random_conjugate_normal(spec)
        pairing = classify_spectrum(matrix)
        all_columns = sorted(i for c in pairing.clusters for i in c.columns)
        assert all_columns == list(range(matrix.shape[0]))
        assert unitarity_defect(pairing.vectors) < 1e-12

    def test_rejects_non_conjugate_normal(self):
        with pytest.raises(NotConjugateNormalError):
            classify_spectrum([[1.0, 0.0], [1.0, 1.0]])

    def test_mu_and_partners_match_loop_reference(self, corpus):
        # per-cluster mat-vecs and a greedy nested partner search, as the
        # classification once computed them
        for _, matrix in corpus[:60]:
            pairing = classify_spectrum(matrix)
            m_op = matrix.T @ matrix.conj()
            scale = 8 * matrix.shape[0] * np.finfo(float).eps * np.linalg.norm(m_op)
            for cluster in pairing.clusters:
                cols = pairing.vectors[:, cluster.columns]
                mu = np.mean(np.real(np.sum(np.conj(cols) * (m_op @ cols), axis=0)))
                assert abs(cluster.mu - mu) <= scale
            assert [c.partner for c in pairing.clusters] == greedy_partners(
                pairing.clusters, Tolerances().cluster_threshold(np.linalg.norm(matrix))
            )

    def test_mu_is_read_from_the_images(self, corpus):
        # v^H A^T A* v = ||A conj(v)||^2, column by column
        for _, matrix in corpus[:60]:
            pairing = classify_spectrum(matrix)
            vectors, images = pairing.vectors, pairing.images
            np.testing.assert_allclose(
                images, matrix @ vectors.conj(), rtol=0, atol=1e-14 * np.linalg.norm(matrix)
            )
            m_op = matrix.T @ matrix.conj()
            rayleigh = np.real(np.sum(vectors.conj() * (m_op @ vectors), axis=0))
            from_images = np.sum(np.abs(images) ** 2, axis=0)
            bound = 1e-13 * np.linalg.norm(matrix) ** 2
            assert np.max(np.abs(from_images - rayleigh)) <= bound
            for cluster in pairing.clusters:
                assert abs(cluster.mu - np.mean(rayleigh[list(cluster.columns)])) <= bound

    def test_images_are_validated_and_held_apart_from_the_caller(self, corpus):
        pairing = classify_spectrum(corpus[0][1])
        assert isinstance(pairing, SpectralPairing)
        assert not pairing.images.flags.writeable
        # a caller's writable array is copied, so later writes do not reach it
        images = np.array(pairing.images)
        rebuilt = replace(pairing, images=images)
        images[:] = 0.0
        np.testing.assert_array_equal(rebuilt.images, pairing.images)
        assert not rebuilt.images.flags.writeable
        n = images.shape[0]
        for bad in (images[:, :-1], np.zeros((n + 1, n + 1)), np.full((n, n), np.nan)):
            with pytest.raises(InputError):
                replace(pairing, images=bad)

    def test_read_only_view_of_a_writable_array_is_copied(self, corpus):
        # read-only is not enough to hold an array as given: a view shares
        # memory that its base's owner can still write
        pairing = classify_spectrum(corpus[0][1])
        for name in ("vectors", "images"):
            base = np.array(getattr(pairing, name))
            view = base[:]
            view.flags.writeable = False
            rebuilt = replace(pairing, **{name: view})
            base[:] = 0.0
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(pairing, name))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1j, 1.0], "has no conjugate partner"),
            ([0.6 + 0.8j, 0.8 + 0.6j, 0.6 - 0.8j], "has no conjugate partner"),
            # both -1j e^(+-i 3e-8) lie within the threshold 4e-8 of conj(1j)
            # but 6e-8 apart: only one of them can be the partner
            ([1j, -1j * np.exp(3e-8j), -1j * np.exp(-3e-8j)], "has no conjugate partner"),
            ([1j, 1j, -1j], "mismatched multiplicities 1 vs 2"),
            ([1.0, 2.0], r"has mu=1 != \|omega\|"),
        ],
    )
    def test_structural_errors(self, monkeypatch, values, message):
        # a unitary A has A^T A* = 1, so mu = 1 on every fabricated eigenvector
        dim = len(values)
        fake = (np.array(values, dtype=complex), np.eye(dim, dtype=complex))
        monkeypatch.setattr(normal_form, "eig_normal", lambda lam, tol: fake)
        with pytest.raises(SpectralConsistencyError, match=message):
            classify_spectrum(random_unitary(dim, 3))

    def test_clustering_matches_union_find(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            count = int(rng.integers(1, 40))
            # grid values, so ties and chains sit exactly on the threshold
            values = rng.integers(0, 10, count) + 1j * rng.integers(0, 3, count)
            threshold = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))
            assert _cluster_indices(values, threshold) == union_find_clusters(
                values, threshold
            )
        # chains with spacing equal to the threshold: one component of
        # diameter n, in index order and shuffled, then cut in two by a gap
        chain = np.arange(300) * 0.5 + 0.25j
        for values in (chain, chain[rng.permutation(300)]):
            assert _cluster_indices(values, 0.5) == union_find_clusters(values, 0.5)
            assert len(_cluster_indices(values, 0.5)) == 1
            values = values + 0.25 * (values.real > 100)
            assert _cluster_indices(values, 0.5) == union_find_clusters(values, 0.5)
            assert len(_cluster_indices(values, 0.5)) == 2

    def test_clustering_matches_the_breadth_first_search(self):
        """Label propagation against the per-component search it replaced,
        on chains near the threshold, doubled values and jittered clusters."""
        rng = np.random.default_rng(20240613)
        for case in range(3000):
            count = int(rng.integers(1, 60))
            if case % 3 == 0:  # a chain whose steps straddle the threshold
                steps = rng.choice([0.4, 0.5, 0.6], count) * np.exp(1j * rng.normal(0, 0.3, count))
                values = np.cumsum(steps)[rng.permutation(count)]
            elif case % 3 == 1:  # every value twice, as in a direct sum A + A
                values = np.repeat(rng.normal(size=count) + 1j * rng.normal(size=count), 2)
                values = values[rng.permutation(len(values))]
            else:  # a few centres with jittered members
                centres = 4 * (rng.normal(size=3) + 1j * rng.normal(size=3))
                values = centres[rng.integers(0, 3, count)] + rng.normal(0, 0.3, count)
            assert _cluster_indices(values, 0.5) == breadth_first_clusters(values, 0.5)



def classify_with_eigenvalues(monkeypatch, values):
    """classify_spectrum on a unitary A (so mu = 1 on every eigenvector)
    whose Lambda eigensolve is replaced by ``values`` over the unit vectors."""
    dim = len(values)
    fake = (np.array(values, dtype=complex), np.eye(dim, dtype=complex))
    monkeypatch.setattr(normal_form, "eig_normal", lambda lam, tol: fake)
    return classify_spectrum(random_unitary(dim, 3))


MU_MISMATCH = (
    "cluster at omega={} has mu=1 != |omega|; the spectra of A conj(A) and "
    "A^T A* are inconsistent"
)


class TestClassificationErrors:
    """Each SpectralConsistencyError of classify_spectrum, with its exact
    text; clusters are checked in ascending (Re, Im) order, mu and the
    negative-real parity per cluster first, conjugate partners after."""

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.0, 2.0], MU_MISMATCH.format("2+0j")),
            ([-1.0, 1.0], "negative real eigenvalue -1 has odd multiplicity 1"),
            ([1j, 1.0], "complex eigenvalue 0+1j has no conjugate partner in the spectrum"),
            (
                [1j, 1j, -1j],
                "conjugate eigenvalues -0-1j have mismatched multiplicities 1 vs 2",
            ),
            # 1j has no partner and sorts first, but the mu check of 2 runs
            # before any partner is sought
            ([1j, 2.0], MU_MISMATCH.format("2+0j")),
            # the earlier cluster's check fails first, whichever check it is
            ([-1.0, 2.0], "negative real eigenvalue -1 has odd multiplicity 1"),
            ([-3.0, -1.0], MU_MISMATCH.format("-3+0j")),
            (
                [0.6 + 0.8j, 0.8 + 0.6j, 0.6 - 0.8j],
                "complex eigenvalue 0.8+0.6j has no conjugate partner in the spectrum",
            ),
        ],
    )
    def test_exact_error(self, monkeypatch, values, message):
        with pytest.raises(SpectralConsistencyError) as info:
            classify_with_eigenvalues(monkeypatch, values)
        assert type(info.value) is SpectralConsistencyError
        assert str(info.value) == message

    def test_rejects_cluster_below_eig_residual(self):
        # the one rule that ties the two tolerances is the clustering's; every
        # normal-form entry point reaches it
        tol = Tolerances(eig_residual=1e-6, cluster=1e-8)
        hand = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        for entry in (classify_spectrum, wigner_normal_form):
            with pytest.raises(InputError) as info:
                entry(hand, tol)
            assert type(info.value) is InputError
            assert str(info.value) == (
                "cluster tolerance must be at least the eigen-residual tolerance"
            )

    def test_routes_that_cluster_nothing_take_cluster_below_eig_residual(self):
        tol = Tolerances(eig_residual=1e-6, cluster=1e-8)
        hand = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        assert is_conjugate_normal(hand, tol) == is_conjugate_normal(hand)
        # the Pfaffian reads no cluster tolerance, whatever its groups: the
        # hand example is one group, corpus matrix 2 has 14
        for matrix in (hand, random_conjugate_normal(corpus_spec(2))):
            assert generalized_pfaffian(matrix, tol) == generalized_pfaffian(matrix)
        for engine in ("parlett-reid", "polynomial"):
            loose = generalized_pfaffian_via_relation(hand, tol, engine=engine)
            assert loose == generalized_pfaffian_via_relation(hand, engine=engine)

    def test_partners_are_mutual(self, monkeypatch):
        values = [1j, -1j, 1.0, 0.6 + 0.8j, 0.6 - 0.8j, -1.0, -1.0]
        clusters = classify_with_eigenvalues(monkeypatch, values).clusters
        assert [c.omega for c in clusters] == [-1, -1j, 1j, 0.6 - 0.8j, 0.6 + 0.8j, 1]
        assert [c.partner for c in clusters] == [None, 2, 1, 4, 3, None]

    @pytest.mark.parametrize("index", range(12))
    def test_partners_are_mutual_on_the_corpus(self, index):
        pairing = classify_spectrum(random_conjugate_normal(corpus_spec(index)))
        for i, cluster in enumerate(pairing.clusters):
            if cluster.kind != COMPLEX_PAIR:
                assert cluster.partner is None
                continue
            partner = pairing.clusters[cluster.partner]
            assert partner.kind == COMPLEX_PAIR and partner.partner == i
            assert partner.multiplicity == cluster.multiplicity

def breadth_first_clusters(values, threshold):
    """Reference grouping: each component grown by a breadth-first search from
    its smallest index over the closeness matrix of the linked eigenvalues."""
    close = np.abs(values[:, None] - values[None, :]) <= threshold
    labels = np.arange(len(values))
    linked = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
    close = close[linked][:, linked]
    unassigned = np.ones(len(linked), dtype=bool)
    while unassigned.any():
        first = np.argmax(unassigned)
        member = np.zeros_like(unassigned)
        frontier = np.arange(len(linked)) == first
        while frontier.any():
            member |= frontier
            frontier = close[frontier].any(axis=0) & ~member
        unassigned &= ~member
        labels[linked[member]] = linked[first]
    order = np.argsort(labels, kind="stable").tolist()
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def union_find_clusters(values, threshold):
    """Reference single-linkage clustering: a union-find over all pairs."""
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(values)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def greedy_partners(clusters, threshold):
    """Reference pairing: each unpaired complex cluster takes the nearest
    unpaired complex cluster to its conjugate."""
    partners = [None] * len(clusters)
    for i, ci in enumerate(clusters):
        if ci.kind != COMPLEX_PAIR or partners[i] is not None:
            continue
        candidates = [
            j
            for j, cj in enumerate(clusters)
            if j != i and cj.kind == COMPLEX_PAIR and partners[j] is None
        ]
        best = min(candidates, key=lambda j: abs(clusters[j].omega - np.conj(ci.omega)))
        assert abs(clusters[best].omega - np.conj(ci.omega)) <= threshold
        partners[i], partners[best] = best, i
    return partners


def assert_valid_normal_form(matrix, nf):
    norm = np.linalg.norm(matrix)
    assert unitarity_defect(nf.u) <= _UNITARITY_RTOL * np.sqrt(matrix.shape[0])
    np.testing.assert_allclose(
        reconstruct(nf), matrix, atol=_RECONSTRUCT_RTOL * max(norm, 1.0)
    )


def assert_same_blocks(got, want, rtol):
    """The same block types and multiplicities, with values within ``rtol``."""
    assert [(type(b), b.multiplicity) for b in got] == [(type(b), b.multiplicity) for b in want]
    for a, b in zip(got, want):
        value, other = (a.s, b.s) if isinstance(a, OffDiagBlock) else (a.sigma, b.sigma)
        assert abs(value - other) <= rtol * abs(other)


def assert_prescribed_blocks(nf, spec):
    prescribed = spectrum_blocks(spec)
    assert len(nf.blocks) == len(prescribed)
    for got, want in zip(nf.blocks, prescribed):
        assert type(got) is type(want)
        assert got.multiplicity == want.multiplicity
        if isinstance(got, OffDiagBlock):
            np.testing.assert_allclose(got.s, want.s, atol=1e-7)
        else:
            np.testing.assert_allclose(got.sigma, want.sigma, atol=1e-7)


class TestWignerNormalForm:
    def test_hand_example_2x2(self):
        matrix = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        nf = wigner_normal_form(matrix)
        assert nf.half_dim == 1
        assert len(nf.blocks) == 1
        block = nf.blocks[0]
        assert isinstance(block, OffDiagBlock)
        np.testing.assert_allclose(block.s, 1.0 + 1.0j, atol=1e-12)
        np.testing.assert_allclose(nf.det_u, 1.0, atol=1e-12)
        assert_valid_normal_form(matrix, nf)

    def test_negative_scalar(self):
        nf = wigner_normal_form(np.array([[-3.0]]))
        assert nf.blocks == (Real1Block(3.0, 1),)
        np.testing.assert_allclose(abs(nf.u[0, 0]), 1.0)
        np.testing.assert_allclose(reconstruct(nf), [[-3.0]], atol=1e-12)

    def test_scalar_phase(self):
        z = 2.0 * np.exp(1j * np.pi / 5)
        nf = wigner_normal_form(np.array([[z]]))
        (block,) = nf.blocks
        assert isinstance(block, Real1Block)
        np.testing.assert_allclose(block.sigma, 2.0, atol=1e-12)
        np.testing.assert_allclose(nf.u[0, 0] ** 2 * 2.0, z, atol=1e-12)

    def test_real_skew_matrix(self):
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        nf = wigner_normal_form(j)
        assert nf.blocks == (OffDiagBlock(1.0j, 1),)
        np.testing.assert_allclose(nf.det_u, -1.0j, atol=1e-12)
        assert_valid_normal_form(j, nf)

    @pytest.mark.parametrize("index", [0, 4, 6, 9, 12, 25])
    def test_corpus_contract(self, index):
        spec = corpus_spec(index)
        matrix = random_conjugate_normal(spec)
        nf = wigner_normal_form(matrix)
        assert_valid_normal_form(matrix, nf)
        assert_prescribed_blocks(nf, spec)

    def test_block_ordering_is_canonical(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("complex", 0.5 + 1.0j, 1),
                SpectrumEntry("complex", -2.0 + 0.3j, 1),
                SpectrumEntry("negative-real", -1.0, 2),
                SpectrumEntry("positive-real", 2.0, 1),
                SpectrumEntry("zero", 0.0, 2),
            ),
            seed=9,
        )
        nf = wigner_normal_form(random_conjugate_normal(spec))
        pairs = [b for b in nf.blocks if isinstance(b, OffDiagBlock)]
        reals = [b for b in nf.blocks if isinstance(b, Real1Block)]
        assert list(nf.blocks) == pairs + reals
        pair_keys = [(-abs(b.s), np.angle(b.s)) for b in pairs]
        assert pair_keys == sorted(pair_keys)
        sigmas = [b.sigma for b in reals]
        assert sigmas == sorted(sigmas)

    def test_positive_and_zero_spectrum(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("positive-real", 9.0, 2),
                SpectrumEntry("zero", 0.0, 2),
            ),
            seed=13,
        )
        matrix = random_conjugate_normal(spec)
        nf = wigner_normal_form(matrix)
        assert nf.half_dim == 0
        sigmas = sorted(round(b.sigma, 9) for b in nf.blocks for _ in range(b.multiplicity))
        assert sigmas == [0.0, 0.0, 3.0, 3.0]
        assert_valid_normal_form(matrix, nf)

    def test_symmetric_matrix_gives_all_real_blocks(self):
        # symmetric conjugate-normal: the construction reduces to a Takagi
        # factorization with non-negative diagonal
        rng = np.random.default_rng(21)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = g + g.T
        nf = wigner_normal_form(s)
        assert nf.half_dim == 0
        assert all(isinstance(b, Real1Block) for b in nf.blocks)
        assert_valid_normal_form(s, nf)

    def test_gauge_seed_changes_u_but_not_blocks(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("complex", 1.0 + 1.0j, 2),
                SpectrumEntry("negative-real", -2.0, 4),
            ),
            seed=31,
        )
        matrix = random_conjugate_normal(spec)
        base = wigner_normal_form(matrix)
        for seed in (1, 2, 3):
            with mixed_gauge(seed):
                other = wigner_normal_form(matrix)
            assert not np.allclose(other.u, base.u)
            assert len(other.blocks) == len(base.blocks)
            for got, want in zip(other.blocks, base.blocks):
                assert got.multiplicity == want.multiplicity
                np.testing.assert_allclose(got.s, want.s, atol=1e-9)
            np.testing.assert_allclose(other.det_u, base.det_u, atol=1e-9)
            assert_valid_normal_form(matrix, other)

    def test_rejects_non_conjugate_normal(self):
        with pytest.raises(NotConjugateNormalError):
            wigner_normal_form([[1.0, 5.0], [0.0, 2.0]])

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_negative_identity(self, dim):
        # a real eigenvector v = e_k of Lambda = 1 has A conj(v) = -v, so
        # v + A conj(v) / sqrt(omega) vanishes; the fixed vectors are i e_k
        matrix = -np.eye(dim)
        nf = wigner_normal_form(matrix)
        assert nf.blocks == (Real1Block(1.0, dim),)
        assert_valid_normal_form(matrix, nf)
        np.testing.assert_allclose(abs(nf.det_u), 1.0, atol=1e-12)


class TestRealClusters:
    """Single real clusters of growing multiplicity, and a mix of every kind,
    built through the restricted map of each cluster."""

    @pytest.mark.parametrize("gauge_seed", [None, 11])
    @pytest.mark.parametrize("mult", [2, 64, 200])
    @pytest.mark.parametrize(
        "kind, omega", [("negative-real", -2.5), ("positive-real", 0.7)]
    )
    def test_single_cluster(self, kind, omega, mult, gauge_seed):
        spec = SpectrumSpec(entries=(SpectrumEntry(kind, omega, mult),), seed=mult)
        self.check(spec, gauge_seed)

    @pytest.mark.parametrize("gauge_seed", [None, 5])
    def test_mixed_kinds(self, gauge_seed):
        spec = SpectrumSpec(
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
        self.check(spec, gauge_seed)

    @staticmethod
    def check(spec, gauge_seed):
        matrix = random_conjugate_normal(spec)
        with mixed_gauge(gauge_seed):
            nf = wigner_normal_form(matrix)
        assert_prescribed_blocks(nf, spec)
        assert_valid_normal_form(matrix, nf)
        np.testing.assert_allclose(abs(nf.det_u), 1.0, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        omegas=st.lists(
            st.floats(0.1, 9.0), min_size=1, max_size=3, unique_by=lambda x: round(x, 1)
        ),
        mults=st.lists(st.sampled_from([2, 4, 6]), min_size=3, max_size=3),
        seed=st.integers(0, 2**31 - 1),
        gauge_seed=st.integers(0, 2**31 - 1),
    )
    def test_negative_real_pfaffian_is_gauge_invariant(
        self, omegas, mults, seed, gauge_seed
    ):
        # the gauge freedom of negative-real pairs has determinant 1, so the
        # Pfaffian does not depend on which pairs the construction picks
        spec = SpectrumSpec(
            entries=tuple(
                SpectrumEntry("negative-real", -omega, mult)
                for omega, mult in zip(omegas, mults)
            ),
            seed=seed,
        )
        matrix = random_conjugate_normal(spec)
        # on the SVD route, whose group kernel reads the singular vectors
        with only_svd_route():
            base = generalized_pfaffian(matrix).value
            with mixed_gauge(gauge_seed):
                other = generalized_pfaffian(matrix).value
        assert abs(other - base) <= 1e-9 * abs(base)

    def test_overmerged_clusters_raise_consistency_error(self):
        # with a huge clustering tolerance the -1 and 0 eigenvalue groups of
        # J + [0] merge into one bogus cluster and the construction must
        # refuse rather than return a wrong factorization
        matrix = np.zeros((3, 3))
        matrix[0, 1] = 1.0
        matrix[1, 0] = -1.0
        with pytest.raises(SpectralConsistencyError):
            wigner_normal_form(matrix, Tolerances(cluster=0.5))

    def test_tight_reconstruction_tolerance_raises(self, monkeypatch):
        matrix = random_conjugate_normal(corpus_spec(7))
        with monkeypatch.context() as patch:
            patch.setattr(normal_form, "_UNITARITY_RTOL", 1e-17)
            with pytest.raises(SpectralConsistencyError, match="not unitary"):
                wigner_normal_form(matrix)
        monkeypatch.setattr(normal_form, "_RECONSTRUCT_RTOL", 1e-18)
        with pytest.raises(ReconstructionError):
            wigner_normal_form(matrix)


def gauge_case(*entries, seed):
    return pytest.param(
        SpectrumSpec(entries=tuple(SpectrumEntry(*e) for e in entries), seed=seed),
        id="+".join(f"{kind}x{mult}" for kind, _, mult in entries) + f"-seed{seed}",
    )


#: inputs with a complex pair among positive-real, negative-real and zero
#: clusters, for the eigenbasis and the singular-vector gauges
_PAIR_GAUGE_CASES = [
    gauge_case(("complex", 1 + 2j, 1), ("zero", 0, 1), seed=4),
    gauge_case(("complex", 1 + 2j, 1), ("zero", 0, 2), seed=4),
    gauge_case(("complex", 1 + 2j, 1), ("zero", 0, 3), seed=4),
    gauge_case(("positive-real", 3.0, 3), ("complex", 1 + 2j, 1), seed=5),
    gauge_case(
        ("positive-real", 3.0, 1),
        ("negative-real", -1.5, 2),
        ("complex", 1 + 2j, 1),
        seed=6,
    ),
    gauge_case(
        ("positive-real", 3.0, 3),
        ("negative-real", -1.5, 2),
        ("complex", 1 + 2j, 1),
        seed=6,
    ),
    gauge_case(
        ("positive-real", 2.0, 40),
        ("negative-real", -1.5, 20),
        ("complex", 1 + 2j, 1),
        seed=6,
    ),
    gauge_case(
        ("zero", 0, 2),
        ("positive-real", 0.5, 3),
        ("negative-real", -4.0, 2),
        ("complex", -1 + 1j, 2),
        seed=7,
    ),
]


class TestCanonicalGauge:
    """det(U) is a function of A: a zero cluster (free up to any unitary mix)
    and positive-real fixed vectors (free up to a real orthogonal mix) orient
    their frame from its span, and the other classes leave det(U) alone."""

    @pytest.mark.parametrize("spec", _PAIR_GAUGE_CASES)
    def test_det_u_does_not_depend_on_the_eigenbasis(self, monkeypatch, spec):
        # _GROUP_RTOL = 1 takes every input as one group, whose cluster
        # pipeline's eigenbases the gauge mixes
        monkeypatch.setattr(normal_form, "_GROUP_RTOL", 1.0)
        monkeypatch.setattr(normal_form, "_singular_groups", None)
        matrix = random_conjugate_normal(spec)
        base = wigner_normal_form(matrix)
        for gauge_seed in range(8):
            with mixed_gauge(gauge_seed):
                other = wigner_normal_form(matrix)
            assert other.blocks == base.blocks
            assert abs(other.det_u - base.det_u) <= 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            gauge_case(
                ("positive-real", 3.0, 3), ("zero", 0, 2), ("negative-real", -1.5, 2), seed=6
            ),
            gauge_case(
                ("zero", 0, 3), ("positive-real", 0.5, 3), ("negative-real", -4.0, 4), seed=7
            ),
            gauge_case(
                ("positive-real", 2.0, 40), ("negative-real", -1.5, 20), ("zero", 0, 1), seed=6
            ),
            gauge_case(
                ("positive-real", 3.0, 1),
                ("positive-real", 1.0, 2),
                ("negative-real", -0.5, 6),
                ("zero", 0, 2),
                seed=5,
            ),
        ],
    )
    def test_det_u_does_not_depend_on_the_singular_vectors(self, monkeypatch, spec):
        # the groups route, whose singular vectors the gauge mixes within each
        # group: a real group's block is the mean of its d, which no mix moves
        matrix = random_conjugate_normal(spec)
        monkeypatch.setattr(normal_form, "_require_conjugate_normal", None)  # no one group
        base = wigner_normal_form(matrix)
        for gauge_seed in range(8):
            with mixed_gauge(gauge_seed):
                other = wigner_normal_form(matrix)
            assert not np.allclose(other.u, base.u)
            assert other.blocks == base.blocks
            assert abs(other.det_u - base.det_u) <= 1e-12

    @pytest.mark.parametrize("spec", _PAIR_GAUGE_CASES)
    def test_pair_phase_from_mixed_singular_vectors(self, monkeypatch, spec):
        # on the groups route a pair's |s| is the mean of its d, but the phase
        # of s is read from its block C_J, which a mix of the group's
        # singular vectors recomputes: s moves by rounding, and det(U) by no
        # more than under a mix of the eigenbases
        matrix = random_conjugate_normal(spec)
        monkeypatch.setattr(normal_form, "_require_conjugate_normal", None)  # no one group
        base = wigner_normal_form(matrix)
        for gauge_seed in range(8):
            with mixed_gauge(gauge_seed):
                other = wigner_normal_form(matrix)
            assert not np.allclose(other.u, base.u)
            assert_same_blocks(other.blocks, base.blocks, 4 * np.finfo(float).eps)
            assert abs(other.det_u - base.det_u) <= 1e-12


#: a complex pair of multiplicity 2: A is a multiple of a unitary matrix, so
#: its column norms agree and the normal form takes A as its one group
ONE_GROUP = SpectrumSpec((SpectrumEntry("complex", 1 + 1j, 2),), seed=5)


def equal_column_norms(spec):
    """``F Sigma F^T`` for the spectrum of ``spec``, F the unitary DFT: F's
    entries share one modulus and ``Sigma^H Sigma`` is diagonal, so every
    column has the norm ``||Sigma||_F / sqrt(dim)``, and the normal form
    takes A as one group (X = 1, C = A) whatever its singular values."""
    sigma = assemble_sigma(spectrum_blocks(spec))
    dft = scipy.linalg.dft(spec.dimension, scale="sqrtn")
    return dft @ sigma @ dft.T


#: on a conjugate-normal input the guard's residual is rounding, measured at
#: most 3.1e-15 either way on the corpus and the guard sweep below
_ROUNDING_RESIDUAL = 5e-15


def svd_guard_residual(matrix):
    """The Pfaffian's guard residual, recomputed: with A = X D Y^H and W =
    Y^H conj(X), ``||A^T A* - A A^H||_F / ||A||_F^2`` is ``||(delta_i^2 -
    delta_j^2) W_ij||_F / sum delta^2`` for delta = d / d_1."""
    x, d, yh = scipy.linalg.svd(matrix, lapack_driver="gesdd", check_finite=False)
    w = yh @ x.conj()
    square = (d / d[0]) ** 2
    return float(np.linalg.norm(w * (square[:, None] - square))) / float(square.sum())


class TestOnePass:
    """Every check of one call runs once; its value is carried, not remeasured."""

    @pytest.mark.parametrize("index", [0, 1, 6, 12, 14, "one-group"])
    def test_residuals_are_the_measured_ones(self, svd_route, index):
        spec = ONE_GROUP if index == "one-group" else corpus_spec(index)
        matrix = random_conjugate_normal(spec)
        nf = wigner_normal_form(matrix)
        assert nf.reconstruction_residual == float(np.linalg.norm(matrix - reconstruct(nf)))
        # the Pfaffian's SVD route reads its residual off the SVD it takes,
        # and so does the normal form of an input with several singular-value
        # groups; an input with equal column norms (one group: corpus_spec(14)
        # is a 2x2 pair) keeps the Gram form.  Both are rounding on a
        # conjugate-normal input
        residual = generalized_pfaffian(matrix).diagnostics.conjugate_normal_residual
        assert residual == svd_guard_residual(matrix)
        gram = is_conjugate_normal(matrix)[1]
        one_group = index in (14, "one-group")
        assert nf.conjugate_normal_residual == (gram if one_group else residual)
        assert abs(residual - gram) <= _ROUNDING_RESIDUAL

    def test_det_u_is_computed_on_first_read_only(self, monkeypatch):
        calls = []
        original = normal_form.det_lu
        monkeypatch.setattr(normal_form, "det_lu", lambda u: calls.append(1) or original(u))
        nf = wigner_normal_form(random_conjugate_normal(corpus_spec(1)))
        assert calls == []
        first = nf.det_u
        assert len(calls) == 1
        assert nf.det_u == first
        assert len(calls) == 1

    def test_constructor_rejects_derived_values(self):
        u = random_unitary(3, 0)
        blocks = (OffDiagBlock(1.0j, 1), Real1Block(2.0, 1))
        nf = NormalForm(u, blocks, 0.0, 0.0)
        assert nf.half_dim == 1
        assert nf.det_u == det_lu(nf.u)
        sources = dict(
            u=u, blocks=blocks, conjugate_normal_residual=0.0, reconstruction_residual=0.0
        )
        for name, value in (("half_dim", 1), ("det_u", nf.det_u)):
            with pytest.raises(TypeError, match=name):
                NormalForm(**sources, **{name: value})

    def test_one_unitarity_check_per_normal_form(self, monkeypatch):
        calls = []
        original = normal_form.unitarity_defect
        monkeypatch.setattr(
            normal_form, "unitarity_defect", lambda u: calls.append(1) or original(u)
        )
        wigner_normal_form(random_conjugate_normal(corpus_spec(1)))
        assert len(calls) == 1

    def test_one_conjugate_normality_test_per_pfaffian(self, monkeypatch):
        # one guard per call: the normal-form route's from the Gram
        # triangles of A times a power of two on its fast path (from its SVD
        # elsewhere), the relation route's from the Gram triangles of A
        calls = []
        original = normal_form._guard

        def counted(residual, tol):
            calls.append(1)
            return original(residual, tol)

        monkeypatch.setattr(normal_form, "_guard", counted)
        generalized_pfaffian(random_conjugate_normal(corpus_spec(1)))
        assert len(calls) == 1
        generalized_pfaffian_via_relation(random_conjugate_normal(corpus_spec(1)))
        assert len(calls) == 2

    def test_one_frobenius_norm_of_a_per_call(self, monkeypatch):
        matrix = random_conjugate_normal(corpus_spec(1))
        one_group = random_conjugate_normal(ONE_GROUP)
        calls = []
        norm = np.linalg.norm

        def counted(x, *args, **kwargs):
            if any(x is m for m in (matrix, one_group)):
                calls.append(1)
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        # with several singular-value groups the normal form takes ||A||_F as
        # d_1 ||d / d_1|| from its singular values, and with one group on A
        # times a power of two, as the Pfaffian takes its norms (or off the SVD)
        wigner_normal_form(matrix)
        generalized_pfaffian(matrix)
        wigner_normal_form(one_group)
        assert len(calls) == 0
        classify_spectrum(matrix)
        assert len(calls) == 1

    def test_one_skew_pfaffian_and_two_determinants_per_pfaffian(self, monkeypatch, svd_route):
        calls = {"parlett-reid": 0, "det": 0}
        original_pr = generalized._parlett_reid
        original_det = normal_form.det_lu
        original_lu = generalized._lu

        def counted_pr(m):
            calls["parlett-reid"] += 1
            return original_pr(m)

        def counted_det(m):
            calls["det"] += 1
            return original_det(m)

        def counted_lu(m):  # A's own LU, whose diagonal gives det(A)
            calls["det"] += 1
            return original_lu(m)

        def oracle(m):
            raise AssertionError("no production path runs the Householder oracle")

        monkeypatch.setattr(generalized, "_parlett_reid", counted_pr)
        monkeypatch.setattr(generalized, "det_lu", counted_det)
        monkeypatch.setattr(generalized, "_lu", counted_lu)
        monkeypatch.setattr(normal_form, "det_lu", counted_det)
        monkeypatch.setattr(pfaffian, "pf_skew_householder", oracle)
        matrix = random_conjugate_normal(corpus_spec(1))
        result = generalized_pfaffian(matrix)
        assert calls == {"parlett-reid": 1, "det": 2}
        apf = pfaffian.pf_skew_parlett_reid((matrix - matrix.T) / 2.0)
        assert result.diagnostics.det_antisymmetric == apf**2

    @pytest.mark.parametrize("residual", [0.0, 3e-11])
    def test_one_gram_product_at_every_guard_residual(self, monkeypatch, svd_route, residual):
        # on the SVD route: the unitarity witness's X^H X; the guard comes
        # from the SVD, and the Pfaffian classifies no spectrum of Lambda
        matrix = random_conjugate_normal(corpus_spec(1))
        if residual:
            matrix = with_guard_residual(matrix, residual, seed=0)
        calls = {"gram": 0, "classify": 0}
        original_gram = linalg._gram
        original_classify = normal_form.classify_spectrum

        def counted_gram(x, adjoint_first=False):
            calls["gram"] += 1
            return original_gram(x, adjoint_first)

        def counted_classify(m, tol):
            calls["classify"] += 1
            return original_classify(m, tol)

        monkeypatch.setattr(linalg, "_gram", counted_gram)
        monkeypatch.setattr(normal_form, "_gram", counted_gram)
        monkeypatch.setattr(normal_form, "classify_spectrum", counted_classify)
        generalized_pfaffian(matrix)
        assert calls == {"gram": 1, "classify": 0}

    @pytest.mark.parametrize(
        "spec, held", [(corpus_spec(1), 1), (ONE_GROUP, 1)], ids=["groups", "one-group"]
    )
    def test_fresh_arrays_are_held_without_a_copy(self, monkeypatch, spec, held):
        # U is built read-only, so the normal form takes it as it is; it
        # builds no pairing, and U is its one array.  classify_spectrum's
        # eigenvectors and images are built read-only as well
        kept = []
        original = normal_form._frozen

        def spy(m):
            result = original(m)
            kept.append(result is m)
            return result

        monkeypatch.setattr(normal_form, "_frozen", spy)
        matrix = random_conjugate_normal(spec)
        wigner_normal_form(matrix)
        assert kept == [True] * held
        classify_spectrum(matrix)
        assert kept == [True] * (held + 2)

    def test_one_route_and_one_lambda_product(self, monkeypatch):
        # no input reaches classify_spectrum: A as its one group (X = 1, C =
        # A) and the singular-value groups take the same loop.  A one-group
        # input takes no SVD and one eigensolve, of the one product Lambda =
        # (A 2^-f) conj(A 2^-f) that its one-class test read first
        def refuse(*args):
            raise AssertionError("wigner_normal_form called classify_spectrum")

        calls = {"svd": 0, "eig": [], "clusters": []}
        original_svd, original_eig = normal_form._svd, normal_form.eig_normal
        original_clusters = normal_form._clusters

        def counted_svd(m):
            calls["svd"] += 1
            return original_svd(m)

        def counted_eig(lam, tol):
            calls["eig"].append(lam)
            return original_eig(lam, tol)

        def counted_clusters(m, lam, threshold, tol):
            calls["clusters"].append((m, lam))
            return original_clusters(m, lam, threshold, tol)

        monkeypatch.setattr(normal_form, "classify_spectrum", refuse)
        monkeypatch.setattr(normal_form, "_svd", counted_svd)
        monkeypatch.setattr(normal_form, "eig_normal", counted_eig)
        monkeypatch.setattr(normal_form, "_clusters", counted_clusters)
        for matrix in (
            random_conjugate_normal(corpus_spec(1)),
            random_conjugate_normal(corpus_spec(6)),
            random_conjugate_normal(corpus_spec(41)),
            equal_column_norms(corpus_spec(1)),
        ):
            wigner_normal_form(matrix)
        calls.update(svd=0, eig=[], clusters=[])
        matrix = random_conjugate_normal(ONE_GROUP)
        wigner_normal_form(matrix)
        assert calls["svd"] == 0
        assert len(calls["eig"]) == len(calls["clusters"]) == 1
        [(scaled, lam)] = calls["clusters"]
        assert calls["eig"][0] is lam
        norm = np.linalg.norm(matrix)
        f = math.frexp(norm / 2.0)[1]  # ||A||_F / sqrt(4)
        assert scaled.tobytes() == (matrix * math.ldexp(1.0, -f)).tobytes()
        assert lam.tobytes() == (scaled @ scaled.conj()).tobytes()

    def test_every_route_raises_the_same_guard_error(self):
        matrix = np.array([[1.0, 5.0], [0.0, 2.0]])
        _, residual = is_conjugate_normal(matrix)
        messages = set()
        for route in (classify_spectrum, generalized_pfaffian, generalized_pfaffian_via_relation):
            with pytest.raises(NotConjugateNormalError) as info:
                route(matrix)
            assert info.value.residual == residual
            messages.add(str(info.value))
        assert messages == {
            f"matrix is not conjugate-normal: residual {residual:.3e} exceeds 1.0e-10"
        }


def singular_spec(complex_pairs, zeros):
    """Complex pairs, one negative-real pair and a zero eigenvalue of the
    given multiplicity (dimension 9-13 for the cases below)."""
    entries = tuple(
        SpectrumEntry("complex", complex(0.3 * j - 0.5, 0.4 + 0.3 * j), 1)
        for j in range(complex_pairs)
    )
    entries += (SpectrumEntry("negative-real", -1.7, 2), SpectrumEntry("zero", 0.0, zeros))
    return SpectrumSpec(entries, seed=10 * zeros + complex_pairs)


class TestSpectralClasses:
    """One classification, in the spectrum format's class names."""

    @pytest.mark.parametrize(
        "scale", [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e5, 1e6, 1e7, 1e8]
    )
    @pytest.mark.parametrize(
        "complex_pairs, zeros", [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (3, 3), (4, 3)]
    )
    def test_zero_eigenvalue_is_zero_at_every_scale(self, complex_pairs, zeros, scale):
        # the rounding noise on Lambda's zero eigenvalue, in its real and its
        # imaginary part, scales with ||A||^2 at every scale: the one
        # threshold cluster * ||A||^2 reads it as zero, not as a complex
        # eigenvalue without a partner, and keeps the other eigenvalues,
        # which scale alike, out of the zero cluster
        matrix = scale * random_conjugate_normal(singular_spec(complex_pairs, zeros))
        result = generalized_pfaffian(matrix)
        assert result.diagnostics.singular
        assert result.value == 0
        pairing = classify_spectrum(matrix)
        assert [c.multiplicity for c in pairing.clusters if c.kind == ZERO] == [zeros]

    def test_kinds_match_the_prescription_on_the_corpus(self, corpus):
        for spec, matrix in corpus:
            prescribed = []
            for entry in spec.entries:
                copies = 2 if entry.kind == "complex" else 1
                prescribed += [(entry.kind, entry.multiplicity)] * copies
            found = [(c.kind, c.multiplicity) for c in classify_spectrum(matrix).clusters]
            assert sorted(found) == sorted(prescribed)

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([Real1Block(1.0, 1), OffDiagBlock(2.0j, 1)], "2x2 blocks must precede"),
            ([OffDiagBlock(1.0j, 1), OffDiagBlock(2.0j, 1)], "descending \\|s\\|"),
            ([OffDiagBlock(-1.0 + 0j, 1), OffDiagBlock(1.0j, 1)], "ascending arg"),
            ([Real1Block(2.0, 1), Real1Block(1.0, 1)], "ascending sigma"),
        ],
    )
    def test_block_order_rejects_each_misordering(self, blocks, message):
        with pytest.raises(InputError, match=message):
            _check_block_order(blocks)
        assert _check_block_order(blocks[::-1]) == sum(
            b.multiplicity for b in blocks if isinstance(b, OffDiagBlock)
        )


def random_normal_forms(count):
    """Normal forms with random U and random canonically sorted blocks: odd
    and even dimensions, zero and positive-real 1x1 blocks, complex and
    negative-real 2x2 blocks, multiplicities up to 3."""
    rng = np.random.default_rng(77)
    forms = []
    for index in range(count):
        blocks = []
        for _ in range(int(rng.integers(0, 4))):
            if rng.random() < 0.5:
                s = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            else:
                s = 1j * rng.uniform(0.1, 3)
            blocks.append(OffDiagBlock(s, int(rng.integers(1, 4))))
        for _ in range(int(rng.integers(0 if blocks else 1, 4))):
            sigma = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.1, 3))
            blocks.append(Real1Block(sigma, int(rng.integers(1, 4))))
        blocks.sort(key=_block_key)
        pairs = sum(b.multiplicity for b in blocks if isinstance(b, OffDiagBlock))
        dim = 2 * pairs + sum(b.multiplicity for b in blocks if isinstance(b, Real1Block))
        u = random_unitary(dim, index)
        forms.append(NormalForm(u, tuple(blocks), 0.0, 0.0))
    return forms


class TestOneProduct:
    """Each O(n^3) product runs once and serves every use of it."""

    def test_reconstruct_matches_the_dense_product(self, corpus):
        forms = random_normal_forms(60) + [wigner_normal_form(m) for _, m in corpus[:40]]
        dims = {nf.u.shape[0] % 2 for nf in forms}
        kinds = {(type(b), getattr(b, "sigma", 1.0) == 0.0) for nf in forms for b in nf.blocks}
        assert dims == {0, 1}
        assert kinds == {(OffDiagBlock, False), (Real1Block, False), (Real1Block, True)}
        for nf in forms:
            dense = nf.u @ assemble_sigma(nf.blocks) @ nf.u.T
            assert np.linalg.norm(reconstruct(nf) - dense) <= 1e-14 * np.linalg.norm(dense)

    @pytest.mark.parametrize("gauge_seed", [None, 3, 5])
    def test_columns_from_the_images_match_the_direct_products(self, monkeypatch, gauge_seed):
        # W = (s / mu) A' conj(B) and C = B^H A' conj(B) / root, with B the
        # (mixed) eigenbasis of each cluster and A' = A 2^-f, f the exponent
        # of the group's mean singular value ||A||_F / sqrt(dim); the column
        # norms agree, so A is one group, whose pipeline meets every class
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("negative-real", -4.0, 6),
                SpectrumEntry("positive-real", 3.0, 5),
                SpectrumEntry("zero", 0.0, 3),
                SpectrumEntry("complex", 1.0 + 2.0j, 2),
                SpectrumEntry("complex", -1.5 + 0.5j, 1),
            ),
            seed=17,
        )
        matrix = equal_column_norms(spec)
        norm = np.linalg.norm(matrix)
        scaled = matrix * math.ldexp(1.0, -math.frexp(norm / math.sqrt(spec.dimension))[1])
        atol = 1e-14 * np.linalg.norm(scaled)
        seen = []
        original = normal_form._cluster_columns

        def spy(cluster, basis, image):
            direct = scaled @ basis.conj()
            np.testing.assert_allclose(image, direct, rtol=0, atol=atol)
            block, v, w = original(cluster, basis, image)
            if cluster.kind == COMPLEX_PAIR:
                want = (block.s / cluster.mu) * direct
                np.testing.assert_allclose(w, want, rtol=0, atol=atol)
            elif cluster.kind != ZERO:
                root = block.s.imag if cluster.kind == NEGATIVE_REAL else block.sigma
                np.testing.assert_allclose(
                    basis.conj().T @ image / root,
                    basis.conj().T @ direct / root,
                    rtol=0,
                    atol=atol,
                )
            seen.append(cluster.kind)
            return block, v, w

        monkeypatch.setattr(normal_form, "_cluster_columns", spy)
        with mixed_gauge(gauge_seed):
            nf = wigner_normal_form(matrix)
        assert sorted(seen) == sorted(["negative-real", "positive-real", "zero"] + ["complex"] * 2)
        assert_valid_normal_form(matrix, nf)


def with_guard_residual(matrix, residual, seed):
    """``matrix + e P``, P a seeded complex Gaussian matrix and e set so that
    the conjugate-normality residual is ``residual`` to about six digits."""
    rng = np.random.default_rng(seed)
    step = rng.standard_normal(matrix.shape) + 1j * rng.standard_normal(matrix.shape)
    size = residual * np.linalg.norm(matrix) / np.linalg.norm(step)
    for _ in range(3):  # the residual is linear in e away from rounding
        size *= residual / is_conjugate_normal(matrix + size * step)[1]
    return matrix + size * step


def commutator_check(matrix):
    """``(||[L, L^H]||, ||L||)`` for L = fl(A conj(A)), read from the two Gram
    triangles of the unconditional normality check."""
    lam = matrix @ matrix.conj()
    gram = linalg._gram(lam.T)
    gram -= linalg._gram(lam.T, adjoint_first=True)
    return linalg._hermitian_norm(gram), np.linalg.norm(lam)


def spread_spectrum(dim, seed):
    """A conjugate-normal matrix of dimension ``dim`` whose |omega| lie in
    [1/2, 2], so ||A||^2 / ||Lambda|| is near sqrt(dim)."""
    rng = np.random.default_rng(seed)
    omegas = np.exp(rng.uniform(-math.log(2), math.log(2), dim // 2)) * np.exp(
        1j * rng.uniform(0.05, math.pi - 0.05, dim // 2)
    )
    entries = tuple(SpectrumEntry("complex", complex(w)) for w in omegas)
    if dim % 2:
        entries += (SpectrumEntry("positive-real", 1.0, 1),)
    return random_conjugate_normal(SpectrumSpec(entries, seed=seed))


#: (scale, command, exit code, stdout line) on c [[0, 1+i], [1-i, 0]]: pf
#: forms no Lambda and keeps its value down to 1e-300, and wnf takes every
#: product of its one group at unit scale, so it gives the pair block s = c (1
#: + i) from 1e-300 to 1e300.  From c ~ 1e155 on, the Gram guard's norm of c
#: [[0, 1+i], [1-i, 0]] overflows on A itself; check, wnf and both pf routes
#: take it on A times a power of two, and pf keeps its value on both, with
#: det(A) out of range (null) and so no cross-check


def _pair_block(det_u, value, residual):
    return (
        f'{{"det_U": {det_u}, "blocks": [{{"type": "offdiag", "value": {value}, '
        f'"multiplicity": 1}}], "reconstruction_residual": {residual}}}'
    )


_SCALE_EXTREMES = [
    ("1e-155", "pf", 0, '{"pfaffian": [0, 1.414213562373095e-155], '
     '"method": "normal-form", "det": [-1.9999999999999939e-310, 0], "singular": false, '
     '"cross_check_residual": null}'),
    ("1e-155", "wnf", 0, _pair_block(
        "[1, -1.0743518943496164e-17]", "[1e-155, 1e-155]", "0")),
    ("1e-155", "check", 0, '{"conjugate_normal": true, "residual": 0}'),
    ("1e-200", "pf", 0, '{"pfaffian": [0, 1.414213562373095e-200], "method": "normal-form", '
     '"det": [0, 0], "singular": false, "cross_check_residual": null}'),
    ("1e-200", "wnf", 0, _pair_block(
        "[1, 2.4083307694203439e-17]",
        "[9.9999999999999998e-201, 9.9999999999999998e-201]",
        "0",
    )),
    ("1e-200", "check", 0, '{"conjugate_normal": true, "residual": 0}'),
    ("1e-300", "pf", 0, '{"pfaffian": [0, 1.414213562373095e-300], "method": "normal-form", '
     '"det": [0, 0], "singular": false, "cross_check_residual": null}'),
    ("1e-300", "wnf", 0, _pair_block(
        "[1, -3.8781926045206591e-17]", "[1e-300, 1e-300]", "0")),
    ("1e155", "pf", 0, '{"pfaffian": [0, 1.414213562373095e+155], "method": "normal-form", '
     '"det": [null, 0], "singular": false, "cross_check_residual": null}'),
    ("1e155", "wnf", 0, _pair_block(
        "[1, -1.0743518943496164e-17]", "[1e+155, 1e+155]", "0")),
    ("1e160", "pf", 0, '{"pfaffian": [0, 1.4142135623730951e+160], "method": "normal-form", '
     '"det": [null, 0], "singular": false, "cross_check_residual": null}'),
    ("1e160", "wnf", 0, _pair_block(
        "[1, -7.6550781792318282e-17]",
        "[1e+160, 9.9999999999999985e+159]",
        "2.2074095690877124e+144",
    )),
    ("1e300", "wnf", 0, _pair_block(
        "[0.99999999999999989, -1.1402616691883463e-17]",
        "[1.0000000000000001e+300, 1.0000000000000001e+300]",
        "2.9740338169555661e+284",
    )),
    ("1e155", "pf --method relation", 0, '{"pfaffian": [0, 1.414213562373095e+155], '
     '"method": "relation", "det": [null, 0], "singular": false, '
     '"cross_check_residual": null}'),
    ("1e160", "pf --method relation", 0, '{"pfaffian": [0, 1.4142135623730951e+160], '
     '"method": "relation", "det": [null, 0], "singular": false, '
     '"cross_check_residual": null}'),
    ("1e155", "check", 0, '{"conjugate_normal": true, "residual": 0}'),
    ("1e160", "check", 0, '{"conjugate_normal": true, "residual": 0}'),
]


#: inputs taken as one group: the 2x2 pair, a complex pair of multiplicity
#: 2, a negative-real cluster of four, and two multi-group F Sigma F^T
_ONE_GROUP_INPUTS = {
    "2x2": lambda: np.array([[0.0, 1 + 1j], [1 - 1j, 0.0]]),
    "one-group": lambda: random_conjugate_normal(ONE_GROUP),
    "corpus-41": lambda: random_conjugate_normal(corpus_spec(41)),
    "dft-1": lambda: equal_column_norms(corpus_spec(1)),
    "dft-6": lambda: equal_column_norms(corpus_spec(6)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-990, -660, -330, 330, 660, 990])
@pytest.mark.parametrize("name", list(_ONE_GROUP_INPUTS))
def test_one_group_scales_by_powers_of_two(name, j):
    # the one group takes its guard, its Lambda and its tests on A times a
    # power of two, so 2^j A has A's U bit for bit and its blocks times 2^j
    # wherever the Gram products of A itself would overflow or underflow
    matrix = _ONE_GROUP_INPUTS[name]()
    nf = wigner_normal_form(matrix)
    scaled = wigner_normal_form(math.ldexp(1.0, j) * matrix)
    assert scaled.u.tobytes() == nf.u.tobytes()
    assert len(scaled.blocks) == len(nf.blocks)
    for block, got in zip(nf.blocks, scaled.blocks):
        assert type(got) is type(block)
        assert got.multiplicity == block.multiplicity
        if isinstance(block, OffDiagBlock):
            want = complex(math.ldexp(block.s.real, j), math.ldexp(block.s.imag, j))
            assert got.s == want
        else:
            assert got.sigma == math.ldexp(block.sigma, j)


class TestNormalityWitness:
    """``eig_normal``'s residual check is the one witness that Lambda =
    A conj(A) is normal: nothing before the eigensolve checks it."""

    @pytest.mark.parametrize("seed", range(40))
    def test_guard_passing_commutator_failing_input_raises(self, seed):
        # the guard passes at residual 9e-11 but Lambda's commutator is 1.1-1.4
        # times its threshold: the eigensolver's residual check raises
        matrix = with_guard_residual(spread_spectrum(20, seed), 9e-11, seed)
        commutator, lam_norm = commutator_check(matrix)
        assert is_conjugate_normal(matrix)[0]
        assert commutator > DEFAULT_TOL.eig_residual * lam_norm * lam_norm
        with pytest.raises(NotNormalError, match="eigenvectors of a nominally normal") as info:
            classify_spectrum(matrix)
        assert info.value.residual > DEFAULT_TOL.eig_residual

    @pytest.mark.parametrize("dim, seed", [(2, 4), (3, 7)])
    def test_commutator_over_its_threshold_is_answered_within_the_checks(self, dim, seed):
        # ||[Lambda, Lambda^H]|| is 1.1-1.4 times tol.eig_residual ||Lambda||^2,
        # yet Lambda's eigenbasis leaves a residual under tol.eig_residual: the
        # normal form is built and passes the unitarity and reconstruction checks
        matrix = with_guard_residual(spread_spectrum(dim, seed), 9e-11, seed)
        commutator, lam_norm = commutator_check(matrix)
        assert commutator > DEFAULT_TOL.eig_residual * lam_norm * lam_norm
        assert_valid_normal_form(matrix, wigner_normal_form(matrix))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, command, code, out", _SCALE_EXTREMES)
    def test_scale_extremes_keep_their_answers(
        self, capsys, tmp_path, scale, command, code, out
    ):
        # c [[0, 1+i], [1-i, 0]] where ||Lambda||^2 or tol.eig_residual
        # ||Lambda||^2 leaves the normal double range: every answer is pinned,
        # and no numpy warning reaches stderr
        path = tmp_path / "two.mm"
        path.write_text(
            "%%MatrixMarket matrix array complex general\n2 2\n"
            f"0 0\n{scale} -{scale}\n{scale} {scale}\n0 0\n"
        )
        assert main([*command.split(), str(path)]) == code
        assert capsys.readouterr() == (out + "\n", "")

    @pytest.mark.filterwarnings("error")
    def test_identities_at_a_huge_lam_pass_quietly(self, capsys, tmp_path):
        # the scale row's lam A would overflow a Gram guard's norm and
        # difference on lam A itself; pf takes its Gram guard on lam A times a
        # power of two, so every row passes
        path = tmp_path / "j.mm"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n0\n-1\n1\n0\n")
        assert main(["identities", "--lam", "1e308", str(path)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == ""
        assert report["passed"]
        assert {c["name"]: c["residual"] for c in report["checks"]}["scale"] == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e100, 1e140])
    def test_four_by_four_keeps_its_value_where_its_gram_products_overflow(self, scale):
        # the Gram guard's norm squares the entries of A^T A* - A A^H, which
        # overflows from ||A||_F ~ 1e77 on; pf takes every norm on d / d_1
        matrix = random_conjugate_normal(corpus_spec(1))
        want = scale * scale * generalized_pfaffian(matrix).value
        result = generalized_pfaffian(scale * matrix)
        assert abs(result.value / want - 1) <= 1e-15
        assert result.diagnostics.conjugate_normal_residual <= _ROUNDING_RESIDUAL
        # the Gram guard on A itself overflows; is_conjugate_normal takes it at unit scale
        assert is_conjugate_normal(scale * matrix)[0]


def guard_sweep_input(dim, size, seed):
    """``A + size ||A||_F G / dim`` for a conjugate-normal A
    (:func:`spread_spectrum`) and a seeded complex Gaussian G."""
    matrix = spread_spectrum(dim, seed)
    rng = np.random.default_rng(1000 + seed)
    step = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return matrix + size * np.linalg.norm(matrix) * step / dim


@pytest.fixture
def pf_guard(monkeypatch):
    """Runs generalized_pfaffian and returns ``(error class or None, the
    residual its guard read)``, whichever error followed the guard."""
    seen = []
    original = normal_form._guard
    monkeypatch.setattr(
        normal_form, "_guard", lambda residual, tol: seen.append(residual) or original(residual, tol)
    )

    def run(matrix):
        seen.clear()
        try:
            generalized_pfaffian(matrix)
        except errors.Error as exc:
            return type(exc), seen[0]
        return None, seen[0]

    return run


_GUARD_SIZES = [4, 10, 40, 100]
_GUARD_STEPS = [0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-6, 1e-2]


@pytest.mark.usefixtures("svd_route")
class TestGuardFromTheSvd:
    """pf's SVD route reads the guard off its SVD, ``||[D^2, W]||_F /
    ||A||_F^2`` with W = Y^H conj(X); the other routes, pf's fast path
    included, take the two Gram triangles.  The two must make the same
    decision and read the same residual."""

    @pytest.mark.parametrize("size", _GUARD_STEPS)
    @pytest.mark.parametrize("dim", _GUARD_SIZES)
    def test_pf_fails_the_guard_where_the_gram_guard_does(self, pf_guard, dim, size):
        for seed in range(20):
            matrix = guard_sweep_input(dim, size, seed)
            passed, gram = is_conjugate_normal(matrix)
            error, residual = pf_guard(matrix)
            assert (error is NotConjugateNormalError) == (not passed)
            if gram > 1e-13:  # measured: at most 5.1e-4 apart
                assert abs(residual - gram) <= 1e-3 * gram
            if size == 0:
                assert max(residual, gram) <= _ROUNDING_RESIDUAL

    @pytest.mark.parametrize("size", [0.0, 1e-11, 1e-2])
    @pytest.mark.parametrize("dim", _GUARD_SIZES)
    def test_residual_scales_bit_for_bit(self, pf_guard, dim, size):
        for seed in range(5):
            matrix = guard_sweep_input(dim, size, seed)
            _, residual = pf_guard(matrix)
            for j in (-64, -1, 1, 64):
                assert pf_guard(math.ldexp(1.0, j) * matrix)[1] == residual

    @pytest.mark.parametrize("dim", _GUARD_SIZES)
    def test_gram_residuals_either_side_of_the_bound(self, pf_guard, dim):
        for seed in range(5):
            below = with_guard_residual(spread_spectrum(dim, seed), 9e-11, seed)
            error, residual = pf_guard(below)
            assert error is not NotConjugateNormalError
            assert residual <= DEFAULT_TOL.eig_residual
            above = with_guard_residual(spread_spectrum(dim, seed), 1.1e-10, seed)
            error, residual = pf_guard(above)
            assert error is NotConjugateNormalError
            assert residual > DEFAULT_TOL.eig_residual

    @pytest.mark.filterwarnings("error")
    def test_no_warning_escapes_at_any_scale(self):
        # c [[0, 1+i], [1-i, 0]] from c = 1e-300 to 1e160: the value c sqrt(2) i
        core = np.array([[0.0, 1 + 1j], [1 - 1j, 0.0]])
        for k in range(-300, 161, 5):
            scale = 10.0**k
            value = generalized_pfaffian(scale * core).value
            assert abs(value - scale * math.sqrt(2.0) * 1j) <= 4e-16 * scale


def projector_symplectic_basis(c):
    """Oracle of :func:`_symplectic_basis`: the same pivoted Gram-Schmidt with
    the d x d residual projector formed and updated by rank 2 per pair."""
    d = c.shape[0]
    q = np.zeros((d, d), dtype=np.complex128)
    proj = np.eye(d, dtype=np.complex128)
    for k in range(0, d, 2):
        x = _orthonormalize(proj[:, int(np.argmax(proj.diagonal().real))], q[:, :k])
        q[:, k] = x
        q[:, k + 1] = _orthonormalize(1j * (c @ x.conj()), q[:, : k + 1])
        proj -= q[:, k : k + 2] @ q[:, k : k + 2].conj().T
    return q[:, 0::2], q[:, 1::2]


def unitary_skew(d, seed):
    """V J V^T for a random unitary V and the standard symplectic J."""
    v = random_unitary(d, seed)
    half = np.eye(d // 2)
    j = np.block([[0 * half, half], [-half, 0 * half]])
    return v @ j @ v.T


class TestSymplecticBasis:
    @pytest.mark.parametrize("d", [2, 4, 40, 120])
    def test_orthonormal_pairs_to_working_precision(self, d):
        c = unitary_skew(d, seed=d)
        xs, ws = _symplectic_basis(c)
        q = np.hstack([xs, ws])
        eps = np.finfo(float).eps
        assert np.linalg.norm(q.conj().T @ q - np.eye(d)) <= 4 * d * eps
        assert np.linalg.norm(ws - 1j * (c @ xs.conj())) <= 4 * d * eps

    @pytest.mark.parametrize("seed", range(10))
    def test_two_dimensional_basis_matches_the_projector_oracle_bit_for_bit(self, seed):
        c = unitary_skew(2, seed)
        for got, want in zip(_symplectic_basis(c), projector_symplectic_basis(c)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("mults", [(2,), (4, 2), (40,), (6, 4, 2)])
    def test_det_u_matches_the_projector_oracle(self, monkeypatch, mults):
        entries = tuple(
            SpectrumEntry("negative-real", -0.5 - k, mult) for k, mult in enumerate(mults)
        )
        matrix = random_conjugate_normal(
            SpectrumSpec(entries + (SpectrumEntry("complex", 1 + 1j),), seed=len(mults))
        )
        det_u = wigner_normal_form(matrix).det_u
        monkeypatch.setattr(normal_form, "_symplectic_basis", projector_symplectic_basis)
        assert abs(det_u - wigner_normal_form(matrix).det_u) <= 1e-12

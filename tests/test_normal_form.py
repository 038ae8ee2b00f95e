"""Normal-form construction: blocks, classification, reconstruction, gauges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerpf import (
    InputError,
    NotConjugateNormalError,
    OffDiagBlock,
    Real1Block,
    SpectralConsistencyError,
    SpectrumEntry,
    SpectrumSpec,
    Tolerances,
    antisymmetric_part,
    assemble_sigma,
    classify_spectrum,
    generalized_pfaffian,
    is_conjugate_normal,
    random_conjugate_normal,
    reconstruct,
    wigner_normal_form,
)
from wignerpf.ensembles import spectrum_blocks
from wignerpf.linalg import frobenius, unitarity_defect
from wignerpf.normal_form import _cluster_indices

from conftest import corpus_spec


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

    def test_generic_hermitian_fails(self):
        # complex Hermitian matrices are not conjugate-normal in general
        # (the defect is ||conj(A^2) - A^2||), only when A^2 is real
        rng = np.random.default_rng(9)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        assert not is_conjugate_normal(h)[0]
        assert is_conjugate_normal([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])[0]

    def test_antisymmetric_part(self):
        m = np.array([[1.0, 2.0], [4.0, 3.0]])
        np.testing.assert_array_equal(
            antisymmetric_part(m), [[0.0, -1.0], [1.0, 0.0]]
        )


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

        complex_clusters = by_kind["complex-pair"]
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

        nonneg = sorted(c.omega.real for c in by_kind["nonnegative-real"])
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


def assert_valid_normal_form(matrix, nf, tol=None):
    tol = tol or Tolerances()
    norm = frobenius(matrix)
    assert unitarity_defect(nf.u) <= tol.unitarity_threshold(matrix.shape[0])
    np.testing.assert_allclose(
        reconstruct(nf), matrix, atol=tol.reconstruct * max(norm, 1.0)
    )


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
            other = wigner_normal_form(matrix, gauge_seed=seed)
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
        # every phase-fixed eigenvector v = e_k of Lambda = 1 has
        # A conj(v) = -v, so v + A conj(v) / sqrt(omega) vanishes
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
        nf = wigner_normal_form(matrix, gauge_seed=gauge_seed)
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
        base = generalized_pfaffian(matrix).value
        other = generalized_pfaffian(matrix, gauge_seed=gauge_seed).value
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

    def test_tight_reconstruction_tolerance_raises(self):
        spec = corpus_spec(7)
        matrix = random_conjugate_normal(spec)
        with pytest.raises(SpectralConsistencyError):
            wigner_normal_form(matrix, Tolerances(reconstruct=1e-18, unitarity=1e-17))

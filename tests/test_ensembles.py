"""Seeded matrix generators and the spectrum prescription format."""

import numpy as np
import pytest

from wignerpf import (
    InputError,
    OffDiagBlock,
    Real1Block,
    SpectrumEntry,
    SpectrumSpec,
    is_conjugate_normal,
    random_conjugate_normal,
    random_ginibre,
)
from wignerpf.ensembles import random_unitary, spectrum_blocks
from wignerpf.linalg import unitarity_defect


class TestGenerators:
    def test_deterministic_for_fixed_seed(self):
        np.testing.assert_array_equal(random_ginibre(5, 3), random_ginibre(5, 3))
        np.testing.assert_array_equal(random_unitary(5, 3), random_unitary(5, 3))

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            random_ginibre(2, -1)
        with pytest.raises(InputError):
            random_unitary(3, -7)

    def test_seed_changes_output(self):
        assert not np.allclose(random_ginibre(4, 0), random_ginibre(4, 1))

    def test_unitary_is_unitary(self):
        for dim, seed in [(1, 0), (3, 7), (20, 19)]:
            assert unitarity_defect(random_unitary(dim, seed)) < 1e-13 * dim

    def test_ginibre_moments(self):
        # entries are complex gaussians with unit variance per component,
        # so E z = 0 and E |z|^2 = 2
        m = random_ginibre(60, 11)
        assert abs(m.mean()) < 0.05
        assert abs(np.mean(np.abs(m) ** 2) - 2.0) < 0.1

    def test_unitary_determinant_not_locked(self):
        # the R-phase correction must not force det = 1
        dets = [np.linalg.det(random_unitary(4, s)) for s in range(4)]
        assert np.std([np.angle(d) for d in dets]) > 0.1


class TestSpectrumEntry:
    def test_complex_requires_upper_half_plane(self):
        SpectrumEntry("complex", 1.0 + 0.5j, 2)
        with pytest.raises(InputError):
            SpectrumEntry("complex", 1.0 - 0.5j)
        with pytest.raises(InputError):
            SpectrumEntry("complex", 1.0 + 0.0j)

    def test_negative_real_requires_even_multiplicity(self):
        SpectrumEntry("negative-real", -2.0, 2)
        with pytest.raises(InputError):
            SpectrumEntry("negative-real", -2.0, 3)
        with pytest.raises(InputError):
            SpectrumEntry("negative-real", 2.0, 2)
        with pytest.raises(InputError):
            SpectrumEntry("negative-real", -2.0 + 1.0j, 2)

    def test_positive_real(self):
        SpectrumEntry("positive-real", 3.0, 1)
        with pytest.raises(InputError):
            SpectrumEntry("positive-real", -3.0, 1)

    def test_unknown_class(self):
        with pytest.raises(InputError):
            SpectrumEntry("imaginary", 1.0j, 1)

    def test_dimension_accounting(self):
        assert SpectrumEntry("complex", 1.0 + 1.0j, 3).dimension == 6
        assert SpectrumEntry("negative-real", -1.0, 4).dimension == 4
        assert SpectrumEntry("zero", 0.0, 2).dimension == 2


class TestSpectrumSpec:
    def _spec(self):
        return SpectrumSpec(
            entries=(
                SpectrumEntry("complex", 0.5 + 1.25j, 1),
                SpectrumEntry("negative-real", -4.0, 2),
                SpectrumEntry("zero", 0.0, 1),
            ),
            seed=17,
        )

    def test_dimension(self):
        assert self._spec().dimension == 5

    def test_dim_consistency_check(self):
        entries = (SpectrumEntry("complex", 1.0 + 1.0j, 1),)
        SpectrumSpec(entries=entries, seed=0, dim=2)
        with pytest.raises(InputError):
            SpectrumSpec(entries=entries, seed=0, dim=3)

    def test_requires_entries(self):
        with pytest.raises(InputError):
            SpectrumSpec(entries=(), seed=0)

    def test_json_round_trip(self):
        spec = self._spec()
        data = spec.to_json_dict()
        assert data["seed"] == 17
        assert data["spectrum"][0] == {
            "class": "complex",
            "multiplicity": 1,
            "omega": [0.5, 1.25],
        }
        assert data["spectrum"][1] == {
            "class": "negative-real",
            "multiplicity": 2,
            "omega": -4.0,
        }
        assert "omega" not in data["spectrum"][2]
        assert SpectrumSpec.from_json_dict(data) == spec

    def test_from_json_dict_errors(self):
        with pytest.raises(InputError):
            SpectrumSpec.from_json_dict([])
        with pytest.raises(InputError):
            SpectrumSpec.from_json_dict({"seed": 0})
        with pytest.raises(InputError):
            SpectrumSpec.from_json_dict({"seed": "zero", "spectrum": []})
        with pytest.raises(InputError):
            SpectrumSpec.from_json_dict({"spectrum": [{"multiplicity": 1}]})
        with pytest.raises(InputError):
            SpectrumSpec.from_json_dict(
                {"spectrum": [{"class": "complex", "omega": [1.0]}]}
            )
        with pytest.raises(InputError):
            SpectrumSpec.from_json_dict(
                {"spectrum": [{"class": "complex", "omega": [1.0, 1.0], "multiplicity": 1.5}]}
            )

    @pytest.mark.parametrize(
        "omega", [10**400, [-(10**400), 1], [1, 10**400]], ids=["scalar", "re", "im"]
    )
    def test_from_json_omega_beyond_the_double_range(self, omega):
        with pytest.raises(InputError, match="entry 0: omega is outside the double range"):
            SpectrumSpec.from_json_dict({"spectrum": [{"class": "complex", "omega": omega}]})

    @pytest.mark.parametrize(
        "omega", [["a", 1], [None, 1], ["1", "2"], [True, 0], [1, False], "1", None]
    )
    def test_from_json_omega_parts_must_be_numbers(self, omega):
        with pytest.raises(InputError, match="entry 0: omega must be a number or"):
            SpectrumSpec.from_json_dict({"spectrum": [{"class": "complex", "omega": omega}]})

    def test_from_json_scalar_omega(self):
        spec = SpectrumSpec.from_json_dict(
            {"spectrum": [{"class": "negative-real", "omega": -2, "multiplicity": 2}]}
        )
        assert spec.entries[0].omega == -2.0 + 0.0j
        assert spec.seed == 0


class TestSpectrumBlocks:
    def test_block_values_and_order(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("zero", 0.0, 1),
                SpectrumEntry("complex", 4.0j, 1),          # s = sqrt(4i), |s| = 2
                SpectrumEntry("negative-real", -9.0, 2),    # s = 3i
                SpectrumEntry("positive-real", 16.0, 1),    # sigma = 4
            ),
            seed=0,
        )
        blocks = spectrum_blocks(spec)
        assert isinstance(blocks[0], OffDiagBlock)
        np.testing.assert_allclose(blocks[0].s, 3.0j)
        np.testing.assert_allclose(blocks[1].s, np.sqrt(2.0) * (1.0 + 1.0j))
        assert blocks[2] == Real1Block(0.0, 1)
        assert blocks[3] == Real1Block(4.0, 1)

    def test_negative_real_halves_multiplicity(self):
        spec = SpectrumSpec(
            entries=(SpectrumEntry("negative-real", -1.0, 4),), seed=0
        )
        (block,) = spectrum_blocks(spec)
        assert block == OffDiagBlock(1.0j, 2)


class TestRandomConjugateNormal:
    def test_output_is_conjugate_normal(self):
        for index in range(5):
            spec = SpectrumSpec(
                entries=(
                    SpectrumEntry("complex", 1.0 + 1.0j + 0.3 * index, 1),
                    SpectrumEntry("negative-real", -2.0 - index, 2),
                ),
                seed=100 + index,
            )
            flag, residual = is_conjugate_normal(random_conjugate_normal(spec))
            assert flag
            assert residual < 1e-14

    def test_lambda_spectrum_matches_prescription(self):
        spec = SpectrumSpec(
            entries=(
                SpectrumEntry("complex", 0.5 + 2.0j, 2),
                SpectrumEntry("negative-real", -3.0, 2),
                SpectrumEntry("positive-real", 1.0, 1),
            ),
            seed=23,
        )
        matrix = random_conjugate_normal(spec)
        lam = matrix @ np.conj(matrix)

        def canon(values):
            # sort robustly against rounding noise in tied real parts
            return sorted(values, key=lambda z: (round(z.real, 8), round(z.imag, 8)))

        got = canon(np.linalg.eigvals(lam))
        want = canon([0.5 + 2.0j, 0.5 + 2.0j, 0.5 - 2.0j, 0.5 - 2.0j, -3.0, -3.0, 1.0])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_deterministic(self):
        spec = SpectrumSpec(
            entries=(SpectrumEntry("complex", 1.0 + 1.0j, 1),), seed=5
        )
        np.testing.assert_array_equal(
            random_conjugate_normal(spec), random_conjugate_normal(spec)
        )

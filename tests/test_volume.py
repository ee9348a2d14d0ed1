import numpy as np
import pytest

from sepop import volume
from sepop.volume import Volume

import oracles
import reference_sampler


@pytest.fixture
def ramp_volume():
    # v[i,j,k] = 100*i + 10*j + k
    grid = np.add.outer(
        np.add.outer(100.0 * np.arange(12), 10.0 * np.arange(12)), 1.0 * np.arange(12)
    )
    return Volume(grid)


class TestExtractPatch:
    def test_single_voxel(self, ramp_volume):
        patch = oracles.extract_patch(ramp_volume, (3, 4, 5), (1, 1, 1))
        assert patch.shape == (1, 1, 1)
        assert patch[0, 0, 0] == 345.0

    def test_full_volume_window(self, ramp_volume):
        patch = oracles.extract_patch(ramp_volume, (6, 6, 6), (12, 12, 12))
        np.testing.assert_array_equal(patch, ramp_volume.data)

    def test_ramp_values_match_formula(self, ramp_volume):
        patch = oracles.extract_patch(ramp_volume, (5, 5, 5), (5, 5, 5))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert patch[i, j, k] == 100.0 * (3 + i) + 10.0 * (3 + j) + (3 + k)

    def test_out_of_bounds_rejected(self, ramp_volume):
        with pytest.raises(ValueError, match="bounds"):
            oracles.extract_patch(ramp_volume, (1, 5, 5), (5, 5, 5))

    def test_even_dims_bias_low(self, ramp_volume):
        patch = oracles.extract_patch(ramp_volume, (5, 5, 5), (4, 4, 4))
        assert patch[0, 0, 0] == 100.0 * 3 + 10.0 * 3 + 3


class TestBuildTrainingSet:
    def test_constant_volume_rejected(self):
        vol = Volume(np.full((10, 10, 10), 7.0))
        with pytest.raises(ValueError, match="rejection"):
            volume.build_training_set(vol, 10, (3, 3, 3), flat_tol=1.0, seed=0)

    def test_no_rejection_with_negative_tol(self):
        rng = np.random.default_rng(0)
        vol = Volume(rng.uniform(0, 255, (12, 12, 12)))
        train = volume.build_training_set(vol, 25, (5, 5, 5), flat_tol=-1.0, seed=1)
        assert train.count == 25
        norms = np.linalg.norm(train.patches.reshape(25, -1), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        means = train.patches.reshape(25, -1).mean(axis=1)
        np.testing.assert_allclose(means, 0.0, atol=1e-12)

    def test_ramp_patches_identical_after_normalization(self, ramp_volume):
        train = volume.build_training_set(ramp_volume, 10, (5, 5, 5), flat_tol=0.0, seed=2)
        # every normalized patch of a linear ramp is the same gradient tensor
        for i in range(1, 10):
            np.testing.assert_allclose(train.patches[i], train.patches[0], atol=1e-12)

    def test_scale_invariance_exact_for_power_of_two(self):
        vol = volume.synth_phantom((16, 16, 16), seed=3)
        doubled = Volume(vol.data * 2.0)
        a = volume.build_training_set(vol, 50, (5, 5, 5), flat_tol=1.0, seed=4)
        b = volume.build_training_set(doubled, 50, (5, 5, 5), flat_tol=1.0, seed=4)
        np.testing.assert_array_equal(a.patches, b.patches)

    def test_deterministic(self):
        vol = volume.synth_phantom((16, 16, 16), seed=5)
        a = volume.build_training_set(vol, 30, (5, 5, 5), seed=6)
        b = volume.build_training_set(vol, 30, (5, 5, 5), seed=6)
        np.testing.assert_array_equal(a.patches, b.patches)


class TestSamplerEqualsReference:
    """The batched sampler gives the frozen draw-by-draw loop's patches and
    draw count bit for bit, and fails at the draw limit after the same draws."""

    @staticmethod
    def assert_same(vol, count, patch_dims, flat_tol, seed):
        got = volume.build_training_set(vol, count, patch_dims, flat_tol=flat_tol, seed=seed)
        want, draws = reference_sampler.build_training_set(vol, count, patch_dims, flat_tol, seed)
        # flat_tol < 0 keeps constant windows, which normalize to NaN in both
        assert np.array_equal(got.patches, want, equal_nan=True)
        assert got.meta["draws"] == draws

    @pytest.mark.parametrize("phantom_seed", [5, 8])
    def test_learn_probe_phantoms(self, phantom_seed):
        vol = volume.synth_phantom((32, 32, 32), seed=phantom_seed)
        self.assert_same(vol, 2000, (5, 5, 5), 1.0, 3)

    @pytest.mark.parametrize("patch_dims", [(5, 5, 5), (4, 4, 4), (4, 6, 3), (2, 1, 2)])
    def test_non_cubic_volume(self, patch_dims):
        vol = volume.synth_phantom((24, 9, 40), seed=2)
        self.assert_same(vol, 300, patch_dims, 1.0, 7)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("flat_tol", [-1.0, 0.0, 1.0, 60.0])
    def test_flat_tolerances(self, flat_tol):
        vol = volume.synth_phantom((16, 16, 16), seed=3)
        self.assert_same(vol, 200, (5, 5, 5), flat_tol, 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_patch(self, seed):
        self.assert_same(volume.synth_phantom((16, 16, 16), seed=3), 1, (5, 5, 5), 1.0, seed)

    @pytest.mark.parametrize("flat_tol", [90.0, 1e9])
    def test_draw_limit(self, flat_tol):
        vol = volume.synth_phantom((16, 16, 16), seed=3)
        with pytest.raises(RuntimeError) as want:
            reference_sampler.build_training_set(vol, 40, (5, 5, 5), flat_tol, 6)
        with pytest.raises(ValueError) as got:
            volume.build_training_set(vol, 40, (5, 5, 5), flat_tol=flat_tol, seed=6)
        assert str(got.value) == str(want.value)
        assert "after 4000 draws" in str(got.value)


class TestAddAwgn:
    def test_zero_sigma_identity(self):
        vol = volume.synth_phantom((8, 8, 8), seed=0)
        out = volume.add_awgn(vol, 0.0, seed=1)
        np.testing.assert_array_equal(out.data, vol.data)

    def test_empirical_std_matches_sigma(self):
        vol = Volume(np.zeros((70, 70, 70)))
        out = volume.add_awgn(vol, 15.0, seed=2)
        measured = float((out.data - vol.data).std())
        assert measured == pytest.approx(15.0, rel=0.02)

    def test_deterministic(self):
        vol = volume.synth_phantom((8, 8, 8), seed=0)
        a = volume.add_awgn(vol, 5.0, seed=3)
        b = volume.add_awgn(vol, 5.0, seed=3)
        np.testing.assert_array_equal(a.data, b.data)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            volume.add_awgn(Volume(np.zeros((8, 8, 8))), -1.0)


class TestSynthPhantom:
    def test_intensity_range(self):
        vol = volume.synth_phantom((32, 32, 32), seed=7)
        assert vol.data.min() >= 0.0
        assert vol.data.max() <= 255.0

    def test_nonzero_gradient_fraction(self):
        vol = volume.synth_phantom((32, 32, 32), seed=8)
        d = vol.data
        edges = (
            (np.abs(np.diff(d, axis=0, append=d[-1:])) > 0)
            | (np.abs(np.diff(d, axis=1, append=d[:, -1:])) > 0)
            | (np.abs(np.diff(d, axis=2, append=d[:, :, -1:])) > 0)
        )
        assert 0.05 <= edges.mean() <= 0.60

    def test_deterministic(self):
        a = volume.synth_phantom((16, 16, 16), seed=9)
        b = volume.synth_phantom((16, 16, 16), seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            volume.synth_phantom((4, 16, 16), seed=0)


class TestVolumeFiles:
    def test_round_trip(self, tmp_path):
        vol = volume.synth_phantom((9, 10, 11), seed=10)
        path = str(tmp_path / "v.vol")
        volume.write_volume(vol, path)
        back = volume.read_volume(path)
        np.testing.assert_array_equal(back.data, vol.data)
        assert back.intensity_range == vol.intensity_range

    def test_truncated_payload_rejected(self, tmp_path):
        vol = volume.synth_phantom((8, 8, 8), seed=11)
        path = str(tmp_path / "v.vol")
        volume.write_volume(vol, path)
        with open(path, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(ValueError, match="payload"):
            volume.read_volume(path)

    def test_dims_product_validated(self, tmp_path):
        vol = volume.synth_phantom((8, 8, 8), seed=12)
        path = str(tmp_path / "v.vol")
        volume.write_volume(vol, path)
        header = (tmp_path / "v.vol.json").read_text()
        (tmp_path / "v.vol.json").write_text(header.replace("[8, 8, 8]", "[8, 8, 9]"))
        with pytest.raises(ValueError, match="require"):
            volume.read_volume(path)

    def test_non_finite_rejected(self, tmp_path):
        vol = volume.synth_phantom((8, 8, 8), seed=13)
        path = str(tmp_path / "v.vol")
        volume.write_volume(vol, path)
        payload = np.fromfile(path, dtype="<f8")
        payload[17] = np.nan
        payload.tofile(path)
        with pytest.raises(ValueError, match="non-finite.*17"):
            volume.read_volume(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "naked.vol"
        path.write_bytes(b"\x00" * 80)
        with pytest.raises(ValueError, match="header"):
            volume.read_volume(str(path))

    def test_patch_survives_round_trip(self, tmp_path):
        vol = volume.synth_phantom((12, 12, 12), seed=14)
        path = str(tmp_path / "v.vol")
        volume.write_volume(vol, path)
        back = volume.read_volume(path)
        a = oracles.extract_patch(vol, (6, 6, 6), (5, 5, 5))
        b = oracles.extract_patch(back, (6, 6, 6), (5, 5, 5))
        np.testing.assert_array_equal(a, b)


class TestRawImport:
    def test_u8_import_scales_to_range(self, tmp_path):
        raw = np.arange(27, dtype=np.uint8)
        path = str(tmp_path / "grid.raw")
        raw.tofile(path)
        vol = volume.import_raw_volume(path, (3, 3, 3), dtype="u8")
        assert vol.data.max() == pytest.approx(255.0)
        assert vol.data.min() == 0.0

    def test_size_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "grid.raw")
        np.zeros(10, dtype=np.uint8).tofile(path)
        with pytest.raises(ValueError, match="require"):
            volume.import_raw_volume(path, (3, 3, 3), dtype="u8")

import math

import numpy as np
import pytest

from sepop import manifold, reconstruct, volume
from sepop.reconstruct import (
    FourierMeasurement,
    IdentityMeasurement,
    ReconConfig,
    SamplingMask,
    load_mask,
    load_measurement,
    mssim,
    psnr,
    radial_mask,
    radial_mask_for_rate,
    save_mask,
    save_measurement,
)
from sepop.volume import Volume

import reference_objective


@pytest.fixture
def rng():
    return np.random.default_rng(31)


@pytest.fixture
def factors(rng):
    return [manifold.random_factor(6, 5, rng) for _ in range(3)]


class TestRadialMask:
    def test_single_line_is_a_row(self):
        m = radial_mask(9, 9, 1)
        assert m.mask[4].all()
        assert int(m.mask.sum()) == 9

    def test_rotation_symmetry_about_dc(self):
        m = radial_mask(33, 33, 7)
        flipped = m.mask[::-1, ::-1]
        np.testing.assert_array_equal(m.mask, flipped)

    def test_dc_always_sampled(self):
        for lines in (1, 3, 8):
            m = radial_mask(16, 16, lines)
            assert m.mask[8, 8]

    def test_rate_sweep_reaches_twenty_percent(self):
        m = radial_mask_for_rate(64, 64, 0.20)
        assert m.sampling_rate >= 0.20
        # the sweep result is minimal: one line fewer must fall short
        lines = 1
        while radial_mask(64, 64, lines).sampling_rate < 0.20:
            lines += 1
        assert int(radial_mask(64, 64, lines).mask.sum()) == int(m.mask.sum())

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            radial_mask(2, 9, 1)
        with pytest.raises(ValueError):
            radial_mask(9, 9, 0)
        with pytest.raises(ValueError, match="rate"):
            radial_mask_for_rate(16, 16, 1.5)


class TestMeasurementOps:
    def test_identity_round_trip(self, rng):
        op = IdentityMeasurement((6, 7, 8))
        v = rng.standard_normal((6, 7, 8))
        np.testing.assert_array_equal(op.adjoint(op.forward(v)), v)

    def test_fourier_constant_slice_dc_only(self):
        h = w = 8
        mask = SamplingMask(np.ones((h, w), dtype=bool), 1.0)
        op = FourierMeasurement((h, w, 1), mask)
        y = op.forward(np.full((h, w, 1), 3.0))
        spectrum = y.reshape(h, w)
        assert abs(spectrum[h // 2, w // 2] - 3.0 * math.sqrt(h * w)) < 1e-10
        off = spectrum.copy()
        off[h // 2, w // 2] = 0.0
        assert np.max(np.abs(off)) < 1e-10

    def test_parseval_full_mask(self, rng):
        mask = SamplingMask(np.ones((8, 8), dtype=bool), 1.0)
        op = FourierMeasurement((8, 8, 3), mask)
        v = rng.standard_normal((8, 8, 3))
        assert np.linalg.norm(op.forward(v)) == pytest.approx(np.linalg.norm(v), rel=1e-10)

    def test_adjoint_consistency_random(self, rng):
        mask = radial_mask_for_rate(12, 12, 0.4)
        op = FourierMeasurement((12, 12, 4), mask)
        for _ in range(5):
            v = rng.standard_normal((12, 12, 4))
            y = op.forward(v)
            m = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
            lhs = float(np.real(np.vdot(y, m)))
            rhs = float(np.sum(v * op.adjoint(m)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_mask_shape_mismatch_rejected(self):
        mask = radial_mask(8, 8, 2)
        with pytest.raises(ValueError, match="mask"):
            FourierMeasurement((10, 10, 2), mask)


class TestReconstructionObjective:
    def test_gradient_matches_finite_differences_identity(self, rng, factors):
        v = rng.standard_normal((8, 8, 8)) * 10
        op = IdentityMeasurement((8, 8, 8))
        y = op.forward(rng.standard_normal((8, 8, 8)) * 10)
        cfg = ReconConfig(lam=50.0)
        self._check_gradient(v, y, op, factors, cfg, rng)

    def test_gradient_matches_finite_differences_fourier(self, rng, factors):
        v = rng.standard_normal((8, 8, 8)) * 10
        mask = radial_mask_for_rate(8, 8, 0.5)
        op = FourierMeasurement((8, 8, 8), mask)
        y = op.forward(rng.standard_normal((8, 8, 8)) * 10)
        cfg = ReconConfig(lam=50.0)
        self._check_gradient(v, y, op, factors, cfg, rng)

    @staticmethod
    def _check_gradient(v, y, op, factors, cfg, rng, trials=20):
        grad = reconstruct.reconstruction_gradient(v, y, op, factors, cfg)
        eps = 1e-5
        for _ in range(trials):
            i, j, k = rng.integers(0, v.shape[0], 3)
            plus, minus = v.copy(), v.copy()
            plus[i, j, k] += eps
            minus[i, j, k] -= eps
            fd = (
                reconstruct.reconstruction_objective(plus, y, op, factors, cfg)
                - reconstruct.reconstruction_objective(minus, y, op, factors, cfg)
            ) / (2 * eps)
            assert grad[i, j, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestBitIdentityWithPerPatchDefinition:
    """The vectorized evaluation rounds exactly like the per-patch definition."""

    @pytest.mark.parametrize("dims", [(32, 32, 32), (32, 32, 8), (17, 19, 11)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["identity", "fourier"])
    def test_cost_and_gradient_equal_the_reference(self, rng, factors, dims, stride, kind):
        if kind == "identity":
            op = ref_op = IdentityMeasurement(dims)
        else:
            mask = radial_mask_for_rate(dims[0], dims[1], 0.6)
            op = FourierMeasurement(dims, mask)
            ref_op = reference_objective.SliceFourierMeasurement(dims, mask)
        self._assert_equal(rng, op, ref_op, factors, ReconConfig(lam=3000.0, patch_stride=stride))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_mixed_patch_and_factor_shapes(self, rng, stride):
        factors = [manifold.random_factor(k, n, rng) for k, n in ((4, 3), (7, 4), (5, 5))]
        op = IdentityMeasurement((17, 19, 11))
        cfg = ReconConfig(lam=3000.0, patch_stride=stride, patch_dims=(3, 4, 5))
        self._assert_equal(rng, op, op, factors, cfg)

    @staticmethod
    def _assert_equal(rng, op, ref_op, factors, cfg):
        v = rng.uniform(0, 255, op.dims)
        y = op.forward(v + 15.0 * rng.standard_normal(op.dims))
        cost, grad = reconstruct._objective_and_gradient(v, y, op, factors, cfg)
        ref_cost, ref_grad = reference_objective.objective_and_gradient(v, y, ref_op, factors, cfg)
        assert cost == ref_cost
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("dims", [(32, 32, 8), (31, 33, 5), (16, 16, 1)])
    def test_fourier_pair_equals_per_slice_transforms(self, rng, dims):
        mask = radial_mask_for_rate(dims[0], dims[1], 0.6)
        op = FourierMeasurement(dims, mask)
        ref_op = reference_objective.SliceFourierMeasurement(dims, mask)
        v = rng.standard_normal(dims)
        y = op.forward(v)
        assert np.array_equal(y, ref_op.forward(v))
        m = y + rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        back = op.adjoint(m)
        assert back.flags.c_contiguous
        assert np.array_equal(back, ref_op.adjoint(m))

    def test_cs_solver_trace_equals_the_reference(self, factors, monkeypatch):
        vol = volume.synth_phantom((32, 32, 8), seed=5)
        mask = radial_mask_for_rate(32, 32, 0.6)
        cfg = ReconConfig(lam=1500.0, max_iters=30)
        op = FourierMeasurement(vol.dims, mask)
        y = op.forward(vol.data)
        trace: list[float] = []
        out = reconstruct.reconstruct(y, op, factors, cfg, trace=trace)

        ref_op = reference_objective.SliceFourierMeasurement(vol.dims, mask)
        monkeypatch.setattr(
            reconstruct, "_objective_and_gradient", reference_objective.objective_and_gradient
        )
        ref_trace: list[float] = []
        ref_out = reconstruct.reconstruct(y, ref_op, factors, cfg, trace=ref_trace)
        assert len(trace) == 31
        assert trace == ref_trace
        assert np.array_equal(out.data, ref_out.data)


class TestReconstructSolver:
    def test_tiny_lambda_identity_returns_data(self, rng, factors):
        data = rng.uniform(0, 255, (8, 8, 8))
        op = IdentityMeasurement((8, 8, 8))
        y = op.forward(data)
        cfg = ReconConfig(lam=1e-12, max_iters=5)
        out = reconstruct.reconstruct(y, op, factors, cfg)
        np.testing.assert_allclose(out.data, data, atol=1e-6)

    def test_objective_trace_non_increasing(self, rng, factors):
        vol = volume.synth_phantom((12, 12, 12), seed=1)
        noisy = volume.add_awgn(vol, 10.0, seed=2)
        op = IdentityMeasurement(vol.dims)
        trace: list[float] = []
        cfg = ReconConfig(lam=500.0, max_iters=20)
        reconstruct.reconstruct(op.forward(noisy.data), op, factors, cfg, trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_factor_patch_mismatch_rejected(self, rng):
        bad = [manifold.random_factor(6, 4, rng) for _ in range(3)]
        op = IdentityMeasurement((8, 8, 8))
        y = op.forward(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError, match="patch dim"):
            reconstruct.reconstruct(y, op, bad, ReconConfig(lam=1.0))


class TestPsnr:
    def test_uniform_shift_closed_form(self):
        a = Volume(np.zeros((12, 12, 12)))
        b = Volume(np.full((12, 12, 12), 10.0))
        assert psnr(a, b) == pytest.approx(20.0 * math.log10(25.5), abs=1e-9)

    def test_identical_sentinel(self):
        a = Volume(np.ones((8, 8, 8)))
        assert math.isinf(psnr(a, a))

    def test_matches_mse_loop(self, rng):
        a = Volume(rng.uniform(0, 255, (8, 8, 8)))
        b = Volume(rng.uniform(0, 255, (8, 8, 8)))
        mse = float(np.mean((a.data - b.data) ** 2))
        assert psnr(a, b) == pytest.approx(10.0 * math.log10(255.0**2 / mse), rel=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(Volume(np.zeros((8, 8, 8))), Volume(np.zeros((8, 8, 9))))


class TestMssim:
    def test_identical_volumes(self):
        vol = volume.synth_phantom((16, 16, 16), seed=3)
        assert mssim(vol, vol) == pytest.approx(1.0, abs=1e-12)

    def test_zero_volume_scores_low(self):
        vol = volume.synth_phantom((32, 32, 8), seed=4)
        zero = Volume(np.zeros(vol.dims))
        assert mssim(vol, zero) < 0.2

    def test_symmetric(self, rng):
        a = Volume(rng.uniform(0, 255, (16, 16, 4)))
        b = Volume(rng.uniform(0, 255, (16, 16, 4)))
        assert mssim(a, b) == pytest.approx(mssim(b, a), rel=1e-12)

    def test_small_slices_rejected(self):
        with pytest.raises(ValueError, match="11x11"):
            mssim(Volume(np.zeros((8, 8, 8))), Volume(np.zeros((8, 8, 8))))


class TestMaskAndMeasurementFiles:
    def test_mask_round_trip(self, tmp_path):
        m = radial_mask(16, 16, 5)
        path = str(tmp_path / "mask.txt")
        save_mask(m, path)
        back = load_mask(path)
        np.testing.assert_array_equal(back.mask, m.mask)
        assert back.sampling_rate == m.sampling_rate

    def test_measurement_round_trip(self, tmp_path, rng):
        mask = radial_mask_for_rate(12, 12, 0.3)
        op = FourierMeasurement((12, 12, 2), mask)
        y = op.forward(rng.standard_normal((12, 12, 2)))
        path = str(tmp_path / "meas.bin")
        save_measurement(y, op, path, mask_ref="mask.txt")
        back, meta = load_measurement(path)
        np.testing.assert_array_equal(back, y)
        assert meta["kind"] == "fourier"
        assert meta["mask"] == "mask.txt"

    def test_corrupt_measurement_rejected(self, tmp_path, rng):
        op = IdentityMeasurement((6, 6, 6))
        y = op.forward(rng.standard_normal((6, 6, 6))).astype(complex)
        path = str(tmp_path / "meas.bin")
        save_measurement(y, op, path)
        with open(path, "r+b") as fh:
            fh.truncate(64)
        with pytest.raises(ValueError, match="payload"):
            load_measurement(path)

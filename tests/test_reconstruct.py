import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from sepop import cg, manifold, objective, reconstruct, tensor, volume
from sepop.reconstruct import (
    FourierMeasurement,
    IdentityMeasurement,
    ReconConfig,
    SamplingMask,
    mssim,
    psnr,
    radial_mask,
    radial_mask_for_rate,
)
from sepop.volume import Volume

import oracles
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

    def test_rate_is_the_mask_mean(self):
        m = radial_mask_for_rate(32, 32, 0.6)
        assert m.sampling_rate == m.mask.mean()
        hand = np.zeros((8, 8), dtype=bool)
        hand[4, :] = hand[0, 0] = True  # the DC row and one corner
        assert SamplingMask(hand).sampling_rate == hand.mean() == 9 / 64
        with pytest.raises(TypeError):
            SamplingMask(hand, 0.2)  # the rate is the mask's, not a second input

    @pytest.mark.parametrize(
        "h, w", [(4, 4), (5, 4), (4, 7), (7, 7), (8, 8), (9, 6), (12, 16), (17, 17), (33, 32), (64, 48)]
    )
    def test_matches_the_point_loop(self, h, w):
        # every line count up to 24, then nine spread over the sweep's whole range 1..4(h+w)
        counts = set(range(1, 25)) | {int(n) for n in np.linspace(1, 4 * (h + w), 9)}
        for lines in sorted(counts):
            expected = oracles.radial_mask(h, w, lines)
            assert np.array_equal(radial_mask(h, w, lines).mask, expected), lines

    @pytest.mark.parametrize("h, w, highest", [(32, 32, 0.9384765625), (16, 16, 0.87890625)])
    def test_rate_above_the_highest_reached_is_refused(self, h, w, highest):
        # on an even grid, row 0 and column 0 are never sampled
        assert max(radial_mask(h, w, n).sampling_rate for n in range(1, 4 * (h + w) + 2)) == highest
        with pytest.raises(ValueError, match=rf"rate 1.0 .* {h}x{w} grid; the highest rate reached is {highest}$"):
            radial_mask_for_rate(h, w, 1.0)
        assert radial_mask_for_rate(h, w, highest).sampling_rate == highest

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
        mask = SamplingMask(np.ones((h, w), dtype=bool))
        op = FourierMeasurement((h, w, 1), mask)
        y = op.forward(np.full((h, w, 1), 3.0))
        spectrum = y.reshape(h, w)
        assert abs(spectrum[h // 2, w // 2] - 3.0 * math.sqrt(h * w)) < 1e-10
        off = spectrum.copy()
        off[h // 2, w // 2] = 0.0
        assert np.max(np.abs(off)) < 1e-10

    def test_parseval_full_mask(self, rng):
        mask = SamplingMask(np.ones((8, 8), dtype=bool))
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
        _cost, grad = oracles.reconstruction_objective(v, y, op, factors, cfg)
        eps = 1e-5
        for _ in range(trials):
            i, j, k = rng.integers(0, v.shape[0], 3)
            plus, minus = v.copy(), v.copy()
            plus[i, j, k] += eps
            minus[i, j, k] -= eps
            fd = (
                oracles.reconstruction_objective(plus, y, op, factors, cfg)[0]
                - oracles.reconstruction_objective(minus, y, op, factors, cfg)[0]
            ) / (2 * eps)
            assert grad[i, j, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestBitIdentityWithPerPatchDefinition:
    """The vectorized evaluation rounds exactly like the per-patch definition."""

    @pytest.mark.parametrize("dims", [(32, 32, 32), (32, 32, 8), (17, 19, 11)])
    @pytest.mark.parametrize("kind", ["identity", "fourier"])
    def test_cost_and_gradient_equal_the_reference(self, rng, factors, dims, kind):
        if kind == "identity":
            op = ref_op = IdentityMeasurement(dims)
        else:
            mask = radial_mask_for_rate(dims[0], dims[1], 0.6)
            op = FourierMeasurement(dims, mask)
            ref_op = reference_objective.SliceFourierMeasurement(dims, mask)
        self._assert_equal(rng, op, ref_op, factors, ReconConfig(lam=3000.0))

    @pytest.mark.parametrize("dims, kind", [((17, 19, 11), "identity"), ((32, 32, 8), "fourier")])
    def test_at_a_budget_that_splits_every_pass(self, monkeypatch, rng, factors, dims, kind):
        # 8 KiB: slabs of two planes, GEMMs of 93 rows, adjoint blocks of 4 origins and
        # penalty chunks of 1 Ki entries, all at once
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * 1024)
        if kind == "identity":
            op = ref_op = IdentityMeasurement(dims)
        else:
            mask = radial_mask_for_rate(dims[0], dims[1], 0.6)
            op = FourierMeasurement(dims, mask)
            ref_op = reference_objective.SliceFourierMeasurement(dims, mask)
        self._assert_equal(rng, op, ref_op, factors, ReconConfig(lam=3000.0))

    def test_mixed_patch_and_factor_shapes(self, rng):
        factors = [manifold.random_factor(k, n, rng) for k, n in ((4, 3), (7, 4), (5, 5))]
        op = IdentityMeasurement((17, 19, 11))
        cfg = ReconConfig(lam=3000.0, patch_dims=(3, 4, 5))
        self._assert_equal(rng, op, op, factors, cfg)

    @staticmethod
    def _assert_equal(rng, op, ref_op, factors, cfg):
        v = rng.uniform(0, 255, op.dims)
        y = op.forward(v + 15.0 * rng.standard_normal(op.dims))
        cost, grad = oracles.reconstruction_objective(v, y, op, factors, cfg)
        ref_cost, ref_grad = reference_objective.objective_and_gradient(v, y, ref_op, factors, cfg)
        assert cost == ref_cost
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("dims", [(32, 32, 8), (31, 33, 5), (16, 16, 1), (12, 12, 4)])
    @pytest.mark.parametrize("sampling", ["radial", "full"])
    def test_fourier_pair_equals_per_slice_transforms(self, rng, dims, sampling):
        if sampling == "radial":
            mask = radial_mask_for_rate(dims[0], dims[1], 0.6)
        else:
            mask = SamplingMask(np.ones(dims[:2], dtype=bool))
        op = FourierMeasurement(dims, mask)
        ref_op = reference_objective.SliceFourierMeasurement(dims, mask)
        for _ in range(3):
            v = rng.standard_normal(dims)
            y = op.forward(v)
            assert np.array_equal(y, ref_op.forward(v))
            m = y + rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
            back = op.adjoint(m)
            assert back.flags.c_contiguous
            assert np.array_equal(back, ref_op.adjoint(m))

    def test_fourier_pair_shifts_no_spectrum(self, rng, monkeypatch):
        # the mask's centered bins are mapped to fft2's unshifted ones at construction
        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum was shifted")

        monkeypatch.setattr(np.fft, "fftshift", refuse)
        monkeypatch.setattr(np.fft, "ifftshift", refuse)
        op = FourierMeasurement((12, 12, 4), radial_mask_for_rate(12, 12, 0.4))
        y = op.forward(rng.standard_normal(op.dims))
        assert op.adjoint(y).shape == op.dims

    def test_fourier_op_keeps_its_own_mask(self, rng):
        mask = radial_mask_for_rate(16, 16, 0.4)
        op = FourierMeasurement((16, 16, 3), mask)
        v = rng.standard_normal(op.dims)
        y = op.forward(v)
        back = op.adjoint(y)
        mask.mask[:] = True  # the caller edits its mask afterwards
        mask.mask[0, 0] = False
        assert np.array_equal(op.forward(v), y)
        assert np.array_equal(op.adjoint(y), back)

    def test_cs_solver_trace_equals_the_reference(self, factors, monkeypatch):
        vol = volume.synth_phantom((32, 32, 8), seed=5)
        mask = radial_mask_for_rate(32, 32, 0.6)
        cfg = ReconConfig(lam=1500.0, max_iters=30)
        op = FourierMeasurement(vol.dims, mask)
        y = op.forward(vol.data)
        trace: list[float] = []
        out = reconstruct.reconstruct(y, op, factors, cfg, trace=trace)

        ref_op = reference_objective.SliceFourierMeasurement(vol.dims, mask)

        def reference_evaluate(*args):
            cost, grad = reference_objective.objective_and_gradient(*args)
            return cost, lambda: grad

        monkeypatch.setattr(reconstruct, "_evaluate", reference_evaluate)
        ref_trace: list[float] = []
        ref_out = reconstruct.reconstruct(y, ref_op, factors, cfg, trace=ref_trace)
        assert len(trace) == 31
        assert trace == ref_trace
        assert np.array_equal(out.data, ref_out.data)


class TestReconConfig:
    def test_patches_start_at_every_voxel(self):
        # the stride is a read-only constant that no caller sets, not a field
        assert "patch_stride" not in {field.name for field in dataclasses.fields(ReconConfig)}
        assert ReconConfig.patch_stride == ReconConfig(lam=1.0).patch_stride == 1
        with pytest.raises(TypeError):
            ReconConfig(lam=1.0, patch_stride=2)


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

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_non_positive_max_iters_rejected_before_any_evaluation(
        self, monkeypatch, factors, max_iters
    ):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("the objective was evaluated")

        monkeypatch.setattr(reconstruct, "_evaluate", no_evaluation)
        op = IdentityMeasurement((8, 8, 8))
        y = op.forward(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError, match="max_iters must be positive"):
            reconstruct.reconstruct(y, op, factors, ReconConfig(lam=1.0, max_iters=max_iters))

    @pytest.mark.parametrize(
        "data, lam, term",
        [(255.0, 1e308, "regularizer"), (1e300, 1e302, "regularizer"), (math.inf, 1.0, "data"),
         (255.0, 1e300, "regularizer")],  # the last: a finite cost, its gradient's norm is not
    )
    def test_non_finite_start_rejected_naming_the_term(self, factors, data, lam, term):
        op = IdentityMeasurement((8, 8, 8))
        y = op.forward(np.full((8, 8, 8), data) * np.arange(1, 9))
        message = (f"the {term} term or its gradient's norm is not finite at the start, "
                   f"lam {lam}, nu 1000.0")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=re.escape(message)):
                reconstruct.reconstruct(y, op, factors, ReconConfig(lam=lam, max_iters=3))

    def test_a_finite_start_costs_no_extra_evaluation(self, monkeypatch, factors):
        evaluate = reconstruct._evaluate
        calls, direct = [], []
        monkeypatch.setattr(reconstruct, "_evaluate", lambda *a: calls.append(1) or evaluate(*a))
        vol = volume.add_awgn(volume.synth_phantom((10, 10, 10), seed=3), 15.0, seed=4)
        op = IdentityMeasurement(vol.dims)
        y, cfg = op.forward(vol.data), ReconConfig(lam=3000.0, max_iters=4)
        reconstruct.reconstruct(y, op, factors, cfg)
        cg.minimize(
            lambda v: direct.append(1) or evaluate(v, y, op, factors, cfg),
            op.adjoint(y), cg.SolverConfig(max_iters=4), cg.FLAT,
        )
        assert len(calls) == len(direct) > 1

    def test_an_arithmetic_error_after_a_finite_start_is_raised_as_it_was(
        self, monkeypatch, factors
    ):
        evaluate, calls = reconstruct._evaluate, []

        def second_call_overflows(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OverflowError("overflow in a trial step")
            return evaluate(*args)

        monkeypatch.setattr(reconstruct, "_evaluate", second_call_overflows)
        vol = volume.synth_phantom((8, 8, 8), seed=3)
        op = IdentityMeasurement(vol.dims)
        with pytest.raises(OverflowError, match="overflow in a trial step"):
            reconstruct.reconstruct(op.forward(vol.data), op, factors, ReconConfig(lam=3000.0))

    def test_factor_patch_mismatch_rejected(self, rng):
        bad = [manifold.random_factor(6, 4, rng) for _ in range(3)]
        op = IdentityMeasurement((8, 8, 8))
        y = op.forward(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError, match="patch dim"):
            reconstruct.reconstruct(y, op, bad, ReconConfig(lam=1.0))

    def test_factor_count_is_checked_against_the_volume_order(self, rng):
        # patch dims that agree with the factors do not make 2-D patches of a 3-D volume
        two = [manifold.random_factor(6, 5, rng) for _ in range(2)]
        op = IdentityMeasurement((8, 8, 8))
        y = op.forward(np.zeros((8, 8, 8)))
        cfg = ReconConfig(lam=1.0, patch_dims=(5, 5))
        with pytest.raises(ValueError, match="2 factors cannot analyze a tensor of order 3"):
            reconstruct.reconstruct(y, op, two, cfg)


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

    def test_squared_differences_that_overflow_rejected(self):
        # finite volumes whose mean squared difference is inf would read -inf dB
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="PSNR overflows"):
                psnr(Volume(np.full((8, 8, 8), 1e300)), Volume(np.full((8, 8, 8), -1e300)))


def test_metrics_take_the_peak_from_the_intensity_range(rng):
    a = rng.uniform(0, 255, (16, 16, 4))
    b = a + rng.normal(0, 20, a.shape)
    full = Volume(a), Volume(b)
    unit = Volume(a / 255, (0.0, 1.0)), Volume(b / 255, (0.0, 1.0))
    assert psnr(*unit) == pytest.approx(psnr(*full), rel=1e-12)
    assert mssim(*unit) == pytest.approx(mssim(*full), rel=1e-12)


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

    @pytest.mark.parametrize(
        "dims, kind, lo, hi",
        [
            ((32, 32, 32), "phantom", 0.0, 255.0),
            ((32, 32, 8), "phantom", 0.0, 255.0),
            ((11, 11, 1), "random", 0.0, 255.0),
            ((17, 23, 3), "random", 0.0, 255.0),
            ((32, 32, 8), "phantom", -2.0, 2.0),
        ],
    )
    def test_matches_the_per_slice_convolution(self, rng, dims, kind, lo, hi):
        unit = volume.synth_phantom(dims, seed=5).data / 255 if kind == "phantom" else rng.random(dims)
        ref = Volume(lo + (hi - lo) * unit, (lo, hi))
        test = Volume(ref.data + rng.normal(0, 0.06 * (hi - lo), dims))
        assert mssim(ref, test) == pytest.approx(oracles.mssim(ref, test), rel=1e-12)

    def test_small_slices_rejected(self):
        with pytest.raises(ValueError, match="11x11"):
            mssim(Volume(np.zeros((8, 8, 8))), Volume(np.zeros((8, 8, 8))))

    def test_squares_that_overflow_rejected(self, rng):
        # values near 1e300 square to inf, and the blurred variances to inf - inf = nan
        vol = Volume(1e300 * rng.random((12, 12, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="MSSIM overflows"):
                mssim(vol, vol)


class TestAnalysisWork:
    """The regularizer's analysis is one ``tensor.rotate_product`` per mode and slab, over
    stacked shifted slices: no window view of the volume or of a partial product."""

    def test_three_products_per_slab_and_no_window_view(self, monkeypatch, rng, factors):
        calls = {"rotate_product": 0, "slabs": 0}
        rotate_product = tensor.rotate_product

        def counting_product(*args, **kwargs):
            calls["rotate_product"] += 1
            # a slab's last mode writes straight into the result
            calls["slabs"] += kwargs.get("out") is not None
            return rotate_product(*args, **kwargs)

        def no_windows(*args, **kwargs):
            raise AssertionError("sliding_window_view called")

        monkeypatch.setattr(tensor, "rotate_product", counting_product)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", no_windows)
        dims = (32, 32, 8)
        op = IdentityMeasurement(dims)
        v = rng.uniform(0, 255, dims)
        reconstruct._evaluate(v, op.forward(v), op, factors, ReconConfig(lam=1500.0))
        # 28 planes of 28 x 4 origins, 189 KiB each, two to a 256 KiB slab: 14 slabs
        assert calls == {"rotate_product": 3 * 14, "slabs": 14}

    def test_the_cost_analyzes_once_then_sums_once(self, monkeypatch, rng, factors):
        # the names the benchmark's per-layer wrappers replace, so each call is timed
        # in its own layer
        calls = {"correlate_separable": 0, "sparsity_measure": 0}

        def counting(name):
            original = getattr(reconstruct, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(reconstruct, name, counting(name))
        dims = (32, 32, 8)
        op = FourierMeasurement(dims, radial_mask_for_rate(dims[0], dims[1], 0.6))
        v = rng.uniform(0, 255, dims)
        reconstruct._evaluate(v, op.forward(v), op, factors, ReconConfig(lam=1500.0))
        assert calls == {"correlate_separable": 1, "sparsity_measure": 1}


class TestCacheSizedPasses:
    """The regularizer's elementwise passes run chunk by chunk, and round as
    they would over the whole array."""

    CHUNK = tensor.BLOCK_BYTES // 8
    # Flat coefficient counts: small and chunk-edge sizes, then 216 coefficients per
    # patch on the patch grids of 32^3, 18^3 and 14^3 volumes (28^3, 14^3 and 10^3 patches)
    # and of 32x32x8, 18x18x6 and 14x14x6 volumes (28x28x4, 14x14x2 and 10x10x2).
    SIZES = [1, 7, 8, 127, 128, 129, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 8]
    SIZES += [216 * 28**3, 216 * 14**3, 216 * 10**3, 216 * 28 * 28 * 4, 216 * 14 * 14 * 2]
    SIZES += [216 * 10 * 10 * 2]

    @pytest.mark.parametrize("n", SIZES)
    def test_penalty_sum_follows_numpys_summation_order(self, rng, n):
        c = rng.standard_normal(n) * rng.choice([1e-3, 0.1, 10.0], n)
        nu = 1000.0
        blocked = objective._log_penalty_sum(c, nu, np.empty(min(self.CHUNK, n)))
        whole = np.sum(np.log1p(nu * c * c))
        assert blocked == whole, (
            "np.sum no longer splits a float64 array at n // 2 rounded down to a "
            "multiple of 8; _log_penalty_sum must follow numpy's pairwise order"
        )

    @pytest.mark.parametrize("entries", [1, 15, 16, 100, 127])
    def test_penalty_sum_at_a_budget_under_numpys_leaf(self, monkeypatch, rng, entries):
        # the sum's leaves stay at least numpy's 128 entries: shorter ones would leave its
        # summation order, and under 16 would split a piece into itself forever
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * entries)
        nu = 1000.0
        for n in [1, 7, 15, 16, 17, 100, 120, 127, 128, 129, 255, 1000, 4099]:
            c = rng.standard_normal(n) * rng.choice([1e-3, 0.1, 10.0], n)
            assert objective.sparsity_measure(c, nu) == np.sum(np.log1p(nu * c * c)), n

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_analysis_is_c_contiguous(self, rng, factors, lead):
        # the gradient writes the derivative through coeffs.reshape(-1), which
        # must be a view of the coefficients it then synthesizes from; a leading
        # axis is analyzed as one more mode with a 1x1 factor
        x = rng.standard_normal(lead + (12, 11, 13))
        factors = [np.ones((1, 1))] * len(lead) + factors
        coeffs = tensor.correlate_separable(x, factors)
        assert coeffs.flags.c_contiguous
        assert np.shares_memory(coeffs.reshape(-1), coeffs)

    @pytest.mark.parametrize("dims, kind", [((32, 32, 32), "identity"), ((32, 32, 8), "fourier")])
    def test_peak_memory_of_cost_and_gradient(self, rng, factors, dims, kind):
        if kind == "identity":
            op = IdentityMeasurement(dims)
        else:
            op = FourierMeasurement(dims, radial_mask_for_rate(dims[0], dims[1], 0.6))
        cfg = ReconConfig(lam=3000.0)
        v = rng.uniform(0, 255, dims)
        y = op.forward(v + 15.0 * rng.standard_normal(dims))
        coeff_bytes = 8 * 216 * math.prod(d - 4 for d in dims)
        tracemalloc.start()
        try:
            _cost, gradient = reconstruct._evaluate(v, y, op, factors, cfg)
            gradient()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The coefficients plus the adjoint's synthesized windows (125 per origin
        # against 216 coefficients); neither the analysis, nor an elementwise pass,
        # nor the synthesis may add another coefficient-sized array.
        assert peak < 1.8 * coeff_bytes, f"peak {peak / coeff_bytes:.2f}x the coefficients"

    def test_peak_memory_of_the_cost(self, rng, factors):
        dims = (32, 32, 32)
        op = IdentityMeasurement(dims)
        v = rng.uniform(0, 255, dims)
        y = op.forward(v + 15.0 * rng.standard_normal(dims))
        coeff_bytes = 8 * 216 * math.prod(d - 4 for d in dims)
        tracemalloc.start()
        try:
            reconstruct._evaluate(v, y, op, factors, ReconConfig(lam=3000.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The analysis fills the coefficients a slab at a time and the penalty
        # sums them as they are filled: beside them, only one slab's windows.
        assert peak < 1.2 * coeff_bytes, f"peak {peak / coeff_bytes:.2f}x the coefficients"

    def test_peak_memory_of_the_cost_at_32x32x8(self, rng, factors):
        dims = (32, 32, 8)
        op = FourierMeasurement(dims, radial_mask_for_rate(dims[0], dims[1], 0.6))
        v = rng.uniform(0, 255, dims)
        y = op.forward(v + 15.0 * rng.standard_normal(dims))
        coeff_bytes = 8 * 216 * math.prod(d - 4 for d in dims)
        tracemalloc.start()
        try:
            reconstruct._evaluate(v, y, op, factors, ReconConfig(lam=1500.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beside the coefficients, one slab's partial product and stacked slices: two
        # planes, as at 32^3.
        assert peak < 1.2 * coeff_bytes, f"peak {peak / coeff_bytes:.2f}x the coefficients"

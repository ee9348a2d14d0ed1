import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepop import manifold, objective, tensor
from sepop.objective import BarrierError, LearningParams
from sepop.reconstruct import ReconConfig

import oracles
import reference_objective


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSparsityMeasure:
    def test_zero_tensor(self):
        assert objective.sparsity_measure(np.zeros((6, 6, 6)), 1000.0) == 0.0

    def test_single_unit_entry(self):
        coeffs = np.zeros(5)
        coeffs[2] = 1.0
        assert objective.sparsity_measure(coeffs, 1000.0) == pytest.approx(
            math.log(1001.0), abs=1e-12
        )

    def test_matches_loop_oracle(self, rng):
        coeffs = rng.standard_normal((6, 6, 6))
        expected = sum(math.log(1 + 1000.0 * v * v) for v in coeffs.ravel())
        assert objective.sparsity_measure(coeffs, 1000.0) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_even_and_permutation_invariant(self, seed):
        r = np.random.default_rng(seed)
        coeffs = r.standard_normal(20)
        g = objective.sparsity_measure(coeffs, 10.0)
        assert objective.sparsity_measure(-coeffs, 10.0) == pytest.approx(g, rel=1e-13)
        assert objective.sparsity_measure(r.permutation(coeffs), 10.0) == pytest.approx(g, rel=1e-13)

    def test_nonpositive_nu_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            objective.sparsity_measure(np.ones(3), 0.0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_non_finite_nu_rejected(self, nu):
        with pytest.raises(ValueError, match=f"nu must be positive and finite, got {nu}"):
            objective.sparsity_measure(np.ones(3), nu)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: a.T,
            lambda a: a.transpose(1, 2, 0)[1:, :, 3:],
            lambda a: a[:, ::2, ::-1],
            lambda a: a.reshape(-1)[::3],
        ],
        ids=["transposed", "permuted-slice", "strided-reversed", "flat-strided"],
    )
    def test_non_contiguous_equals_numpys_sum(self, rng, layout):
        nu = 1000.0
        base = rng.standard_normal((60, 50, 40)) * rng.choice([1e-3, 0.1, 10.0], (60, 50, 40))
        c = layout(base)
        assert not c.flags.c_contiguous
        assert objective.sparsity_measure(c, nu) == np.sum(np.log1p(nu * c * c))


NU_OWNERS = {
    "LearningParams": lambda nu: LearningParams(nu=nu),
    "ReconConfig": lambda nu: ReconConfig(lam=1.0, nu=nu),
    "sparsity_measure": lambda nu: objective.sparsity_measure(np.ones(3), nu),
}


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("owner", list(NU_OWNERS))
def test_every_penalty_weight_owner_refuses_nu_with_one_message(owner, nu):
    with pytest.raises(ValueError, match=f"^{re.escape(f'nu must be positive and finite, got {nu}')}$"):
        NU_OWNERS[owner](nu)


class TestAnalysisSparsity:
    """The penalty summed over the slabbed analysis equals numpy's sum over the whole-array
    analysis, bit for bit, whatever the block budget, which sets both the slabs and the
    sum's leaves."""

    SHAPES = [(3, 5), (5, 3), (3, 4)]  # 45 coefficients per window: odd plane sizes

    # Under one plane (two-plane slabs, the 128-entry leaf floor), 128 entries (two-plane
    # slabs, leaves of 128), some planes (leaves of 5000 entries), and the default (one slab,
    # one leaf over the 22050 coefficients).
    @pytest.mark.parametrize(
        "budget", [1, 8 * 128, 40_000, None], ids=["floor-leaves", "short-leaves", "some-planes", "default"]
    )
    def test_equals_numpys_sum_of_the_whole_array_analysis(self, monkeypatch, budget):
        rng = np.random.default_rng(1)
        if budget is not None:
            monkeypatch.setattr(tensor, "BLOCK_BYTES", budget)
        factors = [rng.standard_normal(shape) for shape in self.SHAPES]
        x = rng.standard_normal((14, 9, 10)) * rng.choice([1e-3, 0.1, 10.0], (14, 9, 10))
        nu = 1000.0
        c = oracles.whole_array_analysis(x, factors)
        coeffs = tensor.correlate_separable(x, factors)
        assert np.array_equal(coeffs, c)
        assert objective.sparsity_measure(coeffs, nu) == np.sum(np.log1p(nu * c * c))


class TestSparsityGradient:
    def test_non_contiguous_coefficients_rejected(self):
        # the derivative is written through a flat view, which a copy would not be
        c = np.ones((4, 6)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            objective.sparsity_gradient(c, 1000.0)
        assert np.all(c == 1.0)


class TestCosparsity:
    def test_zero_tensor(self):
        assert oracles.cosparsity(np.zeros((6, 6, 6)), 0.5) == 216

    def test_no_exact_zeros(self, rng):
        coeffs = rng.uniform(0.1, 1.0, size=50)
        assert oracles.cosparsity(coeffs, 0.0) == 0

    def test_median_threshold_matches_sort_oracle(self, rng):
        coeffs = rng.standard_normal(101)
        eps = float(np.median(np.abs(coeffs)))
        expected = int(np.sum(np.sort(np.abs(coeffs)) <= eps))
        assert oracles.cosparsity(coeffs, eps) == expected


class TestSampleTerm:
    def test_zero_signal(self, rng):
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        assert oracles.sample_term(np.zeros((5, 5, 5)), factors, 1000.0) == 0.0

    def test_identity_factors_reduce_to_squared_measure(self, rng):
        signal = rng.standard_normal((4, 4, 4))
        factors = [np.eye(4)] * 3
        assert oracles.sample_term(signal, factors, 100.0) == pytest.approx(
            objective.sparsity_measure(signal, 100.0) ** 2, rel=1e-12
        )

    def test_composes_oracles(self, rng):
        signal = rng.standard_normal((5, 5, 5))
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        expected = objective.sparsity_measure(tensor.correlate_separable(signal, factors), 1000.0) ** 2
        assert oracles.sample_term(signal, factors, 1000.0) == pytest.approx(expected, rel=1e-12)


class TestRankPenalty:
    def test_identity_gives_one(self):
        assert objective.rank_penalty(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    # a tight frame's scaled gram has log det -n ln n, unbounded below as n grows, so no
    # fixed floor on it may refuse a factor
    @pytest.mark.parametrize("n", [4, 139, 140, 343])
    def test_tight_frame_gives_one(self, n):
        # two stacked orthonormal bases: gram is (1/n) I after the 1/k scaling
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
        frame = np.vstack([np.eye(n), q])
        assert objective.rank_penalty(frame) == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_raises(self):
        factor = np.zeros((6, 5))
        factor[:, 0] = 1.0
        with pytest.raises(BarrierError, match="rank"):
            objective.rank_penalty(factor)


class TestCoherencePenalty:
    def test_orthogonal_rows_zero(self):
        assert objective.coherence_penalty(np.eye(5)) == 0.0

    def test_duplicate_row_raises(self):
        factor = manifold.random_factor(6, 5, np.random.default_rng(1))
        factor[3] = factor[0]
        with pytest.raises(BarrierError, match="coherence"):
            objective.coherence_penalty(factor)

    def test_matches_pairwise_loop(self, rng):
        factor = manifold.random_factor(6, 5, rng)
        expected = 0.0
        for a in range(6):
            for b in range(a + 1, 6):
                expected -= math.log(1.0 - float(factor[a] @ factor[b]) ** 2)
        assert objective.coherence_penalty(factor) == pytest.approx(expected, rel=1e-12)


class TestAnalyzeBatch:
    def test_equals_mode_product_chain_bit_for_bit(self, rng):
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        patches = rng.standard_normal((200, 5, 5, 5))
        chain = reference_objective.analyze_batch(patches, factors)
        assert np.array_equal(objective.analyze_batch(patches, factors), chain)

    def test_shape_errors_name_the_problem(self, rng):
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        with pytest.raises(ValueError, match="3 factors cannot analyze a tensor of order 2"):
            objective.analyze_batch(np.zeros((5, 5, 5)), factors)
        with pytest.raises(ValueError, match="mode 2"):
            objective.analyze_batch(np.zeros((2, 5, 5, 4)), factors)


class TestLearningCost:
    def test_zero_sample_no_barriers(self):
        params = LearningParams(nu=1000.0, kappa=0.0, mu=0.0)
        factors = [manifold.random_factor(6, 5, np.random.default_rng(2)) for _ in range(3)]
        assert objective.learning_cost(factors, np.zeros((1, 5, 5, 5)), params) == 0.0

    def test_single_sample_equals_sample_term(self, rng):
        params = LearningParams(nu=1000.0, kappa=0.0, mu=0.0)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        signal = rng.standard_normal((5, 5, 5))
        assert objective.learning_cost(factors, signal[None], params) == pytest.approx(
            oracles.sample_term(signal, factors, 1000.0), rel=1e-12
        )

    def test_matches_term_by_term_oracle(self, rng):
        params = LearningParams(nu=1000.0, kappa=500.0, mu=0.5)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        patches = rng.standard_normal((10, 5, 5, 5))
        expected = np.mean(
            [oracles.sample_term(p, factors, params.nu) for p in patches]
        )
        expected += params.kappa * sum(objective.rank_penalty(f) for f in factors)
        expected += params.mu * sum(objective.coherence_penalty(f) for f in factors)
        assert objective.learning_cost(factors, patches, params) == pytest.approx(
            float(expected), rel=1e-12
        )

    def test_sparsity_part_nonnegative(self, rng):
        params = LearningParams(nu=1000.0, kappa=0.0, mu=0.0)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        patches = rng.standard_normal((5, 5, 5, 5))
        assert objective.learning_cost(factors, patches, params) >= 0.0


def central_fd(cost, factors, mode, i, j, eps=1e-6):
    plus = [f.copy() for f in factors]
    minus = [f.copy() for f in factors]
    plus[mode][i, j] += eps
    minus[mode][i, j] -= eps
    return (cost(plus) - cost(minus)) / (2.0 * eps)


class TestLearningGradient:
    def test_zero_signals_flat(self, rng):
        params = LearningParams(nu=1000.0, kappa=0.0, mu=0.0)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        grads = objective.learning_gradient(factors, np.zeros((3, 5, 5, 5)), params)
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_matches_finite_differences(self, rng):
        params = LearningParams(nu=1000.0, kappa=500.0, mu=0.5)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        patches = rng.standard_normal((3, 5, 5, 5))
        grads = objective.learning_gradient(factors, patches, params)
        cost = lambda fs: objective.learning_cost(fs, patches, params)
        for mode in range(3):
            for _ in range(8):
                i, j = rng.integers(0, 6), rng.integers(0, 5)
                fd = central_fd(cost, factors, mode, i, j)
                assert grads[mode][i, j] == pytest.approx(fd, rel=1e-5)

    def test_rank_penalty_gradient_alone(self, rng):
        factor = manifold.random_factor(6, 5, rng)
        grad = objective.rank_penalty_gradient(factor)
        eps = 1e-6
        for _ in range(10):
            i, j = rng.integers(0, 6), rng.integers(0, 5)
            plus = factor.copy()
            minus = factor.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            fd = (objective.rank_penalty(plus) - objective.rank_penalty(minus)) / (2 * eps)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_directional_derivative_consistency(self):
        # random tangent directions on 20 random single-sample instances
        params = LearningParams(nu=1000.0, kappa=500.0, mu=0.5)
        for seed in range(20):
            r = np.random.default_rng(seed)
            factors = [manifold.random_factor(6, 5, r) for _ in range(3)]
            patch = r.standard_normal((1, 5, 5, 5))
            grads = objective.learning_gradient(factors, patch, params)
            direction = [
                manifold.project_tangent(f, r.standard_normal(f.shape)) for f in factors
            ]
            analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
            eps = 1e-6
            plus = [f + eps * d for f, d in zip(factors, direction)]
            minus = [f - eps * d for f, d in zip(factors, direction)]
            fd = (
                objective.learning_cost(plus, patch, params)
                - objective.learning_cost(minus, patch, params)
            ) / (2 * eps)
            assert analytic == pytest.approx(fd, rel=1e-5)


SHAPE_SETS = {
    "6x5": [(6, 5)] * 3,
    "7x5": [(7, 5)] * 3,
    "5x5": [(5, 5)] * 3,
    "non-cubic": [(6, 5), (7, 4), (4, 3)],
}


# orders other than 3: the first and the last mode are one at N = 1, neighbours at N = 2
ORDER_SETS = {
    "order-1": [(6, 5)],
    "order-2": [(6, 5), (7, 4)],
    "order-4": [(6, 5), (5, 4), (4, 3), (3, 2)],
}


def random_instance(shapes, count, seed):
    r = np.random.default_rng(seed)
    factors = [manifold.random_factor(k, n, r) for k, n in shapes]
    patches = r.standard_normal((count,) + tuple(n for _, n in shapes))
    return factors, patches


def assert_equal_to_reference(factors, patches, params, grads):
    """The gradient equals the frozen einsum definition within 1e-12 of its largest entry:
    the reverse-mode GEMMs sum in another order (1.8e-14 at worst, measured over
    ``SHAPE_SETS``, orders 1 to 4 and T from 1 to 2000)."""
    expected = reference_objective.learning_gradient(factors, patches, params)
    assert len(grads) == len(expected)
    for g, e in zip(grads, expected):
        assert g.shape == e.shape
        assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e))


class TestKroneckerOracle:
    """The sparsity part of the gradient (kappa = mu = 0) equals the dense Kronecker
    definition, which shares no code with the package's reverse mode or the frozen einsum."""

    @pytest.mark.parametrize("count", [1, 7, 300])
    @pytest.mark.parametrize(
        "shapes", [ORDER_SETS["order-1"], ORDER_SETS["order-2"], SHAPE_SETS["non-cubic"],
                   ORDER_SETS["order-4"]], ids=["order-1", "order-2", "order-3", "order-4"])
    def test_equals_the_kronecker_gradient(self, shapes, count):
        params = LearningParams(nu=1000.0, kappa=0.0, mu=0.0)
        factors, patches = random_instance(shapes, count, seed=count + 1)
        grads = objective.learning_gradient(factors, patches, params)
        expected = oracles.kronecker_learning_gradient(factors, patches, params.nu)
        for g, e in zip(grads, expected, strict=True):
            assert g.shape == e.shape
            assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e))


class TestSharedAnalysis:
    """The cost equals the frozen definition bit for bit and the gradient within 1e-12,
    with the analysis passed in or computed by each; a gradient from a shared analysis
    equals one computed without it bit for bit."""

    @pytest.mark.parametrize("count", [1, 7, 2000])
    @pytest.mark.parametrize("shapes", list(SHAPE_SETS.values()), ids=list(SHAPE_SETS))
    @pytest.mark.parametrize("shared", [False, True], ids=["own-analysis", "shared-analysis"])
    def test_equals_reference(self, shapes, count, shared):
        self.check(shapes, count, shared)

    @pytest.mark.parametrize("count", [1, 7, 300])
    @pytest.mark.parametrize("shapes", list(ORDER_SETS.values()), ids=list(ORDER_SETS))
    @pytest.mark.parametrize("shared", [False, True], ids=["own-analysis", "shared-analysis"])
    def test_other_orders_equal_reference(self, shapes, count, shared):
        self.check(shapes, count, shared)

    @staticmethod
    def check(shapes, count, shared):
        params = LearningParams()
        factors, patches = random_instance(shapes, count, seed=count)
        analysis = objective.patch_analysis(factors, patches, params.nu) if shared else None
        cost = objective.learning_cost(factors, patches, params, analysis)
        assert cost == reference_objective.learning_cost(factors, patches, params)
        grads = objective.learning_gradient(factors, patches, params, analysis)
        assert_equal_to_reference(factors, patches, params, grads)
        if shared:
            own = objective.learning_gradient(factors, patches, params)
            assert all(np.array_equal(g, o) for g, o in zip(grads, own, strict=True))

    def test_a_laid_out_batch_gives_the_same_numbers(self):
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["non-cubic"], 7, seed=2)
        batch = objective.PatchBatch.of(patches)
        analysis = objective.patch_analysis(factors, batch, params.nu)
        assert objective.learning_cost(factors, batch, params, analysis) == (
            reference_objective.learning_cost(factors, patches, params)
        )
        grads = objective.learning_gradient(factors, batch, params, analysis)
        assert_equal_to_reference(factors, patches, params, grads)

    def test_factors_as_nested_lists_give_the_same_numbers(self):
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["non-cubic"], 7, seed=2)
        lists = [f.tolist() for f in factors]
        assert objective.learning_cost(lists, patches, params) == objective.learning_cost(factors, patches, params)
        grads = objective.learning_gradient(lists, patches, params)
        expected = objective.learning_gradient(factors, patches, params)
        assert all(np.array_equal(g, e) for g, e in zip(grads, expected, strict=True))

    def test_gradient_in_short_chunks_equals_reference(self, monkeypatch):
        # 7 patches of 216 coefficients are 11 chunks of 128 and a last one of 104; the
        # mode products' GEMMs run in blocks of 11 rows
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * 128)
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["6x5"], 7, seed=8)
        grads = objective.learning_gradient(factors, patches, params)
        assert_equal_to_reference(factors, patches, params, grads)

    @pytest.mark.parametrize("chunk", [100, 216, 3 * 216, 7 * 216 + 5], ids=lambda c: f"chunk{c}")
    def test_penalty_in_blocks_of_patches_equals_the_whole_array_sum(self, monkeypatch, chunk):
        # blocks of one patch (a chunk smaller than a patch, or one patch), of three with a
        # remainder of one, and of all seven
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * chunk)
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["6x5"], 7, seed=9)
        analysis = objective.patch_analysis(factors, patches, params.nu)
        c = analysis.coeffs
        assert np.array_equal(analysis.per_sample, np.sum(np.log1p(params.nu * c * c), axis=(1, 2, 3)))
        assert objective.learning_cost(factors, patches, params, analysis) == (
            reference_objective.learning_cost(factors, patches, params)
        )

    def test_analysis_is_the_per_patch_sparsity(self):
        factors, patches = random_instance(SHAPE_SETS["non-cubic"], 9, seed=4)
        analysis = objective.patch_analysis(factors, patches, 1000.0)
        coeffs, per_sample = analysis.coeffs, analysis.per_sample
        assert np.array_equal(coeffs, objective.analyze_batch(patches, factors))
        for t in range(len(patches)):
            assert per_sample[t] == pytest.approx(objective.sparsity_measure(coeffs[t], 1000.0), rel=1e-13)


class TestPatchBatch:
    """The per-run layouts of the patches: built once, shared, never written."""

    @pytest.mark.parametrize(
        "shapes", [SHAPE_SETS["non-cubic"], ORDER_SETS["order-1"]], ids=["order-3", "order-1"]
    )
    def test_layouts_are_read_only(self, shapes):
        _factors, patches = random_instance(shapes, 7, seed=1)
        batch = objective.PatchBatch.of(patches)
        assert batch.shape == patches.shape
        assert np.array_equal(batch.leading, np.moveaxis(patches, 0, -1))
        assert batch.leading.flags.c_contiguous and not batch.leading.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch.leading[...] = 0.0
        assert patches.flags.writeable  # the caller's array is left as it was
        assert objective.PatchBatch.of(batch) is batch

    def test_every_analysis_shares_the_leading_layout(self):
        factors, patches = random_instance(SHAPE_SETS["6x5"], 5, seed=2)
        batch = objective.PatchBatch.of(patches)
        first = objective.patch_analysis(factors, batch, 1000.0)
        second = objective.patch_analysis(factors, batch, 1000.0)
        assert first.mode_inputs[0] is batch.leading is second.mode_inputs[0]

    def test_too_few_axes_rejected(self):
        with pytest.raises(ValueError, match=r"axes \(T, n_1, ...\), T >= 1, got shape \(5,\)"):
            objective.PatchBatch.of(np.zeros(5))

    @pytest.mark.parametrize(
        "measure",
        [
            lambda fs, patches: objective.learning_cost(fs, patches, LearningParams()),
            lambda fs, patches: objective.mean_sparsity(patches, fs, 1000.0),
        ],
        ids=["learning_cost", "mean_sparsity"],
    )
    def test_empty_batch_rejected(self, measure):
        factors = [manifold.random_factor(6, 5, np.random.default_rng(4)) for _ in range(3)]
        with pytest.raises(ValueError, match=r"T >= 1, got shape \(0, 5, 5, 5\)"):
            measure(factors, np.zeros((0, 5, 5, 5)))


class TestAnalysisMemory:
    """Peak memory of one learning evaluation at T = 2000, the batch laid out beforehand."""

    @staticmethod
    def peak_in_coefficients(gradient):
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["6x5"], 2000, seed=3)
        batch = objective.PatchBatch.of(patches)
        coeff_bytes = 8 * 2000 * 216
        tracemalloc.start()
        try:
            analysis = objective.patch_analysis(factors, batch, params.nu)
            objective.learning_cost(factors, batch, params, analysis)
            if gradient:
                objective.learning_gradient(factors, batch, params, analysis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / coeff_bytes

    def test_cost(self):
        # the coefficients, the arrays modes 2 and 3 read (0.69x and 0.83x) and
        # one buffer of whole patches (0.08x) for the per-sample sum
        peak = self.peak_in_coefficients(gradient=False)
        assert peak < 2.8, f"peak {peak:.2f}x the coefficients"

    def test_cost_and_gradient(self):
        # the gradient overwrites the coefficients with their cotangent and frees each
        # array a mode read once its GEMM has read it, so no step holds more than the
        # analysis did: the peak is the cost's (2.61x)
        peak = self.peak_in_coefficients(gradient=True)
        assert peak < 3.6, f"peak {peak:.2f}x the coefficients"


class TestGradientWork:
    """Given the analysis, the gradient analyzes nothing and applies no factor by a
    leading-mode product: it runs back through the arrays the analysis kept, with plain
    GEMMs."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"rotate_product": 0, "analyze_batch": 0}
        for module, name in ((tensor, "rotate_product"), (objective, "analyze_batch")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_three_mode_products_and_no_analysis(self, counted):
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["non-cubic"], 40, seed=5)
        analysis = objective.patch_analysis(factors, patches, params.nu)
        assert counted == {"rotate_product": 3, "analyze_batch": 1}
        grads = objective.learning_gradient(factors, patches, params, analysis)
        assert counted == {"rotate_product": 3, "analyze_batch": 1}
        assert_equal_to_reference(factors, patches, params, grads)

    def test_an_analysis_serves_one_gradient(self):
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["6x5"], 10, seed=6)
        analysis = objective.patch_analysis(factors, patches, params.nu)
        objective.learning_gradient(factors, patches, params, analysis)
        assert objective.learning_cost(factors, patches, params, analysis) == (
            reference_objective.learning_cost(factors, patches, params)
        )
        with pytest.raises(ValueError, match="already served a gradient"):
            objective.learning_gradient(factors, patches, params, analysis)

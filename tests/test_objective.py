import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepop import manifold, objective, tensor
from sepop.objective import BarrierError, LearningParams

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
        expected = objective.sparsity_measure(tensor.apply_separable(signal, factors), 1000.0) ** 2
        assert oracles.sample_term(signal, factors, 1000.0) == pytest.approx(expected, rel=1e-12)


class TestRankPenalty:
    def test_identity_gives_one(self):
        assert objective.rank_penalty(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_tight_frame_gives_one(self):
        # two stacked orthonormal bases: gram is (k/n) I after the 1/k scaling
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
        frame = np.vstack([np.eye(4), q])
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
        chain = patches
        for mode, factor in enumerate(factors):
            chain = tensor.n_mode_product(chain, factor, mode + 1)
        assert np.array_equal(objective.analyze_batch(patches, factors), chain)

    def test_shape_errors_name_the_problem(self, rng):
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        with pytest.raises(ValueError, match="order-3 patches"):
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


def random_instance(shapes, count, seed):
    r = np.random.default_rng(seed)
    factors = [manifold.random_factor(k, n, r) for k, n in shapes]
    patches = r.standard_normal((count,) + tuple(n for _, n in shapes))
    return factors, patches


def assert_equal_to_reference(factors, patches, params, grads):
    expected = reference_objective.learning_gradient(factors, patches, params)
    assert len(grads) == len(expected)
    assert all(np.array_equal(g, e) for g, e in zip(grads, expected))


class TestSharedAnalysis:
    """Cost and gradient equal the frozen definitions bit for bit, with the
    analysis passed in or computed by each."""

    @pytest.mark.parametrize("count", [1, 7, 2000])
    @pytest.mark.parametrize("shapes", list(SHAPE_SETS.values()), ids=list(SHAPE_SETS))
    @pytest.mark.parametrize("shared", [False, True], ids=["own-analysis", "shared-analysis"])
    def test_equals_reference(self, shapes, count, shared):
        params = LearningParams()
        factors, patches = random_instance(shapes, count, seed=count)
        analysis = objective.patch_analysis(factors, patches, params.nu) if shared else None
        cost = objective.learning_cost(factors, patches, params, analysis)
        assert cost == reference_objective.learning_cost(factors, patches, params)
        grads = objective.learning_gradient(factors, patches, params, analysis)
        assert_equal_to_reference(factors, patches, params, grads)

    def test_analysis_is_the_per_patch_sparsity(self):
        factors, patches = random_instance(SHAPE_SETS["non-cubic"], 9, seed=4)
        analysis = objective.patch_analysis(factors, patches, 1000.0)
        coeffs, per_sample = analysis.coeffs, analysis.per_sample
        assert np.array_equal(coeffs, objective.analyze_batch(patches, factors))
        for t in range(len(patches)):
            assert per_sample[t] == pytest.approx(objective.sparsity_measure(coeffs[t], 1000.0), rel=1e-13)


class TestGradientWork:
    """Given the analysis, the gradient applies only the factors the analysis
    did not: N - 1 + N - 2 + ... + 0 mode products, and analyzes nothing."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"n_mode_product": 0, "analyze_batch": 0}
        for name in calls:
            original = getattr(objective, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(objective, name, counting)
        return calls

    def test_three_mode_products_and_no_analysis(self, counted):
        params = LearningParams()
        factors, patches = random_instance(SHAPE_SETS["non-cubic"], 40, seed=5)
        analysis = objective.patch_analysis(factors, patches, params.nu)
        assert counted == {"n_mode_product": 0, "analyze_batch": 1}
        grads = objective.learning_gradient(factors, patches, params, analysis)
        assert counted == {"n_mode_product": 3, "analyze_batch": 1}
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

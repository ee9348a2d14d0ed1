import numpy as np
import pytest

from sepop import cg, manifold


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestProjectTangent:
    def test_base_projects_to_zero(self, rng):
        base = manifold.random_factor(6, 5, rng)
        np.testing.assert_allclose(manifold.project_tangent(base, base), 0.0, atol=1e-14)

    def test_idempotent(self, rng):
        base = manifold.random_factor(6, 5, rng)
        g = rng.standard_normal((6, 5))
        once = manifold.project_tangent(base, g)
        np.testing.assert_allclose(manifold.project_tangent(base, once), once, atol=1e-13)

    def test_rows_orthogonal_to_base(self, rng):
        base = manifold.random_factor(6, 5, rng)
        x = manifold.project_tangent(base, rng.standard_normal((6, 5)))
        dots = np.sum(x * base, axis=1)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

    def test_linear_and_self_adjoint(self, rng):
        base = manifold.random_factor(6, 5, rng)
        g1 = rng.standard_normal((6, 5))
        g2 = rng.standard_normal((6, 5))
        lin = manifold.project_tangent(base, 2.0 * g1 + 3.0 * g2)
        np.testing.assert_allclose(
            lin,
            2.0 * manifold.project_tangent(base, g1) + 3.0 * manifold.project_tangent(base, g2),
            rtol=1e-12,
        )
        lhs = manifold.inner(manifold.project_tangent(base, g1), g2)
        rhs = manifold.inner(g1, manifold.project_tangent(base, g2))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_shape_mismatch(self, rng):
        base = manifold.random_factor(6, 5, rng)
        with pytest.raises(ValueError, match="shape"):
            manifold.project_tangent(base, rng.standard_normal((5, 5)))


class TestRetract:
    def test_zero_step(self, rng):
        base = manifold.random_factor(6, 5, rng)
        x = manifold.project_tangent(base, rng.standard_normal((6, 5)))
        np.testing.assert_allclose(manifold.retract(base, x, 0.0), base, atol=1e-15)

    def test_unit_rows_after_step(self, rng):
        base = manifold.random_factor(6, 5, rng)
        x = manifold.project_tangent(base, rng.standard_normal((6, 5)))
        out = manifold.retract(base, x, 0.7)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-14)

    def test_first_order_agreement(self, rng):
        # ||retract(t) - (base + t x)|| must decay quadratically under halving.
        base = manifold.random_factor(6, 5, rng)
        x = manifold.project_tangent(base, rng.standard_normal((6, 5)))
        errs = []
        for t in (1e-2, 5e-3, 2.5e-3):
            errs.append(np.linalg.norm(manifold.retract(base, x, t) - (base + t * x)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_degenerate_row_rejected(self, rng):
        base = manifold.random_factor(6, 5, rng)
        x = manifold.project_tangent(base, rng.standard_normal((6, 5)))
        # step exactly onto -base along the first row direction
        bad = -base.copy()
        with pytest.raises(manifold.DegenerateStepError):
            manifold.retract(base, bad, 1.0)


class TestTransport:
    """The transport the learning solver uses, on a single factor."""

    @staticmethod
    def transport(new_base, tangent):
        (moved,) = cg.OBLIQUE.transport([new_base], [tangent])
        return moved

    def test_fixed_point_at_same_base(self, rng):
        base = manifold.random_factor(6, 5, rng)
        x = manifold.project_tangent(base, rng.standard_normal((6, 5)))
        np.testing.assert_allclose(self.transport(base, x), x, atol=1e-13)

    def test_result_tangent_at_new_base(self, rng):
        base = manifold.random_factor(6, 5, rng)
        new_base = manifold.random_factor(6, 5, rng)
        x = manifold.project_tangent(base, rng.standard_normal((6, 5)))
        moved = self.transport(new_base, x)
        np.testing.assert_allclose(np.sum(moved * new_base, axis=1), 0.0, atol=1e-12)

    def test_transported_direction_retains_descent(self, rng):
        # quadratic test cost f(M) = 0.5||M - A||_F^2 with Euclidean gradient M - A
        a = rng.standard_normal((6, 5))
        base = manifold.random_factor(6, 5, rng)
        grad = manifold.project_tangent(base, base - a)
        direction = -grad
        new_base = manifold.retract(base, direction, 1e-3)
        moved = self.transport(new_base, direction)
        # finite-difference directional derivative at the new base
        eps = 1e-6
        f = lambda m: 0.5 * np.sum((m - a) ** 2)
        fd = (f(manifold.retract(new_base, moved, eps)) - f(manifold.retract(new_base, moved, -eps))) / (2 * eps)
        assert fd < 0


class TestInner:
    def test_positive_definite(self, rng):
        x = rng.standard_normal((6, 5))
        assert manifold.inner(x, x) > 0
        assert manifold.inner(np.zeros((6, 5)), np.zeros((6, 5))) == 0.0

    def test_symmetry_and_flat_dot(self, rng):
        x = rng.standard_normal((6, 5))
        y = rng.standard_normal((6, 5))
        assert manifold.inner(x, y) == manifold.inner(y, x)
        assert manifold.inner(x, y) == pytest.approx(float(x.ravel() @ y.ravel()), rel=1e-14)


class TestRandomFactor:
    def test_invariants(self):
        f = manifold.random_factor(6, 5, 0)
        np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)
        assert f.shape == (6, 5)

    def test_deterministic(self):
        np.testing.assert_array_equal(manifold.random_factor(6, 5, 3), manifold.random_factor(6, 5, 3))

    def test_full_rank_over_seeds(self):
        for seed in range(100):
            f = manifold.random_factor(6, 5, seed)
            assert np.linalg.matrix_rank(f) == 5

    def test_wide_shape_rejected(self):
        with pytest.raises(ValueError, match="k >= n"):
            manifold.random_factor(4, 5, 0)


class TestProductOps:
    def test_factor_wise_and_invariant_preserving(self, rng):
        point = manifold.random_point([(6, 5), (7, 4)], rng)
        tangent = manifold.product_project(point, [rng.standard_normal(p.shape) for p in point])
        stepped = manifold.product_retract(point, tangent, 0.3)
        for factor in stepped:
            np.testing.assert_allclose(np.linalg.norm(factor, axis=1), 1.0, atol=1e-14)
        assert manifold.product_inner(tangent, tangent) == pytest.approx(
            sum(manifold.inner(t, t) for t in tangent)
        )

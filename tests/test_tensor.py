import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepop import tensor
from sepop.manifold import random_factor


def brute_force_mode_product(t, u, mode):
    """Direct index-sum evaluation of the mode product definition."""
    out_shape = list(t.shape)
    out_shape[mode] = u.shape[0]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        src = list(idx)
        total = 0.0
        for m in range(t.shape[mode]):
            src[mode] = m
            total += t[tuple(src)] * u[idx[mode], m]
        out[idx] = total
    return out


class TestModeProduct:
    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            out = tensor.n_mode_product(t, np.eye(t.shape[mode]), mode)
            np.testing.assert_allclose(out, t, rtol=1e-15)

    def test_scalar_case(self):
        t = np.full((1, 1, 1), 2.0)
        out = tensor.n_mode_product(t, np.array([[3.0]]), 1)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 6.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 2))
        u = rng.standard_normal((5, 4))
        out = tensor.n_mode_product(t, u, 1)
        np.testing.assert_allclose(out, brute_force_mode_product(t, u, 1), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        t = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="mode-1"):
            tensor.n_mode_product(t, np.zeros((5, 3)), 1)

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 4, 4))
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 4))
        ab = tensor.n_mode_product(tensor.n_mode_product(t, a, 0), b, 2)
        ba = tensor.n_mode_product(tensor.n_mode_product(t, b, 2), a, 0)
        np.testing.assert_allclose(ab, ba, rtol=1e-12)


class TestUnfoldFold:
    def test_column_formula(self):
        # entry (2,1,2) of a 2x2x2 tensor lands in row 2, column (2-1)*2 + 1 = 3
        # (1-based), i.e. row 1, column 2 in 0-based indexing.
        t = np.arange(8, dtype=float).reshape(2, 2, 2)
        m = tensor.unfold_last(t)
        assert m.shape == (2, 4)
        assert m[1, 2] == t[1, 0, 1]

    def test_order_one_tensor(self):
        t = np.array([1.0, 2.0, 3.0])
        m = tensor.unfold_last(t)
        assert m.shape == (3, 1)
        np.testing.assert_array_equal(m[:, 0], t)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5))
        assert np.array_equal(tensor.fold_last(tensor.unfold_last(t), t.shape), t)

    def test_fold_restores_entry(self):
        t = np.arange(8, dtype=float).reshape(2, 2, 2)
        back = tensor.fold_last(tensor.unfold_last(t), (2, 2, 2))
        assert back[1, 0, 1] == t[1, 0, 1]

    def test_fold_wrong_dims_rejected(self):
        with pytest.raises(ValueError, match="fold"):
            tensor.fold_last(np.zeros((2, 4)), (3, 3, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, dims, seed):
        t = np.random.default_rng(seed).standard_normal(tuple(dims))
        assert np.array_equal(tensor.fold_last(tensor.unfold_last(t), t.shape), t)


class TestKronecker:
    def test_identity(self):
        np.testing.assert_array_equal(tensor.kronecker(np.eye(2), np.eye(3)), np.eye(6))

    def test_rank_multiplies(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 2))
        rank = np.linalg.matrix_rank
        assert rank(tensor.kronecker(a, b)) == rank(a) * rank(b)

    def test_unit_rows_preserved(self):
        rng = np.random.default_rng(5)
        a = random_factor(4, 3, rng)
        b = random_factor(5, 2, rng)
        norms = np.linalg.norm(tensor.kronecker(a, b), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestApplySeparable:
    def test_identity_factors(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4, 2))
        out = tensor.apply_separable(t, [np.eye(3), np.eye(4), np.eye(2)])
        np.testing.assert_allclose(out, t, rtol=1e-15)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((4, 4, 4))
        factors = [rng.standard_normal((6, 4)) for _ in range(3)]
        out = tensor.apply_separable(t, factors)
        big = tensor.kronecker_chain(factors)
        np.testing.assert_allclose(out.ravel(), big @ t.ravel(), rtol=1e-12)

    def test_order_two_reduces_to_matrix_products(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((4, 3))
        f1 = rng.standard_normal((5, 4))
        f2 = rng.standard_normal((6, 3))
        out = tensor.apply_separable(t, [f1, f2])
        np.testing.assert_allclose(
            tensor.unfold_last(out), f2 @ tensor.unfold_last(t) @ f1.T, rtol=1e-12
        )

    def test_mode_order_irrelevant(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 5))
        factors = [rng.standard_normal((6, d)) for d in t.shape]
        reference = tensor.apply_separable(t, factors)
        permuted = t
        for mode in (2, 0, 1):
            permuted = tensor.n_mode_product(permuted, factors[mode], mode)
        np.testing.assert_allclose(permuted, reference, rtol=1e-12)

    def test_bad_mode_named_in_error(self):
        t = np.zeros((3, 4, 2))
        factors = [np.zeros((5, 3)), np.zeros((5, 9)), np.zeros((5, 2))]
        with pytest.raises(ValueError, match="mode 1"):
            tensor.apply_separable(t, factors)


class TestCorrelateSeparable:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 5)),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 2),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_kronecker_oracle_on_every_window(self, modes, batch, stride, seed):
        # modes: (rows k_i, window n_i, axis length beyond the window) per mode
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((k, n)) for k, n, _ in modes]
        lead = (2,) * batch
        x = rng.standard_normal(lead + tuple(n + extra for _, n, extra in modes))
        out = tensor.correlate_separable(x, factors, stride)

        starts = [range(0, extra + 1, stride) for _, _, extra in modes]
        assert out.shape == lead + tuple(len(r) for r in starts) + tuple(k for k, _, _ in modes)
        dense = tensor.kronecker_chain(factors)
        for idx in np.ndindex(*lead):
            for origin in np.ndindex(*(len(r) for r in starts)):
                window = x[idx + tuple(
                    slice(r[p], r[p] + n) for r, p, (_, n, _) in zip(starts, origin, modes)
                )]
                np.testing.assert_allclose(
                    out[idx + origin].ravel(), dense @ window.ravel(), rtol=1e-12, atol=1e-12
                )

    def test_equals_mode_product_chain_bit_for_bit(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((5, 5, 5))
        factors = [random_factor(6, 5, rng) for _ in range(3)]
        chain = t
        for mode, factor in enumerate(factors):
            chain = tensor.n_mode_product(chain, factor, mode)
        assert np.array_equal(tensor.apply_separable(t, factors), chain)

    def test_invalid_arguments_rejected(self):
        x = np.zeros((4, 4))
        f = np.zeros((3, 2))
        with pytest.raises(ValueError, match="at least 3 axes"):
            tensor.correlate_separable(x, [f, f, f])
        with pytest.raises(ValueError, match="mode 1"):
            tensor.correlate_separable(x, [f, np.zeros((3, 5))])
        with pytest.raises(ValueError, match="stride"):
            tensor.correlate_separable(x, [f, f], stride=0)

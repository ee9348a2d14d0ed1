import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepop import learn, objective, reconstruct, tensor
from sepop.cg import SolverConfig
from sepop.manifold import random_factor
from sepop.objective import LearningParams

import oracles


class TestUnfoldFold:
    def test_column_formula(self):
        # entry (2,1,2) of a 2x2x2 tensor lands in row 2, column (2-1)*2 + 1 = 3
        # (1-based), i.e. row 1, column 2 in 0-based indexing.
        t = np.arange(8, dtype=float).reshape(2, 2, 2)
        m = oracles.unfold_last(t)
        assert m.shape == (2, 4)
        assert m[1, 2] == t[1, 0, 1]

    def test_order_one_tensor(self):
        t = np.array([1.0, 2.0, 3.0])
        m = oracles.unfold_last(t)
        assert m.shape == (3, 1)
        np.testing.assert_array_equal(m[:, 0], t)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5))
        assert np.array_equal(oracles.fold_last(oracles.unfold_last(t), t.shape), t)

    def test_fold_restores_entry(self):
        t = np.arange(8, dtype=float).reshape(2, 2, 2)
        back = oracles.fold_last(oracles.unfold_last(t), (2, 2, 2))
        assert back[1, 0, 1] == t[1, 0, 1]

    def test_fold_wrong_dims_rejected(self):
        with pytest.raises(ValueError, match="fold"):
            oracles.fold_last(np.zeros((2, 4)), (3, 3, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, dims, seed):
        t = np.random.default_rng(seed).standard_normal(tuple(dims))
        assert np.array_equal(oracles.fold_last(oracles.unfold_last(t), t.shape), t)


class TestKronecker:
    def test_identity(self):
        np.testing.assert_array_equal(oracles.kronecker(np.eye(2), np.eye(3)), np.eye(6))

    def test_rank_multiplies(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 2))
        rank = np.linalg.matrix_rank
        assert rank(oracles.kronecker(a, b)) == rank(a) * rank(b)

    def test_unit_rows_preserved(self):
        rng = np.random.default_rng(5)
        a = random_factor(4, 3, rng)
        b = random_factor(5, 2, rng)
        norms = np.linalg.norm(oracles.kronecker(a, b), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestCorrelateSeparableOnePatch:
    """A patch-sized input has one window: its output is ``(1,) * N + (k_1, ..., k_N)``."""

    def test_identity_factors(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4, 2))
        out = tensor.correlate_separable(t, [np.eye(3), np.eye(4), np.eye(2)])
        assert out.shape == (1, 1, 1, 3, 4, 2)
        np.testing.assert_allclose(out.reshape(t.shape), t, rtol=1e-15)

    def test_scalar_case(self):
        t = np.full((1, 1, 1), 2.0)
        one, three = np.ones((1, 1)), np.full((1, 1), 3.0)
        out = tensor.correlate_separable(t, [one, three, one])
        assert out.shape == (1, 1, 1, 1, 1, 1)
        assert out.ravel()[0] == 6.0

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((4, 4, 4))
        factors = [rng.standard_normal((6, 4)) for _ in range(3)]
        out = tensor.correlate_separable(t, factors)
        big = oracles.kronecker_chain(factors)
        np.testing.assert_allclose(out.ravel(), big @ t.ravel(), rtol=1e-12)

    def test_order_two_reduces_to_matrix_products(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((4, 3))
        f1 = rng.standard_normal((5, 4))
        f2 = rng.standard_normal((6, 3))
        out = tensor.correlate_separable(t, [f1, f2]).reshape(5, 6)
        np.testing.assert_allclose(
            oracles.unfold_last(out), f2 @ oracles.unfold_last(t) @ f1.T, rtol=1e-12
        )

    def test_mode_order_irrelevant(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 5))
        factors = [rng.standard_normal((6, d)) for d in t.shape]
        reference = tensor.correlate_separable(t, factors).reshape(6, 6, 6)
        permuted = t
        for mode in (2, 0, 1):
            permuted = oracles.mode_product(permuted, factors[mode], mode)
        np.testing.assert_allclose(permuted, reference, rtol=1e-12)

    def test_bad_mode_named_in_error(self):
        t = np.zeros((3, 4, 2))
        factors = [np.zeros((5, 3)), np.zeros((5, 9)), np.zeros((5, 2))]
        with pytest.raises(ValueError, match="mode 1"):
            tensor.correlate_separable(t, factors)


class TestCorrelateSeparable:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 5)),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_kronecker_oracle_on_every_window(self, modes, seed):
        # modes: (rows k_i, window n_i, axis length beyond the window) per mode
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((k, n)) for k, n, _ in modes]
        x = rng.standard_normal(tuple(n + extra for _, n, extra in modes))
        out = tensor.correlate_separable(x, factors)

        assert out.shape == tuple(extra + 1 for _, _, extra in modes) + tuple(k for k, _, _ in modes)
        dense = oracles.kronecker_chain(factors)
        for origin in np.ndindex(*out.shape[: len(modes)]):
            window = x[tuple(slice(p, p + n) for p, (_, n, _) in zip(origin, modes))]
            np.testing.assert_allclose(
                out[origin].ravel(), dense @ window.ravel(), rtol=1e-12, atol=1e-12
            )

    def test_equals_mode_product_chain_bit_for_bit(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((5, 5, 5))
        factors = [random_factor(6, 5, rng) for _ in range(3)]
        chain = t
        for mode, factor in enumerate(factors):
            chain = oracles.mode_product(chain, factor, mode)
        assert np.array_equal(tensor.correlate_separable(t, factors).reshape(6, 6, 6), chain)

    def test_invalid_arguments_rejected(self):
        x = np.zeros((4, 4))
        f = np.zeros((3, 2))
        with pytest.raises(ValueError, match="3 factors cannot analyze a tensor of order 2"):
            tensor.correlate_separable(x, [f, f, f])
        with pytest.raises(ValueError, match="1 factors cannot analyze a tensor of order 2"):
            tensor.correlate_separable(x, [f])
        with pytest.raises(ValueError, match="mode 1"):
            tensor.correlate_separable(x, [f, np.zeros((3, 5))])
        with pytest.raises(ValueError, match="0 factors cannot analyze a tensor of order 2"):
            tensor.correlate_separable(x, [])


class TestRotateProduct:
    """The leading-mode product equals ``tensordot`` over the leading axis bit for bit."""

    SHAPES = {
        "order-1": (5,),
        "order-2": (4, 7),
        "order-3": (3, 5, 2),
        "order-4": (5, 4, 3, 6),
        "learning-batch": (5, 5, 5, 2000),
        "one-patch": (5, 5, 5, 1),
        "one-row-order-2": (5, 1),
        "one-row-order-4": (4, 1, 1, 1),
    }

    @pytest.mark.parametrize("k", [2, 5, 9], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
    def test_equals_tensordot_bit_for_bit(self, shape, k):
        rng = np.random.default_rng(k * 31 + len(shape))
        x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3], shape)
        factor = rng.standard_normal((k, shape[0]))
        out = tensor.rotate_product(x, factor)
        assert out.shape == shape[1:] + (k,)
        assert np.array_equal(out, oracles.leading_mode_product(x, factor))

    def test_chain_over_the_modes_is_the_batch_analysis(self):
        # (n_1, ..., n_N, T) rotated once per mode is (T, k_1, ..., k_N)
        rng = np.random.default_rng(3)
        factors = [random_factor(6, 5, rng), random_factor(7, 4, rng), random_factor(4, 3, rng)]
        patches = rng.standard_normal((9, 5, 4, 3))
        chain = np.moveaxis(patches, 0, -1)
        for factor in factors:
            chain = tensor.rotate_product(chain, factor)
        expected = patches
        for mode, factor in enumerate(factors):
            expected = oracles.mode_product(expected, factor, mode + 1)
        assert np.array_equal(chain, expected)

    @pytest.fixture
    def gemm_rows(self, monkeypatch):
        """The operand rows of each GEMM that ``rotate_product`` issues."""
        rows, matmul = [], np.matmul

        def recording(a, b, *args, **kwargs):
            rows.append(len(a))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        return rows

    # rows per block: 2, 3, one short of the operand (on these shapes, whose row count less
    # one is prime, a one-row remainder that joins the block before it), all and more
    BLOCKS = {"2-rows": lambda m: 2, "3-rows": lambda m: 3, "one-row-remainder": lambda m: m - 1,
              "over-the-operand": lambda m: 2 * m}

    @pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("block", list(BLOCKS), ids=list(BLOCKS))
    @pytest.mark.parametrize("k", [2, 5, 9], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("shape", ["learning-batch", "order-4"])
    def test_blocks_equal_tensordot_bit_for_bit(self, monkeypatch, gemm_rows, shape, k, block, given_out):
        shape = self.SHAPES[shape]
        n, total = shape[0], math.prod(shape[1:])
        rows = self.BLOCKS[block](total)
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * (n + k) * rows)
        rng = np.random.default_rng(k * 31 + len(shape))
        x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3], shape)
        factor = rng.standard_normal((k, n))
        out = np.empty(shape[1:] + (k,)) if given_out else None
        result = tensor.rotate_product(x, factor, out=out)
        assert result is out if given_out else result.shape == shape[1:] + (k,)
        assert np.array_equal(result, oracles.leading_mode_product(x, factor))
        whole, last = divmod(total, rows)
        if last == 1 and whole:
            expected = [rows] * (whole - 1) + [rows + 1]
        else:
            expected = [rows] * whole + ([last] if last else [])
        assert gemm_rows == expected

    @pytest.mark.parametrize("block", list(BLOCKS), ids=list(BLOCKS))
    @pytest.mark.parametrize("shape", ["learning-batch", "order-4"])
    def test_a_one_by_one_factor_equals_tensordot_bit_for_bit(self, monkeypatch, shape, block):
        # the only one-row factor a caller can pass (a factor has k >= n): every entry is
        # one multiplication, which rounds the same on any matmul path
        shape = (1,) + self.SHAPES[shape][1:]
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * 2 * self.BLOCKS[block](math.prod(shape)))
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3], shape)
        factor = rng.standard_normal((1, 1))
        assert np.array_equal(tensor.rotate_product(x, factor), oracles.leading_mode_product(x, factor))

    def test_reads_a_contiguous_operand_in_place(self):
        x = np.random.default_rng(5).standard_normal((5, 40_000))
        factor = np.random.default_rng(6).standard_normal((6, 5))
        tracemalloc.start()
        try:
            out = tensor.rotate_product(x, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result only: a copy of the operand would add 5/6 of it
        assert peak < 1.1 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the result"

    def test_factor_that_does_not_fit_the_leading_axis_rejected(self):
        with pytest.raises(ValueError):
            tensor.rotate_product(np.zeros((5, 2)), np.zeros((3, 4)))


class TestCorrelateSeparableAdjoint:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 5)),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_is_the_transpose_of_the_analysis(self, modes, seed):
        # modes: (rows k_i, window n_i, axis length beyond the window) per mode;
        # every axis length is odd.
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((k, n)) for k, n, _ in modes]
        shape = tuple((n + extra) | 1 for _, n, extra in modes)
        x = rng.standard_normal(shape)
        analysis = tensor.correlate_separable(x, factors)
        z = rng.standard_normal(analysis.shape)
        back = tensor.correlate_separable_adjoint(z, factors, shape)
        assert back.shape == shape

        lhs, rhs = float(np.sum(analysis * z)), float(np.sum(x * back))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

        dense = oracles.kronecker_chain(factors)
        sizes = tuple(n for _, n, _ in modes)
        expected = np.zeros(shape)
        for origin in np.ndindex(*analysis.shape[: len(modes)]):
            window = tuple(slice(p, p + n) for p, n in zip(origin, sizes))
            expected[window] += (dense.T @ z[origin].ravel()).reshape(sizes)
        np.testing.assert_allclose(back, expected, rtol=1e-12, atol=1e-12)

    def test_invalid_arguments_rejected(self):
        f = np.zeros((3, 2))
        with pytest.raises(ValueError, match="expected"):
            tensor.correlate_separable_adjoint(np.zeros((3, 3, 3)), [f, f], (4, 4))
        with pytest.raises(ValueError, match="3 factors cannot analyze a tensor of order 2"):
            tensor.correlate_separable_adjoint(np.zeros((3, 3)), [f, f, f], (4, 4))
        with pytest.raises(ValueError, match="1 factors cannot analyze a tensor of order 2"):
            tensor.correlate_separable_adjoint(np.zeros((3, 3)), [f], (4, 4))
        with pytest.raises(ValueError, match="window that fits axis length 4"):
            tensor.correlate_separable_adjoint(np.zeros((1, 3)), [np.zeros((3, 5))], (4,))


@pytest.mark.parametrize("total", range(8))
@pytest.mark.parametrize("rows", [0, 1, 2, 3])
def test_blocks_tile_the_rows_two_at_least(total, rows):
    # the rule that the GEMM rows, the analysis slabs and the adjoint's blocks share
    blocks = list(tensor._blocks(total, 8 * rows, 8))
    assert [row for block in blocks for row in range(*block)] == list(range(total))
    assert all(stop - start >= min(2, total) for start, stop in blocks)
    assert all(stop - start <= max(2, rows) + 1 for start, stop in blocks)


class TestBlockedAdjoint:
    """The blocked adjoint equals the whole-array transpose-then-GEMM one bit for bit."""

    @pytest.mark.parametrize(
        "shapes, dims",
        [
            ([(6, 5)] * 3, (13, 12, 11)),
            ([(6, 5)] * 3, (14, 13, 11)),
            ([(6, 5)] * 3, (16, 17, 15)),
            ([(4, 3), (7, 4), (5, 5)], (10, 11, 12)),
            ([(4, 3), (7, 4), (5, 5), (3, 2)], (9, 8, 7, 6)),  # order 4
            ([(3, 4), (2, 5)], (12, 9)),  # order 2
            ([(4, 4)], (9,)),  # order 1
            # A 1x1 mode among 6x5 ones: its products are single multiplications.
            ([(1, 1), (6, 5), (6, 5)], (9, 12, 11)),
            ([(6, 5), (1, 1), (6, 5)], (13, 7, 11)),
            ([(6, 5), (6, 5), (1, 1)], (13, 12, 6)),
            # Thin and permuted window-origin grids: the origins are walked with the
            # axis of most origins last, in blocks that may end inside a run of it.
            ([(6, 5)] * 3, (32, 32, 8)),  # the cs grid, 28x28x4
            ([(6, 5)] * 3, (32, 32, 24)),  # neither thin nor cubic, 28x28x20
            # 605 origins in default blocks of 151: each ends inside a grid row of 11,
            # and a one-row remainder joins the last.
            ([(6, 5)] * 3, (9, 15, 15)),
            ([(6, 5)] * 3, (40, 12, 12)),  # the longest axis first
            ([(6, 5)] * 3, (9, 30, 7)),  # the longest axis in the middle
            ([(6, 5)] * 3, (21, 21, 9)),
            ([(6, 5)] * 3, (5, 14, 9)),  # one origin on the first axis
            ([(6, 5)] * 3, (6, 5, 7)),  # one origin on the middle axis, six in all
            ([(6, 5)] * 3, (5, 5, 5)),  # one origin in all: a block of one row
            # A 1x1 first mode walks whole planes of the first axis, as a stack of
            # slices: its run of origins is the longest when the other axes have few.
            ([(1, 1)] + [(6, 5)] * 3, (2, 11, 9, 12)),
            ([(1, 1), (4, 3), (7, 4), (5, 5)], (3, 9, 8, 7)),
            ([(1, 1), (3, 4), (2, 5)], (4, 12, 9)),
            ([(1, 1)] + [(6, 5)] * 3, (2, 20, 20, 6)),  # on a thin grid
            ([(1, 1)] + [(6, 5)] * 3, (3, 5, 5, 5)),  # one origin on every other axis
        ],
    )
    # Rows per block: most leave a short last block, and "one short" leaves a
    # one-row remainder, which joins the block before it.
    @pytest.mark.parametrize("rows", [2, 3, 7, 64, "one short", "default"])
    def test_equals_the_whole_array_adjoint(self, monkeypatch, shapes, dims, rows):
        rng = np.random.default_rng(len(dims))
        factors = [rng.standard_normal(shape) for shape in shapes]
        z = rng.standard_normal(tensor.correlate_separable(np.zeros(dims), factors).shape)
        width = int(np.prod([k for k, _ in shapes]))
        origins = z.size // width
        if rows == "one short":
            rows = origins - 1
        if rows != "default":
            monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * width * rows)
        back = tensor.correlate_separable_adjoint(z, factors, dims)
        assert back.flags.c_contiguous
        assert np.array_equal(back, oracles.whole_array_adjoint(z, factors, dims))


class TestSlabbedAnalysis:
    """The slab-by-slab analysis equals the whole-array one-GEMM-per-mode analysis bit for bit."""

    CASES = [
        ([(6, 5)] * 3, (13, 12, 11)),
        ([(6, 5)] * 3, (14, 13, 11)),
        ([(6, 5)] * 3, (16, 17, 15)),
        ([(4, 3), (7, 4), (5, 5)], (10, 11, 12)),
        ([(4, 3), (7, 4), (5, 5), (3, 2)], (9, 8, 7, 6)),  # order 4
        ([(3, 4), (2, 5)], (12, 9)),  # order 2
        ([(6, 5)] * 3, (5, 12, 11)),  # m_1 = 1: one plane
        ([(4, 4)], (9,)),  # one mode: one GEMM row per plane
        # A 1x1 mode among 6x5 ones: its products are single multiplications.
        ([(1, 1), (6, 5), (6, 5)], (9, 12, 11)),
        ([(6, 5), (1, 1), (6, 5)], (13, 7, 11)),
        ([(6, 5), (6, 5), (1, 1)], (13, 12, 6)),
        # A 1x1 first mode: slabs of whole planes of a stack of slices, no halo.
        ([(1, 1)] + [(6, 5)] * 3, (5, 11, 9, 12)),
        ([(1, 1), (4, 3), (7, 4), (5, 5)], (4, 9, 8, 7)),
        ([(1, 1), (3, 4), (2, 5)], (4, 12, 9)),
    ]

    # Planes per slab budgeted: under one plane, one, two, three, the count that
    # leaves a one-plane remainder (which joins the slab before it), and the default.
    @pytest.mark.parametrize("shapes, dims", CASES)
    @pytest.mark.parametrize("planes", [0.5, 1, 2, 3, "one short", "default"])
    def test_equals_the_whole_array_analysis(self, monkeypatch, shapes, dims, planes):
        rng = np.random.default_rng(len(dims))
        factors = [rng.standard_normal(shape) for shape in shapes]
        x = rng.standard_normal(dims)
        whole = oracles.whole_array_analysis(x, factors)
        if planes == "one short":
            planes = max(len(whole) - 1, 1)
        if planes != "default":
            plane_bytes = whole[0].nbytes
            monkeypatch.setattr(tensor, "BLOCK_BYTES", int(planes * plane_bytes))
        analysis = tensor.correlate_separable(x, factors)
        assert analysis.shape == whole.shape
        assert np.array_equal(analysis, whole)

    @pytest.mark.parametrize("shapes, dims", CASES)
    def test_each_step_makes_a_prefix_final(self, monkeypatch, shapes, dims):
        rng = np.random.default_rng(5)
        factors = [rng.standard_normal(shape) for shape in shapes]
        x = rng.standard_normal(dims)
        whole = oracles.whole_array_analysis(x, factors).reshape(-1)
        rotate_product, ends = tensor.rotate_product, []

        def checking_product(*args, out=None, **kwargs):
            result = rotate_product(*args, out=out, **kwargs)
            if out is not None:
                # a slab's last mode writes its planes of the result: every entry up
                # to the slab's end is final once it returns
                result_start = out.base.__array_interface__["data"][0]
                end = (out.__array_interface__["data"][0] - result_start) // 8 + out.size
                assert np.array_equal(out.base.reshape(-1)[:end], whole[:end])
                ends.append(end)
            return result

        monkeypatch.setattr(tensor, "BLOCK_BYTES", 1)
        monkeypatch.setattr(tensor, "rotate_product", checking_product)
        out = tensor.correlate_separable(x, factors)
        assert out.size == whole.size
        assert ends == sorted(set(ends)) and ends[-1] == whole.size
        # a budget under one plane still fills two planes a step, or the whole axis
        plane = whole.size // len(out)
        steps = [b - a for a, b in zip([0] + ends, ends)]
        assert all(step >= min(2, len(out)) * plane for step in steps)

    def test_a_strided_input_is_analyzed_as_its_copy(self):
        # a moveaxis view of a volume, three modes
        rng = np.random.default_rng(9)
        factors = [rng.standard_normal((6, 5)) for _ in range(3)]
        volume = rng.standard_normal((24, 22, 6)) * rng.choice([1e-3, 1e3], (24, 22, 6))
        x = np.moveaxis(volume, 2, 0)
        whole = oracles.whole_array_analysis(x, factors)
        assert np.array_equal(tensor.correlate_separable(x, factors), whole)


class TestWindowGrid:
    def test_float_factors_and_origins_per_axis(self):
        factors, origins = tensor.window_grid([np.ones((3, 2), dtype=int), np.ones((4, 5))], (7, 5))
        assert origins == (6, 1)
        assert [f.dtype for f in factors] == [np.dtype(float)] * 2
        assert [f.shape for f in factors] == [(3, 2), (4, 5)]


# Every public function that takes operator factors refuses the window rule's violations with
# a ValueError naming the factors: a 1-D factor, one factor too few or too many, and a window
# that does not fit (for a patch batch, one that is not the patch size).
_F = random_factor(6, 5, 0)
_PATCHES = np.random.default_rng(5).standard_normal((4, 5, 5, 5))
_VOLUME_ENTRY_POINTS = {
    "correlate_separable": lambda fs: tensor.correlate_separable(np.zeros((8, 8, 8)), fs),
    "correlate_separable_adjoint": lambda fs: tensor.correlate_separable_adjoint(
        np.zeros((4, 4, 4, 6, 6, 6)), fs, (8, 8, 8)
    ),
    "reconstruct": lambda fs: reconstruct.reconstruct(
        np.zeros(512), reconstruct.IdentityMeasurement((8, 8, 8)), fs,
        reconstruct.ReconConfig(lam=1.0, max_iters=1),
    ),
}
_BATCH_ENTRY_POINTS = {
    "analyze_batch": lambda fs: objective.analyze_batch(_PATCHES, fs),
    "patch_analysis": lambda fs: objective.patch_analysis(fs, _PATCHES, 1000.0),
    "learning_cost": lambda fs: objective.learning_cost(fs, _PATCHES, LearningParams()),
    "learning_gradient": lambda fs: objective.learning_gradient(fs, _PATCHES, LearningParams()),
    "mean_sparsity": lambda fs: objective.mean_sparsity(_PATCHES, fs, 1000.0),
    "learn_operators": lambda fs: learn.learn_operators(
        _PATCHES, [f.shape for f in fs], LearningParams(), SolverConfig(max_iters=1)
    ),
}
_BAD_FACTORS = {
    "1-D factor": [_F, _F[0], _F],
    "one factor too few": [_F, _F],
    "one factor too many": [_F, _F, _F, _F],
}


@pytest.mark.parametrize("entry", [*_VOLUME_ENTRY_POINTS, *_BATCH_ENTRY_POINTS])
@pytest.mark.parametrize("case", ["valid", *_BAD_FACTORS, "window that does not fit"])
def test_every_entry_point_refuses_factors_that_break_the_window_rule(entry, case):
    on_volume = entry in _VOLUME_ENTRY_POINTS
    call = {**_VOLUME_ENTRY_POINTS, **_BATCH_ENTRY_POINTS}[entry]
    misfit = random_factor(10, 9, 1) if on_volume else random_factor(6, 4, 1)
    factors = _BAD_FACTORS.get(case, [_F, _F, _F if case == "valid" else misfit])
    if case == "valid":
        call(factors)
    else:
        with pytest.raises(ValueError, match="factor"):
            call(factors)

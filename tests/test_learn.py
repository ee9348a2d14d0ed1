import numpy as np
import pytest

from sepop import learn, manifold, objective
from sepop.learn import LearnReport, SolverConfig, learn_operators, nonmonotone_accept
from sepop.objective import LearningParams


def synthetic_cosparse_patches(count, factors, seed, noise=1e-3):
    """Rank-1 patches built from per-mode null-space vectors of the factors."""
    rng = np.random.default_rng(seed)
    dims = tuple(f.shape[1] for f in factors)
    out = np.empty((count,) + dims)
    for t in range(count):
        vecs = []
        for f in factors:
            rows = rng.choice(f.shape[0], size=f.shape[1] - 1, replace=False)
            vecs.append(np.linalg.svd(f[rows])[2][-1])
        patch = vecs[0]
        for v in vecs[1:]:
            patch = np.multiply.outer(patch, v)
        patch = patch + noise * rng.standard_normal(dims)
        out[t] = patch / np.linalg.norm(patch)
    return out


class TestNonmonotoneAccept:
    def test_reduces_to_armijo_on_first_iteration(self):
        # with C_0 = f(x_0) the test is exactly the Armijo condition
        f0, dd, t, c1 = 10.0, -4.0, 0.5, 1e-4
        threshold = f0 + c1 * t * dd
        assert nonmonotone_accept(threshold - 1e-12, f0, dd, t, c1)
        assert not nonmonotone_accept(threshold + 1e-9, f0, dd, t, c1)

    def test_zero_decay_is_pure_armijo(self):
        # decay 0 keeps the reference equal to the last cost
        costs = [5.0, 4.0, 4.5]
        ref = costs[0]
        for f_new in costs[1:]:
            # Q stays 1, C_{k+1} = f_{k+1}
            ref = (0.0 * 1.0 * ref + f_new) / (0.0 * 1.0 + 1.0)
            assert ref == f_new

    def test_averaged_reference_accepts_oscillating_step(self):
        # hand-computed reference recursion with decay 0.85:
        # C_0 = 10; f_1 = 8  -> Q_1 = 1.85, C_1 = (0.85*10 + 8)/1.85 = 8.9189...
        decay = 0.85
        c0, q0 = 10.0, 1.0
        f1 = 8.0
        q1 = decay * q0 + 1.0
        c1_ref = (decay * q0 * c0 + f1) / q1
        assert c1_ref == pytest.approx(16.5 / 1.85)
        # candidate cost 8.5 exceeds the last cost f_1 = 8 (monotone Armijo
        # rejects) but sits below the averaged reference (accepted).
        dd, t, c1 = -1.0, 1e-3, 1e-4
        assert not nonmonotone_accept(8.5, f1, dd, t, c1)
        assert nonmonotone_accept(8.5, c1_ref, dd, t, c1)

    def test_nondescent_direction_rejected(self):
        with pytest.raises(ValueError, match="descent"):
            nonmonotone_accept(1.0, 2.0, 0.5, 0.1, 1e-4)


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": 0.0},
            {"ls_history_decay": 1.0},
            {"ls_sufficient_decrease": 0.0},
            {"ls_backtrack": 1.0},
            {"ls_max_trials": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestLearnOperators:
    def test_flat_landscape_returns_initial_point(self):
        params = LearningParams(nu=1000.0, kappa=0.0, mu=0.0)
        cfg = SolverConfig(max_iters=50, seed=5)
        patches = np.zeros((10, 5, 5, 5))
        factors, report = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        expected = manifold.random_point([(6, 5)] * 3, np.random.default_rng(5))
        for got, want in zip(factors, expected):
            np.testing.assert_array_equal(got, want)
        assert report.termination == "tolerance"
        assert report.grad_norms[0] == 0.0

    def test_empty_training_set_rejected(self):
        params = LearningParams()
        with pytest.raises(ValueError, match="empty"):
            learn_operators(np.zeros((0, 5, 5, 5)), [(6, 5)] * 3, params, SolverConfig())

    def test_incompatible_shapes_rejected(self):
        params = LearningParams()
        with pytest.raises(ValueError, match="mode"):
            learn_operators(np.zeros((4, 5, 5, 5)), [(6, 5), (6, 4), (6, 5)], params, SolverConfig())

    def test_wide_factor_shape_rejected(self):
        params = LearningParams()
        with pytest.raises(ValueError, match="tall"):
            learn_operators(np.zeros((4, 5, 5, 5)), [(4, 5), (6, 5), (6, 5)], params, SolverConfig())

    def test_deterministic_reports(self):
        rng = np.random.default_rng(0)
        patches = rng.standard_normal((30, 5, 5, 5))
        params = LearningParams()
        cfg = SolverConfig(max_iters=15, seed=9)
        f1, r1 = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        f2, r2 = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        assert r1.costs == r2.costs
        assert r1.grad_norms == r2.grad_norms
        assert r1.step_sizes == r2.step_sizes
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)

    def test_iterates_satisfy_manifold_and_acceptance_invariants(self):
        rng = np.random.default_rng(3)
        patches = rng.standard_normal((50, 5, 5, 5))
        params = LearningParams(nu=100.0, kappa=500.0, mu=0.5)
        cfg = SolverConfig(max_iters=40, seed=1)
        factors, report = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        for f in factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)
            objective.rank_penalty(f)
            objective.coherence_penalty(f)
        # accepted costs satisfy the averaged sufficient-decrease inequality
        for i, (step, dd, ref) in enumerate(
            zip(report.step_sizes, report.directional_derivs, report.reference_values)
        ):
            assert report.costs[i + 1] <= ref + cfg.ls_sufficient_decrease * step * dd + 1e-9

    def test_cost_decreases_on_synthetic_data(self):
        rng = np.random.default_rng(11)
        true = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        patches = synthetic_cosparse_patches(200, true, seed=4)
        params = LearningParams()
        cfg = SolverConfig(max_iters=60, seed=2)
        _factors, report = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        assert report.costs[-1] < 0.5 * report.costs[0]

    def test_synthetic_efficacy_beats_random_initialization(self):
        rng = np.random.default_rng(21)
        true = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        train = synthetic_cosparse_patches(400, true, seed=8)
        held = synthetic_cosparse_patches(100, true, seed=9)
        params = LearningParams()
        cfg = SolverConfig(max_iters=120, seed=6)
        init = manifold.random_point([(6, 5)] * 3, np.random.default_rng(cfg.seed))
        factors, _report = learn_operators(train, [(6, 5)] * 3, params, cfg)
        assert objective.mean_sparsity(held, factors, params.nu) < 0.5 * objective.mean_sparsity(
            held, init, params.nu
        )

    def test_first_direction_is_steepest_descent(self):
        rng = np.random.default_rng(19)
        patches = rng.standard_normal((10, 5, 5, 5))
        params = LearningParams()
        cfg = SolverConfig(max_iters=1, seed=8)
        _factors, report = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        # with d_0 = -grad the first directional derivative equals -|grad|^2
        assert report.directional_derivs[0] == pytest.approx(-report.grad_norms[0] ** 2)

    def test_cg_beats_steepest_descent_on_anisotropic_quadratic(self):
        # separable quadratic-like cost with a wide eigenvalue spread; the
        # conjugate update must reach the gradient tolerance in fewer
        # iterations than the pure projected gradient descent baseline
        rng = np.random.default_rng(5)
        target = [manifold.random_factor(6, 5, rng) for _ in range(2)]
        weights = [
            np.logspace(0, 3, 30).reshape(6, 5),
            np.logspace(0, 3, 30)[::-1].reshape(6, 5),
        ]

        def cost(fs):
            return 0.5 * sum(
                float(np.sum(w * (f - t) ** 2)) for f, t, w in zip(fs, target, weights)
            )

        def grad(fs):
            return [w * (f - t) for f, t, w in zip(fs, target, weights)]

        init = manifold.random_point([(6, 5)] * 2, np.random.default_rng(1))
        cfg = SolverConfig(max_iters=2000, grad_tol=1e-3, seed=0)
        _p, cg_report = learn.minimize_on_product(cost, grad, init, cfg)
        _q, sd_report = learn.minimize_on_product(cost, grad, init, cfg, use_conjugate=False)
        assert cg_report.termination == "tolerance"
        assert cg_report.iterations < sd_report.iterations

    def test_training_log_lines(self):
        rng = np.random.default_rng(17)
        patches = rng.standard_normal((20, 5, 5, 5))
        log: list[str] = []
        learn_operators(patches, [(6, 5)] * 3, LearningParams(), SolverConfig(max_iters=5), log_lines=log)
        assert log[0].startswith("iter 0 cost ")
        assert len(log) >= 2


class TestOperatorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        path = str(tmp_path / "ops.txt")
        learn.save_operators(path, factors, LearningParams(), extra={"seed": "7"})
        loaded, meta = learn.load_operators(path)
        assert meta["nu"] == "1000.0"
        assert meta["seed"] == "7"
        for a, b in zip(factors, loaded):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="operator file"):
            learn.load_operators(str(path))

    @staticmethod
    def _saved(tmp_path):
        rng = np.random.default_rng(29)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        path = tmp_path / "ops.txt"
        learn.save_operators(str(path), factors, LearningParams())
        return path, path.read_text().splitlines()

    def test_truncated_inside_a_mode_block(self, tmp_path):
        path, lines = self._saved(tmp_path)
        path.write_text("\n".join(lines[: lines.index("mode 1 6 5") + 3]) + "\n")
        with pytest.raises(ValueError, match=r"ops\.txt: truncated in mode 1: 2 of 6 rows"):
            learn.load_operators(str(path))

    def test_truncated_after_the_header(self, tmp_path):
        path, lines = self._saved(tmp_path)
        path.write_text("\n".join(lines[: lines.index("mode 0 6 5")]) + "\n")
        with pytest.raises(ValueError, match=r"ops\.txt: header says modes 3 but the file has 0"):
            learn.load_operators(str(path))

    def test_modes_header_must_match_the_blocks(self, tmp_path):
        path, lines = self._saved(tmp_path)
        path.write_text("\n".join(lines[: lines.index("mode 2 6 5")]) + "\n")
        with pytest.raises(ValueError, match="modes 3 but the file has 2"):
            learn.load_operators(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_entry_rejected(self, tmp_path, value):
        path, lines = self._saved(tmp_path)
        row = lines.index("mode 0 6 5") + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"ops\.txt: mode 0 has non-finite entries"):
            learn.load_operators(str(path))

    def test_malformed_block_header_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        lines[lines.index("mode 1 6 5")] = "mode 1 six 5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected 'mode i k n'"):
            learn.load_operators(str(path))

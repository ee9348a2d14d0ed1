import dataclasses
import re

import numpy as np
import pytest

from sepop import cg, learn, manifold, objective, volume
from sepop.learn import LearnReport, SolverConfig, learn_operators
from sepop.objective import LearningParams

import oracles
import reference_objective
import reference_solvers


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
    def test_zero_decay_is_pure_armijo(self):
        # decay 0 keeps the reference equal to the last cost
        costs = [5.0, 4.0, 4.5]
        ref = costs[0]
        for f_new in costs[1:]:
            # Q stays 1, C_{k+1} = f_{k+1}
            ref = (0.0 * 1.0 * ref + f_new) / (0.0 * 1.0 + 1.0)
            assert ref == f_new


class TestSolverConfigValidation:
    @pytest.mark.parametrize("kwargs", [{"max_iters": 0}])
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
        with pytest.raises(ValueError, match=r"T >= 1, got shape \(0, 5, 5, 5\)"):
            learn_operators(np.zeros((0, 5, 5, 5)), [(6, 5)] * 3, params, SolverConfig())

    def test_incompatible_shapes_rejected(self):
        params = LearningParams()
        with pytest.raises(ValueError, match=r"windows \(5, 4, 5\) differ from the patch shape"):
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
            assert report.costs[i + 1] <= ref + cg.SUFFICIENT_DECREASE * step * dd + 1e-9

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

    @pytest.mark.parametrize("seed", [0, 3])
    def test_start_is_the_seeded_random_point(self, monkeypatch, seed):
        captured = []
        monkeypatch.setattr(
            learn, "minimize_on_product", lambda evaluate, init, cfg: captured.append(init)
        )
        patches = phantom_patches((16, 16, 16), 50)
        learn_operators(patches, [(6, 5)] * 3, LearningParams(), SolverConfig(seed=seed))
        (start,) = captured
        want = manifold.random_point([(6, 5)] * 3, np.random.default_rng(seed))
        assert all(np.array_equal(a, b) for a, b in zip(start, want, strict=True))

    def test_cg_beats_steepest_descent_on_anisotropic_quadratic(self, monkeypatch):
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

        def evaluate(fs):
            return cost(fs), lambda: grad(fs)

        init = manifold.random_point([(6, 5)] * 2, np.random.default_rng(1))
        monkeypatch.setattr(cg, "GRAD_TOL", 1e-3)
        _p, cg_report = learn.minimize_on_product(evaluate, init, SolverConfig(max_iters=2000))
        _q, sd_report = reference_solvers.minimize_on_product(
            cost, grad, init, oracles.solver_settings(2000, cg.OBLIQUE), use_conjugate=False
        )
        assert cg_report.termination == "tolerance"
        assert cg_report.iterations < sd_report.iterations

    def test_training_log_lines(self):
        rng = np.random.default_rng(17)
        patches = rng.standard_normal((20, 5, 5, 5))
        _factors, report = learn_operators(
            patches, [(6, 5)] * 3, LearningParams(), SolverConfig(max_iters=5)
        )
        log = report.training_log().splitlines()
        assert log[0].startswith("iter 0 cost ")
        assert len(log) >= 2


def crossing_start(barrier):
    """Three unit-row 6x5 factors whose first crosses ``barrier``: two equal rows, or rows
    spanning only four of the five columns."""
    factors = manifold.random_point([(6, 5)] * 3, np.random.default_rng(2))
    if barrier == "coherence":
        factors[0][1] = factors[0][0]
    else:
        factors[0][:, 4] = 0.0
        factors[0] /= np.linalg.norm(factors[0], axis=1, keepdims=True)
    return factors


class TestNonFiniteStart:
    """``learn_operators`` refuses a start at which the cost or its gradient's norm is not
    finite with a ``ValueError`` naming the first term that makes it so, and nu, kappa and mu."""

    @pytest.mark.parametrize(
        "scale, kappa, mu, term",
        [(1e200, 500.0, 0.5, "sparsity"), (1.0, 1e308, 0.5, "rank barrier"),
         (1.0, 500.0, 1e308, "coherence barrier"), (1.0, 1e308, 1e308, "rank barrier"),
         # each term finite, but a weight of 1e300 makes the gradient's squared norm overflow
         (1.0, 1e300, 0.5, "rank barrier"), (1.0, 500.0, 1e300, "coherence barrier")],
    )
    def test_names_the_term(self, scale, kappa, mu, term):
        patches = scale * phantom_patches((16, 16, 16), 40)
        message = (f"the {term} term or its gradient's norm is not finite at the start, "
                   f"nu 1000.0, kappa {kappa}, mu {mu}")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=re.escape(message)):
                learn_operators(patches, [(6, 5)] * 3, LearningParams(1000.0, kappa, mu),
                                SolverConfig(max_iters=2))

    @pytest.mark.parametrize("barrier", ["rank", "coherence"])
    def test_a_crossed_barrier_counts_as_its_term(self, monkeypatch, barrier):
        start = crossing_start(barrier)
        monkeypatch.setattr(manifold, "random_point", lambda shapes, rng: start)
        message = f"the {barrier} barrier term or its gradient's norm is not finite at the start"
        with pytest.raises(ValueError, match=message):
            learn_operators(phantom_patches((16, 16, 16), 40), [(6, 5)] * 3, LearningParams(),
                            SolverConfig(max_iters=2))

    def test_a_barrier_with_weight_zero_is_no_term(self, monkeypatch):
        # the cost leaves an unweighted barrier out, so a start that crosses it is finite
        start = crossing_start("rank")
        monkeypatch.setattr(manifold, "random_point", lambda shapes, rng: start)
        params = LearningParams(kappa=0.0)
        _factors, report = learn_operators(phantom_patches((16, 16, 16), 40), [(6, 5)] * 3,
                                           params, SolverConfig(max_iters=2))
        assert np.isfinite(report.costs[0])

    def test_a_finite_start_costs_as_many_evaluations_as_a_plain_solve(self, monkeypatch):
        analyze, calls, direct = objective.patch_analysis, [], []
        monkeypatch.setattr(learn, "patch_analysis", lambda *a: calls.append(1) or analyze(*a))
        patches, params, cfg = phantom_patches((16, 16, 16), 60), LearningParams(), SolverConfig(4)
        learn_operators(patches, [(6, 5)] * 3, params, cfg)
        batch = objective.PatchBatch.of(patches)

        def evaluate(fs):
            direct.append(1)
            analysis = analyze(fs, batch, params.nu)
            cost = objective.learning_cost(fs, batch, params, analysis)
            return cost, lambda: objective.learning_gradient(fs, batch, params, analysis)

        start = manifold.random_point([(6, 5)] * 3, np.random.default_rng(cfg.seed))
        cg.minimize(evaluate, start, cfg, cg.OBLIQUE)
        assert len(calls) == len(direct) > 1

    def test_an_arithmetic_error_after_a_finite_start_is_raised_as_it_was(self, monkeypatch):
        analyze, calls = objective.patch_analysis, []

        def second_call_overflows(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OverflowError("overflow in a trial step")
            return analyze(*args)

        monkeypatch.setattr(learn, "patch_analysis", second_call_overflows)
        with pytest.raises(OverflowError, match="overflow in a trial step"):
            learn_operators(phantom_patches((16, 16, 16), 40), [(6, 5)] * 3, LearningParams(),
                            SolverConfig(max_iters=2))


def phantom_patches(dims, count, seed=11):
    vol = volume.synth_phantom(dims, seed=5)
    return volume.build_training_set(vol, count, (5, 5, 5), flat_tol=1.0, seed=seed).patches


def reference_solve(patches, shapes, params, cfg, objective_module=objective):
    """The frozen learning loop, driven by a memo-free cost and gradient: the package's own,
    each evaluation analyzing the batch afresh, or the frozen definitions'."""
    return reference_solvers.minimize_on_product(
        lambda fs: objective_module.learning_cost(fs, patches, params),
        lambda fs: objective_module.learning_gradient(fs, patches, params),
        manifold.random_point(shapes, np.random.default_rng(cfg.seed)),
        oracles.solver_settings(cfg.max_iters, cg.OBLIQUE),
    )


def fail_line_searches(monkeypatch):
    """Two monotone trials per learning line search and a demanding Armijo test."""
    oblique = dataclasses.replace(cg.OBLIQUE, max_trials=2, history_decay=0.0)
    monkeypatch.setattr(cg, "OBLIQUE", oblique)
    monkeypatch.setattr(cg, "SUFFICIENT_DECREASE", 0.5)


def assert_same_run(got, want):
    (factors, report), (ref_factors, ref_report) = got, want
    assert report.costs == ref_report.costs
    assert report.grad_norms == ref_report.grad_norms
    assert report.step_sizes == ref_report.step_sizes
    assert report.termination == ref_report.termination
    assert all(np.array_equal(a, b) for a, b in zip(factors, ref_factors))


class TestSharedAnalysis:
    """Sharing each evaluation's analysis between cost and gradient changes no
    number of a run: ``learn_operators`` follows the frozen solver, driven by the
    package's memo-free cost and gradient, bit for bit."""

    def test_forty_iterations_equal_the_reference_solve(self):
        # the benchmark's learn probe: 2000 patches of the seed-5 phantom, seed 3
        patches = phantom_patches((32, 32, 32), 2000, seed=3)
        params, cfg = LearningParams(), SolverConfig(max_iters=40, seed=3)
        got = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        assert got[1].iterations == 40
        assert_same_run(got, reference_solve(patches, [(6, 5)] * 3, params, cfg))

    def test_forty_iterations_follow_the_frozen_einsum_objective(self):
        # The gradient sums in another order than the frozen einsum definition, so the
        # probe's run follows it closely, not bit for bit (measured: costs within 4.0e-7
        # relative, factors within 3.3e-6).
        patches = phantom_patches((32, 32, 32), 2000, seed=3)
        params, cfg = LearningParams(), SolverConfig(max_iters=40, seed=3)
        factors, report = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        ref_factors, ref_report = reference_solve(
            patches, [(6, 5)] * 3, params, cfg, objective_module=reference_objective)
        assert report.iterations == ref_report.iterations == 40
        np.testing.assert_allclose(report.costs, ref_report.costs, rtol=4e-6, atol=0)
        for a, b in zip(factors, ref_factors, strict=True):
            assert np.max(np.abs(a - b)) <= 3e-5

    def test_two_modes_equal_the_reference_solve(self):
        # one slice of each phantom patch: the first mode's and the last
        # mode's partials are neighbours, with no middle mode between them
        patches = np.ascontiguousarray(phantom_patches((16, 16, 16), 300)[:, :, :, 2])
        shapes = [(6, 5), (7, 5)]
        params, cfg = LearningParams(), SolverConfig(max_iters=15, seed=4)
        got = learn_operators(patches, shapes, params, cfg)
        assert got[1].iterations > 1
        assert_same_run(got, reference_solve(patches, shapes, params, cfg))

    def test_run_leaves_the_laid_out_patches_as_they_were(self, monkeypatch):
        patches = phantom_patches((16, 16, 16), 300)
        batches = []

        def analysis(fs, batch, nu):
            if not batches:
                batches.append((batch, [block.copy() for _, block in batch.blocks]))
            assert batch is batches[0][0]  # laid out once per run
            return objective.patch_analysis(fs, batch, nu)

        monkeypatch.setattr(learn, "patch_analysis", analysis)
        learn_operators(patches, [(6, 5)] * 3, LearningParams(), SolverConfig(max_iters=10, seed=2))
        ((batch, blocks),) = batches
        for (_, block), copy in zip(batch.blocks, blocks, strict=True):
            assert not block.flags.writeable
            assert np.array_equal(block, copy)

    def test_line_search_failure_equals_the_reference_solve(self, monkeypatch):
        # Two trials per line search and a demanding Armijo test: after one
        # accepted step the run ends in a line-search failure, whose gradient
        # is taken at the better, earlier trial, evaluated again.
        patches = phantom_patches((16, 16, 16), 300)
        params = LearningParams()
        fail_line_searches(monkeypatch)
        cfg = SolverConfig(max_iters=40, seed=2)
        calls, analyses = [], []

        def cost(fs, *args, **kwargs):
            calls.append(("cost", fs))
            return objective.learning_cost(fs, *args, **kwargs)

        def gradient(fs, *args, **kwargs):
            calls.append(("gradient", fs))
            return objective.learning_gradient(fs, *args, **kwargs)

        def analysis(*args, **kwargs):
            analyses.append(args[0])
            return objective.patch_analysis(*args, **kwargs)

        monkeypatch.setattr(learn, "learning_cost", cost)
        monkeypatch.setattr(learn, "learning_gradient", gradient)
        monkeypatch.setattr(learn, "patch_analysis", analysis)
        got = learn_operators(patches, [(6, 5)] * 3, params, cfg)
        assert got[1].termination == "line-search failure" and got[1].iterations == 2
        # one analysis per evaluation, and every gradient at the point just evaluated
        costs = [fs for kind, fs in calls if kind == "cost"]
        assert len(costs) == len(analyses) and all(a is b for a, b in zip(costs, analyses))
        grads = [i for i, (kind, _fs) in enumerate(calls) if kind == "gradient"]
        assert len(grads) == 3
        assert all(calls[i - 1][0] == "cost" and calls[i - 1][1] is calls[i][1] for i in grads)
        # the last gradient is at a re-evaluation of the failed search's first trial
        failed = calls[grads[1] + 1 : grads[2] - 1]
        assert len(failed) == 2
        assert all(np.array_equal(a, b) for a, b in zip(calls[grads[2]][1], failed[0][1]))
        assert_same_run(got, reference_solve(patches, [(6, 5)] * 3, params, cfg))

    def test_each_evaluation_keeps_its_own_analysis(self, monkeypatch):
        # A failed line search returns to its best trial, which need not be
        # the last point evaluated: a gradient taken after later evaluations
        # must still be the gradient at its own point.
        patches = phantom_patches((16, 16, 16), 50)
        params = LearningParams()
        captured = []
        monkeypatch.setattr(
            learn, "minimize_on_product",
            lambda evaluate, init, cfg: captured.append((evaluate, init)),
        )
        learn_operators(patches, [(6, 5)] * 3, params, SolverConfig(seed=3))
        ((evaluate, factors),) = captured
        direction = [np.ones_like(f) for f in factors]
        trials = [manifold.product_retract(factors, direction, t) for t in (0.2, 0.1, 0.05)]
        evaluations = [evaluate(point) for point in trials]
        for point, (cost, gradient) in reversed(list(zip(trials, evaluations))):
            assert cost == reference_objective.learning_cost(point, patches, params)
            expected = objective.learning_gradient(point, patches, params)
            assert all(np.array_equal(g, e) for g, e in zip(gradient(), expected, strict=True))

    def test_training_log_keeps_the_line_search_failure_fallback(self, monkeypatch):
        # The run above saves its best trial after the failed line search;
        # the log must end with that iterate, the one whose factors are saved.
        patches = phantom_patches((16, 16, 16), 300)
        fail_line_searches(monkeypatch)
        cfg = SolverConfig(max_iters=40, seed=2)
        _factors, report = learn_operators(patches, [(6, 5)] * 3, LearningParams(), cfg)
        assert report.termination == "line-search failure"
        log = report.training_log().splitlines()
        assert len(log) == len(report.costs) == 3
        assert [float(line.split()[3]) for line in log] == report.costs
        assert log[-1] == (
            f"iter 2 cost {report.costs[-1]!r} grad_norm {report.grad_norms[-1]!r} "
            f"step {report.step_sizes[-1]!r}"
        )


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

    @pytest.mark.parametrize("kind", ["directory", "missing file"])
    def test_path_that_is_not_a_file_rejected(self, tmp_path, kind):
        path = tmp_path / "ops"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ValueError, match=f"operator file {path} is missing or not a regular"):
            learn.load_operators(str(path))

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

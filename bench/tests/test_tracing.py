"""Tests of the benchmark's tracer, its instrumentation of sepop, and its arithmetic.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import types

import numpy as np
import pytest

import common
import instrument
import kernels
import reference
from tracing import Span, Tracer, self_seconds

pkg = common.import_sepop()


def spans_from(rows):
    """Build spans from (name, start, end, parent) rows."""
    out = []
    for name, start, end, parent in rows:
        span = Span(name, start, parent, 0)
        span.end = end
        out.append(span)
    return out


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = spans_from([
            ("a.top", 0, 100, None),
            ("b.child", 10, 30, 0),
            ("b.child", 40, 70, 0),
            ("c.grandchild", 45, 60, 2),
        ])
        assert [round(s * 1e9) for s in self_seconds(spans)] == [50, 20, 15, 15]

    def test_overlapping_children_count_their_union(self):
        spans = spans_from([("a.top", 0, 100, None), ("b.x", 10, 50, 0), ("b.y", 30, 60, 0)])
        assert round(self_seconds(spans)[0] * 1e9) == 50

    def test_self_times_sum_to_the_root(self):
        spans = spans_from([
            ("a.top", 0, 1000, None),
            ("b.x", 100, 400, 0),
            ("c.y", 150, 300, 1),
            ("b.z", 500, 900, 0),
        ])
        assert round(sum(self_seconds(spans)) * 1e9) == 1000


class TestQuantiles:
    def test_few_samples_report_the_maximum(self):
        assert instrument.quantiles([3.0, 1.0, 2.0]) == (2.0, 3.0, "max")

    def test_high_percentile_keeps_ten_samples_above(self):
        values = [float(v) for v in range(1, 101)]
        median, hi, label = instrument.quantiles(values)
        assert (median, hi, label) == (50.5, 90.0, "p90")
        assert instrument.quantiles([float(v) for v in range(1000)])[2] == "p99"


class TestWrapping:
    def test_return_values_and_exceptions_pass_through(self):
        error = pkg.objective.BarrierError("at the boundary")
        module = types.SimpleNamespace(ok=lambda x: [x], bad=None)

        def bad():
            raise error

        module.bad = bad
        tracer = Tracer()
        tracer.wrap(module, "ok", "m.ok")
        tracer.wrap(module, "bad", "m.bad")
        value = module.ok(7)
        assert value == [7]
        with pytest.raises(pkg.objective.BarrierError) as caught:
            module.bad()
        assert caught.value is error
        assert [(s.name, s.error) for s in tracer.spans] == [("m.ok", None), ("m.bad", "BarrierError")]
        tracer.uninstall()
        assert module.bad is bad

    def test_uninstall_restores_modules_and_classes(self):
        recon = pkg.reconstruct
        before = {
            "reconstruct": recon.reconstruct,
            "learning_cost": pkg.learn.learning_cost,
            "forward": recon.FourierMeasurement.__dict__["forward"],
        }
        tracer = Tracer()
        instrument.install(tracer, pkg)
        assert recon.reconstruct is not before["reconstruct"]
        assert pkg.learn.learning_cost is not before["learning_cost"]
        tracer.uninstall()
        assert recon.reconstruct is before["reconstruct"]
        assert pkg.learn.learning_cost is before["learning_cost"]
        assert recon.FourierMeasurement.__dict__["forward"] is before["forward"]
        assert "__init__" not in vars(recon.IdentityMeasurement)

    def test_traced_learning_is_bit_identical(self):
        rng = np.random.default_rng(0)
        patches = rng.standard_normal((60, 5, 5, 5))
        patches /= np.linalg.norm(patches.reshape(60, -1), axis=1)[:, None, None, None]
        shapes = [(6, 5)] * 3
        params = pkg.objective.LearningParams()
        cfg = pkg.learn.SolverConfig(max_iters=8, seed=2)
        plain_factors, plain = pkg.learn.learn_operators(patches, shapes, params, cfg)
        tracer = Tracer()
        seen = instrument.install(tracer, pkg)
        try:
            factors, report = pkg.learn.learn_operators(patches, shapes, params, cfg)
        finally:
            tracer.uninstall()
        assert report.costs == plain.costs and report.step_sizes == plain.step_sizes
        assert all(np.array_equal(a, b) for a, b in zip(factors, plain_factors))
        names = {s.name for s in tracer.spans}
        assert {"objective.learning_cost", "objective.learning_gradient",
                "objective.analyze_batch", "manifold.product_retract"} <= names
        assert seen.learn_iters[0] == report.iterations

    def test_denoise_counts(self, tmp_path):
        vol = pkg.volume.synth_phantom((12, 12, 8), seed=0)
        path = str(tmp_path / "v.vol")
        pkg.volume.write_volume(vol, path)
        argv = ["denoise", "--in", path, "--op", common.FIXTURE_OP, "--sigma", "15",
                "--max-iters", "3", "--ref", path, "--out", str(tmp_path / "o.vol")]
        tracer = Tracer()
        seen = instrument.install(tracer, pkg)
        try:
            assert pkg.cli.main(argv) == 0
        finally:
            tracer.uninstall()
        metrics, _notes = instrument.layer_metrics(tracer.spans, seen, 1)
        forwards = [s for s in tracer.spans if s.name == "reconstruct.IdentityMeasurement.forward"
                    and tracer.spans[s.parent].name == "reconstruct.reconstruct"]
        assert metrics["reconstruct.evals"][0] == len(forwards) > 0
        assert metrics["reconstruct.iters"][0] == 3
        assert metrics["cli.calls"][0] == 1
        assert metrics["reconstruct.coeff_mib"][0] == 8 * 8 * 4 * 216 * 8 / 2**20
        layer_self = sum(metrics[f"{m}.self_s"][0] for m in common.MODULES)
        assert layer_self == pytest.approx(metrics["cli.s"][0], rel=1e-9)


class TestKernelCounts:
    def test_learning_analysis_flops(self):
        counts = kernels.learning(2000, (5, 5, 5), [(6, 5)] * 3)
        assert counts["learn_analyze_sep_mflop"] == pytest.approx(2 * 2000 * (750 + 900 + 1080) / 1e6)
        assert counts["learn_analyze_dense_mflop"] == pytest.approx(2 * 2000 * 216 * 125 / 1e6)

    def test_recon_eval_scales_with_patch_count(self):
        small = kernels.recon_eval((32, 32, 8), (5, 5, 5), [(6, 5)] * 3)
        large = kernels.recon_eval((32, 32, 32), (5, 5, 5), [(6, 5)] * 3)
        ratio = (28 * 28 * 28) / (28 * 28 * 4)
        assert large["recon_eval_sep_mflop"] / small["recon_eval_sep_mflop"] == pytest.approx(ratio)
        assert large["recon_eval_dense_mflop"] / small["recon_eval_dense_mflop"] == pytest.approx(ratio)


class TestReferenceScaling:
    def test_each_command_is_divided_by_the_references_around_it(self):
        scaled = reference.scaled([2.0, 3.0], [1.0, 3.0, 1.0], nominal_s=0.5)
        assert scaled == pytest.approx([0.5 * 2.0 / 2.0, 0.5 * 3.0 / 2.0])

    def test_a_uniformly_slower_machine_reads_the_same(self):
        durations, refs = [1.2, 1.1, 1.3], [0.2, 0.25, 0.2, 0.22]
        slow = reference.scaled([1.4 * d for d in durations], [1.4 * r for r in refs], 0.2)
        assert slow == pytest.approx(reference.scaled(durations, refs, 0.2))

    def test_missing_reference_times_are_refused(self):
        with pytest.raises(ValueError):
            reference.scaled([1.0, 1.0], [0.2, 0.2], 0.2)

    def test_kernels_are_deterministic(self):
        for workload, dims in (("learn", (32, 32, 32)), ("cs", (32, 32, 8))):
            first, second = reference.Reference(workload, dims), reference.Reference(workload, dims)
            assert first.step() == second.step()


def test_fixture_validates(tmp_path, monkeypatch):
    factors = common.load_fixture(pkg)
    assert len(factors) == 3
    bad = tmp_path / "operator.txt"
    text = open(common.FIXTURE_OP, encoding="utf-8").read().replace("mode 0 6 5\n0.", "mode 0 6 5\n5.", 1)
    bad.write_text(text, encoding="utf-8")
    meta = tmp_path / "operator.json"
    meta.write_text('{"sha256": "%s"}' % common.sha256_file(str(bad)), encoding="utf-8")
    monkeypatch.setattr(common, "FIXTURE_OP", str(bad))
    monkeypatch.setattr(common, "FIXTURE_META", str(meta))
    with pytest.raises(common.SetupError, match="unit norm"):
        common.load_fixture(pkg)

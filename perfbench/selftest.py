"""The benchmark's own tests, on the `--smoke` sizes.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import PER_LAYER_UNITS, Span, Tracer, TraceError, layer_metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ALL_WORKLOADS = ("desk_pair", "paper_t96", "paper_t720")


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def smoke(workload, trace, seed=1):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        expected = {
            0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
            1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
        }
        self.assertEqual(expected[1], PER_LAYER_UNITS)
        for workload in ALL_WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = smoke(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected[trace])

    def test_counts_repeat_across_seeds(self):
        for workload in ALL_WORKLOADS:
            with self.subTest(workload=workload):
                a, b = (smoke(workload, 1, seed)["metrics"] for seed in (1, 2))
                for name in tracing.COUNT_METRICS:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)
                self.assertGreater(a["kernels.gram.calls"]["value"], 0)
                self.assertGreater(a["harness.steps"]["value"], 0)

    def test_alpha_zero_gram_work_is_counted(self):
        metrics = smoke("desk_pair", 1)["metrics"]
        self.assertGreater(metrics["kernels.gram.entries.alpha0"]["value"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "desk_pair", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class RenamedFunctions(unittest.TestCase):
    def test_missing_target_fails_and_restores(self):
        import kmbdf.harness

        original = kmbdf.harness.train
        targets = tracing.TARGETS + (("kmbdf.harness", "renamed_away", "harness.gone", None),)
        with self.assertRaisesRegex(TraceError, "kmbdf.harness.renamed_away"):
            with Tracer(targets).patched():
                pass
        self.assertIs(kmbdf.harness.train, original)

    def test_span_that_never_fires_fails(self):
        tracer = Tracer()
        with tracer.patched():
            import kmbdf.models

            model = kmbdf.models.init_forecaster(3, 2, 1)
            kmbdf.models.adam_init(model.params(), lr=1e-3)
        with self.assertRaisesRegex(TraceError, "kernels.gram_matrix"):
            tracer.check_expected(("kernels.gram_matrix",))


class HostCorrection(unittest.TestCase):
    def test_nominal_scales_by_local_probe_speed(self):
        host = HostSpeed("pairwise")
        ref = host.reference_s
        # A host at half speed for t < 10, then at full speed.
        host.at.extend(float(t) for t in range(20))
        host.probe_s.extend(2.0 * ref if t < 10 else ref for t in range(20))
        self.assertAlmostEqual(host.nominal(1.0, 3.0), 1.0)
        self.assertAlmostEqual(host.nominal(15.0, 17.0), 2.0)

    def test_work_clock_leaves_probes_out(self):
        host = HostSpeed("pairwise")
        before_wall, before_work = time.perf_counter(), host.now()
        for _ in range(5):
            host.tick(force=True)
        wall, work = time.perf_counter() - before_wall, host.now() - before_work
        self.assertEqual(len(host.probe_s), 5)
        self.assertLess(work, 0.1 * wall)

    def test_no_probe_means_wall_time(self):
        host = HostSpeed(None)
        host.tick(force=True)
        self.assertEqual(len(host.probe_s), 0)
        self.assertEqual(host.nominal(1.0, 3.5), 2.5)


def _span(name, start, end, parent=None, attrs=None):
    span = Span(name, start, parent, attrs)
    span.end = end
    if parent is not None:
        parent.child_s += end - start
    return span


class LayerMetrics(unittest.TestCase):
    def test_self_times_loop_and_eval(self):
        train = _span("harness.train", 0.0, 10.0)
        spans = [
            train,
            _span("data.build_dataset", 0.0, 1.0, train),
            _span("models.forward_batch", 2.0, 3.0, train),
            _span("models.adam_step", 3.5, 4.0, train),
        ]
        val = _span("harness.evaluate", 4.0, 5.0, train)
        test = _span("harness.evaluate", 6.0, 6.5, train)
        spans += [val, _span("models.forward_batch", 4.1, 4.6, val), test]
        mmd = _span("balancing.mmd_squared", 7.0, 9.0, train)
        spans += [mmd, _span("kernels.gram_matrix", 7.0, 8.5, mmd,
                             {"entries": 4, "flops": 24, "bytes": 96})]
        out = layer_metrics(spans)
        self.assertEqual(out["data.build_s"], 1.0)
        self.assertEqual(out["models.forward_s"], 1.0)
        self.assertEqual(out["models.adam_s"], 0.5)
        self.assertEqual(out["kernels.gram_s.eval"], 1.5)
        self.assertEqual(out["kernels.gram_s.train"], 0.0)
        self.assertEqual(out["balancing.mmd_s"], 0.5)
        # Loop from the first forecast (2.0) to the final evaluation (6.0),
        # minus forward, Adam and the validation pass inside it.
        self.assertEqual(out["harness.loop_self_s"], 4.0 - 1.0 - 0.5 - 1.0)
        # Validation pass plus everything from the final evaluation on.
        self.assertEqual(out["harness.eval_s"], 1.0 + 4.0)
        self.assertEqual((out["harness.steps"], out["harness.epochs"]), (1, 1))
        self.assertEqual(out["kernels.gram.entries"], 4)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark's own code; run from the repository root:

    python3 bench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
test_*.py).  The check and trace tests run a tiny `cdmonitor` sweep from
src/, a few seconds in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import SpanRecorder, SpanTable, instrument  # noqa: E402
from workloads import WORKLOADS, make_config, sample_args  # noqa: E402

TINY_CONFIG = {
    "dataset": "bs",
    "training": {"n": 1, "learning_rate": 0.01, "epochs": 100, "measure_every": 50},
    "num_runs": 2,
    "base_seed": 7,
}
SAMPLE = ["--count", "20", "--burn-in", "10", "--thin", "2", "--seed", "3"]


def run_child(workdir: Path, spans: str, cli_args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, str(BENCH / "child.py"), "run", str(workdir / "probes.json"), spans, *cli_args]
    subprocess.run(argv, check=True, env=env, capture_output=True)


class TinySweep(unittest.TestCase):
    """Traced train + sample on a 2-run bs config, shared by the tests below."""

    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        cls.dir = Path(cls._tmp.name)
        (cls.dir / "config.json").write_text(json.dumps(TINY_CONFIG))
        cls.out = cls.dir / "out"
        cls.samples = cls.dir / "samples.txt"
        run_child(cls.dir, str(cls.dir / "train.npz"), ["train", "--config", str(cls.dir / "config.json"), "--out", str(cls.out)])
        run_child(cls.dir, str(cls.dir / "sample.npz"), ["sample", "--params", str(cls.out / "params_run_00.txt"), "--out", str(cls.samples), *SAMPLE])
        cls.X = check.training_set("bs")

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def check_run(self, csv_path, k=0):
        return check.check_run(
            csv_path, self.out / f"params_run_{k:02d}.txt", seed=7 + k, epochs=100, measure_every=50, mean_h=False, X=self.X
        )

    def tampered(self, name: str, edit) -> Path:
        path = self.dir / f"tampered_{name}"
        path.write_text(edit((self.out / name).read_text() if name.endswith(".csv") else self.samples.read_text()))
        return path

    def test_untouched_outputs_pass(self):
        for k in range(2):
            self.assertEqual(self.check_run(self.out / f"run_{k:02d}.csv", k), [])
        self.assertEqual(check.check_samples(self.samples, 20, 16), [])

    def test_tampered_log_likelihood_fails(self):
        def bump_last_ll(text):
            lines = text.split("\n")
            cols = lines[-2].split(",")
            cols[2] = repr(float(cols[2]) * (1 + 1e-7))
            lines[-2] = ",".join(cols)
            return "\n".join(lines)

        self.assertTrue(self.check_run(self.tampered("run_00.csv", bump_last_ll)))

    def test_missing_grid_row_fails(self):
        path = self.tampered("run_00.csv", lambda t: "\n".join(t.split("\n")[:2] + t.split("\n")[3:]))
        self.assertTrue(self.check_run(path))

    def test_nonfinite_value_fails(self):
        path = self.tampered("run_00.csv", lambda t: t.replace(t.split("\n")[1].split(",")[3], "nan", 1))
        self.assertTrue(self.check_run(path))

    def test_truncated_sample_file_fails(self):
        lines = self.samples.read_text().split("\n")
        truncated = self.dir / "truncated.txt"
        truncated.write_text("\n".join(lines[:-3]) + "\n")
        self.assertTrue(check.check_samples(truncated, 20, 16))
        self.assertTrue(check.check_samples(self.dir / "absent.txt", 20, 16))

    def test_traced_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer_map = json.loads((BENCH / "layer_map.json").read_text())["metrics"]
        metrics = layer_metrics(
            SpanTable.load(self.dir / "train.npz"),
            SpanTable.load(self.dir / "sample.npz"),
            N=30, V=16, H=8, io_bytes=1, sample_rounds=10 + 20 * 2,
        )
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(sorted(names), sorted([*metrics, "trace.overhead_frac"]))
        self.assertEqual(sorted(names), sorted(layer_map))
        # CD-1: one Gibbs round plus the positive and negative phases.
        self.assertEqual(metrics["rbm.hidden_conditional_mean.calls_per_epoch"], 3)
        self.assertEqual(metrics["rbm.sample_bernoulli.calls_per_epoch"], 2)
        self.assertTrue(all(np.isfinite(v) and v > 0 for v in metrics.values()), metrics)


class SelfTime(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        #   a [0, 10]
        #   +- b [1, 4]
        #   |  +- c [2, 3]
        #   +- b [5, 6]
        #   +- c [7, 9]
        table = SpanTable(
            names=["x.a", "x.b", "y.c"],
            name=[0, 1, 2, 1, 2],
            start=[0.0, 1.0, 2.0, 5.0, 7.0],
            end=[10.0, 4.0, 3.0, 6.0, 9.0],
            parent=[-1, 0, 1, 0, 0],
        )
        np.testing.assert_allclose(table.self_time, [4.0, 2.0, 1.0, 1.0, 2.0])
        self.assertEqual(table.self_total("x.b"), 3.0)
        self.assertEqual(table.total("x.b"), 4.0)
        self.assertEqual(table.layer_self_total("x"), 7.0)
        self.assertEqual(table.within("x.b").tolist(), [False, False, True, False, False])
        self.assertEqual(table.count("nothing"), 0)

    def test_recorder_nests_and_round_trips(self):
        recorder = SpanRecorder()
        inner = recorder.wrap("m.inner", lambda: None)
        outer = recorder.wrap("m.outer", lambda: [inner(), inner()])
        outer()
        with tempfile.TemporaryDirectory() as tmp:
            recorder.save(Path(tmp) / "s.npz", import_s=0.5)
            table = SpanTable.load(Path(tmp) / "s.npz")
        self.assertEqual(table.names, ["m.inner", "m.outer"])
        self.assertEqual(table.parent.tolist(), [-1, 0, 0])
        self.assertEqual(table.scalars, {"import_s": 0.5})
        self.assertTrue((table.self_time >= 0).all())

    def test_instrument_replaces_names_in_importing_modules(self):
        import cdmonitor.experiment
        import cdmonitor.rbm
        import cdmonitor.training

        instrument(SpanRecorder())
        wrapped = cdmonitor.rbm.hidden_conditional_mean
        self.assertTrue(hasattr(wrapped, "__wrapped__"))
        self.assertIs(cdmonitor.training.hidden_conditional_mean, wrapped)
        self.assertIs(cdmonitor.experiment.hidden_conditional_mean, wrapped)
        self.assertTrue(hasattr(cdmonitor.experiment._measure, "__wrapped__"))


class Workloads(unittest.TestCase):
    def test_configs_are_a_pure_function_of_seed(self):
        for w in WORKLOADS.values():
            self.assertEqual(make_config(w, 5, ROOT), make_config(w, 5, ROOT))
            self.assertEqual(sample_args(w, 5), sample_args(w, 5))
            a, b = make_config(w, 5, ROOT), make_config(w, 6, ROOT)
            self.assertNotEqual(a["base_seed"], b["base_seed"])
            self.assertEqual({**a, "base_seed": 0}, {**b, "base_seed": 0})
            self.assertNotEqual(sample_args(w, 5), sample_args(w, 6))

    def test_workloads_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()

"""Benchmark of the `cdmonitor` command line, as described by BENCHMARK.json.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it drives ``src/cdmonitor`` there (not an
installed copy) and exits with code 2 if that tree is missing.

Closed loop, one command at a time from this process: each cycle runs
`cdmonitor train` on a config generated from a shipped preset and the
seed, then `cdmonitor sample` on the first run's parameters, and checks
every output (see check.py).  Cycles repeat until S seconds have passed;
each end-to-end figure is the median over cycles.

--trace 0 first times a few fresh set-up processes (import cdmonitor with
numpy already loaded, resolve the config, build the dataset) and then
reports the end-to-end metrics.
--trace 1 alternates an untraced cycle with a traced one (train at
--jobs 1, every layer function wrapped by spans.py) and reports the
per-layer metrics of layers.py plus the tracing overhead.

Timing.  On a shared virtual machine a process runs at very different
speeds from one second to the next: on a shared 2-vCPU Xeon VM the same
command's wall time swung by 1.5x within a minute, far more than the
changes the benchmark must resolve.  So every timed process, and every
pool worker it forks, samples the CPU's speed while it runs (child.py times
a fixed numpy snippet every 20 ms from a timer signal, at SCHED_FIFO
priority and with a warm cache), and its busy time (from the start of
probing to the end of the command, less the probes) is rescaled to a CPU
on which that snippet takes PROBE_REF_S:

    time = busy time * mean(PROBE_REF_S / probe)

Rates are work divided by that time.  Probing from outside the command,
right before and after it, was tried and tracked the swings too poorly:
the spread between runs stayed above 0.14 on bs_sweep_sample.  The report
keeps the same figures from unscaled busy time and the speed factor of
every process beside the rescaled ones.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (training runs plus sample calls) and
``metrics``; a fuller report, with the machine record, every sample behind
each figure, the same figures from unscaled busy times, speed factors and
every output's sha256, goes to .bench_run/<workload>-s<seed>-t<trace>/report.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import check
from layers import layer_metrics
from spans import SpanTable
from workloads import NUM_RUNS, SAMPLE_COUNT, SAMPLE_ROUNDS, WORKLOADS, make_config, sample_args

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 9
COMMAND_TIMEOUT_S = 120.0
# Duration of child.probe on the reference CPU, chosen so that rescaled
# times are close to wall times on a 2-vCPU Xeon VM.
PROBE_REF_S = 100e-6


class Proc(NamedTuple):
    """One finished process: its busy time and probe durations (see child.py),
    exit code and peak RSS."""

    busy_s: float
    rc: int
    rss_kib: int
    probe_s: tuple[float, ...]

    @property
    def speed(self) -> float:
        """Mean speed of the process and its pool workers relative to the reference CPU.

        Probes are evenly spaced in time, so this is the mean of PROBE_REF_S / probe.
        """
        if not self.probe_s:
            return math.nan
        return statistics.fmean(PROBE_REF_S / d for d in self.probe_s)

    @property
    def seconds(self) -> float:
        """Busy time rescaled to the reference CPU."""
        return self.busy_s * self.speed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", "?"),
        "blas_threads": workload.blas_threads,
        "jobs": workload.jobs,
        "probe_ref_s": PROBE_REF_S,
    }


def spread(values: list[float]) -> dict:
    """Median, extremes and sample count of one figure, with every value."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


class Bench:
    def __init__(self, root: Path, work: Path, workload, seed: int) -> None:
        self.work, self.w, self.seed = work, workload, seed
        self.config = make_config(workload, seed, root)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="ascii")
        threads = str(workload.blas_threads)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        self.X = check.training_set(self.config["dataset"])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sha256: dict[str, str] = {}
        self.probe_fifo = None

    def spawn(self, child_args: list[str], name: str) -> Proc:
        """Run child.py to completion and account for it.

        wait4 reports the largest resident set of the process and of every
        descendant it waited for (pool workers).
        """
        report = self.work / f"{name}.json"
        for old in self.work.glob(f"{report.name}*"):
            old.unlink()
        argv = [sys.executable, str(BENCH_DIR / "child.py"), child_args[0], str(report), *child_args[1:]]
        with open(self.work / f"{name}.log", "wb") as log:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, start_new_session=True
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not report.is_file():
            return Proc(math.nan, proc.returncode, usage.ru_maxrss, ())
        main = json.loads(report.read_text())
        workers = [json.loads(r.read_text()) for r in self.work.glob(f"{report.name}.*")]
        self.probe_fifo = main["fifo"]
        probes = tuple(d for r in (main, *workers) for d in r["probe_s"])
        return Proc(main["busy_s"], proc.returncode, usage.ru_maxrss, probes)

    def setup(self) -> list[Proc]:
        procs = []
        for k in range(SETUP_PROBES + 1):  # the first one warms the file cache
            p = self.spawn(["setup", str(self.config_path)], "setup")
            if p.rc != 0:
                raise RuntimeError(f"set-up process exited with {p.rc}; see {self.work / 'setup.log'}")
            if k:
                procs.append(p)
        return procs

    def cycle(self, k: int, traced: bool, jobs: int) -> dict:
        """One train command and one sample command, both checked."""
        out = self.work / f"train{k}"
        samples = self.work / f"samples{k}.txt"
        train = ["train", "--config", str(self.config_path), "--out", str(out), "--jobs", str(jobs)]
        sample = ["sample", "--params", str(out / "params_run_00.txt"), "--out", str(samples)]
        sample += sample_args(self.w, self.seed)

        def spans(name):
            return str(self.work / f"{name}_spans.npz") if traced else "-"

        train_p = self.spawn(["run", spans("train"), *train], "train")
        self.check_train(out, train_p.rc)
        sample_p = self.spawn(["run", spans("sample"), *sample], "sample")
        self.check_sample(samples, sample_p.rc)
        resolved = out / "config_resolved.json"
        outputs = sorted([*out.glob("*"), *samples.parent.glob(samples.name)])
        self.sha256 = {p.name: check.sha256(p) for p in outputs}
        result = {
            "train": train_p,
            "sample": sample_p,
            "io_bytes": sum(p.stat().st_size for p in out.glob("*")),
            "hidden": json.loads(resolved.read_text(encoding="ascii"))["hidden"] if resolved.is_file() else None,
        }
        shutil.rmtree(out, ignore_errors=True)
        samples.unlink(missing_ok=True)
        return result

    def check_train(self, out: Path, rc: int) -> None:
        tc = self.config["training"]
        self.attempted += NUM_RUNS
        for k in range(NUM_RUNS):
            problems = check.check_run(
                out / f"run_{k:02d}.csv",
                out / f"params_run_{k:02d}.txt",
                seed=self.config["base_seed"] + k,
                epochs=tc["epochs"],
                measure_every=tc["measure_every"],
                mean_h="complement_mean_h" in self.config.get("variants_enabled", ()),
                X=self.X,
            )
            if rc != 0 and not problems:
                problems = [f"train exited with {rc}"]
            if problems:
                self.failed += 1
                self.problems += problems

    def check_sample(self, path: Path, rc: int) -> None:
        self.attempted += 1
        problems = check.check_samples(path, SAMPLE_COUNT, self.X.shape[1])
        if rc != 0:
            problems.append(f"sample exited with {rc}")
        if problems:
            self.failed += 1
            self.problems += problems

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        setup = self.setup()
        cycles = []
        t0 = time.perf_counter()
        while not cycles or time.perf_counter() - t0 < seconds:
            cycles.append(self.cycle(len(cycles), traced=False, jobs=self.w.jobs))
        epochs = NUM_RUNS * self.w.epochs
        figures = {
            "run_epochs_per_s": [epochs / c["train"].seconds for c in cycles],
            "sample_rounds_per_s": [SAMPLE_ROUNDS / c["sample"].seconds for c in cycles],
            "peak_rss_mb": [max(c["train"].rss_kib, c["sample"].rss_kib) / 1024 for c in cycles],
            "setup_s": [p.seconds for p in setup],
        }
        detail = {k: spread(v) for k, v in figures.items()}
        # The same figures from busy time alone, to compare with the rescaled ones.
        detail["unscaled"] = {
            "run_epochs_per_s": spread([epochs / c["train"].busy_s for c in cycles]),
            "sample_rounds_per_s": spread([SAMPLE_ROUNDS / c["sample"].busy_s for c in cycles]),
            "setup_s": spread([p.busy_s for p in setup]),
        }
        detail["probe_speed"] = {
            "train": spread([c["train"].speed for c in cycles]),
            "sample": spread([c["sample"].speed for c in cycles]),
            "setup": spread([p.speed for p in setup]),
        }
        return {k: statistics.median(v) for k, v in figures.items()}, detail

    def traced(self, seconds: float) -> tuple[dict, dict]:
        plain, traced, per_layer = [], [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            # Both sides at --jobs 1, so the difference is the tracing alone.
            plain.append(self.cycle(2 * len(traced), traced=False, jobs=1))
            c = self.cycle(2 * len(traced) + 1, traced=True, jobs=1)
            traced.append(c)
            per_layer.append(
                layer_metrics(
                    SpanTable.load(self.work / "train_spans.npz", c["train"].speed),
                    SpanTable.load(self.work / "sample_spans.npz", c["sample"].speed),
                    N=self.X.shape[0],
                    V=self.X.shape[1],
                    H=c["hidden"],
                    io_bytes=c["io_bytes"],
                    sample_rounds=SAMPLE_ROUNDS,
                )
            )

        def cycle_s(c):
            return c["train"].seconds + c["sample"].seconds

        values = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
        values["trace.overhead_frac"] = (
            statistics.median(map(cycle_s, traced)) / statistics.median(map(cycle_s, plain)) - 1.0
        )
        detail = {name: spread([m[name] for m in per_layer]) for name in per_layer[0]}
        detail["untraced_cycle_s"] = spread([cycle_s(c) for c in plain])
        detail["traced_cycle_s"] = spread([cycle_s(c) for c in traced])
        return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cdmonitor" / "cli.py").is_file():
        print(f"error: no src/cdmonitor under {root}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    work = root / ".bench_run" / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, work, workload, args.seed)
    values, detail = bench.traced(args.seconds) if args.trace else bench.end_to_end(args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    nonfinite = [m["name"] for m in wanted if not math.isfinite(values[m["name"]])]
    bench.problems += [f"{name} is not finite" for name in nonfinite]
    metrics = {
        m["name"]: {"value": values[m["name"]] if m["name"] not in nonfinite else 0.0, "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {**environment(workload), "probe_sched_fifo": bench.probe_fifo},
        "config": bench.config,
        "failed_frac": bench.failed / bench.attempted,
        "problems": bench.problems[:50],
        "figures": detail,
        "output_sha256": bench.sha256,
        "result": result,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac = {report['failed_frac']:.6g} ratio ({bench.failed}/{bench.attempted})")
    for problem in bench.problems[:10]:
        print(f"problem: {problem}")
    print(f"report: {work / 'report.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The process the benchmark starts for every timed command.

    python3 bench/child.py setup REPORT CONFIG
        import cdmonitor, resolve CONFIG and build its dataset: one set-up.
    python3 bench/child.py run REPORT SPANS CLI_ARGS...
        run `cdmonitor CLI_ARGS...` in this process, exactly as the console
        script would.  Unless SPANS is "-", every layer function is wrapped
        by the span recorder first and the spans are written to SPANS.

While it runs, a timer signal interrupts the process every PROBE_PERIOD_S
to time a fixed snippet of small numpy calls (``probe``).  The snippet's
durations sample how fast this CPU is running at that moment, which the
benchmark uses to cancel the speed swings of a shared machine (see
run.py).  They go to REPORT as JSON, with busy_s: the time from the start
of probing (numpy is loaded, cdmonitor is not yet) to the end of the
command, less the time the probes took.  That is the interval the probes
cover, so it is the one the benchmark times.
Processes that multiprocessing forks (the pool workers of ``--jobs``) are
probed the same way and write REPORT.<pid>.

Two things keep the program's own behaviour out of those samples.  The
handler raises the thread to SCHED_FIFO while it probes, so pool workers
and BLAS threads of the program cannot crowd it off the CPU; and it runs
the snippet twice and times only the second run, so the snippet finds its
code and data in cache whatever the program left there.  The probe has its
own arrays and random generator, and starts before cdmonitor is imported.
cdmonitor must be on PYTHONPATH.
"""

import json
import multiprocessing.util
import os
import signal
import sys
import time

import numpy as np

PROBE_PERIOD_S = 0.02


_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((10, 19))
_X = (_RNG.random(19) < 0.5).astype(np.float64)


def probe() -> float:
    """Seconds for a fixed Gibbs-like loop of small numpy calls (about 0.1 ms)."""
    t0 = time.perf_counter()
    x = _X
    for _ in range(6):
        h = (_RNG.random(10) < 1.0 / (1.0 + np.exp(-(_W @ x)))).astype(np.float64)
        x = (_RNG.random(19) < 1.0 / (1.0 + np.exp(-(h @ _W)))).astype(np.float64)
    return time.perf_counter() - t0


def _fifo_permitted() -> bool:
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except (AttributeError, PermissionError):
        return False
    os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
    return True


class SpeedProbe:
    """Times ``probe`` from a SIGALRM handler between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        self.fifo = _fifo_permitted()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        if self.fifo:
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        try:
            probe()
            self.samples.append(probe())
        finally:
            if self.fifo:
                os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
            self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self.t0 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self, report: str) -> None:
        """Write the probe durations and busy_s, the time since start() outside the handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        busy_s = time.perf_counter() - self.t0 - self.handler_s
        with open(report, "w", encoding="ascii") as fh:
            json.dump({"probe_s": self.samples, "busy_s": busy_s, "fifo": self.fifo}, fh)


def probe_pool_workers(parent: SpeedProbe, report: str) -> None:
    """Give every process that multiprocessing forks its own SpeedProbe.

    Timers are not inherited across fork, so a pool worker would otherwise
    go unprobed.  Each worker writes REPORT.<pid> when it exits.
    """

    def start_in_worker(_parent) -> None:
        worker = SpeedProbe()
        worker.start()
        multiprocessing.util.Finalize(None, worker.stop, args=(f"{report}.{os.getpid()}",), exitpriority=100)

    multiprocessing.util.register_after_fork(parent, start_in_worker)


def setup(config_path: str) -> int:
    from cdmonitor.cli import load_config
    from cdmonitor.experiment import build_dataset

    build_dataset(load_config(config_path))
    return 0


def run(spans_path: str, cli_args: list[str]) -> int:
    t0 = time.perf_counter()
    import cdmonitor.cli

    import_s = time.perf_counter() - t0
    if spans_path == "-":
        return cdmonitor.cli.main(cli_args)
    from spans import SpanRecorder, instrument

    recorder = SpanRecorder()
    instrument(recorder)
    try:
        return cdmonitor.cli.main(cli_args)
    finally:
        recorder.save(spans_path, import_s=import_s)


if __name__ == "__main__":
    mode, report, *rest = sys.argv[1:]
    speed = SpeedProbe()
    probe_pool_workers(speed, report)
    speed.start()
    try:
        rc = setup(*rest) if mode == "setup" else run(rest[0], rest[1:])
    finally:
        speed.stop(report)
    sys.exit(rc)

"""Multi-seed training sweeps with metric snapshots, averaging, peak
detection, sample generation, and the CSV/params file formats.

A sweep runs ``num_runs`` independent trainings from seeds
``base_seed + k``.  Each run owns three decoupled RNG substreams (weight
initialization, training chains, measurement probes), so the parameter
trajectory is unaffected by how often metrics are measured, and a run is a
pure function of (config, run index).  Sweeps are therefore byte-identical
across repeats and across worker counts.
"""

from __future__ import annotations

import dataclasses
import logging
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .criteria import MetricsRecord, XiVariant, log_partition, mean_reconstruction_log_prob
from .datasets import Dataset, generate_bars_and_stripes, generate_labeled_shifter
from .rbm import (
    NonFiniteParameterError,
    RbmParams,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    run_gibbs_chain,
    sample_bernoulli,
    visible_conditional_mean,
)
from .training import RunBatch, TrainingConfig, init_params, train_epoch

logger = logging.getLogger(__name__)


class _Layouts(dict):
    """(generator, hidden units, desk-scale epochs) per dataset; the data fix
    the visible units.  Indexing it is the one check of a dataset name."""

    def __missing__(self, name):
        raise ValueError(f"dataset must be one of {sorted(self)}, got {name!r}")


DATASET_LAYOUTS = _Layouts(bs=(generate_bars_and_stripes, 8, 10000), lse=(generate_labeled_shifter, 10, 20000))

# Centered moving-average width used for reported peaks; raw argmax is
# reported alongside.
SMOOTH_WINDOW = 5

DEFAULT_VARIANTS = (XiVariant.RANDOM_HIDDEN, XiVariant.COMPLEMENT_H1)

# Standard deviation of every run's initial Gaussian weights.
INIT_WEIGHT_STD = 0.01


class ExperimentError(RuntimeError):
    """A sweep-level failure (bad run collection, mismatched grids, ...)."""


class WorkerLostError(ExperimentError):
    """A worker process of a sweep's pool ended before returning its results."""


class ParamsFormatError(ValueError):
    """A parameter file does not conform to the text format."""


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a sweep."""

    dataset: str
    hidden: int
    training: TrainingConfig
    num_runs: int = 10
    base_seed: int = 20260401
    variants_enabled: tuple[XiVariant, ...] = DEFAULT_VARIANTS

    def __post_init__(self) -> None:
        DATASET_LAYOUTS[self.dataset]  # raises for an unknown name
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.num_runs < 1:
            raise ValueError(f"num_runs must be >= 1, got {self.num_runs}")
        if not (isinstance(self.base_seed, int) and 0 <= self.base_seed < 2**64):
            raise ValueError(f"base_seed must be an integer in [0, 2^64), got {self.base_seed!r}")
        self.variants_enabled = tuple(self.variants_enabled)
        for required in DEFAULT_VARIANTS:
            if required not in self.variants_enabled:
                raise ValueError(f"variants_enabled must include {required.value!r}")

    @property
    def mean_h_enabled(self) -> bool:
        return XiVariant.COMPLEMENT_MEAN_H in self.variants_enabled


def default_config(dataset: str, **overrides) -> ExperimentConfig:
    """Desk-scale config for a dataset; keyword overrides are applied on top."""
    _, hidden, epochs = DATASET_LAYOUTS[dataset]
    return dataclasses.replace(ExperimentConfig(dataset, hidden, TrainingConfig(epochs=epochs)), **overrides)


@dataclass
class RunResult:
    """Outcome of one seeded training run."""

    seed: int
    series: list[MetricsRecord]
    final_params: RbmParams | None
    aborted: bool = False
    abort_reason: str = ""


@dataclass
class PeakReport:
    """Location of a metric's global maximum over a measurement series."""

    epoch_of_max: int
    max_value: float


def build_dataset(config: ExperimentConfig) -> Dataset:
    return DATASET_LAYOUTS[config.dataset][0]()


def _run_rngs(base_seed: int, run_index: int):
    """Independent substreams for (init, training, measurement)."""
    root = np.random.SeedSequence(base_seed + run_index)
    return tuple(np.random.default_rng(s) for s in root.spawn(3))


def _measure(
    batch: RunBatch,
    config: ExperimentConfig,
    rngs: Sequence[np.random.Generator],
    epoch: int,
) -> list[MetricsRecord]:
    """Snapshot all monitored quantities of every run in ``batch`` at its
    current parameters, on its training matrix X; run r draws its probes
    from ``rngs[r]``.  Returns each run's record.

    Probes are rebuilt from a fresh Gibbs chain every time: the diagnostic
    is a function of the evolving model, so nothing is cached across
    epochs.  Each snapshot draws a CD-n chain from X and then the
    random-hidden uniforms, in that order, to keep the measurement stream
    reproducible; both layers' uniforms go to units unit by unit, as an
    epoch's do (see ``training.train_epoch``).  Of the chain only round 1
    is read (its hidden mean and hidden sample), so only that much is
    computed: each run draws round 1's N*H hidden uniforms, skips with
    ``bit_generator.advance`` the N*V visible uniforms of round 1 and the
    N*(H+V) of each later round, and draws the probe uniforms, which leaves
    each generator where drawing the whole chain would (this needs a bit
    generator with ``advance``, such as numpy's default PCG64).  The
    round-1 uniforms become draws in one ``sample_bernoulli`` call.

    X's hidden pre-activation is computed once: round 1's hidden mean and
    the data marginal both read it.  That mean, E[h|X], is written into
    ``batch.h_data`` and marked current, so the next ``train_epoch`` takes
    it as its positive phase, bit for bit what it would compute.  Round 1's
    draws go to ``batch.h_model``, every probe h_s to ``batch.hidden`` =
    [1; h_s^T] and its reconstruction to ``batch.visible`` = [E[x|h_s]^T;
    1], ones rows kept.  Each ratio diagnostic is the sum over samples of
    log p~(x_n) - log p~(y_n), not the difference of the two totals, most
    of which would cancel.  The snapshot enters ``np.errstate(over="ignore")``
    once, around all of its calls (see ``rbm``).

    The runs are measured as one stacked program on (R, ·, N) arrays, read
    from the batch's parameters in place; every per-run value has the bits
    the run's snapshot has alone.  Every other block-sized temporary comes
    from ``batch.work``, so a batch's snapshots after its first allocate
    no block; the marginals and sums come back as arrays of their own.
    """
    count = batch.X.shape[0]
    h1, probe, Y, work = batch.h_model, batch.hidden, batch.visible, batch.work
    skipped = config.training.n * batch.uniforms.shape[-1] - h1[0].size
    for rng, u, u_probe in zip(rngs, h1, probe[:, 1:], strict=True):
        rng.random(out=u)
        rng.bit_generator.advance(skipped)
        rng.random(out=u_probe)
    pre = work("measure.pre", h1.shape)

    def probe_total(complement_of=None) -> np.ndarray:
        # the probe block's ratio total, after writing 1 - complement_of into its rows 1: if given
        if complement_of is not None:
            np.subtract(1.0, complement_of, out=probe[:, 1:])
        visible_conditional_mean(batch, probe, out=Y[:, :-1])
        return np.sum(lum_x - log_unnormalized_marginal(batch, Y, work), axis=-1)

    with np.errstate(over="ignore"):
        h1_mean = hidden_conditional_mean(batch, batch.XT1, out=batch.h_data[:, 1:], pre=pre)
        batch.h_data_current = True
        sample_bernoulli(h1_mean, h1)
        lum_x = log_unnormalized_marginal(batch, batch.XT1, work, pre)
        log_likelihood = np.sum(lum_x, axis=-1) - count * log_partition(batch, work=work)
        columns = {
            "log_likelihood": log_likelihood,
            "log_xi_random": probe_total(),
            "log_xi_complement": probe_total(h1),
            "log_recon_mean": mean_reconstruction_log_prob(batch, batch.signs, batch.h_data, work),
            "log_likelihood_mean": log_likelihood / count,
        }
        if config.mean_h_enabled:
            columns["log_xi_complement_mean_h"] = probe_total(h1_mean)
    rows = zip(*(values.tolist() for values in columns.values()))
    return [MetricsRecord(epoch=epoch, **dict(zip(columns, row))) for row in rows]


def run_single(config: ExperimentConfig, run_indices: Sequence[int], X: np.ndarray) -> list[RunResult]:
    """Runs ``run_indices`` of a sweep, trained together as one RunBatch on
    the training matrix X of ``config``'s dataset: init, train, snapshot at
    epoch 0 and every measure_every epochs (after the update).  Returns
    their results in the order given.

    Each run's result is the one it has trained alone: the batch trains
    and snapshots its runs as one stacked program.  A run whose update goes
    non-finite aborts at that epoch and leaves the batch; the others go
    on.  (The name predates batching; the benchmark's trace reads it.)
    """
    tc = config.training
    streams = [_run_rngs(config.base_seed, k) for k in run_indices]
    batch = RunBatch(
        [init_params(X.shape[1], config.hidden, init, INIT_WEIGHT_STD) for init, _, _ in streams],
        X,
        [train for _, train, _ in streams],
    )
    results = [RunResult(seed=config.base_seed + k, series=[], final_params=None) for k in run_indices]
    live = list(range(len(run_indices)))  # the batch's runs, as positions in run_indices

    def snapshot(epoch: int) -> None:
        measured = _measure(batch, config, [streams[i][2] for i in live], epoch)
        for i, record in zip(live, measured):
            results[i].series.append(record)

    snapshot(0)
    for epoch in range(1, tc.epochs + 1):
        try:
            train_epoch(batch, tc)
        except NonFiniteParameterError as exc:
            for r in exc.runs:
                result = results[live[r]]
                logger.warning(
                    "run %d (seed %d) aborted at epoch %d: %s", run_indices[live[r]], result.seed, epoch, exc
                )
                result.aborted, result.abort_reason = True, f"epoch {epoch}: {exc}"
            keep = [r for r in range(len(live)) if r not in exc.runs]
            live = [live[r] for r in keep]
            if not live:
                break
            batch = batch.select(keep)
        if epoch % tc.measure_every == 0:
            snapshot(epoch)
    for r, i in enumerate(live):
        results[i].final_params = batch.params(r)
    return results


# A RunBatch stacks max(1, BATCH_SAMPLES // N) runs of an N-sample training
# set: 14 bs runs (30 samples), while an lse run (768 samples) trains
# alone, since stacking lse runs added memory and no steady speed.
BATCH_SAMPLES = 448


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> Iterator[RunResult]:
    """Execute all runs of a sweep, yielding their results in run-index order.

    The runs are split into ``jobs`` contiguous groups, each cut into
    RunBatches sized by BATCH_SAMPLES, and ``run_single`` runs each batch:
    in this process at one worker, in a process pool otherwise.  The pool
    stays: it is lse's only parallelism, and on two cores it shortens a
    long bs sweep too (README "Performance").  The pool is handed one
    batch per worker, and the next batch as each batch's results are
    yielded, so no more batches are in it than it has workers and none
    waits in its queue, where a shutdown cannot cancel it: closing the
    iterator early waits only for the batches running then.  The pool is
    shut down on every way out; a worker that ends abruptly breaks it and
    raises WorkerLostError, naming the runs in the pool then.  The workers
    ignore SIGINT, so a Ctrl-C is one KeyboardInterrupt in this process,
    which ends the workers before it propagates.  A run's
    result does not depend on its batch or worker, so ``jobs`` changes no
    output.
    """
    X = build_dataset(config).matrix()
    size = max(1, BATCH_SAMPLES // len(X))
    runs, workers = config.num_runs, max(1, min(jobs, config.num_runs))
    groups = [range(w * runs // workers, (w + 1) * runs // workers) for w in range(workers)]
    batches = [group[start : start + size] for group in groups for start in range(0, len(group), size)]
    if workers == 1:
        for batch in batches:
            yield from run_single(config, batch, X)
        return
    import multiprocessing
    import signal
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor  # costly to import; only sweeps use it

    pool = ProcessPoolExecutor(workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    running = []  # (batch, future) of each batch in the pool, in order
    try:
        for k, batch in enumerate(batches):
            running.append((batch, pool.submit(run_single, config, batch, X)))
            if k + 1 >= workers:
                yield from running[0][1].result()
                running.pop(0)
        for _, future in running:
            yield from future.result()
    except BrokenExecutor:
        lost = [r for batch, _ in running for r in batch]
        raise WorkerLostError(f"a worker process ended abruptly while the pool held runs {lost}") from None
    except KeyboardInterrupt:
        for worker in multiprocessing.active_children():  # so the shutdown waits for no batch
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def average_runs(results: list[RunResult]) -> list[MetricsRecord]:
    """Per-epoch arithmetic mean of each metric across completed runs."""
    completed = [r for r in results if not r.aborted]
    if not completed:
        raise ExperimentError("no completed runs to average")
    if len(completed) < len(results):
        logger.warning(
            "excluding %d aborted run(s) from averages", len(results) - len(completed)
        )
    grids = {tuple(rec.epoch for rec in r.series) for r in completed}
    if len(grids) != 1:
        raise ExperimentError("runs have mismatched measurement epoch grids")
    epochs = grids.pop()

    names = _columns([rec for r in completed for rec in r.series])[1:]
    averaged = []
    for i, epoch in enumerate(epochs):
        rows = [r.series[i] for r in completed]
        means = {name: float(np.mean([getattr(rec, name) for rec in rows])) for name in names}
        averaged.append(MetricsRecord(epoch=epoch, **means))
    return averaged


def smooth_series(values, window: int) -> np.ndarray:
    """Centered moving average, truncated at the edges; window 1 copies, but -0.0 becomes 0.0."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    v = np.asarray(values, dtype=np.float64)
    radius = window // 2
    out = np.empty_like(v)
    for i in range(v.size):
        out[i] = v[max(0, i - radius) : i + radius + 1].mean()
    return out


def detect_peak(series: list[MetricsRecord], metric: str, window: int = 1) -> PeakReport:
    """Epoch of the global maximum of a metric, ties broken earliest.

    ``window`` > 1 applies a centered moving average before the argmax.
    """
    if len(series) < 3:
        raise ValueError(f"need at least 3 measurements, got {len(series)}")
    values = np.array([getattr(rec, metric) for rec in series], dtype=np.float64)
    smoothed = smooth_series(values, window)
    i = int(np.argmax(smoothed))
    return PeakReport(epoch_of_max=series[i].epoch, max_value=float(smoothed[i]))


# Rounds of the sampler's chain run per run_gibbs_chain call: a segment
# holds its float uniforms (49 KB on bs, 59 KB on lse) and bool draws (5 KB).
_SEGMENT_ROUNDS = 256


def generate_samples(
    params: RbmParams,
    count: int,
    burn_in: int,
    thin: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` visible samples from one Gibbs chain.

    The chain starts from a uniformly random visible state, discards
    ``burn_in`` rounds, then emits every ``thin``-th visible sample.  It runs
    in segments of ``_SEGMENT_ROUNDS`` rounds, burn-in included, each one
    ``run_gibbs_chain`` call that draws its rounds' uniforms at once.  The
    segments share that function's two caches of conditional means, so
    each stored state's mean is computed once per call.  The samples are
    those of one long chain that computes every mean, bit for bit, while
    one segment is held at a time, whatever the burn-in.  Returns a
    (count, V) float matrix of 0s and 1s, cast from the chain's bool draws
    as they are copied in.

    On a well-trained model the chain mixes slowly, so its thinned draws
    are correlated: on bs run 0 at epoch 9700, at burn-in 1000 and thin
    10, the between-chain standard error of the share of draws in the
    training set was 5 times the binomial one.  Pool such rates over
    chains of several seeds.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    x = np.ones(params.num_visible + 1, dtype=bool)
    sample_bernoulli(0.5, rng.random(params.num_visible), out=x[:-1])
    samples = np.empty((count, params.num_visible))
    total = burn_in + count * thin
    done = emitted = 0  # rounds run and samples emitted so far
    means, hidden_means = {}, {}  # E[x|h] by hidden draw and E[h|x] by visible one, for every segment
    while done < total:
        rounds = min(_SEGMENT_ROUNDS, total - done)
        visibles = run_gibbs_chain(params, x, rounds, rng, means, hidden_means)
        # the next sample is the visible draw of round burn_in + (emitted + 1) * thin
        picked = visibles[burn_in + (emitted + 1) * thin - 1 - done :: thin]
        samples[emitted : emitted + len(picked)] = picked[:, :-1]
        emitted += len(picked)
        done += rounds
        x = visibles[-1].copy()
        del visibles, picked  # free this segment before the next one is drawn
    return samples


# ---------------------------------------------------------------------------
# file formats: metric CSVs, peak reports, parameter dumps
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return str(x) if isinstance(x, int) else format(x, ".17g")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _columns(records: list[MetricsRecord]) -> list[str]:
    """MetricsRecord fields in order; an optional field only when every record sets it."""
    return [
        f.name
        for f in dataclasses.fields(MetricsRecord)
        if f.default is dataclasses.MISSING
        or (records and all(getattr(rec, f.name) is not None for rec in records))
    ]


def _splice(items: list, at: int, item) -> list:
    """``items`` with ``item`` inserted at ``at``; -1 appends."""
    return items[:at] + [item] + items[at:] if at >= 0 else items + [item]


def _write_csv(path, records: list[MetricsRecord], key: str, value: int, at: int) -> None:
    """One row per record, with the constant column ``key`` = ``value`` at ``at``."""
    names = _columns(records)
    lines = [",".join(_splice(names, at, key))]
    for rec in records:
        row = [_fmt(getattr(rec, n)) for n in names]
        lines.append(",".join(_splice(row, at, str(value))))
    _write_text(path, "\n".join(lines) + "\n")


def write_run_csv(path, result: RunResult) -> None:
    """Per-run CSV, one row per measurement epoch, 17 significant digits."""
    _write_csv(path, result.series, "seed", result.seed, at=1)


def write_averaged_csv(path, records: list[MetricsRecord], n_runs: int) -> None:
    """Averaged CSV: run columns minus seed, plus the run count."""
    _write_csv(path, records, "n_runs", n_runs, at=-1)


def peak_report_text(records: list[MetricsRecord]) -> str:
    """key=value blocks for every monitored metric: smoothed peak plus raw argmax."""
    # log_likelihood_mean is log_likelihood / N, so it peaks with it.
    metrics = [m for m in _columns(records)[1:] if m != "log_likelihood_mean"]
    blocks = []
    for metric in metrics:
        smoothed = detect_peak(records, metric, window=SMOOTH_WINDOW)
        raw = detect_peak(records, metric, window=1)
        blocks.append(
            "\n".join(
                [
                    f"metric={metric}",
                    f"epoch={smoothed.epoch_of_max}",
                    f"value={_fmt(smoothed.max_value)}",
                    f"raw_epoch={raw.epoch_of_max}",
                    f"raw_value={_fmt(raw.max_value)}",
                ]
            )
        )
    return "\n\n".join(blocks) + "\n"


def write_params_file(path, params: RbmParams) -> None:
    """Text dump: header 'V H', then H weight rows, then the b row, then the c row."""
    lines = [f"{params.num_visible} {params.num_hidden}"]
    for row in params.W:
        lines.append(" ".join(_fmt(v) for v in row))
    lines.append(" ".join(_fmt(v) for v in params.b))
    lines.append(" ".join(_fmt(v) for v in params.c))
    _write_text(path, "\n".join(lines) + "\n")


def read_params_file(path) -> RbmParams:
    """Inverse of write_params_file; a file that cannot be read, breaks the
    format or holds a non-finite number raises ParamsFormatError naming it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParamsFormatError(f"cannot read params file {path}: {exc}") from None
    if not lines:
        raise ParamsFormatError(f"{path}: empty params file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParamsFormatError(f"{path}: header must be 'V H', got {lines[0]!r}")
    try:
        visible, hidden = int(head[0]), int(head[1])
    except ValueError:
        raise ParamsFormatError(f"{path}: non-integer header {lines[0]!r}") from None
    if visible < 1 or hidden < 1:
        raise ParamsFormatError(f"{path}: layer sizes must be positive, got {visible} {hidden}")
    expected = hidden + 2
    if len(lines) - 1 != expected:
        raise ParamsFormatError(
            f"{path}: expected {expected} data rows for V={visible} H={hidden}, "
            f"got {len(lines) - 1}"
        )
    try:
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ParamsFormatError(f"{path}: bad float: {exc}") from None
    W = rows[:hidden]
    b, c = rows[hidden], rows[hidden + 1]
    if any(len(r) != visible for r in W) or len(b) != visible or len(c) != hidden:
        raise ParamsFormatError(f"{path}: row lengths inconsistent with header {visible} {hidden}")
    try:
        return RbmParams(np.array(W), np.array(b), np.array(c))
    except NonFiniteParameterError as exc:
        raise ParamsFormatError(f"{path}: {exc}") from None

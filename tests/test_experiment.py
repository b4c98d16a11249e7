import concurrent.futures
import multiprocessing
import re
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import cdmonitor.experiment as experiment
import cdmonitor.rbm as rbm
import cdmonitor.training as training
from cdmonitor.cli import load_config
from cdmonitor.criteria import MetricsRecord, XiVariant
from cdmonitor.experiment import (
    ExperimentConfig,
    ExperimentError,
    ParamsFormatError,
    RunResult,
    average_runs,
    default_config,
    detect_peak,
    generate_samples,
    peak_report_text,
    read_params_file,
    run_experiment,
    smooth_series,
    write_averaged_csv,
    write_params_file,
    write_run_csv,
)
from cdmonitor.rbm import RbmParams, Workspace, run_gibbs_chain, sample_bernoulli
from cdmonitor.training import RunBatch, TrainingConfig, init_params

import oracles
from reference import (
    generate_samples_per_sample,
    log_marginal,
    run_gibbs_chain_per_round,
    split_csv,
    measure_full_chain,
    measure_one,
    train_params_to_epoch,
    unit_major_uniforms,
    visible_block,
    visible_mean,
    zero_params,
)
from test_training import count_calls

PRESET_DIR = Path(__file__).parent.parent / "configs"


def tiny_bs_config(**overrides):
    training = overrides.pop(
        "training", TrainingConfig(n=1, learning_rate=0.01, epochs=100, measure_every=50)
    )
    defaults = dict(num_runs=2, base_seed=123)
    defaults.update(overrides)
    return default_config("bs", training=training, **defaults)


def run_bytes(prefix, result):
    """The bytes of the run CSV and params file a run result writes."""
    csv, params = prefix.with_suffix(".csv"), prefix.with_suffix(".txt")
    write_run_csv(csv, result)
    write_params_file(params, result.final_params)
    return csv.read_bytes(), params.read_bytes()


def record(epoch, value, mean_h=None):
    return MetricsRecord(
        epoch=epoch,
        log_likelihood=value,
        log_xi_random=value + 1,
        log_xi_complement=value + 2,
        log_recon_mean=value / 10,
        log_likelihood_mean=value / 30,
        log_xi_complement_mean_h=mean_h,
    )


class TestExperimentConfig:
    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match=re.escape("dataset must be one of ['bs', 'lse'], got 'mnist'")):
            ExperimentConfig(dataset="mnist", hidden=8, training=TrainingConfig())

    def test_default_config_names_the_datasets_in_the_same_words(self):
        with pytest.raises(ValueError) as raised:
            default_config("mnist")
        assert str(raised.value) == "dataset must be one of ['bs', 'lse'], got 'mnist'"

    def test_default_config_applies_its_overrides(self):
        training = TrainingConfig(epochs=7)
        cfg = default_config("lse", hidden=12, training=training, num_runs=3)
        assert (cfg.dataset, cfg.hidden, cfg.training, cfg.num_runs) == ("lse", 12, training, 3)
        assert (default_config("lse").hidden, default_config("lse").training) == (10, TrainingConfig(epochs=20000))

    def test_required_variants(self):
        with pytest.raises(ValueError):
            tiny_bs_config(variants_enabled=(XiVariant.RANDOM_HIDDEN,))

    def test_mean_h_variant_optional(self):
        cfg = tiny_bs_config(
            variants_enabled=(
                XiVariant.RANDOM_HIDDEN,
                XiVariant.COMPLEMENT_H1,
                XiVariant.COMPLEMENT_MEAN_H,
            )
        )
        assert cfg.mean_h_enabled


class TestRunExperiment:
    def test_measurement_cadence(self):
        cfg = tiny_bs_config(num_runs=1)
        (result,) = run_experiment(cfg)
        assert [rec.epoch for rec in result.series] == [0, 50, 100]
        assert not result.aborted
        assert result.final_params is not None

    def test_partial_final_interval_not_snapshotted(self):
        cfg = tiny_bs_config(
            num_runs=1,
            training=TrainingConfig(n=1, learning_rate=0.01, epochs=120, measure_every=50),
        )
        (result,) = run_experiment(cfg)
        assert [rec.epoch for rec in result.series] == [0, 50, 100]

    def test_distinct_seeds(self):
        cfg = tiny_bs_config(num_runs=3)
        results = list(run_experiment(cfg))
        assert [r.seed for r in results] == [123, 124, 125]

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = tiny_bs_config()
        for tag in ("a", "b"):
            for k, result in enumerate(run_experiment(cfg)):
                write_run_csv(tmp_path / f"{tag}_{k}.csv", result)
        for k in range(2):
            assert (tmp_path / f"a_{k}.csv").read_bytes() == (tmp_path / f"b_{k}.csv").read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = tiny_bs_config()
        serial = list(run_experiment(cfg, jobs=1))
        parallel = list(run_experiment(cfg, jobs=2))
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert a.series == b.series
            np.testing.assert_array_equal(a.final_params.W, b.final_params.W)

    def test_mean_h_variant_populates_field(self):
        cfg = tiny_bs_config(
            num_runs=1,
            variants_enabled=(
                XiVariant.RANDOM_HIDDEN,
                XiVariant.COMPLEMENT_H1,
                XiVariant.COMPLEMENT_MEAN_H,
            ),
        )
        (result,) = run_experiment(cfg)
        assert all(rec.log_xi_complement_mean_h is not None for rec in result.series)
        base = tiny_bs_config(num_runs=1)
        (plain,) = run_experiment(base)
        # the extra probe draws nothing from the RNG, so shared metrics agree
        assert [r.log_likelihood for r in plain.series] == [
            r.log_likelihood for r in result.series
        ]

    def test_aborted_run_recorded_not_fatal(self, monkeypatch, tmp_path):
        # run 1 of a two-run batch goes non-finite in the update of epoch
        # 30, through its gradient (the parameters are read-only outside
        # apply_update); run 0 goes on
        (solo,) = run_experiment(tiny_bs_config(num_runs=1))
        real = training.apply_update
        updates = {"n": 0}

        def poison_run_1(batch, config):
            updates["n"] += 1
            if updates["n"] == 30:
                assert len(batch.rngs) == 2
                batch.grad[1, 1, 0] = np.nan
            return real(batch, config)

        monkeypatch.setattr(training, "apply_update", poison_run_1)
        results = list(run_experiment(tiny_bs_config()))
        assert [r.aborted for r in results] == [False, True]
        assert results[1].abort_reason == (
            "epoch 30: update produced non-finite parameters: parameters contain NaN or Inf"
        )
        assert results[1].final_params is None
        assert [rec.epoch for rec in results[1].series] == [0]
        assert run_bytes(tmp_path / "batch", results[0]) == run_bytes(tmp_path / "solo", solo)

    def test_batch_stops_when_every_run_aborts(self, monkeypatch):
        # both runs go non-finite in the update of epoch 60, after the
        # snapshot of epoch 50; no epoch is trained after that
        real = training.apply_update
        updates = {"n": 0}

        def poison_all(batch, config):
            updates["n"] += 1
            if updates["n"] == 60:
                batch.grad[:, 1, 0] = np.nan
            return real(batch, config)

        monkeypatch.setattr(training, "apply_update", poison_all)
        results = list(run_experiment(tiny_bs_config()))
        assert updates["n"] == 60
        assert [r.aborted for r in results] == [True, True]
        assert [r.abort_reason.startswith("epoch 60: ") for r in results] == [True, True]
        assert [r.final_params for r in results] == [None, None]
        assert [[rec.epoch for rec in r.series] for r in results] == [[0, 50], [0, 50]]

    @pytest.mark.parametrize("measure_every", [1, 3])
    def test_snapshot_hands_its_hidden_mean_to_the_next_epoch(self, monkeypatch, tmp_path, measure_every):
        # E[h|X] is computed once per parameter state: a snapshot's is the
        # next epoch's positive phase.  Run 1 goes non-finite in the update
        # of epoch 29, which no snapshot follows at measure_every 3, so the
        # batch select()s run 0 and trains it on at once.  Every run writes
        # the bytes of a sweep whose epochs never take the snapshot's mean.
        epochs = 60
        cfg = tiny_bs_config(training=TrainingConfig(n=1, learning_rate=0.05, epochs=epochs, measure_every=measure_every))
        real_update, real_epoch, updates = training.apply_update, experiment.train_epoch, [0]

        def poison_run_1(batch, config):
            updates[0] += 1
            if updates[0] == 29:
                batch.grad[1, 0] = np.nan
            return real_update(batch, config)

        def never_share(batch, config):
            batch.h_data_current = False
            return real_epoch(batch, config)

        def sweep_bytes(tag, results):
            assert [r.aborted for r in results] == [False, True]
            assert results[1].abort_reason.startswith("epoch 29: ")
            write_run_csv(tmp_path / f"{tag}1.csv", results[1])
            return run_bytes(tmp_path / f"{tag}0", results[0]), (tmp_path / f"{tag}1.csv").read_bytes()

        monkeypatch.setattr(training, "apply_update", poison_run_1)
        with monkeypatch.context() as m:
            m.setattr(experiment, "train_epoch", never_share)
            unshared = sweep_bytes("unshared", list(run_experiment(cfg)))
        updates[0] = 0
        calls = count_calls(monkeypatch, "hidden_conditional_mean")
        shared = sweep_bytes("shared", list(run_experiment(cfg)))
        # states 0 to 59 are each trained from and state 60 is measured
        assert calls.count((17, 30)) == epochs + 1  # of [X^T; 1]
        assert shared == unshared

    @pytest.mark.parametrize("n", [1, 2])
    def test_run_bytes_independent_of_batch_and_workers(self, tmp_path, n):
        # a run trained alone, in one batch with the others, and in any
        # split over workers writes the same bytes
        training = TrainingConfig(n=n, learning_rate=0.05, epochs=100, measure_every=50)
        cfg = tiny_bs_config(num_runs=3, training=training, variants_enabled=tuple(XiVariant))
        by_jobs = {jobs: list(run_experiment(cfg, jobs=jobs)) for jobs in (1, 2, 3)}
        for k in range(3):
            (alone,) = run_experiment(replace(cfg, num_runs=1, base_seed=cfg.base_seed + k))
            expected = run_bytes(tmp_path / f"alone{k}", alone)
            for jobs, results in by_jobs.items():
                assert run_bytes(tmp_path / f"j{jobs}_{k}", results[k]) == expected, (k, jobs)

    def test_epoch_zero_snapshot_before_any_update(self):
        cfg = tiny_bs_config(num_runs=1)
        (result,) = run_experiment(cfg)
        # near-zero weights: log-likelihood starts at the uniform-model value
        assert result.series[0].log_likelihood == pytest.approx(
            30 * (-16 * np.log(2)), rel=1e-3
        )


class TestMeasure:
    @pytest.mark.parametrize("n", [1, 3])
    def test_hidden_mean_computed_once_per_gibbs_round(self, monkeypatch, n):
        # the snapshot reads only round 1 of its chain, so it computes one
        # E[h|X] for any n, from one product of the hidden mean's operand
        # with [X^T; 1], whichever function makes it; the data marginal, the
        # complement_mean_h probe and the reconstruction monitor reuse it
        cfg = tiny_bs_config(
            training=TrainingConfig(n=n, learning_rate=0.01, epochs=100, measure_every=50),
            variants_enabled=tuple(XiVariant),
        )
        params = init_params(16, 8, np.random.default_rng(5), 0.01)
        X = experiment.build_dataset(cfg).matrix()
        products, matmul, XT1 = [], np.matmul, visible_block(X)

        def counted(a, b, *args, **kwargs):
            if np.shape(a)[-2:] == (8, 17) and np.shape(b) == XT1.shape and np.array_equal(b, XT1):
                products.append(np.shape(a))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        record = measure_one(params, X, cfg, np.random.default_rng(6), epoch=0)
        assert record.log_xi_complement_mean_h is not None
        assert products == [(1, 8, 17)]

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_draw_per_stacked_snapshot(self, monkeypatch, n):
        # round 1's hidden draws of every run in the batch, in one call, over
        # unit-major (R, H, N) uniforms
        calls = count_calls(monkeypatch, "sample_bernoulli")
        cfg = tiny_bs_config(training=TrainingConfig(n=n, learning_rate=0.01, epochs=100, measure_every=50))
        X = experiment.build_dataset(cfg).matrix()
        params = [init_params(16, 8, np.random.default_rng(s), 0.01) for s in range(3)]
        batch = RunBatch(params, X, [np.random.default_rng(0) for _ in params])
        experiment._measure(batch, cfg, [np.random.default_rng(10 + r) for r in range(3)], epoch=0)
        assert calls == [(3, 8, 30)]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dataset", ["bs", "lse"])
    def test_snapshot_stream_and_record_match_the_full_chain(self, n, dataset):
        # the generator ends where drawing the whole chain and the probe
        # uniforms leaves it, and the record has the full chain's bits
        cfg = default_config(
            dataset,
            training=TrainingConfig(n=n, epochs=100, measure_every=50),
            variants_enabled=tuple(XiVariant),
        )
        X = experiment.build_dataset(cfg).matrix()
        N, V, H = *X.shape, cfg.hidden
        rng, twin, oracle_rng = (np.random.default_rng(11) for _ in range(3))
        work = Workspace()
        for epoch, std in ((0, 0.01), (50, 1.5)):
            params = init_params(V, H, np.random.default_rng(epoch), std)
            got = measure_one(params, X, cfg, rng, epoch, work)
            twin.random(n * N * (H + V) + N * H)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert got == measure_full_chain(params, X, cfg, oracle_rng, epoch)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dataset", ["bs", "lse"])
    def test_stacked_snapshot_is_each_run_s_full_chain_snapshot(self, n, dataset):
        # three runs with different parameters, measured together twice
        # through the batch's workspace: each run's record has the bits of its
        # full-chain snapshot alone, and each generator ends where drawing
        # that run's whole chain and probe uniforms leaves it
        cfg = default_config(
            dataset,
            training=TrainingConfig(n=n, epochs=100, measure_every=50),
            variants_enabled=tuple(XiVariant),
        )
        X = experiment.build_dataset(cfg).matrix()
        N, V, H = *X.shape, cfg.hidden
        params = [init_params(V, H, np.random.default_rng(r), std) for r, std in enumerate((0.01, 1.0, 2.5))]
        batch = RunBatch(params, X, [np.random.default_rng(0) for _ in params])
        rngs, twins, oracle_rngs = ([np.random.default_rng(30 + r) for r in range(3)] for _ in range(3))
        for epoch in (0, 50):
            got = experiment._measure(batch, cfg, rngs, epoch)
            assert got == [measure_full_chain(p, X, cfg, g, epoch) for p, g in zip(params, oracle_rngs)]
            for rng, twin in zip(rngs, twins):
                twin.random(n * N * (H + V) + N * H)
                assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended-precision longdouble")
    @pytest.mark.parametrize(
        "preset, epoch",
        [
            pytest.param(preset, epoch, id=preset if epoch == 50 else f"{preset}-{epoch}")
            for preset in ("lse_cd1_lr0.001_wd0.001", "bs_cd1_lr0.01_wd0")
            for epoch in (50, 500)
        ],
    )
    def test_ratio_diagnostics_hold_to_an_80_bit_per_sample_reference(self, preset, epoch):
        # log_xi = sum_n (log p~(x_n) - log p~(y_n)).  On these models, 50
        # epochs in, the data total is 100 to 630 times |log_xi|, so the
        # difference of the two totals loses digits the per-sample sum keeps;
        # by epoch 500 |log_xi| has grown and the two agree
        cfg = replace(load_config(PRESET_DIR / f"{preset}.json"), variants_enabled=tuple(XiVariant))
        params = train_params_to_epoch(cfg, 0, epoch)
        X = experiment.build_dataset(cfg).matrix()
        record = measure_one(params, X, cfg, np.random.default_rng(0), epoch=epoch)
        replay = np.random.default_rng(0)
        chain = run_gibbs_chain_per_round(params, X, cfg.training.n, replay)
        h_random = unit_major_uniforms(replay, (len(X), cfg.hidden))
        log_mx = oracles.log_marginal_weights_ld(params.W, params.b, params.c, X)
        totals_errors = []
        for metric, h_s in (
            ("log_xi_random", h_random),
            ("log_xi_complement", 1.0 - chain.h1),
            ("log_xi_complement_mean_h", 1.0 - chain.h1_mean),
        ):
            Y = visible_mean(params, h_s)
            want = np.sum(log_mx - oracles.log_marginal_weights_ld(params.W, params.b, params.c, Y))
            assert abs(getattr(record, metric) - want) <= 1e-14 * abs(want), metric
            totals = np.sum(log_marginal(params, X)) - np.sum(log_marginal(params, Y))
            totals_errors.append(float(abs(totals - want) / abs(want)))
        if epoch == 50:
            assert max(totals_errors) > 1e-14

    @pytest.mark.parametrize("dataset, runs", [("bs", 10), ("lse", 1)])
    def test_second_snapshot_allocates_no_array(self, dataset, runs):
        # every block-sized temporary comes from the batch's workspace, which
        # hands the second snapshot only arrays it handed the first, though
        # the marginal serves the data and log_partition's blocks in
        # different shapes; the per-sample sums and totals are new arrays
        # each call
        handed_out = []

        class RecordingWorkspace(Workspace):
            def __call__(self, name, shape):
                handed_out.append(super().__call__(name, shape))
                return handed_out[-1]

        cfg = default_config(dataset, variants_enabled=tuple(XiVariant))
        X = experiment.build_dataset(cfg).matrix()
        params = [init_params(X.shape[1], cfg.hidden, np.random.default_rng(r), 0.5) for r in range(runs)]
        batch = RunBatch(params, X, [np.random.default_rng(0)] * runs)
        rngs = [np.random.default_rng(40 + r) for r in range(runs)]
        batch.work = RecordingWorkspace()
        experiment._measure(batch, cfg, rngs, 0)
        first = len(handed_out)
        experiment._measure(batch, cfg, rngs, 50)
        assert len(handed_out) == 2 * first
        assert {id(a) for a in handed_out[first:]} <= {id(a) for a in handed_out[:first]}

    def test_warm_measured_run_peak_memory(self):
        # the snapshot draws and reconstructs its probes in the batch's own
        # blocks and takes its scratch from the batch's workspace, so a warm
        # lse run measured every epoch with every probe peaks under 1.65 MB
        # (about 1.53 MB; separate h1, probe and Y blocks add 0.25 MB)
        cfg = default_config(
            "lse",
            num_runs=1,
            training=TrainingConfig(epochs=3, measure_every=1),
            variants_enabled=tuple(XiVariant),
        )
        X = experiment.build_dataset(cfg).matrix()
        experiment.run_single(cfg, [0], X)  # fills the cache of enumerated states
        tracemalloc.start()
        try:
            experiment.run_single(cfg, [0], X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_650_000


class TestBatchPlan:
    """The batches run_experiment hands run_single, which no output shows."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Records every run_single call, every pool and, at each batch a
        pool is handed, how many it holds; the pool runs each batch in
        process when it is handed, and lets go of it when its result is
        read."""
        calls = {"batches": [], "pools": [], "held": []}

        def recording_run_single(config, run_indices, X):
            calls["batches"].append(list(run_indices))
            np.testing.assert_array_equal(X, experiment.build_dataset(config).matrix())
            return [RunResult(seed=config.base_seed + k, series=[], final_params=None) for k in run_indices]

        class Held:
            def __init__(self, pool, value):
                self.pool, self.value = pool, value

            def result(self):
                self.pool.held -= 1
                return self.value

        class InProcessPool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                calls["pools"].append(max_workers)
                self.max_workers, self.held = max_workers, 0

            def submit(self, fn, *args):
                assert self.held < self.max_workers, "a batch would wait in the pool's queue"
                self.held += 1
                calls["held"].append(self.held)
                return Held(self, fn(*args))

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(experiment, "run_single", recording_run_single)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return calls

    @pytest.mark.parametrize(
        "dataset, runs, jobs, batches",
        [
            ("bs", 10, 1, [list(range(10))]),
            ("bs", 10, 2, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]),
            ("bs", 10, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]),
            ("lse", 3, 1, [[0], [1], [2]]),
            ("lse", 3, 2, [[0], [1], [2]]),
            ("lse", 3, 5, [[0], [1], [2]]),
        ],
    )
    def test_plan(self, calls, dataset, runs, jobs, batches):
        # jobs contiguous groups (at most one per run), each cut into batches
        # of BATCH_SAMPLES // N runs: a bs group is one batch, an lse batch
        # one run; the pool holds one batch per worker, and is handed the
        # next as each batch's results are read
        cfg = default_config(dataset, num_runs=runs)
        results = list(run_experiment(cfg, jobs=jobs))
        assert calls["batches"] == batches
        workers = min(jobs, runs)
        assert calls["pools"] == ([] if jobs == 1 else [workers])
        full = min(workers, len(batches))
        assert calls["held"] == ([] if jobs == 1 else [*range(1, full + 1), *[full] * (len(batches) - full)])
        assert [r.seed for r in results] == [cfg.base_seed + k for k in range(runs)]

    def test_plan_does_not_depend_on_the_hidden_size(self, calls):
        list(run_experiment(default_config("bs", num_runs=10, hidden=64)))
        assert calls["batches"] == [list(range(10))]

    def test_closing_early_leaves_no_worker(self):
        cfg = default_config(
            "lse", training=TrainingConfig(epochs=20, measure_every=10), num_runs=6, base_seed=5
        )
        results = run_experiment(cfg, jobs=2)
        assert next(results).seed == 5
        assert multiprocessing.active_children()
        results.close()
        assert multiprocessing.active_children() == []


class TestTrainParamsToEpoch:
    @staticmethod
    def assert_replay_matches(cfg):
        (result,) = run_experiment(cfg)
        replay = train_params_to_epoch(cfg, 0, cfg.training.epochs)
        np.testing.assert_array_equal(replay.W, result.final_params.W)
        np.testing.assert_array_equal(replay.b, result.final_params.b)
        np.testing.assert_array_equal(replay.c, result.final_params.c)

    def test_full_horizon_matches_run_final_params(self):
        # measurement draws come from a separate stream, so re-training
        # without measuring lands on bit-identical parameters
        self.assert_replay_matches(tiny_bs_config(num_runs=1))

    @pytest.mark.parametrize(
        "cfg",
        [
            tiny_bs_config(num_runs=1, training=TrainingConfig(n=2, epochs=100, measure_every=1)),
            default_config(
                "lse",
                num_runs=1,
                training=TrainingConfig(epochs=10, measure_every=1),
                variants_enabled=tuple(XiVariant),
            ),
        ],
        ids=["bs-cd2", "lse"],
    )
    def test_measured_every_epoch_matches_run_final_params(self, cfg):
        # a snapshot borrows the batch's draws and hidden means between
        # epochs, h_model among them, which CD-2 also uses inside an epoch:
        # a run measured every epoch still lands on its unmeasured replay
        self.assert_replay_matches(cfg)

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            train_params_to_epoch(tiny_bs_config(), 0, 101)


class TestAverageRuns:
    def test_single_run_identity(self):
        series = [record(0, -5.0), record(50, -4.0), record(100, -4.5)]
        out = average_runs([RunResult(seed=1, series=series, final_params=None)])
        assert out == series

    def test_opposite_runs_average_to_zero(self):
        plus = [record(0, 3.0), record(50, 7.0)]
        minus = [record(0, -3.0), record(50, -7.0)]
        out = average_runs(
            [
                RunResult(seed=1, series=plus, final_params=None),
                RunResult(seed=2, series=minus, final_params=None),
            ]
        )
        for rec in out:
            assert rec.log_likelihood == 0.0
            assert rec.log_recon_mean == 0.0

    def test_affine_commutes(self):
        rng = np.random.default_rng(0)
        runs = []
        for seed in range(4):
            runs.append(
                RunResult(
                    seed=seed,
                    series=[record(e, float(rng.normal())) for e in (0, 50, 100)],
                    final_params=None,
                )
            )
        base = average_runs(runs)
        scaled = average_runs(
            [
                RunResult(
                    seed=r.seed,
                    series=[
                        record(rec.epoch, 2.0 * rec.log_likelihood + 1.0) for rec in r.series
                    ],
                    final_params=None,
                )
                for r in runs
            ]
        )
        for a, s in zip(base, scaled):
            assert s.log_likelihood == pytest.approx(2.0 * a.log_likelihood + 1.0, rel=1e-12)

    def test_aborted_runs_excluded(self, caplog):
        good = RunResult(seed=1, series=[record(0, 2.0), record(50, 4.0)], final_params=None)
        bad = RunResult(
            seed=2, series=[record(0, 99.0)], final_params=None, aborted=True, abort_reason="x"
        )
        out = average_runs([good, bad])
        assert out[0].log_likelihood == 2.0

    def test_no_completed_runs_is_error(self):
        bad = RunResult(seed=2, series=[], final_params=None, aborted=True)
        with pytest.raises(ExperimentError):
            average_runs([bad])

    def test_mismatched_grids_rejected(self):
        a = RunResult(seed=1, series=[record(0, 1.0), record(50, 1.0)], final_params=None)
        b = RunResult(seed=2, series=[record(0, 1.0), record(60, 1.0)], final_params=None)
        with pytest.raises(ExperimentError):
            average_runs([a, b])


class TestDetectPeak:
    def make_series(self, values, start=0, step=50):
        return [record(start + i * step, v) for i, v in enumerate(values)]

    def test_strictly_increasing_peaks_at_end(self):
        series = self.make_series([1.0, 2.0, 3.0, 4.0])
        assert detect_peak(series, "log_likelihood").epoch_of_max == 150

    def test_simple_interior_peak(self):
        series = self.make_series([0.0, 5.0, 3.0])
        report = detect_peak(series, "log_likelihood")
        assert report.epoch_of_max == 50
        assert report.max_value == 5.0

    def test_ties_break_earliest(self):
        series = self.make_series([1.0, 4.0, 4.0, 2.0])
        assert detect_peak(series, "log_likelihood").epoch_of_max == 50

    def test_invariant_under_constant_shift(self):
        values = list(np.random.default_rng(3).normal(size=11))
        series = self.make_series(values)
        shifted = self.make_series([v + 10.0 for v in values])
        for window in (1, 5):
            assert (
                detect_peak(series, "log_likelihood", window).epoch_of_max
                == detect_peak(shifted, "log_likelihood", window).epoch_of_max
            )

    def test_smoothing_suppresses_single_point_spike(self):
        values = [0.0, 0.0, 8.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0]
        series = self.make_series(values)
        assert detect_peak(series, "log_likelihood", window=1).epoch_of_max == 100
        assert detect_peak(series, "log_likelihood", window=5).epoch_of_max >= 250

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            detect_peak(self.make_series([1.0, 2.0]), "log_likelihood")

    def test_window_must_be_odd(self):
        with pytest.raises(ValueError):
            smooth_series([1.0, 2.0, 3.0], window=4)

    def test_smooth_series_values(self):
        out = smooth_series([0.0, 3.0, 6.0, 9.0, 12.0], window=3)
        np.testing.assert_allclose(out, [1.5, 3.0, 6.0, 9.0, 10.5])
        values = np.array([0.1, -2.5e-300, 1e308, -np.inf, 5e-324, 0.0])
        assert smooth_series(values, window=1).tobytes() == values.tobytes()


class TestGenerateSamples:
    def test_count_and_shape(self):
        rng = np.random.default_rng(0)
        out = generate_samples(zero_params(16, 8), 30, burn_in=5, thin=2, rng=rng)
        assert out.shape == (30, 16)
        assert np.isin(out, (0.0, 1.0)).all()

    def test_saturated_model_emits_identical_samples(self):
        V = 6
        target = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        params = RbmParams(np.zeros((2, V)), np.where(target > 0, 500.0, -500.0), np.zeros(2))
        out = generate_samples(params, 10, burn_in=3, thin=1, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(out, np.tile(target, (10, 1)))

    def test_seed_determinism(self):
        a = generate_samples(zero_params(8, 4), 5, 10, 3, np.random.default_rng(9))
        b = generate_samples(zero_params(8, 4), 5, 10, 3, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("burn_in", [0, 7])
    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("count", [1, 2, 25])
    def test_equals_indexing_one_full_chain(self, burn_in, thin, count):
        # the segmented chain draws the same uniforms in the same order as
        # one chain of burn_in + count * thin rounds
        rng = np.random.default_rng(12)
        params = RbmParams(rng.normal(size=(8, 16)), rng.normal(size=16), rng.normal(size=8))
        got = generate_samples(params, count, burn_in, thin, np.random.default_rng(3))
        full_rng = np.random.default_rng(3)
        x0 = np.ones(17, dtype=bool)
        sample_bernoulli(0.5, full_rng.random(16), out=x0[:-1])
        visibles = run_gibbs_chain(params, x0, burn_in + count * thin, full_rng, {}, {})
        want = visibles[[burn_in + thin * k - 1 for k in range(1, count + 1)], :-1].astype(np.float64)
        assert got.tobytes() == want.tobytes()

    SEGMENT = experiment._SEGMENT_ROUNDS

    @pytest.mark.parametrize("burn_in", [0, 1, SEGMENT + 1])
    @pytest.mark.parametrize("thin, count", [(1, 2 * SEGMENT + 5), (3, 700), (SEGMENT + 1, 3)])
    def test_equals_per_sample_reference(self, burn_in, thin, count):
        # the segments cross sample and burn-in boundaries; the reference
        # runs one chain per sample, drawing round by round
        rng = np.random.default_rng(12)
        params = RbmParams(rng.normal(size=(8, 16)), rng.normal(size=16), rng.normal(size=8))
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = generate_samples(params, count, burn_in, thin, got_rng)
        want = generate_samples_per_sample(params, count, burn_in, thin, want_rng)
        assert got.shape == want.shape == (count, 16)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()

    @staticmethod
    def diffuse_params(hidden, visible=16):
        rng = np.random.default_rng(hidden)
        return RbmParams(
            0.1 * rng.normal(size=(hidden, visible)), 0.1 * rng.normal(size=visible), 0.1 * rng.normal(size=hidden)
        )

    @pytest.mark.parametrize("hidden, visible", [(4, 16), (14, 16), (4, 8)], ids=["4", "14", "4-8"])
    def test_cached_means_give_the_reference_bits(self, monkeypatch, hidden, visible):
        # the 8000 rounds visit more visible states than hidden_means holds
        # at V = 16, and more hidden ones than means holds at H = 14 (the
        # miss-count tests below): so H = 4, V = 16 computes E[h|x] past a
        # full cache while every hidden state is stored, H = 14 both means,
        # and H = 4, V = 8 neither
        params = self.diffuse_params(hidden, visible)
        calls = count_calls(monkeypatch, "hidden_conditional_mean")
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = generate_samples(params, 2000, 0, 4, got_rng)
        assert (len(calls) > rbm._CACHED_MEANS) == (visible == 16)
        want = generate_samples_per_sample(params, 2000, 0, 4, want_rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("hidden", [4, 14])
    def test_one_visible_mean_per_cached_hidden_state(self, monkeypatch, hidden):
        # the cache keeps the first _CACHED_MEANS states the chain visits; a
        # state first visited after it filled is computed on every visit
        params = self.diffuse_params(hidden)
        calls = count_calls(monkeypatch, "visible_conditional_mean")
        generate_samples(params, 2000, 0, 4, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        x0 = sample_bernoulli(0.5, rng.random(16))
        keys = [h.tobytes() for h in run_gibbs_chain_per_round(params, x0, 8000, rng).hiddens]
        distinct = list(dict.fromkeys(keys))
        stored = set(distinct[: rbm._CACHED_MEANS])
        assert (len(distinct) <= 16) if hidden == 4 else (len(distinct) > rbm._CACHED_MEANS)
        assert len(calls) == len(stored) + sum(key not in stored for key in keys)

    @pytest.mark.parametrize("visible", [8, 16])
    def test_one_hidden_mean_per_cached_visible_state(self, monkeypatch, visible):
        # the mirror of the test above: a round starts from x0 or from the
        # previous visible draw; V = 8 has 256 states, all stored, and at
        # V = 16 the chain visits more states than the cache holds
        params = self.diffuse_params(4, visible)
        calls = count_calls(monkeypatch, "hidden_conditional_mean")
        generate_samples(params, 2000, 0, 4, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        x0 = sample_bernoulli(0.5, rng.random(visible))
        visibles = run_gibbs_chain_per_round(params, x0, 8000, rng).visibles
        keys = [x.tobytes() for x in (x0, *visibles[:-1])]
        distinct = list(dict.fromkeys(keys))
        stored = set(distinct[: rbm._CACHED_MEANS])
        assert (len(distinct) <= 256) if visible == 8 else (len(distinct) > rbm._CACHED_MEANS)
        assert len(calls) == len(stored) + sum(key not in stored for key in keys)

    def test_cache_memory_is_bounded(self):
        # 20000 rounds at H = 14, V = 16 visit about 11200 hidden and 16600
        # visible states, far more than the two caches' rbm._CACHED_MEANS
        # states each (whose comment gives their memory); the bound is
        # 2 MiB for the caches next to the 640 KB of samples
        params = self.diffuse_params(14)
        tracemalloc.start()
        try:
            generate_samples(params, 5000, 0, 4, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000 * 16 * 8 + (1 << 21)

    def test_memory_does_not_grow_with_burn_in(self):
        # a chain held whole would take 20000 * (16 + 8) * 8 B, about 3.8 MB;
        # the sampler holds one segment of its chain at a time, about 50 KB
        params = init_params(16, 8, np.random.default_rng(4), 1.0)
        tracemalloc.start()
        try:
            generate_samples(params, 10, 20000, 1, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("kw", [dict(count=0), dict(burn_in=-1), dict(thin=0)])
    def test_validation(self, kw):
        args = dict(count=3, burn_in=1, thin=1)
        args.update(kw)
        with pytest.raises(ValueError):
            generate_samples(
                zero_params(4, 2), args["count"], args["burn_in"], args["thin"],
                np.random.default_rng(0),
            )


class TestCsvRoundTrip:
    def sample_series(self, mean_h=False):
        rng = np.random.default_rng(8)
        return [
            record(
                e,
                float(rng.normal() * 10.0 ** int(rng.integers(-3, 4))),
                mean_h=float(rng.normal()) if mean_h else None,
            )
            for e in (0, 50, 100, 150)
        ]

    @staticmethod
    def metrics(rec):
        """The metric values a record sets, in column order."""
        return [v for v in astuple(rec)[1:] if v is not None]

    def test_run_csv_round_trip_exact(self, tmp_path):
        series = self.sample_series()
        result = RunResult(seed=42, series=series, final_params=None)
        path = tmp_path / "run.csv"
        write_run_csv(path, result)
        header, rows = split_csv(path)
        assert header == [
            "epoch", "seed", "log_likelihood", "log_xi_random", "log_xi_complement",
            "log_recon_mean", "log_likelihood_mean",
        ]
        assert rows == [[rec.epoch, 42, *self.metrics(rec)] for rec in series]

    def test_run_csv_with_mean_h_column(self, tmp_path):
        series = self.sample_series(mean_h=True)
        path = tmp_path / "run.csv"
        write_run_csv(path, RunResult(seed=7, series=series, final_params=None))
        header, rows = split_csv(path)
        assert header[-1] == "log_xi_complement_mean_h"
        assert rows == [[rec.epoch, 7, *self.metrics(rec)] for rec in series]

    def test_averaged_csv_round_trip_exact(self, tmp_path):
        series = self.sample_series()
        path = tmp_path / "avg.csv"
        write_averaged_csv(path, series, n_runs=10)
        header, rows = split_csv(path)
        assert header == [
            "epoch", "log_likelihood", "log_xi_random", "log_xi_complement",
            "log_recon_mean", "log_likelihood_mean", "n_runs",
        ]
        assert rows == [[rec.epoch, *self.metrics(rec), 10] for rec in series]

    def test_sentinel_value_round_trips(self, tmp_path):
        series = [record(0, -1e300), record(50, 1e-300), record(100, -0.1)]
        path = tmp_path / "run.csv"
        write_run_csv(path, RunResult(seed=1, series=series, final_params=None))
        _, rows = split_csv(path)
        assert rows == [[rec.epoch, 1, *self.metrics(rec)] for rec in series]


class TestPeakReportText:
    def test_key_value_blocks(self):
        rng = np.random.default_rng(1)
        series = [record(e, float(rng.normal())) for e in range(0, 550, 50)]
        text = peak_report_text(series)
        assert "metric=log_likelihood\n" in text
        assert "metric=log_xi_complement\n" in text
        assert "metric=log_recon_mean\n" in text
        for line in text.strip().splitlines():
            if line:
                key, _, value = line.partition("=")
                assert key in {"metric", "epoch", "value", "raw_epoch", "raw_value"}
                assert value


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        params = RbmParams(rng.normal(size=(3, 5)), rng.normal(size=5), rng.normal(size=3))
        path = tmp_path / "params.txt"
        write_params_file(path, params)
        loaded = read_params_file(path)
        np.testing.assert_array_equal(loaded.W, params.W)
        np.testing.assert_array_equal(loaded.b, params.b)
        np.testing.assert_array_equal(loaded.c, params.c)

    def test_header_shape_enforced(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.5 0.5\n0.1 0.1\n")
        with pytest.raises(ParamsFormatError):
            read_params_file(path)

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\nx\n0.0\n0.0\n")
        with pytest.raises(ParamsFormatError):
            read_params_file(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(ParamsFormatError):
            read_params_file(path)

    @pytest.mark.parametrize("text, message", [
        ("2\n0.5 0.5\n0.1 0.1\n0.0\n", "header must be 'V H', got '2'"),
        ("2 x\n0.5 0.5\n0.1 0.1\n0.0\n", "non-integer header '2 x'"),
        ("2 0\n0.1 0.1\n\n", "layer sizes must be positive, got 2 0"),
        ("2 1\n0.5\n0.1 0.1\n0.0\n", "row lengths inconsistent with header 2 1"),
    ], ids=["header-fields", "header-integers", "layer-sizes", "row-lengths"])
    def test_malformed_file_rejected_naming_the_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParamsFormatError, match=re.escape(f"{path}: {message}")):
            read_params_file(path)


class TestAveragedRecomputation:
    def test_matches_spreadsheet_style_recomputation(self, tmp_path):
        # recompute the averaged series from per-run CSV artifacts alone
        cfg = tiny_bs_config(
            num_runs=3,
            training=TrainingConfig(n=1, learning_rate=0.01, epochs=200, measure_every=50),
        )
        results = list(run_experiment(cfg))
        averaged = average_runs(results)
        for k, result in enumerate(results):
            write_run_csv(tmp_path / f"run_{k}.csv", result)
        parsed = [split_csv(tmp_path / f"run_{k}.csv") for k in range(3)]
        for i, rec in enumerate(averaged):
            for metric in (
                "log_likelihood",
                "log_xi_random",
                "log_xi_complement",
                "log_recon_mean",
                "log_likelihood_mean",
            ):
                recomputed = sum(rows[i][header.index(metric)] for header, rows in parsed) / 3
                assert getattr(rec, metric) == pytest.approx(recomputed, rel=1e-12, abs=1e-15)

"""Per-layer metrics derived from the spans of one traced `train` and one
traced `sample` command (the ``_batch1`` and per-round figures come from
the latter).  ``layer_map.json`` says which end-to-end metric,
on which workload, each of them should move.
"""

from __future__ import annotations

from spans import SpanTable

IO_SPANS = (
    "experiment.write_run_csv",
    "experiment.write_params_file",
    "experiment.write_averaged_csv",
    "experiment.peak_report_text",
)
SHARE_LAYERS = ("rbm", "training", "criteria", "experiment")


def kernel_counts(N: int, V: int, H: int, hidden_means: float, visible_means: float, draws: float):
    """(flops, bytes) of one epoch, computed from shapes rather than measured.

    A conditional mean on N rows is one (N,V)x(V,H) product plus a bias add;
    a Bernoulli draw reads its means and uniforms and writes the result,
    half of the draws on each layer; the gradient is two (H,N)x(N,V)
    products.  Bytes count float64 operands read once and results written
    once, so cache misses are ignored.
    """
    flops = hidden_means * (2 * N * V * H + N * H) + visible_means * (2 * N * V * H + N * V)
    flops += 4 * N * V * H
    nbytes = hidden_means * 8 * (N * V + H * V + H + N * H)
    nbytes += visible_means * 8 * (N * H + H * V + V + N * V)
    nbytes += draws * 12 * (N * H + N * V)
    nbytes += 8 * (2 * (N * H + N * V) + 2 * H * V)
    return float(flops), float(nbytes)


def layer_metrics(
    train: SpanTable,
    sample: SpanTable,
    *,
    N: int,
    V: int,
    H: int,
    io_bytes: int,
    sample_rounds: int,
) -> dict[str, float]:
    epochs = train.count("training.train_epoch")
    in_epoch = train.within("training.train_epoch")

    def calls_per_epoch(name: str) -> float:
        return float((train.mask(name) & in_epoch).sum()) / epochs

    hcm = calls_per_epoch("rbm.hidden_conditional_mean")
    vcm = calls_per_epoch("rbm.visible_conditional_mean")
    draws = calls_per_epoch("rbm.sample_bernoulli")
    flops, nbytes = kernel_counts(N, V, H, hcm, vcm, draws)
    command = train.total("cli.main")
    metrics = {
        "rbm.hidden_conditional_mean.us_per_call": 1e6 * train.per_call("rbm.hidden_conditional_mean"),
        "rbm.hidden_conditional_mean.calls_per_epoch": hcm,
        "rbm.visible_conditional_mean.us_per_call": 1e6 * train.per_call("rbm.visible_conditional_mean"),
        "rbm.visible_conditional_mean.calls_per_epoch": vcm,
        "rbm.sample_bernoulli.us_per_call": 1e6 * train.per_call("rbm.sample_bernoulli"),
        "rbm.sample_bernoulli.calls_per_epoch": draws,
        "rbm.hidden_conditional_mean.us_per_call_batch1": 1e6 * sample.per_call("rbm.hidden_conditional_mean"),
        "rbm.visible_conditional_mean.us_per_call_batch1": 1e6 * sample.per_call("rbm.visible_conditional_mean"),
        "rbm.sample_bernoulli.us_per_call_batch1": 1e6 * sample.per_call("rbm.sample_bernoulli"),
        # The sample command is one chain of sample_rounds rounds at batch size 1.
        "rbm.run_gibbs_chain.self_us_per_round": 1e6 * sample.self_total("rbm.run_gibbs_chain") / sample_rounds,
        "rbm.kernels.flops_per_epoch_computed": flops,
        "rbm.kernels.bytes_per_epoch_computed": nbytes,
        "rbm.log_unnormalized_marginal.us_per_call": 1e6 * train.per_call("rbm.log_unnormalized_marginal"),
        "criteria.log_partition.us_per_call": 1e6 * train.per_call("criteria.log_partition"),
        "criteria.mean_reconstruction_log_prob.us_per_call": 1e6
        * train.per_call("criteria.mean_reconstruction_log_prob"),
        "experiment.measure.us_per_call": 1e6 * train.per_call("experiment.measure"),
        "experiment.measure.share": train.total("experiment.measure") / train.total("experiment.run_single"),
        "training.train_epoch.us_per_call": 1e6 * train.per_call("training.train_epoch"),
        "training.train_epoch.self_us_per_call": 1e6 * train.self_total("training.train_epoch") / epochs,
        "training.apply_update.us_per_call": 1e6 * train.per_call("training.apply_update"),
        "experiment.run_single.s_per_call": train.per_call("experiment.run_single"),
        "experiment.io.ms_total": 1e3 * sum(train.total(name) for name in IO_SPANS),
        "experiment.io.bytes_written": float(io_bytes),
        "experiment.generate_samples.us_per_round": 1e6
        * sample.total("experiment.generate_samples")
        / sample_rounds,
        "cli.import_s": train.scalars["import_s"],
        "cli.resolve_config.ms": 1e3 * train.per_call("cli.resolve_config"),
        "datasets.build_dataset.ms": 1e3 * train.per_call("experiment.build_dataset"),
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = train.layer_self_total(layer) / command
    return metrics

"""Per-sample and replay forms of quantities the package computes in batch.

The package computes every monitored quantity for a whole dataset at once,
and trains runs in stacked batches.  The functions here state the same
quantities one training vector, or one run, at a time, on top of the
package's own primitives, and the tests compare the two.  The one-run
forms of an epoch and an update (``train_epoch_one``, ``apply_update_one``)
map parameters to new parameters, as the package's functions did before
they worked in place on a ``RunBatch``, and ``measure_one`` snapshots one
run's parameters as ``experiment._measure`` did before it measured a
whole batch; ``measure_full_chain`` is the snapshot as it was before it
stopped computing the chain rounds it does not read.  The per-round forms
of the Gibbs chain, the sampler and an epoch's draws
(``run_gibbs_chain_per_round``, ``generate_samples_per_sample``,
``train_epoch_per_round``) draw every round's uniforms with one generator
call per draw, as the package did before it drew all of a chain's
uniforms in one call.  Unlike ``oracles.py`` they share code with the
package: agreement shows that the batched paths combine the primitives
correctly, not that the primitives themselves are right.  The energy, the
plain marginal, the exact log-likelihood, log Z enumerated over the larger
layer (the route ``log_partition`` does not take), the reconstruction term
with its hidden mean computed for it, and the all-zero model are here too,
because only tests use them.  So is ``split_csv``, which splits a written
metric CSV into numbers: the package writes those files and reads none.

Where these functions call the conditional means directly, they silence
the overflow of saturated sigmoids with ``np.errstate`` as the package's
batch operations do.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from cdmonitor import criteria
from cdmonitor.criteria import (
    EnumerationInfeasibleError,
    MetricsRecord,
    XiVariant,
    _binary_block,
    log_partition,
)
from cdmonitor.datasets import Dataset
from cdmonitor.experiment import ExperimentConfig, ExperimentError, _measure, build_dataset, run_single
from cdmonitor.rbm import (
    GibbsChain,
    RbmParams,
    _check_last_dim,
    fresh,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    run_gibbs_chain,
    sample_bernoulli,
    softplus,
    visible_conditional_mean,
)
from cdmonitor.training import RunBatch, TrainingConfig, apply_update, train_epoch


@dataclass
class GradientEstimate:
    """Ascent direction for the data log-likelihood (positive minus negative phase)."""

    dW: np.ndarray
    db: np.ndarray
    dc: np.ndarray


def apply_update_one(params: RbmParams, grad: GradientEstimate, config: TrainingConfig) -> RbmParams:
    """``apply_update`` on a one-run batch: the parameters after one step along ``grad``."""
    batch = RunBatch([params], np.zeros((1, params.num_visible)), [np.random.default_rng(0)])
    batch.dW[0], batch.db[0, 0], batch.dc[0, 0] = grad.dW, grad.db, grad.dc
    apply_update(batch, config)
    return batch.params(0)


def train_epoch_one(
    params: RbmParams, data: Dataset, config: TrainingConfig, rng: np.random.Generator
) -> RbmParams:
    """``train_epoch`` on a one-run batch: the parameters after one epoch."""
    batch = RunBatch([params], data.matrix(), [rng])
    train_epoch(batch, config)
    return batch.params(0)


def _draw_per_run(mean: np.ndarray, rngs, out: np.ndarray) -> np.ndarray:
    """Bernoulli draws of a stacked (R, ...) ``mean`` into ``out``, slice r
    from one call of ``rngs[r]``."""
    for rng, u in zip(rngs, out, strict=True):
        rng.random(out=u)
    return sample_bernoulli(mean, out)


def train_epoch_per_round(batch: RunBatch, config: TrainingConfig) -> None:
    """``train_epoch`` with each round's draws taken from every run's
    generator, hidden then visible, into arrays of its own."""
    X, rngs = batch.X, batch.rngs
    h = np.empty((len(rngs), X.shape[0], batch.num_hidden))
    x = np.empty((len(rngs), X.shape[0], batch.num_visible))
    with np.errstate(over="ignore"):
        h_data = h_mean = hidden_conditional_mean(batch, X)
        for k in range(config.n):
            if k:
                h_mean = hidden_conditional_mean(batch, x)
            _draw_per_run(h_mean, rngs, h)
            _draw_per_run(visible_conditional_mean(batch, h), rngs, x)
        h_model = hidden_conditional_mean(batch, x)
    np.matmul(h_data.mT, X, out=batch.dW)
    batch.dW -= np.matmul(h_model.mT, x)
    batch.db[:, 0] = batch.X_count - x.sum(axis=1)  # bit counts: exact in any order
    np.add.reduce(h_data - h_model, axis=1, keepdims=True, out=batch.dc)
    apply_update(batch, config)


def run_gibbs_chain_per_round(
    params: RbmParams, x1: np.ndarray, n: int, rng: np.random.Generator
) -> GibbsChain:
    """``run_gibbs_chain`` with every round drawing its hidden and then its
    visible sample, one generator call each."""
    x = x1 = np.asarray(x1, dtype=np.float64)
    hiddens, visibles = [], []
    with np.errstate(over="ignore"):
        for k in range(n):
            h_mean = hidden_conditional_mean(params, x)
            if k == 0:
                h1_mean = h_mean
            hiddens.append(sample_bernoulli(h_mean, rng.random(h_mean.shape)))
            x_mean = visible_conditional_mean(params, hiddens[-1])
            x = sample_bernoulli(x_mean, rng.random(x_mean.shape))
            visibles.append(x)
    return GibbsChain(x1=x1, h1_mean=h1_mean, hiddens=np.stack(hiddens), visibles=np.stack(visibles))


def generate_samples_per_sample(
    params: RbmParams, count: int, burn_in: int, thin: int, rng: np.random.Generator
) -> np.ndarray:
    """``experiment.generate_samples`` as one ``run_gibbs_chain_per_round``
    segment per sample: burn_in + thin rounds for the first, thin after."""
    x = sample_bernoulli(0.5, rng.random(params.num_visible))
    samples, rounds = [], burn_in + thin
    for _ in range(count):
        x = run_gibbs_chain_per_round(params, x, rounds, rng).x_last
        samples.append(x)
        rounds = thin
    return np.stack(samples)


def measure_one(
    params: RbmParams,
    X: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
    epoch: int,
    work=fresh,
) -> MetricsRecord:
    """``_measure`` on a one-run batch: the run's record."""
    batch = RunBatch([params], X, [np.random.default_rng(0)])
    (record,) = _measure(batch, config, [rng], epoch, work)
    return record


def zero_params(num_visible: int, num_hidden: int) -> RbmParams:
    """All-zero parameters (the uniform model)."""
    return RbmParams(
        np.zeros((num_hidden, num_visible)),
        np.zeros(num_visible),
        np.zeros(num_hidden),
    )


def energy(params: RbmParams, x: np.ndarray, h: np.ndarray):
    """E(x, h) = -b.x - c.h - h.W.x.

    Returns a float for single vectors, an array for batched inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    _check_last_dim(x, params.num_visible, "x")
    _check_last_dim(h, params.num_hidden, "h")
    interaction = np.einsum("...j,ji,...i->...", h, params.W, x)
    val = -(x @ params.b) - (h @ params.c) - interaction
    return float(val) if np.ndim(val) == 0 else val


def unnormalized_marginal(params: RbmParams, x: np.ndarray):
    """sum_h e^{-E(x, h)}; exponentiation of the canonical log form."""
    return np.exp(log_unnormalized_marginal(params, x))


@dataclass
class XiProbe:
    """A probe reconstruction y = E[x|h_s] for one training sample."""

    variant: XiVariant
    y: np.ndarray

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.y.ndim != 1:
            raise ValueError(f"probe y must be a vector, got shape {self.y.shape}")
        if (self.y < 0).any() or (self.y > 1).any():
            raise ValueError("probe components must lie in [0, 1]")


def reconstruction_log_prob(params: RbmParams, x: np.ndarray) -> float:
    """log P(x | E[h|x]) for one data vector: -sum_i softplus((1 - 2 x_i) z_i)
    with z = b + W^T E[h|x]."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        z = params.b + hidden_conditional_mean(params, x) @ params.W
    return -float(np.sum(softplus((1.0 - 2.0 * x) * z)))


def mean_reconstruction_log_prob(params: RbmParams, X: np.ndarray, h_mean: np.ndarray | None = None):
    """``criteria.mean_reconstruction_log_prob`` of the data matrix X, with
    E[h|X] computed when it is not given."""
    X = np.asarray(X, dtype=np.float64)
    if h_mean is None:
        with np.errstate(over="ignore"):
            h_mean = hidden_conditional_mean(params, X)
    return criteria.mean_reconstruction_log_prob(params, 1.0 - 2.0 * X, h_mean)


def exact_log_likelihood(params: RbmParams, data: Dataset) -> float:
    """Total data log-likelihood with the exact partition function."""
    lz = log_partition(params)
    return float(np.sum(log_unnormalized_marginal(params, data.matrix())) - len(data) * lz)


def xi_probe(
    params: RbmParams,
    chain: GibbsChain,
    variant: XiVariant,
    rng: np.random.Generator,
) -> XiProbe:
    """Build the probe reconstruction for the sample a chain was run on."""
    if variant is XiVariant.RANDOM_HIDDEN:
        h_s = rng.random(params.num_hidden)
    elif variant is XiVariant.COMPLEMENT_H1:
        h_s = 1.0 - chain.h1
    elif variant is XiVariant.COMPLEMENT_MEAN_H:
        h_s = 1.0 - chain.h1_mean
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown probe variant {variant!r}")
    with np.errstate(over="ignore"):
        y = visible_conditional_mean(params, h_s)
    return XiProbe(variant=variant, y=y)


def log_xi(params: RbmParams, data: Dataset, probes: list[XiProbe]) -> float:
    """Log of the training-to-probe probability ratio, partition-free:
    sum_i [log sum_h e^{-E(x_i,h)} - log sum_h e^{-E(y_i,h)}].

    probes[k] must have been generated for data sample k.
    """
    if len(probes) != len(data):
        raise ValueError(
            f"need one probe per sample: {len(probes)} probes, {len(data)} samples"
        )
    Y = np.stack([p.y for p in probes])
    return float(
        np.sum(log_unnormalized_marginal(params, data.matrix()))
        - np.sum(log_unnormalized_marginal(params, Y))
    )


def enumerate_binary_vectors(num_bits: int) -> np.ndarray:
    """All 2^num_bits binary vectors as a (2^num_bits, num_bits) matrix."""
    if num_bits > 20:
        raise EnumerationInfeasibleError(
            f"refusing to materialize 2^{num_bits} binary vectors"
        )
    return _binary_block(num_bits, 0, 1 << num_bits)


def log_partition_larger_layer(params: RbmParams) -> float:
    """log Z enumerated over the layer ``log_partition`` does not enumerate:
    the log-sum-exp of ``log_unnormalized_marginal`` over the visible states
    when the hidden layer is the smaller (H <= V), and over the hidden states,
    through the model with its layers swapped, otherwise."""
    if params.num_hidden > params.num_visible:
        params = RbmParams(params.W.T, params.c, params.b)
    return float(logsumexp(log_unnormalized_marginal(params, enumerate_binary_vectors(params.num_visible))))


def exact_gradient(params: RbmParams, data: Dataset) -> GradientEstimate:
    """Exact mean log-likelihood gradient by full visible enumeration.

    Positive phase as in the CD estimator; negative phase weights every
    visible state by its exact probability.
    """
    X_all = enumerate_binary_vectors(params.num_visible)
    log_w = log_unnormalized_marginal(params, X_all)
    prob = np.exp(log_w - logsumexp(log_w))
    X = data.matrix()
    with np.errstate(over="ignore"):
        H_all = hidden_conditional_mean(params, X_all)
        H_data = hidden_conditional_mean(params, X)
    count = X.shape[0]
    return GradientEstimate(
        dW=H_data.T @ X / count - (H_all * prob[:, None]).T @ X_all,
        db=X.mean(axis=0) - prob @ X_all,
        dc=H_data.mean(axis=0) - prob @ H_all,
    )


def cd_gradient(
    params: RbmParams, x1: np.ndarray, n: int, rng: np.random.Generator
) -> tuple[GradientEstimate, GibbsChain]:
    """Per-sample CD-n gradient estimate for a single training vector.

    Positive phase: hidden conditional mean at x1, which the chain's first
    round already computed.  Negative phase: hidden conditional mean at the
    chain's last visible sample x_{n+1}.  The chain is returned so callers
    can reuse its first hidden sample.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    if x1.ndim != 1:
        raise ValueError(f"x1 must be a single vector, got shape {x1.shape}")
    chain = run_gibbs_chain(params, x1, n, rng)
    h_pos = chain.h1_mean
    x_neg = chain.x_last
    with np.errstate(over="ignore"):
        h_neg = hidden_conditional_mean(params, x_neg)
    grad = GradientEstimate(
        dW=np.outer(h_pos, x1) - np.outer(h_neg, x_neg),
        db=x1 - x_neg,
        dc=h_pos - h_neg,
    )
    return grad, chain


def train_params_to_epoch(config: ExperimentConfig, run_index: int, epoch: int) -> RbmParams:
    """Run ``run_index``'s parameters as of ``epoch``, from ``run_single`` on
    the same config cut to that horizon.

    The training stream is independent of the measurement stream, so the
    parameter trajectory of a shorter run is a prefix of the full run's.
    """
    if epoch > config.training.epochs:
        raise ValueError(f"epoch {epoch} beyond the horizon {config.training.epochs}")
    config = replace(config, training=replace(config.training, epochs=epoch, measure_every=epoch))
    (result,) = run_single(config, [run_index], build_dataset(config).matrix())
    if result.aborted:
        raise ExperimentError(f"run {run_index} aborted: {result.abort_reason}")
    return result.final_params


def measure_full_chain(
    params: RbmParams,
    X: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
    epoch: int,
) -> MetricsRecord:
    """The snapshot of ``experiment._measure``, computed from the whole
    CD-n chain and with fresh arrays throughout."""
    count = X.shape[0]
    chain = run_gibbs_chain(params, X, config.training.n, rng)
    h_random = rng.random((count, params.num_hidden))

    log_um_x = np.sum(log_unnormalized_marginal(params, X))

    def probe_total(h_s: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            Y = visible_conditional_mean(params, h_s)
        return float(log_um_x - np.sum(log_unnormalized_marginal(params, Y)))

    log_xi_random = probe_total(h_random)
    log_xi_complement = probe_total(1.0 - chain.h1)
    log_xi_mean_h = None
    if config.mean_h_enabled:
        log_xi_mean_h = probe_total(1.0 - chain.h1_mean)

    log_likelihood = float(log_um_x - count * log_partition(params))
    recon_mean = mean_reconstruction_log_prob(params, X, chain.h1_mean)

    return MetricsRecord(
        epoch=epoch,
        log_likelihood=log_likelihood,
        log_xi_random=log_xi_random,
        log_xi_complement=log_xi_complement,
        log_recon_mean=recon_mean,
        log_likelihood_mean=log_likelihood / count,
        log_xi_complement_mean_h=log_xi_mean_h,
    )


def split_csv(path) -> tuple[list[str], list[list]]:
    """A written metric CSV as its header and its rows of numbers.  A cell
    written as an integer (epoch, seed, n_runs) is read as int, so a 64-bit
    seed compares exactly; every other cell is read with ``float()``."""
    header, *lines = Path(path).read_text(encoding="ascii").splitlines()
    rows = [[int(c) if c.lstrip("-").isdigit() else float(c) for c in ln.split(",")] for ln in lines]
    return header.split(","), rows

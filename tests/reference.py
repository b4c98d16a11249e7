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
uniforms in one call.  The chain also takes a batch of start vectors,
computes every visible mean and keeps all of its samples in a
``GibbsChain``; the package's chain is the sampler's, from one start
vector, with a cache of visible means, returning the visible draws.
Unlike ``oracles.py`` they share code with the package: agreement shows
that the batched paths combine the primitives correctly, not that the
primitives themselves are right.  The energy, the
plain marginal, the exact log-likelihood, log Z enumerated over the larger
layer (the route ``log_partition`` does not take), the reconstruction term
with its hidden mean computed for it, the per-element softplus and the
all-zero model are here too, because only tests use them.  So is ``split_csv``, which splits a written
metric CSV into numbers: the package writes those files and reads none.

The package's kernels take unit-major blocks with each layer's always-on
unit (``rbm``); ``visible_block`` and ``hidden_block`` build them from
row-major vectors and matrices, and ``hidden_mean``, ``visible_mean`` and
``log_marginal`` are the means and the marginal on row-major input, for
the tests that state quantities per row.  Where these functions call the
conditional means directly, they silence the overflow of saturated
sigmoids with ``np.errstate`` as the package's batch operations do.
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
    DimensionMismatchError,
    RbmParams,
    fresh,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    sample_bernoulli,
    visible_conditional_mean,
)
from cdmonitor.training import RunBatch, TrainingConfig, apply_update, train_epoch


@dataclass
class GradientEstimate:
    """Ascent direction for the data log-likelihood (positive minus negative phase)."""

    dW: np.ndarray
    db: np.ndarray
    dc: np.ndarray


def visible_block(x: np.ndarray) -> np.ndarray:
    """[x; 1] of a (V,) vector, or [x^T; 1], (..., V+1, N), of (..., N, V) rows."""
    x = np.asarray(x, dtype=np.float64)
    rows = x[None] if x.ndim == 1 else x
    block = np.ones((*rows.shape[:-2], rows.shape[-1] + 1, rows.shape[-2]))
    block[..., :-1, :] = rows.mT
    return block[..., 0] if x.ndim == 1 else block


def hidden_block(h: np.ndarray) -> np.ndarray:
    """[1; h] of an (H,) vector, or [1; h^T], (..., H+1, N), of (..., N, H) rows."""
    h = np.asarray(h, dtype=np.float64)
    rows = h[None] if h.ndim == 1 else h
    block = np.ones((*rows.shape[:-2], rows.shape[-1] + 1, rows.shape[-2]))
    block[..., 1:, :] = rows.mT
    return block[..., 0] if h.ndim == 1 else block


def _rows(block: np.ndarray) -> np.ndarray:
    """A unit-major (..., K, N) result as (..., N, K) rows; a vector as it is."""
    return block if block.ndim == 1 else block.mT


def hidden_mean(params, x: np.ndarray) -> np.ndarray:
    """E[h|x] of a (V,) vector or of (..., N, V) rows, row-major, from the package's mean."""
    with np.errstate(over="ignore"):
        return _rows(hidden_conditional_mean(params, visible_block(x)))


def visible_mean(params, h: np.ndarray) -> np.ndarray:
    """E[x|h] of an (H,) vector or of (..., N, H) rows, row-major, from the package's mean."""
    with np.errstate(over="ignore"):
        return _rows(visible_conditional_mean(params, hidden_block(h)))


def log_marginal(params, x: np.ndarray):
    """``log_unnormalized_marginal`` of a (V,) vector or of (..., N, V) rows."""
    return log_unnormalized_marginal(params, visible_block(x))


def set_gradient(batch: RunBatch, r: int, grad: GradientEstimate) -> None:
    """Write ``grad`` into run r's gradient, in theta's layout [[db, 0], [dW, dc]]."""
    batch.grad[r] = 0.0
    batch.grad[r, 1:, :-1], batch.grad[r, 0, :-1], batch.grad[r, 1:, -1] = grad.dW, grad.db, grad.dc


def apply_update_one(params: RbmParams, grad: GradientEstimate, config: TrainingConfig) -> RbmParams:
    """``apply_update`` on a one-run batch: the parameters after one step along ``grad``."""
    batch = RunBatch([params], np.zeros((1, params.num_visible)), [np.random.default_rng(0)])
    set_gradient(batch, 0, grad)
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
    generator, hidden then visible, unit by unit, into blocks of its own,
    and the gradient as the difference of its two products."""
    rngs, (N, V), H = batch.rngs, batch.X.shape, batch.num_hidden
    h_data, h_model = np.ones((2, len(rngs), H + 1, N))
    h, x = np.ones((len(rngs), H + 1, N)), np.ones((len(rngs), V + 1, N))
    with np.errstate(over="ignore"):
        h_data[:, 1:] = h_mean = hidden_conditional_mean(batch, visible_block(batch.X))
        for k in range(config.n):
            if k:
                h_mean = hidden_conditional_mean(batch, x)
            _draw_per_run(h_mean, rngs, h[:, 1:])
            _draw_per_run(visible_conditional_mean(batch, h), rngs, x[:, :-1])
        h_model[:, 1:] = hidden_conditional_mean(batch, x)
    np.subtract(h_data @ batch.X1, h_model @ x.mT, out=batch.grad)
    apply_update(batch, config)


@dataclass
class GibbsChain:
    """Samples from a block Gibbs chain h_1, x_2, ..., h_n, x_{n+1}.

    ``hiddens[k]`` and ``visibles[k]`` are the binary samples of round k+1;
    leading batch dimensions of ``x1`` are preserved, so ``hiddens`` has
    shape (n, ..., H) and ``visibles`` shape (n, ..., V).  ``h1_mean`` is
    E[h|x1], the mean round 1 draws h_1 from, shape (..., H).
    """

    x1: np.ndarray
    h1_mean: np.ndarray
    hiddens: np.ndarray
    visibles: np.ndarray

    @property
    def h1(self) -> np.ndarray:
        """First hidden sample, kept for the complement probe."""
        return self.hiddens[0]

    @property
    def x_last(self) -> np.ndarray:
        """Last visible sample x_{n+1}."""
        return self.visibles[-1]


def unit_major_uniforms(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Uniforms for a (K,) vector or (N, K) rows, drawn unit by unit as the
    package draws a layer's: uniform j*N + n goes to unit j of row n."""
    return rng.random(shape[::-1]).T


def run_gibbs_chain_per_round(
    params: RbmParams, x1: np.ndarray, n: int, rng: np.random.Generator
) -> GibbsChain:
    """The Gibbs chain of ``rbm.run_gibbs_chain`` with every round drawing
    its hidden and then its visible samples, one generator call each, and
    computing every conditional mean.  It also takes a batch of start
    vectors, drawing each round's N*H hidden uniforms and then its N*V
    visible ones, each layer's unit by unit, and returns every sample: it
    is the CD-n chain of ``measure_full_chain`` and ``cd_gradient``."""
    x = x1 = np.asarray(x1, dtype=np.float64)
    hiddens, visibles = [], []
    for k in range(n):
        h_mean = hidden_mean(params, x)
        if k == 0:
            h1_mean = h_mean
        hiddens.append(sample_bernoulli(h_mean, unit_major_uniforms(rng, h_mean.shape)))
        x_mean = visible_mean(params, hiddens[-1])
        x = sample_bernoulli(x_mean, unit_major_uniforms(rng, x_mean.shape))
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
    if x.shape[-1:] != (params.num_visible,) or h.shape[-1:] != (params.num_hidden,):
        raise DimensionMismatchError(f"x {x.shape} and h {h.shape} do not match the model")
    interaction = np.einsum("...j,ji,...i->...", h, params.W, x)
    val = -(x @ params.b) - (h @ params.c) - interaction
    return float(val) if np.ndim(val) == 0 else val


def unnormalized_marginal(params: RbmParams, x: np.ndarray):
    """sum_h e^{-E(x, h)}; exponentiation of the canonical log form."""
    return np.exp(log_marginal(params, x))


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


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) of a float array, element by element, as
    max(z, 0) + log1p(e^{-|z|}); z is left as it was.

    The exponent is never positive, so nothing overflows at any finite z.
    The package sums these terms over units as the log of a bounded product
    (``rbm._softplus_sum``); this is the per-element form the tests hold
    that sum to.
    """
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def reconstruction_log_prob(params: RbmParams, x: np.ndarray) -> float:
    """log P(x | E[h|x]) for one data vector: -sum_i softplus((1 - 2 x_i) z_i)
    with z = b + W^T E[h|x]."""
    x = np.asarray(x, dtype=np.float64)
    z = params.b + hidden_mean(params, x) @ params.W
    return -float(np.sum(softplus((1.0 - 2.0 * x) * z)))


def mean_reconstruction_log_prob(params: RbmParams, X: np.ndarray, h_mean: np.ndarray | None = None):
    """``criteria.mean_reconstruction_log_prob`` of the data matrix X, with
    E[h|X] computed when it is not given."""
    X = np.asarray(X, dtype=np.float64)
    if h_mean is None:
        h_mean = hidden_mean(params, X)
    return criteria.mean_reconstruction_log_prob(params, np.ascontiguousarray(2.0 * X.T - 1.0), hidden_block(h_mean))


def exact_log_likelihood(params: RbmParams, data: Dataset) -> float:
    """Total data log-likelihood with the exact partition function."""
    lz = log_partition(params)
    return float(np.sum(log_marginal(params, data.matrix())) - len(data) * lz)


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
    return XiProbe(variant=variant, y=visible_mean(params, h_s))


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
        np.sum(log_marginal(params, data.matrix()))
        - np.sum(log_marginal(params, Y))
    )


def enumerate_binary_vectors(num_bits: int) -> np.ndarray:
    """All 2^num_bits binary vectors as a (2^num_bits, num_bits) matrix."""
    if num_bits > 20:
        raise EnumerationInfeasibleError(
            f"refusing to materialize 2^{num_bits} binary vectors"
        )
    return _binary_block(num_bits, 0, 1 << num_bits)[:-1].T


def log_partition_larger_layer(params: RbmParams) -> float:
    """log Z enumerated over the layer ``log_partition`` does not enumerate:
    the log-sum-exp of ``log_unnormalized_marginal`` over the visible states
    when the hidden layer is the smaller (H <= V), and over the hidden states,
    through the model with its layers swapped, otherwise."""
    if params.num_hidden > params.num_visible:
        params = RbmParams(params.W.T, params.c, params.b)
    return float(logsumexp(log_marginal(params, enumerate_binary_vectors(params.num_visible))))


def exact_gradient(params: RbmParams, data: Dataset) -> GradientEstimate:
    """Exact mean log-likelihood gradient by full visible enumeration.

    Positive phase as in the CD estimator; negative phase weights every
    visible state by its exact probability.
    """
    X_all = enumerate_binary_vectors(params.num_visible)
    log_w = log_marginal(params, X_all)
    prob = np.exp(log_w - logsumexp(log_w))
    X = data.matrix()
    H_all = hidden_mean(params, X_all)
    H_data = hidden_mean(params, X)
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
    chain = run_gibbs_chain_per_round(params, x1, n, rng)
    h_pos = chain.h1_mean
    x_neg = chain.x_last
    h_neg = hidden_mean(params, x_neg)
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
    CD-n chain and with fresh arrays throughout.  The data marginal takes
    X's hidden pre-activation from ``hidden_conditional_mean``, as the
    snapshot does: its own product theta.[X^T; 1] may round differently in
    the last bit."""
    count = X.shape[0]
    chain = run_gibbs_chain_per_round(params, X, config.training.n, rng)
    h_random = unit_major_uniforms(rng, (count, params.num_hidden))

    pre = np.empty((params.num_hidden, count))
    with np.errstate(over="ignore"):
        hidden_conditional_mean(params, visible_block(X), pre=pre)
    lum_x = log_unnormalized_marginal(params, visible_block(X), pre=pre)
    log_um_x = np.sum(lum_x)

    def probe_total(h_s: np.ndarray) -> float:
        return float(np.sum(lum_x - log_marginal(params, visible_mean(params, h_s))))

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

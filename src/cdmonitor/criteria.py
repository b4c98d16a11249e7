"""Monitored quantities: reconstruction probability, the partition-free
probability-ratio diagnostic, and brute-force exact log-likelihood.

The ratio diagnostic compares the probability of the training set X against
that of a probe set Y built to have low probability under a well-trained
model:

    ratio = prod_i P(x_i) / P(y_i)

Both probabilities share the same partition function, which therefore
cancels; each factor reduces to a ratio of unnormalized marginals, so the
whole quantity is computable without ever normalizing the model.  Probes
are visible conditional means E[x|h_s] for hidden vectors h_s chosen to
differ from the ones the data activates: uniformly random, or the binary
complement of the first hidden sample of the data point's Gibbs chain, or
the complement of the data point's hidden conditional mean.

Exact log-likelihood and the exact gradient enumerate the smaller layer
outright; both exist to keep desk-scale models honest and to serve as
test oracles, never as training signals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .datasets import Dataset
from .rbm import (
    GibbsChain,
    RbmParams,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    softplus,
    visible_conditional_mean,
)
from .training import GradientEstimate

# Replaces -inf per-sample reconstruction log-probabilities so that
# aggregates stay finite; occurrences are counted and surfaced separately.
LOG_PROB_SENTINEL = -1e300

# Enumeration beyond this many bits in the smaller layer is refused.
ENUMERATION_LIMIT_BITS = 25
_CHUNK_BITS = 16


class EnumerationInfeasibleError(ValueError):
    """Exact enumeration was requested for a layer that is too large."""


class XiVariant(enum.Enum):
    """How the low-probability hidden vector h_s is chosen."""

    RANDOM_HIDDEN = "random_hidden"
    COMPLEMENT_H1 = "complement_h1"
    COMPLEMENT_MEAN_H = "complement_mean_h"


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


@dataclass
class MetricsRecord:
    """One measurement epoch's monitored values (all logs in nats).

    log_likelihood and the ratio diagnostics are dataset totals;
    log_recon_mean is the per-sample mean so differently sized datasets
    plot on comparable scales.  log_xi_complement_mean_h is only populated
    when the mean-complement probe variant is enabled.
    """

    epoch: int
    log_likelihood: float
    log_xi_random: float
    log_xi_complement: float
    log_recon_mean: float
    log_likelihood_mean: float
    log_xi_complement_mean_h: float | None = None


@dataclass
class PartitionValue:
    log_z: float


def bernoulli_log_prob(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log prod_i Bernoulli(x_i; p_i) over the last axis, -inf on impossible bits."""
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_q = np.log1p(-p)
    return np.where(x > 0.5, log_p, log_q).sum(axis=-1)


def reconstruction_log_prob(params: RbmParams, x: np.ndarray) -> float:
    """log P(x | E[h|x]): the factorized Bernoulli probability of the data
    vector under the visible conditional evaluated at the hidden mean.

    A conditional mean saturated to exactly 0 or 1 against a mismatching bit
    makes the true value -inf; it is clamped to LOG_PROB_SENTINEL.
    """
    p = visible_conditional_mean(params, hidden_conditional_mean(params, x))
    val = float(bernoulli_log_prob(x, p))
    return max(val, LOG_PROB_SENTINEL)


def mean_reconstruction_log_prob(
    params: RbmParams, X: np.ndarray, h_mean: np.ndarray | None = None
) -> tuple[float, int]:
    """Per-sample mean of reconstruction_log_prob over a batch.

    ``h_mean`` is E[h|X] when the caller already has it (a Gibbs chain
    started at X computes it in its first round); it is computed otherwise.
    Returns (mean, number of samples clamped to the sentinel).
    """
    if h_mean is None:
        h_mean = hidden_conditional_mean(params, X)
    p = visible_conditional_mean(params, h_mean)
    vals = np.atleast_1d(bernoulli_log_prob(X, p))
    guarded = int(np.isneginf(vals).sum())
    vals = np.maximum(vals, LOG_PROB_SENTINEL)
    return float(vals.mean()), guarded


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
    return XiProbe(variant=variant, y=visible_conditional_mean(params, h_s))


def log_xi_from_matrices(params: RbmParams, X: np.ndarray, Y: np.ndarray) -> float:
    """sum_i [log sum_h e^{-E(x_i,h)} - log sum_h e^{-E(y_i,h)}]."""
    return float(
        np.sum(log_unnormalized_marginal(params, X))
        - np.sum(log_unnormalized_marginal(params, Y))
    )


def log_xi(params: RbmParams, data: Dataset, probes: list[XiProbe]) -> float:
    """Log of the training-to-probe probability ratio, partition-free.

    probes[k] must have been generated for data sample k.
    """
    if len(probes) != len(data):
        raise ValueError(
            f"need one probe per sample: {len(probes)} probes, {len(data)} samples"
        )
    Y = np.stack([p.y for p in probes])
    return log_xi_from_matrices(params, data.matrix(), Y)


def _binary_block(num_bits: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the full 2^num_bits enumeration; bit j is column j."""
    idx = np.arange(start, stop, dtype=np.uint64)[:, None]
    return ((idx >> np.arange(num_bits, dtype=np.uint64)) & 1).astype(np.float64)


def enumerate_binary_vectors(num_bits: int) -> np.ndarray:
    """All 2^num_bits binary vectors as a (2^num_bits, num_bits) matrix."""
    if num_bits > 20:
        raise EnumerationInfeasibleError(
            f"refusing to materialize 2^{num_bits} binary vectors"
        )
    return _binary_block(num_bits, 0, 1 << num_bits)


def log_partition(params: RbmParams, layer: str | None = None) -> PartitionValue:
    """log Z by exhaustive enumeration over one layer.

    Summing over hidden vectors h, each term collapses the visible layer in
    closed form: c.h + sum_i softplus(b_i + (W^T h)_i); the visible-side
    route is symmetric.  ``layer`` forces "hidden" or "visible"; by default
    the smaller layer is enumerated.  Enumeration runs in fixed-order blocks
    so the reduction is bit-reproducible.
    """
    V, H = params.num_visible, params.num_hidden
    if layer is None:
        layer = "hidden" if H <= V else "visible"
    if layer not in ("hidden", "visible"):
        raise ValueError(f"layer must be 'hidden' or 'visible', got {layer!r}")
    bits = H if layer == "hidden" else V
    if bits > ENUMERATION_LIMIT_BITS:
        raise EnumerationInfeasibleError(
            f"{layer} layer has {bits} units, exact enumeration capped at "
            f"{ENUMERATION_LIMIT_BITS}"
        )
    if layer == "hidden":
        lin_w, lin_m, lin_b = params.c, params.W, params.b
    else:
        lin_w, lin_m, lin_b = params.b, params.W.T, params.c
    total = 1 << bits
    block = 1 << min(bits, _CHUNK_BITS)
    partials = []
    for start in range(0, total, block):
        states = _binary_block(bits, start, min(start + block, total))
        terms = states @ lin_w + softplus(states @ lin_m + lin_b).sum(axis=1)
        partials.append(logsumexp(terms))
    return PartitionValue(log_z=float(logsumexp(partials)))


def exact_log_likelihood(params: RbmParams, data: Dataset) -> float:
    """Total data log-likelihood with the exact partition function."""
    lz = log_partition(params).log_z
    return float(np.sum(log_unnormalized_marginal(params, data.matrix())) - len(data) * lz)


def exact_gradient(params: RbmParams, data: Dataset) -> GradientEstimate:
    """Exact mean log-likelihood gradient by full visible enumeration.

    Positive phase as in the CD estimator; negative phase weights every
    visible state by its exact probability.  Test oracle for tiny models.
    """
    V = params.num_visible
    X_all = enumerate_binary_vectors(V)
    log_w = log_unnormalized_marginal(params, X_all)
    prob = np.exp(log_w - logsumexp(log_w))
    H_all = hidden_conditional_mean(params, X_all)

    X = data.matrix()
    H_data = hidden_conditional_mean(params, X)
    count = X.shape[0]
    return GradientEstimate(
        dW=H_data.T @ X / count - (H_all * prob[:, None]).T @ X_all,
        db=X.mean(axis=0) - prob @ X_all,
        dc=H_data.mean(axis=0) - prob @ H_all,
    )

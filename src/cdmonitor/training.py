"""Contrastive divergence gradient estimation and parameter updates.

The CD-n estimate replaces the intractable model expectation in the
log-likelihood gradient with statistics of x_{n+1}, the visible state
reached after n rounds of Gibbs sampling started at the data point.  For
binary units the hidden expectations conditioned on a visible vector are
exact sigmoids, so both phases use conditional means; only the chain's
intermediate states are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .rbm import NonFiniteParameterError, RbmParams, hidden_conditional_mean, run_gibbs_chain


@dataclass
class TrainingConfig:
    """CD order, update-rule constants, and the measurement schedule."""

    n: int = 1
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    epochs: int = 10000
    measure_every: int = 50

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"CD order n must be >= 1, got {self.n}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.measure_every < 1:
            raise ValueError(f"measure_every must be >= 1, got {self.measure_every}")


@dataclass
class GradientEstimate:
    """Ascent direction for the data log-likelihood (positive minus negative phase)."""

    dW: np.ndarray
    db: np.ndarray
    dc: np.ndarray


def init_params(
    num_visible: int,
    num_hidden: int,
    rng: np.random.Generator,
    weight_std: float,
) -> RbmParams:
    """Gaussian weights (mean 0, given std), zero biases."""
    W = rng.normal(0.0, weight_std, size=(num_hidden, num_visible))
    return RbmParams(W, np.zeros(num_visible), np.zeros(num_hidden))


def apply_update(
    params: RbmParams, grad: GradientEstimate, config: TrainingConfig
) -> RbmParams:
    """One ascent step: W <- W + LR*(dW - WD*W), biases without decay.

    Decay applies to W only; biases do not saturate the sigmoids the decay
    exists to protect.
    """
    lr = config.learning_rate
    wd = config.weight_decay
    try:
        return RbmParams(
            params.W + lr * (grad.dW - wd * params.W),
            params.b + lr * grad.db,
            params.c + lr * grad.dc,
        )
    except NonFiniteParameterError as exc:
        raise NonFiniteParameterError(f"update produced non-finite parameters: {exc}") from None


def train_epoch(
    params: RbmParams,
    data: Dataset,
    config: TrainingConfig,
    rng: np.random.Generator,
) -> RbmParams:
    """One full-batch epoch: per-sample CD gradients accumulated over the
    whole training set, then a single update.

    The accumulated (summed) gradient makes an epoch's movement match a
    full pass of per-sample updates at the same learning rate while keeping
    the update deterministic and sample-order independent; averaging
    instead would shrink the step by a factor of N and no learning would
    happen at the configured rates.  Weight decay is applied once per
    epoch, by apply_update, at its plain strength.

    The whole batch advances through one shared Gibbs schedule, drawing the
    N*H hidden uniforms and then the N*V visible uniforms per round.  The
    per-sample estimator run over the dataset in order draws each sample's
    H then V uniforms in turn instead, so the two give the same step in
    distribution, and bit for bit only when N = 1.

    The positive phase reuses the chain's E[h|X], so a CD-n epoch computes
    n+1 hidden conditional means: one per Gibbs round and one for the
    negative phase.
    """
    if len(data) == 0:
        raise ValueError("training dataset is empty")
    X = data.matrix()
    chain = run_gibbs_chain(params, X, config.n, rng)
    h_pos = chain.h1_mean
    x_neg = chain.x_last
    with np.errstate(over="ignore"):
        h_neg = hidden_conditional_mean(params, x_neg)
    grad = GradientEstimate(
        dW=h_pos.T @ X - h_neg.T @ x_neg,
        db=(X - x_neg).sum(axis=0),
        dc=(h_pos - h_neg).sum(axis=0),
    )
    return apply_update(params, grad, config)

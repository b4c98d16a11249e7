"""Contrastive divergence gradient estimation and parameter updates.

The CD-n estimate replaces the intractable model expectation in the
log-likelihood gradient with statistics of x_{n+1}, the visible state
reached after n rounds of Gibbs sampling started at the data point.  For
binary units the hidden expectations conditioned on a visible vector are
exact sigmoids, so both phases use conditional means; only the chain's
intermediate states are sampled.

Training advances a ``RunBatch``, the runs of a sweep that one process
trains together: their parameters are stacked and updated in place, and
every buffer an epoch needs is allocated once, when the batch is built.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .rbm import (
    DimensionMismatchError,
    NonFiniteParameterError,
    RbmParams,
    Workspace,
    _negate_operands,
    _new_operands,
    hidden_conditional_mean,
    sample_bernoulli,
    visible_conditional_mean,
)


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
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.measure_every < 1:
            raise ValueError(f"measure_every must be >= 1, got {self.measure_every}")


def init_params(
    num_visible: int,
    num_hidden: int,
    rng: np.random.Generator,
    weight_std: float,
) -> RbmParams:
    """Gaussian weights (mean 0, given std), zero biases."""
    W = rng.normal(0.0, weight_std, size=(num_hidden, num_visible))
    return RbmParams(W, np.zeros(num_visible), np.zeros(num_hidden))


class RunBatch:
    """R training runs on one (N, V) training matrix X, advanced together in place.

    Layout (see ``rbm``): ``theta`` (R, H+1, V+1) stacks the runs'
    [[b, 0], [W, c]] matrices, so one scan checks all of a run's
    parameters.  ``hidden_operand`` (R, H+1, V+1), its rows 1:
    ``neg_hidden`` (R, H, V+1), and ``neg_visible`` (R, V, H+1) are the
    negated operands the conditional means read, read-only views of arrays
    that the batch's construction and every ``apply_update``, the only
    writer of ``theta``, refresh; the always-on row [0, ..., 0, -64] of
    ``hidden_operand`` is written once, at construction.  ``grad`` holds
    the epoch's ascent direction in theta's layout, its corner 0.  ``X1`` = [X, 1] (N, V+1),
    ``XT1`` = [X^T; 1] (V+1, N) and ``weights``, 1 on theta's W block and 0
    elsewhere, are read-only constants; ``signs`` = 2X^T - 1 (V, N) is the
    reconstruction's.  Run r draws its chain from ``rngs[r]``.

    The other arrays are an epoch's workspace, allocated here once.
    ``draws`` holds one Gibbs round of each run as an (H+V+2, N) block
    [1; h^T; x^T; 1]: ``hidden`` (R, H+1, N) is [1; h^T] and ``visible``
    (R, V+1, N) is [x^T; 1], each contiguous with its ones row, and the
    round's N*(H+V) uniforms fill the rows between, unit by unit, where
    the round's samples replace them; ``uniforms`` (R, N*(H+V)) views
    those rows of each run as one contiguous row.  The hidden means are
    whole [1; E[h|x]^T] blocks (see ``hidden_conditional_mean``): ``h_data``
    (R, H+1, N) holds round 1's, E[h|X], the positive phase, and ``h_model``
    (R, H+1, N) later rounds' and the negative phase's; ``x_mean`` (R, V,
    N) holds the visible means.  ``h_data_current`` is True while
    ``h_data`` holds E[h|X] at the current parameters, as a snapshot leaves
    it for the next epoch's positive phase; ``apply_update`` clears it.  Between epochs a snapshot
    borrows ``h_model``, ``hidden`` and ``visible``, which an epoch writes
    before it reads, and its scratch is ``work``, the batch's own
    ``Workspace``.
    """

    def __init__(self, params: Sequence[RbmParams], X: np.ndarray, rngs: Sequence[np.random.Generator]) -> None:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"training matrix must be (N, V) with N >= 1, got shape {X.shape}")
        if not params or len(params) != len(rngs):
            raise ValueError(f"need one generator per run: {len(params)} runs, {len(rngs)} generators")
        (N, V), H, R = X.shape, params[0].num_hidden, len(params)
        if any(p.W.shape != (H, V) for p in params):
            raise DimensionMismatchError(f"every run's W must be ({H}, {V}) to match X {X.shape}")
        self.X = X
        self.num_visible, self.num_hidden = V, H
        self.X1 = np.ones((N, V + 1))
        self.X1[:, :V] = X
        self.XT1 = np.ascontiguousarray(self.X1.T)
        self.signs = np.ascontiguousarray(2.0 * X.T - 1.0)
        self.rngs = list(rngs)
        self.theta = np.stack([p.theta for p in params])
        self.grad = np.zeros_like(self.theta)
        self.product = np.empty_like(self.theta)  # the negative phase, then the decay
        self.weights = np.zeros((H + 1, V + 1))
        self.weights[1:, :V] = 1.0
        self._operands = _new_operands(self.theta)
        self.hidden_operand, self.neg_visible = (a.view() for a in self._operands)
        self.h_data, self.h_model = np.ones((R, H + 1, N)), np.ones((R, H + 1, N))
        self.h_data_current = False
        self.x_mean = np.empty((R, V, N))
        self.draws = np.ones((R, H + V + 2, N))
        self.hidden, self.visible = self.draws[:, : H + 1], self.draws[:, H + 1 :]
        self.uniforms = self.draws.reshape(R, -1)[:, N:-N]
        self.finite = np.empty(self.theta.shape, dtype=bool)
        self.work = Workspace()
        for a in (self.X1, self.XT1, self.weights, self.hidden_operand, self.neg_visible):
            a.setflags(write=False)
        self.neg_hidden = self.hidden_operand[:, 1:]

    def params(self, r: int) -> RbmParams:
        """A copy of run r's parameters."""
        theta = self.theta[r]
        return RbmParams(theta[1:, :-1], theta[0, :-1], theta[1:, -1])

    def select(self, runs: Sequence[int]) -> "RunBatch":
        """A new batch of the runs at positions ``runs``, with their generators."""
        return RunBatch([self.params(r) for r in runs], self.X, [self.rngs[r] for r in runs])


def apply_update(batch: RunBatch, config: TrainingConfig) -> None:
    """One ascent step of every run, in place: W <- W + LR*(dW - WD*W),
    biases without decay, then one finiteness scan per run.

    Decay applies to the W block only, as theta times ``weights`` (1 there,
    0 on the biases and the corner); biases do not saturate the sigmoids
    the decay exists to protect.  The step is evaluated in the order the
    formula is written, so the new parameters have the bits a fresh
    evaluation of it gives; theta's corner moves by LR times the
    gradient's, which is 0.  The step refreshes the negated operands and
    marks ``h_data`` stale, even when it raises.  If some runs' parameters
    are no longer finite, NonFiniteParameterError names their positions in
    ``runs``; the other runs stand updated.
    """
    decay = np.multiply(batch.theta, batch.weights, out=batch.product)
    decay *= config.weight_decay
    batch.grad -= decay
    batch.grad *= config.learning_rate
    batch.theta += batch.grad
    _negate_operands(batch.theta, *batch._operands)
    batch.h_data_current = False
    if not np.isfinite(batch.theta, out=batch.finite).all():
        raise NonFiniteParameterError(
            "update produced non-finite parameters: parameters contain NaN or Inf",
            runs=np.flatnonzero(~batch.finite.all(axis=(1, 2))).tolist(),
        )


def train_epoch(batch: RunBatch, config: TrainingConfig) -> None:
    """One full-batch epoch of every run in ``batch``: per-sample CD
    gradients accumulated over the whole training set, then a single
    update, in place.

    The gradient is summed over samples, not averaged, so an epoch moves
    as far as a pass of per-sample updates at the same learning rate.
    Weight decay is applied once per epoch, by apply_update.

    The whole training set advances through one shared Gibbs schedule.
    Each run draws from its own generator, per round the N*H hidden
    uniforms and then the N*V visible uniforms, each layer's unit by unit
    (uniform j*N + n goes to unit j of sample n).  The per-sample estimator
    run over the dataset in order draws each sample's H then V uniforms in
    turn instead, so the two give the same step in distribution, and bit
    for bit only when N = 1.  Each run draws a round's N*(H+V) uniforms
    with one generator call into ``batch.uniforms`` (numpy's default
    generator gives the doubles of one call per layer), and
    ``sample_bernoulli`` turns them into the round's draws in place.

    The R runs are stacked: every conditional mean, draw and product
    is one call on (R, ·, N) arrays, which numpy evaluates one run's matrix
    at a time, so each run's step has the bits it has when the run is
    trained alone, in any batch.  The chain, the gradient and the step are
    written into the batch's buffers.  Each hidden mean is written whole,
    its ones row with it; the draws threshold its rows 1:.  The whole
    gradient, dW with db and dc in theta's layout, is [1; h_data^T].[X, 1]
    - [1; h_model^T].[x^T; 1]^T, h_model holding the negative phase's mean:
    its row 0 is db, bit counts, exact in any order, its column V is dc,
    and its corner is N - N = 0.

    The positive phase reuses round 1's E[h|X], so a CD-n epoch computes
    n+1 hidden conditional means: one per Gibbs round and one for the
    negative phase.  An epoch that follows a snapshot computes n: round 1
    takes the E[h|X] the snapshot left in ``batch.h_data`` at the same
    parameters, which has the bits the epoch would compute.
    """
    hidden, visible = batch.hidden, batch.visible
    with np.errstate(over="ignore"):
        for k in range(config.n):
            # this round's uniforms overwrite the last round's x, read just before
            if k:
                h_mean = hidden_conditional_mean(batch, visible, out=batch.h_model)
            elif batch.h_data_current:
                h_mean = batch.h_data
            else:
                h_mean = hidden_conditional_mean(batch, batch.XT1, out=batch.h_data)
            for rng, row in zip(batch.rngs, batch.uniforms, strict=True):
                rng.random(out=row)
            sample_bernoulli(h_mean[:, 1:], hidden[:, 1:])
            sample_bernoulli(visible_conditional_mean(batch, hidden, out=batch.x_mean), visible[:, :-1])
        hidden_conditional_mean(batch, visible, out=batch.h_model)
    np.matmul(batch.h_data, batch.X1, out=batch.grad)
    batch.grad -= np.matmul(batch.h_model, visible.mT, out=batch.product)
    apply_update(batch, config)

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

    Run r's parameters are row r of ``theta``, one flat vector per run:
    ``W`` (R, H, V), ``b`` (R, 1, V) and ``c`` (R, 1, H) are views into it,
    in the stacked form the conditional means of ``rbm`` accept, so one
    scan checks all of a run's parameters.  ``WT`` (R, V, H) is W^T as a
    C-contiguous copy, which every x.W^T product reads, and ``neg_bias``
    (R, V+H) holds the runs' biases negated, -theta[:, H*V:], with views
    ``neg_b`` (R, 1, V) and ``neg_c`` (R, 1, H), which the conditional means
    subtract from (see ``rbm``).  Both are refreshed when the batch is built
    and by every ``apply_update``, the only writer of ``theta``.  The views
    W, b and c are read-only, so that no write can leave ``WT`` or
    ``neg_bias`` stale.  ``grad`` holds the epoch's
    ascent direction in the same layout, with views ``dW``, ``db`` and
    ``dc``.  Run r draws its chain from ``rngs[r]``.  The other arrays are
    an epoch's workspace, allocated here once.  Among them, ``ones`` holds
    N read-only ones, with which db and dc sum over samples, ``draws`` holds
    one Gibbs round's N*(H+V) uniforms per run as one row, in the order the
    run draws them, and ``h`` (R, N, H) and ``x`` (R, N, V) are its hidden
    and visible parts, where the round's samples replace its uniforms.
    ``h_data_current`` is True while ``h_data`` holds E[h|X] at the current
    parameters, as a snapshot leaves it for the next epoch's positive
    phase; ``apply_update`` clears it.
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
        self.X_count = X.sum(axis=0)  # per-unit count of on bits in X
        self.ones = np.ones(N)
        self.ones.setflags(write=False)
        # 1 - 2X^T, unit-major (V, N): log P(X|z) = -sum softplus(signs * z), read by snapshots
        self.signs = np.ascontiguousarray((1.0 - 2.0 * X).T)
        self.rngs = list(rngs)
        self.theta = np.empty((R, H * V + V + H))
        self.grad = np.empty_like(self.theta)
        self.W, self.b, self.c = _views(self.theta, H, V)
        self.dW, self.db, self.dc = _views(self.grad, H, V)
        for r, p in enumerate(params):
            self.W[r], self.b[r, 0], self.c[r, 0] = p.W, p.b, p.c
        for a in (self.W, self.b, self.c):
            a.setflags(write=False)
        self.WT = self.W.mT.copy()
        self.neg_bias = np.negative(self.theta[:, H * V :])
        self.neg_b = self.neg_bias[:, :V].reshape(R, 1, V)
        self.neg_c = self.neg_bias[:, V:].reshape(R, 1, H)
        self.h_data = np.empty((R, N, H))  # E[h|X]: round 1's mean and the positive phase
        self.h_data_current = False
        self.h_model = np.empty((R, N, H))  # later rounds' means, then the negative phase
        self.x_mean = np.empty((R, N, V))
        self.draws = np.empty((R, N * (H + V)))
        self.h = self.draws[:, : N * H].reshape(R, N, H)
        self.x = self.draws[:, N * H :].reshape(R, N, V)
        self.decay = np.empty((R, H, V))
        self.finite = np.empty(self.theta.shape, dtype=bool)

    @staticmethod
    def bytes_per_run(N: int, V: int, H: int) -> int:
        """Memory one run adds to a batch on an (N, V) training matrix with H
        hidden units: its rows of ``theta``, ``grad``, ``WT``, ``neg_bias``,
        the epoch's workspace and the bool ``finite``."""
        P = H * V + V + H
        return 8 * (3 * N * H + 2 * N * V + 2 * P + 2 * H * V + V + H) + P

    def params(self, r: int) -> RbmParams:
        """A copy of run r's parameters."""
        return RbmParams(self.W[r], self.b[r, 0], self.c[r, 0])

    def select(self, runs: Sequence[int]) -> "RunBatch":
        """A new batch of the runs at positions ``runs``, with their generators."""
        return RunBatch([self.params(r) for r in runs], self.X, [self.rngs[r] for r in runs])


def _views(theta: np.ndarray, H: int, V: int):
    """(W, b, c) views of flat per-run parameter rows, shapes (R, H, V), (R, 1, V), (R, 1, H)."""
    R, HV = theta.shape[0], H * V
    return (
        theta[:, :HV].reshape(R, H, V),
        theta[:, HV : HV + V].reshape(R, 1, V),
        theta[:, HV + V :].reshape(R, 1, H),
    )


def apply_update(batch: RunBatch, config: TrainingConfig) -> None:
    """One ascent step of every run, in place: W <- W + LR*(dW - WD*W),
    biases without decay, then one finiteness scan per run.

    Decay applies to W only; biases do not saturate the sigmoids the decay
    exists to protect.  The step is evaluated in the order the formula is
    written, so the new parameters have the bits a fresh evaluation of it
    gives.  The step refreshes ``WT`` and, with one ``np.negative`` over
    both biases, ``neg_bias``, and marks ``h_data`` stale, even when it
    raises.  If some runs' parameters are no longer finite,
    NonFiniteParameterError names their positions in ``runs``; the other
    runs stand updated.
    """
    np.multiply(batch.W, config.weight_decay, out=batch.decay)
    batch.dW -= batch.decay
    batch.grad *= config.learning_rate
    batch.theta += batch.grad
    np.copyto(batch.WT, batch.W.mT)
    np.negative(batch.theta[:, batch.num_hidden * batch.num_visible :], out=batch.neg_bias)
    batch.h_data_current = False
    if not np.isfinite(batch.theta, out=batch.finite).all():
        raise NonFiniteParameterError(
            "update produced non-finite parameters: parameters contain NaN or Inf",
            runs=np.flatnonzero(~batch.finite.all(axis=1)).tolist(),
        )


def train_epoch(batch: RunBatch, config: TrainingConfig) -> None:
    """One full-batch epoch of every run in ``batch``: per-sample CD
    gradients accumulated over the whole training set, then a single
    update, in place.

    The accumulated (summed) gradient makes an epoch's movement match a
    full pass of per-sample updates at the same learning rate while keeping
    the update deterministic and sample-order independent; averaging
    instead would shrink the step by a factor of N and no learning would
    happen at the configured rates.  Weight decay is applied once per
    epoch, by apply_update, at its plain strength.

    The whole training set advances through one shared Gibbs schedule.
    Each run draws from its own generator, per round the N*H hidden
    uniforms and then the N*V visible uniforms.  The per-sample estimator
    run over the dataset in order draws each sample's H then V uniforms in
    turn instead, so the two give the same step in distribution, and bit
    for bit only when N = 1.  A round's uniforms do not depend on the
    model, so each run draws all N*(H+V) of them with one generator call
    into its row of ``batch.draws``; numpy's default generator gives the
    same doubles that way as one call per layer, and ``sample_bernoulli``
    turns them into the round's draws in place.

    The R runs are stacked: every conditional mean, draw and product
    is one call on (R, N, ·) arrays, which numpy evaluates one run's matrix
    at a time, so each run's step has the bits it has when the run is
    trained alone, in any batch.  The chain, the gradient and the step are
    written into the batch's buffers.

    The positive phase reuses round 1's E[h|X], so a CD-n epoch computes
    n+1 hidden conditional means: one per Gibbs round and one for the
    negative phase.  An epoch that follows a snapshot computes n: round 1
    takes the E[h|X] the snapshot left in ``batch.h_data`` at the same
    parameters, which has the bits the epoch would compute.
    """
    X, h, x = batch.X, batch.h, batch.x
    with np.errstate(over="ignore"):
        for k in range(config.n):
            # this round's uniforms overwrite the last round's x, read just before
            if k:
                h_mean = hidden_conditional_mean(batch, x, out=batch.h_model)
            elif batch.h_data_current:
                h_mean = batch.h_data
            else:
                h_mean = hidden_conditional_mean(batch, X, out=batch.h_data)
            for rng, row in zip(batch.rngs, batch.draws, strict=True):
                rng.random(out=row)
            sample_bernoulli(h_mean, h)
            sample_bernoulli(visible_conditional_mean(batch, h, out=batch.x_mean), x)
        h_model = hidden_conditional_mean(batch, x, out=batch.h_model)
    # dW = h_data^T X - h_model^T x, db = sum_n (X - x), dc = sum_n (h_data - h_model),
    # each sum over n a product with the batch's ones.  db counts bits,
    # exactly in any order, so it is X's counts minus x's.
    np.matmul(batch.h_data.mT, X, out=batch.dW)
    batch.dW -= np.matmul(h_model.mT, x, out=batch.decay)
    db = np.matmul(batch.ones, x, out=batch.db[:, 0])
    np.subtract(batch.X_count, db, out=db)
    np.matmul(batch.ones, np.subtract(batch.h_data, h_model, out=batch.h_data), out=batch.dc[:, 0])
    apply_update(batch, config)

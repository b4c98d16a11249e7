"""Monitored quantities: reconstruction probability, the partition-free
probability-ratio diagnostic, and the exact log partition function.

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

The reconstruction probability is computed in log space, as a sum of
softplus terms of the visible pre-activations, so it is exact at any
finite pre-activation: a conditional mean saturated against its data bit
gives a large finite penalty, never log 0, and the monitor needs no guard
value for -inf.  That sum, like the marginals', is the log of a bounded
product per sample (``rbm._softplus_sum``).

The exact log partition function enumerates the smaller layer's marginals
outright; it exists to keep desk-scale models honest, never as a training
signal.
The per-sample forms of these quantities, the exact log-likelihood and
the exact gradient are test references and live in
``tests/reference.py``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .rbm import RbmParams, _item, _softplus_sum, fresh, log_unnormalized_marginal

# Enumeration beyond this many bits in the smaller layer is refused.
ENUMERATION_LIMIT_BITS = 25
_CHUNK_BITS = 16
# Elements (2 MB) a per-block temporary of log_partition may hold for a
# stack of models, unless one model's block alone is larger.
_STACK_ELEMENTS = 1 << 18


class EnumerationInfeasibleError(ValueError):
    """Exact enumeration was requested for a layer that is too large."""


class XiVariant(enum.Enum):
    """How the low-probability hidden vector h_s is chosen."""

    RANDOM_HIDDEN = "random_hidden"
    COMPLEMENT_H1 = "complement_h1"
    COMPLEMENT_MEAN_H = "complement_mean_h"


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


def mean_reconstruction_log_prob(params: RbmParams, signs: np.ndarray, h_mean: np.ndarray, work=fresh):
    """Per-sample mean over a data batch X of log P(x | E[h|x]): the
    factorized Bernoulli probability of each data vector under the visible
    conditional evaluated at its hidden mean.

    With z = b + W^T E[h|x], the visible pre-activation at the hidden mean,
    log P(x_i | z_i) = -softplus((1 - 2 x_i) z_i) = -softplus((2 x_i - 1)
    (-z_i)), which is exact at any finite z_i.  ``signs`` is 2X^T - 1, a
    unit-major (V, N) array, which the caller computes once per data batch;
    ``h_mean`` is the hidden block [1; E[h|X]^T], (..., H+1, N), whose
    E[h|X] a Gibbs chain started at X computes in its first round.  -z is
    one product with the visible mean's operand ``neg_visible``, unit-major
    (..., V, N), and its softplus terms are summed down the rows by
    ``_softplus_sum`` (see ``rbm``).  ``work`` is a ``Workspace`` for the
    (..., V, N) blocks.  A stack of models gives a new (R,) array of means.
    """
    N = h_mean.shape[-1]
    z = np.matmul(params.neg_visible, h_mean, out=work("recon.z", (*h_mean.shape[:-2], params.num_visible, N)))
    z *= signs
    vals = _softplus_sum(z, work)
    # minus the sum over N divided by N, as -vals.mean(axis=-1) computes it,
    # in half its time
    return _item(-np.add.reduce(vals, axis=-1) / N)


def _binary_block(num_bits: int, start: int, stop: int) -> np.ndarray:
    """States start..stop-1 of the full 2^num_bits enumeration as the
    unit-major block [s^T; 1], (num_bits+1, rows) and C-contiguous; bit j
    of state k is row j of column k."""
    idx = np.arange(start, stop, dtype=np.uint64)
    block = np.ones((num_bits + 1, stop - start))
    np.bitwise_and(idx >> np.arange(num_bits, dtype=np.uint64)[:, None], 1, out=block[:-1], casting="unsafe")
    return block


@functools.lru_cache(maxsize=1)
def _all_states(num_bits: int) -> np.ndarray:
    """The whole 2^num_bits enumeration as one read-only block, kept for the
    next call.  Only enumerations of one block (at most _CHUNK_BITS bits) are
    cached, so the cache holds at most 2^16 states."""
    states = _binary_block(num_bits, 0, 1 << num_bits)
    states.setflags(write=False)
    return states


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log sum exp(v) of finite values along the last axis, shifted by the
    maximum; v is overwritten."""
    m = v.max(axis=-1, keepdims=True)
    np.subtract(v, m, out=v)
    return m[..., 0] + np.log(np.exp(v, out=v).sum(axis=-1))


def log_partition(params: RbmParams, work=fresh):
    """log Z by exhaustive enumeration over the smaller layer: the log-sum-exp
    of ``log_unnormalized_marginal`` over its states, which sums the other
    layer out in closed form.  The hidden layer (on a tie too) goes through
    the model with its layers swapped, whose theta is theta^T with both
    axes reversed, [[c', 0], [W'^T, b']] for c, W and b with their units in
    reverse order: its marginal at h is c.h + sum_i softplus(b_i + (W^T
    h)_i), and the reversal only renames the states enumerated.  The
    states come as unit-major blocks [s^T; 1] of M states.  Enumeration
    runs in fixed-order blocks so the reduction is bit-reproducible; a
    layer that fits one block reuses its states from the previous call.  A
    stack of R models gives a new (R,) array, each model's blocks reduced
    along the last axis as one model's are; the models go through in groups
    small enough that a block's temporaries hold at most _STACK_ELEMENTS
    values, or one model's block.  More than ENUMERATION_LIMIT_BITS units
    in the smaller layer raise ``EnumerationInfeasibleError``.  ``work`` is
    a ``Workspace`` for the per-block temporaries.
    """
    theta = params.theta
    if params.num_hidden <= params.num_visible:
        theta = np.ascontiguousarray(theta.mT[..., ::-1, ::-1])
    bits = theta.shape[-1] - 1  # the model's visible layer, the one enumerated
    if bits > ENUMERATION_LIMIT_BITS:
        raise EnumerationInfeasibleError(
            f"the smaller layer has {bits} units, exact enumeration capped at "
            f"{ENUMERATION_LIMIT_BITS}"
        )
    total = 1 << bits
    block = 1 << min(bits, _CHUNK_BITS)

    def enumerate_blocks(model):
        partials = []
        for start in range(0, total, block):
            states = _all_states(bits) if block == total else _binary_block(bits, start, start + block)
            partials.append(_logsumexp(log_unnormalized_marginal(model, states, work)))
        # one block's partial is already log Z: log-sum-exp of one value returns it
        return partials[0] if len(partials) == 1 else _logsumexp(np.stack(partials, axis=-1))

    group = max(1, _STACK_ELEMENTS // (block * theta.shape[-2]))
    if theta.ndim == 2 or len(theta) <= group:
        return _item(enumerate_blocks(theta))
    lz = np.empty(len(theta))
    for g in range(0, len(theta), group):
        lz[g : g + group] = enumerate_blocks(theta[g : g + group])
    return lz

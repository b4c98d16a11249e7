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

Exact log-likelihood enumerates the smaller layer outright; it exists to
keep desk-scale models honest, never as a training signal.  The
per-sample forms of these quantities and the exact gradient are test
references and live in ``tests/reference.py``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .rbm import (
    RbmParams,
    _bias_product,
    _item,
    fresh,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    softplus,
    visible_conditional_mean,
)

# Replaces -inf per-sample reconstruction log-probabilities so that
# aggregates stay finite; occurrences are counted and surfaced separately.
LOG_PROB_SENTINEL = -1e300

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


def bernoulli_log_prob(x: np.ndarray, p: np.ndarray, work=fresh) -> np.ndarray:
    """log prod_i Bernoulli(x_i; p_i) over the last axis, -inf on impossible bits.

    ``x`` broadcasts against ``p``, so one (N, V) data matrix serves a
    stacked (R, N, V) ``p``.  ``work`` is a ``Workspace`` to take the
    temporaries and the returned array from.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    log_p = work("blp.log_p", p.shape)
    log_q = work("blp.log_q", p.shape)
    with np.errstate(divide="ignore"):
        np.log(p, out=log_p)
        np.log1p(np.negative(p, out=log_q), out=log_q)
    # log_p where the bit is on, log_q elsewhere: selected in place, which
    # takes about the time of np.where without allocating its result.
    np.putmask(log_q, np.greater(x, 0.5, out=work("blp.on", p.shape, bool)), log_p)
    return np.sum(log_q, axis=-1, out=work("blp.sum", p.shape[:-1]))


def mean_reconstruction_log_prob(
    params: RbmParams, X: np.ndarray, h_mean: np.ndarray | None = None, work=fresh
) -> tuple[float, int]:
    """Per-sample mean over a batch of log P(x | E[h|x]): the factorized
    Bernoulli probability of each data vector under the visible conditional
    evaluated at its hidden mean.

    ``h_mean`` is E[h|X] when the caller already has it (a Gibbs chain
    started at X computes it in its first round); it is computed otherwise.
    A conditional mean saturated to exactly 0 or 1 against a mismatching
    bit makes a sample's value -inf; it is clamped to LOG_PROB_SENTINEL.
    ``work`` is a ``Workspace`` for the temporaries.  Returns (mean, number
    of samples clamped to the sentinel); a stack of models gives an (R,)
    array of each.
    """
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(over="ignore"):
        if h_mean is None:
            h_mean = hidden_conditional_mean(params, X)
        p = visible_conditional_mean(params, h_mean, out=work("recon.p", (*h_mean.shape[:-1], params.num_visible)))
    vals = np.atleast_1d(bernoulli_log_prob(X, p, work))
    guarded = np.add.reduce(np.isneginf(vals, out=work("recon.neginf", vals.shape, bool)), axis=-1)
    np.maximum(vals, LOG_PROB_SENTINEL, out=vals)
    # the sum over N divided by N, as vals.mean(axis=-1) computes it, in
    # half its time
    return _item(np.add.reduce(vals, axis=-1) / vals.shape[-1]), _item(guarded)


def _binary_block(num_bits: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the full 2^num_bits enumeration; bit j is column j."""
    idx = np.arange(start, stop, dtype=np.uint64)[:, None]
    return ((idx >> np.arange(num_bits, dtype=np.uint64)) & 1).astype(np.float64)


@functools.lru_cache(maxsize=1)
def _all_states(num_bits: int) -> np.ndarray:
    """The whole 2^num_bits enumeration as one read-only block, kept for the
    next call.  Only enumerations of one block (at most _CHUNK_BITS bits) are
    cached, so the cache holds at most 2^16 rows."""
    states = _binary_block(num_bits, 0, 1 << num_bits)
    states.setflags(write=False)
    return states


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log sum exp(v) of finite values along the last axis, shifted by the
    maximum; v is overwritten."""
    m = v.max(axis=-1, keepdims=True)
    np.subtract(v, m, out=v)
    return m[..., 0] + np.log(np.exp(v, out=v).sum(axis=-1))


def log_partition(params: RbmParams, layer: str | None = None, work=fresh):
    """log Z by exhaustive enumeration over one layer.

    Summing over hidden vectors h, each term collapses the visible layer in
    closed form: c.h + sum_i softplus(b_i + (W^T h)_i); the visible-side
    route is symmetric.  ``layer`` forces "hidden" or "visible"; by default
    the smaller layer is enumerated.  Enumeration runs in fixed-order blocks
    so the reduction is bit-reproducible; a layer that fits one block reuses
    its state matrix from the previous call.  A stack of R models gives an
    (R,) array, each model's blocks reduced along the last axis as one
    model's are; the models go through in groups small enough that a
    block's temporaries hold at most _STACK_ELEMENTS values, or one
    model's block.  ``work`` is a ``Workspace`` for the per-block
    temporaries.
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
        lin_w, lin_m, lin_b = params.b, params.W.mT, params.c
    total = 1 << bits
    block = 1 << min(bits, _CHUNK_BITS)

    def enumerate_blocks(lin_w, lin_m, lin_b):
        stack = lin_m.shape[:-2]
        partials = work("lz.partials", (*stack, total // block))
        for i, start in enumerate(range(0, total, block)):
            if block == total:
                states = _all_states(bits)
            else:
                states = _binary_block(bits, start, start + block)
            pre = np.matmul(states, lin_m, out=work("lz.pre", (*stack, block, lin_m.shape[-1])))
            pre += lin_b
            terms = softplus(pre, out=work("lz.softplus", pre.shape))
            total_terms = _bias_product(states, lin_w, work("lz.terms", (*stack, block)))
            total_terms += np.sum(terms, axis=-1, out=work("lz.sum", (*stack, block)))
            partials[..., i] = _logsumexp(total_terms)
        # one block's partial is already log Z: log-sum-exp of one value returns it
        return partials[..., 0] if i == 0 else _logsumexp(partials)

    group = max(1, _STACK_ELEMENTS // (block * lin_m.shape[-1]))
    if lin_m.ndim == 2 or len(lin_m) <= group:
        return _item(enumerate_blocks(lin_w, lin_m, lin_b))
    lz = np.empty(len(lin_m))
    for g in range(0, len(lin_m), group):
        runs = slice(g, g + group)
        lz[runs] = enumerate_blocks(lin_w[runs], lin_m[runs], lin_b[runs])
    return lz


def exact_log_likelihood(params: RbmParams, data: Dataset) -> float:
    """Total data log-likelihood with the exact partition function."""
    lz = log_partition(params)
    return float(np.sum(log_unnormalized_marginal(params, data.matrix())) - len(data) * lz)

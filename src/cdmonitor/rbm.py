"""Binary restricted Boltzmann machine: parameters, exact per-configuration
quantities, and block Gibbs sampling.

The model assigns a configuration (x, h) of binary visible units x and binary
hidden units h the energy

    E(x, h) = -b.x - c.h - h.W.x

with weights W of shape (hidden, visible) and biases b (visible), c (hidden).
Because the layers are conditionally independent given each other, both
P(h|x) and P(x|h) factorize into per-unit sigmoids, and the hidden layer can
be summed out in closed form.

Layout.  Each layer has an always-on unit whose weights are the other
layer's biases, so a model is one (H+1, V+1) matrix

    theta = [[b, 0],
             [W, c]]

with the hidden always-on unit as row 0 and the visible one as column V;
the corner theta[0, V] is exactly 0.  A layer enters a product unit-major
with its always-on unit: visible states as [x^T; 1], (V+1, N), or [x; 1]
for one state, hidden states as [1; h^T], (H+1, N), or [1; h].  Beside
theta, each parameter holder keeps the means' negated operands as
read-only C-contiguous arrays of their own: ``neg_hidden`` = -theta[1:],
(H, V+1), and ``neg_visible`` = -theta[:, :V]^T, (V, H+1).  A conditional
mean is one product of an operand with the other layer's block, the
negated pre-activation with its bias in it, then exp, +1 and reciprocal,
giving an (H, N) or (V, N) block, or an (H,) or (V,) vector.  An operand
whose unit axis (the last for a vector, else axis -2) is not the layer's
size plus one raises ``DimensionMismatchError`` before any product.

Stacks.  Every operation but the sampler's Gibbs chain also takes a stack
of R models in place of one (theta (R, H+1, V+1), ``neg_hidden`` (R, H,
V+1), ``neg_visible`` (R, V, H+1), as ``training.RunBatch`` holds them),
with blocks shared by all models or one per model, and gives (R, ·, N)
results; a single ``RbmParams`` is the case without R.  numpy multiplies
such stacks one model's matrix at a time, so a stacked model computes the
bits each of its models computes alone.

Bits.  Rounding to nearest is symmetric in sign, so a product with a
negated operand is the negated product bit for bit.  Where a negated
pre-activation exceeds 709.78, its exp overflows to inf and the mean is
exactly 0, the intended saturated value.  numpy reports the overflow; the
means do not silence it, but every batch operation that calls them (a
Gibbs chain, an epoch, a snapshot) enters ``np.errstate(over="ignore")``
once around all of its calls.  No other snapshot step exponentiates a
positive value.

Sums.  The monitored quantities (the marginal, and through it the ratio
diagnostics and log Z, and the reconstruction term) are per-sample sums of
softplus terms over units.  ``_softplus_sum`` takes each as the log of a
product of factors in (1, 2] down the rows of a unit-major (..., K, N)
block, whose relative error is at most gamma_K for K units.  The kernels
take an ``out`` array, and the composite quantities take their block-sized
scratch from a ``Workspace`` and return arrays of their own, so that a
batch operation repeated on the same shapes allocates no block after its
first call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DimensionMismatchError(ValueError):
    """An input vector does not match the model's layer sizes."""


class NonFiniteParameterError(FloatingPointError):
    """Model parameters contain NaN or Inf.

    Raised by a batch update, ``runs`` holds the positions in the batch of
    the runs whose parameters went non-finite; the other runs were updated
    and stay valid.
    """

    def __init__(self, message: str, runs=()) -> None:
        super().__init__(message)
        self.runs = tuple(runs)


class Workspace:
    """Scratch float64 arrays kept between calls, one per (name, shape).

    ``work(name, shape)`` returns the array handed out before under that
    name and shape, and a new one the first time, so a batch
    operation that runs many times on the same shapes (a metric snapshot)
    allocates no block after its first call, even where one call site takes
    two shapes in turn (the marginal of the data and of an enumeration
    block).  It holds scratch only: no function returns a workspace array.
    Blocks such as the (10, 16, 256) enumeration block of a stack of 10 bs
    models lie above glibc's mmap threshold, so a new one per call would be
    mapped and faulted in every time.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        a = self._arrays.get((name, shape))
        if a is None:
            a = self._arrays[name, shape] = np.empty(shape)
        return a


def fresh(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The workspace of callers that keep none: a new array on every call."""
    return np.empty(shape)


# A 0-d array adds to a small array in about half the time a Python float
# does, which numpy must convert on every call.
_ONE, _HALF = np.array(1.0), np.array(0.5)
_SIGN_BIT = np.array(1 << 63, dtype=np.uint64)  # of a float64, as its bits
_ONE.setflags(write=False)
_HALF.setflags(write=False)
_SIGN_BIT.setflags(write=False)


def _sigmoid_of_negated(z: np.ndarray) -> np.ndarray:
    """1/(1 + e^z), the sigmoid of -z, written over the caller's freshly
    built array z of negated pre-activations.

    Exactly 0 where the pre-activation -z is below -709.78 (z > 709.78),
    where e^z overflows (see the module docstring), and exactly 1 where -z
    is above 36.8 (z < -36.8), where e^z is below half an ulp of 1.
    """
    np.exp(z, out=z)
    z += _ONE
    return np.reciprocal(z, out=z)


def _negate_operands(theta: np.ndarray, neg_hidden: np.ndarray, neg_visible: np.ndarray) -> None:
    """Write -theta[..., 1:, :] into ``neg_hidden`` and -theta[..., :, :V]^T
    into ``neg_visible``: the operands of the hidden and visible means."""
    np.negative(theta[..., 1:, :], out=neg_hidden)
    np.negative(theta[..., :-1].mT, out=neg_visible)


@dataclass(eq=False)
class RbmParams:
    """Weights and biases of a binary RBM.

    W: (hidden, visible) weight matrix; row j holds the weights of hidden
    unit j.  b: visible bias, length visible.  c: hidden bias, length hidden.
    All entries must be finite at all times, including mid-training.
    ``theta`` is the (H+1, V+1) matrix [[b, 0], [W, c]] the values given are
    copied into, and W, b and c are views of it; ``neg_hidden`` and
    ``neg_visible`` are the negated operands the conditional means read
    (see the module docstring).  All six are read-only, so that none can
    go stale; new parameters are a new ``RbmParams``.
    ``==`` is identity: an elementwise comparison of arrays has no truth value.
    """

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray
    theta: np.ndarray = field(init=False, repr=False)
    neg_hidden: np.ndarray = field(init=False, repr=False)
    neg_visible: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        W, b, c = (np.asarray(a, dtype=np.float64) for a in (self.W, self.b, self.c))
        if W.ndim != 2 or b.ndim != 1 or c.ndim != 1:
            raise DimensionMismatchError(
                f"expected W 2-d, b 1-d, c 1-d; got shapes {W.shape}, {b.shape}, {c.shape}"
            )
        if W.shape != (c.size, b.size):
            raise DimensionMismatchError(
                f"W shape {W.shape} inconsistent with b (len {b.size}) and c (len {c.size})"
            )
        theta = np.zeros((c.size + 1, b.size + 1))
        theta[0, :-1], theta[1:, :-1], theta[1:, -1] = b, W, c
        if not np.isfinite(theta).all():
            raise NonFiniteParameterError("parameters contain NaN or Inf")
        self.neg_hidden, self.neg_visible = np.empty((c.size, b.size + 1)), np.empty((b.size, c.size + 1))
        _negate_operands(theta, self.neg_hidden, self.neg_visible)
        for a in (theta, self.neg_hidden, self.neg_visible):
            a.setflags(write=False)
        self.theta, self.W, self.b, self.c = theta, theta[1:, :-1], theta[0, :-1], theta[1:, -1]

    @property
    def num_visible(self) -> int:
        return self.b.size

    @property
    def num_hidden(self) -> int:
        return self.c.size


def _check_units(v: np.ndarray, size: int, what: str) -> None:
    """Raise unless v's unit axis (the last for a vector, else -2) has ``size`` units."""
    if v.ndim < 1 or v.shape[-2 if v.ndim > 1 else -1] != size:
        raise DimensionMismatchError(
            f"{what} has shape {v.shape}, expected ({size},), ({size}, N) or, for a stack, "
            f"(..., {size}, N): unit-major, with the layer's always-on unit"
        )


def _product(operand: np.ndarray, v, out: np.ndarray | None, what: str) -> np.ndarray:
    """operand times v, into ``out`` if given, once ``_check_units`` passes
    v (named ``what``).  One model times one vector without ``out`` is
    ``operand.dot(v)`` on v as it comes, such as the sampler's bool draw:
    np.matmul's cblas_dgemv and bits, without its set-up or np.asarray."""
    v = np.asarray(v)
    _check_units(v, operand.shape[-1], what)
    if out is None and operand.ndim == 2 and v.ndim == 1:
        return operand.dot(v)
    return np.matmul(operand, np.asarray(v, dtype=np.float64), out=out)


def _item(v):
    """A 0-d result as a Python scalar, any other as the array it is."""
    return v.item() if np.ndim(v) == 0 else v


# Units one product of softplus factors spans at most: each factor is at
# most 2, so a product of 1023 of them is at most 2^1023, a finite double.
_PRODUCT_UNITS = 1023


def _softplus_sum(z: np.ndarray, work=fresh) -> np.ndarray:
    """sum_k softplus(z_k) = sum_k log(1 + e^{z_k}) down axis -2 of a
    unit-major (..., K, M) block z, returned as a new (..., M) array; z is
    overwritten.

    It is evaluated as sum_k max(z_k, 0) + log prod_k (1 + e^{-|z_k|}).  No
    exponent is positive, so nothing overflows at any |z| below 2^1023, and
    every factor lies in (1, 2], so a product of at most _PRODUCT_UNITS of
    them stays finite; a longer column is reduced in such chunks.  A product of K
    rounded factors has a relative error of at most gamma_K = Ku/(1 - Ku),
    with u the unit roundoff (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002, ch. 3), so its log is as accurate as a sum of K
    rounded log1p terms, and costs one log per column instead of K.  Both
    reductions run down the block's rows, adding and multiplying whole
    contiguous rows in turn; along a short last axis the same product costs
    about twice as much.  ``work`` is a ``Workspace`` for the (..., K, M)
    block of factors.
    """
    # -|z| is z with its sign bit set, one integer pass where np.abs and
    # np.negative take two; z - (-|z|) is exactly 2 max(z, 0) below
    # |z| = 2^1023, and halving a sum of those is exact
    factors = work("softplus.factors", z.shape)
    np.bitwise_or(z.view(np.uint64), _SIGN_BIT, out=factors.view(np.uint64))
    z -= factors
    sums = np.add.reduce(z, axis=-2)
    sums *= _HALF
    np.exp(factors, out=factors)
    factors += _ONE
    for k in range(0, z.shape[-2], _PRODUCT_UNITS):
        product = np.multiply.reduce(factors[..., k : k + _PRODUCT_UNITS, :], axis=-2)
        sums += np.log(product, out=product)
    return sums


def log_unnormalized_marginal(params, x: np.ndarray, work=fresh, pre: np.ndarray | None = None):
    """log sum_h e^{-E(x, h)} = b.x + sum_j softplus(c_j + (Wx)_j).

    x is a visible block [x^T; 1], (V+1, N), or a vector [x; 1], and may be
    real-valued in [0, 1]: probe reconstructions are conditional means, and
    the formula is evaluated verbatim on them.  ``params`` is a parameter
    holder or a theta array itself, of one model or a stack of R, for which
    x is shared by all or (R, V+1, N), one block per model.  One product
    theta.x gives b.x in its row 0 and the hidden pre-activations c + Wx,
    unit-major, in rows 1:; ``_softplus_sum`` reduces those down the rows,
    finite at any finite pre-activation.  ``pre`` is x's hidden
    pre-activation in that layout, (..., H, N) or (H,) for a vector, when
    the caller already has it (as ``hidden_conditional_mean`` leaves it);
    then only row 0 is multiplied out, and ``pre`` is overwritten.  Returns
    a new (..., N) array, a float for one vector and one model; x of more
    dimensions than theta raises ``DimensionMismatchError``.  ``work`` is
    a ``Workspace`` for the (..., H+1, N) blocks.
    """
    theta = params if isinstance(params, np.ndarray) else params.theta
    x = np.asarray(x, dtype=np.float64)
    _check_units(x, theta.shape[-1], "x")
    if x.ndim > theta.ndim:
        raise DimensionMismatchError(
            f"x has shape {x.shape}, expected (V+1,), (V+1, N) or, for a stack of R models, (R, V+1, N)"
        )
    block = x if x.ndim > 1 else x[:, None]
    if pre is None:
        product = np.matmul(theta, block, out=work("lum.product", (*theta.shape[:-1], block.shape[-1])))
        bias, pre = product[..., 0, :], product[..., 1:, :]
    else:
        bias = np.matmul(theta[..., :1, :], block)[..., 0, :]
        pre = pre if pre.ndim > 1 else pre[:, None]
    val = _softplus_sum(pre, work)
    val += bias
    return _item(val if x.ndim > 1 else val[..., 0])


def hidden_conditional_mean(
    params, x: np.ndarray, out: np.ndarray | None = None, pre: np.ndarray | None = None
) -> np.ndarray:
    """E[h|x] of a visible block [x^T; 1], (..., V+1, N), as an (..., H, N)
    block, or of a vector [x; 1] as an (H,) vector: component j is
    sigmoid(c_j + (Wx)_j), written into ``out`` if given.  Given ``pre``
    too, an array of the result's shape, the pre-activation c + Wx is
    written into it."""
    z = _product(params.neg_hidden, x, out, "x")
    if pre is not None:
        np.negative(z, out=pre)
    return _sigmoid_of_negated(z)


def visible_conditional_mean(params, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """E[x|h] of a hidden block [1; h^T], (..., H+1, N), as an (..., V, N)
    block, or of a vector [1; h] as a (V,) vector: component i is
    sigmoid(b_i + (W^T h)_i), written into ``out`` if given."""
    return _sigmoid_of_negated(_product(params.neg_visible, h, out, "h"))


def sample_bernoulli(mean, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Independent Bernoulli draws with success probabilities ``mean``, over
    the caller's uniforms ``u``: each u_i is replaced by 1.0 if u_i < mean_i
    and by 0.0 otherwise, with ``mean`` broadcast to u's shape.  Returns u.
    Given ``out``, a bool array of u's shape, the draws go there as True and
    False instead, u is left as it is, and out is returned: the same
    comparisons, written without a cast to float.

    This is the one place a uniform becomes a draw.  Its callers own the
    generator calls, so each decides how many draws one call covers: numpy's
    default PCG64 generator gives the same doubles in one call as in many.
    """
    return np.less(u, mean, out=u if out is None else out)


# States each of run_gibbs_chain's two caches holds: E[x|h] for the first
# _CACHED_MEANS hidden states the chain visits and E[h|x] for the first
# _CACHED_MEANS visible ones.  All hidden states fit for H <= 11.  Both
# take about 1.4 MB at H = 14, V = 19: about 340 B a state for its bool
# key, its mean and the dict slot (measured with tracemalloc).
_CACHED_MEANS = 2048


def run_gibbs_chain(
    params: RbmParams, x: np.ndarray, n: int, rng: np.random.Generator, means: dict, hidden_means: dict
) -> np.ndarray:
    """Run n rounds of block Gibbs sampling from one visible state, a bool
    [x; 1] of shape (V+1,); returns the visible draws x_2, ..., x_{n+1} as
    the rows of an (n, V+1) bool array [x; 1].

    Each round draws a binary h from P(h|x) and then a binary x from P(x|h);
    conditional means are never substituted for samples inside the chain.
    All n rounds' uniforms come from one ``rng.random`` call, which with
    numpy's default PCG64 generator gives the doubles that one call per
    draw gives, in the same order (a round's H hidden, then its V visible
    ones).  Each round thresholds its slice with ``sample_bernoulli`` into
    bool buffers holding the always-on units, an (H+1,) [1; h] and row k
    of the returned draws, which go to the means as they are.

    E[x|h] depends only on the binary draw h, and E[h|x] only on the
    state x the round starts from (x, then the previous visible draw).
    A chain revisits both: one of 51000 rounds on an lse model (H = 10)
    visits at most 2^10 = 1024 hidden states, and one on a bs model trained
    2000 epochs visits under 1800 visible states.  So ``means`` maps the
    ``tobytes()`` of the bool draw h (H bytes) to the mean
    ``visible_conditional_mean`` returned for h, ``hidden_means`` maps the
    bool x's (V bytes) to the mean ``hidden_conditional_mean`` returned for
    x, and a round whose h or x is there thresholds the stored mean.  Each
    stored mean comes from that call on the same 0/1 vector, so the draws
    are bit for bit those of a chain that computes every mean.  Successive
    calls may share the dicts, each of which stores the first
    ``_CACHED_MEANS`` states the chain visits; past that a new state's mean
    is computed on each visit, and not stored.  The overflow of saturated
    sigmoids is silenced once around all rounds.
    """
    H, V = params.num_hidden, params.num_visible
    uniforms = rng.random((n, H + V))
    h = np.ones(H + 1, dtype=bool)
    h_draw = h[1:]
    visibles = np.ones((n, V + 1), dtype=bool)
    rounds = zip(uniforms[:, :H], uniforms[:, H:], visibles, visibles[:, :V])
    key = x[:V].tobytes()
    with np.errstate(over="ignore"):
        for u_h, u_x, x_next, x_draw in rounds:
            h_mean = hidden_means.get(key)
            if h_mean is None:
                h_mean = hidden_conditional_mean(params, x)
                if len(hidden_means) < _CACHED_MEANS:
                    hidden_means[key] = h_mean
            key = sample_bernoulli(h_mean, u_h, out=h_draw).tobytes()
            x_mean = means.get(key)
            if x_mean is None:
                x_mean = visible_conditional_mean(params, h)
                if len(means) < _CACHED_MEANS:
                    means[key] = x_mean
            key = sample_bernoulli(x_mean, u_x, out=x_draw).tobytes()
            x = x_next
    return visibles

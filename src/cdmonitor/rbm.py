"""Binary restricted Boltzmann machine: parameters, exact per-configuration
quantities, and block Gibbs sampling.

The model assigns a configuration (x, h) of binary visible units x and binary
hidden units h the energy

    E(x, h) = -b.x - c.h - h.W.x

with weights W of shape (hidden, visible) and biases b (visible), c (hidden).
Because the layers are conditionally independent given each other, both
P(h|x) and P(x|h) factorize into per-unit sigmoids, and the hidden layer can
be summed out in closed form.

All operations accept arbitrary leading batch dimensions: a (V,) vector and
an (N, V) matrix of row vectors are both valid inputs.  They also accept a
stack of R models in place of one (``W`` of shape (R, H, V), ``b``
(R, 1, V), ``c`` (R, 1, H), as ``training.RunBatch`` holds them), and then
map (N, V) or (R, N, V) inputs to (R, N, ·) outputs; a single
``RbmParams`` is the case without R.  numpy multiplies such stacks one
(N, V) x (V, H) product per model, and a bias product (x.b) one
matrix-vector product per model, the products an (N, V) input and one
model make, and every per-sample reduction runs along the contiguous last
axis, so a stacked model computes the bits each of its models computes
alone.  The kernels take an ``out`` array and the composite quantities a
``Workspace``, so that a batch operation repeated on the same shapes
allocates nothing after its first call.

The conditional means evaluate the sigmoid as 1/(1 + e^{-z}).  For
z < -709.78, e^{-z} overflows to inf and the mean is exactly 0: that is the
intended saturated value, but numpy reports the overflow.  Entering
``np.errstate(over="ignore")`` costs over a microsecond, close to a whole
batch-1 conditional mean, so the means do not enter it; every batch
operation that calls them (a Gibbs chain, a training epoch, a snapshot)
enters it once around all of its calls instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Scratch arrays kept between calls, one per name.

    ``work(name, shape)`` returns the array last handed out under ``name``
    when its shape and dtype still match, and a new one otherwise, so a
    batch operation that runs many times on the same shapes (a metric
    snapshot) allocates nothing after its first call.  Each call site uses
    its own name.  An array a function returns from a workspace is valid
    until that function's next call with the same workspace.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a


def fresh(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """The workspace of callers that keep none: a new array on every call."""
    return np.empty(shape, dtype)


def softplus(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + e^z) of a float array, as max(z, 0) + log1p(e^{-|z|}).

    The exponent is never positive, so nothing overflows at any finite z.
    Given ``out`` (of z's shape), the result is written there and z is
    overwritten as scratch; without it, z is left as it was.
    """
    scratch = None if out is None else z
    out = np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0, out=scratch)
    return out


# A 0-d array adds to a small array in about half the time a Python float
# does, which numpy must convert on every call.
_ONE = np.array(1.0)
_ONE.setflags(write=False)


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """1/(1 + e^{-z}), written over the caller's freshly built array z.

    Exactly 0 below z = -709.78, where e^{-z} overflows (see the module
    docstring), and exactly 1 above z = 36.8, where e^{-z} is below half an
    ulp of 1.
    """
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += _ONE
    return np.reciprocal(z, out=z)


@dataclass
class RbmParams:
    """Weights and biases of a binary RBM.

    W: (hidden, visible) weight matrix; row j holds the weights of hidden
    unit j.  b: visible bias, length visible.  c: hidden bias, length hidden.
    All entries must be finite at all times, including mid-training.
    """

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.W.ndim != 2 or self.b.ndim != 1 or self.c.ndim != 1:
            raise DimensionMismatchError(
                f"expected W 2-d, b 1-d, c 1-d; got shapes "
                f"{self.W.shape}, {self.b.shape}, {self.c.shape}"
            )
        if self.W.shape != (self.c.size, self.b.size):
            raise DimensionMismatchError(
                f"W shape {self.W.shape} inconsistent with "
                f"b (len {self.b.size}) and c (len {self.c.size})"
            )
        if not (
            np.isfinite(self.W).all()
            and np.isfinite(self.b).all()
            and np.isfinite(self.c).all()
        ):
            raise NonFiniteParameterError("parameters contain NaN or Inf")

    @property
    def num_visible(self) -> int:
        return self.b.size

    @property
    def num_hidden(self) -> int:
        return self.c.size


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
    def n(self) -> int:
        return self.hiddens.shape[0]

    @property
    def h1(self) -> np.ndarray:
        """First hidden sample, kept for the complement probe."""
        return self.hiddens[0]

    @property
    def x_last(self) -> np.ndarray:
        """Last visible sample x_{n+1}."""
        return self.visibles[-1]


def _check_last_dim(v: np.ndarray, size: int, what: str) -> None:
    if v.ndim < 1 or v.shape[-1] != size:
        raise DimensionMismatchError(
            f"{what} has shape {v.shape}, expected last dimension {size}"
        )


def _item(v):
    """A 0-d result as a Python scalar, any other as the array it is."""
    return v.item() if np.ndim(v) == 0 else v


def _bias_product(x: np.ndarray, bias: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x.bias over the last axis, one matrix-vector product per stacked model.

    ``bias`` is a (K,) vector or a stacked (R, 1, K) one, taken as the
    (K, 1) or (R, K, 1) column it holds; ``out`` has x's batch shape and
    is returned.
    """
    column = bias.reshape(*bias.shape[:-2], -1, 1)
    np.matmul(x, column, out=out[..., None])
    return out


def log_unnormalized_marginal(params: RbmParams, x: np.ndarray, work=fresh):
    """log sum_h e^{-E(x, h)} = b.x + sum_j softplus(c_j + (Wx)_j).

    The hidden sum collapses into a product of per-unit factors
    (1 + e^{c_j + (Wx)_j}); accumulating their logs keeps the value finite
    for pre-activations of magnitude up to ~700.  ``x`` may be real-valued
    in [0, 1]: probe reconstructions are conditional means, and the formula
    is evaluated verbatim on them.  A stack of models gives each model's
    values along the leading axis.  ``work`` is a ``Workspace`` to take
    the temporaries and the returned array from.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_last_dim(x, params.num_visible, "x")
    # matmul's output rows: the model stack broadcast against x's, then x's
    # rows (np.broadcast_shapes costs microseconds, so only when needed)
    stack = params.W.shape[:-2]
    if x.ndim > 2 and x.shape[:-2] != stack:
        stack = np.broadcast_shapes(stack, x.shape[:-2])
    batch = (*stack, *x.shape[-2:-1])
    pre = np.matmul(x, params.W.mT, out=work("lum.pre", (*batch, params.num_hidden)))
    pre += params.c
    terms = softplus(pre, out=work("lum.softplus", pre.shape))
    val = _bias_product(x, params.b, work("lum.val", batch))
    val += np.sum(terms, axis=-1, out=work("lum.sum", batch))
    return _item(val)


def hidden_conditional_mean(params: RbmParams, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """E[h|x]: component j is sigmoid(c_j + (Wx)_j), written into ``out`` if given."""
    x = np.asarray(x, dtype=np.float64)
    _check_last_dim(x, params.num_visible, "x")
    z = np.matmul(x, params.W.mT, out=out)
    z += params.c
    return _sigmoid_inplace(z)


def visible_conditional_mean(params: RbmParams, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """E[x|h]: component i is sigmoid(b_i + (W^T h)_i), written into ``out`` if given."""
    h = np.asarray(h, dtype=np.float64)
    _check_last_dim(h, params.num_hidden, "h")
    z = np.matmul(h, params.W, out=out)
    z += params.b
    return _sigmoid_inplace(z)


def sample_bernoulli(mean, u: np.ndarray) -> np.ndarray:
    """Independent Bernoulli draws with success probabilities ``mean``, over
    the caller's uniforms ``u``: each u_i is replaced by 1.0 if u_i < mean_i
    and by 0.0 otherwise, with ``mean`` broadcast to u's shape.  Returns u.

    This is the one place a uniform becomes a draw.  Its callers own the
    generator calls, so each decides how many draws one call covers: numpy's
    default PCG64 generator gives the same doubles in one call as in many.
    """
    return np.less(u, mean, out=u)


def run_gibbs_chain(
    params: RbmParams, x1: np.ndarray, n: int, rng: np.random.Generator
) -> GibbsChain:
    """Run n rounds of block Gibbs sampling from x1.

    Each round draws a binary h from P(h|x) and then a binary x from P(x|h);
    conditional means are never substituted for samples inside the chain.
    With a batched ``x1`` of shape (N, V) every round consumes the N*H hidden
    uniforms first, then the N*V visible uniforms.  All n rounds' uniforms
    come from one ``rng.random`` call, which with numpy's default PCG64
    generator gives the doubles that one call per draw gives, in the same
    order: they fill one (n, N*(H+V)) array, of which ``hiddens`` and
    ``visibles`` are views, and each round turns its own slice into draws
    with ``sample_bernoulli``.  Round 1's hidden mean is kept as
    ``h1_mean``, so callers need not compute E[h|x1] again.  Every array is
    allocated once per call.  The overflow of saturated sigmoids is
    silenced once around all rounds.
    """
    if n < 1:
        raise ValueError(f"chain length n must be >= 1, got {n}")
    x1 = np.asarray(x1, dtype=np.float64)
    _check_last_dim(x1, params.num_visible, "x1")
    batch = x1.shape[:-1]
    hidden_size = math.prod(batch) * params.num_hidden
    draws = rng.random((n, hidden_size + x1.size))
    hiddens = draws[:, :hidden_size].reshape(n, *batch, params.num_hidden)
    visibles = draws[:, hidden_size:].reshape(n, *batch, params.num_visible)
    h1_mean = np.empty(hiddens.shape[1:])
    h_later = np.empty(hiddens.shape[1:]) if n > 1 else None  # rounds 2..n's E[h|x]
    x_mean = np.empty(visibles.shape[1:])
    x = x1
    with np.errstate(over="ignore"):
        for k, (h, x_next) in enumerate(zip(hiddens, visibles)):
            sample_bernoulli(hidden_conditional_mean(params, x, out=h_later if k else h1_mean), h)
            x = sample_bernoulli(visible_conditional_mean(params, h, out=x_mean), x_next)
    return GibbsChain(x1=x1, h1_mean=h1_mean, hiddens=hiddens, visibles=visibles)

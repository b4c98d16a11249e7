"""Binary restricted Boltzmann machine: parameters, exact per-configuration
quantities, and block Gibbs sampling.

The model assigns a configuration (x, h) of binary visible units x and binary
hidden units h the energy

    E(x, h) = -b.x - c.h - h.W.x

with weights W of shape (hidden, visible) and biases b (visible), c (hidden).
Because the layers are conditionally independent given each other, both
P(h|x) and P(x|h) factorize into per-unit sigmoids, and the hidden layer can
be summed out in closed form.

All operations but the sampler's Gibbs chain accept a (V,) vector and an
(N, V) matrix of row vectors alike.  They also accept a
stack of R models in place of one (``W`` of shape (R, H, V), ``WT``
(R, V, H), ``b`` and ``neg_b`` (R, 1, V), ``c`` and ``neg_c`` (R, 1, H),
as ``training.RunBatch`` holds them), and then map (N, V) or (R, N, V)
inputs to (R, N, ·) outputs; a single ``RbmParams`` is the case without
R.  numpy multiplies such stacks one (N, V) x (V, H) product per model,
and a bias product (x.b) one matrix-vector product per model, the
products an (N, V) input and one model make.  So a stacked model computes the bits each of its
models computes alone.  The kernels take an ``out`` array, and the
composite quantities take their block-sized scratch from a ``Workspace``
and return arrays of their own, so that a batch operation repeated on
the same shapes allocates no block after its first call.

Every visible-to-hidden product x.W^T of the conditional means reads
``WT``, a C-contiguous copy of W^T that the parameter holder keeps beside
W: OpenBLAS takes 18.3 us for an lse (768, 19) x (19, 10) product through
the transposed view W.mT and 10.4 us through the contiguous copy, which
costs 0.7 us to refresh after an update.  Every hidden-to-visible product
h.W reads W itself, which is contiguous in that orientation (9.7 us,
against 19.7 us through WT.mT).  (timeit minimums at one OpenBLAS thread
on a 2-vCPU Xeon VM.)

The monitored quantities (the marginal, and through it the ratio
diagnostics and log Z, and the reconstruction term) are per-sample sums of
softplus terms over units.  ``_softplus_sum`` takes each as the log of a
product of factors in (1, 2], whose relative error is at most gamma_K for
K units, one log per sample instead of K log1p calls.  That product runs
down the rows of a unit-major (..., K, N) block, so these sums form their
pre-activations unit-major, straight out of BLAS as the transpose of the
row-major product: A^T.x^T through np.matmul(A.mT, x.mT), with the
contiguous A the row-major product x.A reads (WT for the marginal, W for
the reconstruction).  The marginal's product reads WT (13.5 us for the
lse (10, 768) block, against 15.2 us through W and 10.6 us row-major).
On the lse log Z block of 1024 states x 19 units the sum takes 48 us
against 72 us for the log1p terms and a row sum; a transposed copy of the
row-major block would cost 14.5 us of that gain, and along a short last
axis the product costs about twice as much as down the rows.  (The same
timeit minimums.)

Every parameter holder keeps its biases negated as well, read beside
``WT``: ``neg_b`` = -b and ``neg_c`` = -c.  A conditional mean forms the
product z, then -c - z in one pass over it, which is -(z + c) bit for bit
(rounding to nearest is symmetric in sign, so only the sign of an exact
zero can differ), and takes the sigmoid of that negated pre-activation as
exp, +1 and reciprocal: one pass fewer than adding the bias and negating
the sum.  W and ``WT`` are not negated.  Where the negated pre-activation
exceeds 709.78, its exp overflows to inf and the mean is exactly 0: that is
the intended saturated value, but numpy reports the overflow.  Entering
``np.errstate(over="ignore")`` costs over a microsecond, close to a whole
batch-1 conditional mean, so the means do not enter it; every batch
operation that calls them (a Gibbs chain, a training epoch, a snapshot)
enters it once around all of its calls instead; the rest of a snapshot
(softplus sums, log-sum-exp) exponentiates no positive value.
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
    mapped and faulted in every time (133 page faults a snapshot, which
    then took 1.4 times as long, on a 2-vCPU VM).
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


@dataclass(eq=False)
class RbmParams:
    """Weights and biases of a binary RBM.

    W: (hidden, visible) weight matrix; row j holds the weights of hidden
    unit j.  b: visible bias, length visible.  c: hidden bias, length hidden.
    All entries must be finite at all times, including mid-training.
    WT: W^T as a C-contiguous (visible, hidden) copy, and neg_b, neg_c: -b
    and -c, made here once, which the conditional means read (see the
    module docstring).  So the arrays are never written in place: W, b and
    c are copies of the arrays given, and all six are read-only.  New
    parameters are a new ``RbmParams``.
    ``==`` is identity: an elementwise comparison of arrays has no truth value.
    """

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray
    WT: np.ndarray = field(init=False, repr=False)
    neg_b: np.ndarray = field(init=False, repr=False)
    neg_c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.W = np.array(self.W, dtype=np.float64)
        self.b = np.array(self.b, dtype=np.float64)
        self.c = np.array(self.c, dtype=np.float64)
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
        self.WT = self.W.mT.copy()
        self.neg_b, self.neg_c = np.negative(self.b), np.negative(self.c)
        for a in (self.W, self.b, self.c, self.WT, self.neg_b, self.neg_c):
            a.setflags(write=False)

    @property
    def num_visible(self) -> int:
        return self.b.size

    @property
    def num_hidden(self) -> int:
        return self.c.size


def _check_last_dim(v: np.ndarray, size: int, what: str) -> None:
    if v.ndim < 1 or v.shape[-1] != size:
        raise DimensionMismatchError(
            f"{what} has shape {v.shape}, expected last dimension {size}"
        )


def _item(v):
    """A 0-d result as a Python scalar, any other as the array it is."""
    return v.item() if np.ndim(v) == 0 else v


def _column(v: np.ndarray) -> np.ndarray:
    """A (K,) vector or a stacked (R, 1, K) one as the (K, 1) or (R, K, 1)
    column it holds, a view."""
    return v.reshape(*v.shape[:-2], -1, 1)


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


def log_unnormalized_marginal(params: RbmParams, x: np.ndarray, work=fresh, pre: np.ndarray | None = None):
    """log sum_h e^{-E(x, h)} = b.x + sum_j softplus(c_j + (Wx)_j).

    The hidden sum collapses into a product of per-unit factors
    (1 + e^{c_j + (Wx)_j}), which overflows beyond pre-activations of ~700;
    ``_softplus_sum`` takes the log of a bounded form of that product, which
    keeps the value finite at any finite pre-activation.  ``x`` may be
    real-valued in [0, 1]: probe reconstructions are conditional means, and
    the formula is evaluated verbatim on them.  A stack of R models gives
    each model's values along the leading axis, for (N, V) rows shared by
    all or (R, N, V) rows, one set per model.  Of the model it reads ``WT``,
    ``b`` and ``c`` alone.  x comes in row-major, (..., N, V), and its
    pre-activations are formed unit-major, (..., H, N), straight out of the
    product (WT)^T.x^T, so that the sum over hidden units runs down the
    rows; the values come out as a new (..., N) array.  ``work`` is a
    ``Workspace`` for the (..., H, N) blocks.  ``pre`` is x's hidden
    pre-activation c + Wx in that unit-major layout when the caller already
    has it (as ``hidden_conditional_mean`` leaves it); it is then not
    computed again, and it is overwritten.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_last_dim(x, params.WT.shape[-2], "x")
    if x.ndim > params.WT.ndim:
        raise DimensionMismatchError(
            f"x has shape {x.shape}, expected (V,), (N, V) or, for a stack of R models, (R, N, V)"
        )
    rows = x if x.ndim > 1 else x[None]
    if pre is None:
        stack, H = params.WT.shape[:-2], params.WT.shape[-1]
        pre = np.matmul(params.WT.mT, rows.mT, out=work("lum.pre", (*stack, H, rows.shape[-2])))
        pre += _column(params.c)
    val = np.matmul(rows, _column(params.b))[..., 0]
    val += _softplus_sum(pre, work)
    return _item(val if x.ndim > 1 else val[..., 0])


def hidden_conditional_mean(
    params: RbmParams, x: np.ndarray, out: np.ndarray | None = None, pre: np.ndarray | None = None
) -> np.ndarray:
    """E[h|x]: component j is sigmoid(c_j + (Wx)_j), written into ``out`` if
    given.  Given ``pre`` as well, an (..., H, N) array for an (..., N, V) x,
    the pre-activation c + Wx is negated back from -c - Wx into it,
    transposed, unit-major, in the same pass as the copy, for a caller that
    takes the hidden softplus terms of ``log_unnormalized_marginal`` from it
    too; only the sign of an exact zero can differ from c + Wx."""
    x = np.asarray(x, dtype=np.float64)
    _check_last_dim(x, params.num_visible, "x")
    z = np.matmul(x, params.WT, out=out)
    np.subtract(params.neg_c, z, out=z)
    if pre is not None:
        np.negative(z.mT, out=pre)
    return _sigmoid_of_negated(z)


def visible_conditional_mean(params: RbmParams, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """E[x|h]: component i is sigmoid(b_i + (W^T h)_i), written into ``out`` if given."""
    h = np.asarray(h, dtype=np.float64)
    _check_last_dim(h, params.num_hidden, "h")
    z = np.matmul(h, params.W, out=out)
    np.subtract(params.neg_b, z, out=z)
    return _sigmoid_of_negated(z)


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
# _CACHED_MEANS visible ones.  Every hidden state of a model with H <= 11
# fits, and both caches together take about 1.35 MB at H = 14, V = 19,
# about 330 B a state (measured with tracemalloc).
_CACHED_MEANS = 2048


def run_gibbs_chain(
    params: RbmParams,
    x1: np.ndarray,
    n: int,
    rng: np.random.Generator,
    means: dict | None = None,
    hidden_means: dict | None = None,
) -> np.ndarray:
    """Run n rounds of block Gibbs sampling from one visible vector x1 of
    shape (V,) and 0s and 1s; returns the visible draws x_2, ..., x_{n+1}
    as an (n, V) float array of 0s and 1s.  Any other x1 raises before a
    uniform is drawn.

    Each round draws a binary h from P(h|x) and then a binary x from P(x|h);
    conditional means are never substituted for samples inside the chain.
    All n rounds' uniforms come from one ``rng.random`` call, which with
    numpy's default PCG64 generator gives the doubles that one call per
    draw gives, in the same order (a round's H hidden, then its V visible
    ones): they fill one (n, H+V) array, and each round thresholds its own
    slice with ``sample_bernoulli`` into bool buffers, an (H,) one reused
    for h and row k of an (n, V) one for x.  The bool h and x go to the
    conditional means as they are: each mean's ``np.asarray`` makes the
    float 0/1 vector a cast would, so the chain makes no copy of its own.
    The (n, V) array is cast to float once, on return.

    E[x|h] depends only on the binary draw h, and E[h|x] only on the
    vector x the round starts from (x1, then the previous visible draw).
    A chain revisits both: one of 51000 rounds on an lse model (H = 10)
    visits at most 2^10 = 1024 hidden states, and one on a bs model trained
    2000 epochs visits under 1800 visible states.  So ``means`` maps the
    ``tobytes()`` of the bool draw h (H bytes) to the mean
    ``visible_conditional_mean`` returned for h,
    ``hidden_means`` maps the bool x's (V bytes) to the mean
    ``hidden_conditional_mean`` returned for x, and a round whose h
    or x is there thresholds the stored mean.  Each stored mean comes from
    that call on the same 0/1 vector, so the draws are bit for bit those of
    a chain that computes every mean.  Successive calls may share the
    dicts; without them, the call keeps its own.  Each dict stores the
    first _CACHED_MEANS = 2048 states the chain visits, about 330 B each at
    H = 14, V = 19 (the key, an (H,) or (V,) array and the dict slot), so
    the two take about 1.35 MB.  Past that a new state's mean is computed
    as a new array on each visit, and not stored.  The overflow of
    saturated sigmoids is silenced once around all rounds.
    """
    if n < 1:
        raise ValueError(f"chain length n must be >= 1, got {n}")
    x1 = np.asarray(x1, dtype=np.float64)
    if x1.shape != (params.num_visible,):
        raise DimensionMismatchError(f"x1 has shape {x1.shape}, expected ({params.num_visible},)")
    x = x1 == 1.0
    if not (x | (x1 == 0.0)).all():
        raise ValueError("x1 must hold only 0s and 1s")
    means = {} if means is None else means
    hidden_means = {} if hidden_means is None else hidden_means
    uniforms = rng.random((n, params.num_hidden + params.num_visible))
    hidden_u, visible_u = uniforms[:, : params.num_hidden], uniforms[:, params.num_hidden :]
    h = np.empty(params.num_hidden, dtype=bool)
    visibles = np.empty((n, params.num_visible), dtype=bool)
    with np.errstate(over="ignore"):
        for u_h, u_x, x_next in zip(hidden_u, visible_u, visibles):
            key = x.tobytes()
            h_mean = hidden_means.get(key)
            if h_mean is None:
                h_mean = hidden_conditional_mean(params, x)
                if len(hidden_means) < _CACHED_MEANS:
                    hidden_means[key] = h_mean
            key = sample_bernoulli(h_mean, u_h, out=h).tobytes()
            x_mean = means.get(key)
            if x_mean is None:
                x_mean = visible_conditional_mean(params, h)
                if len(means) < _CACHED_MEANS:
                    means[key] = x_mean
            x = sample_bernoulli(x_mean, u_x, out=x_next)
    return visibles.astype(np.float64)

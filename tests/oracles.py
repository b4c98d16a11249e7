"""Independent brute-force oracles used to validate the library.

Everything here recomputes quantities from first principles: scalar loops
for the energy, exhaustive enumeration of layer configurations for all
probabilities.  None of it shares code paths with the package beyond plain
arithmetic, so agreement is meaningful.
"""

import decimal
import itertools
import math

import numpy as np


def energy_loops(W, b, c, x, h):
    """E(x, h) evaluated term by term with scalar loops."""
    H, V = len(c), len(b)
    e = 0.0
    for i in range(V):
        e -= b[i] * x[i]
    for j in range(H):
        e -= c[j] * h[j]
    for j in range(H):
        for i in range(V):
            e -= h[j] * W[j][i] * x[i]
    return e


def all_bits(n):
    """All binary vectors of length n as float lists, lexicographic."""
    return [list(map(float, bits)) for bits in itertools.product((0, 1), repeat=n)]


def marginal_weight(W, b, c, x):
    """sum_h e^{-E(x, h)} by explicit enumeration of the hidden layer."""
    return sum(math.exp(-energy_loops(W, b, c, x, h)) for h in all_bits(len(c)))


def partition(W, b, c):
    """Z by enumeration of the full joint space."""
    return sum(marginal_weight(W, b, c, x) for x in all_bits(len(b)))


def prob_h_given_x(W, b, c, x):
    """P(h_j = 1 | x) for each j, from the joint distribution."""
    H = len(c)
    den = marginal_weight(W, b, c, x)
    out = []
    for j in range(H):
        num = sum(
            math.exp(-energy_loops(W, b, c, x, h)) for h in all_bits(H) if h[j] == 1.0
        )
        out.append(num / den)
    return np.array(out)


def prob_x_given_h(W, b, c, h):
    """P(x_i = 1 | h) for each i, from the joint distribution."""
    V = len(b)
    den = sum(math.exp(-energy_loops(W, b, c, x, h)) for x in all_bits(V))
    out = []
    for i in range(V):
        num = sum(
            math.exp(-energy_loops(W, b, c, x, h)) for x in all_bits(V) if x[i] == 1.0
        )
        out.append(num / den)
    return np.array(out)


def log_likelihood(W, b, c, X):
    """Total log-likelihood of the rows of X from full enumeration."""
    z = partition(W, b, c)
    return float(sum(math.log(marginal_weight(W, b, c, list(x)) / z) for x in X))


def joint_prob_of_h_given_x(W, b, c, x, h):
    """P(h | x) for a full hidden configuration."""
    return math.exp(-energy_loops(W, b, c, x, h)) / marginal_weight(W, b, c, x)


def random_params(rng, num_visible, num_hidden, scale=0.8):
    """Random dense parameters with moderate magnitudes."""
    return (
        scale * rng.standard_normal((num_hidden, num_visible)),
        scale * rng.standard_normal(num_visible),
        scale * rng.standard_normal(num_hidden),
    )


def reconstruction_log_prob(W, b, c, x):
    """log P(x | z) for one binary vector x, with z = b + W^T E[h|x]:
    sum_i x_i z_i - ln(1 + e^{z_i}), and E[h_j|x] = 1 / (1 + e^{-a_j}) for
    a = c + W x.  Evaluated in 50-digit decimal arithmetic, where e^{800}
    neither overflows nor rounds 1 + e^{-800} to 1 before the log, so a
    model saturated against its data bits gets its exact finite value."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        H, V = len(c), len(b)
        hbar = [
            1 / (1 + (-(D(c[j]) + sum(D(W[j][i]) * D(x[i]) for i in range(V)))).exp())
            for j in range(H)
        ]
        total = D(0)
        for i in range(V):
            z = D(b[i]) + sum(D(W[j][i]) * hbar[j] for j in range(H))
            total += D(x[i]) * z - (1 + z.exp()).ln()
        return float(total)


# The 2x2 model used across the hand-checked examples.
TINY_W = [[1.0, -1.0], [0.5, 0.0]]
TINY_B = [0.1, -0.2]
TINY_C = [0.0, 0.3]


# ---------------------------------------------------------------------------
# vectorized variants: the same brute-force enumerations, fast enough for
# larger layers.  Still algorithmically independent of the library (explicit
# energy matrices and plain exp/sum, no closed-form products or log-domain
# accumulation).
# ---------------------------------------------------------------------------


def all_bits_np(n):
    return np.array(all_bits(n), dtype=np.float64)


def energy_matrix_np(W, b, c, X, Hm):
    """E(x, h) for every row pairing of X (rows x) and Hm (rows h)."""
    W, b, c = np.asarray(W), np.asarray(b), np.asarray(c)
    return -(X @ b)[:, None] - (Hm @ c)[None, :] - X @ W.T @ Hm.T


def marginal_weights_np(W, b, c, X):
    """Per-row sum_h e^{-E(x, h)} over the exhaustive hidden enumeration."""
    Hm = all_bits_np(len(c))
    return np.exp(-energy_matrix_np(W, b, c, np.asarray(X, dtype=np.float64), Hm)).sum(axis=1)


def partition_np(W, b, c):
    return float(marginal_weights_np(W, b, c, all_bits_np(len(b))).sum())


def log_likelihood_np(W, b, c, X):
    z = partition_np(W, b, c)
    return float(np.log(marginal_weights_np(W, b, c, X) / z).sum())


# ---------------------------------------------------------------------------
# log-domain variants for trained desk-scale models, whose marginals overflow
# a float64 exp and whose joint space (2^19 x 2^10 on the labeled shifter)
# is too large for one energy matrix.  Still explicit per-(x, h) energies;
# only the reductions are shifted log-sum-exps.
# ---------------------------------------------------------------------------


def log_marginal_weights_np(W, b, c, X):
    """Per-row log sum_h e^{-E(x, h)} over the exhaustive hidden enumeration."""
    neg_e = -energy_matrix_np(W, b, c, np.asarray(X, dtype=np.float64), all_bits_np(len(c)))
    m = neg_e.max(axis=1)
    return np.log(np.exp(neg_e - m[:, None]).sum(axis=1)) + m


def log_partition_chunked_np(W, b, c, block_bits=10):
    """log Z from e^{-E(x, h)} summed over the full joint space, 2^block_bits
    visible states at a time.

    -E(x, h) = x.(b + W^T h) + c.h, so one product of the block's rows
    [x, 1] with a (V+1, 2^H) matrix gives every energy of the block.  All
    energies are shifted by s = max over (x, h) of -E, which for each h is
    c.h plus the positive part of b + W^T h, so no term overflows and the
    total is at least 1.  Shifted energies are floored at -700: each such
    term is below 1e-304, so the floor moves the total by less than
    2^(V+H) * 1e-304, and it keeps exp off its slow subnormal path.  The
    block buffers are reused, which halves the time on 2^29 energies.
    """
    W, b, c = np.asarray(W), np.asarray(b), np.asarray(c)
    V = len(b)
    Hm = all_bits_np(len(c))
    fields = b[:, None] + W.T @ Hm.T
    s = float((Hm @ c + np.maximum(fields, 0.0).sum(axis=0)).max())
    coef = np.vstack([fields, Hm @ c - s])
    rows = 1 << min(block_bits, V)
    X1 = np.ones((rows, V + 1))
    neg_e = np.empty((rows, coef.shape[1]))
    bits = np.arange(V)
    total = 0.0
    for start in range(0, 1 << V, rows):
        X1[:, :V] = (np.arange(start, start + rows)[:, None] >> bits) & 1
        np.matmul(X1, coef, out=neg_e)
        np.maximum(neg_e, -700.0, out=neg_e)
        total += np.exp(neg_e, out=neg_e).sum()
    return s + math.log(total)


def log_marginal_weights_ld(W, b, c, X):
    """``log_marginal_weights_np`` in 80-bit extended precision (numpy's
    longdouble on x86-64), for references that must hold to better than
    float64's last bits."""
    W, b, c, X = (np.asarray(a, dtype=np.longdouble) for a in (W, b, c, X))
    Hm = np.asarray(all_bits(len(c)), dtype=np.longdouble)
    neg_e = (X @ b)[:, None] + (Hm @ c)[None, :] + X @ W.T @ Hm.T
    m = neg_e.max(axis=1)
    return np.log(np.exp(neg_e - m[:, None]).sum(axis=1)) + m

"""Independent brute-force references the test suite verifies the library against.

Everything here is deliberately naive — textbook formulas, explicit loops,
O(n^2) transforms — and shares no code with the library's fast paths.
"""

import math

import numpy as np


def naive_matvec(m, x):
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    rows, cols = m.shape
    out = np.zeros(rows)
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc += m[i, j] * x[j]
        out[i] = acc
    return out


def naive_matmul(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for k in range(b.shape[1]):
            acc = 0.0
            for j in range(a.shape[1]):
                acc += a[i, j] * b[j, k]
            out[i, k] = acc
    return out


def kron_definition(a, b):
    """Block matrix of all pairwise entry products, straight from the definition."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s))
    for i in range(p):
        for j in range(q):
            out[i * r : (i + 1) * r, j * s : (j + 1) * s] = a[i, j] * b
    return out


def khatri_rao_definition(a, b):
    """Columnwise Kronecker product, one column at a time."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape[1] == b.shape[1]
    cols = []
    for k in range(a.shape[1]):
        cols.append(kron_definition(a[:, k : k + 1], b[:, k : k + 1]))
    return np.hstack(cols)


def hadamard_matrix(n):
    """Sylvester-ordered Walsh-Hadamard matrix via H[i,j] = (-1)^popcount(i AND j)."""
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            h[i, j] = -1.0 if bin(i & j).count("1") % 2 else 1.0
    return h


def naive_fwht(v):
    v = np.asarray(v, dtype=float)
    return naive_matvec(hadamard_matrix(v.shape[0]), v)


def butterfly_fwht(v):
    """Radix-2 FWHT along the last axis, levels h = 1, 2, 4, ... one at a time.

    The reference for the library's order of butterflies: same pairs, same
    operand order, so a transform that keeps them matches this bit for bit.
    """
    a = np.array(v, dtype=np.float64)
    lead, n = a.shape[:-1], a.shape[-1]
    h = 1
    while h < n:
        a = a.reshape(*lead, n // (2 * h), 2, h)
        top = a[..., 0, :] + a[..., 1, :]
        bottom = a[..., 0, :] - a[..., 1, :]
        a[..., 0, :] = top
        a[..., 1, :] = bottom
        h *= 2
    return a.reshape(*lead, n)


def mixing_stage(x, signs, perm):
    """The mixed layer's fixed stage as first written: explicit zero pad to
    len(signs), sign flip, radix-2 FWHT, fancy-index gather, then scale.

    The gather returns an F-ordered array for a 2-D batch; the result's
    memory layout is part of what this reference pins.
    """
    pad = len(signs)
    padded = np.zeros((*np.shape(x)[:-1], pad))
    padded[..., : np.shape(x)[-1]] = x
    return butterfly_fwht(signs * padded)[..., perm] * (1.0 / np.sqrt(pad))


def zero_padded_block_grads(c, m, x, g):
    """(grad_c, grad_x) of the diagonal map from a zero-filled (..., k*N) copy
    of the masked upstream `g`, summed over rows in that array's C order.  The
    k*N - M coefficients past the truncated stack feed no output: their
    gradient is an exact 0.0, whatever the input (0 * inf would be NaN)."""
    k, n = len(c) // x.shape[-1], x.shape[-1]
    g_ext = np.zeros((*g.shape[:-1], k * n))
    g_ext[..., :m] = g
    blocks = g_ext.reshape(*g.shape[:-1], k, n)
    grad_c = (blocks * x[..., None, :]).reshape(-1, k * n).sum(axis=0)
    grad_c[m:] = 0.0
    return grad_c, (np.reshape(c, (k, n)) * blocks).sum(axis=-2)


def dense_embedding(c, n, m):
    """M x N stack of diagonal blocks, truncated to M rows: row r holds c[r] at column r mod N."""
    out = np.zeros((m, n))
    for r in range(m):
        out[r, r % n] = c[r]
    return out


def zhat_dense(block):
    """Explicit n x n assembly of the structured operator from its factors."""
    n = block.n
    h = hadamard_matrix(n)
    p = np.zeros((n, n))
    for i in range(n):
        p[i, block.perm[i]] = 1.0
    return (
        np.diag(block.c_diag) @ h @ np.diag(block.g_diag) @ p @ h @ np.diag(block.b_signs)
    ) / (block.sigma * np.sqrt(n))


def zhat_butterfly(block, x):
    """C H G P H B x / (sigma sqrt(n)) in the order of its definition: explicit
    zero pad to n, radix-2 FWHTs and a fancy-index P.  Unlike `zhat_dense`, it
    makes the same roundings as the library, so it pins `apply_zhat`'s bits,
    signs of zeros included.
    """
    padded = np.zeros((*np.shape(x)[:-1], block.n))
    padded[..., : np.shape(x)[-1]] = x
    mixed = butterfly_fwht(block.b_signs * padded)[..., block.perm]
    return block.c_diag * butterfly_fwht(block.g_diag * mixed) / (block.sigma * np.sqrt(block.n))


def softmax_cross_entropy(logits, label):
    """-log softmax(logits)[label] of one row and its gradient, by scalar loops
    over Python floats: shift by the max, exp, sum, log."""
    logits = [float(z) for z in logits]
    top = max(logits)
    total = 0.0
    for z in logits:
        total += math.exp(z - top)
    loss = math.log(total) - (logits[label] - top)
    grad = []
    for j, z in enumerate(logits):
        grad.append(math.exp(z - top) / total - (1.0 if j == label else 0.0))
    return loss, grad


def squared_error(prediction, target):
    """Mean of (p - t)^2 over one row and its gradient 2 (p - t) / d, by scalar loops."""
    d = len(prediction)
    loss = 0.0
    grad = []
    for p, t in zip(prediction, target):
        diff = float(p) - float(t)
        loss += diff * diff
        grad.append(2.0 * diff / d)
    return loss / d, grad

def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        bumped = x.copy()
        bumped[i] = x[i] + h
        up = f(bumped)
        bumped[i] = x[i] - h
        down = f(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def perceptron_separable(features, labels, max_iters=5000):
    """Margin-perceptron proof of linear separability (True only on convergence)."""
    X = np.hstack([features, np.ones((features.shape[0], 1))])
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    w = np.zeros(X.shape[1])
    for _ in range(max_iters):
        margins = (X @ w) * y
        if (margins > 0).all():
            return True
        worst = int(np.argmin(margins))
        w += y[worst] * X[worst]
    return False


def dense_gaussian_features(seed, rows, dim, sigma):
    """Plain (unstructured) Gaussian random-feature map, cos/sin paired.

    Draws W from numpy's own generator so the oracle shares no randomness
    machinery with the library.  Returns phi with 2*rows output features.
    """
    w = np.random.default_rng(seed).standard_normal((rows, dim)) / sigma

    def phi(v):
        z = w @ np.asarray(v, dtype=float)
        return np.concatenate([np.cos(z), np.sin(z)]) / np.sqrt(rows)

    return phi


def splitmix64(z):
    """The SplitMix64 finalizer of the rng module docstring, over a uint64 array."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_words(seed, stream, start, count):
    """Words [start, start + count) of the (seed, stream) stream, from the documented
    key(seed, stream) and word(seed, stream, counter); uint64 arithmetic wraps mod 2^64."""
    salted = np.array([stream * 0xD2B74407B1CE6E93 % 2 ** 64], dtype=np.uint64)
    key = splitmix64(splitmix64(np.array([seed], dtype=np.uint64)) ^ salted)
    counters = np.arange(start, start + count, dtype=np.uint64)
    return splitmix64(key + counters * np.uint64(0x9E3779B97F4A7C15))


def box_muller_normals(seed, stream, start, count):
    """`count` normals from a cursor at word `start`, written from the rng module
    docstring: u1 from the first half of 2*ceil(count/2) words, u2 from the second,
    r = sqrt(-2 ln u1), theta = 2 pi u2; all r cos(theta), then all r sin(theta)."""
    half = (count + 1) // 2
    w = counter_words(seed, stream, start, 2 * half)
    u1 = ((w[:half] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (w[half:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count]


def dense_sample_block(seed, d):
    """The factors (b_signs, perm, g_diag, c_diag) of a block, drawn the direct way.

    Every draw is made from `counter_words` in the documented order on stream 0:
    n sign flips, the n - 1 Fisher-Yates words, n normals, then all n*n normals
    of the chi(n) draw as one n x n matrix whose row norms are taken: O(n^2)
    memory, the reference for the streamed draw.
    """
    n = 1
    while n < d:
        n *= 2
    b_signs = np.where(counter_words(seed, 0, 0, n) & np.uint64(1), 1.0, -1.0)
    perm = list(range(n))
    for i, word in zip(range(n - 1, 0, -1), counter_words(seed, 0, n, n - 1).tolist()):
        j = word % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    start = n + n - 1
    g_diag = box_muller_normals(seed, 0, start, n)
    start += 2 * ((n + 1) // 2)
    s = np.linalg.norm(box_muller_normals(seed, 0, start, n * n).reshape(n, n), axis=1)
    return b_signs, np.array(perm, dtype=np.int64), g_diag, s / np.linalg.norm(g_diag)


def fisher_yates(seed, stream, n):
    """Permutation of n from the scalar word reference: Fisher-Yates from the top."""
    from crosswise.rng import word_at

    perm = list(range(n))
    for counter, i in enumerate(range(n - 1, 0, -1)):
        j = word_at(seed, stream, counter) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm

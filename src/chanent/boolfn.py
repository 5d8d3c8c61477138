"""Distribution functions on F_2^n, their norms and entropies.

A function f: F_2^n -> R_{>=0} is a dense numpy array of length 2^n,
indexed by the int encoding of bitspace.  The distribution function of
a random variable X is f_X(x) = 2^n * Pr[X=x]; it has mean 1 under the
uniform measure.

All entropies are in bits and 0*log(0) is taken to be 0.
"""

from __future__ import annotations

import math

import numpy as np

from .bitspace import Code

_SUM_TOL = 1e-12


def dim_of(f: np.ndarray) -> int:
    """Dimension n with len(f) == 2^n; rejects non-power-of-two lengths."""
    size = len(f)
    n = size.bit_length() - 1
    if size <= 0 or (1 << n) != size:
        raise ValueError(f"function length {size} is not a power of two")
    return n


def validate(f: np.ndarray) -> np.ndarray:
    """f as a float array; rejects bad lengths, negative values and f == 0."""
    f = np.asarray(f, dtype=float)
    dim_of(f)
    if np.any(f < 0):
        raise ValueError("function values must be nonnegative")
    if not f.any():
        raise ValueError("function must not be identically zero")
    return f


def from_code(code: Code) -> np.ndarray:
    """Distribution function of X uniform over the code."""
    f = np.zeros(1 << code.n)
    f[list(code.codewords)] = (1 << code.n) / code.size
    return f


def norm_q(f: np.ndarray, q: float) -> float:
    """(E_x f(x)^q)^(1/q) for finite q >= 1."""
    if not (q >= 1 and math.isfinite(q)):
        raise ValueError("norm_q requires finite q >= 1")
    f = np.asarray(f, dtype=float)
    return float(np.mean(f**q) ** (1 / q))


def _xlog2x(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log2(v[pos])
    return out


def ent(f: np.ndarray) -> float:
    """E f log f - (E f) log (E f), in bits."""
    f = np.asarray(f, dtype=float)
    m = float(np.mean(f))
    term = float(np.mean(_xlog2x(f)))
    if m > 0:
        term -= m * math.log2(m)
    return term


def renyi_entropy(p: np.ndarray, q: float) -> float:
    """Renyi entropy H_q of a probability vector, in bits.

    q = 1 uses the Shannon formula directly (no limit); q = inf gives
    min-entropy.  The input is renormalized when its sum is within
    1e-12 of 1 and rejected otherwise.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("negative probability")
    total = float(p.sum())
    if not abs(total - 1.0) <= _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    p = p / total
    return _renyi_from_probs(p, q)


def _renyi_from_probs(p: np.ndarray, q: float) -> float:
    if not q >= 1:
        raise ValueError("order must be >= 1")
    if q == 1:
        return float(-np.sum(_xlog2x(p)))
    if math.isinf(q):
        return float(-math.log2(p.max()))
    return float(-math.log2(np.sum(p**q)) / (q - 1))


def renyi_entropy_from_counts(counts: np.ndarray, q: float) -> float:
    """H_q of the distribution proportional to the given counts."""
    counts = np.asarray(counts, dtype=float)
    return _renyi_from_probs(counts / counts.sum(), q)


def renyi_entropy_of_function(f: np.ndarray, q: float) -> float:
    """H_q(X) for the X whose distribution function is f."""
    f = np.asarray(f, dtype=float)
    n = dim_of(f)
    return renyi_entropy(f / (1 << n), q)


def h_q(eps: float, q: float) -> float:
    """Renyi entropy of a Bernoulli(eps) bit, in bits.

    h_1 is the binary entropy function h; h_inf = -log2 max(eps, 1-eps).
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must be in [0, 1]")
    if not q >= 1:
        raise ValueError("order must be >= 1")
    if eps in (0.0, 1.0):
        return 0.0
    if q == 1:
        return -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
    if math.isinf(q):
        return -math.log2(max(eps, 1 - eps))
    return -math.log2(eps**q + (1 - eps) ** q) / (q - 1)


def binary_entropy(eps: float) -> float:
    return h_q(eps, 1)

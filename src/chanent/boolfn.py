"""Distribution functions on F_2^n, their norms and entropies.

A function f: F_2^n -> R_{>=0} is a dense numpy array of length 2^n,
indexed by the int encoding of bitspace.  The distribution function of
a random variable X is f_X(x) = 2^n * Pr[X=x]; it has mean 1 under the
uniform measure.

All entropies are in bits and 0*log(0) is taken to be 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import bitspace
from .bitspace import Code

_SUM_TOL = 1e-12


def _require_unit_interval(name: str, values: Sequence[float | None]) -> None:
    """Reject a value outside [0, 1], NaN included, as ``name``; a None is left out."""
    for value in values:
        if value is not None and not 0 <= value <= 1:
            raise ValueError(f"{name}={value} outside [0, 1]")


def _require_orders(qs: Sequence[float]) -> None:
    """Reject a Renyi order below 1, NaN included."""
    for q in qs:
        if not q >= 1:
            raise ValueError(f"order q={q} must be >= 1")


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
    f[code.codewords] = (1 << code.n) / code.size
    return f


def norm_q(f: np.ndarray, q: float) -> float:
    """(E_x f(x)^q)^(1/q) for finite q >= 1."""
    if not (q >= 1 and math.isfinite(q)):
        raise ValueError("norm_q requires finite q >= 1")
    f = np.asarray(f, dtype=float)
    return float(np.mean(f**q) ** (1 / q))


def _sum_xlog2x(v: np.ndarray) -> float:
    """Sum of v log2 v over v > 0, the terms written over the fresh array v a block at a time.

    The terms are summed whole, so the sum is that of a second, zeroed array of the terms.
    """
    flat = v.reshape(-1)
    # at most an eighth of the array: the scratch stays within 576 KiB and 9/64 of its bytes
    block = max(1, min(bitspace._BLOCK, flat.size // 8))
    log = np.empty(block)
    pos = np.empty(block, dtype=bool)
    for start in range(0, flat.size, block):
        v = flat[start : start + block]
        v_log, v_pos = log[: v.size], pos[: v.size]
        np.greater(v, 0, out=v_pos)
        np.log2(v, out=v_log, where=v_pos)
        np.multiply(v, v_log, out=v, where=v_pos)
    return float(np.sum(flat))


def ent(f: np.ndarray) -> float:
    """E f log f - (E f) log (E f), in bits, for a nonnegative f; f is not written."""
    f = np.array(f, dtype=float)  # a copy: the terms are written over it
    m = float(np.mean(f))
    term = _sum_xlog2x(f) / f.size
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
    return _renyi_from_probs(p / _probability_total(p), q)


def _probability_total(p: np.ndarray) -> float:
    """Sum of p; rejects negative entries and a sum more than 1e-12 away from 1."""
    if np.any(p < 0):
        raise ValueError("negative probability")
    total = float(p.sum())
    if not abs(total - 1.0) <= _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return total


def _renyi_from_probs(p: np.ndarray, q: float) -> float:
    """H_q of the probability vector p, which every caller makes fresh: it is overwritten."""
    _require_orders([q])
    if q == 1:
        return -_sum_xlog2x(p)
    if math.isinf(q):
        return float(-math.log2(p.max()))
    p **= q  # in place: the same power (or square) as p**q, without a second array
    return float(-math.log2(np.sum(p)) / (q - 1))


def renyi_entropy_from_counts(counts: np.ndarray, q: float) -> float:
    """H_q of the distribution proportional to the given counts."""
    counts = np.asarray(counts, dtype=float)
    return _renyi_from_probs(counts / counts.sum(), q)


def renyi_entropy_of_function(f: np.ndarray, q: float) -> float:
    """H_q(X) for the X whose distribution function is f."""
    f = np.asarray(f, dtype=float)
    n = dim_of(f)
    p = f / (1 << n)
    p /= _probability_total(p)
    return _renyi_from_probs(p, q)


def h_q(eps: float, q: float) -> float:
    """Renyi entropy of a Bernoulli(eps) bit, in bits.

    h_1 is the binary entropy function h; h_inf = -log2 max(eps, 1-eps).
    """
    _require_unit_interval("eps", [eps])
    _require_orders([q])
    if eps in (0.0, 1.0):
        return 0.0
    if q == 1:
        return -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
    if math.isinf(q):
        return -math.log2(max(eps, 1 - eps))
    return -math.log2(eps**q + (1 - eps) ** q) / (q - 1)


def binary_entropy(eps: float) -> float:
    return h_q(eps, 1)

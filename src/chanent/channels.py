"""Noise operator, coordinate-subset conditioning, and channel samplers.

The noise operator convolves a function on F_2^n with the i.i.d.
Bernoulli(eps) flip distribution; it maps the distribution function of
X to that of X + Z.  Conditioning on a coordinate subset S averages
over the fibers of S and maps f_X to the marginal f_{X_S}.
"""

from __future__ import annotations

import numpy as np

from .bitspace import subset_coords
from .boolfn import dim_of


def _axis_pairs(f: np.ndarray):
    """Yield the (lo, hi) views of each coordinate axis of f, coordinate 0 first.

    ``lo`` holds the entries whose index has that coordinate clear and
    ``hi`` the entries with it set, aligned so hi[j] is lo[j] with the
    coordinate flipped.  They are views: writing to them updates f,
    which must therefore be contiguous.
    """
    if not f.flags.c_contiguous:
        raise ValueError("f must be a contiguous array")
    n = dim_of(f)
    for i in range(n):
        t = f.reshape(1 << (n - 1 - i), 2, 1 << i)
        yield t[:, 0, :], t[:, 1, :]


def noise_operator(f: np.ndarray, eps: float) -> np.ndarray:
    """Exact convolution of f with i.i.d. Bernoulli(eps) coordinate flips.

    Applied one coordinate at a time; each step mixes f(x) with the
    value at x with that coordinate flipped, which multiplies out to
    the full eps^{|y|} (1-eps)^{n-|y|} kernel.
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must be in [0, 1]")
    out = np.array(f, dtype=float)
    scratch = np.empty((2, len(out) // 2))  # reused by every axis
    for lo, hi in _axis_pairs(out):
        # lo, hi <- (1-eps) lo + eps hi, (1-eps) hi + eps lo, in place.
        # Keep this rounding: verify's summary argmin breaks ties between
        # slacks that are equal in exact arithmetic by their last bits.
        eps_hi = np.multiply(hi, eps, out=scratch[0].reshape(lo.shape))
        eps_lo = np.multiply(lo, eps, out=scratch[1].reshape(lo.shape))
        lo *= 1 - eps
        lo += eps_hi
        hi *= 1 - eps
        hi += eps_lo
    return out


def _walsh_hadamard(f: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform of f, in f's dtype.

    Entry s is sum_x (-1)^{<s, x>} f(x); applying it twice multiplies by
    2^n.  Integer input stays exact while every partial sum fits the dtype.
    """
    out = np.array(f)
    scratch = np.empty(len(out) // 2, dtype=out.dtype)  # reused by every axis
    for lo, hi in _axis_pairs(out):
        # lo, hi <- lo + hi, lo - hi
        lo_copy = scratch.reshape(lo.shape)
        lo_copy[...] = lo
        lo += hi
        np.subtract(lo_copy, hi, out=hi)
    return out


def conditional_expectation(f: np.ndarray, mask: int) -> np.ndarray:
    """Average f over the fibers of the coordinate subset ``mask``.

    Returns a function on F_2^{|S|} whose index bit j is the j-th
    smallest coordinate of the subset.  Preserves the mean.
    """
    f = np.asarray(f, dtype=float)
    n = dim_of(f)
    if not 0 <= mask < (1 << n):
        raise ValueError("subset mask out of range")
    coords = subset_coords(mask)
    # axis n-1-i of the reshaped tensor corresponds to coordinate i
    tensor = f.reshape((2,) * n)
    drop = tuple(n - 1 - i for i in range(n) if i not in coords)
    return tensor.mean(axis=drop).reshape(-1)


def bernoulli_words(trials: int, n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """``trials`` words in F_2^n whose coordinates are i.i.d. Bernoulli(p).

    Serves as BSC noise (p = eps) and as the revealed mask of a BEC or a
    random subset (p = lam); returned as uint64 bit vectors.
    """
    bits = rng.random((trials, n)) < p
    powers = (1 << np.arange(n, dtype=np.uint64)).astype(np.uint64)
    return (bits.astype(np.uint64) * powers).sum(axis=1, dtype=np.uint64)

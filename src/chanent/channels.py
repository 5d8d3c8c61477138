"""Noise operator, coordinate-subset conditioning, and channel samplers.

The noise operator convolves a function on F_2^n with the i.i.d.
Bernoulli(eps) flip distribution; it maps the distribution function of
X to that of X + Z.  It is one XOR-shift pass along the unit columns;
the same pass along a linear code's parity-check columns gives the
syndrome distribution of the noise.  Conditioning on a coordinate
subset S averages over the fibers of S and maps f_X to f_{X_S}.
"""

from __future__ import annotations

import numpy as np

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


def _xor_shift_pass(p: np.ndarray, m: int, columns: list[int], eps: float) -> np.ndarray:
    """p <- (1-eps) p + eps p[. ^ h] for each column h in turn, in place; returns p.

    p, contiguous of length 2^m, is read as a (2,)*m cube whose axis m-1-i
    is index bit i: the shift by h is a view that flips the axes of h's bits.
    """
    cube = p.reshape((2,) * m)
    scratch = np.empty_like(cube)  # reused by every column
    for h in columns:
        # axis=() for a zero column: np.flip(x, None) would flip every axis
        axes = tuple(m - 1 - i for i in range(m) if h >> i & 1)
        np.copyto(scratch, np.flip(cube, axes))  # a ufunc on the flip would buffer 64 KiB
        # Keep this rounding: verify's summary argmin breaks ties between
        # slacks that are equal in exact arithmetic by their last bits.
        scratch *= eps
        cube *= 1 - eps
        cube += scratch
    return p


def noise_operator(f: np.ndarray, eps: float) -> np.ndarray:
    """Exact convolution of f with i.i.d. Bernoulli(eps) coordinate flips.

    The XOR-shift pass along the unit columns: mixing f with its flip on
    each coordinate multiplies out to the eps^{|y|} (1-eps)^{n-|y|} kernel.
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must be in [0, 1]")
    n = dim_of(f)
    return _xor_shift_pass(np.array(f, dtype=float), n, [1 << i for i in range(n)], eps)


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
    # axis n-1-i of the reshaped tensor corresponds to coordinate i
    tensor = f.reshape((2,) * n)
    drop = tuple(n - 1 - i for i in range(n) if not mask >> i & 1)
    return tensor.mean(axis=drop).reshape(-1)


def bernoulli_words(trials: int, n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """``trials`` words in F_2^n whose coordinates are i.i.d. Bernoulli(p).

    Serves as BSC noise (p = eps) and as the revealed mask of a BEC or a
    random subset (p = lam); returned as uint64 bit vectors.
    """
    bits = rng.random((trials, n)) < p
    powers = (1 << np.arange(n, dtype=np.uint64)).astype(np.uint64)
    return (bits.astype(np.uint64) * powers).sum(axis=1, dtype=np.uint64)

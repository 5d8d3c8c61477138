"""Noise operator and channel samplers.

The noise operator convolves a function on F_2^n with the i.i.d.
Bernoulli(eps) flip distribution; it maps the distribution function of
X to that of X + Z.  It is one XOR-shift pass along the unit columns;
the same pass gives the law of X + Z for X uniform on a code over its
cells: the cells are the cosets of the code's kernel, which is C when
the code has a generator and {0} otherwise
(``entropy_analysis.noisy_laws``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import bitspace
from .boolfn import _require_unit_interval, dim_of


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


def _xor_shift_pass(
    p: np.ndarray, m: int, columns: list[int], eps_grid: Sequence[float]
) -> np.ndarray:
    """Row e of p <- (1-eps) p + eps p[. ^ h], eps = eps_grid[e], for each column h; returns p.

    p, contiguous of shape (len(eps_grid), 2^m), is updated in place.
    Each row is read as a (2,)*m cube whose axis m-1-i is index bit i:
    the shift by h is a view that flips the axes of h's bits.  Every row
    gets the elementwise operations of a pass at its eps alone, so its
    rounding does not depend on the other rows.
    """
    cube = p.reshape((len(eps_grid),) + (2,) * m)
    scratch = np.empty_like(cube)  # reused by every column
    eps = np.array(eps_grid, dtype=float).reshape((-1,) + (1,) * m)
    keep = 1 - eps
    for h in columns:
        # axis=() for a zero column: np.flip(x, None) would flip every axis
        axes = tuple(m - i for i in range(m) if h >> i & 1)
        np.copyto(scratch, np.flip(cube, axes))  # a ufunc on the flip would buffer 64 KiB
        # Keep this rounding: verify's summary argmin breaks ties between
        # slacks that are equal in exact arithmetic by their last bits, and
        # verify reads this pass as the law of X+Z of every code.
        scratch *= eps
        cube *= keep
        cube += scratch
    return p


def noise_operator(f: np.ndarray, eps: float) -> np.ndarray:
    """Exact convolution of f with i.i.d. Bernoulli(eps) coordinate flips.

    The XOR-shift pass along the unit columns: mixing f with its flip on
    each coordinate multiplies out to the eps^{|y|} (1-eps)^{n-|y|} kernel.
    """
    _require_unit_interval("eps", [eps])
    n = dim_of(f)
    p = np.array(f, dtype=float).reshape(1, -1)
    return _xor_shift_pass(p, n, [1 << i for i in range(n)], [eps])[0]


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


def bernoulli_words(
    trials: int, n: int, ps: Sequence[float], rng: np.random.Generator
) -> list[np.ndarray]:
    """For each p in ps, ``trials`` uint32 words in F_2^n of i.i.d. Bernoulli(p) coordinates.

    Serves as BSC noise (p = eps) and as the revealed mask of a BEC or a
    random subset (p = lam).  Coordinate i of a trial is bit i of its
    word, set when the trial's i-th uniform is below p; n <= 24
    (``DENSE_CAP``) fits a word.  Every p reads the same uniforms
    (common random numbers), so each p's words are those of a draw at
    that p alone.  The uniforms are drawn ``bitspace._BLOCK // 32``
    trials at a time into one reused buffer, the same stream as one
    draw whatever the block.  Each p compares the block into 32 byte
    columns, zero past n, and packs each 8-byte lane b_0..b_7 with one
    wrapping multiply by 0x0102040810204080: the product's top byte is
    b_0 + 2 b_1 + ... + 128 b_7, and a trial's four top bytes, lowest
    lane first, are its little-endian word.
    """
    words = [np.empty(trials, dtype=np.uint32) for _ in ps]
    block = max(1, min(trials, bitspace._BLOCK // 32))  # the uint8 bit buffer is the largest array
    draw = np.empty((block, n))
    bits = np.zeros((block, 32), dtype=np.uint8)
    flags, lanes = bits.view(bool), bits.view("<u8")
    spread = np.uint64(0x0102040810204080)
    products = np.empty((block, 4), dtype="<u8")
    top = products.view(np.uint8)[:, 7::8]  # byte 7 of a little-endian lane is its top byte
    packed = np.empty((block, 4), dtype=np.uint8)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        m = stop - start
        u = rng.random(out=draw[:m])
        for p, w in zip(ps, words):
            np.less(u, p, out=flags[:m, :n])
            np.multiply(lanes[:m], spread, out=products[:m])
            packed[:m] = top[:m]
            w[start:stop] = packed[:m].view("<u4")[:, 0]
    return words

"""Shared code corpus and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent.bitspace import Code

RANDOM_LINEAR_PARAMS = [
    (6 + i % 7, 2 + (3 * i) % 5, 100 + i) for i in range(20)
]


def full_corpus() -> list[Code]:
    codes = [bs.repetition_code(n) for n in (3, 5, 7, 9)]
    codes += [bs.parity_code(n) for n in range(4, 9)]
    codes += [bs.hamming74_code(), bs.reed_muller_code(1, 3), bs.reed_muller_code(1, 4)]
    codes += [bs.random_linear_code(n, k, seed) for n, k, seed in RANDOM_LINEAR_PARAMS]
    return codes


def small_corpus(max_n: int = 10) -> list[Code]:
    return [c for c in full_corpus() if c.n <= max_n]


@pytest.fixture(scope="session")
def corpus():
    return full_corpus()


@st.composite
def linear_codes(draw, max_n=12):
    """A code given by random generator rows, which may be dependent."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n))
    if draw(st.booleans()):
        rows.append(rows[0])  # the rank is then below the row count
    return bs.Code(n=n, codewords=tuple(bs.span(rows)), generator=tuple(rows))


@st.composite
def nonlinear_codes(draw, max_n=10):
    """A code given by an arbitrary set of codewords."""
    n = draw(st.integers(1, max_n))
    words = draw(
        st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(1 << n, 300))
    )
    return bs.Code(n=n, codewords=tuple(sorted(words)))


# ---------------------------------------------------------------------------
# Independent oracles (deliberately naive; never share code paths with
# the implementations they check).


def naive_noise_operator(f: np.ndarray, eps: float) -> np.ndarray:
    """Direct double-sum evaluation of the convolution kernel."""
    n = int(len(f)).bit_length() - 1
    out = np.zeros_like(f, dtype=float)
    for x in range(1 << n):
        acc = 0.0
        for y in range(1 << n):
            w = bin(y).count("1")
            acc += eps**w * (1 - eps) ** (n - w) * f[x ^ y]
        out[x] = acc
    return out


def xor_shift_oracle(g: np.ndarray, columns: list[int], eps: float) -> np.ndarray:
    """(1-eps)*g + eps*g[idx ^ h] for each column h in turn, by an index gather.

    Along the unit columns 1, 2, 4, ... it is the noise operator, rounded
    as the implementation rounds it; along a code's parity-check columns,
    started from the point mass at 0, it is the syndrome distribution.
    """
    g = np.array(g, dtype=float)
    idx = np.arange(len(g))
    for h in columns:
        g = (1 - eps) * g + eps * g[idx ^ h]
    return g


def spectral_noise_operator(f: np.ndarray, eps: float) -> np.ndarray:
    """Noise operator in the character basis: frequency s is scaled by (1-2eps)^|s|."""
    n = int(len(f)).bit_length() - 1

    def walsh_hadamard(g: np.ndarray) -> np.ndarray:
        g = np.array(g, dtype=float)
        h = 1
        while h < len(g):
            blocks = g.reshape(-1, 2 * h)
            a, b = blocks[:, :h].copy(), blocks[:, h:].copy()
            blocks[:, :h], blocks[:, h:] = a + b, a - b
            h *= 2
        return g

    weights = np.array([bin(s).count("1") for s in range(1 << n)], dtype=float)
    spec = walsh_hadamard(f) * (1 - 2 * eps) ** weights
    return walsh_hadamard(spec) / (1 << n)


def naive_project(v: int, mask: int, n: int) -> int:
    coords = [i for i in range(n) if (mask >> i) & 1]
    out = 0
    for j, i in enumerate(coords):
        out |= ((v >> i) & 1) << j
    return out


def bayes_cond_entropy_bsc(code: Code, eps: float) -> float:
    """H(X|Y_BSC) = sum_y P(y) H(X|Y=y), by direct Bayes enumeration."""
    n = code.n
    total = 0.0
    for y in range(1 << n):
        joint = []
        for x in code.codewords:
            d = bin(x ^ y).count("1")
            joint.append((1 / code.size) * eps**d * (1 - eps) ** (n - d))
        py = sum(joint)
        if py == 0:
            continue
        h = 0.0
        for pxy in joint:
            if pxy > 0:
                p = pxy / py
                h -= p * math.log2(p)
        total += py * h
    return total


def erasure_cond_entropy_bec(code: Code, eta: float) -> float:
    """H(X|Y_BEC) by enumerating all erasure patterns and fibers."""
    n = code.n
    total = 0.0
    for mask in range(1 << n):  # mask = revealed coordinates
        k = bin(mask).count("1")
        p_mask = (1 - eta) ** k * eta ** (n - k)
        if p_mask == 0:
            continue
        groups: dict[int, int] = {}
        for x in code.codewords:
            groups[x & mask] = groups.get(x & mask, 0) + 1
        h = 0.0
        for cnt in groups.values():
            # conditioned on the revealed bits, X is uniform over cnt words
            h += (cnt / code.size) * math.log2(cnt)
        total += p_mask * h
    return total


def exhaustive_subset_entropy_expectation(code: Code, lam: float, q: float) -> float:
    """E_{S~lam} H_q(X_S) by explicit enumeration, projections re-indexed."""
    n = code.n
    total = 0.0
    for mask in range(1 << n):
        k = bin(mask).count("1")
        w = lam**k * (1 - lam) ** (n - k)
        if w == 0:
            continue
        counts: dict[int, int] = {}
        for x in code.codewords:
            pr = naive_project(x, mask, n)
            counts[pr] = counts.get(pr, 0) + 1
        probs = np.array(list(counts.values()), dtype=float) / code.size
        if q == 1:
            h = float(-np.sum(probs * np.log2(probs)))
        elif math.isinf(q):
            h = -math.log2(probs.max())
        else:
            h = -math.log2(float(np.sum(probs**q))) / (q - 1)
        total += w * h
    return total


def exhaustive_decode_scan(y: int, code: Code, radius: float) -> list[int]:
    """All codewords strictly within radius of y, unsorted set semantics."""
    return [x for x in code.codewords if bin(x ^ y).count("1") < radius]


def naive_simulate(code: Code, cfg, trials: int, seed: int):
    """Decode trial by trial with ``decode``; draws as ``simulate`` does.

    The draws are the transmitted codeword indices, then the noise bits
    (coordinate i of a trial is column i), with the noise drawn at the
    folded eps so that the words below are the decoder's relabeled view.
    """
    from chanent.listdecode import DecodeTrialStats, decode

    rng = np.random.default_rng(seed)
    x_idx = rng.integers(0, code.size, size=trials)
    eps = cfg.eps if cfg.eps < 0.5 else 1 - cfg.eps
    bits = rng.random((trials, code.n)) < eps
    ones = (1 << code.n) - 1
    successes = truncations = heavy = 0
    sizes = []
    for t in range(trials):
        x = code.codewords[int(x_idx[t])]
        z = sum(1 << i for i in range(code.n) if bits[t, i])
        # the channel flips with probability cfg.eps: z, or its complement
        y = x ^ (z if cfg.eps < 0.5 else z ^ ones)
        listed, truncated = decode(y, code, cfg)
        successes += x in listed
        truncations += truncated
        heavy += bin(z).count("1") >= cfg.radius
        sizes.append(len(listed))
    return DecodeTrialStats(
        trials=trials,
        successes=successes,
        truncations=truncations,
        heavy_noise=heavy,
        list_min=min(sizes),
        list_mean=sum(sizes) / trials,
        list_max=max(sizes),
    )

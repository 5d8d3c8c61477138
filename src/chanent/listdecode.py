"""Radius-based list decoding over the BSC and its evaluation.

The decoder returns every codeword within Hamming distance
eps*n + n^(3/4) of the received word (strict inequality), truncated to
the k closest when the qualifying set is larger than the list cap.
By construction a trial can only fail because the noise was heavy
(weight >= radius) or the list was truncated; the simulator asserts
exactly that decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitspace import Code
from .boolfn import binary_entropy, from_code
from .channels import _walsh_hadamard, bernoulli_words, noise_operator

EXACT_CAP = 20


def decoding_radius(eps: float, n: int) -> float:
    return eps * n + n**0.75


@dataclass(frozen=True)
class DecoderConfig:
    """Channel parameter, slack delta, and list cap for one decoder."""

    n: int
    eps: float
    delta: float = 0.0
    list_cap: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.eps <= 1:
            raise ValueError("eps must be in [0, 1]")
        if self.eps == 0.5:
            raise ValueError("eps = 1/2 is rejected: the radius covers everything")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.list_cap is not None and self.list_cap < 1:
            raise ValueError("list cap must be >= 1")

    @property
    def effective_eps(self) -> float:
        """eps folded into [0, 1/2) by relabeling ones and zeros."""
        return self.eps if self.eps < 0.5 else 1 - self.eps

    @property
    def radius(self) -> float:
        return decoding_radius(self.effective_eps, self.n)

    def cap_for(self, code: Code) -> int:
        if self.list_cap is not None:
            return self.list_cap
        return theoretical_list_size(code.rate, self.effective_eps, self.delta, self.n)


def theoretical_list_size(rate: float, eps: float, delta: float, n: int) -> int:
    """ceil(2^((R - (1 - h(eps)) + delta) * n)), at least 1."""
    exponent = (rate - (1 - binary_entropy(eps)) + delta) * n
    if exponent <= 0:
        return 1
    return max(1, math.ceil(2.0**exponent))


def rs22_lower_bound(rate: float, eps: float, n: int) -> tuple[float, bool]:
    """log2 of the list size forced on any decoder with success >= 3/4.

    Returns (exponent, in_hypothesis); the exponent is
    (R - (1 - h(eps))) * n - h(eps) * n^(3/4) - 3.  The bound's stated
    hypotheses are 0 < eps < 1/2 and n > 10 / eps^2.
    """
    h = binary_entropy(eps)
    exponent = (rate - (1 - h)) * n - h * n**0.75 - 3
    in_hypothesis = 0 < eps < 0.5 and n > 10 / eps**2
    return exponent, in_hypothesis


def decode(y: int, code: Code, cfg: DecoderConfig) -> tuple[list[int], bool]:
    """All codewords within the radius of y, k closest on truncation.

    Output is sorted by increasing distance, ties broken
    lexicographically; the second element flags truncation.
    """
    if cfg.n != code.n:
        raise ValueError("decoder and code dimensions differ")
    recv = y if cfg.eps < 0.5 else y ^ ((1 << code.n) - 1)
    radius = cfg.radius
    cws = code.codeword_array()
    dists = np.bitwise_count(cws ^ np.uint64(recv))
    inside = dists < radius
    hits = sorted((int(d), int(c)) for d, c in zip(dists[inside], cws[inside]))
    cap = cfg.cap_for(code)
    truncated = len(hits) > cap
    return [c for _, c in hits[:cap]], truncated


def likely_threshold(code: Code, cfg: DecoderConfig) -> float:
    """2^((R - (1 - h(eps)) + delta) * n): the inflated target list size."""
    exponent = (code.rate - (1 - binary_entropy(cfg.effective_eps)) + cfg.delta) * cfg.n
    return 2.0**exponent


def is_delta_likely(y: int, code: Code, cfg: DecoderConfig) -> tuple[bool, int]:
    """Whether y has more within-radius explanations than the threshold."""
    recv = y if cfg.eps < 0.5 else y ^ ((1 << code.n) - 1)
    dists = np.bitwise_count(code.codeword_array() ^ np.uint64(recv))
    count = int(np.count_nonzero(dists < cfg.radius))
    return count > likely_threshold(code, cfg), count


def _radius_counts(code: Code, cfg: DecoderConfig) -> np.ndarray:
    """Codewords within the radius of every received word y, indexed by y.

    The count at y is the XOR convolution of the within-radius weight
    indicator with the code's indicator, taken through the Walsh–Hadamard
    transform.  In int64 every value stays below 2^(3n) <= 2^60 for
    n <= EXACT_CAP, so the counts are exact.
    """
    n = code.n
    if n > EXACT_CAP:
        raise ValueError(f"exact enumeration capped at n <= {EXACT_CAP}")
    within = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)) < cfg.radius
    indicator = np.zeros(1 << n, dtype=np.int64)
    indicator[code.codeword_array()] = 1
    spectrum = _walsh_hadamard(within.astype(np.int64)) * _walsh_hadamard(indicator)
    counts = _walsh_hadamard(spectrum) >> n
    if cfg.eps > 0.5:
        # the decoder relabels ones and zeros: y ^ 1...1 = 2^n - 1 - y
        counts = counts[::-1]
    return counts


def likely_probability(code: Code, cfg: DecoderConfig) -> float:
    """Exact Pr[Y is delta-likely] with Y = X + Z, X uniform on the code."""
    counts = _radius_counts(code, cfg)
    p_y = noise_operator(from_code(code), cfg.eps) / (1 << code.n)
    # p_y carries the noise operator's rounding: a sum over every y can pass 1
    return min(1.0, float(p_y[counts > likely_threshold(code, cfg)].sum()))


def likely_probability_mc(
    code: Code, cfg: DecoderConfig, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo Pr[Y is delta-likely]; returns (estimate, std error).

    The received words and their within-radius counts are those of
    ``simulate`` under the same seed.
    """
    counts = simulate(code, cfg.eps, trials, seed).counts
    p = int(np.count_nonzero(counts > likely_threshold(code, cfg))) / trials
    stderr = math.sqrt(max(p * (1 - p), 0.0) / trials)
    return p, stderr


@dataclass(frozen=True)
class DecodeTrialStats:
    """Aggregate outcomes of repeated decode trials."""

    trials: int
    successes: int
    truncations: int
    heavy_noise: int
    list_min: int
    list_mean: float
    list_max: int

    @property
    def failures(self) -> int:
        return self.trials - self.successes

    @property
    def error_rate(self) -> float:
        return self.failures / self.trials

    @property
    def error_stderr(self) -> float:
        p = self.error_rate
        return math.sqrt(max(p * (1 - p), 0.0) / self.trials)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "truncations": self.truncations,
            "heavy_noise": self.heavy_noise,
            "error_rate": self.error_rate,
            "error_stderr": self.error_stderr,
            "list_min": self.list_min,
            "list_mean": self.list_mean,
            "list_max": self.list_max,
        }


@dataclass(frozen=True, eq=False)
class DecodeTrials:
    """Per-trial outcomes of one decode pass over BSC(eps), for any list cap.

    ``counts`` is the number of codewords within the radius of the
    received word, ``rank`` the number of codewords ahead of the
    transmitted one in the decoder's (distance, lexicographic) order and
    ``inside`` whether the noise weight is below the radius.  The arrays
    are read-only; ``stats`` applies a decoder's list cap to them.
    """

    code: Code
    eps: float
    trials: int
    counts: np.ndarray
    rank: np.ndarray
    inside: np.ndarray

    def stats(self, cfg: DecoderConfig) -> DecodeTrialStats:
        """Outcomes of the decoder ``cfg``, which must share this pass's n and eps.

        Success means the transmitted codeword appears in the decoded
        list.  Every failure is asserted to be explained by heavy noise
        (wt(Z) >= radius) or truncation; anything else would contradict
        the decoder's construction.
        """
        if cfg.n != self.code.n or cfg.eps != self.eps:
            raise ValueError("decoder n and eps differ from the decode pass")
        # no list exceeds |C|, so a larger cap acts as |C| (and fits any dtype)
        cap = min(cfg.cap_for(self.code), self.code.size)
        sizes = np.minimum(self.counts, cap)
        trunc = self.counts > cap
        # X makes the list iff it is within the radius and fewer than cap
        # codewords beat it
        ok = self.inside & (self.rank < cap)
        if np.any(~ok & self.inside & ~trunc):
            raise AssertionError("failure without heavy noise or truncation")
        return DecodeTrialStats(
            trials=self.trials,
            successes=int(np.count_nonzero(ok)),
            truncations=int(np.count_nonzero(trunc)),
            heavy_noise=int(np.count_nonzero(~self.inside)),
            list_min=int(sizes.min()),
            list_mean=int(sizes.sum(dtype=np.int64)) / self.trials,
            list_max=int(sizes.max()),
        )


# (received word, codeword) pairs per block: the block's scratch, 7 bytes
# a pair, stays in a core's L2 cache
_PAIR_BLOCK = 1 << 16


def simulate(code: Code, eps: float, trials: int, seed: int) -> DecodeTrials:
    """Transmit random codewords over BSC(eps) and decode each output.

    One pass serves every list cap and delta: ``DecodeTrials.stats``
    turns it into the outcomes of a given decoder.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = DecoderConfig(n=code.n, eps=eps)
    rng = np.random.default_rng(seed)
    size = code.size
    # n <= 24, so words fit in uint32, distances in uint8 and indices in uint32
    cws = code.codeword_array().astype(np.uint32)
    order = np.arange(size, dtype=np.uint32)
    # integer distances: d < radius iff d < ceil(radius)
    radius = np.uint8(math.ceil(cfg.radius))

    x_idx = rng.integers(0, size, size=trials).astype(np.uint32)
    counts = np.empty(trials, dtype=np.uint32)
    rank = np.empty(trials, dtype=np.uint32)
    inside = np.empty(trials, dtype=bool)

    block = max(1, min(trials, _PAIR_BLOCK // size))
    words = np.empty((block, size), dtype=np.uint32)
    dists = np.empty((block, size), dtype=np.uint8)
    limits = np.empty((block, size), dtype=np.uint8)
    hits = np.empty((block, size), dtype=bool)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        m = stop - start
        idx = x_idx[start:stop]
        # drawn per block after all of x_idx: the same stream as one draw
        zs = bernoulli_words(m, code.n, cfg.effective_eps, rng).astype(np.uint32)
        wz = np.bitwise_count(zs)
        np.bitwise_xor((cws[idx] ^ zs)[:, None], cws, out=words[:m])
        d = np.bitwise_count(words[:m], out=dists[:m])
        counts[start:stop] = np.less(d, radius, out=hits[:m]).sum(axis=1, dtype=np.uint32)
        # codeword j is ahead of X = cws[idx] iff d_j < wz, or d_j == wz and
        # j < idx (the codewords are sorted): that is d_j < wz + [j < idx]
        np.less(order, idx[:, None], out=hits[:m])
        np.add(hits[:m], wz[:, None], out=limits[:m])
        rank[start:stop] = np.less(d, limits[:m], out=hits[:m]).sum(axis=1, dtype=np.uint32)
        inside[start:stop] = wz < radius

    for arr in (counts, rank, inside):
        arr.setflags(write=False)
    return DecodeTrials(code, eps, trials, counts, rank, inside)

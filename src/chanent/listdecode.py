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
from .channels import bernoulli_words, noise_operator

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


def _within_radius(ys: np.ndarray, code: Code, radius: float) -> np.ndarray:
    """Codewords strictly within the radius of each received word.

    Works in blocks of at most 2^22 (word, codeword) pairs, so memory
    stays bounded whatever the number of received words.
    """
    cws = code.codeword_array()
    block = max(1, (1 << 22) // code.size)
    counts = np.empty(len(ys), dtype=np.int64)
    for start in range(0, len(ys), block):
        dists = np.bitwise_count(ys[start : start + block, None] ^ cws[None, :])
        counts[start : start + block] = np.count_nonzero(dists < radius, axis=1)
    return counts


def likely_threshold(code: Code, cfg: DecoderConfig) -> float:
    """2^((R - (1 - h(eps)) + delta) * n): the inflated target list size."""
    exponent = (code.rate - (1 - binary_entropy(cfg.effective_eps)) + cfg.delta) * cfg.n
    return 2.0**exponent


def is_delta_likely(y: int, code: Code, cfg: DecoderConfig) -> tuple[bool, int]:
    """Whether y has more within-radius explanations than the threshold."""
    recv = y if cfg.eps < 0.5 else y ^ ((1 << code.n) - 1)
    count = int(_within_radius(np.array([recv], dtype=np.uint64), code, cfg.radius)[0])
    return count > likely_threshold(code, cfg), count


def likely_probability(code: Code, cfg: DecoderConfig) -> float:
    """Exact Pr[Y is delta-likely] with Y = X + Z, X uniform on the code."""
    n = code.n
    if n > EXACT_CAP:
        raise ValueError(f"exact enumeration capped at n <= {EXACT_CAP}")
    p_y = noise_operator(from_code(code), cfg.eps) / (1 << n)
    ys = np.arange(1 << n, dtype=np.uint64)
    if cfg.eps > 0.5:
        # the decoder relabels ones and zeros before testing the radius
        ys = ys ^ np.uint64((1 << n) - 1)
    counts = _within_radius(ys, code, cfg.radius)
    return float(p_y[counts > likely_threshold(code, cfg)].sum())


def likely_probability_mc(
    code: Code, cfg: DecoderConfig, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo Pr[Y is delta-likely]; returns (estimate, std error)."""
    rng = np.random.default_rng(seed)
    cws = code.codeword_array()
    xs = cws[rng.integers(0, code.size, size=trials)]
    zs = bernoulli_words(trials, code.n, cfg.effective_eps, rng)
    counts = _within_radius(xs ^ zs, code, cfg.radius)
    hits = int(np.count_nonzero(counts > likely_threshold(code, cfg)))
    p = hits / trials
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


def simulate(code: Code, cfg: DecoderConfig, trials: int, seed: int) -> DecodeTrialStats:
    """Transmit random codewords over BSC(eps) and decode each output.

    Success means the transmitted codeword appears in the decoded list.
    Every failure is asserted to be explained by heavy noise
    (wt(Z) >= radius) or truncation; anything else would contradict the
    decoder's construction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.n != code.n:
        raise ValueError("decoder and code dimensions differ")
    rng = np.random.default_rng(seed)
    n = code.n
    eps_eff = cfg.effective_eps
    cws = code.codeword_array()
    cap = cfg.cap_for(code)
    radius = cfg.radius

    successes = truncations = heavy = 0
    list_sizes_sum = 0
    list_min, list_max = code.size + 1, -1

    block_size = max(1, min(trials, (1 << 22) // max(code.size, 1)))
    x_idx_all = rng.integers(0, code.size, size=trials)
    z_all = bernoulli_words(trials, n, eps_eff, rng)
    z_weights = np.bitwise_count(z_all).astype(np.int64)

    for start in range(0, trials, block_size):
        stop = min(start + block_size, trials)
        xs = cws[x_idx_all[start:stop]]
        ys = xs ^ z_all[start:stop]
        dists = np.bitwise_count(ys[:, None] ^ cws[None, :])
        inside = dists < radius
        counts = inside.sum(axis=1)
        wz = z_weights[start:stop]
        x_inside = wz < radius

        sizes = np.minimum(counts, cap)
        list_sizes_sum += int(sizes.sum())
        list_min = min(list_min, int(sizes.min()))
        list_max = max(list_max, int(sizes.max()))

        trunc = counts > cap
        truncations += int(np.count_nonzero(trunc))
        heavy += int(np.count_nonzero(~x_inside))

        # X makes the list iff it is within the radius and fewer than
        # cap codewords beat it under the (distance, lexicographic) order
        better = (dists < wz[:, None]) | (
            (dists == wz[:, None]) & (cws[None, :] < xs[:, None])
        )
        rank = better.sum(axis=1)
        ok = x_inside & (rank < cap)
        if np.any(~ok & x_inside & ~trunc):
            raise AssertionError("failure without heavy noise or truncation")
        successes += int(np.count_nonzero(ok))

    return DecodeTrialStats(
        trials=trials,
        successes=successes,
        truncations=truncations,
        heavy_noise=heavy,
        list_min=list_min,
        list_mean=list_sizes_sum / trials,
        list_max=list_max,
    )

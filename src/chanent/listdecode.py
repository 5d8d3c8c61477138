"""Radius-based list decoding over the BSC and its evaluation.

The decoder returns every codeword within Hamming distance
eps*n + n^(3/4) of the received word (strict inequality), truncated to
the k closest when the qualifying set is larger than the list cap, with
distance ties broken uniformly at random.  By construction a trial can
only fail because the noise was heavy (weight >= radius) or the list was
truncated; the simulator asserts exactly that decomposition.

``simulate`` decodes a list of decoders in one pass over common random
numbers: X, the uniforms behind Z and one tie-breaking uniform U per
trial are drawn once, and each eps compares the same uniforms with its
own eps, so every decoder gets the trials of a pass seeded at its eps
alone.  Every eps's noise is drawn before the first eps is counted, so
the grid holds one extra uint32 noise word per trial per extra eps, and
each eps's noise is dropped once its trials are counted.

A trial's outcome depends on X only through two counts: the codewords
strictly closer to the received word Y than X (closer) and those no
farther (through, X included).  Uniform ties put X at rank
closer + floor(U (through - closer)).  For a linear code the distances
from Y = X + Z to the codewords are the weights of the coset Z + C,
whatever X is.  ``simulate`` and ``likely_probability`` therefore read
one cached coset weight table of (n + 2) x 2^(n - k) counts, indexed by
the syndrome of Z, and two lookups give closer and through.  The table
is built only when it holds at most 2^min(n, 20) entries, and
``simulate`` reads it when the n (n + 2) 2^(n - k) adds of its build are
at most the E trials |C| pair distances of comparing every trial with
every codeword at each of its E eps.  Otherwise, and for nonlinear
codes, ``simulate`` runs the pair kernel (every trial against every
codeword) and ``likely_probability`` the Walsh–Hadamard count over all
2^n received words (n <= 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bitspace
from .bitspace import EXACT_CAP, Code, _xor_table, popcounts, syndrome_columns
from .boolfn import _require_unit_interval, binary_entropy, from_code
from .channels import _walsh_hadamard, bernoulli_words, noise_operator


@dataclass(frozen=True)
class DecoderConfig:
    """Channel parameter, slack delta, and list cap for one decoder."""

    n: int
    eps: float
    delta: float = 0.0
    list_cap: int | None = None

    def __post_init__(self) -> None:
        _require_unit_interval("eps", [self.eps])
        if self.eps == 0.5:
            raise ValueError("eps = 1/2 is rejected: the radius covers everything")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be finite and >= 0")
        if self.list_cap is not None and self.list_cap < 1:
            raise ValueError("list cap must be >= 1")

    @property
    def effective_eps(self) -> float:
        """eps folded into [0, 1/2) by relabeling ones and zeros."""
        return self.eps if self.eps < 0.5 else 1 - self.eps

    @property
    def radius(self) -> float:
        return self.effective_eps * self.n + self.n**0.75

    def cap_for(self, code: Code) -> int:
        """The list cap applied: ``list_cap``, else the theoretical list size; at most |C|.

        No list exceeds |C|, so a larger cap acts as |C| (and fits any dtype).
        """
        cap = self.list_cap
        if cap is None:
            cap = theoretical_list_size(code.rate, self.effective_eps, self.delta, self.n)
        return min(cap, code.size)


def _list_size(rate: float, eps: float, delta: float, n: int) -> float:
    """2^((R - (1 - h(eps)) + delta) * n), inf when it overflows a float."""
    try:
        return 2.0 ** ((rate - (1 - binary_entropy(eps)) + delta) * n)
    except OverflowError:
        return math.inf


def theoretical_list_size(rate: float, eps: float, delta: float, n: int) -> int:
    """ceil(2^((R - (1 - h(eps)) + delta) * n)), at least 1; a float overflow is rejected."""
    size = _list_size(rate, eps, delta, n)
    if math.isinf(size):
        raise ValueError(f"delta={delta} gives a list size past the float range at n={n}")
    return max(1, math.ceil(size))


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


def _radius_counts(code: Code, cfg: DecoderConfig) -> np.ndarray:
    """Codewords within the radius of every received word y, indexed by y.

    The count at y is the XOR convolution of the within-radius weight
    indicator with the code's indicator, taken through the Walsh–Hadamard
    transform.  In int64 every value stays below 2^(3n) <= 2^60 for
    n <= EXACT_CAP, so the counts are exact.
    """
    n = code.n
    bitspace.require_exact_cap(n)
    within = popcounts(n) < cfg.radius
    indicator = np.zeros(1 << n, dtype=np.int64)
    indicator[code.codewords] = 1
    spectrum = _walsh_hadamard(within.astype(np.int64)) * _walsh_hadamard(indicator)
    counts = _walsh_hadamard(spectrum) >> n
    if cfg.eps > 0.5:
        # the decoder relabels ones and zeros: y ^ 1...1 = 2^n - 1 - y
        counts = counts[::-1]
    return counts


def likely_probability(code: Code, cfg: DecoderConfig) -> float:
    """Exact Pr[Y is delta-likely] with Y = X + Z, X uniform on the code.

    A linear code sums the noise-weight law over the likely cosets of its
    coset weight table; other codes weigh the within-radius count of
    every received word by its probability.
    """
    if cfg.n != code.n:
        raise ValueError("decoder and code dimensions differ")
    # Y is delta-likely when more codewords than the inflated list size lie within the radius
    threshold = _list_size(code.rate, cfg.effective_eps, cfg.delta, cfg.n)
    found = _coset_weights(code)
    if found is None:
        counts = _radius_counts(code, cfg)
        p_y = noise_operator(from_code(code), cfg.eps) / (1 << code.n)
        # p_y carries the noise operator's rounding: a sum over every y can pass 1
        return min(1.0, float(p_y[counts > threshold].sum()))
    below, _ = found
    n = code.n
    # the count at Y = X + Z is that of the coset of Z's syndrome, with Z
    # at the folded eps in the decoder's relabeled view
    likely = below[min(math.ceil(cfg.radius), n + 1)] > threshold
    e, w = cfg.effective_eps, np.arange(n + 1)
    p_w = e**w * (1 - e) ** (n - w)  # Pr[Z = z] for wt(z) = w
    # words of each weight in the likely cosets, and in all of them
    in_likely = np.diff(below @ likely.astype(np.int64))
    in_all = np.diff(below.sum(axis=1))
    # over the rounded total: exactly 1 when every coset is likely
    return float(p_w @ in_likely / (p_w @ in_all))


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


def _pair_counts(y, wz, radius: int, cws):
    """Compare every received word y[t] with every codeword.

    Returns (within, closer, through) per trial: the codewords at distance
    below radius from y[t], those strictly closer than the transmitted
    word, at distance wz[t], and those no farther, the transmitted word
    included.
    """
    trials, size = len(y), len(cws)
    within = np.empty(trials, dtype=np.uint32)
    closer = np.empty(trials, dtype=np.uint32)
    through = np.empty(trials, dtype=np.uint32)
    # (received word, codeword) pairs: the block's scratch, 6 bytes a pair, stays in L2
    block = max(1, min(trials, bitspace._BLOCK // size))
    words = np.empty((block, size), dtype=np.uint32)
    dists = np.empty((block, size), dtype=np.uint8)
    hits = np.empty((block, size), dtype=bool)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        m = stop - start
        np.bitwise_xor(y[start:stop, None], cws, out=words[:m])
        d = np.bitwise_count(words[:m], out=dists[:m])
        within[start:stop] = np.less(d, radius, out=hits[:m]).sum(axis=1, dtype=np.uint32)
        w = wz[start:stop, None]
        closer[start:stop] = np.less(d, w, out=hits[:m]).sum(axis=1, dtype=np.uint32)
        through[start:stop] = np.less_equal(d, w, out=hits[:m]).sum(axis=1, dtype=np.uint32)
    return within, closer, through


# at most 4 MB a table, so the cache holds at most 16 MB
@lru_cache(maxsize=4)
def _coset_weights(code: Code) -> tuple[np.ndarray, list[int]] | None:
    """Cumulative coset weight table of a linear code, and its parity-check columns.

    below[w, s] = #{e in F_2^n : wt(e) < w, syndrome(e) = s} for
    w = 0..n+1.  Its row differences T[w, s] are the weight distribution
    of the coset of syndrome s, column 0 the code's weight enumerator.
    T is built one coordinate at a time (MacWilliams–Sloane): T_b[w, s]
    counts the words supported below bit b of weight w and syndrome s,
    kept in row w + 1 so that row 0 stays zero.  T_0 is the zero word;
    coordinate b, with parity-check column h_b, adds T_b[w - 1, s ^ h_b]
    to T_b[w, s], and T_n = T.  None for a code without a generator, and
    when the (n + 2) x 2^(n - k) table would hold more than
    2^min(n, EXACT_CAP) entries: never more than one array of the dense
    path.  It stays in uint32, as no entry passes 2^n <= 2^24; it is
    read-only and cached per code, so every eps and delta of a code
    share one build.
    """
    if code.generator is None:
        return None
    n, r = code.n, code.redundancy
    if (n + 2) << r > 1 << min(n, EXACT_CAP):
        return None
    cols = syndrome_columns(code.generator, n)
    size = 1 << r
    below = np.zeros((n + 2, size), dtype=np.uint32)
    below[1, 0] = 1
    index = np.arange(size)
    shifted = np.empty((n, size), dtype=np.uint32)
    for b, h in enumerate(cols):
        # below bit b no word is heavier than b, so rows 1..b+1 hold all
        # of T_b; one gather shifts them all before any row changes.
        # index ^ h is in range, and mode "clip" spares take the buffered
        # bounds check of mode "raise"
        np.take(below[1 : b + 2], index ^ h, axis=1, out=shifted[: b + 1], mode="clip")
        below[2 : b + 3] += shifted[: b + 1]
    # T[w] sits in row w + 1, so row w ends up counting weights below w
    for row in range(2, n + 2):
        below[row] += below[row - 1]
    below.setflags(write=False)
    return below, cols


def _table_pays(code: Code, trials: int, folded: int) -> bool:
    """Whether ``simulate`` reads the coset table rather than the pair kernel.

    The table path's leading cost is the n (n + 2) 2^(n - k) integer
    adds of its cached build, whatever the eps grid and list caps; the
    pair kernel's is trials |C| pair distances for each of the
    ``folded`` distinct folded eps.  The table is read when the first is
    at most the second.  A low-rate code with few trials, such as
    [24, 5] at 1000 trials, keeps the pair kernel, and so does a small
    run such as [16, 8] at 100 trials; [24, 12] at 500 trials takes the
    table for two eps, not for one.
    """
    n = code.n
    pairs = folded * trials * code.size
    return code.generator is not None and n * (n + 2) << code.redundancy <= pairs


def _syndromes(cols: list[int], z: np.ndarray) -> np.ndarray:
    """The syndrome of every word of z (uint32, in F_2^n), read a byte at a time.

    Table j maps a byte v to the syndrome of v << 8j, the XOR table of
    columns 8j..8j+7; byte j of every little-endian word is every fourth
    byte from j.
    """
    tables = [_xor_table(cols[j : j + 8], np.uint32) for j in range(0, len(cols), 8)]
    data = np.ascontiguousarray(z, dtype="<u4").view(np.uint8)
    s = tables[0].take(data[0::4])
    for j in range(1, len(tables)):
        s ^= tables[j].take(data[j::4])
    return s


def _coset_bracket(code: Code, below: np.ndarray, cols: list[int], z, wz, radius: int):
    """Per trial: the codewords within the radius, and those strictly closer and no farther than x.

    The codewords x ^ c lie at distances wt(z ^ c) from y = x ^ z: the
    weights of the coset z + C, which ``below`` gives by the syndrome of
    z, whatever x is.  ``closer`` = below[wt(z), s] counts the codewords
    strictly closer than x and ``through`` = below[wt(z) + 1, s] those no
    farther, x itself included.
    """
    n, r = code.n, code.redundancy
    at = _syndromes(cols, z)
    # at is in range, so mode "clip" spares take the bounds check
    within = below[min(radius, n + 1)].take(at, mode="clip")
    # the flat index of below[wt(z), s], then of below[wt(z) + 1, s]
    flat = below.ravel()
    at |= np.left_shift(wz, r, dtype=np.uint32)
    closer = flat.take(at, mode="clip")
    at += np.uint32(1 << r)
    return within, closer, flat.take(at, mode="clip")


def _bracket(code: Code, found, cws, x, z, radius: int):
    """(within, closer, through) of every trial: the coset table's, or the pair kernel's."""
    wz = np.bitwise_count(z)
    if found is not None:
        return _coset_bracket(code, *found, z, wz, radius)
    return _pair_counts(x ^ z, wz, radius, cws)


def _count(code: Code, found, cws, x, z, u, radius: int, caps: list[int]):
    """The outcomes of one eps at each list cap, one ``DecodeTrialStats`` per cap.

    X sits uniformly among the through - closer codewords at its
    distance, at rank closer + floor(u (through - closer)), and makes the
    list iff it is within the radius and its rank is below the cap.  The
    floor comes before the add: closer + u (through - closer) in floats
    can round up to through once closer >= 2^21.
    """
    trials = z.size
    counts, closer, through = _bracket(code, found, cws, x, z, radius)
    inside = np.bitwise_count(z) < radius
    heavy = trials - int(np.count_nonzero(inside))
    # x is no farther than itself, so through - closer >= 1, and u < 1
    # keeps the floor below it
    rank = (u * (through - closer)).astype(np.uint32)
    rank += closer
    stats = []
    for cap in caps:
        sizes = np.minimum(counts, cap)
        trunc = counts > cap
        lost = inside & (rank >= cap)
        # within the radius, every codeword no farther than X is listed
        # unless the list is truncated
        if np.any(lost & ~trunc):
            raise AssertionError("failure without heavy noise or truncation")
        stats.append(
            DecodeTrialStats(
                trials=trials,
                successes=trials - heavy - int(np.count_nonzero(lost)),
                truncations=int(np.count_nonzero(trunc)),
                heavy_noise=heavy,
                list_min=int(sizes.min()),
                list_mean=int(sizes.sum(dtype=np.int64)) / trials,
                list_max=int(sizes.max()),
            )
        )
    return stats


def simulate(
    code: Code, decoders: list[DecoderConfig], trials: int, seed: int
) -> list[DecodeTrialStats]:
    """Transmit random codewords over BSC(eps) and list-decode each output, for every decoder.

    Returns one ``DecodeTrialStats`` per decoder, in order; success means
    the transmitted codeword X appears in the decoded list.  Every
    decoder is validated before any draw.  The decoders share the draws
    (common random numbers): X once, the uniforms behind the noise once,
    compared with each eps to give its noise, and then one uniform per
    trial, which breaks X's distance ties at every eps; so each decoder
    gets the trials of a pass seeded with ``seed`` at its eps alone.  Each
    eps is counted, and its noise dropped, as soon as it is reached.

    A linear code whose coset table pays (``_table_pays``) reads, per
    trial, the codewords strictly closer to Y than X and those no
    farther from the table; otherwise every trial meets every codeword,
    which counts the same two.  Every failure is asserted to be
    explained by heavy noise (wt(Z) >= radius) or truncation; anything
    else would contradict the decoder's construction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(cfg.n != code.n for cfg in decoders):
        raise ValueError("decoder and code dimensions differ")
    caps = [cfg.cap_for(code) for cfg in decoders]
    # the decoders of one folded eps share its noise and its radius
    groups: dict[float, list[int]] = {}
    for i, cfg in enumerate(decoders):
        groups.setdefault(cfg.effective_eps, []).append(i)
    rng = np.random.default_rng(seed)
    # n <= 24, so words fit in uint32 and distances in uint8
    cws = code.codewords.astype(np.uint32)
    x = cws[rng.integers(0, code.size, size=trials)]
    noise = bernoulli_words(trials, code.n, list(groups), rng)
    u = rng.random(trials)
    found = _coset_weights(code) if _table_pays(code, trials, len(groups)) else None
    noise.reverse()  # popped in grid order: each eps's noise is dropped once it is counted
    out: list[DecodeTrialStats] = [None] * len(decoders)
    for members in groups.values():
        # integer distances: d < radius iff d < ceil(radius)
        radius = math.ceil(decoders[members[0]].radius)
        member_caps = [caps[i] for i in members]
        stats = _count(code, found, cws, x, noise.pop(), u, radius, member_caps)
        for i, one in zip(members, stats):
            out[i] = one
    return out

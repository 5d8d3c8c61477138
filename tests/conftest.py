"""Shared code corpus and independent oracles for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent.bitspace import Code
from chanent.boolfn import dim_of, from_code, h_q, validate
from chanent.entropy_analysis import NoisyFunction, subset_weights
from chanent.inequalities import noisy_function
from chanent.listdecode import DecoderConfig, DecodeTrialStats

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
    return bs.Code(n=n, codewords=bs.span(rows), generator=tuple(rows))


@st.composite
def nonlinear_codes(draw, max_n=10):
    """A code given by an arbitrary set of codewords."""
    n = draw(st.integers(1, max_n))
    words = draw(
        st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(1 << n, 300))
    )
    return bs.Code(n=n, codewords=sorted(words))


def eps_grids(max_size=6):
    """An eps grid as the CLI passes it: eps 0 and 1 drawn on purpose, values may repeat."""
    eps = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0, 1))
    return st.lists(eps, min_size=1, max_size=max_size).flatmap(
        lambda grid: st.sampled_from([grid, grid + grid[:1]])
    )


def assert_is_the_dense_law(p, code, eps):
    """p is the dense path's T_eps f_C / 2^n, byte for byte while the pass stays normal.

    The two passes differ by the factor 2^n alone, which commutes with
    every rounding unless a product falls below the smallest normal
    float; a nonzero entry of the pass is at least min(eps, 1-eps)^n / |C|.
    Below that range they agree to within a subnormal.
    """
    dense = noisy_function(from_code(code), eps).p
    tiny = np.finfo(float).smallest_normal
    if eps in (0.0, 1.0) or min(eps, 1 - eps) ** code.n / code.size >= tiny:
        assert p.tobytes() == dense.tobytes()
    else:
        assert np.max(np.abs(p - dense)) < tiny


# ---------------------------------------------------------------------------
# Independent oracles (deliberately naive; never share code paths with
# the implementations they check).


def codeword_ints(code: Code) -> list[int]:
    """The codewords of the code as Python ints, in increasing order."""
    return code.codewords.tolist()


def multiply_sum_bernoulli_words(
    trials: int, n: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli(p) words packed by a uint64 multiply-and-sum over powers of two."""
    bits = rng.random((trials, n)) < p
    powers = (1 << np.arange(n, dtype=np.uint64)).astype(np.uint64)
    return (bits.astype(np.uint64) * powers).sum(axis=1, dtype=np.uint64)


def set_span(rows: list[int]) -> list[int]:
    """All vectors in the row span, sorted: the span closed row by row as a set."""
    words = {0}
    for row in rows:
        words |= {w ^ row for w in words}
    return sorted(words)


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


def exp_log_subset_weights(n: int, lam: float) -> np.ndarray:
    """lam^|S| (1-lam)^(n-|S|) for every mask, one exp/log per mask.

    Each weight is exp(|S| log lam + (n-|S|) log(1-lam)), with 0^0 := 1
    at the endpoints, evaluated over all 2^n masks.
    """
    w = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    with np.errstate(divide="ignore"):
        logs = np.where(w > 0, w * np.log(lam) if lam > 0 else -np.inf, 0.0)
        logs = logs + np.where(
            n - w > 0, (n - w) * np.log(1 - lam) if lam < 1 else -np.inf, 0.0
        )
    return np.exp(logs)


def gathered_xlog2x(v: np.ndarray) -> np.ndarray:
    """v log2 v on the gathered positive entries of v, scattered into zeros."""
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log2(v[pos])
    return out


def gathered_ent(f: np.ndarray) -> float:
    """Ent[f] in bits, E f log2 f - (E f) log2 (E f), over ``gathered_xlog2x``."""
    f = np.asarray(f, dtype=float)
    m = float(np.mean(f))
    term = float(np.mean(gathered_xlog2x(f)))
    if m > 0:
        term -= m * math.log2(m)
    return term


def array_per_step_renyi(p: np.ndarray, q: float) -> float:
    """H_q of p / sum(p), one new array per step (normalise, then power or xlog2x)."""
    p = np.asarray(p, dtype=float)
    p = p / float(p.sum())
    if q == 1:
        return float(-np.sum(gathered_xlog2x(p)))
    if math.isinf(q):
        return float(-math.log2(p.max()))
    return float(-math.log2(np.sum(p**q)) / (q - 1))


def zeroed_xlog2x(v: np.ndarray) -> np.ndarray:
    """v log2 v where v > 0, else 0, written into a second, zeroed array of v's size."""
    out = np.zeros_like(v)
    pos = v > 0
    np.log2(v, out=out, where=pos)
    np.multiply(out, v, out=out, where=pos)
    return out


def zeroed_ent(f: np.ndarray) -> float:
    """Ent[f] in bits, E f log2 f - (E f) log2 (E f), over ``zeroed_xlog2x``."""
    f = np.asarray(f, dtype=float)
    m = float(np.mean(f))
    term = float(np.mean(zeroed_xlog2x(f)))
    if m > 0:
        term -= m * math.log2(m)
    return term


def copying_shannon(counts: np.ndarray) -> float:
    """H of counts / sum(counts) over ``zeroed_xlog2x``: a second, zeroed law-sized array."""
    p = np.asarray(counts, dtype=float)
    return float(-np.sum(zeroed_xlog2x(p / p.sum())))


def naive_project(v: int, mask: int, n: int) -> int:
    coords = [i for i in range(n) if (mask >> i) & 1]
    out = 0
    for j, i in enumerate(coords):
        out |= ((v >> i) & 1) << j
    return out


def conditional_expectation(f: np.ndarray, mask: int) -> np.ndarray:
    """E(f|S): the average of f over the fibers of the coordinate subset ``mask``.

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


def uint64_projection_entropies(code: Code, masks: np.ndarray, qs) -> np.ndarray:
    """H_q(X_S) per order (row) and mask (column), run by run in uint64 words.

    Each block of masks, 2^15 (mask, codeword) pairs, projects every
    codeword into fresh uint64 arrays, sorts them, evaluates log2 or the
    power of every run of equal words, order by order, and sums each
    row's terms by ``np.add.reduceat`` over its first runs.
    """
    cws = code.codewords
    size = code.size
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.empty((len(qs), len(masks)))
    block = max(1, (1 << 15) // size)
    for start in range(0, len(masks), block):
        words = masks[start : start + block, None] & cws
        words.sort(axis=1)
        m = len(words)
        first = np.empty(words.shape, dtype=bool)  # a run starts here
        first[:, 0] = True
        np.not_equal(words[:, 1:], words[:, :-1], out=first[:, 1:])
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=first.size)
        p = counts / size
        row_first = np.flatnonzero(starts % size == 0)
        for i, q in enumerate(qs):
            if q == 1:
                # log2|C| - E log2(count): exact when every count is 1, or one is |C|
                e_log_c = np.add.reduceat(p * np.log2(counts), row_first)
                vals = math.log2(size) - e_log_c
            elif math.isinf(q):
                vals = -np.log2(np.maximum.reduceat(p, row_first))
            else:
                vals = -np.log2(np.add.reduceat(p**q, row_first)) / (q - 1)
            out[i, start : start + m] = vals
    return out


def collision_renyi2(code: Code) -> np.ndarray:
    """H_2(X_S) for every mask S from the code's difference spectrum, in int64.

    sum_y Pr[X_S = y]^2 = N(S) / |C|^2, where N(S) counts the pairs
    (c, c') whose difference d = c ^ c' has no one in S.  The number of
    pairs with difference d is mult(d) = 2^-n WHT(WHT(1_C)^2)(d), so
    N(S) is the sum of mult over the subsets of the complement of S, and
    H_2(X_S) = 2 log2|C| - log2 N(S).  No projection is made.
    """
    n = code.n

    def walsh_hadamard(g: np.ndarray) -> np.ndarray:
        for i in range(n):
            t = g.reshape(-1, 2, 1 << i)
            a, b = t[:, 0, :].copy(), t[:, 1, :].copy()
            t[:, 0, :], t[:, 1, :] = a + b, a - b
        return g

    ind = np.zeros(1 << n, dtype=np.int64)
    ind[code.codewords.astype(np.int64)] = 1
    spectrum = walsh_hadamard(ind)
    mult = walsh_hadamard(spectrum * spectrum) >> n  # each entry a multiple of 2^n
    for i in range(n):  # subset sums: entry T becomes the sum of mult over d within T
        t = mult.reshape(-1, 2, 1 << i)
        t[:, 1, :] += t[:, 0, :]
    pairs = mult[::-1]  # entry S reads the complement (2^n - 1) - S
    return 2 * math.log2(code.size) - np.log2(pairs.astype(float))


def bayes_cond_entropy_bsc(code: Code, eps: float) -> float:
    """H(X|Y_BSC) = sum_y P(y) H(X|Y=y), by direct Bayes enumeration."""
    n = code.n
    total = 0.0
    for y in range(1 << n):
        joint = []
        for x in codeword_ints(code):
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
        for x in codeword_ints(code):
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
        for x in codeword_ints(code):
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


def coset_weight_histogram(code: Code) -> np.ndarray:
    """(weight, syndrome) histogram of every word of F_2^n, word by word.

    The syndrome of e is the XOR of the parity-check columns h_i over the
    coordinates i set in e.
    """
    n = code.n
    cols = bs.syndrome_columns(code.generator, n)
    k = code.size.bit_length() - 1
    hist = np.zeros((n + 1, 1 << (n - k)), dtype=np.int64)
    for e in range(1 << n):
        s = 0
        for i in range(n):
            if e >> i & 1:
                s ^= cols[i]
        hist[bin(e).count("1"), s] += 1
    return hist


def bit_loop_syndromes(cols: list[int], z: np.ndarray) -> np.ndarray:
    """The syndrome of every word of z: one shift, mask, multiply and XOR per coordinate."""
    s = np.zeros(len(z), dtype=np.uint32)
    for i, h in enumerate(cols):
        s ^= np.uint32(h) * (z >> i & 1)
    return s


def row_by_row_coset_table(cols: list[int], r: int) -> np.ndarray:
    """T[w, s] in row w + 1: the coset weight table, extended one coordinate and one row at a time.

    Coordinate b, with parity-check column h, adds the old row w - 1 read
    at s ^ h to row w; rows are updated downwards, so row w - 1 still
    holds the old counts when row w reads it.
    """
    n, size = len(cols), 1 << r
    table = np.zeros((n + 2, size), dtype=np.int64)
    table[1, 0] = 1
    index = np.arange(size)
    for b, h in enumerate(cols):
        for row in range(b + 2, 1, -1):
            table[row] += table[row - 1][index ^ h]
    return table


def exhaustive_decode_scan(y: int, code: Code, radius: float) -> list[int]:
    """All codewords strictly within radius of y, unsorted set semantics."""
    return [x for x in codeword_ints(code) if bin(x ^ y).count("1") < radius]


def single_eps_draws(code: Code, eps: float, trials: int, seed: int):
    """(x, z) of a pass seeded at this eps alone, drawn in one piece.

    The draws are the transmitted codeword indices, then every noise bit
    at once, compared with the folded eps and packed by a multiply-and-sum.
    """
    rng = np.random.default_rng(seed)
    x = code.codewords[rng.integers(0, code.size, size=trials)]
    z = multiply_sum_bernoulli_words(trials, code.n, min(eps, 1 - eps), rng)
    return x.astype(np.uint32), z.astype(np.uint32)


def naive_simulate(code: Code, cfg, trials: int, seed: int):
    """Decode trial by trial with ``decode``; draws as ``simulate`` does.

    The draws are the transmitted codeword indices, then the noise bits
    (coordinate i of a trial is column i), with the noise drawn at the
    folded eps so that the words below are the decoder's relabeled view,
    then one uniform per trial that breaks the transmitted word's ties.
    """
    rng = np.random.default_rng(seed)
    x_idx = rng.integers(0, code.size, size=trials)
    eps = cfg.eps if cfg.eps < 0.5 else 1 - cfg.eps
    bits = rng.random((trials, code.n)) < eps
    u = rng.random(trials)
    ones = (1 << code.n) - 1
    cws = codeword_ints(code)
    successes = truncations = heavy = 0
    sizes = []
    for t in range(trials):
        x = cws[int(x_idx[t])]
        z = sum(1 << i for i in range(code.n) if bits[t, i])
        # the channel flips with probability cfg.eps: z, or its complement
        y = x ^ (z if cfg.eps < 0.5 else z ^ ones)
        listed, truncated = decode(y, code, cfg, tie=(x, float(u[t])))
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


def uniform_tie_decode_stats(code: Code, cfg: DecoderConfig) -> dict[str, float]:
    """Exact error, truncation and heavy-noise probabilities under uniform ties, over every (x, z).

    x is uniform on the code and z has i.i.d. Bernoulli coordinates at
    the folded eps, the decoder's relabeled view; y = x ^ z.  Given
    (x, z), x sits uniformly among the t codewords at its distance from
    y, behind the c strictly closer, so when wt(z) is below the radius it
    makes a list of cap with probability min(max(cap - c, 0), t) / t.
    Meant for n <= 10: it builds a 2^n x |C| distance array per codeword.
    """
    n = code.n
    e = min(cfg.eps, 1 - cfg.eps)
    cap = cfg.cap_for(code)
    cws = np.array(codeword_ints(code), dtype=np.int64)
    z = np.arange(1 << n, dtype=np.int64)
    wz = np.bitwise_count(z).astype(np.int64)
    p_z = e**wz * (1 - e) ** (n - wz) / code.size
    inside = wz < cfg.radius
    error = truncation = 0.0
    for x in cws:
        d = np.bitwise_count((x ^ z)[:, None] ^ cws[None, :]).astype(np.int64)
        closer = np.sum(d < wz[:, None], axis=1)
        tied = np.sum(d == wz[:, None], axis=1)
        listed = np.clip(cap - closer, 0, tied) / tied
        error += float(p_z @ (1 - np.where(inside, listed, 0.0)))
        truncation += float(p_z @ (np.sum(d < cfg.radius, axis=1) > cap))
    heavy = float(p_z[~inside].sum()) * code.size
    return {"error_rate": error, "truncations": truncation, "heavy_noise": heavy}


def _received(y: int, code: Code, cfg: DecoderConfig) -> int:
    """The n-bit word y as the decoder reads it: relabeled when eps > 1/2."""
    if cfg.n != code.n:
        raise ValueError("decoder and code dimensions differ")
    if not 0 <= y < 1 << code.n:
        raise ValueError(f"received word must be in [0, 2^{code.n})")
    return y if cfg.eps < 0.5 else y ^ ((1 << code.n) - 1)


def decode(y: int, code: Code, cfg: DecoderConfig, tie=None) -> tuple[list[int], bool]:
    """The radius decoder on one word: every codeword within the radius of y, k closest on truncation.

    Output is sorted by increasing distance, ties broken
    lexicographically, except that ``tie = (x, u)`` places the codeword
    x at position floor(u t) among the t codewords at its distance; the
    second element flags truncation.
    """
    recv = _received(y, code, cfg)
    cws = code.codewords
    dists = np.bitwise_count(cws ^ np.uint64(recv))
    inside = dists < cfg.radius
    hits = sorted((int(d), int(c)) for d, c in zip(dists[inside], cws[inside]))
    ordered = [c for _, c in hits]
    if tie is not None and tie[0] in ordered:
        x, u = tie
        dx = bin(x ^ recv).count("1")
        ordered.remove(x)
        closer = sum(d < dx for d, _ in hits)
        tied = sum(d == dx for d, _ in hits)
        ordered.insert(closer + int(u * tied), x)
    cap = cfg.cap_for(code)
    return ordered[:cap], len(hits) > cap


def delta_likely_threshold(code: Code, cfg: DecoderConfig) -> float:
    """2^((R - (1 - h(eps)) + delta) * n) at the folded eps, inf past a float: a y is likely above it.

    Written out here, apart from the library's list-size helper.
    """
    e = min(cfg.eps, 1 - cfg.eps)
    h = 0.0 if e == 0 else -e * math.log2(e) - (1 - e) * math.log2(1 - e)
    try:
        return 2.0 ** ((code.rate - (1 - h) + cfg.delta) * cfg.n)
    except OverflowError:
        return math.inf


def is_delta_likely(y: int, code: Code, cfg: DecoderConfig) -> tuple[bool, int]:
    """Whether y has more within-radius explanations than the threshold, and their count."""
    recv = _received(y, code, cfg)
    dists = np.bitwise_count(code.codewords ^ np.uint64(recv))
    count = int(np.count_nonzero(dists < cfg.radius))
    return count > delta_likely_threshold(code, cfg), count


def likely_probability_mc(
    code: Code, cfg: DecoderConfig, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo Pr[Y is delta-likely]: (estimate, std error).

    The received words are those of ``simulate`` under the same seed,
    in the decoder's relabeled view, from ``single_eps_draws``.
    """
    if cfg.n != code.n:
        raise ValueError("decoder and code dimensions differ")
    x, z = single_eps_draws(code, cfg.eps, trials, seed)
    dists = np.bitwise_count((x ^ z)[:, None] ^ code.codewords.astype(np.uint32))
    counts = np.count_nonzero(dists < cfg.radius, axis=1)
    p = int(np.count_nonzero(counts > delta_likely_threshold(code, cfg))) / trials
    return p, math.sqrt(max(p * (1 - p), 0.0) / trials)


@dataclass(frozen=True)
class DPStats:
    """Ent[E(f|S)] and log2 ||E(f|S)||_q of a general f on F_2^n, for every subset mask S."""

    n: int
    f: np.ndarray  # read-only copy of the function
    ent: np.ndarray
    log_norm: dict[int, np.ndarray]  # q -> values per mask


def subset_stats(f: np.ndarray, qs) -> DPStats:
    """One O(3^n) pass over all subsets, for Ent and every requested integer q >= 2."""
    f = validate(f).copy()
    f.flags.writeable = False
    for q in qs:
        if not float(q).is_integer() or q < 2:
            raise ValueError(f"the norm inequality requires integer q >= 2, got {q}")
    qs = tuple(dict.fromkeys(int(q) for q in qs))
    n = dim_of(f)
    norm_sums = {q: np.empty(len(f)) for q in qs}
    ent_sums = np.empty(len(f))

    # Divide and conquer on the top remaining coordinate: leaving it out
    # of S averages the two halves, putting it in S stacks their fibers.
    # Visits each subset once with O(3^n) total element work.
    def visit(arr: np.ndarray, coord: int, mask: int) -> None:
        if coord < 0:
            vals = arr[:, 0]
            for q in qs:
                norm_sums[q][mask] = float(np.sum(vals**q))
            pos = vals > 0
            ent_sums[mask] = float(np.sum(vals[pos] * np.log2(vals[pos])))
            return
        half = arr.shape[1] // 2
        a, b = arr[:, :half], arr[:, half:]
        visit((a + b) * 0.5, coord - 1, mask)
        visit(np.concatenate([a, b], axis=0), coord - 1, mask | (1 << coord))

    visit(f.reshape(1, -1), n - 1, 0)

    sizes = np.exp2(np.bitwise_count(np.arange(len(f))).astype(float))
    m = float(f.mean())
    return DPStats(
        n,
        f,
        ent_sums / sizes - m * math.log2(m),
        {q: np.log2(norm_sums[q] / sizes) / q for q in qs},
    )


def dp_sam_norm(dp: DPStats, noisy: NoisyFunction, q: int) -> tuple[float, float]:
    """(lhs, rhs) of SAM's norm inequality for the DP's f, lam = 1 - h_q(eps).

    log2 ||T_eps f||_q from the noisy law, against E_{S~lam} log2 ||E(f|S)||_q
    as ``subset_weights(n, lam) @ row`` of the DP's row.
    """
    assert noisy.n == dp.n
    lam = 1 - h_q(noisy.eps, q)
    return noisy.log_norm(q), float(subset_weights(dp.n, lam) @ dp.log_norm[q])


def dp_sam_entropy(dp: DPStats, noisy: NoisyFunction) -> tuple[float, float]:
    """(lhs, rhs) of SAM's entropy inequality for the DP's f, lam = (1-2 eps)^2.

    Ent[T_eps f] from the noisy law, against E_{S~lam} Ent[E(f|S)] as
    ``subset_weights(n, lam) @ row`` of the DP's row.
    """
    assert noisy.n == dp.n
    lam = (1 - 2 * noisy.eps) ** 2
    return noisy.ent, float(subset_weights(dp.n, lam) @ dp.ent)

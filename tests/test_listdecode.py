import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from chanent import bitspace as bs
from chanent import channels
from chanent import listdecode as ld
from chanent.boolfn import from_code
from chanent.channels import noise_operator
from chanent.cli import resolve_code

from conftest import (
    bit_loop_syndromes,
    codeword_ints,
    coset_weight_histogram,
    decode,
    delta_likely_threshold,
    exhaustive_decode_scan,
    is_delta_likely,
    likely_probability_mc,
    linear_codes,
    naive_simulate,
    nonlinear_codes,
    row_by_row_coset_table,
    single_eps_draws,
    small_corpus,
    uniform_tie_decode_stats,
)


def test_radius_definition():
    cfg = ld.DecoderConfig(n=9, eps=0.1)
    assert cfg.radius == pytest.approx(0.9 + 9**0.75)


def test_config_validation():
    for eps in (0.5, 1.2):
        with pytest.raises(ValueError):
            ld.DecoderConfig(n=4, eps=eps)
    for delta in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            ld.DecoderConfig(n=4, eps=0.1, delta=delta)
    with pytest.raises(ValueError):
        ld.DecoderConfig(n=4, eps=0.1, list_cap=0)


def test_decode_repetition3():
    c = bs.repetition_code(3)
    cfg = ld.DecoderConfig(n=3, eps=0.1, list_cap=4)
    # radius ~ 2.58: 111 at distance 3 is excluded
    listed, trunc = decode(0b000, c, cfg)
    assert listed == [0] and not trunc


def test_decode_zero_noise_returns_codeword_first():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.0, list_cap=16)
    for y in codeword_ints(c)[:5]:
        listed, _ = decode(y, c, cfg)
        assert listed and listed[0] == y


def test_decode_matches_exhaustive_scan():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.1, list_cap=16)
    for y in range(1 << 7):
        listed, trunc = decode(y, c, cfg)
        expect = exhaustive_decode_scan(y, c, cfg.radius)
        assert not trunc
        assert sorted(listed) == sorted(expect)
        # sorted by distance, then lexicographically
        keys = [(bin(x ^ y).count("1"), x) for x in listed]
        assert keys == sorted(keys)


def test_decode_truncation_keeps_closest():
    c = bs.parity_code(5)
    cfg = ld.DecoderConfig(n=5, eps=0.4, list_cap=3)
    y = 0b00001
    listed, trunc = decode(y, c, cfg)
    assert trunc and len(listed) == 3
    full = sorted((bin(x ^ y).count("1"), x) for x in exhaustive_decode_scan(y, c, cfg.radius))
    assert listed == [x for _, x in full[:3]]


def test_likely_probability_rejects_a_decoder_of_another_length():
    with pytest.raises(ValueError, match="dimensions differ"):
        ld.likely_probability(bs.hamming74_code(), ld.DecoderConfig(n=5, eps=0.1))


def test_likely_probability_mc_rejects_a_decoder_of_another_length():
    with pytest.raises(ValueError, match="dimensions differ"):
        likely_probability_mc(bs.hamming74_code(), ld.DecoderConfig(n=5, eps=0.1), 100, 0)


def test_is_delta_likely_rejects_a_decoder_of_another_length():
    with pytest.raises(ValueError, match="dimensions differ"):
        is_delta_likely(0, bs.hamming74_code(), ld.DecoderConfig(n=5, eps=0.1))


@pytest.mark.parametrize("fn", [decode, is_delta_likely])
@pytest.mark.parametrize("y", [1 << 7, -1])
def test_received_word_outside_the_space_is_rejected(fn, y):
    # 1 << 7 would decode as y = 0 with every distance one too large
    with pytest.raises(ValueError, match="received word"):
        fn(y, bs.hamming74_code(), ld.DecoderConfig(n=7, eps=0.1))


def test_decode_eps_above_half_relabels():
    c = bs.repetition_code(3)
    cfg_hi = ld.DecoderConfig(n=3, eps=0.9, list_cap=4)
    cfg_lo = ld.DecoderConfig(n=3, eps=0.1, list_cap=4)
    for y in range(8):
        hi, _ = decode(y, c, cfg_hi)
        lo, _ = decode(y ^ 0b111, c, cfg_lo)
        assert hi == lo


def test_theoretical_list_size_trivial():
    h = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
    assert ld.theoretical_list_size(1 - h, 0.11, 0.0, 30) == 1
    assert ld.theoretical_list_size(0.1, 0.05, 0.0, 20) == 1  # negative exponent


def test_theoretical_list_size_formula():
    rate, eps, delta, n = 0.9, 0.2, 0.05, 16
    h = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
    expect = math.ceil(2 ** ((rate - (1 - h) + delta) * n))
    assert ld.theoretical_list_size(rate, eps, delta, n) == expect


def test_theoretical_list_size_monotone():
    rng = np.random.default_rng(30)
    for _ in range(200):
        rate = float(rng.uniform(0.1, 1))
        eps = float(rng.uniform(0.05, 0.45))
        n = int(rng.integers(5, 40))
        d1, d2 = sorted(rng.uniform(0, 0.3, size=2))
        assert ld.theoretical_list_size(rate, eps, d1, n) <= ld.theoretical_list_size(
            rate, eps, d2, n
        )
        r1, r2 = sorted(rng.uniform(0.1, 1, size=2))
        assert ld.theoretical_list_size(r1, eps, d1, n) <= ld.theoretical_list_size(
            r2, eps, d1, n
        )


def test_a_list_size_past_the_float_range_is_infinite_and_no_word_is_likely():
    code = bs.make_code("random_linear:18,8,1")
    cfg = ld.DecoderConfig(n=18, eps=0.1, delta=100.0)
    assert ld._list_size(code.rate, cfg.effective_eps, cfg.delta, 18) == math.inf
    assert delta_likely_threshold(code, cfg) == math.inf
    # no count passes an infinite threshold, on the coset path and the dense one
    assert ld.likely_probability(code, cfg) == 0.0
    nonlinear = bs.Code(n=7, codewords=bs.hamming74_code().codewords)
    assert ld.likely_probability(nonlinear, ld.DecoderConfig(n=7, eps=0.1, delta=200.0)) == 0.0
    with pytest.raises(ValueError, match="delta=100.0"):
        ld.theoretical_list_size(code.rate, 0.1, 100.0, 18)
    with pytest.raises(ValueError, match="delta=100.0"):
        cfg.cap_for(code)
    # a list cap needs no theoretical size
    assert ld.DecoderConfig(n=18, eps=0.1, delta=100.0, list_cap=4).cap_for(code) == 4


def test_the_applied_list_cap_is_at_most_the_code_size():
    code = bs.hamming74_code()
    assert ld.DecoderConfig(n=7, eps=0.1, list_cap=100).cap_for(code) == code.size == 16
    # a theoretical size far past |C|, still finite as a float
    cfg = ld.DecoderConfig(n=7, eps=0.1, delta=100.0)
    assert ld.theoretical_list_size(code.rate, 0.1, 100.0, 7) > 2**700
    assert cfg.cap_for(code) == 16


def test_rs22_lower_bound_at_capacity_rate():
    eps, n = 0.3, 128
    h = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
    exp, in_hyp = ld.rs22_lower_bound(1 - h, eps, n)
    assert exp == pytest.approx(-h * n**0.75 - 3)
    assert in_hyp  # n = 128 > 10/0.09 ~ 111


def test_rs22_lower_bound_monotone_in_rate():
    eps, n = 0.45, 64
    vals = [ld.rs22_lower_bound(r, eps, n)[0] for r in np.linspace(0.1, 1, 19)]
    for a, b in zip(vals, vals[1:]):
        assert b > a


def test_rs22_out_of_hypothesis_flagged():
    _, in_hyp = ld.rs22_lower_bound(0.9, 0.1, 64)
    assert not in_hyp  # n <= 10/eps^2 = 1000


def test_is_delta_likely_single_code():
    c = bs.single_code(6)
    cfg = ld.DecoderConfig(n=6, eps=0.1, delta=0.6)
    assert delta_likely_threshold(c, cfg) >= 1
    for y in (0, 0b111111, 0b1010):
        likely, count = is_delta_likely(y, c, cfg)
        assert count in (0, 1)
        assert not likely


def test_is_delta_likely_matches_brute_force():
    # above 1/2 the decoder reads the complement of y; the Hamming code is
    # closed under complement, the 5-word code is not
    codes = (bs.hamming74_code(), bs.Code(n=7, codewords=(0, 3, 12, 25, 30)))
    for c, eps in itertools.product(codes, (0.1, 0.9)):
        cfg = ld.DecoderConfig(n=7, eps=eps, delta=0.01)
        for y in range(1 << 7):
            _, count = is_delta_likely(y, c, cfg)
            recv = y if eps < 0.5 else y ^ 0b1111111
            assert count == len(exhaustive_decode_scan(recv, c, cfg.radius))


def test_likely_probability_extremes():
    c = bs.repetition_code(3)
    # huge delta: threshold exceeds |C|, nothing is likely
    cfg = ld.DecoderConfig(n=3, eps=0.1, delta=5.0)
    assert ld.likely_probability(c, cfg) == 0.0
    # eps = 0 with threshold < 1: Y = X qualifies itself, always likely
    cfg0 = ld.DecoderConfig(n=3, eps=0.0, delta=0.0)
    if delta_likely_threshold(c, cfg0) < 1:
        assert ld.likely_probability(c, cfg0) == pytest.approx(1.0)


def test_likely_probability_never_exceeds_one():
    # every received word is likely: the coset path divides the likely mass
    # by the total, and the dense path, without a generator, clamps its sum
    # over all y, which rounds above 1 at these eps
    c = bs.random_linear_code(12, 6, 1)
    for eps in (0.1, 0.2):
        cfg = ld.DecoderConfig(n=12, eps=eps)
        assert (ld._radius_counts(c, cfg) > delta_likely_threshold(c, cfg)).all()
        for code in (c, bs.Code(n=12, codewords=c.codewords)):
            assert ld.likely_probability(code, cfg) == 1.0
    for code in small_corpus(10):
        for eps in (0.05, 0.1, 0.3, 0.8):
            assert ld.likely_probability(code, ld.DecoderConfig(n=code.n, eps=eps)) <= 1.0


def test_likely_probability_exact_vs_mc():
    c = bs.repetition_code(5)
    cfg = ld.DecoderConfig(n=5, eps=0.1, delta=0.1)
    exact = ld.likely_probability(c, cfg)
    est, stderr = likely_probability_mc(c, cfg, trials=10**4, seed=3)
    assert abs(est - exact) <= 4 * stderr + 1e-9


def test_likely_probability_exact_by_enumeration():
    c = bs.repetition_code(5)
    cfg = ld.DecoderConfig(n=5, eps=0.1, delta=0.1)
    threshold = delta_likely_threshold(c, cfg)
    eps = 0.1
    total = 0.0
    for y in range(1 << 5):
        p_y = sum(
            (1 / c.size) * eps ** bin(x ^ y).count("1") * (1 - eps) ** (5 - bin(x ^ y).count("1"))
            for x in codeword_ints(c)
        )
        if len(exhaustive_decode_scan(y, c, cfg.radius)) > threshold:
            total += p_y
    assert ld.likely_probability(c, cfg) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize(
    "spec, eps, delta",
    [
        # each delta puts the threshold inside the range of the coset counts
        ("random_linear:14,9,21", 0.05, 0.66),
        ("random_linear:14,10,3", 0.02, 0.8065),
        ("random_linear:14,10,3", 0.05, 0.6615),
        ("random_linear:14,10,3", 0.9, 0.506),
        ("reed_muller:2,4", 0.02, 0.81),
        ("reed_muller:2,4", 0.05, 0.67),
        ("reed_muller:2,4", 0.9, 0.505),
    ],
)
def test_likely_probability_matches_per_codeword_count(spec, eps, delta):
    c = bs.make_code(spec)
    n = c.n
    cfg = ld.DecoderConfig(n=n, eps=eps, delta=delta)
    ys = np.arange(1 << n, dtype=np.uint64)
    recv = ys if eps < 0.5 else ys ^ np.uint64((1 << n) - 1)
    counts = np.zeros(1 << n, dtype=np.int64)
    for x in c.codewords:
        counts += np.bitwise_count(recv ^ x) < cfg.radius
    # the dense path's counts, which the closed form replaces for linear codes
    assert np.array_equal(counts, ld._radius_counts(c, cfg))
    p_y = noise_operator(from_code(c), cfg.eps) / (1 << n)
    expected = float(p_y[counts > delta_likely_threshold(c, cfg)].sum())
    assert 0 < expected < 1
    assert ld.likely_probability(c, cfg) == pytest.approx(expected, abs=1e-12)


@st.composite
def small_codes(draw):
    # linear codes and arbitrary (mostly nonlinear) codeword sets, n <= 10
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        return bs.random_linear_code(n, draw(st.integers(1, n)), draw(st.integers(0, 10**6)))
    words = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return bs.Code(n=n, codewords=tuple(sorted(words)))


# eps on both sides of 1/2 (1/2 itself is rejected)
EPS = st.one_of(st.floats(0, 0.49), st.floats(0.51, 1))


@settings(max_examples=60, deadline=None)
@given(code=small_codes(), eps=EPS)
def test_radius_counts_match_exhaustive_scan(code, eps):
    # the decoder counts within the radius of y, relabeled when eps > 1/2
    cfg = ld.DecoderConfig(n=code.n, eps=eps)
    counts = ld._radius_counts(code, cfg)
    ones = (1 << code.n) - 1
    for y in range(1 << code.n):
        recv = y if eps < 0.5 else y ^ ones
        assert counts[y] == len(exhaustive_decode_scan(recv, code, cfg.radius)), y


def test_likely_probability_memory_is_bounded():
    # unchunked, the 2^18 x 2^8 distance matrix alone is 512 MiB; the
    # generator-less copy takes the dense WHT path, the code its coset table
    c = bs.random_linear_code(18, 8, 4)
    cfg = ld.DecoderConfig(n=18, eps=0.1, delta=0.0)
    for code in (c, bs.Code(n=18, codewords=c.codewords)):
        ld._coset_weights.cache_clear()
        tracemalloc.start()
        try:
            ld.likely_probability(code, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, code


@settings(max_examples=60, deadline=None)
@given(code=linear_codes(max_n=12))
def test_coset_weights_match_brute_force_histogram(code):
    n, r = code.n, code.redundancy
    assert ld._coset_weights(bs.Code(n=n, codewords=code.codewords)) is None
    found = ld._coset_weights(code)
    if (n + 2) << r > 1 << n:
        assert found is None
        return
    below, cols = found
    assert below.dtype == np.uint32 and not below.flags.writeable
    assert cols == bs.syndrome_columns(code.generator, n)
    assert below[0].tolist() == [0] * (1 << r)
    table = np.diff(below, axis=0)
    assert np.array_equal(table, coset_weight_histogram(code))
    assert table.sum(axis=1).tolist() == [math.comb(n, w) for w in range(n + 1)]
    enumerator = np.bincount([bin(c).count("1") for c in codeword_ints(code)], minlength=n + 1)
    assert table[:, 0].tolist() == enumerator.tolist()


@settings(max_examples=80, deadline=None)
@given(
    code=linear_codes(max_n=12),
    eps=st.floats(0, 1).filter(lambda e: e != 0.5),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
# beyond the drawn sizes: at 3000 trials many tied trials reach both edge
# cases of the prefix lookup: a prefix of weight 0 with z_b = 0, which
# reads row w = -1 as no word, and a coordinate whose column is
# unreachable below b, which is skipped; RM(2,4) has five such
# coordinates, 0, 1, 2, 4 and 8, between reachable ones
@example(code=bs.make_code("random_linear:20,10,3"), eps=0.2, trials=3000, seed=5)
@example(code=bs.make_code("random_linear:24,12,3"), eps=0.2, trials=3000, seed=5)
@example(code=bs.make_code("reed_muller:2,4"), eps=0.3, trials=3000, seed=5)
def test_simulate_coset_path_matches_pair_kernel(code, eps, trials, seed):
    found = ld._coset_weights(code)
    if found is None:
        return  # a low-rate code has no table: only the pair kernel runs
    x, z = single_eps_draws(code, eps, trials, seed)
    radius = math.ceil(ld.DecoderConfig(n=code.n, eps=eps).radius)
    got = ld._bracket(code, found, code.codewords.astype(np.uint32), x, z, radius)
    pin_bracket_to_pair_kernel(code, x, z, radius, got)
    # the table path wherever the table exists, whatever it costs; without a
    # generator the same codewords take the pair kernel
    decoders = [ld.DecoderConfig(n=code.n, eps=eps, list_cap=cap) for cap in (None, 1, 2)]
    with mock.patch.object(ld, "_table_pays", lambda code, trials, folded: True):
        fast = ld.simulate(code, decoders, trials, seed)
    assert fast == ld.simulate(bs.Code(n=code.n, codewords=code.codewords), decoders, trials, seed)
    if code.n <= 12:  # the drawn codes; the examples' per-trial decoding takes seconds
        assert fast == [naive_simulate(code, cfg, trials, seed) for cfg in decoders]


def pin_bracket_to_pair_kernel(code, x, z, radius, got):
    """Per trial, ``_bracket``'s (within, closer, through) against the pair kernel.

    The counts are the pair kernel's, and closer and through count
    exactly the codewords strictly closer than x and those no farther.
    """
    wz = np.bitwise_count(z)
    cws = code.codewords.astype(np.uint32)
    expect = ld._pair_counts(x ^ z, wz, radius, cws)
    for g, e in zip(got, expect, strict=True):
        assert g.dtype == e.dtype == np.uint32 and np.array_equal(g, e)
    _, closer, through = got
    nearer = np.zeros_like(closer)
    no_farther = np.zeros_like(through)
    y = x ^ z
    for c in cws:
        d = np.bitwise_count(y ^ c)
        nearer += d < wz
        no_farther += d <= wz
    assert np.array_equal(closer, nearer) and np.array_equal(through, no_farther)
    assert np.all(closer < through)


@pytest.mark.parametrize(
    "spec",
    [
        "hamming74",
        "reed_muller:1,3",
        "random_linear:10,5,3",
        "random_linear:8,7,1",
        "random_linear:11,4,5",
    ],
)
def test_coset_bracket_matches_pair_kernel_on_every_pair(spec):
    # every (codeword, noise) pair, at most 2^15 here; RM(2,4) would have
    # 2^27, more than memory holds
    code = bs.make_code(spec)
    n = code.n
    cws = code.codewords.astype(np.uint32)
    x = np.repeat(cws, 1 << n)
    z = np.tile(np.arange(1 << n, dtype=np.uint32), code.size)
    wz = np.bitwise_count(z)
    found = ld._coset_weights(code)
    for radius in (1, n // 2, n + 1):
        got = ld._coset_bracket(code, *found, z, wz, radius)
        pin_bracket_to_pair_kernel(code, x, z, radius, got)


@settings(max_examples=60, deadline=None)
@given(code=linear_codes(max_n=24), data=st.data())
@example(code=bs.make_code("random_linear:24,12,3"), data=None)
def test_byte_table_syndromes_match_the_bit_loop(code, data):
    n = code.n
    cols = bs.syndrome_columns(code.generator, n)
    if data is None:
        z = np.arange(1 << 16, dtype=np.uint32) * np.uint32(257)
    else:
        z = np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=50)), np.uint32)
    got = ld._syndromes(cols, z)
    assert got.dtype == np.uint32
    assert np.array_equal(got, bit_loop_syndromes(cols, z))


@settings(max_examples=60, deadline=None)
@given(code=linear_codes(max_n=14))
def test_coset_table_build_matches_the_row_by_row_build(code):
    # the one gather per coordinate gives the table of the row-by-row update
    found = ld._coset_weights(code)
    if found is None:
        return
    below, cols = found
    expect = row_by_row_coset_table(cols, code.redundancy)
    assert np.array_equal(below, np.cumsum(expect, axis=0))


# eps on both sides of 1/2, with the noiseless channels 0 and 1
GRID_EPS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 0.49), st.floats(0.51, 1))


@settings(max_examples=80, deadline=None)
@given(
    code=st.one_of(linear_codes(max_n=12), nonlinear_codes(max_n=10)),
    grid=st.lists(GRID_EPS, min_size=1, max_size=4, unique=True),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    table=st.booleans(),
    block=st.sampled_from([7, 64, bs._BLOCK // 32]),
)
# several blocks of the real size, the last one partial
@example(
    code=bs.make_code("random_linear:16,8,1"), grid=[0.2, 0.9, 0.0], trials=9000, seed=5,
    table=True, block=bs._BLOCK // 32,
)
def test_grid_pass_matches_single_eps_passes(code, grid, trials, seed, table, block):
    # every eps reads the draws of a pass seeded at that eps alone; a
    # block size that does not divide the trials splits the noise draw,
    # and ``table`` sends a linear code down either side of _table_pays;
    # a draw block of ``block`` trials holds 32 bits a trial
    decoders = [
        ld.DecoderConfig(n=code.n, eps=eps, list_cap=cap) for eps in grid for cap in (None, 1)
    ]
    calls = []
    bracket = ld._bracket

    def recorded(code, found, cws, x, z, radius):
        got = bracket(code, found, cws, x, z, radius)
        calls.append((found, x, z, radius, got))
        return got

    with (
        mock.patch.object(bs, "_BLOCK", block * 32),
        mock.patch.object(ld, "_table_pays", lambda code, trials, folded: table),
    ):
        with mock.patch.object(ld, "_bracket", recorded):
            stats = ld.simulate(code, decoders, trials, seed)
        singles = [ld.simulate(code, [cfg], trials, seed)[0] for cfg in decoders]
    assert stats == singles
    # one bracket per folded eps, in grid order: eps and 1 - eps share their noise
    folded = list(dict.fromkeys(min(eps, 1 - eps) for eps in grid))
    assert len(calls) == len(folded)
    for eps, (found, x, z, radius, got) in zip(folded, calls):
        assert (found is not None) == (table and ld._coset_weights(code) is not None)
        assert radius == math.ceil(ld.DecoderConfig(n=code.n, eps=eps).radius)
        x_one, z_one = single_eps_draws(code, eps, trials, seed)
        assert np.array_equal(x, x_one) and np.array_equal(z, z_one), eps
        pin_bracket_to_pair_kernel(code, x, z, radius, got)


def test_tie_rank_stays_below_through_at_the_largest_uniform():
    # at u = 1 - 2^-53 and closer >= 2^21, closer + u (through - closer)
    # rounds up to through in floats; the rank floors before it adds
    through = np.uint32(1 << 24)
    closer = through - np.arange(1, 1001, dtype=np.uint32)
    u = np.full(closer.size, 1 - 2.0**-53)
    assert np.all(closer + u * (through - closer) == through)
    bracket = (np.full_like(closer, through), closer, np.full_like(closer, through))
    z = np.zeros(closer.size, dtype=np.uint32)
    with mock.patch.object(ld, "_bracket", lambda *args: bracket):
        (got,) = ld._count(None, None, None, z, z, u, 1, [int(through)])
    assert got.successes == got.trials == closer.size and got.truncations == 0


NONLINEAR10 = os.path.join(os.path.dirname(__file__), "data", "nonlinear10.txt")  # 40 words


@pytest.mark.parametrize(
    "spec, table",
    [
        ("random_linear:10,5,3", True),
        ("random_linear:10,2,1", False),
        (f"codewords-file:{NONLINEAR10}", False),
    ],
)
def test_simulate_matches_the_exact_uniform_tie_statistics(spec, table):
    # a coset-table code, a linear code on the pair kernel and a nonlinear
    # code, at list caps that cut through tied codewords: every rate lies
    # within 4 standard errors of its exact value
    code = resolve_code(spec)
    trials = 20000
    decoders = [
        ld.DecoderConfig(n=code.n, eps=eps, list_cap=cap)
        for eps in (0.1, 0.25, 0.8)
        for cap in (None, 1, 2)
    ]
    assert (ld._table_pays(code, trials, 3) and ld._coset_weights(code) is not None) == table
    got = ld.simulate(code, decoders, trials, seed=17)
    for cfg, one in zip(decoders, got):
        rates = {
            "error_rate": one.error_rate,
            "truncations": one.truncations / trials,
            "heavy_noise": one.heavy_noise / trials,
        }
        for field, p in uniform_tie_decode_stats(code, cfg).items():
            se = math.sqrt(max(p * (1 - p), 0.0) / trials)
            assert abs(rates[field] - p) <= 4 * se + 1e-12, (cfg, field, rates[field], p)


def test_simulate_validates_every_decoder_before_drawing():
    code = bs.hamming74_code()
    ok = ld.DecoderConfig(n=7, eps=0.1)
    with mock.patch.object(ld, "bernoulli_words", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match="dimensions differ"):
            ld.simulate(code, [ok, ld.DecoderConfig(n=8, eps=0.2)], 10, seed=1)
        with pytest.raises(ValueError, match="float range"):
            ld.simulate(code, [ok, ld.DecoderConfig(n=7, eps=0.2, delta=200)], 10, seed=1)
        with pytest.raises(ValueError, match="trials"):
            ld.simulate(code, [ok], 0, seed=1)


def test_simulate_memory_stays_under_the_per_eps_pass():
    # 4 eps x 3 deltas at 20000 trials.  The bound is the peak of an
    # earlier per-eps pass that walked every tied trial once per eps on
    # this input, 1,326,348 to 1,328,076 B under tracemalloc (16.6 uint32
    # words a trial)
    code = bs.make_code("random_linear:16,8,1")
    trials = 20000
    decoders = [
        ld.DecoderConfig(n=16, eps=eps, delta=delta)
        for eps in (0.05, 0.1, 0.2, 0.3)
        for delta in (0.0, 0.05, 0.2)
    ]
    ld.simulate(code, decoders, trials, seed=1)  # the coset table is cached
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ld.simulate(code, decoders, trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1_326_000


def test_decoding_and_monte_carlo_entropy_leave_numpy_ma_unimported():
    # numpy 2.4's unique without a return_* argument imports numpy.ma, about 20 ms
    script = """
import sys
from chanent import bitspace, entropy_analysis, listdecode
code = bitspace.make_code("random_linear:24,12,1")
listdecode.simulate(code, [listdecode.DecoderConfig(n=24, eps=0.2)], 50000, seed=1)
entropy_analysis.entropy_report(code, [None], [0.5], [1.0], 2000, 1)
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""
    src = os.path.dirname(os.path.dirname(ld.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_simulate_reads_the_table_only_when_it_pays():
    # [24,12] at the decode benchmark's 50000 trials: 624 x 2^12 adds
    # against 2^12 pairs per trial; at 500 trials the pair kernel's
    # 500 x 2^12 pairs an eps pass the table's adds from two eps on
    code = bs.make_code("random_linear:24,12,1")
    assert ld._table_pays(code, 50000, 1)
    assert not ld._table_pays(code, 100, 1)
    assert not ld._table_pays(code, 500, 1) and ld._table_pays(code, 500, 2)
    assert not ld._table_pays(bs.Code(n=3, codewords=(0, 7)), 10**9, 1)


def _no_table(code):
    raise AssertionError("coset table built")


@pytest.mark.parametrize(
    "spec, trials", [("random_linear:16,8,1", 100), ("random_linear:24,9,1", 100)]
)
def test_small_runs_keep_the_pair_kernel(spec, trials):
    # the table's n (n + 2) 2^(n - k) adds pass the trials |C| pair distances:
    # 16 x 18 x 2^8 against 100 x 2^8, and 24 x 26 x 2^15 against 100 x 2^9
    code = bs.make_code(spec)
    assert not ld._table_pays(code, trials, 1)
    ld._coset_weights.cache_clear()
    with mock.patch.object(ld, "_coset_weights", _no_table):
        ld.simulate(code, [ld.DecoderConfig(n=code.n, eps=0.2)], trials, seed=1)


@pytest.mark.parametrize(
    "spec, trials",
    [
        ("random_linear:16,8,1", 5000),
        ("random_linear:20,10,1", 500),
        ("random_linear:20,10,1", 2000),
        ("random_linear:20,10,1", 50000),
        ("random_linear:24,12,1", 50000),
    ],
)
def test_larger_runs_stay_on_the_table(spec, trials):
    # the decode benchmark's codes at its 50000 trials, and runs where the
    # table is faster: [20,10] at 500 trials is the smallest, 20 x 22 x 2^10
    # adds against 500 x 2^10 pair distances
    assert ld._table_pays(bs.make_code(spec), trials, 1)


@pytest.mark.parametrize(
    "grid, table", [((0.25,), False), ((0.25, 0.75), False), ((0.1, 0.25), True)]
)
def test_simulate_routes_by_the_distinct_folded_eps(grid, table):
    # [24,12] at 500 trials: the deltas of one eps, and eps and 1 - eps,
    # share one pair-kernel pass and keep it; two distinct folded eps take
    # the table, and both paths give the same stats
    code = bs.make_code("random_linear:24,12,1")
    trials = 500
    decoders = [
        ld.DecoderConfig(n=24, eps=eps, delta=delta) for eps in grid for delta in (0.0, 0.1)
    ]
    ld._coset_weights.cache_clear()
    builds = []
    coset_weights = ld._coset_weights

    def recorded(code):
        found = coset_weights(code)
        builds.append(found)
        return found

    with mock.patch.object(ld, "_coset_weights", recorded if table else _no_table):
        got = ld.simulate(code, decoders, trials, seed=4)
    assert len(builds) == table and all(found is not None for found in builds)
    ref = ld.simulate(bs.Code(n=24, codewords=code.codewords), decoders, trials, seed=4)
    assert got == ref


@pytest.mark.parametrize("spec", ["random_linear:24,2,1", "random_linear:24,5,1"])
def test_low_rate_code_keeps_the_pair_kernel_without_a_table(spec):
    # the coset tables, 26 x 2^22 and 26 x 2^19 int64, would be 870 and 109 MB
    c = bs.make_code(spec)
    ld._coset_weights.cache_clear()
    assert ld._coset_weights(c) is None
    decoders = [ld.DecoderConfig(n=24, eps=0.1, list_cap=cap) for cap in (None, 1)]
    ref = ld.simulate(bs.Code(n=24, codewords=c.codewords), decoders, trials=1000, seed=1)
    tracemalloc.start()
    try:
        with mock.patch.object(ld, "_coset_weights", _no_table):
            sim = ld.simulate(c, decoders, trials=1000, seed=1)
        # no table either, and the dense fallback refuses n = 24 before allocating
        with pytest.raises(ValueError, match="capped at n <= 20"):
            ld.likely_probability(c, ld.DecoderConfig(n=24, eps=0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert sim == ref


def test_simulate_zero_noise_never_fails():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.0, list_cap=1)
    stats_ = ld.simulate(c, [cfg], trials=2000, seed=8)[0]
    assert stats_.error_rate == 0.0


def test_simulate_single_code_matches_binomial_tail():
    n, eps = 5, 0.2
    c = bs.single_code(n)
    cfg = ld.DecoderConfig(n=n, eps=eps, list_cap=1)
    trials = 10**5
    out = ld.simulate(c, [cfg], trials=trials, seed=9)[0]
    radius = eps * n + n**0.75
    p = float(stats.binom.sf(math.ceil(radius) - 1, n, eps))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(out.error_rate - p) <= 4 * sigma
    assert out.heavy_noise == out.failures


def test_simulate_matches_exhaustive_error_probability():
    # repetition(9): exact error probability by enumerating all noise words
    n, eps = 9, 0.1
    c = bs.repetition_code(n)
    cfg = ld.DecoderConfig(n=n, eps=eps, delta=0.0)
    cap = cfg.cap_for(c)
    radius = cfg.radius
    exact = 0.0
    words = codeword_ints(c)
    for x in words:
        for z in range(1 << n):
            w = bin(z).count("1")
            pz = eps**w * (1 - eps) ** (n - w) / c.size
            y = x ^ z
            hits = sorted(
                (bin(cw ^ y).count("1"), cw)
                for cw in words
                if bin(cw ^ y).count("1") < radius
            )
            if x not in [cw for _, cw in hits[:cap]]:
                exact += pz
    trials = 10**5
    out = ld.simulate(c, [cfg], trials=trials, seed=10)[0]
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(out.error_rate - exact) <= 4 * sigma + 1e-9


def test_simulate_failure_decomposition():
    for code in small_corpus(8):
        cfg = ld.DecoderConfig(n=code.n, eps=0.2, delta=0.0)
        out = ld.simulate(code, [cfg], trials=5000, seed=11)[0]
        assert out.failures <= out.heavy_noise + out.truncations
        assert out.successes + out.failures == out.trials


@settings(max_examples=60, deadline=None)
@given(
    code=small_codes(),
    eps=EPS,
    delta=st.floats(0, 0.5),
    list_cap=st.one_of(st.none(), st.integers(1, 8)),
    trials=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_matches_per_trial_decoding(code, eps, delta, list_cap, trials, seed):
    cfg = ld.DecoderConfig(n=code.n, eps=eps, delta=delta, list_cap=list_cap)
    out = ld.simulate(code, [cfg], trials, seed)[0]
    assert out == naive_simulate(code, cfg, trials, seed)


def test_simulate_serves_every_delta_and_cap():
    # one pass gives each decoder the outcomes of its own pass
    c = bs.random_linear_code(9, 5, 3)
    decoders = [
        ld.DecoderConfig(n=9, eps=0.3, delta=delta, list_cap=list_cap)
        for delta, list_cap in ((0.0, None), (0.2, None), (0.0, 1), (0.0, 3))
    ]
    got = ld.simulate(c, decoders, trials=500, seed=13)
    assert got == [naive_simulate(c, cfg, 500, 13) for cfg in decoders]


def test_simulate_returns_one_result_per_decoder_in_order():
    # decoders in any order, eps repeated and interleaved, and eps and
    # 1 - eps folded onto one noise draw: each gets its own pass's outcomes
    c = bs.hamming74_code()
    decoders = [
        ld.DecoderConfig(n=7, eps=0.2, list_cap=1),
        ld.DecoderConfig(n=7, eps=0.1),
        ld.DecoderConfig(n=7, eps=0.8, list_cap=1),
        ld.DecoderConfig(n=7, eps=0.2, delta=0.3),
    ]
    got = ld.simulate(c, decoders, trials=300, seed=4)
    assert got == [ld.simulate(c, [cfg], trials=300, seed=4)[0] for cfg in decoders]
    assert got[0] == got[2]
    assert ld.simulate(c, [], trials=10, seed=1) == []


def test_simulate_memory_is_bounded():
    # drawn in one piece, the noise of 10^6 trials alone is 80 MB of floats
    c = bs.random_linear_code(10, 5, 1)
    tracemalloc.start()
    try:
        ld.simulate(c, [ld.DecoderConfig(n=10, eps=0.1)], trials=10**6, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_simulate_deterministic():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.15, delta=0.05)
    a = ld.simulate(c, [cfg], trials=3000, seed=12)[0]
    b = ld.simulate(c, [cfg], trials=3000, seed=12)[0]
    assert a == b


def test_simulate_list_contains_all_in_radius_when_untouched():
    # cross-check decode against the scan on random received words
    rng = np.random.default_rng(31)
    c = bs.reed_muller_code(1, 3)
    cfg = ld.DecoderConfig(n=8, eps=0.2, list_cap=16)
    for _ in range(200):
        y = int(rng.integers(0, 1 << 8))
        listed, trunc = decode(y, c, cfg)
        if not trunc:
            assert sorted(listed) == sorted(exhaustive_decode_scan(y, c, cfg.radius))


def test_heavy_noise_tail_decreases_with_n():
    # exact binomial tails follow the exp(-Omega(sqrt(n))) direction
    eps = 0.1
    tails = []
    for n in (9, 25, 49, 81):
        radius = eps * n + n**0.75
        tails.append(float(stats.binom.sf(math.ceil(radius) - 1, n, eps)))
    for a, b in zip(tails, tails[1:]):
        assert b < a

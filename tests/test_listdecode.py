import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chanent import bitspace as bs
from chanent import listdecode as ld
from chanent.boolfn import from_code
from chanent.channels import noise_operator

from conftest import exhaustive_decode_scan, naive_simulate, small_corpus


def test_radius_definition():
    cfg = ld.DecoderConfig(n=9, eps=0.1)
    assert cfg.radius == pytest.approx(0.9 + 9**0.75)


def test_config_validation():
    with pytest.raises(ValueError):
        ld.DecoderConfig(n=4, eps=0.5)
    with pytest.raises(ValueError):
        ld.DecoderConfig(n=4, eps=0.1, delta=-0.1)
    with pytest.raises(ValueError):
        ld.DecoderConfig(n=4, eps=0.1, list_cap=0)


def test_decode_repetition3():
    c = bs.repetition_code(3)
    cfg = ld.DecoderConfig(n=3, eps=0.1, list_cap=4)
    # radius ~ 2.58: 111 at distance 3 is excluded
    listed, trunc = ld.decode(0b000, c, cfg)
    assert listed == [0] and not trunc


def test_decode_zero_noise_returns_codeword_first():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.0, list_cap=16)
    for y in c.codewords[:5]:
        listed, _ = ld.decode(y, c, cfg)
        assert listed and listed[0] == y


def test_decode_matches_exhaustive_scan():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.1, list_cap=16)
    for y in range(1 << 7):
        listed, trunc = ld.decode(y, c, cfg)
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
    listed, trunc = ld.decode(y, c, cfg)
    assert trunc and len(listed) == 3
    full = sorted((bin(x ^ y).count("1"), x) for x in exhaustive_decode_scan(y, c, cfg.radius))
    assert listed == [x for _, x in full[:3]]


def test_decode_eps_above_half_relabels():
    c = bs.repetition_code(3)
    cfg_hi = ld.DecoderConfig(n=3, eps=0.9, list_cap=4)
    cfg_lo = ld.DecoderConfig(n=3, eps=0.1, list_cap=4)
    for y in range(8):
        hi, _ = ld.decode(y, c, cfg_hi)
        lo, _ = ld.decode(y ^ 0b111, c, cfg_lo)
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
    assert ld.likely_threshold(c, cfg) >= 1
    for y in (0, 0b111111, 0b1010):
        likely, count = ld.is_delta_likely(y, c, cfg)
        assert count in (0, 1)
        assert not likely


def test_is_delta_likely_matches_brute_force():
    # above 1/2 the decoder reads the complement of y; the Hamming code is
    # closed under complement, the 5-word code is not
    codes = (bs.hamming74_code(), bs.Code(n=7, codewords=(0, 3, 12, 25, 30)))
    for c, eps in itertools.product(codes, (0.1, 0.9)):
        cfg = ld.DecoderConfig(n=7, eps=eps, delta=0.01)
        for y in range(1 << 7):
            _, count = ld.is_delta_likely(y, c, cfg)
            recv = y if eps < 0.5 else y ^ 0b1111111
            assert count == len(exhaustive_decode_scan(recv, c, cfg.radius))


def test_likely_probability_extremes():
    c = bs.repetition_code(3)
    # huge delta: threshold exceeds |C|, nothing is likely
    cfg = ld.DecoderConfig(n=3, eps=0.1, delta=5.0)
    assert ld.likely_probability(c, cfg) == 0.0
    # eps = 0 with threshold < 1: Y = X qualifies itself, always likely
    cfg0 = ld.DecoderConfig(n=3, eps=0.0, delta=0.0)
    if ld.likely_threshold(c, cfg0) < 1:
        assert ld.likely_probability(c, cfg0) == pytest.approx(1.0)


def test_likely_probability_never_exceeds_one():
    # every received word is likely, and the float sum of Pr[Y = y] over
    # all y rounds above 1 at these eps
    c = bs.random_linear_code(12, 6, 1)
    for eps in (0.1, 0.2):
        cfg = ld.DecoderConfig(n=12, eps=eps)
        assert (ld._radius_counts(c, cfg) > ld.likely_threshold(c, cfg)).all()
        assert ld.likely_probability(c, cfg) == 1.0
    for code in small_corpus(10):
        for eps in (0.05, 0.1, 0.3, 0.8):
            assert ld.likely_probability(code, ld.DecoderConfig(n=code.n, eps=eps)) <= 1.0


def test_likely_probability_exact_vs_mc():
    c = bs.repetition_code(5)
    cfg = ld.DecoderConfig(n=5, eps=0.1, delta=0.1)
    exact = ld.likely_probability(c, cfg)
    est, stderr = ld.likely_probability_mc(c, cfg, trials=10**4, seed=3)
    assert abs(est - exact) <= 4 * stderr + 1e-9


def test_likely_probability_exact_by_enumeration():
    c = bs.repetition_code(5)
    cfg = ld.DecoderConfig(n=5, eps=0.1, delta=0.1)
    threshold = ld.likely_threshold(c, cfg)
    eps = 0.1
    total = 0.0
    for y in range(1 << 5):
        p_y = sum(
            (1 / c.size) * eps ** bin(x ^ y).count("1") * (1 - eps) ** (5 - bin(x ^ y).count("1"))
            for x in c.codewords
        )
        if len(exhaustive_decode_scan(y, c, cfg.radius)) > threshold:
            total += p_y
    assert ld.likely_probability(c, cfg) == pytest.approx(total, abs=1e-12)


def test_likely_probability_matches_per_codeword_count():
    # delta puts the threshold inside the range of the counts
    c = bs.random_linear_code(14, 9, 21)
    cfg = ld.DecoderConfig(n=14, eps=0.05, delta=0.66)
    ys = np.arange(1 << 14, dtype=np.uint64)
    counts = np.zeros(1 << 14, dtype=np.int64)
    for x in c.codeword_array():
        counts += np.bitwise_count(ys ^ x) < cfg.radius
    p_y = noise_operator(from_code(c), cfg.eps) / (1 << 14)
    expected = float(p_y[counts > ld.likely_threshold(c, cfg)].sum())
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
    # unchunked, the 2^18 x 2^8 distance matrix alone is 512 MiB
    c = bs.random_linear_code(18, 8, 4)
    cfg = ld.DecoderConfig(n=18, eps=0.1, delta=0.0)
    tracemalloc.start()
    try:
        ld.likely_probability(c, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_simulate_zero_noise_never_fails():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.0, list_cap=1)
    stats_ = ld.simulate(c, cfg.eps, trials=2000, seed=8).stats(cfg)
    assert stats_.error_rate == 0.0


def test_simulate_single_code_matches_binomial_tail():
    n, eps = 5, 0.2
    c = bs.single_code(n)
    cfg = ld.DecoderConfig(n=n, eps=eps, list_cap=1)
    trials = 10**5
    out = ld.simulate(c, cfg.eps, trials=trials, seed=9).stats(cfg)
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
    for x in c.codewords:
        for z in range(1 << n):
            w = bin(z).count("1")
            pz = eps**w * (1 - eps) ** (n - w) / c.size
            y = x ^ z
            hits = sorted(
                (bin(cw ^ y).count("1"), cw)
                for cw in c.codewords
                if bin(cw ^ y).count("1") < radius
            )
            if x not in [cw for _, cw in hits[:cap]]:
                exact += pz
    trials = 10**5
    out = ld.simulate(c, cfg.eps, trials=trials, seed=10).stats(cfg)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(out.error_rate - exact) <= 4 * sigma + 1e-9


def test_simulate_failure_decomposition():
    for code in small_corpus(8):
        cfg = ld.DecoderConfig(n=code.n, eps=0.2, delta=0.0)
        out = ld.simulate(code, cfg.eps, trials=5000, seed=11).stats(cfg)
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
    out = ld.simulate(code, eps, trials, seed).stats(cfg)
    assert out == naive_simulate(code, cfg, trials, seed)


def test_simulate_serves_every_delta_and_cap():
    # one pass gives each decoder the outcomes of its own pass
    c = bs.random_linear_code(9, 5, 3)
    decoded = ld.simulate(c, 0.3, trials=500, seed=13)
    for delta, list_cap in ((0.0, None), (0.2, None), (0.0, 1), (0.0, 3)):
        cfg = ld.DecoderConfig(n=9, eps=0.3, delta=delta, list_cap=list_cap)
        assert decoded.stats(cfg) == naive_simulate(c, cfg, 500, 13)


def test_simulate_rejects_bad_input():
    c = bs.hamming74_code()
    with pytest.raises(ValueError):
        ld.simulate(c, 0.5, trials=10, seed=1)
    with pytest.raises(ValueError):
        ld.simulate(c, 1.2, trials=10, seed=1)
    with pytest.raises(ValueError):
        ld.simulate(c, 0.1, trials=0, seed=1)
    decoded = ld.simulate(c, 0.1, trials=10, seed=1)
    for cfg in (ld.DecoderConfig(n=7, eps=0.2), ld.DecoderConfig(n=8, eps=0.1)):
        with pytest.raises(ValueError):
            decoded.stats(cfg)


def test_simulate_trials_are_read_only():
    decoded = ld.simulate(bs.hamming74_code(), 0.1, trials=10, seed=1)
    assert (decoded.code, decoded.eps, decoded.trials) == (bs.hamming74_code(), 0.1, 10)
    for arr in (decoded.counts, decoded.rank, decoded.inside):
        assert len(arr) == 10
        with pytest.raises(ValueError):
            arr[0] = 0


def test_simulate_memory_is_bounded():
    # drawn in one piece, the noise of 10^6 trials alone is 80 MB of floats
    c = bs.random_linear_code(10, 5, 1)
    tracemalloc.start()
    try:
        ld.simulate(c, 0.1, trials=10**6, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_simulate_deterministic():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.15, delta=0.05)
    a = ld.simulate(c, cfg.eps, trials=3000, seed=12).stats(cfg)
    b = ld.simulate(c, cfg.eps, trials=3000, seed=12).stats(cfg)
    assert a == b


def test_simulate_list_contains_all_in_radius_when_untouched():
    # cross-check decode against the scan on random received words
    rng = np.random.default_rng(31)
    c = bs.reed_muller_code(1, 3)
    cfg = ld.DecoderConfig(n=8, eps=0.2, list_cap=16)
    for _ in range(200):
        y = int(rng.integers(0, 1 << 8))
        listed, trunc = ld.decode(y, c, cfg)
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

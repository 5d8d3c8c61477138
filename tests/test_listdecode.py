import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from chanent import bitspace as bs
from chanent import listdecode as ld
from chanent.boolfn import from_code
from chanent.channels import noise_operator

from conftest import exhaustive_decode_scan, small_corpus


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
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.1, delta=0.01)
    for y in range(1 << 7):
        _, count = ld.is_delta_likely(y, c, cfg)
        assert count == len(exhaustive_decode_scan(y, c, cfg.radius))


def test_likely_probability_extremes():
    c = bs.repetition_code(3)
    # huge delta: threshold exceeds |C|, nothing is likely
    cfg = ld.DecoderConfig(n=3, eps=0.1, delta=5.0)
    assert ld.likely_probability(c, cfg) == 0.0
    # eps = 0 with threshold < 1: Y = X qualifies itself, always likely
    cfg0 = ld.DecoderConfig(n=3, eps=0.0, delta=0.0)
    if ld.likely_threshold(c, cfg0) < 1:
        assert ld.likely_probability(c, cfg0) == pytest.approx(1.0)


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
    # |C| * 2^n = 2^23 pairs, so the counter runs in more than one block;
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
    stats_ = ld.simulate(c, cfg, trials=2000, seed=8)
    assert stats_.error_rate == 0.0


def test_simulate_single_code_matches_binomial_tail():
    n, eps = 5, 0.2
    c = bs.single_code(n)
    cfg = ld.DecoderConfig(n=n, eps=eps, list_cap=1)
    trials = 10**5
    out = ld.simulate(c, cfg, trials=trials, seed=9)
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
    out = ld.simulate(c, cfg, trials=trials, seed=10)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(out.error_rate - exact) <= 4 * sigma + 1e-9


def test_simulate_failure_decomposition():
    for code in small_corpus(8):
        cfg = ld.DecoderConfig(n=code.n, eps=0.2, delta=0.0)
        out = ld.simulate(code, cfg, trials=5000, seed=11)
        assert out.failures <= out.heavy_noise + out.truncations
        assert out.successes + out.failures == out.trials


def test_simulate_deterministic():
    c = bs.hamming74_code()
    cfg = ld.DecoderConfig(n=7, eps=0.15, delta=0.05)
    a = ld.simulate(c, cfg, trials=3000, seed=12)
    b = ld.simulate(c, cfg, trials=3000, seed=12)
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

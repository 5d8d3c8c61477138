import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import boolfn, channels

from conftest import (
    codeword_ints,
    conditional_expectation,
    eps_grids,
    multiply_sum_bernoulli_words,
    naive_noise_operator,
    naive_project,
    small_corpus,
    spectral_noise_operator,
    xor_shift_oracle,
)


def random_nonneg(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random(1 << n) * 3


def test_noise_operator_identity_at_zero():
    rng = np.random.default_rng(0)
    f = random_nonneg(5, rng)
    assert np.allclose(channels.noise_operator(f, 0.0), f)


def test_noise_operator_full_smoothing_at_half():
    rng = np.random.default_rng(1)
    f = random_nonneg(5, rng)
    out = channels.noise_operator(f, 0.5)
    assert np.allclose(out, f.mean())


def test_noise_operator_one_bit():
    out = channels.noise_operator(np.array([2.0, 0.0]), 0.3)
    assert out == pytest.approx([1.4, 0.6])


def test_noise_operator_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5, 7):
        f = random_nonneg(n, rng)
        for eps in (0.1, 0.37, 0.8, 1.0):
            assert np.allclose(
                channels.noise_operator(f, eps),
                naive_noise_operator(f, eps),
                atol=1e-12,
            )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    eps=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_operator_matches_spectral_oracle(n, eps, seed):
    f = random_nonneg(n, np.random.default_rng(seed))
    diff = channels.noise_operator(f, eps) - spectral_noise_operator(f, eps)
    assert np.max(np.abs(diff)) < 1e-10


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    eps=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_operator_rounds_as_the_axis_by_axis_oracle(n, eps, seed):
    # bit for bit: verify's summary argmin depends on the last bits
    f = random_nonneg(n, np.random.default_rng(seed))
    expected = xor_shift_oracle(f, [1 << i for i in range(n)], eps)
    assert np.array_equal(channels.noise_operator(f, eps), expected)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10), grid=eps_grids(), seed=st.integers(0, 2**32 - 1))
@example(n=4, grid=[0.0, 1.0, 0.3, 0.3, 0.0], seed=1)
def test_grid_pass_rows_are_the_one_eps_noise_operator(n, grid, seed):
    # each row of the pass over an eps grid is bit for bit the pass at its eps alone
    f = random_nonneg(n, np.random.default_rng(seed))
    units = [1 << i for i in range(n)]
    p = channels._xor_shift_pass(np.tile(f, (len(grid), 1)), n, units, grid)
    assert p.shape == (len(grid), 1 << n)
    for row, eps in zip(p, grid):
        assert row.tobytes() == channels.noise_operator(f, eps).tobytes()
        assert np.array_equal(row, xor_shift_oracle(f, units, eps))


def test_noise_operator_memory_is_two_arrays():
    # the output and one scratch array of 2^16 floats each, and small objects
    f = np.random.default_rng(3).random(1 << 16)
    tracemalloc.start()
    try:
        channels.noise_operator(f, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * 2**16 + 64 * 2**10


def test_noise_operator_fixed_points():
    f = np.ones(16)
    for eps in (0.0, 0.3, 0.7, 1.0):
        assert np.allclose(channels.noise_operator(f, eps), f)


def test_noise_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        channels.noise_operator(np.ones(4), 1.5)
    with pytest.raises(ValueError):
        channels.noise_operator(np.ones(6), 0.1)


def test_axis_pairs_views_write_through():
    f = np.arange(8)
    pairs = [(lo.ravel().tolist(), hi.ravel().tolist()) for lo, hi in channels._axis_pairs(f)]
    assert pairs == [([0, 2, 4, 6], [1, 3, 5, 7]), ([0, 1, 4, 5], [2, 3, 6, 7]),
                     ([0, 1, 2, 3], [4, 5, 6, 7])]
    for lo, hi in channels._axis_pairs(f):
        hi += lo
    # subset sums: entry t is the sum of f over the subsets of t
    assert f.tolist() == [sum(s for s in range(8) if s & ~t == 0) for t in range(8)]
    with pytest.raises(ValueError):
        next(channels._axis_pairs(np.arange(16)[::2]))


def test_noise_operator_preserves_mean_and_positivity():
    rng = np.random.default_rng(4)
    f = random_nonneg(6, rng)
    out = channels.noise_operator(f, 0.23)
    assert out.mean() == pytest.approx(f.mean(), abs=1e-12)
    assert np.all(out >= 0)


def test_semigroup_property():
    rng = np.random.default_rng(5)
    f = random_nonneg(6, rng)
    for e1, e2 in [(0.1, 0.2), (0.3, 0.3), (0.05, 0.45)]:
        combined = e1 + e2 - 2 * e1 * e2
        a = channels.noise_operator(channels.noise_operator(f, e1), e2)
        b = channels.noise_operator(f, combined)
        assert np.max(np.abs(a - b)) < 1e-10


def test_noisy_code_function_is_xz_distribution():
    # T_eps f_X = f_{X+Z}, against brute-force summation over (x, z)
    for code in [bs.repetition_code(3), bs.hamming74_code()]:
        n = code.n
        eps = 0.2
        probs = np.zeros(1 << n)
        for x in codeword_ints(code):
            for z in range(1 << n):
                w = bin(z).count("1")
                probs[x ^ z] += (1 / code.size) * eps**w * (1 - eps) ** (n - w)
        f_noisy = channels.noise_operator(boolfn.from_code(code), eps)
        assert np.allclose(f_noisy, probs * (1 << n), atol=1e-12)


def test_noisy_distribution_matches_sampler_histogram():
    # statistical check of the same claim: TV distance < 0.01 at 1e6 samples
    code = bs.hamming74_code()
    n, eps, trials = code.n, 0.2, 10**6
    f_noisy = channels.noise_operator(boolfn.from_code(code), eps)
    model = f_noisy / (1 << n)
    rng = np.random.default_rng(6)
    xs = code.codewords[rng.integers(0, code.size, trials)]
    flips = rng.random((trials, n)) < eps
    powers = (1 << np.arange(n, dtype=np.uint64)).astype(np.uint64)
    zs = (flips.astype(np.uint64) * powers).sum(axis=1, dtype=np.uint64)
    hist = np.bincount((xs ^ zs).astype(np.int64), minlength=1 << n) / trials
    tv = 0.5 * np.abs(hist - model).sum()
    assert tv < 0.01


def test_conditional_expectation_full_and_empty():
    rng = np.random.default_rng(7)
    f = random_nonneg(5, rng)
    assert np.allclose(conditional_expectation(f, (1 << 5) - 1), f)
    empty = conditional_expectation(f, 0)
    assert empty.shape == (1,)
    assert empty[0] == pytest.approx(f.mean())


def test_conditional_expectation_repetition3():
    f = boolfn.from_code(bs.repetition_code(3))
    out = conditional_expectation(f, 0b011)
    assert list(out) == [2, 0, 0, 2]


def test_conditional_expectation_matches_fiber_average():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        f = random_nonneg(n, rng)
        for mask in range(1 << n):
            out = conditional_expectation(f, mask)
            k = bin(mask).count("1")
            assert len(out) == 1 << k
            for xs in range(1 << k):
                fiber = [f[y] for y in range(1 << n) if naive_project(y, mask, n) == xs]
                assert out[xs] == pytest.approx(np.mean(fiber), abs=1e-12)


def test_conditional_expectation_of_code_function_is_marginal():
    # E(f_X|S) = f_{X_S}, exhaustively over subsets for n <= 10 corpus codes
    for code in small_corpus():
        f = boolfn.from_code(code)
        for mask in range(1 << code.n):
            out = conditional_expectation(f, mask)
            k = bin(mask).count("1")
            marg = np.zeros(1 << k)
            for x in codeword_ints(code):
                marg[naive_project(x, mask, code.n)] += 1 / code.size
            assert np.allclose(out, marg * (1 << k), atol=1e-12)


def test_conditional_expectation_preserves_mean():
    rng = np.random.default_rng(9)
    f = random_nonneg(6, rng)
    for mask in (0, 0b1010, 0b111111):
        out = conditional_expectation(f, mask)
        assert out.mean() == pytest.approx(f.mean(), abs=1e-12)


def test_bsc_sample_endpoints():
    # Y = x ^ Z with Z the BSC(eps) noise word
    rng = np.random.default_rng(10)
    x = np.uint64(0b1011)
    assert (x ^ channels.bernoulli_words(5, 4, [0.0], rng)[0] == 0b1011).all()
    assert (x ^ channels.bernoulli_words(5, 4, [1.0], rng)[0] == 0b0100).all()


def test_bsc_sample_flip_rate():
    rng = np.random.default_rng(11)
    n, eps, reps = 20, 0.3, 50000
    flips = int(np.bitwise_count(channels.bernoulli_words(reps, n, [eps], rng)[0]).sum())
    total = n * reps
    sigma = math.sqrt(eps * (1 - eps) / total)
    assert abs(flips / total - eps) < 4 * sigma


def test_bec_sample_endpoints():
    # BEC(eta) reveals each coordinate with probability 1 - eta
    rng = np.random.default_rng(12)
    assert (channels.bernoulli_words(5, 3, [1 - 0.0], rng)[0] == 0b111).all()
    assert (channels.bernoulli_words(5, 3, [1 - 1.0], rng)[0] == 0).all()


def test_bec_sample_erasure_rate():
    rng = np.random.default_rng(13)
    n, eta, reps = 20, 0.5, 50000
    revealed = channels.bernoulli_words(reps, n, [1 - eta], rng)[0]
    erased = n * reps - int(np.bitwise_count(revealed).sum())
    total = n * reps
    sigma = math.sqrt(eta * (1 - eta) / total)
    assert abs(erased / total - eta) < 4 * sigma


def test_sample_subset_endpoints_and_mean():
    rng = np.random.default_rng(14)
    assert (channels.bernoulli_words(3, 6, [1.0], rng)[0] == 0b111111).all()
    assert (channels.bernoulli_words(3, 6, [0.0], rng)[0] == 0).all()
    n, lam, reps = 10, 0.4, 10000
    sizes = int(np.bitwise_count(channels.bernoulli_words(reps, n, [lam], rng)[0]).sum())
    total = n * reps
    sigma = math.sqrt(lam * (1 - lam) / total)
    assert abs(sizes / total - lam) < 4 * sigma


def test_samplers_deterministic_given_seed():
    [a] = channels.bernoulli_words(100, 12, [0.4], np.random.default_rng(99))
    [b] = channels.bernoulli_words(100, 12, [0.4], np.random.default_rng(99))
    assert a.dtype == np.uint32 and a.shape == (100,)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 24])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_bernoulli_words_pack_bits_as_a_multiply_and_sum(n, p):
    # coordinate i of a row is bit i of its word, the same draws bit for
    # bit, and every p of one call reads the uniforms of a draw at that p
    # alone; blocks of 7 trials (32 bits each) split the draw, the last
    # block partial
    with mock.patch.object(bs, "_BLOCK", 7 * 32):
        words = channels.bernoulli_words(50, n, [p, 0.5], np.random.default_rng(n))
    for q, got in zip([p, 0.5], words, strict=True):
        ref = multiply_sum_bernoulli_words(50, n, q, np.random.default_rng(n))
        assert got.dtype == np.uint32 and got.shape == (50,)
        assert np.array_equal(got, ref), q


@pytest.mark.parametrize("n", range(1, 25))
@settings(max_examples=15, deadline=None)
@given(
    p=st.floats(0, 1),
    block=st.integers(1, 9),
    extra=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
# p at and next to the ends of the uniforms' range [0, 1 - 2^-53]
@example(p=0.0, block=3, extra=1, seed=0)
@example(p=2.0**-53, block=3, extra=1, seed=0)
@example(p=0.5, block=3, extra=1, seed=0)
@example(p=1 - 2.0**-53, block=3, extra=1, seed=0)
@example(p=1.0, block=3, extra=1, seed=0)
def test_bernoulli_words_match_the_multiply_and_sum_on_any_input(n, p, block, extra, seed):
    # every lane of the packing at every n, both p of one call reading one
    # stream of uniforms, and trials past a draw block of ``block`` trials
    trials = block + extra
    with mock.patch.object(bs, "_BLOCK", block * 32):
        words = channels.bernoulli_words(trials, n, [p, 1 - p], np.random.default_rng(seed))
    for q, got in zip([p, 1 - p], words, strict=True):
        ref = multiply_sum_bernoulli_words(trials, n, q, np.random.default_rng(seed))
        assert got.dtype == np.uint32 and got.shape == (trials,)
        assert np.array_equal(got, ref), q

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import entropy_analysis as ea
from chanent.channels import bernoulli_words

from conftest import (
    bayes_cond_entropy_bsc,
    erasure_cond_entropy_bec,
    exhaustive_subset_entropy_expectation,
    linear_codes,
    nonlinear_codes,
    small_corpus,
    xor_shift_oracle,
)


REPEATED_ROW = bs.Code(n=5, codewords=tuple(bs.span([3, 3, 12])), generator=(3, 3, 12))


def test_marginal_entropy_empty_subset():
    assert ea.marginal_entropy(bs.hamming74_code(), 0, 1) == 0.0


def test_marginal_entropy_full_space():
    c = bs.full_space_code(4)
    for mask in (0b0001, 0b1010, 0b1111):
        for q in (1, 2, math.inf):
            assert ea.marginal_entropy(c, mask, q) == pytest.approx(
                bin(mask).count("1")
            )


def test_marginal_entropy_repetition3_pair():
    c = bs.repetition_code(3)
    assert ea.marginal_entropy(c, 0b011, 1) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_linear_fast_path_matches_generic(data):
    # the subset-sum table of a linear code against per-mask projection counts
    n = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, n))
    code = bs.random_linear_code(n, k, data.draw(st.integers(0, 10**6)))
    for q in (1, 2, math.inf):
        table = ea.subset_renyi_values(code, q)
        for mask in range(1 << n):
            assert table[mask] == pytest.approx(
                ea.marginal_entropy(code, mask, q), abs=1e-9
            ), (code, mask, q)


@settings(max_examples=40, deadline=None)
@given(
    code=nonlinear_codes(),
    q=st.sampled_from([1, 2, 3, math.inf]),
    pairs=st.integers(1, 4096),
)
def test_projection_kernel_matches_marginal_entropy(code, q, pairs):
    # blocks of pairs // |C| masks (at least one), so most examples cross
    # a block boundary
    masks = np.arange(1 << code.n, dtype=np.uint64)
    with mock.patch.object(ea, "_PAIR_BLOCK", pairs):
        vals = ea.projection_entropies(code, masks, q)
    ref = [ea.marginal_entropy(code, mask, q) for mask in range(1 << code.n)]
    assert np.max(np.abs(vals - ref)) <= 1e-12


def test_nonlinear_subset_table_spans_several_blocks():
    rng = np.random.default_rng(4)
    words = tuple(sorted(rng.choice(1 << 10, size=300, replace=False).tolist()))
    code = bs.Code(n=10, codewords=words)
    assert 1 << code.n > ea._PAIR_BLOCK // code.size
    for q in (1, 2, math.inf):
        table = ea.subset_renyi_values(code, q)
        ref = [ea.marginal_entropy(code, mask, q) for mask in range(1 << code.n)]
        assert np.max(np.abs(table - ref)) <= 1e-12


def test_projection_kernel_rejects_orders_below_one():
    for q in (0.5, math.nan):
        with pytest.raises(ValueError):
            ea.projection_entropies(bs.hamming74_code(), np.arange(4, dtype=np.uint64), q)


def test_subset_mc_reads_each_distinct_mask_from_the_kernel():
    # the draws of a per-mask loop; the kernel sees each distinct mask once
    calls = []
    kernel = ea.projection_entropies

    def counted(code, masks, q):
        calls.append(len(masks))
        return kernel(code, masks, q)

    rng = np.random.default_rng(2)
    words = tuple(sorted(rng.choice(1 << 9, size=40, replace=False).tolist()))
    for code in (bs.Code(n=9, codewords=words), bs.hamming74_code()):
        trials, lam, q, seed = 3000, 0.4, 2, 17
        masks = bernoulli_words(trials, code.n, lam, np.random.default_rng(seed))
        vals = np.array([ea.marginal_entropy(code, int(m), q) for m in masks])
        with mock.patch.object(ea, "projection_entropies", counted):
            est, stderr = ea.subset_entropy_expectation_mc(code, lam, q, trials, seed)
        assert calls.pop() == len(set(masks.tolist()))
        assert est == pytest.approx(vals.mean(), abs=1e-12)
        assert stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(trials), abs=1e-12)


def test_subset_expectation_endpoints():
    c = bs.hamming74_code()
    assert ea.subset_entropy_expectation(c, 1.0, 1) == pytest.approx(c.log_size)
    assert ea.subset_entropy_expectation(c, 0.0, 1) == pytest.approx(0.0)


def test_subset_expectation_repetition3():
    # H(X_S) = 1 for every nonempty S, so the expectation is 1 - (1/2)^3
    c = bs.repetition_code(3)
    assert ea.subset_entropy_expectation(c, 0.5, 1) == pytest.approx(7 / 8)


def test_subset_expectation_matches_exhaustive_oracle():
    for code in small_corpus(8):
        for lam in (0.25, 0.6):
            for q in (1, 2):
                assert ea.subset_entropy_expectation(code, lam, q) == pytest.approx(
                    exhaustive_subset_entropy_expectation(code, lam, q), abs=1e-10
                )


def test_subset_expectation_mc_within_4_sigma():
    code = bs.hamming74_code()
    lam, q = 0.6, 1
    exact = ea.subset_entropy_expectation(code, lam, q)
    est, stderr = ea.subset_entropy_expectation_mc(code, lam, q, trials=10**4, seed=5)
    assert abs(est - exact) <= 4 * stderr + 1e-9


def test_cond_entropy_bsc_full_space():
    c = bs.full_space_code(4)
    for eps in (0.1, 0.3):
        h = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        assert ea.cond_entropy_bsc(c, eps) == pytest.approx(4 * h, abs=1e-10)


def test_cond_entropy_bsc_single():
    assert ea.cond_entropy_bsc(bs.single_code(5), 0.2) == pytest.approx(0.0, abs=1e-9)


def test_cond_entropy_bsc_matches_bayes_oracle():
    for code in small_corpus(8):
        for eps in (0.1, 0.3):
            assert ea.cond_entropy_bsc(code, eps) == pytest.approx(
                bayes_cond_entropy_bsc(code, eps), abs=1e-9
            )


@settings(max_examples=80, deadline=None)
@given(
    code=linear_codes(),
    eps=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
)
@example(code=bs.full_space_code(6), eps=0.3)
@example(code=REPEATED_ROW, eps=0.5)
@example(code=REPEATED_ROW, eps=0.2)
def test_syndrome_cond_entropy_matches_dense_and_bayes(code, eps):
    h = ea.cond_entropy_bsc_linear(code, eps)
    assert h == pytest.approx(ea.cond_entropy_bsc(code, eps), abs=1e-12)
    # the Bayes oracle makes 2^n |C| steps in Python
    if code.size << code.n <= 1 << 15:
        assert h == pytest.approx(bayes_cond_entropy_bsc(code, eps), abs=1e-12)


def test_syndrome_distribution_shape_and_mass():
    for code, k in ((REPEATED_ROW, 2), (bs.full_space_code(4), 4), (bs.hamming74_code(), 4)):
        p = ea.syndrome_distribution(code, 0.2)
        assert len(p) == 1 << (code.n - k)
        assert p.min() >= 0 and p.sum() == pytest.approx(1.0, abs=1e-15)
    # eps = 0: the syndrome of no noise is 0
    assert ea.syndrome_distribution(bs.hamming74_code(), 0.0).tolist() == [1.0] + [0.0] * 7


# a zero parity-check column: coordinate 0 is itself a codeword
WEIGHT_ONE_ROW = bs.Code(n=4, codewords=tuple(bs.span([1, 6])), generator=(1, 6))


@settings(max_examples=60, deadline=None)
@given(code=linear_codes(), eps=st.floats(0, 1))
@example(code=bs.full_space_code(3), eps=0.3)
@example(code=WEIGHT_ONE_ROW, eps=0.1)
@example(code=WEIGHT_ONE_ROW, eps=0.3)
def test_syndrome_distribution_rounds_as_the_oracle(code, eps):
    r = code.n - (code.size.bit_length() - 1)
    delta = np.zeros(1 << r)
    delta[0] = 1.0
    expected = xor_shift_oracle(delta, bs.syndrome_columns(code.generator, code.n), eps)
    assert np.array_equal(ea.syndrome_distribution(code, eps), expected)


def test_oracle_examples_have_a_zero_parity_check_column():
    for code in (bs.full_space_code(3), WEIGHT_ONE_ROW):
        assert 0 in bs.syndrome_columns(code.generator, code.n)


def test_syndrome_distribution_rejects_bad_input():
    with pytest.raises(ValueError):
        ea.syndrome_distribution(bs.single_code(3), 0.1)  # no generator
    with pytest.raises(ValueError):
        ea.syndrome_distribution(bs.hamming74_code(), 1.5)


def test_bsc_chain_rule_identity():
    # H(X|Y) = H(X) + n h(eps) - H(Y) exactly, via the Bayes oracle
    from chanent import boolfn, channels

    for code in [bs.repetition_code(5), bs.hamming74_code()]:
        eps = 0.15
        f_y = channels.noise_operator(boolfn.from_code(code), eps)
        h_y = code.n - boolfn.ent(f_y)
        h = boolfn.binary_entropy(eps)
        assert bayes_cond_entropy_bsc(code, eps) == pytest.approx(
            code.log_size + code.n * h - h_y, abs=1e-9
        )


def test_cond_entropy_bec_trivial():
    assert ea.cond_entropy_bec(bs.single_code(4), 0.3) == pytest.approx(0.0, abs=1e-12)
    c = bs.full_space_code(4)
    for eta in (0.25, 0.5):
        assert ea.cond_entropy_bec(c, eta) == pytest.approx(4 * eta, abs=1e-10)


def test_cond_entropy_bec_repetition3():
    eta = 0.45
    assert ea.cond_entropy_bec(bs.repetition_code(3), eta) == pytest.approx(eta**3)


def test_cond_entropy_bec_matches_erasure_oracle():
    for code in small_corpus():
        for eta in (0.25, 0.5, 0.75):
            assert ea.cond_entropy_bec(code, eta) == pytest.approx(
                erasure_cond_entropy_bec(code, eta), abs=1e-9
            )


@pytest.mark.parametrize("lam", [-0.5, 1.5, math.nan])
def test_subset_mc_rejects_a_density_outside_unit_interval(lam):
    # as the exact path does
    with pytest.raises(ValueError, match="lam"):
        ea.subset_entropy_expectation_mc(bs.hamming74_code(), lam, 1.0, 100, 1)
    with pytest.raises(ValueError, match="lam"):
        ea.subset_entropy_expectation(bs.hamming74_code(), lam, 1.0)


@pytest.mark.parametrize("eta", [-0.5, 1.5, math.nan])
def test_cond_entropy_bec_mc_rejects_eta_outside_unit_interval(eta):
    with pytest.raises(ValueError, match="eta"):
        ea.cond_entropy_bec_mc(bs.hamming74_code(), eta, 100, 1)
    with pytest.raises(ValueError, match="eta"):
        ea.cond_entropy_bec(bs.hamming74_code(), eta)


@pytest.mark.parametrize("q", [0.5, math.nan])
def test_exact_subset_expectation_rejects_orders_below_one_for_linear_codes(q):
    # the linear table serves every order, so the order is checked up front
    with pytest.raises(ValueError, match="order"):
        ea.subset_entropy_expectation(bs.hamming74_code(), 0.5, q)
    with pytest.raises(ValueError, match="order"):
        ea.subset_entropy_expectation_mc(bs.hamming74_code(), 0.5, q, 100, 1)


def test_cond_entropy_bec_mc_within_4_sigma():
    code = bs.reed_muller_code(1, 3)
    eta = 0.4
    exact = ea.cond_entropy_bec(code, eta)
    est, stderr = ea.cond_entropy_bec_mc(code, eta, trials=10**4, seed=11)
    assert abs(est - exact) <= 4 * stderr + 1e-9


def test_conditional_entropies_bounded_by_h_x():
    for code in small_corpus(8):
        for eps in (0.1, 0.4):
            v = ea.cond_entropy_bsc(code, eps)
            assert -1e-9 <= v <= code.log_size + 1e-9
        for eta in (0.2, 0.8):
            v = ea.cond_entropy_bec(code, eta)
            assert -1e-9 <= v <= code.log_size + 1e-9


def test_cond_entropy_bec_monotone_in_eta():
    code = bs.hamming74_code()
    grid = [0.1 * i for i in range(11)]
    vals = [ea.cond_entropy_bec(code, eta) for eta in grid]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-10


def test_exact_mode_cap():
    with pytest.raises(ValueError):
        ea.subset_renyi_values(bs.repetition_code(21), 1.0)


def test_subset_expectation_builds_one_linear_table_for_every_order():
    cache = ea.subset_renyi_values
    cache.cache_clear()
    linear = bs.hamming74_code()
    for q in (1, 2, 3, math.inf):
        ea.subset_entropy_expectation(linear, 0.5, q)
    assert cache.cache_info().misses == 1
    # a nonlinear code's table depends on q
    nonlinear = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    for q in (1, 2, 2.0, 1):
        ea.subset_entropy_expectation(nonlinear, 0.5, q)
    assert cache.cache_info().misses == 3


def test_entropy_report_roundtrip():
    code = bs.repetition_code(3)
    (rep,) = ea.entropy_report(code, [0.1], [0.5], [2])
    d = rep.to_dict()
    assert d["code"] == "repetition(3)"
    assert d["H_X"] == pytest.approx(1.0)
    assert d["H_X_given_Ybsc"] == pytest.approx(ea.cond_entropy_bsc(code, 0.1))
    assert d["H_X_given_Ybec"] == pytest.approx(ea.cond_entropy_bec(code, 0.5))
    assert d["method"] == "exact"


def test_entropy_report_takes_the_syndrome_path_for_linear_codes():
    eps = 0.15
    linear = bs.hamming74_code()
    (rep,) = ea.entropy_report(linear, [eps], [None])
    assert rep.h_x_given_bsc == ea.cond_entropy_bsc_linear(linear, eps)
    nonlinear = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    (rep,) = ea.entropy_report(nonlinear, [eps], [None])
    assert rep.h_x_given_bsc == ea.cond_entropy_bsc(nonlinear, eps)


def test_entropy_report_bsc_memory_is_bounded():
    # the dense path's 2^24 floats are 128 MiB an array
    code = bs.random_linear_code(24, 12, 1)
    tracemalloc.start()
    try:
        ea.entropy_report(code, [0.1], [None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_monte_carlo_report_samples_subsets_once_for_q1(monkeypatch):
    calls = []
    sampler = ea.subset_entropy_expectation_mc

    def counted(*args, **kwargs):
        calls.append(args)
        return sampler(*args, **kwargs)

    monkeypatch.setattr(ea, "subset_entropy_expectation_mc", counted)
    code = bs.repetition_code(ea.EXACT_SUBSET_CAP + 1)
    (rep,) = ea.entropy_report(code, [None], [0.5], [1], trials=200, seed=3)
    assert len(calls) == 1
    assert rep.method == "monte_carlo"
    assert rep.h_x_given_bec == code.log_size - rep.e_s_hq_xs
    ea.entropy_report(code, [None], [0.5], [2], trials=200, seed=3)
    assert len(calls) == 3


def test_entropy_report_computes_each_quantity_once_over_its_grid(monkeypatch):
    bsc, subset = [], []
    dense, sampler = ea.cond_entropy_bsc, ea.subset_entropy_expectation

    def dense_counted(code, eps):
        bsc.append(eps)
        return dense(code, eps)

    def subset_counted(code, lam, q):
        subset.append((lam, q))
        return sampler(code, lam, q)

    monkeypatch.setattr(ea, "cond_entropy_bsc", dense_counted)
    monkeypatch.setattr(ea, "subset_entropy_expectation", subset_counted)
    code = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    reports = ea.entropy_report(code, [0.1, 0.2], [0.25, 0.5], [2, 3])
    assert bsc == [0.1, 0.2]
    # each (eta, q) once, and q = 1 once per eta for H(X|Y_BEC)
    assert sorted(subset) == sorted((lam, q) for lam in (0.75, 0.5) for q in (1, 2, 3))
    assert [(r.eps, r.eta, r.q) for r in reports] == [
        (eps, eta, q) for eps in (0.1, 0.2) for eta in (0.25, 0.5) for q in (2, 3)
    ]
    for r in reports:
        assert r.h_x_given_bsc == dense(code, r.eps)
        assert r.h_x_given_bec == ea.cond_entropy_bec(code, r.eta)
        assert r.e_s_hq_xs == sampler(code, 1 - r.eta, r.q)


@pytest.mark.parametrize(
    "code",
    [bs.hamming74_code(), bs.Code(n=3, codewords=(0, 3, 5)), bs.repetition_code(21)],
    ids=["linear", "nonlinear", "monte_carlo"],
)
@pytest.mark.parametrize(
    "etas, qs, message",
    [
        ([0.5], [-1], "order"),
        ([0.5], [0.5], "order"),
        ([0.5], [math.nan], "order"),
        ([1.5], [1], "outside"),
        ([math.nan], [1], "outside"),
        ([0.5, -0.1], [1], "outside"),
    ],
)
def test_entropy_report_checks_orders_and_etas_on_every_path(code, etas, qs, message):
    # the linear subset table never reads q, and n > 20 samples subsets
    with pytest.raises(ValueError, match=message):
        ea.entropy_report(code, [None], etas, qs, trials=100, seed=1)

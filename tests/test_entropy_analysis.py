import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import entropy_analysis as ea

from conftest import (
    bayes_cond_entropy_bsc,
    erasure_cond_entropy_bec,
    exhaustive_subset_entropy_expectation,
    small_corpus,
)


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


def test_entropy_report_roundtrip():
    code = bs.repetition_code(3)
    rep = ea.entropy_report(code, eps=0.1, eta=0.5, q=2)
    d = rep.to_dict()
    assert d["code"] == "repetition(3)"
    assert d["H_X"] == pytest.approx(1.0)
    assert d["H_X_given_Ybsc"] == pytest.approx(ea.cond_entropy_bsc(code, 0.1))
    assert d["H_X_given_Ybec"] == pytest.approx(ea.cond_entropy_bec(code, 0.5))
    assert d["method"] == "exact"


def test_monte_carlo_report_samples_subsets_once_for_q1(monkeypatch):
    calls = []
    sampler = ea.subset_entropy_expectation_mc

    def counted(*args, **kwargs):
        calls.append(args)
        return sampler(*args, **kwargs)

    monkeypatch.setattr(ea, "subset_entropy_expectation_mc", counted)
    code = bs.repetition_code(ea.EXACT_SUBSET_CAP + 1)
    rep = ea.entropy_report(code, None, 0.5, q=1, trials=200, seed=3)
    assert len(calls) == 1
    assert rep.method == "monte_carlo"
    assert rep.h_x_given_bec == code.log_size - rep.e_s_hq_xs
    ea.entropy_report(code, None, 0.5, q=2, trials=200, seed=3)
    assert len(calls) == 3

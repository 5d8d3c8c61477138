import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import boolfn, channels, inequalities as iq

from conftest import small_corpus


def test_sam_norm_constant_function():
    rep = iq.check_sam_norm(iq.subset_stats(np.ones(16), (2,)), 0.2, 2)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_sam_norm_full_space():
    f = boolfn.from_code(bs.full_space_code(4))
    rep = iq.check_sam_norm(iq.subset_stats(f, (3,)), 0.3, 3)
    assert abs(rep.slack) <= 1e-9


def test_sam_norm_rejects_bad_q():
    stats = iq.subset_stats(np.ones(8), (2,))
    with pytest.raises(ValueError):
        iq.check_sam_norm(stats, 0.2, 1)
    with pytest.raises(ValueError):
        iq.check_sam_norm(stats, 0.2, 2.5)
    with pytest.raises(ValueError, match="q=3"):
        iq.check_sam_norm(stats, 0.2, 3)  # valid, but not in the stats
    for q in (1, 2.5):
        with pytest.raises(ValueError):
            iq.subset_stats(np.ones(8), (q,))


def test_sam_norm_random_battery():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = rng.random(1 << n) * 2
        eps = float(rng.uniform(0.05, 0.45))
        q = int(rng.choice([2, 3, 4]))
        rep = iq.check_sam_norm(iq.subset_stats(f, (q,)), eps, q)
        assert rep.slack >= -1e-9, (n, eps, q)


def test_sam_entropy_constant_and_half():
    assert abs(iq.check_sam_entropy(iq.subset_stats(np.ones(16), ()), 0.2).slack) <= 1e-12
    rng = np.random.default_rng(21)
    g = rng.random(16) + 0.1
    rep = iq.check_sam_entropy(iq.subset_stats(g, ()), 0.5)
    # lambda = 0: both sides equal Ent of the empty-subset conditional = 0
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.rhs == pytest.approx(0.0, abs=1e-10)


def test_sam_entropy_random_battery():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = rng.random(1 << n) * 2
        eps = float(rng.uniform(0.05, 0.45))
        assert iq.check_sam_entropy(iq.subset_stats(f, ()), eps).slack >= -1e-9


def test_cor_rv_full_space_equality():
    c = bs.full_space_code(4)
    rep = iq.check_cor_rv(c, 0.2, 2)
    assert abs(rep.slack) <= 1e-9
    assert rep.rhs == pytest.approx(4.0)


def test_cor_rv_single_code():
    # both sides computed by brute force for the point-mass code
    n, eps, q = 5, 0.2, 2
    c = bs.single_code(n)
    rep = iq.check_cor_rv(c, eps, q)
    lam = 1 - boolfn.h_q(eps, q)
    # H_q(Z) for iid Bernoulli noise is n h_q(eps); E_S H_q(X_S) = 0
    assert rep.rhs == pytest.approx(n * boolfn.h_q(eps, q), abs=1e-10)
    assert rep.lhs == pytest.approx((1 - lam) * n, abs=1e-10)
    assert rep.slack >= -1e-9


def test_cor_rv_corpus_battery():
    for code in small_corpus(8):
        for eps in (0.1, 0.3):
            for q in (2, 3):
                assert iq.check_cor_rv(code, eps, q).slack >= -1e-9


def test_cor_rv_entropy_trivial_cases():
    assert abs(iq.check_cor_rv_entropy(bs.full_space_code(3), 0.2).slack) <= 1e-9
    rep = iq.check_cor_rv_entropy(bs.hamming74_code(), 0.5)
    assert abs(rep.slack) <= 1e-9  # lambda = 0 and H(X+Z) = n


def test_cor_rv_entropy_corpus_battery():
    for code in small_corpus(8):
        for eps in (0.05, 0.25, 0.45):
            assert iq.check_cor_rv_entropy(code, eps).slack >= -1e-9


def test_cor_rv_consistent_with_sam_norm():
    # the same inequality through the norm/entropy translations
    for code in [bs.repetition_code(3), bs.hamming74_code()]:
        stats = iq.subset_stats(boolfn.from_code(code), (2, 3))
        for eps in (0.1, 0.3):
            for q in (2, 3):
                a = iq.check_sam_norm(stats, eps, q)
                b = iq.check_cor_rv(code, eps, q)
                assert b.slack == pytest.approx(a.slack * q / (q - 1), abs=1e-9)
            # q = 1: Ent[E(f|S)] = |S| - H(X_S) and E|S| = lam n, so the slacks agree
            a = iq.check_sam_entropy(stats, eps)
            b = iq.check_cor_rv_entropy(code, eps)
            assert b.slack == pytest.approx(a.slack, abs=1e-9)


def test_bsc_bec_full_space_equality():
    rep = iq.check_bsc_bec(bs.full_space_code(4), 0.3, 0.5)
    assert abs(rep.slack) <= 1e-9


def test_bsc_bec_single_code():
    n, eps, eta = 5, 0.3, 0.5
    rep = iq.check_bsc_bec(bs.single_code(n), eps, eta)
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.slack == pytest.approx(
        (boolfn.binary_entropy(eps) - eta) * n, abs=1e-9
    )
    assert rep.slack >= 0


def test_bsc_bec_repetition():
    assert iq.check_bsc_bec(bs.repetition_code(3), 0.3, 0.5).slack >= -1e-9


def test_bsc_bec_hypothesis_gate():
    with pytest.raises(iq.HypothesisViolation):
        iq.check_bsc_bec(bs.repetition_code(3), 0.05, 0.5)
    with pytest.raises(iq.HypothesisViolation):
        iq.check_bsc_bec(bs.repetition_code(3), 0.3, 1.5)


def test_h_at_least_eta_under_hypothesis():
    # h(eps) >= eta whenever 4 eps (1-eps) >= eta, on a grid
    for eps in np.linspace(0.02, 0.98, 49):
        for eta in np.linspace(0, 1, 21):
            if 4 * eps * (1 - eps) >= eta:
                assert boolfn.binary_entropy(float(eps)) >= eta - 1e-12


def test_partial_entropy_uniform():
    k = 8
    rep = iq.partial_entropy_bound_check(np.full(k, 1 / k))
    assert rep.slack == pytest.approx(1.0, abs=1e-12)


def test_partial_entropy_point_mass():
    rep = iq.partial_entropy_bound_check(np.array([1.0]))
    assert rep.lhs == pytest.approx(0.0)
    assert rep.slack == pytest.approx(1.0)


def test_partial_entropy_rejects_overweight():
    with pytest.raises(ValueError):
        iq.partial_entropy_bound_check(np.array([0.7, 0.7]))


@settings(max_examples=300)
@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20))
def test_partial_entropy_random_subdistributions(raw):
    p = np.array(raw)
    total = p.sum()
    if total > 1:
        p = p / total
    assert iq.partial_entropy_bound_check(p).slack >= -1e-9


def test_partial_entropy_random_battery():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        k = int(rng.integers(1, 30))
        p = rng.random(k)
        p *= rng.random() / p.sum()
        assert iq.partial_entropy_bound_check(p).slack >= -1e-9


def test_slack_report_serialization():
    rep = iq.check_bsc_bec(bs.repetition_code(3), 0.3, 0.5)
    d = rep.to_dict()
    assert d["inequality"] == "bsc_bec"
    assert d["pass"] is True
    assert d["slack"] == pytest.approx(rep.rhs - rep.lhs)


def test_rejects_identically_zero_function():
    with pytest.raises(ValueError, match="identically zero"):
        iq.subset_stats(np.zeros(8), ())


def test_subset_stats_rejects_bad_length():
    with pytest.raises(ValueError, match="not a power of two"):
        iq.subset_stats(np.ones(6), (2,))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=4.0)),
            min_size=1 << n,
            max_size=1 << n,
        )
    ).filter(any)
)
def test_subset_stats_matches_definition(values):
    # every mask against Ent and the q-norm of conditional_expectation
    f = np.array(values)
    stats = iq.subset_stats(f, (2, 3, 4))
    for mask in range(len(f)):
        cond = channels.conditional_expectation(f, mask)
        assert stats.ent[mask] == pytest.approx(boolfn.ent(cond), abs=1e-12)
        for q in (2, 3, 4):
            direct = math.log2(boolfn.norm_q(cond, q))
            assert stats.log_norm[q][mask] == pytest.approx(direct, abs=1e-12)


def test_subset_stats_independent_of_other_qs():
    f = np.random.default_rng(24).random(64)
    both = iq.subset_stats(f, (2, 3)).log_norm[3]
    alone = iq.subset_stats(f, (3,)).log_norm[3]
    assert both.tobytes() == alone.tobytes()


def test_subset_stats_keeps_a_read_only_copy():
    f = np.ones(8)
    stats = iq.subset_stats(f, ())
    f[0] = 5.0
    assert np.all(stats.f == 1.0)
    with pytest.raises(ValueError):
        stats.f[0] = 5.0

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import boolfn, channels, inequalities as iq
from chanent import entropy_analysis as ea

from conftest import (
    assert_is_the_dense_law,
    bayes_cond_entropy_bsc,
    conditional_expectation,
    dp_sam_entropy,
    dp_sam_norm,
    linear_codes,
    nonlinear_codes,
    small_corpus,
    subset_stats,
)


def _code_inputs(code, eps, qs=()):
    """The code's subset statistics and noisy law, as ``verify`` gives them to the checks."""
    return ea.subset_stats_of_code(code, qs), ea.noisy_law(code, eps)


# The SAM inequalities hold for every nonnegative f; the library checks
# them only for f = f_C, so a general f reads its rows from the conftest DP.


def test_sam_norm_constant_function():
    ones = np.ones(16)
    lhs, rhs = dp_sam_norm(subset_stats(ones, (2,)), iq.noisy_function(ones, 0.2), 2)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_sam_norm_full_space():
    f = boolfn.from_code(bs.full_space_code(4))
    lhs, rhs = dp_sam_norm(subset_stats(f, (3,)), iq.noisy_function(f, 0.3), 3)
    assert abs(rhs - lhs) <= 1e-9


def test_sam_norm_rejects_bad_q():
    # f_C of the full space is the constant 1 on F_2^3
    stats = ea.subset_stats_of_code(bs.full_space_code(3), (2,))
    noisy = iq.noisy_function(np.ones(8), 0.2)
    with pytest.raises(ValueError):
        iq.check_sam_norm(stats, noisy, 1)
    with pytest.raises(ValueError):
        iq.check_sam_norm(stats, noisy, 2.5)
    with pytest.raises(ValueError, match="q=3"):
        iq.check_sam_norm(stats, noisy, 3)  # valid, but not in the stats
    for q in (1, 2.5):
        with pytest.raises(ValueError):
            subset_stats(np.ones(8), (q,))


def test_sam_norm_random_battery():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = rng.random(1 << n) * 2
        eps = float(rng.uniform(0.05, 0.45))
        q = int(rng.choice([2, 3, 4]))
        lhs, rhs = dp_sam_norm(subset_stats(f, (q,)), iq.noisy_function(f, eps), q)
        assert rhs - lhs >= -1e-9, (n, eps, q)


def test_sam_entropy_constant_and_half():
    ones = np.ones(16)
    lhs, rhs = dp_sam_entropy(subset_stats(ones, ()), iq.noisy_function(ones, 0.2))
    assert abs(rhs - lhs) <= 1e-12
    rng = np.random.default_rng(21)
    g = rng.random(16) + 0.1
    lhs, rhs = dp_sam_entropy(subset_stats(g, ()), iq.noisy_function(g, 0.5))
    # lambda = 0: both sides equal Ent of the empty-subset conditional = 0
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-10)


def test_sam_entropy_random_battery():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = rng.random(1 << n) * 2
        eps = float(rng.uniform(0.05, 0.45))
        lhs, rhs = dp_sam_entropy(subset_stats(f, ()), iq.noisy_function(f, eps))
        assert rhs - lhs >= -1e-9


def test_cor_rv_full_space_equality():
    c = bs.full_space_code(4)
    rep = iq.check_cor_rv(*_code_inputs(c, 0.2, (2,)), 2)
    assert abs(rep.slack) <= 1e-9
    assert rep.rhs == pytest.approx(4.0)


def test_cor_rv_single_code():
    # both sides computed by brute force for the point-mass code
    n, eps, q = 5, 0.2, 2
    c = bs.single_code(n)
    rep = iq.check_cor_rv(*_code_inputs(c, eps, (q,)), q)
    lam = 1 - boolfn.h_q(eps, q)
    # H_q(Z) for iid Bernoulli noise is n h_q(eps); E_S H_q(X_S) = 0
    assert rep.rhs == pytest.approx(n * boolfn.h_q(eps, q), abs=1e-10)
    assert rep.lhs == pytest.approx((1 - lam) * n, abs=1e-10)
    assert rep.slack >= -1e-9


def test_cor_rv_corpus_battery():
    for code in small_corpus(8):
        for eps in (0.1, 0.3):
            stats, noisy = _code_inputs(code, eps, (2, 3))
            for q in (2, 3):
                assert iq.check_cor_rv(stats, noisy, q).slack >= -1e-9


def test_cor_rv_entropy_trivial_cases():
    c = bs.full_space_code(3)
    assert abs(iq.check_cor_rv_entropy(*_code_inputs(c, 0.2)).slack) <= 1e-9
    c = bs.hamming74_code()
    rep = iq.check_cor_rv_entropy(*_code_inputs(c, 0.5))
    assert abs(rep.slack) <= 1e-9  # lambda = 0 and H(X+Z) = n


def test_cor_rv_entropy_corpus_battery():
    for code in small_corpus(8):
        for eps in (0.05, 0.25, 0.45):
            assert iq.check_cor_rv_entropy(*_code_inputs(code, eps)).slack >= -1e-9


@settings(max_examples=60, deadline=None)
@given(
    code=st.one_of(linear_codes(max_n=9), nonlinear_codes(max_n=8)),
    eps=st.floats(min_value=0.0, max_value=0.5),
)
def test_cor_rv_consistent_with_sam_norm(code, eps):
    # the same inequality through the norm/entropy translations, for every
    # code: T_eps f_C is 2^n times the law of X+Z, and E|S| = lam n
    stats, noisy = _code_inputs(code, eps, (2, 3))  # one T_eps f for both checks
    for q in (2, 3):
        a = iq.check_sam_norm(stats, noisy, q)
        b = iq.check_cor_rv(stats, noisy, q)
        assert a.slack == pytest.approx((1 - 1 / q) * b.slack, abs=1e-12)
    a = iq.check_sam_entropy(stats, noisy)
    b = iq.check_cor_rv_entropy(stats, noisy)
    assert a.slack == pytest.approx(b.slack, abs=1e-12)


def test_bsc_bec_full_space_equality():
    c = bs.full_space_code(4)
    rep = iq.check_bsc_bec(*_code_inputs(c, 0.3), 0.5)
    assert abs(rep.slack) <= 1e-9


def test_bsc_bec_single_code():
    n, eps, eta = 5, 0.3, 0.5
    c = bs.single_code(n)
    rep = iq.check_bsc_bec(*_code_inputs(c, eps), eta)
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.slack == pytest.approx(
        (boolfn.binary_entropy(eps) - eta) * n, abs=1e-9
    )
    assert rep.slack >= 0


def test_bsc_bec_repetition():
    c = bs.repetition_code(3)
    assert iq.check_bsc_bec(*_code_inputs(c, 0.3), 0.5).slack >= -1e-9


def test_bsc_bec_hypothesis_gate():
    c = bs.repetition_code(3)
    with pytest.raises(iq.HypothesisViolation):
        iq.check_bsc_bec(*_code_inputs(c, 0.05), 0.5)
    # a malformed eta is a usage error, not a hypothesis to skip
    for eta in (1.5, -0.1):
        with pytest.raises(ValueError) as exc:
            iq.check_bsc_bec(*_code_inputs(c, 0.3), eta)
        assert not isinstance(exc.value, iq.HypothesisViolation)


def test_h_at_least_eta_under_hypothesis():
    # h(eps) >= eta whenever 4 eps (1-eps) >= eta, on a grid
    for eps in np.linspace(0.02, 0.98, 49):
        for eta in np.linspace(0, 1, 21):
            if 4 * eps * (1 - eps) >= eta:
                assert boolfn.binary_entropy(float(eps)) >= eta - 1e-12


def test_slack_report_serialization():
    c = bs.repetition_code(3)
    rep = iq.check_bsc_bec(*_code_inputs(c, 0.3), 0.5)
    d = rep.to_dict()
    assert d["inequality"] == "bsc_bec"
    assert d["pass"] is True
    assert d["slack"] == pytest.approx(rep.rhs - rep.lhs)
    assert d["skipped"] is rep.skipped is False


def test_check_law_is_every_check_in_verify_order():
    code = bs.hamming74_code()
    stats, noisy = _code_inputs(code, 0.1, (2, 3))
    reports = iq.check_law(stats, noisy, (2, 3), (0.3, 0.5))
    checks = [iq.check_cor_rv_entropy(stats, noisy), iq.check_sam_entropy(stats, noisy)]
    for q in (2, 3):
        checks += [iq.check_cor_rv(stats, noisy, q), iq.check_sam_norm(stats, noisy, q)]
    checks.append(iq.check_bsc_bec(stats, noisy, 0.3))  # 4 eps (1-eps) = 0.36
    assert [rep.to_dict() for rep in reports[:-1]] == [rep.to_dict() for rep in checks]
    assert [rep.skipped for rep in reports] == [False] * 7 + [True]


def test_a_skipped_report_is_a_bsc_bec_row_without_sides():
    code = bs.repetition_code(3)
    stats, noisy = _code_inputs(code, 0.3)
    done, skipped = iq.check_law(stats, noisy, (), (0.5, 0.9))[-2:]
    row, empty = done.to_dict(), skipped.to_dict()
    assert list(empty) == list(row)
    assert empty == {**row, "eta": 0.9, "lhs": None, "rhs": None, "slack": None, "skipped": True}
    assert skipped.passed and skipped.slack is None


def test_an_unnamed_code_is_labelled_code_as_in_its_entropy_report():
    code = bs.Code(n=4, codewords=[0, 3, 5, 14])
    [report] = ea.entropy_report(code, [0.1], [0.5])
    reports = iq.check_law(*_code_inputs(code, 0.1, (2,)), (2,), (0.3, 0.9))
    assert [rep.skipped for rep in reports] == [False] * 5 + [True]
    labels = [rep.params.get("code", rep.params.get("f")) for rep in reports]
    assert labels == [report.code] * len(reports) == ["code"] * 6


@settings(max_examples=60, deadline=None)
@given(
    code=st.one_of(linear_codes(max_n=9), nonlinear_codes(max_n=8)),
    eps=st.floats(min_value=0.0, max_value=0.5),
)
@example(code=bs.reed_muller_code(1, 4), eps=0.45)
def test_bsc_bec_at_eta_4eps_1_minus_eps_is_cor_rv_entropy(code, eps):
    # at eta = 4 eps (1-eps), 1 - eta = (1-2 eps)^2 is cor_rv_entropy's lam,
    # and H(X|Y_BSC) = H(X) + n h(eps) - H(X+Z) makes the two slacks one
    eta = 4 * eps * (1 - eps)
    reports = iq.check_law(*_code_inputs(code, eps), (), (eta,))
    assert [rep.inequality for rep in reports] == ["cor_rv_entropy", "sam_entropy", "bsc_bec"]
    assert reports[-1].slack == pytest.approx(reports[0].slack, abs=1e-12)


def test_rejects_identically_zero_function():
    with pytest.raises(ValueError, match="identically zero"):
        subset_stats(np.zeros(8), ())


def test_subset_stats_rejects_bad_length():
    with pytest.raises(ValueError, match="not a power of two"):
        subset_stats(np.ones(6), (2,))


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
    stats = subset_stats(f, (2, 3, 4))
    for mask in range(len(f)):
        cond = conditional_expectation(f, mask)
        assert stats.ent[mask] == pytest.approx(boolfn.ent(cond), abs=1e-12)
        for q in (2, 3, 4):
            direct = math.log2(boolfn.norm_q(cond, q))
            assert stats.log_norm[q][mask] == pytest.approx(direct, abs=1e-12)


def test_subset_stats_independent_of_other_qs():
    f = np.random.default_rng(24).random(64)
    both = subset_stats(f, (2, 3)).log_norm[3]
    alone = subset_stats(f, (3,)).log_norm[3]
    assert both.tobytes() == alone.tobytes()


def test_subset_stats_keeps_a_read_only_copy():
    f = np.ones(8)
    stats = subset_stats(f, ())
    f[0] = 5.0
    assert np.all(stats.f == 1.0)
    with pytest.raises(ValueError):
        stats.f[0] = 5.0


@settings(max_examples=80, deadline=None)
@given(code=st.one_of(linear_codes(max_n=9), nonlinear_codes(max_n=8)))
def test_subset_stats_of_code_matches_the_dp(code):
    # the closed form against the DP on f_C, every mask and order
    closed = ea.subset_stats_of_code(code, (2, 3, 4))
    dp = subset_stats(boolfn.from_code(code), (2, 3, 4))
    assert closed.n == dp.n == code.n
    assert np.max(np.abs(closed.row("ent") - dp.ent)) <= 1e-12
    for q in (2, 3, 4):
        assert np.max(np.abs(closed.row("log_norm", q) - dp.log_norm[q])) <= 1e-12


def test_subset_stats_of_code_checks_orders():
    # the statistics hold H_q(X_S) at any order q >= 1; the norm checks
    # take integer orders >= 2 only, and say so
    code = bs.hamming74_code()
    for q in (0, 0.5, math.nan):
        with pytest.raises(ValueError, match="must be >= 1"):
            ea.subset_stats_of_code(code, (2, q))
    stats = ea.subset_stats_of_code(code, (3, 2, 3.0, 2.5, 1))
    assert list(stats.renyi) == [1.0, 3, 2, 2.5]
    assert stats.n == 7
    noisy = ea.noisy_law(code, 0.2)
    for q in (1, 2.5):
        with pytest.raises(ValueError, match="integer q >= 2"):
            iq.check_sam_norm(stats, noisy, q)


def test_subset_stats_of_a_linear_code_build_one_row_on_first_use():
    # f_C of [20, 10] is 2^20 floats; the checks of a linear code read only its n
    code = bs.make_code("random_linear:20,10,1")
    # the cached subset table, the popcounts and the weights' small tables
    ea.subset_stats_of_code(code, ()).expectation("ent", 0.5)
    tracemalloc.start()
    try:
        stats = ea.subset_stats_of_code(code, ())
        held, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stats.expectation("ent", 0.5)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = stats.row("ent")
    assert stats.n == 20 and row.nbytes == 8 * 2**20
    # building the statistics allocates no 2^n row: f_C or a derived row would be one
    assert built < row.nbytes / 8
    # the first Ent expectation builds its row and one weight array, and keeps
    # both; a second row would be a third 2^20 array
    assert 2 * row.nbytes <= peak - held < 2.5 * row.nbytes
    assert 2 * row.nbytes <= current - held < 2.5 * row.nbytes
    assert stats.row("ent") is row and not row.flags.writeable


def test_subset_stats_of_code_enforces_the_subset_cap():
    # the library holds no DP that could run instead
    assert not hasattr(iq, "subset_stats") and not hasattr(ea, "subset_stats")
    nonlinear = bs.Code(n=21, codewords=(0, 3, 1 << 20))
    for code in (bs.repetition_code(21), nonlinear):
        with pytest.raises(ValueError, match="capped at n <= 20"):
            ea.subset_stats_of_code(code, (2,))


def test_noisy_function_is_read_only_and_keeps_eps():
    f = np.ones(8)
    noisy = iq.noisy_function(f, 0.2)
    assert (noisy.eps, noisy.n, noisy.k) == (0.2, 3, 0)
    f[0] = 5.0
    assert np.all(noisy.p == 1 / 8)
    with pytest.raises(ValueError):
        noisy.p[0] = 5.0
    with pytest.raises(AttributeError):
        noisy.eps = 0.3
    law = ea.noisy_law(bs.hamming74_code(), 0.2)
    with pytest.raises(ValueError):
        law.p[0] = 5.0


def test_noisy_function_matches_noise_operator():
    f = boolfn.from_code(bs.hamming74_code())
    noisy = iq.noisy_function(f, 0.15)
    assert (noisy.p * 2**7).tobytes() == channels.noise_operator(f, 0.15).tobytes()


@settings(max_examples=60, deadline=None)
@given(code=linear_codes(max_n=12), eps=st.floats(min_value=0.0, max_value=1.0))
@example(code=bs.hamming74_code(), eps=0.0)
@example(code=bs.hamming74_code(), eps=0.5)
@example(code=bs.hamming74_code(), eps=1.0)
@example(code=bs.reed_muller_code(1, 4), eps=0.1)
@example(code=bs.make_code("random_linear:20,10,1"), eps=0.3)
def test_noisy_law_of_a_linear_code_matches_the_dense_path(code, eps):
    law = ea.noisy_law(code, eps)
    dense = iq.noisy_function(boolfn.from_code(code), eps)
    # one cell per coset: 2^(n-k) of them, 2^k points each
    assert (law.n, law.k, len(law.p)) == (code.n, code.n - code.redundancy, 1 << code.redundancy)
    assert law.ent == pytest.approx(dense.ent, abs=1e-12)
    for q in (2, 3, 4):
        assert law.log_norm(q) == pytest.approx(dense.log_norm(q), abs=1e-12), q
        assert law.renyi(q) == pytest.approx(dense.renyi(q), abs=1e-12), q
        # and the dense path's reads agree with the boolfn reductions of T_eps f
        noisy = dense.p * 2**code.n
        assert dense.log_norm(q) == pytest.approx(math.log2(boolfn.norm_q(noisy, q)), abs=1e-12)
        assert dense.renyi(q) == boolfn.renyi_entropy_of_function(noisy, q)
    assert dense.ent == pytest.approx(boolfn.ent(dense.p * 2**code.n), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(code=nonlinear_codes(), eps=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)))
@example(code=bs.Code(n=5, codewords=(0, 3, 12, 19, 30)), eps=0.2)
@example(code=bs.Code(n=7, codewords=(0, 3, 12, 19, 30, 101)), eps=1e-310)  # subnormal
def test_noisy_law_of_a_nonlinear_code_is_the_dense_path(code, eps):
    # a cell per point, from 1/|C| on each codeword: the dense T_eps f_C / 2^n
    law = ea.noisy_law(code, eps)
    assert (law.n, law.k) == (code.n, 0)
    assert_is_the_dense_law(law.p, code, eps)


@settings(max_examples=40, deadline=None)
@given(code=linear_codes(max_n=9), eps=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)))
@example(code=bs.hamming74_code(), eps=0.3)
@example(code=bs.reed_muller_code(1, 3), eps=0.15)
def test_a_linear_code_and_its_words_without_the_generator_agree(code, eps):
    # the same code on both paths: 2^(n-k) cosets of C, or 2^n points
    words = bs.Code(n=code.n, codewords=code.codewords)
    qs, etas = (2, 3), (0.3, 0.5)
    h_bsc, slacks = [], []
    for c in (code, words):
        (report,) = ea.entropy_report(c, [eps], [None])
        stats = ea.subset_stats_of_code(c, qs)
        noisy = ea.noisy_law(c, eps)
        checks = [iq.check_cor_rv_entropy(stats, noisy), iq.check_sam_entropy(stats, noisy)]
        for q in qs:
            checks += [iq.check_cor_rv(stats, noisy, q), iq.check_sam_norm(stats, noisy, q)]
        bsc_bec = [iq.check_bsc_bec(stats, noisy, eta) for eta in etas if 4 * eps * (1 - eps) >= eta]
        h_bsc.append([report.h_x_given_bsc] + [rep.lhs for rep in bsc_bec])
        slacks.append([rep.slack for rep in checks + bsc_bec])
    assert np.max(np.abs(np.subtract(*h_bsc))) <= 1e-12
    assert np.max(np.abs(np.subtract(*slacks))) <= 1e-12
    # the Bayes oracle makes 2^n |C| steps in Python
    if code.size << code.n <= 1 << 14:
        bayes = bayes_cond_entropy_bsc(code, eps)
        assert np.max(np.abs(np.subtract(h_bsc, bayes))) <= 1e-12


def test_subset_expectation_is_the_weighted_row_and_keeps_one_weight_array(monkeypatch):
    code = bs.reed_muller_code(1, 4)
    stats = ea.subset_stats_of_code(code, (2, 3))
    gathers = []

    def counted(n, lam):
        gathers.append(lam)
        return weights(n, lam)

    weights = ea.subset_weights
    monkeypatch.setattr(ea, "subset_weights", counted)
    asks = [("ent", 0.3, 1.0), ("renyi", 0.3, 1.0), ("log_norm", 0.5, 2)]
    asks += [("ent", 0.3, 1.0), ("renyi", 0.5, 2), ("renyi", 0.3, 3)]
    for row, lam, q in asks:
        expected = float(weights(code.n, lam) @ stats.row(row, q))
        assert stats.expectation(row, lam, q) == expected
        # the weights of one lam at most are held
        assert list(stats._weights) == ["lam", "w"]
    # a gather per change of lam; the second (ent, 0.3) was remembered, so
    # the weights of 0.5 served (renyi, 2) too, and a linear code's renyi
    # row is one row at every order, so (renyi, 0.3, 3) was remembered too
    assert gathers == [0.3, 0.5]


def test_checks_reject_noisy_function_of_another_dimension():
    stats = ea.subset_stats_of_code(bs.repetition_code(3), (2,))
    for noisy in (
        iq.noisy_function(np.ones(16), 0.2),
        ea.noisy_law(bs.hamming74_code(), 0.2),
    ):
        for check in (
            lambda: iq.check_sam_norm(stats, noisy, 2),
            lambda: iq.check_sam_entropy(stats, noisy),
            lambda: iq.check_cor_rv(stats, noisy, 2),
            lambda: iq.check_cor_rv_entropy(stats, noisy),
            lambda: iq.check_bsc_bec(stats, noisy, 0.5),
        ):
            with pytest.raises(ValueError, match="expected 2\\^3"):
                check()


def test_code_checks_need_statistics_of_a_code_with_the_order():
    code = bs.hamming74_code()
    stats, noisy = _code_inputs(code, 0.3, (2,))
    # statistics always have a code behind them, and the SAM rows name it
    assert inspect.signature(ea.SubsetStats).parameters["code"].default is inspect.Parameter.empty
    assert iq.check_sam_entropy(stats, noisy).params["f"] == code.name == "hamming74"
    assert iq.check_sam_norm(stats, noisy, 2).params["f"] == code.name
    for check in (iq.check_cor_rv, iq.check_sam_norm):
        with pytest.raises(ValueError, match="^subset statistics were built without q=3$"):
            check(stats, noisy, 3)  # valid, but not in the stats
    # the code's statistics always hold q = 1 and their own orders
    assert list(stats.renyi) == [1.0, 2] and stats.code is code
    iq.check_cor_rv(stats, noisy, 2)

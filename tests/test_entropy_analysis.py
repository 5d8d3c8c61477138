import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import entropy_analysis as ea
from chanent import inequalities as iq
from chanent.boolfn import binary_entropy, renyi_entropy
from chanent.channels import bernoulli_words
from chanent.entropy_analysis import subset_stats_of_code

from conftest import (
    assert_is_the_dense_law,
    bayes_cond_entropy_bsc,
    collision_renyi2,
    eps_grids,
    erasure_cond_entropy_bec,
    exhaustive_subset_entropy_expectation,
    exp_log_subset_weights,
    linear_codes,
    nonlinear_codes,
    small_corpus,
    uint64_projection_entropies,
    xor_shift_oracle,
)


REPEATED_ROW = bs.Code(n=5, codewords=bs.span([3, 3, 12]), generator=(3, 3, 12))


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
    qs = (1, 2, math.inf)
    for q, row in zip(qs, ea.subset_renyi_values(code, qs)):
        for mask in range(1 << n):
            assert row[mask] == pytest.approx(
                ea.marginal_entropy(code, mask, q), abs=1e-9
            ), (code, mask, q)


@settings(max_examples=40, deadline=None)
@given(
    code=nonlinear_codes(),
    qs=st.lists(st.sampled_from([1, 2, 3, math.inf]), min_size=1, max_size=4),
    pairs=st.integers(1, 4096),
)
def test_projection_kernel_matches_marginal_entropy(code, qs, pairs):
    # blocks of pairs // |C| masks (at least one), so most examples cross
    # a block boundary
    masks = np.arange(1 << code.n, dtype=np.uint64)
    with mock.patch.object(bs, "_BLOCK", pairs):
        table = ea.projection_entropies(code, masks, qs)
    assert table.shape == (len(qs), len(masks))
    for q, row in zip(qs, table):
        ref = [ea.marginal_entropy(code, mask, q) for mask in range(1 << code.n)]
        assert np.max(np.abs(row - ref)) <= 1e-12
        # each order's row is the single-order pass, bit for bit
        assert row.tobytes() == ea.projection_entropies(code, masks, (q,))[0].tobytes()


ORDERS = (1, 1.5, 2, 3, math.inf)


@st.composite
def projection_inputs(draw):
    """A code with n in [1, 24], masks to project it on (all when n <= 12), and orders."""
    code = draw(nonlinear_codes(max_n=24))
    if code.n <= 12:
        masks = np.arange(1 << code.n, dtype=np.uint64)
    else:
        subsets = st.lists(st.integers(0, (1 << code.n) - 1), max_size=700)
        masks = np.array(draw(subsets), dtype=np.uint64)
    qs = tuple(draw(st.lists(st.sampled_from(ORDERS), min_size=1, max_size=5)))
    return code, masks, qs


def _fixed_inputs(n, size, seed, mask_count=None):
    """Seeded distinct words, one of them all ones, and all masks or mask_count seeded ones."""
    rng = np.random.default_rng(seed)
    words = [*rng.choice((1 << n) - 1, size - 1, replace=False).tolist(), (1 << n) - 1]
    if mask_count is None:
        masks = np.arange(1 << n, dtype=np.uint64)
    else:
        masks = np.append(rng.integers(0, 1 << n, mask_count), (1 << n) - 1).astype(np.uint64)
    return bs.Code(n=n, codewords=tuple(sorted(words))), masks, ORDERS


@settings(max_examples=60, deadline=None)
@given(inputs=projection_inputs())
@example(inputs=_fixed_inputs(16, 300, 1, mask_count=500))  # the widest uint16 words
@example(inputs=_fixed_inputs(17, 300, 2, mask_count=500))  # the narrowest uint32 words
@example(inputs=_fixed_inputs(24, 300, 3, mask_count=500))
@example(inputs=_fixed_inputs(5, 1, 4))  # one word: every run is the whole code
@example(inputs=(bs.full_space_code(4), np.arange(16, dtype=np.uint64), ORDERS))
@example(inputs=_fixed_inputs(12, 300, 5))  # 218-mask blocks: the last holds 172
def test_projection_kernel_equals_the_uint64_oracle(inputs):
    code, masks, qs = inputs
    table = ea.projection_entropies(code, masks, qs)
    oracle = uint64_projection_entropies(code, masks, qs)
    assert table.shape == oracle.shape == (len(qs), len(masks))
    for row, ref in zip(table, oracle, strict=True):
        assert row.tobytes() == ref.tobytes()


def test_nonlinear_subset_table_spans_several_blocks():
    rng = np.random.default_rng(4)
    words = tuple(sorted(rng.choice(1 << 10, size=300, replace=False).tolist()))
    code = bs.Code(n=10, codewords=words)
    assert 1 << code.n > bs._BLOCK // code.size
    qs = (1, 2, math.inf)
    for q, row in zip(qs, ea.subset_renyi_values(code, qs)):
        ref = [ea.marginal_entropy(code, mask, q) for mask in range(1 << code.n)]
        assert np.max(np.abs(row - ref)) <= 1e-12


@pytest.mark.parametrize("n, size, seed", [(18, 1000, 6), (19, 300, 7), (20, 1000, 8)])
def test_kernel_q2_row_equals_the_collision_counts_at_the_cap(n, size, seed):
    # 2,000 seeded masks, all ones and the empty mask, against N(S) from the difference spectrum
    code, masks, _ = _fixed_inputs(n, size, seed, mask_count=2000)
    masks = np.append(masks, np.uint64(0))
    row = ea.projection_entropies(code, masks, (2.0,))[0]
    ref = collision_renyi2(code)[masks.astype(np.int64)]
    assert np.max(np.abs(row - ref)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(code=st.one_of(nonlinear_codes(), linear_codes(max_n=10)))
def test_subset_table_q2_row_equals_the_collision_counts(code):
    row = ea.subset_renyi_values(code, (2.0,))[0]
    assert np.max(np.abs(row - collision_renyi2(code))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(code=linear_codes())
@example(code=bs.make_code("random_linear:16,8,1"))
@example(code=REPEATED_ROW)
def test_linear_subset_table_is_the_masked_rank_of_every_mask(code):
    # exact integers, not approximately: the verify argmin reads their last bits
    row = ea.subset_renyi_values(code, (1.0,))[0]
    ranks = bs.masked_ranks(code.generator, np.arange(1 << code.n, dtype=np.uint64))
    assert row.dtype == np.float64
    assert (row == ranks).all()


def test_projection_kernel_rejects_orders_below_one():
    for q in (0.5, math.nan):
        with pytest.raises(ValueError, match="order"):
            ea.projection_entropies(
                bs.hamming74_code(), np.arange(4, dtype=np.uint64), (1.0, q)
            )


def _mc_draws(code, trials, lam, q, seed):
    """The draws of a per-mask loop, and H_q(X_S) of each drawn mask."""
    (masks,) = bernoulli_words(trials, code.n, [lam], np.random.default_rng(seed))
    vals = np.array([ea.marginal_entropy(code, int(m), q) for m in masks])
    return masks, vals


def test_subset_mc_reads_each_distinct_mask_from_the_projection_kernel():
    # a nonlinear code: one projection pass sees each distinct mask once, for every order
    calls = []
    kernel = ea.projection_entropies

    def counted(code, masks, qs):
        calls.append((len(masks), tuple(qs)))
        return kernel(code, masks, qs)

    rng = np.random.default_rng(2)
    words = tuple(sorted(rng.choice(1 << 9, size=40, replace=False).tolist()))
    code = bs.Code(n=9, codewords=words)
    trials, lam, qs, seed = 3000, 0.4, (2, 1, math.inf), 17
    with mock.patch.object(ea, "projection_entropies", counted):
        results = ea.subset_entropy_expectation_mc(code, lam, qs, trials, seed)
    for q, (est, stderr) in zip(qs, results, strict=True):
        masks, vals = _mc_draws(code, trials, lam, q, seed)
        assert est == pytest.approx(vals.mean(), abs=1e-12)
        assert stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(trials), abs=1e-12)
    assert calls == [(len(set(masks.tolist())), qs)]


def test_subset_mc_ranks_each_distinct_mask_of_a_linear_code():
    # a code with a generator: the rank kernel sees each distinct mask once
    calls = []
    kernel = ea.masked_ranks

    def counted(rows, masks):
        calls.append(len(masks))
        return kernel(rows, masks)

    code = bs.hamming74_code()
    trials, lam, qs, seed = 3000, 0.4, (2, 1, math.inf), 17
    masks, vals = _mc_draws(code, trials, lam, 1, seed)
    with mock.patch.object(ea, "masked_ranks", counted), mock.patch.object(
        ea, "projection_entropies", side_effect=AssertionError("projection kernel called")
    ):
        results = ea.subset_entropy_expectation_mc(code, lam, qs, trials, seed)
    assert calls == [len(set(masks.tolist()))]
    # H_q(X_S) = r(S) for every q
    assert len(results) == len(qs) and len(set(results)) == 1
    est, stderr = results[0]
    assert est == pytest.approx(vals.mean(), abs=1e-12)
    assert stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(trials), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 16),
    k=st.integers(1, 10),
    lam=st.floats(0, 1),
    q=st.sampled_from([1, 2, 3, math.inf]),
    trials=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=22, k=9, lam=0.45, q=1, trials=600, seed=3)
def test_subset_mc_ranks_equal_the_projection_kernel_on_the_same_draw(
    n, k, lam, q, trials, seed
):
    # on a linear code every projected count is 2^(k - r(S)), so the
    # projection kernel returns r(S) bit for bit at these orders
    code = bs.random_linear_code(n, min(k, n), seed)
    (masks,) = bernoulli_words(trials, n, [lam], np.random.default_rng(seed))
    distinct, inverse = np.unique(masks, return_inverse=True)
    vals = ea.projection_entropies(code, distinct, (q,))[0][inverse]
    assert ea.subset_entropy_expectation_mc(code, lam, (q,), trials, seed) == [
        (float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(trials)))
    ]


def test_subset_mc_rejects_a_single_trial():
    code = bs.random_linear_code(24, 12, 1)
    for trials in (1, 0):
        with pytest.raises(ValueError, match="standard error needs two samples"):
            ea.subset_entropy_expectation_mc(code, 0.5, (1.0,), trials, 1)


def test_popcounts_are_a_read_only_int64_table():
    ea.popcounts.cache_clear()
    got = ea.popcounts(10)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert got.tolist() == [bin(i).count("1") for i in range(1 << 10)]
    assert ea.popcounts(10) is got  # cached


@pytest.mark.parametrize("n", range(1, 21))
def test_subset_weights_equal_the_per_mask_exp_log_bit_for_bit(n):
    lams = [0.0, 1.0, 0.5, 1e-300, 1 - 2**-53]
    lams += np.random.default_rng(n).random(4).tolist()
    for lam in lams:
        got = ea.subset_weights(n, lam)
        assert got.tobytes() == exp_log_subset_weights(n, lam).tobytes(), lam


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
    [(est, stderr)] = ea.subset_entropy_expectation_mc(code, lam, (q,), trials=10**4, seed=5)
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


# a nonlinear code whose kernel is {0}: its law has a cell per point
NONLINEAR5 = bs.Code(n=5, codewords=(0, 3, 12, 19, 30))


def _oracle_law(code, eps):
    """The law of X+Z by the oracle's pass: syndrome columns from the point
    mass at 0 for a code with a generator, unit columns from 1/|C| on each
    codeword otherwise."""
    if code.generator is None:
        start = np.zeros(1 << code.n)
        start[code.codewords] = 1 / code.size
        return xor_shift_oracle(start, [1 << i for i in range(code.n)], eps)
    start = np.zeros(1 << code.redundancy)
    start[0] = 1.0
    return xor_shift_oracle(start, bs.syndrome_columns(code.generator, code.n), eps)


@settings(max_examples=80, deadline=None)
@given(
    code=st.one_of(linear_codes(), nonlinear_codes()),
    eps=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
)
@example(code=bs.full_space_code(6), eps=0.3)
@example(code=REPEATED_ROW, eps=0.5)
@example(code=REPEATED_ROW, eps=0.2)
@example(code=NONLINEAR5, eps=0.2)
def test_noise_law_cond_entropy_matches_dense_and_bayes(code, eps):
    # every code takes the law of X+Z over the cosets of its kernel
    (report,) = ea.entropy_report(code, [eps], [None])
    h = report.h_x_given_bsc
    assert h == pytest.approx(ea.cond_entropy_bsc(code, eps), abs=1e-12)
    # the Bayes oracle makes 2^n |C| steps in Python
    if code.size << code.n <= 1 << 15:
        assert h == pytest.approx(bayes_cond_entropy_bsc(code, eps), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(linear=linear_codes(), nonlinear=nonlinear_codes(), eps=st.floats(0, 1))
@example(linear=REPEATED_ROW, nonlinear=NONLINEAR5, eps=0.2)
@example(linear=bs.full_space_code(4), nonlinear=bs.single_code(3), eps=0.2)
def test_noise_law_shape_and_mass(linear, nonlinear, eps):
    # 2^(n-k) cosets of C for a code with a generator, 2^n points otherwise
    for code, m in ((linear, linear.redundancy), (nonlinear, nonlinear.n)):
        law = ea.noisy_law(code, eps)
        assert law.n - law.k == m
        p = law.p
        assert len(p) == 1 << m
        assert p.min() >= 0 and p.sum() == pytest.approx(1.0, abs=1e-15)
    # eps = 0: the law of X itself, the syndrome 0 or 1/|C| on each codeword
    p = ea.noisy_law(bs.hamming74_code(), 0.0).p
    assert p.tolist() == [1.0] + [0.0] * 7
    p = ea.noisy_law(NONLINEAR5, 0.0).p
    assert np.flatnonzero(p).tolist() == NONLINEAR5.codewords.tolist()
    assert set(p[NONLINEAR5.codewords].tolist()) == {1 / 5}


# a zero parity-check column: coordinate 0 is itself a codeword
WEIGHT_ONE_ROW = bs.Code(n=4, codewords=bs.span([1, 6]), generator=(1, 6))


@settings(max_examples=60, deadline=None)
@given(linear=linear_codes(), nonlinear=nonlinear_codes(), eps=st.floats(0, 1))
@example(linear=bs.full_space_code(3), nonlinear=NONLINEAR5, eps=0.3)
@example(linear=WEIGHT_ONE_ROW, nonlinear=NONLINEAR5, eps=0.1)
@example(linear=WEIGHT_ONE_ROW, nonlinear=bs.single_code(2), eps=0.3)
def test_noise_law_rounds_as_the_oracle(linear, nonlinear, eps):
    for code in (linear, nonlinear):
        p = ea.noisy_law(code, eps).p
        assert np.array_equal(p, _oracle_law(code, eps))


# the cut of one five-eps grid: two laws a chunk, one at least, all in one, three
FIVE_EPS = [0.1, 0.2, 0.3, 0.4, 0.5]


@settings(max_examples=60, deadline=None)
@given(linear=linear_codes(), nonlinear=nonlinear_codes(), grid=eps_grids(), rows=st.integers(0, 3))
@example(linear=WEIGHT_ONE_ROW, nonlinear=NONLINEAR5, grid=[0.0, 1.0, 0.1, 0.1], rows=1)
@example(linear=bs.full_space_code(3), nonlinear=NONLINEAR5, grid=[0.3, 1.0, 0.0, 0.3], rows=2)
@example(linear=bs.hamming74_code(), nonlinear=NONLINEAR5, grid=[0.0, 1.0, 0.2, 0.2, 0.45], rows=2)
@example(linear=bs.full_space_code(3), nonlinear=NONLINEAR5, grid=[1.0, 0.1, 1.0, 0.0], rows=1)
@example(linear=bs.repetition_code(5), nonlinear=NONLINEAR5, grid=FIVE_EPS, rows=2)
@example(linear=bs.repetition_code(5), nonlinear=NONLINEAR5, grid=FIVE_EPS, rows=0)
@example(linear=bs.repetition_code(5), nonlinear=NONLINEAR5, grid=FIVE_EPS, rows=5)
@example(linear=bs.repetition_code(5), nonlinear=NONLINEAR5, grid=FIVE_EPS, rows=3)
def test_noisy_laws_of_grid_chunks_are_the_one_eps_laws(linear, nonlinear, grid, rows):
    # one pass over the grid, or one per chunk of max(1, rows) laws, the
    # last chunk the rest: the cells are one short of rows + 1 laws
    per_chunk = max(1, rows)
    for code in (linear, nonlinear):
        m = code.redundancy if code.generator is not None else code.n
        passes = []
        xor_shift_pass = ea._xor_shift_pass

        def counted(p, m, columns, eps_grid):
            passes.append(list(eps_grid))
            return xor_shift_pass(p, m, columns, eps_grid)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ea, "_xor_shift_pass", counted)
            assert list(ea.noisy_laws(code, [])) == [] and passes == []
            whole = list(ea.noisy_laws(code, grid))
            assert passes == [grid]
            reports = ea.entropy_report(code, grid, [None])
            patch.setattr(bs, "_BLOCK", ((rows + 1) << m) - 1)
            passes.clear()
            chunked = list(ea.noisy_laws(code, grid))
            chunks = list(passes)
            assert ea.entropy_report(code, grid, [None]) == reports
        assert sum(chunks, []) == grid
        assert all(len(chunk) == per_chunk for chunk in chunks[:-1])
        assert 1 <= len(chunks[-1]) <= per_chunk
        for laws in (whole, chunked):
            assert [law.eps for law in laws] == grid
            for law, eps in zip(laws, grid):
                one = ea.noisy_law(code, eps)
                assert (law.n, law.k) == (one.n, one.k) == (code.n, code.n - m)
                assert law.p.tobytes() == one.p.tobytes()
                assert not law.p.flags.writeable
                assert np.array_equal(law.p, _oracle_law(code, eps))
                if code.generator is None:
                    assert_is_the_dense_law(law.p, code, eps)
        for report, eps in zip(reports, grid):
            # H(X|Y_BSC) = (log2|C| - (n-m)) + n h(eps) - H(p), from the oracle's law
            h_law = renyi_entropy(_oracle_law(code, eps), 1)
            expected = (code.log_size - (code.n - m)) + code.n * binary_entropy(eps) - h_law
            assert report.h_x_given_bsc == expected
            if code.generator is not None:  # the bracket is exactly 0
                assert report.h_x_given_bsc == code.n * binary_entropy(eps) - h_law
            assert report == ea.entropy_report(code, [eps], [None])[0]


def test_oracle_examples_have_a_zero_parity_check_column():
    for code in (bs.full_space_code(3), WEIGHT_ONE_ROW):
        assert 0 in bs.syndrome_columns(code.generator, code.n)


@settings(max_examples=20, deadline=None)
@given(
    linear=linear_codes(),
    nonlinear=nonlinear_codes(),
    bad=st.one_of(st.floats(max_value=0, exclude_max=True), st.floats(min_value=1, exclude_min=True)),
)
def test_noisy_laws_reject_a_bad_eps(linear, nonlinear, bad):
    for code in (linear, nonlinear):
        for grid in ([bad], [0.1, bad], [math.nan]):  # every eps of a grid is checked
            with pytest.raises(ValueError, match="eps"):
                ea.noisy_laws(code, grid)


def test_noise_law_memory_is_two_arrays():
    # a nonlinear code's law at n = 16, a whole chunk of the grid: p and
    # the pass's scratch, and small objects; no copy of f_C is made
    words = np.sort(np.random.default_rng(3).choice(1 << 16, 1000, replace=False))
    code = bs.Code(n=16, codewords=words)
    chunk = [0.05 * i for i in range(1, 20)][: bs._BLOCK >> 16]
    assert len(chunk) == bs._BLOCK >> 16
    tracemalloc.start()
    try:
        list(ea.noisy_laws(code, chunk))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * (len(chunk) << 16) + 64 * 2**10


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
        ea.subset_entropy_expectation_mc(bs.hamming74_code(), lam, (1.0,), 100, 1)
    with pytest.raises(ValueError, match="lam"):
        ea.subset_entropy_expectation(bs.hamming74_code(), lam, 1.0)


@pytest.mark.parametrize("eta", [-0.5, 1.5, math.nan])
def test_cond_entropy_bec_rejects_eta_outside_unit_interval(eta):
    with pytest.raises(ValueError, match="eta"):
        ea.cond_entropy_bec(bs.hamming74_code(), eta)


@pytest.mark.parametrize("q", [0.5, math.nan])
def test_exact_subset_expectation_rejects_orders_below_one_for_linear_codes(q):
    # the linear table serves every order, so the order is checked up front
    with pytest.raises(ValueError, match="order"):
        ea.subset_entropy_expectation(bs.hamming74_code(), 0.5, q)
    with pytest.raises(ValueError, match="order"):
        ea.subset_entropy_expectation_mc(bs.hamming74_code(), 0.5, (1.0, q), 100, 1)
    with pytest.raises(ValueError, match="order"):
        ea.subset_renyi_values(bs.hamming74_code(), (1.0, q))


def test_subset_mc_gives_cond_entropy_bec_within_4_sigma():
    # H(X|Y_BEC) = log2|C| - E_{S~1-eta} H(X_S)
    code = bs.reed_muller_code(1, 3)
    eta = 0.4
    exact = ea.cond_entropy_bec(code, eta)
    [(est, stderr)] = ea.subset_entropy_expectation_mc(code, 1 - eta, (1.0,), 10**4, 11)
    assert abs(code.log_size - est - exact) <= 4 * stderr + 1e-9


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
        ea.subset_renyi_values(bs.repetition_code(21), (1.0,))


def test_subset_expectation_builds_one_linear_table_for_every_order():
    cache = ea.subset_renyi_values
    cache.cache_clear()
    linear = bs.hamming74_code()
    for q in (1, 2, 3, math.inf):
        ea.subset_entropy_expectation(linear, 0.5, q)
    stats = subset_stats_of_code(linear, (2, 3))
    ea.cond_entropy_bec(linear, 0.3)
    assert cache.cache_info().misses == 1
    # every order maps to the one row object
    assert stats.renyi[1.0] is stats.renyi[2] is stats.renyi[3]
    # a nonlinear code's table is keyed by its orders
    nonlinear = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    for q in (1, 2, 2.0, 1):
        ea.subset_entropy_expectation(nonlinear, 0.5, q)
    assert cache.cache_info().misses == 3
    # a linear table's rows are one array, broadcast to every order
    table = ea.subset_renyi_values(linear, (1.0, 2.0, math.inf))
    assert table.shape == (3, 1 << linear.n) and table.strides[0] == 0
    assert not table.flags.writeable


def test_entropy_report_roundtrip():
    code = bs.repetition_code(3)
    (rep,) = ea.entropy_report(code, [0.1], [0.5], [2])
    d = rep.to_dict()
    assert d["code"] == "repetition(3)"
    assert d["H_X"] == pytest.approx(1.0)
    assert d["H_X_given_Ybsc"] == pytest.approx(ea.cond_entropy_bsc(code, 0.1))
    assert d["H_X_given_Ybec"] == pytest.approx(ea.cond_entropy_bec(code, 0.5))
    assert d["method"] == "exact"


@pytest.mark.parametrize("trials", [None, 100])
def test_entropy_report_past_the_exact_cap_needs_trials_and_seed(trials, monkeypatch):
    # the subset rows of n > 20 are sampled: no seed is refused before any law is built
    monkeypatch.setattr(ea, "noisy_laws", mock.Mock(side_effect=AssertionError("law built")))
    code = bs.random_linear_code(24, 12, 1)
    with pytest.raises(ValueError, match="^monte_carlo mode requires trials and seed$"):
        ea.entropy_report(code, [0.1], [0.5], trials=trials)


def test_entropy_report_takes_the_noise_law_path_for_every_code():
    eps = 0.15
    linear = bs.hamming74_code()
    (rep,) = ea.entropy_report(linear, [eps], [None])
    law = ea.noisy_law(linear, eps).p
    # the syndrome law of the noise: H(X|Y_BSC) = n h(eps) - H(s(Z))
    assert rep.h_x_given_bsc == linear.n * binary_entropy(eps) - renyi_entropy(law, 1)
    assert rep.h_x_given_bsc == pytest.approx(ea.cond_entropy_bsc(linear, eps), abs=1e-12)
    nonlinear = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    (rep,) = ea.entropy_report(nonlinear, [eps], [None])
    law = ea.noisy_law(nonlinear, eps).p
    # the law of X+Z on every point: H(X|Y_BSC) = log2|C| + n h(eps) - H(X+Z)
    assert len(law) == 1 << nonlinear.n
    h = nonlinear.log_size + nonlinear.n * binary_entropy(eps) - renyi_entropy(law, 1)
    assert rep.h_x_given_bsc == h
    assert rep.h_x_given_bsc == pytest.approx(ea.cond_entropy_bsc(nonlinear, eps), abs=1e-12)
    assert rep.h_x_given_bsc == pytest.approx(bayes_cond_entropy_bsc(nonlinear, eps), abs=1e-12)


@pytest.mark.parametrize(
    "code",
    [bs.reed_muller_code(1, 4), bs.Code(n=9, codewords=(0, 3, 12, 25, 30, 101, 257, 300, 511))],
    ids=["linear", "nonlinear"],
)
def test_entropy_and_verify_read_the_same_two_objects(code):
    # entropy's H(X|Y_BSC) and H(X|Y_BEC) are, bit for bit, the values verify's checks use
    stats = ea.subset_stats_of_code(code, (2,))
    for eps, eta in ((0.3, 0.5), (0.1, 0.2), (0.45, 0.9)):
        (rep,) = ea.entropy_report(code, [eps], [eta], [2])
        law = ea.noisy_law(code, eps)
        assert rep.h_x_given_bsc == iq.check_bsc_bec(stats, law, eta).lhs
        assert rep.h_x_given_bec == code.log_size - stats.expectation("renyi", 1 - eta)
        assert rep.e_s_hq_xs == stats.expectation("renyi", 1 - eta, 2)


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


def test_entropy_report_holds_one_chunk_of_noisy_laws():
    # repetition:21 has 2^20 cosets, so each eps is a chunk of its own
    code = bs.repetition_code(21)
    law_bytes = 8 << code.redundancy
    assert bs._BLOCK >> code.redundancy == 0
    tracemalloc.start()
    try:
        reports = ea.entropy_report(code, [0.05, 0.1, 0.2], [None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.eps for r in reports] == [0.05, 0.1, 0.2]
    # a law and its pass's scratch, or a law and the copy its H(p) takes;
    # the previous eps's law alive during a pass would add 8 MiB
    assert peak <= 2 * law_bytes + (1 << 20)


@pytest.mark.parametrize(
    "code",
    [
        bs.repetition_code(bs.EXACT_CAP + 1),
        bs.Code(n=bs.EXACT_CAP + 1, codewords=(0, 3, 12, 25, 30, 1 << 20)),
    ],
    ids=["linear", "nonlinear"],
)
def test_monte_carlo_report_draws_subsets_once_per_eta_for_every_order(code, monkeypatch):
    draws = []
    draw = ea.bernoulli_words

    def counted(trials, n, ps, rng):
        draws.append(ps)
        return draw(trials, n, ps, rng)

    monkeypatch.setattr(ea, "bernoulli_words", counted)
    qs, trials, seed = [2, 3], 200, 3
    reports = ea.entropy_report(code, [None], [0.25, 0.5], qs, trials=trials, seed=seed)
    assert draws == [[0.75], [0.5]]
    for rep in reports:
        assert rep.method == "monte_carlo"
        # each order's value is what a single-order draw gives
        [single] = ea.subset_entropy_expectation_mc(code, 1 - rep.eta, (rep.q,), trials, seed)
        assert (rep.e_s_hq_xs, rep.stderr) == single
        [(h1, _)] = ea.subset_entropy_expectation_mc(code, 1 - rep.eta, (1.0,), trials, seed)
        assert rep.h_x_given_bec == code.log_size - h1


def test_entropy_report_computes_each_quantity_once_over_its_grid(monkeypatch):
    bsc, passes = [], []
    dense, xor_shift_pass, kernel = ea.cond_entropy_bsc, ea._xor_shift_pass, ea.projection_entropies

    def dense_run(code, eps):
        raise AssertionError("cond_entropy_bsc ran")

    def pass_counted(p, m, columns, eps_grid):
        bsc.append(list(eps_grid))
        return xor_shift_pass(p, m, columns, eps_grid)

    def kernel_counted(code, masks, qs):
        passes.append(tuple(qs))
        return kernel(code, masks, qs)

    monkeypatch.setattr(ea, "cond_entropy_bsc", dense_run)
    monkeypatch.setattr(ea, "_xor_shift_pass", pass_counted)
    monkeypatch.setattr(ea, "projection_entropies", kernel_counted)
    ea.subset_renyi_values.cache_clear()
    code = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    reports = ea.entropy_report(code, [0.1, 0.2], [0.25, 0.5], [2, 3])
    # one pass of the law of X+Z for the eps grid
    assert bsc == [[0.1, 0.2]]
    # one projection pass for every order and eta, with q = 1 for H(X|Y_BEC)
    assert passes == [(1.0, 2, 3)]
    assert [(r.eps, r.eta, r.q) for r in reports] == [
        (eps, eta, q) for eps in (0.1, 0.2) for eta in (0.25, 0.5) for q in (2, 3)
    ]
    for r in reports:
        assert r.h_x_given_bsc == pytest.approx(dense(code, r.eps), abs=1e-12)
        assert r.h_x_given_bec == ea.cond_entropy_bec(code, r.eta)
        assert r.e_s_hq_xs == ea.subset_entropy_expectation(code, 1 - r.eta, r.q)


def test_entropy_report_takes_one_dot_per_eta_for_every_order_of_a_linear_code(monkeypatch):
    dots = []

    class Weights(np.ndarray):
        def __matmul__(self, row):
            dots.append(len(row))
            return np.asarray(self) @ row

    weights = ea.subset_weights
    monkeypatch.setattr(ea, "subset_weights", lambda n, lam: weights(n, lam).view(Weights))
    code = bs.reed_muller_code(1, 4)
    reports = ea.entropy_report(code, [None], [0.25, 0.5], [1, 2])
    # every order of a linear code reads one row, so each eta takes one 2^n dot
    assert dots == [1 << code.n] * 2
    (row,) = ea.subset_renyi_values(code, (1.0,))
    for r in reports:
        assert r.e_s_hq_xs == float(weights(code.n, 1 - r.eta) @ row)


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

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import boolfn, channels
from chanent import entropy_analysis as ea
from chanent import inequalities as iq
from chanent import listdecode as ld

from conftest import (
    array_per_step_renyi,
    codeword_ints,
    copying_shannon,
    gathered_ent,
    linear_codes,
    nonlinear_codes,
    small_corpus,
    zeroed_ent,
)


def test_from_code_point_mass():
    f = boolfn.from_code(bs.single_code(2))
    assert list(f) == [4, 0, 0, 0]


def test_from_code_full_space_is_constant_one():
    f = boolfn.from_code(bs.full_space_code(3))
    assert np.all(f == 1)


def test_from_code_repetition2():
    f = boolfn.from_code(bs.repetition_code(2))
    assert list(f) == [2, 0, 0, 2]


def test_from_code_mean_one():
    for code in small_corpus():
        assert np.mean(boolfn.from_code(code)) == pytest.approx(1.0, abs=1e-12)


def test_norm_q_constant():
    f = np.ones(8)
    for q in (1, 2, 3, 7.5):
        assert boolfn.norm_q(f, q) == pytest.approx(1.0)


def test_norm_q_point_mass():
    n = 4
    f = np.zeros(1 << n)
    f[5] = 1 << n
    assert boolfn.norm_q(f, 2) == pytest.approx(2 ** (n / 2))


def test_norm_q_repetition3_direct_sum():
    f = boolfn.from_code(bs.repetition_code(3))
    # direct summation oracle: (2^-3 * 2 * 4^2)^(1/2) = 2
    direct = (2**-3 * sum(v**2 for v in f)) ** 0.5
    assert boolfn.norm_q(f, 2) == pytest.approx(direct)
    assert boolfn.norm_q(f, 2) == pytest.approx(2.0)


def test_norm_q_rejects_bad_order():
    with pytest.raises(ValueError):
        boolfn.norm_q(np.ones(4), 0.5)
    with pytest.raises(ValueError):
        boolfn.norm_q(np.ones(4), math.inf)


def test_ent_constant_is_zero():
    for c in (0.5, 1.0, 3.0):
        assert boolfn.ent(np.full(8, c)) == pytest.approx(0.0, abs=1e-12)


def test_ent_point_mass():
    n = 3
    assert boolfn.ent(boolfn.from_code(bs.single_code(n))) == pytest.approx(n)


def test_ent_hamming74():
    f = boolfn.from_code(bs.hamming74_code())
    direct = np.mean([v * math.log2(v) if v > 0 else 0.0 for v in f])
    assert boolfn.ent(f) == pytest.approx(direct)
    assert boolfn.ent(f) == pytest.approx(3.0)


def test_ent_shift_identity_on_corpus():
    # Ent[f_X] = n - H(X) for X uniform on the code
    for code in small_corpus():
        f = boolfn.from_code(code)
        assert boolfn.ent(f) == pytest.approx(code.n - code.log_size, abs=1e-10)


def test_norm_entropy_identity_on_corpus():
    # log2 ||f_X||_q = ((q-1)/q) (n - H_q(X))
    for code in small_corpus():
        f = boolfn.from_code(code)
        p = np.full(1 << code.n, 0.0)
        p[codeword_ints(code)] = 1 / code.size
        for q in (2, 3, 4):
            lhs = math.log2(boolfn.norm_q(f, q))
            rhs = (q - 1) / q * (code.n - boolfn.renyi_entropy(p, q))
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_renyi_uniform():
    for k in (2, 5, 16):
        p = np.full(k, 1 / k)
        for q in (1, 2, 3.5, math.inf):
            assert boolfn.renyi_entropy(p, q) == pytest.approx(math.log2(k))


def test_renyi_deterministic():
    p = np.array([1.0, 0.0, 0.0])
    for q in (1, 2, math.inf):
        assert boolfn.renyi_entropy(p, q) == pytest.approx(0.0, abs=1e-12)


def test_renyi_derived_value():
    # -log2((3/4)^2 + (1/4)^2) = -log2(10/16)
    val = boolfn.renyi_entropy(np.array([0.75, 0.25]), 2)
    assert val == pytest.approx(-math.log2(10 / 16), abs=1e-12)
    assert val == pytest.approx(0.678071905112638, abs=1e-12)


def test_renyi_renormalizes_float_dust():
    p = np.array([0.5, 0.5 + 5e-13])
    assert boolfn.renyi_entropy(p, 1) == pytest.approx(1.0, abs=1e-9)


def test_renyi_rejects_non_distribution():
    with pytest.raises(ValueError):
        boolfn.renyi_entropy(np.array([0.5, 0.4]), 1)
    with pytest.raises(ValueError):
        boolfn.renyi_entropy(np.array([0.5, -0.5, 1.0]), 2)
    with pytest.raises(ValueError):
        boolfn.renyi_entropy(np.array([math.nan, 0.5]), 1)  # a NaN sum is not near 1


def test_renyi_rejects_nan_order():
    with pytest.raises(ValueError, match="order"):
        boolfn.renyi_entropy(np.array([0.5, 0.5]), math.nan)


def test_h_q_rejects_nan_order():
    with pytest.raises(ValueError, match="order"):
        boolfn.h_q(0.1, math.nan)


def _bsc_bec_at_eta(eta):
    code = bs.hamming74_code()
    iq.check_bsc_bec(ea.subset_stats_of_code(code, ()), ea.noisy_law(code, 0.3), eta)


# entry point taking one probability v -> the name its error gives v
UNIT_INTERVAL_ENTRY_POINTS = {
    "h_q": ("eps", lambda v: boolfn.h_q(v, 1)),
    "noise_operator": ("eps", lambda v: channels.noise_operator(np.ones(8), v)),
    "DecoderConfig": ("eps", lambda v: ld.DecoderConfig(n=7, eps=v)),
    "noisy_laws": ("eps", lambda v: ea.noisy_laws(bs.hamming74_code(), [0.1, v])),
    "noisy_law": ("eps", lambda v: ea.noisy_law(bs.hamming74_code(), v)),
    "subset_entropy_expectation": (
        "lam", lambda v: ea.subset_entropy_expectation(bs.hamming74_code(), v, 1.0)
    ),
    "subset_entropy_expectation_mc": (
        "lam", lambda v: ea.subset_entropy_expectation_mc(bs.hamming74_code(), v, (1.0,), 100, 1)
    ),
    "cond_entropy_bec": ("eta", lambda v: ea.cond_entropy_bec(bs.hamming74_code(), v)),
    "check_bsc_bec": ("eta", _bsc_bec_at_eta),
    "entropy_report.eps": ("eps", lambda v: ea.entropy_report(bs.hamming74_code(), [v], [None])),
    "entropy_report.eta": ("eta", lambda v: ea.entropy_report(bs.hamming74_code(), [None], [v])),
}


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("entry", list(UNIT_INTERVAL_ENTRY_POINTS))
def test_every_entry_point_rejects_a_probability_outside_unit_interval_in_one_message(
    entry, value
):
    name, call = UNIT_INTERVAL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name}={value} outside [0, 1]')}$"):
        call(value)


# entry point taking one Renyi order q
ORDER_ENTRY_POINTS = {
    "h_q": lambda q: boolfn.h_q(0.1, q),
    "renyi_entropy": lambda q: boolfn.renyi_entropy(np.array([0.5, 0.5]), q),
    "renyi_entropy_from_counts": lambda q: boolfn.renyi_entropy_from_counts(np.array([1, 1]), q),
    "projection_entropies": lambda q: ea.projection_entropies(
        bs.hamming74_code(), np.arange(4, dtype=np.uint64), (1.0, q)
    ),
    "subset_stats_of_code": lambda q: ea.subset_stats_of_code(bs.hamming74_code(), (q,)),
    "entropy_report": lambda q: ea.entropy_report(bs.hamming74_code(), [None], [0.5], (q,)),
}


@pytest.mark.parametrize("q", [0.5, math.nan])
@pytest.mark.parametrize("entry", list(ORDER_ENTRY_POINTS))
def test_every_entry_point_rejects_an_order_below_one_in_one_message(entry, q):
    with pytest.raises(ValueError, match=f"^order q={q} must be >= 1$"):
        ORDER_ENTRY_POINTS[entry](q)


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=2, max_size=12),
    st.sampled_from([(1, 2), (1, math.inf), (2, 3), (2, 4), (3, math.inf)]),
)
def test_renyi_monotone_decreasing_in_q(raw, orders):
    p = np.array(raw)
    p /= p.sum()
    lo, hi = orders
    assert boolfn.renyi_entropy(p, lo) >= boolfn.renyi_entropy(p, hi) - 1e-9


def test_renyi_monotone_random_battery():
    rng = np.random.default_rng(1)
    orders = [1, 1.5, 2, 3, 4, math.inf]
    for _ in range(1000):
        p = rng.random(rng.integers(2, 10))
        p /= p.sum()
        vals = [boolfn.renyi_entropy(p, q) for q in orders]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-9


def test_h_q_trivial():
    assert boolfn.h_q(0.5, 1) == pytest.approx(1.0)
    for q in (1, 2, 3, math.inf):
        assert boolfn.h_q(0.0, q) == 0.0
        assert boolfn.h_q(1.0, q) == 0.0


def test_h_q_derived_value():
    assert boolfn.h_q(0.25, 2) == pytest.approx(0.678071905112638, abs=1e-12)
    # agrees with the two-point Renyi entropy
    assert boolfn.h_q(0.25, 2) == pytest.approx(
        boolfn.renyi_entropy(np.array([0.25, 0.75]), 2)
    )


@settings(max_examples=200)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([1, 1.5, 2, 3, 4, math.inf]),
)
def test_h_q_symmetry_and_range(eps, q):
    v = boolfn.h_q(eps, q)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert v == pytest.approx(boolfn.h_q(1 - eps, q), abs=1e-12)


def test_validate_rejects_negative_and_bad_length():
    with pytest.raises(ValueError):
        boolfn.validate(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        boolfn.validate(np.ones(3))


def test_validate_rejects_identically_zero():
    with pytest.raises(ValueError, match="identically zero"):
        boolfn.validate(np.zeros(4))


def _entropy_battery():
    """Functions with zeros, point masses, float dust and noisy code functions."""
    rng = np.random.default_rng(7)
    fs = [np.ones(8), np.array([0.0, 0.0, 4.0, 0.0]), boolfn.from_code(bs.hamming74_code())]
    for n in (1, 5, 12, 16):
        f = rng.random(1 << n) * (rng.random(1 << n) < 0.6)
        f[0] += 1e-300
        fs.append(f * ((1 << n) / f.sum()))
    for code in (bs.reed_muller_code(1, 4), bs.random_linear_code(14, 7, 3)):
        for eps in (0.05, 0.3):
            fs.append(channels.noise_operator(boolfn.from_code(code), eps))
    return fs


def test_ent_and_renyi_equal_the_array_per_step_oracles():
    for f in _entropy_battery():
        assert boolfn.ent(f) == gathered_ent(f)
        p = f / f.sum()
        for q in (1, 1.5, 2, 2.0, 3, 4, math.inf):
            assert boolfn.renyi_entropy_of_function(f, q) == array_per_step_renyi(
                f / len(f), q
            ), q
            assert boolfn.renyi_entropy(p, q) == array_per_step_renyi(p, q), q


def test_renyi_entropy_leaves_its_input_unchanged():
    p = np.array([0.125, 0.375, 0.0, 0.5])
    for q in (1, 2, 3, math.inf):
        boolfn.renyi_entropy(p, q)
    assert list(p) == [0.125, 0.375, 0.0, 0.5]
    counts = np.array([1.0, 3.0, 4.0])
    boolfn.renyi_entropy_from_counts(counts, 2)
    assert list(counts) == [1.0, 3.0, 4.0]


def test_entropy_of_a_function_holds_one_temporary_of_its_size():
    # the verify battery calls these once per (code, eps) on 2^16 floats;
    # each extra temporary of that size is fresh memory the process faults in
    f = channels.noise_operator(boolfn.from_code(bs.reed_muller_code(1, 4)), 0.1)
    for compute in (boolfn.ent, lambda g: boolfn.renyi_entropy_of_function(g, 2)):
        tracemalloc.start()
        try:
            compute(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * f.nbytes


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 200),
    zeros=st.floats(0, 1),
    block=st.sampled_from([1, 3, 7, 64, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=(1 << 16) + 1, zeros=0.3, block=1 << 16, seed=1)
@example(size=3 << 16, zeros=0.0, block=1 << 16, seed=2)
def test_shannon_entropy_in_blocks_equals_the_copying_form(size, zeros, block, seed):
    # v log2 v is written over the fresh normalized copy a block at a time:
    # the same terms, summed whole, as a second zeroed array gives
    rng = np.random.default_rng(seed)
    counts = rng.random(size) * (rng.random(size) >= zeros)
    counts[rng.integers(size)] += 1.0
    kept = counts.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs, "_BLOCK", block)
        assert boolfn.renyi_entropy_from_counts(counts, 1) == copying_shannon(counts)
        p = counts / counts.sum()
        assert boolfn.renyi_entropy(p, 1) == copying_shannon(p)
    assert counts.tobytes() == kept.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 20),
    zeros=st.floats(0, 1),
    blocks=st.integers(1, 4096),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=20, zeros=0.5, blocks=16, seed=3)  # the default block of 2^16
@example(n=3, zeros=0.0, blocks=16, seed=4)
@example(n=12, zeros=0.5, blocks=4096, seed=5)  # one-element blocks
@example(n=20, zeros=0.5, blocks=4095, seed=6)  # 257-element blocks: the last holds 16
def test_ent_and_shannon_entropy_equal_the_zeroed_array_form_across_blocks(n, zeros, blocks, seed):
    # ent and H(p) write v log2 v over one copy, in blocks of at most an
    # eighth of it; the terms and their sum are those of a second zeroed array.
    # The block is a fraction of 2^n, so an example runs at most 4,096 blocks.
    block = -(-(1 << n) // blocks)
    rng = np.random.default_rng(seed)
    f = (1 << n) * rng.random(1 << n) * (rng.random(1 << n) >= zeros)
    f[rng.integers(1 << n)] += 1.0
    kept = f.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs, "_BLOCK", block)
        assert boolfn.ent(f) == zeroed_ent(f)
        assert boolfn.renyi_entropy_from_counts(f, 1) == copying_shannon(f)
    assert f.tobytes() == kept.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    code=st.one_of(linear_codes(max_n=12), nonlinear_codes(max_n=10)),
    eps=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
)
@example(code=bs.make_code("random_linear:20,4,1"), eps=0.05)
@example(code=bs.repetition_code(21), eps=0.3)
def test_law_entropy_in_blocks_equals_the_copying_form(code, eps):
    law = ea.noisy_law(code, eps)
    assert law.cell_entropy == copying_shannon(law.p)


def test_law_entropy_holds_one_copy_of_the_law():
    # repetition:21 has 2^20 cosets: the law is 8 MiB, its normalized copy
    # another 8 MiB, and the blocked v log2 v adds 576 KiB
    law = ea.noisy_law(bs.repetition_code(21), 0.2)
    tracemalloc.start()
    try:
        law.cell_entropy
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert law.p.nbytes <= peak <= 1.1 * law.p.nbytes
    # ent reads the same H(p) and never writes to its argument
    f = channels.noise_operator(boolfn.from_code(bs.hamming74_code()), 0.2)
    kept = f.copy()
    boolfn.ent(f)
    assert f.tobytes() == kept.tobytes()

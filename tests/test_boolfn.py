import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import boolfn

from conftest import small_corpus


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
        p[list(code.codewords)] = 1 / code.size
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

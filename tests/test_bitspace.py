import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs

from conftest import codeword_ints, small_corpus


def test_rank_gf2():
    assert bs.rank_gf2([1, 2, 4, 8]) == 4
    assert bs.rank_gf2([0, 0, 0]) == 0
    assert bs.rank_gf2([]) == 0
    assert bs.rank_gf2([0b11, 0b110, 0b101]) == 2
    assert bs.rank_gf2(bs.hamming74_code().generator) == 4


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_masked_ranks_match_rank_gf2_of_each_restriction(data):
    n = data.draw(st.integers(1, 24))
    word = st.integers(0, (1 << n) - 1)
    rows = data.draw(st.lists(word, max_size=n + 2))
    if rows and data.draw(st.booleans()):
        rows += [rows[0], rows[0] ^ rows[-1]]  # dependent rows
    if data.draw(st.booleans()):
        rows.append(0)
    masks = [0, (1 << n) - 1, *data.draw(st.lists(word, max_size=40))]
    # blocks of pair_block // len(rows) masks, so most examples cross a boundary
    pair_block = data.draw(st.integers(1, 64))
    with mock.patch.object(bs, "_BLOCK", pair_block):
        got = bs.masked_ranks(rows, np.array(masks, dtype=np.uint64))
    assert got.tolist() == [bs.rank_gf2([r & m for r in rows]) for m in masks]


def test_masked_ranks_of_no_rows_or_no_masks():
    assert bs.masked_ranks([], np.array([0, 7], dtype=np.uint64)).tolist() == [0, 0]
    assert bs.masked_ranks([1, 2], np.array([], dtype=np.uint64)).tolist() == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_syndrome_columns_give_a_parity_check_of_the_span(data):
    n = data.draw(st.integers(1, 10))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n + 2))
    rows.append(rows[0])  # a repeated row is dropped by the elimination
    words = bs.span(rows)
    k = bs.rank_gf2(rows)
    cols = bs.syndrome_columns(rows, n)

    def syndrome(x):
        s = 0
        for i in range(n):
            if x >> i & 1:
                s ^= cols[i]
        return s

    assert len(cols) == n
    assert all(0 <= h < 1 << (n - k) for h in cols)
    # onto F_2^(n-k), and the kernel is exactly the span
    assert bs.rank_gf2(cols) == n - k
    assert [x for x in range(1 << n) if syndrome(x) == 0] == words.tolist()


def test_syndrome_columns_of_small_codes():
    # full space: no syndrome bits; repetition(3): the free coordinates 0, 1
    # get the unit columns and the pivot 2 gets the row's bits on them
    assert bs.syndrome_columns(bs.full_space_code(3).generator, 3) == [0, 0, 0]
    assert bs.syndrome_columns([0b111], 3) == [1, 2, 3]
    assert bs.syndrome_columns([0], 2) == [1, 2]


def test_repetition_code():
    c = bs.repetition_code(3)
    assert codeword_ints(c) == [0, 7]
    assert c.rate == pytest.approx(1 / 3)


def test_full_space_code():
    c = bs.full_space_code(2)
    assert codeword_ints(c) == [0, 1, 2, 3]
    assert c.rate == 1.0


def test_single_code():
    c = bs.single_code(4)
    assert codeword_ints(c) == [0]
    assert c.log_size == 0.0


def test_parity_code_is_even_weight():
    c = bs.parity_code(5)
    assert c.size == 16
    assert all(x.bit_count() % 2 == 0 for x in codeword_ints(c))


def test_reed_muller_13():
    c = bs.reed_muller_code(1, 3)
    assert c.n == 8
    assert c.size == 16
    assert c.rate == pytest.approx(0.5)
    # RM(1,3) codewords have weight 0, 4, or 8
    assert {x.bit_count() for x in codeword_ints(c)} == {0, 4, 8}


def test_random_linear_deterministic_and_full_rank():
    a = bs.random_linear_code(10, 4, seed=7)
    b = bs.random_linear_code(10, 4, seed=7)
    assert a == b
    assert a.size == 16
    assert bs.rank_gf2(a.generator) == 4


def test_linear_codes_closed_under_add():
    for code in small_corpus():
        if code.generator is None:
            continue
        words = set(codeword_ints(code))
        assert len(words) == 2 ** bs.rank_gf2(code.generator)
        for u in words:
            for v in words:
                assert (u ^ v) in words


def test_code_invariants_rejected():
    with pytest.raises(ValueError):
        bs.Code(n=2, codewords=(3, 0))  # unsorted
    with pytest.raises(ValueError):
        bs.Code(n=2, codewords=(-1, 0))  # negative: below range, not a uint64 overflow
    with pytest.raises(ValueError):
        bs.Code(n=2, codewords=(0, 4))  # out of range
    with pytest.raises(ValueError):
        bs.Code(n=2, codewords=())
    with pytest.raises(ValueError):
        bs.Code(n=2, codewords=(0, 1), generator=(3,))  # span mismatch


def test_make_code_specs():
    assert bs.make_code("repetition:3").size == 2
    assert bs.make_code("hamming74").n == 7
    assert bs.make_code("reed_muller:1,4").n == 16
    assert bs.make_code("full_space:2").size == 4
    with pytest.raises(ValueError):
        bs.make_code("nonsense:1")
    with pytest.raises(ValueError):
        bs.make_code("repetition:0")
    # a spec takes exactly its family's integer arguments, each in the family's range
    for spec in ("hamming74:5", "repetition:3,4", "single:", "repetition:x", "repetition:0",
                 "parity:1", "reed_muller:3,2", "random_linear:8,9,1"):
        with pytest.raises(ValueError, match=f"^bad code spec '{spec}': "):
            bs.make_code(spec)
    assert bs.make_code("hamming74:") == bs.make_code("hamming74")


def test_make_code_passes_on_a_type_error_inside_a_constructor(monkeypatch):
    def broken(n):
        raise TypeError("inside the constructor")

    monkeypatch.setitem(bs._FAMILIES, "repetition", broken)
    with pytest.raises(TypeError, match="inside the constructor"):
        bs.make_code("repetition:3")


def test_generator_file_roundtrip():
    text = "1000110\n0100101\n0010011\n0001111\n"
    c = bs.parse_generator_file(text)
    assert codeword_ints(c) == codeword_ints(bs.hamming74_code())


def test_generator_file_rejects_bad_rows():
    with pytest.raises(ValueError):
        bs.parse_generator_file("101\n10\n")
    # a row is named by its line in the file, blank lines included
    with pytest.raises(ValueError, match="^line 3: length 2 != 3$"):
        bs.parse_generator_file("101\n\n10\n")
    with pytest.raises(ValueError, match="^line 4: invalid character$"):
        bs.parse_generator_file("\n101\n\n1x1\n")
    with pytest.raises(ValueError):
        bs.parse_generator_file("10x\n")
    with pytest.raises(ValueError):
        bs.parse_generator_file("")


def test_codeword_file():
    c = bs.parse_codeword_file("000\n111\n")
    assert codeword_ints(c) == [0, 7]
    with pytest.raises(ValueError):
        bs.parse_codeword_file("000\n000\n")
    with pytest.raises(ValueError):
        bs.parse_codeword_file("01\n012\n")


def test_codeword_file_names_the_repeated_line():
    # the lines are sorted here, so only a repeat is an error, named by its line
    assert codeword_ints(bs.parse_codeword_file("111\n\n000\n")) == [0, 7]
    with pytest.raises(ValueError, match="^line 2: duplicate codeword$"):
        bs.parse_codeword_file("000\n000\n")
    with pytest.raises(ValueError, match="^line 3: duplicate codeword$"):
        bs.parse_codeword_file("011\n110\n011\n")


def test_codeword_file_errors_count_blank_lines():
    # lines are numbered from 1, as in an editor
    with pytest.raises(ValueError, match="^line 3: duplicate codeword$"):
        bs.parse_codeword_file("000\n\n000\n")
    with pytest.raises(ValueError, match="^line 3: length 2 != 3$"):
        bs.parse_codeword_file("000\n\n00\n")
    with pytest.raises(ValueError, match="^line 4: invalid character$"):
        bs.parse_codeword_file("000\n \n\n0x0\n")


def test_rate_bounds():
    for code in small_corpus():
        assert 0 <= code.rate <= 1
        assert code.log_size == pytest.approx(math.log2(code.size))

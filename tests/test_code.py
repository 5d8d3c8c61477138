import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs
from chanent import entropy_analysis as ea
from chanent import listdecode as ld

from conftest import codeword_ints, set_span


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_span_matches_the_set_closure(data):
    n = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    rows += data.draw(st.sampled_from([[], rows[:1], [0]]))  # dependent or zero rows
    words = bs.span(rows)
    assert words.dtype == np.uint64 and words.tolist() == set_span(rows)
    code = bs.Code(n=n, codewords=None, generator=tuple(rows))
    assert code == bs.Code(n=n, codewords=tuple(set_span(rows)), generator=tuple(rows))


def test_linear_codes_take_one_span(monkeypatch):
    calls = []
    span = bs.span

    def counted(rows):
        calls.append(tuple(rows))
        return span(rows)

    monkeypatch.setattr(bs, "span", counted)
    code = bs.make_code("random_linear:16,8,1")
    assert calls == [code.generator]
    words = codeword_ints(code)
    assert code.size == 256 and words == sorted(set(words))
    # user-supplied codewords keep every check, the span match included
    bs.Code(n=code.n, codewords=code.codewords, generator=code.generator)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="generator row span"):
        bs.Code(n=code.n, codewords=code.codewords[:-1], generator=code.generator)


def test_code_needs_codewords_or_a_generator():
    with pytest.raises(ValueError, match="at least one codeword"):
        bs.Code(n=3, codewords=None)
    with pytest.raises(ValueError, match="generator row out of range"):
        bs.Code(n=3, codewords=None, generator=(8,))


@pytest.mark.parametrize(
    "code", [bs.make_code("random_linear:12,6,2"), bs.Code(n=5, codewords=(0, 3, 12, 25, 30))]
)
def test_codewords_are_one_read_only_uint64_array(code):
    words = code.codewords
    assert isinstance(words, np.ndarray) and words.dtype == np.uint64 and words.ndim == 1
    assert code.size == len(words) and codeword_ints(code) == sorted(set(words.tolist()))
    with pytest.raises(ValueError):
        words[0] = 1


def test_supplied_words_are_copied_into_the_code():
    given_words = np.array([0, 3, 12, 25, 30])
    code = bs.Code(n=5, codewords=given_words)
    given_words[0] = 1
    assert given_words.flags.writeable
    assert codeword_ints(code) == [0, 3, 12, 25, 30]


@pytest.mark.parametrize(
    "same",
    [
        lambda: (bs.make_code("random_linear:14,7,3"), bs.make_code("random_linear:14,7,3")),
        lambda: (
            bs.Code(n=7, codewords=None, generator=bs.hamming74_code().generator),
            bs.Code(
                n=7,
                codewords=bs.span(bs.hamming74_code().generator),
                generator=bs.hamming74_code().generator,
                name="hamming, words given",
            ),
        ),
        lambda: (
            bs.Code(n=5, codewords=(0, 3, 12, 25, 30)),
            bs.Code(n=5, codewords=[0, 3, 12, 25, 30], name="nonlinear"),
        ),
    ],
    ids=["make_code_twice", "generator_with_and_without_words", "nonlinear"],
)
def test_equal_codes_hash_equal_and_share_one_cache_entry(same):
    a, b = same()
    assert a is not b and a == b and hash(a) == hash(b)
    ea.subset_renyi_values.cache_clear()
    ld._coset_weights.cache_clear()
    for code in (a, b):
        ea.subset_stats_of_code(code, (2.0,))
        ld._coset_weights(code)
    for cached in (ea.subset_renyi_values, ld._coset_weights):
        info = cached.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_codes_differ_by_words_or_generator_not_by_name():
    words = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    assert words != bs.Code(n=5, codewords=(0, 3, 12, 25, 31))
    assert words != bs.Code(n=6, codewords=(0, 3, 12, 25, 30))
    linear = bs.repetition_code(3)
    # the same words without a generator are another code, as the
    # generator decides which paths the code takes
    assert linear != bs.Code(n=3, codewords=(0, 7), name=linear.name)
    assert linear == bs.Code(n=3, codewords=None, generator=linear.generator, name="other")
    assert linear != bs.Code(n=3, codewords=None, generator=(7, 7))


def test_a_code_is_hashed_once_and_a_linear_code_by_its_generator():
    linear = bs.make_code("random_linear:20,16,1")
    bare = bs.make_code("random_linear:20,16,1")
    object.__setattr__(bare, "codewords", None)  # its words can no longer be read
    assert hash(bare) == hash(linear)
    nonlinear = bs.Code(n=5, codewords=(0, 3, 12, 25, 30))
    first = hash(nonlinear)
    object.__setattr__(nonlinear, "codewords", None)
    assert hash(nonlinear) == first

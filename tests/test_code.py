import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bitspace as bs

from conftest import set_span


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_span_matches_the_set_closure(data):
    n = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    rows += data.draw(st.sampled_from([[], rows[:1], [0]]))  # dependent or zero rows
    assert bs.span(rows) == set_span(rows)
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
    assert code.size == 256 and list(code.codewords) == sorted(set(code.codewords))
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
def test_codeword_array_is_converted_once_and_read_only(code):
    words = code.codeword_array()
    assert words is code.codeword_array()
    assert words.dtype == np.uint64 and words.tolist() == list(code.codewords)
    with pytest.raises(ValueError):
        words[0] = 1

import itertools
from math import lcm

import pytest
from hypothesis import given, strategies as st

from omegacont.words import (
    UPWord, as_word, lcp, mismatch, primitive_root,
    up_equal, up_lcp, up_normalize, up_word, words_up_to,
)


def expand(prefix, period, n):
    """Reference expansion of u.v^omega to its first n symbols."""
    out = list(prefix)
    while len(out) < n:
        out.extend(period)
    return tuple(out[:n])


def normalize_oracle(prefix, period, max_len=8):
    """Enumerate all equal-denoting (prefix, period) pairs up to a length
    bound and pick the one with minimal (|period|, |prefix|)."""
    n = len(prefix) + 4 * len(period) + max_len
    target = expand(prefix, period, n)
    best = None
    for q in range(1, max_len + 1):
        for p in range(0, max_len + 1):
            u, v = target[:p], target[p:p + q]
            if expand(u, v, n) == target:
                if best is None or (q, p) < (len(best[1]), len(best[0])):
                    best = (u, v)
    assert best is not None
    return best


words_ab = st.text(alphabet="ab", max_size=5).map(as_word)
periods_ab = st.text(alphabet="ab", min_size=1, max_size=4).map(as_word)


class TestNormalize:
    def test_primitive_root(self):
        assert primitive_root(as_word("abab")) == as_word("ab")
        assert primitive_root(as_word("aaa")) == as_word("a")
        assert primitive_root(as_word("aba")) == as_word("aba")
        with pytest.raises(ValueError):
            primitive_root(())

    def test_rotation_case(self):
        # abbaba... : prefix shrinks by rotating the trailing b into the period
        assert up_normalize("ab", "baba") == (as_word("ab"), as_word("ba"))
        assert up_normalize("abb", "ab") == (as_word("ab"), as_word("ba"))
        assert up_normalize("a", "a") == ((), as_word("a"))
        assert up_normalize("", "abab") == ((), as_word("ab"))

    @given(words_ab, periods_ab)
    def test_matches_enumeration_oracle(self, u, v):
        got = up_normalize(u, v)
        assert got == normalize_oracle(u, v, max_len=len(u) + len(v) + 1)

    @given(words_ab, periods_ab)
    def test_idempotent_and_denotes_same_word(self, u, v):
        cu, cv = up_normalize(u, v)
        assert up_normalize(cu, cv) == (cu, cv)
        n = len(u) + len(v) + len(cu) + len(cv) + lcm(len(v), len(cv))
        assert expand(cu, cv, n) == expand(u, v, n)


class TestIndexing:
    def test_getitem(self):
        x = up_word("ab", "cd")
        assert x.take(7) == as_word("abcdcdc")
        with pytest.raises(IndexError):
            x[-1]

    def test_str(self):
        assert str(up_word("ab", "baba")) == "ab(ba)"


class TestEquality:
    def test_equal_different_presentations(self):
        assert up_equal(up_word("ab", "ba"), up_word("abb", "ab"))
        assert up_equal(up_word("", "a"), up_word("aaa", "aa"))
        assert not up_equal(up_word("", "ab"), up_word("", "ba"))

    def test_lcp_values(self):
        assert up_lcp(up_word("ab", "ba"), up_word("abb", "ab")) is None
        assert up_lcp(up_word("", "a"), up_word("", "b")) == 0
        assert up_lcp(up_word("aaab", "c"), up_word("", "a")) == 3

    @given(words_ab, periods_ab, words_ab, periods_ab)
    def test_lcp_matches_long_expansion(self, u1, v1, u2, v2):
        x, y = up_word(u1, v1), up_word(u2, v2)
        n = 10 * (len(u1) + len(v1) + len(u2) + len(v2) + 4)
        a, b = x.take(n), y.take(n)
        got = up_lcp(x, y)
        if got is None:
            assert a == b
        else:
            assert a[:got] == b[:got] and a[got] != b[got]


# Every presentation u.v^omega over {a, b} with |u| <= 3 and 1 <= |v| <= 3,
# canonical or not, so distinct presentations of one word are included.
PRESENTATIONS = [UPWord(u, v) for u in words_up_to("ab", 0, 3)
                 for v in words_up_to("ab", 1, 3)]


def ref_lcp(x, y, n=64):
    """First position where x and y differ, read symbol by symbol; None
    when they agree on n symbols (far past any difference here)."""
    for i in range(n):
        if x[i] != y[i]:
            return i
    return None


class TestSliceReferences:
    def test_take_matches_symbols(self):
        for x in PRESENTATIONS:
            for n in range(13):
                assert x.take(n) == tuple(x[i] for i in range(n)), (x, n)

    def test_up_lcp_matches_symbols(self):
        equal = 0
        for x, y in itertools.product(PRESENTATIONS, repeat=2):
            got = up_lcp(x, y)
            assert got == ref_lcp(x, y), (x, y)
            equal += got is None and x != y
        # equal words with different presentations, e.g. a.(a) and (a)
        assert equal > 0


class TestFiniteHelpers:
    def test_lcp(self):
        assert lcp("abc", "abd") == 2
        assert lcp("", "abc") == 0
        assert lcp("ab", "ab") == 2

    def test_mismatch(self):
        assert mismatch("abc", "abd") == 2
        assert mismatch("ab", "abc") is None
        assert mismatch("", "x") is None
        assert mismatch("xa", "ya") == 0

"""Ultimately periodic words and prefix comparison utilities.

A word is a tuple of hashable symbols.  An ultimately periodic (UP) word
u.v^omega is represented by a UPWord with a finite prefix u and a
non-empty period v.  Canonical form: the period is primitive (not a
proper power) and the prefix cannot be shortened by rotating a symbol
out of the period's tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Iterator, Sequence, Tuple

Symbol = object
Word = Tuple[Symbol, ...]


def as_word(w: Sequence) -> Word:
    """Coerce a sequence (e.g. a str) into a symbol tuple."""
    return tuple(w)


def words_up_to(letters, lo: int, hi: int) -> Iterator[Word]:
    """All words over letters with length lo..hi, shortest first and in
    the order of letters within each length."""
    for k in range(lo, hi + 1):
        yield from product(letters, repeat=k)


def primitive_root(v: Word) -> Word:
    """Shortest word r with v = r^k.  Divisor lengths are tried in order."""
    n = len(v)
    if n == 0:
        raise ValueError("empty period has no primitive root")
    for d in range(1, n + 1):
        if n % d == 0 and v[:d] * (n // d) == v:
            return v[:d]
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class UPWord:
    """u.v^omega in canonical form; construct via up_word / up_normalize."""

    prefix: Word
    period: Word

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("period must be non-empty")

    def __getitem__(self, i: int) -> Symbol:
        if i < 0:
            raise IndexError(i)
        p = len(self.prefix)
        if i < p:
            return self.prefix[i]
        return self.period[(i - p) % len(self.period)]

    def take(self, n: int) -> Word:
        """First n symbols as a finite word."""
        # enough copies of the period to reach n symbols
        k = max(0, -(-(n - len(self.prefix)) // len(self.period)))
        return (self.prefix + self.period * k)[:max(n, 0)]

    def __str__(self) -> str:
        pre = "".join(map(str, self.prefix))
        per = "".join(map(str, self.period))
        return f"{pre}({per})"


def up_normalize(prefix: Sequence, period: Sequence) -> Tuple[Word, Word]:
    """Canonical (prefix, period) pair denoting the same UP word.

    The period is reduced to its primitive root, then trailing prefix
    symbols equal to the period's last symbol are rotated into the
    period.  The result is the unique pair with minimal period length
    and, among those, minimal prefix length.
    """
    u, v = as_word(prefix), as_word(period)
    v = primitive_root(v)
    while u and u[-1] == v[-1]:
        u = u[:-1]
        v = (v[-1],) + v[:-1]
    return u, v


def up_word(prefix: Sequence, period: Sequence) -> UPWord:
    u, v = up_normalize(prefix, period)
    return UPWord(u, v)


def up_equal(x: UPWord, y: UPWord) -> bool:
    """Equality of the denoted infinite words."""
    return up_lcp(x, y) is None


def _agreement_cutoff(x: UPWord, y: UPWord) -> int:
    """Length N such that agreement on the first N symbols implies equality.

    Both words are eventually periodic with periods q1, q2 after their
    prefixes; past max prefix the difference sequence is periodic with
    period lcm(q1, q2), so one full lcm window suffices.
    """
    return (max(len(x.prefix), len(y.prefix))
            + len(x.period) + len(y.period)
            + lcm(len(x.period), len(y.period)))


def up_lcp(x: UPWord, y: UPWord) -> int | None:
    """Length of the longest common prefix, or None when x == y."""
    n = _agreement_cutoff(x, y)
    a, b = x.take(n), y.take(n)
    return None if a == b else lcp(a, b)


def lcp(u: Sequence, w: Sequence) -> int:
    """Longest common prefix length of two finite words."""
    u, w = as_word(u), as_word(w)
    i = 0
    while i < len(u) and i < len(w) and u[i] == w[i]:
        i += 1
    return i


def mismatch(u: Sequence, w: Sequence) -> int | None:
    """First position where u and w carry different symbols.

    Only positions present in both words count: None means one word is
    a prefix of the other.
    """
    u, w = as_word(u), as_word(w)
    i = lcp(u, w)
    if i < len(u) and i < len(w):
        return i
    return None

"""Fixtures shared by several test modules."""

import pytest

from omegacont.buchi import all_up_words
from omegacont.fixtures import block_doubler
from omegacont.twoway import Output, eval_up_2way
from omegacont.words import as_word, mismatch


@pytest.fixture(scope="session")
def dbl_brute_mismatch():
    """Reference answers to the mismatch question for the block
    doubler, by enumeration: is there an ultimately periodic word with
    prefix and period of length at most 4 that starts with u, lies in
    the domain, and whose image does not start with v?

    Each word is evaluated at most once per session, however many
    (u, v) pairs and tests ask."""
    t = block_doubler()
    words = list(all_up_words(sorted(t.alphabet), 4, 4))
    images = {}

    def image(x):
        if x not in images:
            got = eval_up_2way(t, x)
            images[x] = got.value if isinstance(got, Output) else None
        return images[x]

    def brute(u, v):
        u, v = as_word(u), as_word(v)
        for x in words:
            if x.take(len(u)) != u:
                continue
            img = image(x)
            if img is not None and \
                    mismatch(v, img.take(len(v))) is not None:
                return True
        return False

    return brute

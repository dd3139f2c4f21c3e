"""Fixtures and machine corpora shared by several test modules."""

import random
from functools import lru_cache

import pytest

from omegacont import oracle
from omegacont.buchi import all_up_words
from omegacont.fixtures import block_doubler
from omegacont.oneway import (functionality_check, silent_accepting_cycle,
                              transducer, trim_transducer)
from omegacont.twoway import Output, eval_up_2way
from omegacont.words import as_word, mismatch


def first_draw(seed, profile):
    """The first machine random_instance's loop draws, trimmed, before
    any filter."""
    n_states, n_in, n_out, max_out = profile
    letters, out_letters = "abcdefgh"[:n_in], "abcdefgh"[:n_out]
    rng = random.Random(seed)
    build = oracle._build_halves if rng.random() < 0.5 else oracle._build_free
    s, tr, i, f = build(rng, n_states, letters, out_letters, max_out)
    return trim_transducer(transducer(letters, out_letters, s, tr, i, f))


# An accepting loop at r that emits nothing: f(a^omega) = c^omega, and
# the run through r is not read.
SILENT_LOOP = transducer("a", "cd", ["s1", "s2", "r"],
                         {("s1", "a", "s1", "c"), ("s2", "a", "r", "d"),
                          ("r", "a", "r", "")},
                         ["s1", "s2"], ["s1", "r"])


@lru_cache(maxsize=None)
def silent_loop_draws():
    """The functional first draws of seeds 0..149 of three profiles
    that have a silent accepting cycle, which random_instance redraws:
    the one-way corpus whose runs do not all emit forever."""
    draws = (first_draw(s, p) for p in ((4, 2, 2, 2), (3, 3, 2, 2),
                                        (5, 2, 2, 2)) for s in range(150))
    return tuple(t for t in draws if t.transitions
                 and silent_accepting_cycle(t)
                 and functionality_check(t) is None)


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

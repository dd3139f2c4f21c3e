"""brute_force_check against the version it replaced.

The reference below is the earlier search, kept as it was: it expands
every image of a family symbol by symbol, compares images with a
per-symbol lcp scan, recomputes all three pairwise lcps of the last
three samples, and evaluates each normalised word once through eval_up
or eval_up_2way (the _evaluator below).  The current search never
normalises a one-way image: it reads each image as its first window
symbols off an un-normalised (stem, loop) output pair, takes the lcp
of consecutive images off those windows, capped at the window, and
decides each pair of distinct family signatures once; it must report
the same result, bad pair and evidence included.
"""

import itertools
from math import lcm

import pytest

from omegacont.fixtures import (block_doubler, branch_switch, prefix_doubler,
                                prefix_doubler_2way, stem_doubler,
                                tail_classifier, tail_classifier_2way)
from omegacont.oneway import EpsilonLoopOutput, Transducer, eval_up
from omegacont.oracle import (BadPair, BadPairFound, Divergent, MismatchAt,
                              NoneUpTo, _diverges, brute_force_check,
                              random_instance)
from omegacont.twoway import Output, eval_up_2way
from omegacont.words import up_word, words_up_to
from conftest import SILENT_LOOP, silent_loop_draws
from test_oracle import parity_flipper


def _evaluator(machine):
    if isinstance(machine, Transducer):
        def ev1(x):
            try:
                return eval_up(machine, x)
            except EpsilonLoopOutput:
                # accepted but with a finite image: not a function value
                return None
        return ev1

    def ev(x):
        got = eval_up_2way(machine, x)
        return got.value if isinstance(got, Output) else None

    return ev


def ref_take(x, n):
    return tuple(x[i] for i in range(n))


def ref_up_lcp(x, y):
    n = (max(len(x.prefix), len(y.prefix))
         + len(x.period) + len(y.period)
         + lcm(len(x.period), len(y.period)))
    for i in range(n):
        if x[i] != y[i]:
            return i
    return None


def ref_stable_up_to(imgs, window):
    stable = window
    for x, y in itertools.combinations(imgs[-3:], 2):
        l = ref_up_lcp(x, y)
        if l is not None:
            stable = min(stable, l)
    return stable


def ref_brute_force_check(machine, variant, bound):
    if variant not in ("cont", "ucont"):
        raise ValueError(f"unknown variant {variant!r}")
    ev = _evaluator(machine)
    letters = sorted(machine.alphabet)
    n_max = 2 * bound + 2
    window = 4 * (bound + 2)
    cache = {}

    def image(prefix, period):
        x = up_word(prefix, period)
        if x not in cache:
            cache[x] = ev(x)
        return cache[x]

    for u in words_up_to(letters, 0, bound):
        for v in words_up_to(letters, 1, bound):
            if variant == "cont" and image(u, v) is None:
                continue
            tails = []
            for w in words_up_to(letters, 0, bound):
                for z in words_up_to(letters, 1, bound):
                    imgs = []
                    for n in range(1, n_max + 1):
                        img = image(u + v * n + w, z)
                        if img is None:
                            break
                        imgs.append(img)
                    if len(imgs) < n_max:
                        continue
                    takes = [ref_take(i, window) for i in imgs]
                    lcps = [ref_up_lcp(a, b) for a, b in zip(imgs, imgs[1:])]
                    tails.append((w, z, takes,
                                  ref_stable_up_to(imgs, window)))
                    if _diverges(lcps):
                        pair = BadPair(u, v, w, w, up_word((), z),
                                       up_word((), z), Divergent("left"))
                        return BadPairFound(pair)
            for (w, z, ta, sa), (wp, zp, tb, sb) in \
                    itertools.combinations(tails, 2):
                common = set(range(min(sa, sb)))
                for a, b in zip(ta, tb):
                    common &= {i for i in common if a[i] != b[i]}
                    if not common:
                        break
                if common:
                    pair = BadPair(u, v, w, wp, up_word((), z),
                                   up_word((), zp), MismatchAt(min(common)))
                    return BadPairFound(pair)
    return NoneUpTo(bound)


def machines():
    # the shipped machines t_c, t_nc, t_inf and j
    yield "t_c", prefix_doubler()
    yield "t_nc", branch_switch()
    yield "t_inf", tail_classifier()
    yield "j", stem_doubler()
    yield "parity_flipper", parity_flipper()
    for seed in range(32):
        yield f"random_instance({seed})", random_instance(seed)
    # machines with a silent accepting cycle; the first 35 draws take
    # about 6 s in all, the next one alone about 8 s
    yield "SILENT_LOOP", SILENT_LOOP
    for i, t in enumerate(silent_loop_draws()[:35]):
        yield f"silent_loop_draws()[{i}]", t


MACHINES = list(machines())


@pytest.mark.parametrize("name,t", MACHINES, ids=[n for n, _ in MACHINES])
def test_brute_force_check_matches_reference(name, t):
    for variant in ("cont", "ucont"):
        for bound in (1, 2):
            assert repr(brute_force_check(t, variant, bound)) == \
                repr(ref_brute_force_check(t, variant, bound)), \
                (variant, bound)


# the two-way fixtures other than j, which is in MACHINES; dbl "cont" at
# bound 2, about 60 s for both searches, is left out
TWO_WAY_CASES = [
    (name, t, variant, bound)
    for name, t in (("dbl", block_doubler()),
                    ("t_c_2way", prefix_doubler_2way()),
                    ("f_inf", tail_classifier_2way()))
    for variant in ("cont", "ucont") for bound in (1, 2)
    if (name, variant, bound) != ("dbl", "cont", 2)]


@pytest.mark.parametrize("name,t,variant,bound", TWO_WAY_CASES,
                         ids=[f"{n}-{v}-{b}" for n, _, v, b in TWO_WAY_CASES])
def test_two_way_matches_reference(name, t, variant, bound):
    assert repr(brute_force_check(t, variant, bound)) == \
        repr(ref_brute_force_check(t, variant, bound))


def test_reference_covers_every_result():
    def kind(r):
        return type(r.pair.evidence if isinstance(r, BadPairFound)
                    else r).__name__

    assert kind(ref_brute_force_check(prefix_doubler(), "cont", 1)) == \
        "NoneUpTo"
    assert kind(ref_brute_force_check(branch_switch(), "cont", 1)) == \
        "MismatchAt"
    assert kind(ref_brute_force_check(parity_flipper(), "ucont", 1)) == \
        "Divergent"

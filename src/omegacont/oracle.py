"""Brute-force reference semantics for the continuity checkers.

A synchronized bad pair is two families of domain words
u v^n w z^omega and u v^n w' z'^omega whose inputs converge (they share
the prefix u v^n) while the images keep a mismatch at a fixed position
or one family's images fail to converge at all.  Finding one disproves
continuity at u v^omega (when that limit is in the domain) or uniform
continuity (unconditionally).  The search is bounded and only its
positive answers are definite.

Each call evaluates its images through one _evaluator, whose tables
live only as long as the call: on a one-way machine, the states and
outputs reached on each input prefix and the lasso output from a state
over a period, so that every family u v^n w z^omega shares the reading
of u v^n; on a two-way machine, a memo of eval_up_2way by normalised
word.

Also provides a reproducible generator of small functional one-way
transducers used by the differential tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Tuple, Union

from .buchi import find_lasso
from .oneway import (Transducer, emitting_runs, functionality_check,
                     silent_accepting_cycle, transducer, trim_transducer)
from .twoway import Output, eval_up_2way
from .words import UPWord, Word, up_lcp, up_word, words_up_to


@dataclass(frozen=True)
class Divergent:
    side: str  # "left" or "right"


@dataclass(frozen=True)
class MismatchAt:
    position: int


@dataclass(frozen=True)
class BadPair:
    u: Word
    v: Word
    w: Word
    wp: Word
    z: UPWord  # the periodic tails, as omega-words
    zp: UPWord
    evidence: Union[Divergent, MismatchAt]


@dataclass(frozen=True)
class BadPairFound:
    pair: BadPair


@dataclass(frozen=True)
class NoneUpTo:
    bound: int


def _evaluator(machine):
    """ev(prefix, period): the image of prefix . period^omega, or None
    outside dom f or when every accepting run on it emits only finitely
    often.  The arguments are symbol tuples, not necessarily
    normalised.

    On a one-way machine the image is read off two tables, which live
    as long as ev: the states reached on each prefix read so far, with
    one output per state, and the lasso output from a state over a
    period.  Both are taken on emitting_runs, every accepting run of
    which emits forever and, the machine being functional, has the
    image as its output; so the image is that of the first reached
    state with an accepting lasso.  A two-way machine's images are
    memoised by the normalised word."""
    if isinstance(machine, Transducer):
        return _oneway_evaluator(emitting_runs(machine))
    memo = {}

    def ev(prefix, period):
        x = up_word(prefix, period)
        if x not in memo:
            got = eval_up_2way(machine, x)
            memo[x] = got.value if isinstance(got, Output) else None
        return memo[x]

    return ev


def _oneway_evaluator(t: Transducer):
    # prefix -> {state: output so far}, in the order of initial states
    # by repr, then of arcs, so no answer depends on string hashing
    reach = {(): {q: () for q in sorted(t.initial, key=repr)}}
    tails = {}  # (state, period) -> (stem, loop) outputs, or None

    def reached(prefix):
        # read on from the longest prefix already read
        k = len(prefix)
        while prefix[:k] not in reach:
            k -= 1
        cur = reach[prefix[:k]]
        for i in range(k, len(prefix)):
            nxt = {}
            for q, out in cur.items():
                for r, g in t.arcs(q, prefix[i]):
                    if r not in nxt:
                        nxt[r] = out + g
            cur = reach[prefix[:i + 1]] = nxt
        return cur

    def tail(q, period):
        if (q, period) not in tails:
            n = len(period)

            def succ(node):
                s, i = node
                return [(g, (r, (i + 1) % n))
                        for (r, g) in t.arcs(s, period[i])]

            lasso = find_lasso([(q, 0)], succ, lambda nd: nd[0] in t.final)
            tails[q, period] = None if lasso is None else tuple(
                tuple(c for g in labels for c in g)
                for labels in (lasso.stem_labels, lasso.loop_labels))
        return tails[q, period]

    def ev(prefix, period):
        for q, out in reached(prefix).items():
            got = tail(q, period)
            if got is not None:
                return up_word(out + got[0], got[1])
        return None

    return ev


def _stable_up_to(lcps, window: int) -> int:
    """Positions where a family's images can be trusted: below the
    least pairwise lcp among its last three samples, given the lcps of
    consecutive samples.  (Pairwise, since a family can cycle with
    period two in n, making every other image equal while the family
    keeps changing.)  The outer pair needs no comparison: two words
    that each agree with a third on m symbols agree with each other on
    them, so its lcp is at least the lesser of the two consecutive
    ones."""
    return min([window] + [l for l in lcps[-2:] if l is not None])


def _diverges(lcps) -> bool:
    # images must keep stalling: consecutive lcps finite, never growing,
    # and falling behind the index
    if any(l is None for l in lcps):
        return False
    return all(l < n + 1 for n, l in enumerate(lcps)) and \
        all(b <= a for a, b in zip(lcps, lcps[1:]))


def brute_force_check(machine, variant: str, bound: int):
    """Search for a synchronized bad pair with all parts of length at
    most bound; BadPairFound(pair) or NoneUpTo(bound).

    Images are sampled at n = 1..2*bound+2 and compared on a fixed
    window, so only positive answers are conclusive.  They are evaluated
    by one _evaluator built for the call, on the words as enumerated;
    a one-way machine must be functional.  A bound below 1 raises
    ValueError.
    """
    if variant not in ("cont", "ucont"):
        raise ValueError(f"unknown variant {variant!r}")
    if bound < 1:
        raise ValueError(f"bound must be at least 1, not {bound}")
    ev = _evaluator(machine)
    letters = sorted(machine.alphabet)
    n_max = 2 * bound + 2
    window = 4 * (bound + 2)

    def image(prefix, period):
        # (value, its first window symbols), or None outside the domain
        img = ev(prefix, period)
        return None if img is None else (img, img.take(window))

    for u in words_up_to(letters, 0, bound):
        for v in words_up_to(letters, 1, bound):
            if variant == "cont" and image(u, v) is None:
                continue
            tails = []
            for w in words_up_to(letters, 0, bound):
                for z in words_up_to(letters, 1, bound):
                    # a family with one image outside the domain is skipped,
                    # so its later images need not be evaluated
                    family = []
                    for n in range(1, n_max + 1):
                        got = image(u + v * n + w, z)
                        if got is None:
                            break
                        family.append(got)
                    if len(family) < n_max:
                        continue
                    imgs, takes = zip(*family)
                    lcps = [up_lcp(a, b) for a, b in zip(imgs, imgs[1:])]
                    # positions that have not stabilized across the last
                    # samples may mismatch as an artifact of the finite
                    # n range
                    tails.append((w, z, takes, _stable_up_to(lcps, window)))
                    if _diverges(lcps):
                        pair = BadPair(u, v, w, w, up_word((), z),
                                       up_word((), z), Divergent("left"))
                        return BadPairFound(pair)
            for (w, z, ta, sa), (wp, zp, tb, sb) in \
                    itertools.combinations(tails, 2):
                # the positions mismatched so far, least first
                common = range(min(sa, sb))
                for a, b in zip(ta, tb):
                    common = [i for i in common if a[i] != b[i]]
                    if not common:
                        break
                if common:
                    pair = BadPair(u, v, w, wp, up_word((), z),
                                   up_word((), zp), MismatchAt(common[0]))
                    return BadPairFound(pair)
    return NoneUpTo(bound)


def recheck_bad_pair(machine, pair: BadPair, n_max: int = 8) -> bool:
    """Re-validate a reported pair by direct evaluation."""
    ev = _evaluator(machine)
    left, right = [], []
    for n in range(1, n_max + 1):
        a = ev(pair.u + pair.v * n + pair.w, pair.z.period)
        b = ev(pair.u + pair.v * n + pair.wp, pair.zp.period)
        if a is None or b is None:
            return False
        left.append(a)
        right.append(b)
        if isinstance(pair.evidence, MismatchAt):
            i = pair.evidence.position
            if a[i] == b[i]:
                return False
    if isinstance(pair.evidence, MismatchAt):
        # the position must have stabilized in both families
        i = pair.evidence.position
        for fam in (left, right):
            last = [up_lcp(x, y) for x, y in zip(fam[-3:], fam[-2:])]
            if i >= _stable_up_to(last, i + 1):
                return False
    else:
        lcps = [up_lcp(x, y) for x, y in zip(left, left[1:])]
        if not _diverges(lcps):
            return False
    return True


DEFAULT_PROFILE = (4, 2, 2, 2)  # states, input letters, output letters, max output


def _build_free(rng, n_states, letters, out_letters, max_out):
    # one tangled graph with occasional competing branches
    states = [f"q{i}" for i in range(n_states)]
    trans = set()
    for q in states:
        for a in letters:
            if rng.random() < 0.25:
                continue
            branches = 2 if rng.random() < 0.45 else 1
            for _ in range(branches):
                out = "".join(rng.choice(out_letters)
                              for _ in range(rng.randrange(max_out + 1)))
                trans.add((q, a, rng.choice(states), out))
    initial = rng.sample(states, min(rng.randrange(1, 3), n_states))
    final = rng.sample(states, min(rng.randrange(1, 3), n_states))
    return states, trans, initial, final


def _build_halves(rng, n_states, letters, out_letters, max_out):
    # union of two deterministic-ish halves guessing from the start;
    # this shape breeds the limit-vs-approximation conflicts that make
    # a functional machine discontinuous
    trans, states, initial, final = set(), [], [], []
    per = max(1, n_states // 2)
    for h in range(2):
        hs = [f"q{h}{i}" for i in range(per)]
        states += hs
        initial.append(hs[0])
        final.append(rng.choice(hs))
        for q in hs:
            for a in letters:
                if rng.random() < 0.3:
                    continue
                out = "".join(rng.choice(out_letters)
                              for _ in range(rng.randrange(max_out + 1)))
                trans.add((q, a, rng.choice(hs), out))
    return states, trans, initial, final


def random_instance(seed: int, profile: Tuple[int, int, int, int]
                    = DEFAULT_PROFILE) -> Transducer:
    """Reproducible small functional transducer, redrawn until the
    functionality check passes.

    Machines with silent accepting cycles are redrawn too, so every
    accepted word of the result has an infinite image and language
    level continuity coincides with continuity of the function.  A
    profile no draw can satisfy raises ValueError."""
    n_states, n_in, n_out, max_out = profile
    letters_ok = 1 <= n_in <= 8 and 1 <= n_out <= 8
    if n_states < 1 or max_out < 1 or not letters_ok:
        raise ValueError(f"no functional instance with profile {profile}")
    letters = "abcdefgh"[:n_in]
    out_letters = "abcdefgh"[:n_out]
    rng = random.Random(seed)
    while True:
        build = _build_halves if rng.random() < 0.5 else _build_free
        s, tr, i, f = build(rng, n_states, letters, out_letters, max_out)
        t = trim_transducer(transducer(letters, out_letters, s, tr, i, f))
        if not t.states or not t.transitions:
            continue
        if silent_accepting_cycle(t):
            continue
        # strict pending bound keeps the paired-run search small; it
        # only costs us some functional candidates, which are redrawn
        if functionality_check(t, bound=8) is None:
            return t

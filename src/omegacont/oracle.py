"""Brute-force reference semantics for the continuity checkers.

A synchronized bad pair is two families of domain words
u v^n w z^omega and u v^n w' z'^omega whose inputs converge (they share
the prefix u v^n) while the images keep a mismatch at a fixed position
or one family's images fail to converge at all.  Finding one disproves
continuity at u v^omega (when that limit is in the domain) or uniform
continuity (unconditionally).  The search is bounded and samples
finitely many images per family, so neither answer is definite: a
reported pair is a candidate until recheck_bad_pair confirms it (an
image whose output has not settled within the sampled n can make a
pair mismatch on a continuous machine).

Each call reads its images through tables that live only as long as
the call.  On a one-way machine they are taken on emitting_runs, and
every family u v^n w z^omega is split at u v^n: the states reached on
u v^n, each with the output of its first run, are carried along one v
at a time, and every state q has one row, built once per call, that
gives for each tail (w, z) the output from q of an accepting run on
w z^omega, as (stem, loop) outputs, or None.  The image at n is the
output to the first state reached on u v^n whose row entry is not
None, followed by that entry; the machine being functional, any such
state gives the same image (see brute_force_check).  On a two-way
machine the tables are a memo of eval_up_2way by normalised word.
The search handles each image as its first window symbols, taken off
the un-normalised (stem, loop) output pair, and reads the lcp of two
images off their windows, capped at the window: every lcp it acts on
lies below the window, so the cap changes no answer.  The lcps of a
family, and what the search reads off them, are computed once per
distinct tuple of windows in a call.  No window is kept across calls.

Two tails (w, z) that spell one omega-word w z^omega give every family
the same images, so the search reads one family per distinct tail
word: the first tail of each class, in enumeration order.  And two
families can keep a mismatch only where their stable prefixes differ,
so when those prefixes form a prefix chain no pair of families is
compared (see brute_force_check and _first_mismatch).

Also provides a reproducible generator of small functional one-way
transducers used by the differential tests.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Tuple, Union

from .buchi import find_lasso
from .oneway import (Transducer, emitting_runs, functionality_check,
                     silent_accepting_cycle, transducer, trim_transducer)
from .twoway import Output, eval_up_2way
from .words import UPWord, Word, lcp, up_lcp, up_word, words_up_to


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


def _reader(machine):
    """read(prefix, period): the image of prefix . period^omega as a
    (stem, loop) pair of output words, not necessarily normalised, or
    None outside dom f or when every accepting run on it emits only
    finitely often.  The arguments are symbol tuples, not necessarily
    normalised either.

    A one-way machine is read on emitting_runs: the states reached on
    the prefix (_step), then the lasso output over the period from the
    first of them that has one (_first_image).  A two-way machine's
    images are memoised by the normalised word.  Either table lives as
    long as read."""
    if isinstance(machine, Transducer):
        t = emitting_runs(machine)
        start, tail = _start(t), _tails(t)
        return lambda prefix, period: _first_image(
            _step(t, start, prefix), tail, period)
    memo = {}

    def read(prefix, period):
        x = up_word(prefix, period)
        if x not in memo:
            got = eval_up_2way(machine, x)
            memo[x] = ((got.value.prefix, got.value.period)
                       if isinstance(got, Output) else None)
        return memo[x]

    return read


def _evaluator(machine):
    """ev(prefix, period): the image of prefix . period^omega as a
    normalised UPWord, or None where _reader gives None."""
    read = _reader(machine)

    def ev(prefix, period):
        got = read(prefix, period)
        return None if got is None else up_word(*got)

    return ev


def _start(t: Transducer):
    # the initial states by repr, so no answer depends on string hashing
    return {q: () for q in sorted(t.initial, key=repr)}


def _step(t: Transducer, reach, word):
    """The states reached from reach (state -> output so far) on word,
    each with the output of its first run, in the order of reach and
    then of arcs."""
    for a in word:
        nxt = {}
        for q, out in reach.items():
            for r, g in t.arcs(q, a):
                if r not in nxt:
                    nxt[r] = out + g
        reach = nxt
    return reach


def _tails(t: Transducer):
    """tail(q, period): the (stem, loop) outputs of an accepting lasso
    from q over period^omega, or None; memoised as long as tail."""
    memo = {}

    def tail(q, period):
        if (q, period) not in memo:
            n = len(period)

            def succ(node):
                s, i = node
                return [(g, (r, (i + 1) % n))
                        for (r, g) in t.arcs(s, period[i])]

            lasso = find_lasso([(q, 0)], succ, lambda nd: nd[0] in t.final)
            memo[q, period] = None if lasso is None else tuple(
                tuple(c for g in labels for c in g)
                for labels in (lasso.stem_labels, lasso.loop_labels))
        return memo[q, period]

    return tail


def _first_image(reach, tail, period):
    """out + stem, loop for the first state of reach with a lasso over
    period, or None."""
    for q, out in reach.items():
        got = tail(q, period)
        if got is not None:
            return out + got[0], got[1]
    return None


def _families(machine, tails, n_max: int, window: int):
    """families(u, v) -> (limit, windows): limit is the image of
    u v^omega, as _reader gives it, and windows(k) the first window
    symbols of the images of u v^n w z^omega for n = 1..n_max and
    (w, z) = tails[k], as a tuple; or None once one image is None, so
    that the later ones are not read.

    On a one-way machine (read on emitting_runs) the states reached on
    u v^n, each with its output, are carried along one v at a time,
    and every state q reached has one row, built once per _families
    call: for each tail (w, z), _first_image of q's states on w over
    z, or None.  The image at n is the output to the first state of
    u v^n whose row entry is not None, followed by that entry.  On a
    two-way machine each word is read through one _reader."""
    if not isinstance(machine, Transducer):
        read = _reader(machine)

        def two_way(u, v):
            def windows(k):
                w, z = tails[k]
                takes = []
                for n in range(1, n_max + 1):
                    got = read(u + v * n + w, z)
                    if got is None:
                        return None
                    takes.append(_window(*got, window))
                return tuple(takes)
            return read(u, v), windows

        return two_way
    t = emitting_runs(machine)
    start, tail = _start(t), _tails(t)
    rows = {}

    def row(q):
        if q not in rows:
            rows[q] = [_first_image(_step(t, {q: ()}, w), tail, z)
                       for w, z in tails]
        return rows[q]

    def one_way(u, v):
        reach = _step(t, start, u)
        limit = _first_image(reach, tail, v)
        at = []
        for _ in range(n_max):
            reach = _step(t, reach, v)
            at.append([(out, row(q)) for q, out in reach.items()])

        def windows(k):
            takes = []
            for states in at:
                for out, r in states:
                    got = r[k]
                    if got is not None:
                        takes.append(_window(out + got[0], got[1], window))
                        break
                else:
                    return None
            return tuple(takes)

        return limit, windows

    return one_way


def _window(stem: Word, loop: Word, n: int) -> Word:
    """The first n symbols of stem . loop^omega (loop non-empty)."""
    if len(stem) < n:
        stem += loop * -(-(n - len(stem)) // len(loop))
    return stem[:n]


def _window_lcp(a: Word, b: Word) -> int:
    """lcp of two images read off their windows a and b of one length:
    exact below that length, and that length when the windows agree."""
    return len(a) if a == b else lcp(a, b)


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
    """Do a family's images keep disagreeing from their first symbol on:
    is every consecutive lcp 0?  A family whose images alternate after
    a common output stem has lcps of at least the stem's length, so it
    is never reported here."""
    return all(l == 0 for l in lcps)


def _mismatch(ta, sa: int, tb, sb: int):
    """Least position below min(sa, sb) at which every sample of one
    family differs from the same sample of the other, or None."""
    common = range(min(sa, sb))
    for a, b in zip(ta, tb):
        common = [i for i in common if a[i] != b[i]]
        if not common:
            return None
    return common[0]


def _first_mismatch(tails, classes, sigs):
    """The first pair of tails (w, z), in the order of
    itertools.combinations over tails, whose families keep a mismatch
    below both stable bounds, with its least such position; or None.
    tails[k] is in class classes[k], and class c has the signature
    sigs[c]: its family's (windows, stable), or None for a family that
    is skipped.

    A mismatch at position i lies below both stable bounds, and the
    last samples differ there; so the two stable prefixes
    windows[-1][:stable] are incomparable.  When the stable prefixes,
    sorted, form a prefix chain, no pair mismatches, and None is
    returned without comparing any.  Otherwise a mismatch depends only
    on the two signatures, and two families of one signature never
    mismatch; so each pair of distinct signatures is decided once, and
    the tail pairs are walked only when some signature pair
    mismatches.  Signatures are numbered in the order they first
    appear, so nothing depends on string hashing."""
    ids = {}
    for sig in sigs:
        if sig is not None:
            ids.setdefault(sig, len(ids))
    prefixes = sorted(takes[-1][:stable] for takes, stable in ids)
    if all(a == b[:len(a)] for a, b in zip(prefixes, prefixes[1:])):
        return None
    table = {}
    for ((ta, sa), i), ((tb, sb), j) in itertools.combinations(ids.items(), 2):
        pos = _mismatch(ta, sa, tb, sb)
        if pos is not None:
            table[i, j] = table[j, i] = pos
    if not table:
        return None
    kept = [(wz, ids[sigs[c]]) for wz, c in zip(tails, classes)
            if sigs[c] is not None]
    for (a, i), (b, j) in itertools.combinations(kept, 2):
        if (i, j) in table:
            return a, b, table[i, j]
    raise AssertionError("unreachable")


def brute_force_check(machine, variant: str, bound: int):
    """Search for a synchronized bad pair with all parts of length at
    most bound; BadPairFound(pair) or NoneUpTo(bound).

    Images are sampled at n = 1..2*bound+2 and compared on a fixed
    window of 4*(bound+2) symbols, so no answer is conclusive: a
    reported pair is a candidate until recheck_bad_pair confirms it,
    and NoneUpTo rules out only pairs the samples would show.  The
    images are read by one _families built for the call; a one-way
    machine must be functional.  A bound below 1 raises ValueError.

    The tails (w, z) are grouped by the omega-word w z^omega they
    spell, and _families reads only the first tail of each class, in
    enumeration order.  A class is keyed by the first
    3*bound + lcm(1..bound) symbols of its word: two UP words with
    prefixes of length at most b and periods of lengths p, p' <= b are
    equal when they agree on b + lcm(p, p') symbols, and lcm(p, p')
    divides lcm(1..b).  Tails that spell one word give equal images at
    every n, hence equal windows, an equal signature and an equal
    divergence verdict.  So the first diverging tail is the first of
    its class, and _first_mismatch, which walks the full tail list
    when some pair mismatches, returns the same pair as a search over
    every tail.

    On a one-way machine the image of u v^n w z^omega is read off the
    states reached on u v^n and their per-state rows: the output o to
    the first such state whose row entry (s, l) for (w, z) is not None,
    then o s l^omega.  That is the image, whichever state comes first.
    The rows are taken on emitting_runs, every accepting run of which
    emits forever; the entry (s, l) is the output of such a run from
    the state on w z^omega, so o s l^omega is the output of an
    accepting run on the word, and on a functional machine every
    accepting run outputs f(u v^n w z^omega).  When no state reached
    has an entry, no run on the word is accepting, and the image is
    None (the word is outside dom f).

    Each image is handled as its first window symbols only.  So is
    every lcp of two consecutive images: read off their windows, it is
    the exact lcp when that is below window, and window otherwise (an
    exact lcp of at least window, or None for equal images).  Both
    consumers answer the same on these capped lcps.  _diverges accepts
    only lcps of 0, and 0 < window, so an lcp of window, at least
    window, or None all make it say no; _stable_up_to takes a min with
    window, which neither changes.  A family's lcps, stable bound and
    divergence depend only on its windows, so they are computed once
    per distinct tuple of windows.  Pairs of families are compared
    once per pair of distinct signatures, and not at all when the
    stable prefixes form a prefix chain (_first_mismatch).  No table
    outlives the call.
    """
    if variant not in ("cont", "ucont"):
        raise ValueError(f"unknown variant {variant!r}")
    if bound < 1:
        raise ValueError(f"bound must be at least 1, not {bound}")
    letters = sorted(machine.alphabet)
    n_max = 2 * bound + 2
    window = 4 * (bound + 2)
    tails_wz = list(itertools.product(words_up_to(letters, 0, bound),
                                      words_up_to(letters, 1, bound)))
    key_len = 3 * bound + math.lcm(*range(1, bound + 1))
    keys, classes, firsts = {}, [], []
    for w, z in tails_wz:
        key = _window(w, z, key_len)
        if key not in keys:
            keys[key] = len(firsts)
            firsts.append((w, z))
        classes.append(keys[key])
    families = _families(machine, firsts, n_max, window)
    summary = {}  # windows -> (stable bound, diverges)

    for u in words_up_to(letters, 0, bound):
        for v in words_up_to(letters, 1, bound):
            limit, windows = families(u, v)
            if variant == "cont" and limit is None:
                continue
            sigs = []
            for k, (w, z) in enumerate(firsts):
                # a family with one image outside the domain is skipped
                takes = windows(k)
                if takes is None:
                    sigs.append(None)
                    continue
                if takes not in summary:
                    lcps = [_window_lcp(a, b)
                            for a, b in zip(takes, takes[1:])]
                    # positions that have not stabilized across the last
                    # samples may mismatch as an artifact of the finite
                    # n range
                    summary[takes] = (_stable_up_to(lcps, window),
                                      _diverges(lcps))
                stable, diverges = summary[takes]
                sigs.append((takes, stable))
                if diverges:
                    pair = BadPair(u, v, w, w, up_word((), z),
                                   up_word((), z), Divergent("left"))
                    return BadPairFound(pair)
            found = _first_mismatch(tails_wz, classes, sigs)
            if found is not None:
                (w, z), (wp, zp), pos = found
                pair = BadPair(u, v, w, wp, up_word((), z),
                               up_word((), zp), MismatchAt(pos))
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
        # two halves need two states; the builder is drawn all the same
        halves = rng.random() < 0.5 and n_states > 1
        build = _build_halves if halves else _build_free
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

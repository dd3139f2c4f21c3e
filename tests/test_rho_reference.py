"""rho read off block walks against rho off a whole-run decompose.

loops.rho walks per-block traversal summaries (loops.BlockSummaries)
instead of running the machine on whole tapes.  The reference below is
rho as it read before: the pi and tr segments of the reference
decompose of test_loops_reference, which scans the runs of run_finite
on u1 u2 u3 and u1 u2 u2 u3.  Both must give the same value, or raise
the same exception with the same message, on every triple.

_reached names, from those runs, the cases a block walk can get wrong,
and each test asserts that its triples reach the ones it is there for:
a loop whose first repeated configuration is a block entry the run met
earlier inside a visit (at a boundary cell, not as that visit's entry),
a one-cell block entered from both sides, a left move at cell 0, and
values on an empty u3 and on an empty u1 of a marked tape.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from omegacont.continuity_regular import SearchBounds, _AnnotatedSpace
from omegacont.fixtures import (block_doubler, prefix_doubler_2way,
                                stem_doubler, tail_classifier_2way)
from omegacont.loops import (BlockSummaries, NotIdempotent, NotInPrefDomain,
                             rho)
from omegacont.twoway import ENDMARKER, run_finite, tape_of
from test_loops import random_two_way
from test_loops_reference import _detour, _reference_decompose


def _reference_rho(t, u1, u2, u3):
    """rho off decompose: pi_0 .. pi_i up to the first component whose
    tr output is non-empty."""
    d = _reference_decompose(t, u1, u2, u3)
    out = list(d.pi_outputs[0])
    for i, tr in enumerate(d.tr_outputs):
        if tr:
            return tuple(out)
        out.extend(d.pi_outputs[i + 1])
    return tuple(out)


def _outcome(fn, *args):
    """The value, or the exception type and message."""
    try:
        return fn(*args)
    except (NotIdempotent, NotInPrefDomain, RuntimeError) as e:
        return type(e), str(e)


def _reached(t, u1, u2, u3):
    """The hard cases that the runs on u1 u2 u3 and u1 u2 u2 u3 meet."""
    found = set()
    first = u1 if t.marked else (ENDMARKER,) + u1
    for parts in ((first, u2, u3), (first, u2, u2, u3)):
        block = [i for i, w in enumerate(parts) for _ in w]
        width = Counter(block)
        word = u1 + sum(parts[1:], ())
        tape, run = tape_of(t, word), run_finite(t, word)
        cfgs = run.configs
        sides = set()
        for (_, p1), (_, p2) in zip(cfgs, cfgs[1:]):
            if block[p1] != block[p2] and width[block[p2]] == 1:
                sides.add((block[p2], p2 > p1))
        if any((b, not right) in sides for b, right in sides):
            found.add("one-cell block entered from both sides")
        if not cfgs:
            continue
        q, p = cfgs[-1]
        step = t.delta.get((q, tape[p]))
        if run.exit == "blocked" and p == 0 and step is not None:
            found.add("left move at cell 0")
        if run.exit == "looped":
            again = (step[0], p + step[2])
            j = cfgs.index(again)
            if block[p] != block[again[1]] and j > 0 \
                    and block[cfgs[j - 1][1]] == block[again[1]]:
                found.add("loop at an entry met inside a visit")
    return found


def _check(t, triples):
    """Compare on every triple, with one BlockSummaries for all of
    them as in a search; count the hard cases and the outcomes."""
    seen = Counter()
    shared = BlockSummaries(t)
    for triple in triples:
        want = _outcome(_reference_rho, t, *triple)
        assert _outcome(shared.rho, *triple) == want, triple
        seen.update(_reached(t, *triple))
        raised = len(want) == 2 and isinstance(want[0], type)
        kind = want[0].__name__ if raised else "value"
        seen[kind] += 1
        if not triple[2]:
            seen["empty u3", kind] += 1
        if t.marked and not triple[0]:
            seen["empty u1 on a marked tape", kind] += 1
    return seen


def _words(letters, lo, hi):
    return [w for k in range(lo, hi + 1)
            for w in itertools.product(sorted(letters), repeat=k)]


def _triples(letters, b1, b2, b3):
    return [(u1, u2, u3) for u1 in _words(letters, 0, b1)
            for u2 in _words(letters, 1, b2)
            for u3 in _words(letters, 0, b3)]


def test_block_doubler_matches_reference():
    t = block_doubler()
    seen = _check(t, _triples(t.alphabet, 2, 2, 2))
    assert seen["value"] and seen["NotIdempotent"]
    assert seen["empty u3", "value"]


@pytest.mark.parametrize("make", [stem_doubler, tail_classifier_2way,
                                  prefix_doubler_2way],
                         ids=["j", "f_inf", "t_c_2way"])
def test_annotated_candidates_match_reference(make):
    space = _AnnotatedSpace(make())
    bounds = SearchBounds()
    triples = [(u1, u2, u3) for _, pairs in space.groups(bounds)
               for u1, u2 in pairs
               for u3 in space.thirds(u1, u2, bounds)]
    seen = _check(space.machine, triples)
    assert seen["value"] and seen["NotIdempotent"]
    assert seen["empty u3", "NotIdempotent"]


def test_detour_matches_reference():
    t = _detour()
    assert _outcome(rho, t, "y", "x", "w") == (NotIdempotent, "('x',)")
    triples = _triples("xyw", 2, 2, 2)
    seen = _check(t, triples)
    assert seen["value"] and seen["NotIdempotent"]
    # loops.rho is the same walk on summaries of its own
    for triple in triples:
        assert _outcome(rho, t, *triple) == \
            _outcome(_reference_rho, t, *triple), triple


@pytest.mark.parametrize("marked", [False, True])
def test_random_two_way_matches_reference(marked):
    rng = random.Random(5)
    seen = Counter()
    for _ in range(50):
        t = random_two_way(rng)
        if marked:
            t = dataclasses.replace(t, marked=True)
        seen += _check(t, _triples("ab", 2, 3, 2))
    print(sorted(seen.items(), key=str))
    assert seen["value"] and seen["NotIdempotent"] \
        and seen["NotInPrefDomain"]
    assert seen["loop at an entry met inside a visit"]
    assert seen["one-cell block entered from both sides"]
    assert seen["empty u3", "value"]
    if marked:
        assert seen["left move at cell 0"]
        # nothing crosses the left copy border, so only a run that
        # never leaves the first copy has equal borders
        assert seen["empty u1 on a marked tape", "NotIdempotent"]
        assert seen["empty u1 on a marked tape", "NotInPrefDomain"]

"""The witness search's first-crossing check and prefix values against
the walks they stand for.

BlockSummaries.loop_possible rules a (u1, u2) pair out before any walk
when the first visit to ^u1 does not leave it to the right in a state
that a move right on u2's last symbol enters.  The reference below is
the rule as it was before that check: the walk over ^u1 | u2, then its
border crossings.  BlockSummaries.prefix_values reads off the same
walk the rho values a pair's u3s give: one value V, none (a cut
without a tr), or open.  The lemma tests check both, on the four
two-way fixtures and 400 random machines (unmarked and marked) at
bounds 3,3,3:
- the first-crossing check rules out no pair the walk keeps;
- every u3 of a pair with the value V that rho returns on gives V;
- rho returns on no u3 of a pair with no value.
The work tests bound the prefix walks, u3 walks (rho calls) and limit
evaluations of each fixture verdict at default bounds.
"""

import dataclasses
import random
from collections import Counter

import pytest

from omegacont import continuity_regular, loops
from omegacont.continuity_regular import (NoWitnessUpTo, NotContinuous,
                                          SearchBounds, _make_space,
                                          search_witness)
from omegacont.fixtures import (block_doubler, prefix_doubler_2way,
                                stem_doubler, tail_classifier_2way)
from omegacont.loops import BlockSummaries, NotIdempotent, NotInPrefDomain

from test_loops import random_two_way

FIXTURES = [block_doubler, stem_doubler, prefix_doubler_2way,
            tail_classifier_2way]


def _random_machines():
    for s in range(400):
        t = random_two_way(random.Random(s), "ab", 2 + s % 3)
        yield t
        yield dataclasses.replace(t, marked=True)


def walk_rule(s: BlockSummaries, u1, u2) -> bool:
    """loop_possible without the first-crossing check: the walk over
    ^u1 | u2 leaves the tape to the right, and u2's border crossings
    are prefix-comparable and pass the u2 u2 check."""
    i, words = s._prefix(u1, u2)
    ends, cross = s._walk(words)[:2]
    if not ends or not u2:
        return ends
    short, long = sorted((cross[i], cross[i + 1]), key=len)
    return long[:len(short)] == short and s._stable(u2, long)


def first_crossing_rules_out(s: BlockSummaries, u1, u2) -> bool:
    """The first-crossing check, read off the transition table."""
    i, words = s._prefix(u1, u2)
    if not (i and u2):
        return False
    ex, e = s._block(words[0], True)["L", s.t.initial][:2]
    return ex != "R" or not any(a == u2[-1] and d == 1 and r == e
                                for (_, a), (r, _, d) in s.t.delta.items())


def test_first_crossing_and_prefix_values_lemma():
    bounds = SearchBounds(3, 3, 3)
    pairs = Counter()
    for t in [make() for make in FIXTURES] + list(_random_machines()):
        space = _make_space(t)
        summaries = BlockSummaries(space.machine)
        for _, group in space.groups(bounds):
            for u1, u2 in group:
                kept = walk_rule(summaries, u1, u2)
                if first_crossing_rules_out(summaries, u1, u2):
                    assert not kept, (t, u1, u2)
                    pairs["first crossing"] += 1
                assert summaries.loop_possible(u1, u2) == kept, (t, u1, u2)
                if not kept:
                    continue
                values = summaries.prefix_values(u1, u2)
                pairs["open" if values is None else len(values)] += 1
                if values is None:
                    continue
                for u3 in space.thirds(u1, u2, bounds):
                    try:
                        r = summaries.rho(u1, u2, u3)
                    except (NotIdempotent, NotInPrefDomain):
                        continue
                    assert (r,) == values, (t, u1, u2, u3)
                    pairs["values"] += 1
    print(sorted(pairs.items(), key=str))
    # every outcome occurs, and most ruled-out pairs need no walk
    assert pairs["first crossing"] > 100_000
    assert pairs[1] > 10_000 and pairs[0] > 100 and pairs["open"] > 1_000
    assert pairs["values"] > 100_000


def _count_work(monkeypatch) -> Counter:
    """Prefix walks, u3 walks (rho calls) and limit evaluations, counted
    from here on."""
    counts = Counter()
    walk, rho = BlockSummaries._walk, BlockSummaries.rho
    limit = continuity_regular._AnnotatedSpace.limit_in_domain

    def counted_walk(s, words, resumed=None):
        counts["prefix" if resumed is None else "resumed"] += 1
        return walk(s, words, resumed)

    def counted_rho(s, *triple):
        counts["rho"] += 1
        return rho(s, *triple)

    def counted_limit(space, *pair):
        counts["limit"] += 1
        return limit(space, *pair)

    monkeypatch.setattr(loops.BlockSummaries, "_walk", counted_walk)
    monkeypatch.setattr(loops.BlockSummaries, "rho", counted_rho)
    monkeypatch.setattr(continuity_regular._AnnotatedSpace,
                        "limit_in_domain", counted_limit)
    return counts


# (prefix walks, rho calls, limit evaluations) at most, per verdict
WORK = {
    ("dbl", "ucont"): (1, 158, 0),
    ("j", "cont"): (23, 32, 2),
    ("j", "ucont"): (23, 32, 0),
    ("t_c_2way", "cont"): (36, 0, 0),
    ("t_c_2way", "ucont"): (36, 0, 0),
    ("f_inf", "cont"): (7, 39, 2),
    ("f_inf", "ucont"): (7, 39, 0),
}
MAKE = dict(zip(["dbl", "j", "t_c_2way", "f_inf"], FIXTURES))


@pytest.mark.parametrize("name, variant", sorted(WORK))
def test_work_per_verdict(monkeypatch, name, variant):
    c = _count_work(monkeypatch)
    got = search_witness(MAKE[name](), variant)
    want = NoWitnessUpTo if name == "t_c_2way" else NotContinuous
    assert isinstance(got, want)
    prefix, rho, limit = WORK[name, variant]
    assert c["prefix"] <= prefix and c["rho"] <= rho and c["limit"] <= limit
    # the hooks are live where the search does that work
    assert c["prefix"] > 0 and (c["rho"] > 0 or name == "t_c_2way")

"""The witness search's pair rule against the search without it.

search_witness rules out a (u1, u2) pair once, from the walk over
^u1 | u2, when BlockSummaries.loop_possible is False, instead of
resuming that walk on every u3 into the same NotIdempotent or
NotInPrefDomain.  The lemma test checks, on the four two-way fixtures
and 400 random machines (unmarked and marked), that rho raises on
every u3 of a pair the rule rules out.  The reference below is the
search loop as it was before the rule; both searches must return the
same result, witness and all.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from omegacont import continuity_regular
from omegacont.continuity_regular import (NoWitnessUpTo, NotContinuous,
                                          RegularWitness, SearchBounds,
                                          _make_space, _PlainSpace, _verify,
                                          search_witness)
from omegacont.fixtures import (block_doubler, prefix_doubler_2way,
                                stem_doubler, tail_classifier_2way)
from omegacont.loops import BlockSummaries, NotIdempotent, NotInPrefDomain
from omegacont.words import mismatch

from test_loops import random_two_way

FIXTURES = [block_doubler, stem_doubler, prefix_doubler_2way,
            tail_classifier_2way]


def reference_search(t, variant, bounds):
    """search_witness without the pair rule: every u3 of every pair is
    resumed, and the "cont" limit is tested on each group's first
    pair."""
    space = _make_space(t)
    if variant == "cont" and isinstance(space, _PlainSpace):
        return NoWitnessUpTo(bounds, space.pref_exact)
    summaries = BlockSummaries(space.machine)
    pref_cache = {}

    def pref(w):
        if w not in pref_cache:
            pref_cache[w] = space.pref_member(w)
        return pref_cache[w]

    for _, pairs in space.groups(bounds):
        if variant == "cont" and not space.limit_in_domain(*pairs[0]):
            continue
        entries = []
        for (u1, u2) in pairs:
            for u3 in space.thirds(u1, u2, bounds):
                try:
                    r = summaries.rho(u1, u2, u3)
                except (NotIdempotent, NotInPrefDomain):
                    continue
                entries.append((u1, u2, u3, r))
        chain = sorted({e[3] for e in entries}, key=len)
        if all(a == b[:len(a)] for a, b in zip(chain, chain[1:])):
            continue
        for e1, e2 in itertools.combinations(entries, 2):
            pos = mismatch(e1[3], e2[3])
            if pos is None:
                continue
            if not pref(e1[0] + e1[1] + e1[2]):
                continue
            if not pref(e2[0] + e2[1] + e2[2]):
                continue
            w = RegularWitness(e1[0], e1[1], e1[2], e2[0], e2[1], e2[2],
                               pos, variant)
            if _verify(space, w, bounds.verify_n, pref, summaries):
                return NotContinuous(w, space.pref_exact)
    return NoWitnessUpTo(bounds, space.pref_exact)


def _random_machines():
    for s in range(400):
        t = random_two_way(random.Random(s), "ab", 2 + s % 3)
        yield t
        yield dataclasses.replace(t, marked=True)


def _case(summaries, u1, u2):
    """Which case of loop_possible rules out (u1, u2)."""
    i, words = summaries._prefix(u1, u2)
    ends, cross = summaries._resumed(words, ())[:2]
    if not ends:
        return "a"
    short, long = sorted((cross[i], cross[i + 1]), key=len)
    return "b" if long[:len(short)] != short else "c"


def test_ruled_out_pairs_have_no_rho_value():
    bounds = SearchBounds(3, 3, 3)
    machines = [make() for make in FIXTURES] + list(_random_machines())
    ruled_out = Counter()
    triples = values = 0
    for t in machines:
        # the pairs and u3s a "ucont" search enumerates, on the machine
        # or on the eliminated machine of a look-ahead machine
        space = _make_space(t)
        summaries = BlockSummaries(space.machine)
        for _, pairs in space.groups(bounds):
            for u1, u2 in pairs:
                if summaries.loop_possible(u1, u2):
                    continue
                ruled_out[_case(summaries, u1, u2)] += 1
                for u3 in space.thirds(u1, u2, bounds):
                    triples += 1
                    try:
                        summaries.rho(u1, u2, u3)
                    except (NotIdempotent, NotInPrefDomain):
                        continue
                    values += 1
    print(sorted(ruled_out.items()), triples)
    # each of the three cases occurs
    assert set(ruled_out) == {"a", "b", "c"}
    assert triples > 2_000_000
    assert values == 0


@pytest.mark.parametrize("variant", ["cont", "ucont"])
@pytest.mark.parametrize("bounds", [(3, 3, 3), (2, 2, 2)])
@pytest.mark.parametrize("make", FIXTURES,
                         ids=["dbl", "j", "t_c_2way", "f_inf"])
def test_fixture_search_matches_reference(make, variant, bounds):
    b = SearchBounds(*bounds)
    assert repr(search_witness(make(), variant, b)) == \
        repr(reference_search(make(), variant, b))


def test_random_search_matches_reference():
    bounds = SearchBounds(2, 2, 2)
    found = 0
    for t in _random_machines():
        got = search_witness(t, "ucont", bounds)
        assert repr(got) == repr(reference_search(t, "ucont", bounds)), t
        found += isinstance(got, NotContinuous)
    assert found


def test_f_inf_cont_rho_calls(monkeypatch):
    calls = []
    rho = BlockSummaries.rho

    def counted(self, *triple):
        calls.append(triple)
        return rho(self, *triple)

    monkeypatch.setattr(continuity_regular.BlockSummaries, "rho", counted)
    search_witness(tail_classifier_2way(), "cont")
    # 698 without the pair rule
    assert 0 < len(calls) <= 40

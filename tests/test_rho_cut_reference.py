"""rho read off the first emitting crossing against rho off two runs.

BlockSummaries.rho cuts the walk of the run on u1 u2 u3 at the first
crossing visit of u2 whose tr is non-empty, and reads tr per (u2,
entry): the visit to u2 u2 on the entry less its suffix, the visit to
u2 (BlockSummaries._tr).  The reference below reads rho off two
runs: the pi segments of the run on u1 u2 u3 and of the run on
u1 u2 u2 u3, read off the same walk with each visit to u2 replaced by
the visit to u2 u2 on its entry, and tr(C_i) as segment i of the second
less its suffix pi_i.  Both must give the same value, or raise the same
exception with the same message, on every triple.

search_witness walks a pair's u3s only up to its first value when
BlockSummaries.rho_fixed says its prefix walk fixes rho; the lemma test
checks that every u3 of such a pair gives that one value, and the work
tests bound the rho calls it saves.  rho_fixed may be asked only once
some u3 of the pair has a value: asked before, on a pair whose u3s all
raise, it can meet an entry without a tr, and the mutant test shows a
search doing so fail.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from omegacont import continuity_regular
from omegacont.continuity_regular import (NoWitnessUpTo, NotContinuous,
                                          SearchBounds, _make_space,
                                          search_witness)
from omegacont.fixtures import (block_doubler, prefix_doubler_2way,
                                stem_doubler, tail_classifier_2way)
from omegacont.loops import (BlockSummaries, NotIdempotent, NotInPrefDomain,
                             _pieces)

from test_loops import random_two_way, words_up_to

FIXTURES = [block_doubler, stem_doubler, prefix_doubler_2way,
            tail_classifier_2way]


def _loop_outputs(pis, segs2):
    """tr(C_1) .. tr(C_k): segment i of the run on u1 u2 u2 u3 less its
    suffix pi_i, the output one more copy of u2 adds to crossing i."""
    trs = []
    for i in range(1, len(pis)):
        seg2, pi = segs2[i], pis[i]
        if pi and seg2[len(seg2) - len(pi):] != pi:
            raise RuntimeError("pumping alignment failed: no common suffix")
        trs.append(seg2[:len(seg2) - len(pi)])
    return trs


def reference_rho(s: BlockSummaries, u1, u2, u3):
    """rho off the pi segments of both runs: the walk's checks, then
    pi_0 .. pi_(j-1) for the first j with tr(C_j) non-empty."""
    i, words = s._prefix(u1, u2)
    ends, cross, visits, cuts = s._resumed(words, u3)[:4]
    if u2 and (cross[i + 1] != cross[i] or not s._stable(u2, cross[i])):
        raise NotIdempotent(str(u2))
    if not ends:
        raise NotInPrefDomain("run does not reach the right end")
    outs = [v[5] for v in visits]
    if not u2:
        return _pieces(outs, [])[0]
    two = s._block(u2 + u2, False)
    outs2 = [two[v[1], v[2]][2] if v[0] == i else v[5] for v in visits]
    pis, segs2 = _pieces(outs, cuts), _pieces(outs2, cuts)
    out = list(pis[0])
    for tr, pi in zip(_loop_outputs(pis, segs2), pis[1:]):
        if tr:
            break
        out.extend(pi)
    return tuple(out)


def _outcome(fn, *args):
    """The value, or the exception type and message."""
    try:
        return fn(*args)
    except (NotIdempotent, NotInPrefDomain, RuntimeError) as e:
        return type(e), str(e)


def _random_machines():
    for s in range(400):
        t = random_two_way(random.Random(s), "ab", 2 + s % 3)
        yield t
        yield dataclasses.replace(t, marked=True)


def _search_triples(t, bounds):
    """The machine a search walks and the triples it may ask rho for."""
    space = _make_space(t)
    return space.machine, [(u1, u2, u3)
                           for _, pairs in space.groups(bounds)
                           for u1, u2 in pairs
                           for u3 in space.thirds(u1, u2, bounds)]


def test_rho_matches_two_run_reference():
    words = list(words_up_to("ab", 2))
    corpus = [(t, list(itertools.product(words, repeat=3)))
              for t in _random_machines()]
    corpus += [_search_triples(make(), SearchBounds()) for make in FIXTURES]
    seen = Counter()
    for t, triples in corpus:
        # one instance for both, as the reference reads no tr table
        shared = BlockSummaries(t)
        for triple in triples:
            want = _outcome(reference_rho, shared, *triple)
            assert _outcome(shared.rho, *triple) == want, (t, triple)
            raised = len(want) == 2 and isinstance(want[0], type)
            seen[want[0].__name__ if raised else "value"] += 1
    print(sorted(seen.items()))
    assert seen["value"] > 50_000
    assert seen["NotIdempotent"] and seen["NotInPrefDomain"]
    assert not seen["RuntimeError"]


def test_prefix_emitting_cut_fixes_rho():
    bounds = SearchBounds(3, 3, 3)
    pairs = Counter()
    entries = 0
    for t in [make() for make in FIXTURES] + list(_random_machines()):
        space = _make_space(t)
        summaries = BlockSummaries(space.machine)
        for _, group in space.groups(bounds):
            for u1, u2 in group:
                # a pair ruled out this way has no values (see
                # test_witness_prune_reference)
                if not summaries.loop_possible(u1, u2):
                    continue
                values = []
                for u3 in space.thirds(u1, u2, bounds):
                    try:
                        values.append(summaries.rho(u1, u2, u3))
                    except (NotIdempotent, NotInPrefDomain):
                        continue
                if not values:
                    continue
                fixed = summaries.rho_fixed(u1, u2)
                pairs[fixed] += 1
                if fixed:
                    entries += len(values)
                    assert len(set(values)) == 1, (t, u1, u2)
    print(pairs, entries)
    # both kinds of pair occur, and fixed pairs have many entries
    assert pairs[True] > 10_000 and pairs[False] > 1_000
    assert entries > 100_000


def _count_rho(monkeypatch):
    calls = []
    rho = BlockSummaries.rho

    def counted(self, *triple):
        calls.append(triple)
        return rho(self, *triple)

    monkeypatch.setattr(continuity_regular.BlockSummaries, "rho", counted)
    return calls


@pytest.mark.parametrize("variant", ["cont", "ucont"])
def test_t_c_2way_rho_calls(monkeypatch, variant):
    calls = _count_rho(monkeypatch)
    assert isinstance(search_witness(prefix_doubler_2way(), variant),
                      NoWitnessUpTo)
    # 144 when every u3 of every pair is walked
    assert 0 < len(calls) <= 48


def test_j_ucont_rho_calls(monkeypatch):
    calls = _count_rho(monkeypatch)
    assert isinstance(search_witness(stem_doubler(), "ucont"), NotContinuous)
    # 322 when every u3 of every pair is walked
    assert 0 < len(calls) <= 56


class _EarlyAsk(BlockSummaries):
    """A search that asks rho_fixed of each live pair before any of its
    u3s has a value."""

    def loop_possible(self, u1, u2):
        if not super().loop_possible(u1, u2):
            return False
        self.rho_fixed(u1, u2)
        return True


def test_asking_before_a_value_fails(monkeypatch):
    bounds = SearchBounds(2, 2, 2)
    machines = list(_random_machines())
    results = [repr(search_witness(t, "ucont", bounds)) for t in machines]
    monkeypatch.setattr(continuity_regular, "BlockSummaries", _EarlyAsk)
    failed = 0
    for t, want in zip(machines, results):
        try:
            assert repr(search_witness(t, "ucont", bounds)) == want
        except RuntimeError as e:
            assert "no common suffix" in str(e)
            failed += 1
    assert failed

"""search_witness answers "cont" on a plain two-way machine by the
theorem that such a machine is continuous, without a search.  This
file keeps the search it replaced as a reference, and checks on a
fixed corpus of random plain machines that the search never found a
witness and that the brute-force oracle confirms no bad pair.

The reference is the former plain "cont" route of search_witness and
_verify, kept verbatim, on a _PlainSpace that keeps the former
limit_in_domain.  The corpus is seeds 0..399 of random_two_way over
"ab" with 2 + seed % 3 states, kept when some domain word exists: 197
machines, fixed before the first run.  At (3, 3, 3) the reference
meets 12 025 (u1, u2) groups whose limit lies in the domain, on every
machine of the corpus, and the rho values of each group form a prefix
chain, so no pair reaches verification.  Seeds 659 and 980 (4 states
each) are added to the oracle check: brute_force_check reports a
"cont" pair on both, from images whose agreement with the limit grows
more slowly than its samples show, and recheck_bad_pair rejects both,
so the gate is a pair that recheck_bad_pair confirms.
"""

import itertools
import random
from typing import Dict

import pytest

from omegacont.continuity_regular import (NoWitnessUpTo, NotContinuous,
                                          RegularWitness, SearchBounds,
                                          _PlainSpace, search_witness)
from omegacont.loops import BlockSummaries, NotIdempotent, NotInPrefDomain
from omegacont.oracle import BadPairFound, brute_force_check, recheck_bad_pair
from omegacont.twoway import DomainOracle, Output, eval_up_2way, run_finite
from omegacont.words import Word, mismatch, up_word
from test_loops import random_two_way


class RefPlainSpace(_PlainSpace):
    def limit_in_domain(self, u1: Word, u2: Word) -> bool:
        return isinstance(eval_up_2way(self.machine, up_word(u1, u2)),
                          Output)


def ref_verify(space, w: RegularWitness, n: int, pref,
               summaries: BlockSummaries) -> bool:
    m = space.machine
    if space.project(w.u1) != space.project(w.u1p):
        return False
    if space.project(w.u2) != space.project(w.u2p):
        return False
    triples = ((w.u1, w.u2, w.u3), (w.u1p, w.u2p, w.u3p))
    rhos = []
    for (a, b, c) in triples:
        if not b:
            return False
        try:
            # rho raises NotIdempotent unless b is idempotent in context
            rhos.append(summaries.rho(a, b, c))
        except (NotIdempotent, NotInPrefDomain):
            return False
        if not pref(a + b + c):
            return False
    i = w.mismatch_position
    if i >= len(rhos[0]) or i >= len(rhos[1]) or rhos[0][i] == rhos[1][i]:
        return False
    if w.variant == "cont" and not space.limit_in_domain(w.u1, w.u2):
        return False
    # the mismatch persists through pumping
    for k in range(1, n + 1):
        outs = []
        for (a, b, c) in triples:
            run = run_finite(m, a + b * k + c)
            if run.exit != "right_end" or i >= len(run.output):
                return False
            outs.append(run.output[i])
        if outs[0] == outs[1]:
            return False
    return True


def ref_search_cont(t, bounds: SearchBounds = SearchBounds(),
                    state_cap: int = 12, ext_bound: int = 4):
    variant = "cont"
    space = RefPlainSpace(t, state_cap, ext_bound)
    summaries = BlockSummaries(space.machine)
    pref_cache: Dict[Word, bool] = {}

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
            if ref_verify(space, w, bounds.verify_n, pref, summaries):
                return NotContinuous(w, space.pref_exact)
    return NoWitnessUpTo(bounds, space.pref_exact)


def draw(seed):
    return random_two_way(random.Random(seed), "ab", 2 + seed % 3)


@pytest.fixture(scope="module")
def corpus():
    machines = [draw(s) for s in range(400)]
    return [t for t in machines if DomainOracle(t).pref_member(())]


def test_corpus_size(corpus):
    assert len(corpus) == 197


def test_reference_finds_no_cont_witness(corpus):
    bounds = SearchBounds(3, 3, 3)
    for t in corpus:
        got = ref_search_cont(t, bounds)
        assert isinstance(got, NoWitnessUpTo), t
        # the theorem answers as the search did, pref_exact included
        assert search_witness(t, "cont", bounds) == got


def test_oracle_confirms_no_cont_pair(corpus):
    for t in corpus[:120] + [draw(659), draw(980)]:
        got = brute_force_check(t, "cont", 2)
        if isinstance(got, BadPairFound):
            assert not recheck_bad_pair(t, got.pair), (t, got)

"""Bounded witness search for non-continuity of regular functions
given as two-way transducers (with or without prophetic look-ahead).

A witness is a pair of triples (u1, u2, u3), (u1', u2', u3') whose u1
and u2 parts have the same input projection, whose middles are
idempotent loops in context, and whose iteration-stable output prefixes
rho(u1, u2, u3) and rho(u1', u2', u3') disagree at some position: the
input families u1 u2^n u3 ... and u1' u2'^n u3' ... then converge to a
common limit while the outputs stay apart.  The continuity variant
additionally requires the limit itself to be in the domain.  A returned
witness proves non-(uniform-)continuity; exhausting the bounds proves
nothing.  The one exception is "cont" on a plain machine, which is
settled by a theorem rather than searched: a deterministic two-way
machine without look-ahead is continuous (see search_witness).

Machines with look-ahead are searched after look-ahead elimination, so
the words carry look-ahead annotations and "same projection" is a real
constraint; for plain machines the projection is the identity and only
the u3 parts can differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from .lookahead import NoState, good_annotation
from .loops import BlockSummaries, NotIdempotent, NotInPrefDomain
from .twoway import (ENDMARKER, DomainOracle, Output, TwoWayPLA,
                     TwoWayTransducer, eval_up_2way, run_finite,
                     sampled_extensions)
from .words import UPWord, Word, mismatch, up_word, words_up_to


@dataclass(frozen=True)
class SearchBounds:
    max_len_u1: int = 3
    max_len_u2: int = 3
    max_len_u3: int = 3
    verify_n: int = 4

    def __post_init__(self):
        if min(self.max_len_u1, self.max_len_u2, self.max_len_u3,
               self.verify_n) < 1:
            raise ValueError("all bounds must be at least 1")


@dataclass(frozen=True)
class RegularWitness:
    """Two triples with equal input projections on the u1 and u2 parts
    whose stable output prefixes disagree at mismatch_position.  For
    machines with look-ahead the symbols are (letter, class) pairs and
    u1 starts with the annotated endmarker."""
    u1: Word
    u2: Word
    u3: Word
    u1p: Word
    u2p: Word
    u3p: Word
    mismatch_position: int
    variant: str  # "cont" or "ucont"


@dataclass(frozen=True)
class NotContinuous:
    witness: RegularWitness
    pref_exact: bool


@dataclass(frozen=True)
class NoWitnessUpTo:
    bounds: SearchBounds
    pref_exact: bool


def alphabet_automorphisms(t: TwoWayTransducer) -> List[Dict]:
    """Input-alphabet permutations that leave the transition table
    unchanged when applied to both read and written symbols."""
    letters = sorted(t.alphabet)
    identity = {a: a for a in letters}
    if len(letters) > 6:
        return [identity]
    found = []
    for image in itertools.permutations(letters):
        m = dict(zip(letters, image))
        # m is one-to-one on symbols, so every entry moved onto an
        # equal entry means the moved table is the table
        if all(t.delta.get((q, m.get(a, a)))
               == (r, tuple(m.get(c, c) for c in g), d)
               for (q, a), (r, g, d) in t.delta.items()):
            found.append(m)
    return found


def _apply(m: Dict, w: Word) -> Word:
    return tuple(m.get(s, s) for s in w)


class _PlainSpace:
    """Candidate enumeration for a machine without look-ahead.  Words
    are plain, the projection is the identity, and (u1, u2) pairs are
    quotiented by alphabet automorphisms: any witness maps to a witness
    under an automorphism, so searching one representative per orbit
    loses nothing.  The automorphisms are found when groups first needs
    them, and groups generates the pairs one total length at a time, so
    a search that stops early builds no longer pair."""

    def __init__(self, t: TwoWayTransducer, state_cap: int = 12,
                 ext_bound: int = 4):
        self.machine = t
        self.oracle = DomainOracle(t, state_cap=state_cap,
                                   ext_bound=ext_bound)
        self.pref_exact = self.oracle.exact
        self.letters = sorted(t.alphabet)

    @cached_property
    def autos(self) -> List[Dict]:
        return alphabet_automorphisms(self.machine)

    def project(self, w: Word) -> Word:
        return tuple(w)

    def pref_member(self, w: Word) -> bool:
        return self.oracle.pref_member(w)

    def groups(self, bounds: SearchBounds):
        # (u1, u2) is kept when no automorphism maps it below itself:
        # none maps u1 below u1, and none of u1's stabiliser maps u2
        # below u2.  Bit i of a word's masks stands for autos[i]: the
        # ones mapping it below itself, and the ones fixing it.
        masks: Dict[Word, Tuple[int, int]] = {}

        def below_fixing(w: Word) -> Tuple[int, int]:
            if w not in masks:
                below = fixing = 0
                for i, m in enumerate(self.autos):
                    v = _apply(m, w)
                    if v < w:
                        below |= 1 << i
                    elif v == w:
                        fixing |= 1 << i
                masks[w] = (below, fixing)
            return masks[w]

        # automorphisms keep lengths, so this is the order of
        # (len(u1) + len(u2), u1, u2): sorted u1, and the u2 of one
        # length in product order
        firsts = sorted(words_up_to(self.letters, 0, bounds.max_len_u1))
        for total in range(1, bounds.max_len_u1 + bounds.max_len_u2 + 1):
            for u1 in firsts:
                k = total - len(u1)
                if not 1 <= k <= bounds.max_len_u2:
                    continue
                below, fixing = below_fixing(u1)
                if below:
                    continue
                for u2 in words_up_to(self.letters, k, k):
                    if not below_fixing(u2)[0] & fixing:
                        yield (u1, u2), [(u1, u2)]

    def thirds(self, u1: Word, u2: Word, bounds: SearchBounds):
        return list(words_up_to(self.letters, 0, bounds.max_len_u3))


class _AnnotatedSpace:
    """Candidate enumeration for a machine with prophetic look-ahead,
    running on the eliminated machine over (letter, class) symbols.
    Only annotation chains consistent with the look-ahead's transitions
    are generated; u2 must additionally be able to follow itself.  The
    symbols that may follow a symbol, the chains of each length after a
    symbol, the u3 parts after a u2 and the domain answer for a limit
    are each found once per space."""

    def __init__(self, t: TwoWayPLA, ext_bound: int = 4):
        self.original = t
        self.machine = t.eliminated
        self.p_aut = t.lookahead.automaton
        self.letters = sorted(t.alphabet)
        self.ext_bound = ext_bound
        # Pref(dom) goes through bounded ultimately-periodic extensions
        # of the projected word: sound for yes-answers only.
        self.pref_exact = False
        self._next: Dict = {}
        self._afters: Dict = {}
        self._thirds: Dict = {}
        self._limits: Dict[UPWord, bool] = {}

    def project(self, w: Word) -> Word:
        return tuple(a for (a, _) in w)

    def _next_symbols(self, last) -> List:
        if last not in self._next:
            a, p = last
            out = []
            for p2 in sorted(self.p_aut.successors(p, a)):
                for b in self.letters:
                    if self.p_aut.successors(p2, b):
                        out.append((b, p2))
            out.sort()
            self._next[last] = out
        return self._next[last]

    def _after(self, last, k: int) -> List[Word]:
        """The annotation chains of length k that may follow the symbol
        last, each length built once from the one below."""
        key = (last, k)
        if key not in self._afters:
            self._afters[key] = [()] if k == 0 else [
                w + (s,) for w in self._after(last, k - 1)
                for s in self._next_symbols(w[-1] if w else last)]
        return self._afters[key]

    def pref_member(self, w: Word) -> bool:
        for x, _ in sampled_extensions(self.original, self.project(w)[1:],
                                       self.ext_bound):
            marked = up_word((ENDMARKER,) + x.prefix, x.period)
            try:
                ann = good_annotation(self.p_aut, marked)
            except NoState:
                continue
            if all(ann[i] == w[i] for i in range(len(w))):
                return True
        return False

    def limit_in_domain(self, u1: Word, u2: Word) -> bool:
        x = up_word(self.project(u1)[1:], self.project(u2))
        if x not in self._limits:
            self._limits[x] = isinstance(eval_up_2way(self.original, x),
                                         Output)
        return self._limits[x]

    def groups(self, bounds: SearchBounds):
        # one total length at a time, as for a plain machine, so a
        # search that stops early builds no longer pair
        starts = [(ENDMARKER, p) for p in sorted(self.p_aut.states)
                  if self.p_aut.successors(p, ENDMARKER)]
        firsts = [(s,) + w for k in range(bounds.max_len_u1)
                  for s in starts for w in self._after(s, k)]
        for total in range(2, bounds.max_len_u1 + bounds.max_len_u2 + 1):
            grouped: Dict[Tuple[Word, Word], List] = {}
            for u1 in firsts:
                k = total - len(u1)
                if not 1 <= k <= bounds.max_len_u2:
                    continue
                for u2 in self._after(u1[-1], k):
                    if u2[0] not in self._next_symbols(u2[-1]):
                        continue
                    key = (self.project(u1), self.project(u2))
                    grouped.setdefault(key, []).append((u1, u2))
            for key in sorted(grouped):
                yield key, sorted(grouped[key])

    def thirds(self, u1: Word, u2: Word, bounds: SearchBounds):
        key = (u2[-1], bounds.max_len_u3)
        if key not in self._thirds:
            self._thirds[key] = [w for k in range(bounds.max_len_u3 + 1)
                                 for w in self._after(u2[-1], k)]
        return self._thirds[key]


def _make_space(t, state_cap: int = 12, ext_bound: int = 4):
    if isinstance(t, TwoWayPLA):
        return _AnnotatedSpace(t, ext_bound)
    return _PlainSpace(t, state_cap, ext_bound)


def _verify(space, w: RegularWitness, n: int, pref,
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
    # a plain machine has no "cont" witness (see search_witness)
    if w.variant == "cont" and (isinstance(space, _PlainSpace)
                                or not space.limit_in_domain(w.u1, w.u2)):
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


def verify_witness(t, w: RegularWitness, n: int = 4,
                   state_cap: int = 12, ext_bound: int = 4) -> bool:
    """Recheck every witness condition and that the output mismatch
    persists at the witness position for 1..n copies of the loops.  A
    "cont" witness on a plain machine is False: there is none (see
    search_witness)."""
    space = _make_space(t, state_cap, ext_bound)
    return _verify(space, w, n, space.pref_member,
                   BlockSummaries(space.machine))


def _entries(summaries: BlockSummaries, u1: Word, u2: Word, thirds):
    """The entries (u1, u2, u3, rho) of the u3s taken from the iterator
    thirds on which rho returns."""
    for u3 in thirds:
        try:
            r = summaries.rho(u1, u2, u3)
        except (NotIdempotent, NotInPrefDomain):
            continue
        yield u1, u2, u3, r


def search_witness(t, variant: str, bounds: SearchBounds = SearchBounds(),
                   state_cap: int = 12, ext_bound: int = 4):
    """Enumerate candidate triples within the length bounds and return
    the first verified witness, or NoWitnessUpTo(bounds).

    The enumeration is deterministic: candidate (u1, u2) pairs grouped
    by projection and ordered by total length then lexicographically,
    u3 parts likewise within each group.  A (u1, u2) pair is ruled out
    once, from its prefix walk, when BlockSummaries.loop_possible shows
    that rho raises on every u3, and a group with no pair left is
    skipped before its limit is evaluated; those u3s would give no
    entry.  A group whose distinct rho values form a prefix chain is
    skipped: no pair of its entries mismatches.  To collect those
    values, a pair whose rho BlockSummaries.rho_fixed shows to be one
    value over all its u3s is walked only up to its first u3 with a
    value; only when the chain test fails are the rest of its u3s
    walked, resuming where it stopped, so each triple gets at most one
    rho call.  Proof that the values are the same: rho is the output
    of the walk up to its first crossing visit of u2 with a non-empty
    tr, and a resumed walk only appends visits and cuts to the prefix
    walk, so when that crossing lies in the prefix walk it is the same
    one, with the same output before it, for every u3 (see rho_fixed;
    it is asked only once some u3 has a value, as before that a cut
    may lack its tr).  None of these rules changes the entries, their
    order or the first witness.
    A plain machine's pairs are generated one total length at a time,
    so the search builds no pair longer than the one its witness is
    found in.  One BlockSummaries serves every rho of the search and
    its checks; a look-ahead machine's period states come from its
    automaton's table (see good_annotation).

    "cont" on a plain TwoWayTransducer (marked or not) is not searched:
    it returns NoWitnessUpTo at once, with the pref_exact of the oracle
    the search would have used, because such a machine computes a
    continuous function.  Proof.  Let f be the machine's function, x in
    dom f and k >= 0.  The run on x is accepting, so its output is
    infinite and it has written f(x)[:k] by some finite step T.  Up to
    T the head has visited finitely many cells, all below some n.  The
    machine is deterministic and reads nothing but the tape, so the run
    on any x' in dom f that agrees with x below cell n makes the same
    steps up to T and writes the same f(x')[:k] = f(x)[:k].  That is
    continuity at x.  Hence no witness can be verified: its two
    families u1 u2^m u3 ... and u1 u2^m u3' ... (the projection is the
    identity, so u1 = u1' and u2 = u2') converge to u1 u2^omega, which
    the "cont" variant requires to lie in dom f, while their images
    keep distinct symbols at one fixed position; continuity at the
    limit makes both agree with its image there once m is large.  The
    argument takes no bound.  It says nothing about uniform
    continuity, and nothing about a look-ahead machine, whose
    annotation depends on the whole future; both keep the search.
    """
    if variant not in ("cont", "ucont"):
        raise ValueError(f"unknown variant {variant!r}")
    space = _make_space(t, state_cap, ext_bound)
    if variant == "cont" and isinstance(space, _PlainSpace):
        return NoWitnessUpTo(bounds, space.pref_exact)
    summaries = BlockSummaries(space.machine)
    pref_cache: Dict[Word, bool] = {}

    def pref(w):
        if w not in pref_cache:
            pref_cache[w] = space.pref_member(w)
        return pref_cache[w]

    for _, pairs in space.groups(bounds):
        # each pair's prefix walk is made just before its u3s resume it
        live = (p for p in pairs if summaries.loop_possible(*p))
        first = next(live, None)
        if first is None or (variant == "cont"
                             and not space.limit_in_domain(*first)):
            continue
        # a pair whose prefix walk fixes rho stops at its first entry
        # until the chain test fails: the rest add no value
        walked = []
        for (u1, u2) in itertools.chain([first], live):
            rest = iter(space.thirds(u1, u2, bounds))
            found = list(itertools.islice(_entries(summaries, u1, u2, rest),
                                          1))
            if found and not summaries.rho_fixed(u1, u2):
                found += _entries(summaries, u1, u2, rest)
            walked.append((u1, u2, found, rest))
        chain = sorted({e[3] for w in walked for e in w[2]}, key=len)
        if all(a == b[:len(a)] for a, b in zip(chain, chain[1:])):
            continue
        entries = []
        for u1, u2, found, rest in walked:
            entries += found
            entries += _entries(summaries, u1, u2, rest)
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

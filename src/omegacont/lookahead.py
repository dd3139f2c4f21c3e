"""Annotation of words with prophetic look-ahead states and
elimination of the look-ahead from two-way transducers.

An annotated word carries at each position the unique look-ahead state
accepting the suffix from that position.  The eliminated machine runs
on annotated words directly (marked tape): each simulated step probes
one cell to the right to check the annotation is consistent with the
look-ahead's transitions, returns, and only then fires the underlying
transition.  Inconsistent annotations block; acceptance requires
annotation states from the look-ahead's final set to be read
infinitely often.
"""

from __future__ import annotations

from .buchi import BuchiAutomaton
from .twoway import TwoWayPLA, TwoWayTransducer
from .words import UPWord


class NoState(Exception):
    """No look-ahead state accepts the given suffix."""


class MultipleStates(Exception):
    """More than one look-ahead state accepts the given suffix."""


def good_annotation(p: BuchiAutomaton, x: UPWord) -> UPWord:
    """Annotate each position of x with the unique state of p accepting
    the suffix from that position.

    x is the full (endmarked, if applicable) word; the result has the
    same prefix/period shape with (symbol, state) pairs.  A state
    accepts a y exactly when one of its a-successors accepts y, so once
    the states accepting the suffix after the period's last letter (the
    period again) are known, each position's states are the
    predecessors of the next position's, found backwards.  The states
    accepting the period depend on the period alone, so they come from
    p's table (BuchiAutomaton.period_states).  NoState or
    MultipleStates names the first position without exactly one state.

    NoState means x is outside the domain.  MultipleStates cannot occur
    on the look-ahead of a TwoWayPLA.  Proof: states q != q' that both
    fit position i each have an accepting run on the suffix from i, and
    the two runs differ in their first state.  So that suffix is a word
    with two distinct accepting runs, and buchi._ambiguous_word, which
    TwoWayPLA runs when it is built, finds such a word whenever one
    exists: its self-product starts from every pair of states, and a
    word with two distinct accepting runs is exactly an accepting run
    of that product whose difference flag is set.  It ranges over all
    words, not only those of the shape ^?x, so suffixes with an inner
    endmarker are covered too.  MultipleStates is still raised for an
    automaton passed on its own.
    """
    pre, per = x.prefix, x.period

    def suffix(i: int) -> UPWord:
        return UPWord(pre[i:], per) if i < len(pre) else \
            UPWord(per[i - len(pre):], per)

    after = p.period_states(per)
    fitting = []
    for a in reversed(pre + per):
        if not after:
            # no state fits the next position, so none fits any before
            # it: the first position without one is 0
            raise NoState(str(suffix(0)))
        after = {q for q in p.states
                 if not p.successors(q, a).isdisjoint(after)}
        fitting.append(after)
    ann = []
    for i, states in enumerate(reversed(fitting)):
        if not states:
            raise NoState(str(suffix(i)))
        if len(states) > 1:
            raise MultipleStates(f"{suffix(i)}: {sorted(map(str, states))}")
        ann.append((x[i], *states))
    return UPWord(tuple(ann[:len(pre)]), tuple(ann[len(pre):]))


def eliminate_lookahead(t: TwoWayPLA) -> TwoWayTransducer:
    """Two-way Buchi transducer over annotated symbols equivalent to t
    on well-annotated inputs.

    States: the original ones, probe states ("probe", r, a, p) moving
    right to inspect the next annotation, and armed states
    ("go", r, a, p) back at the original cell ready to fire.  The probe
    blocks unless the next annotation state is a look-ahead successor
    of the current one.  Final states are the armed ones whose
    annotation state is look-ahead final.
    """
    p_aut = t.lookahead.automaton
    # The machine may traverse any (symbol, state) pair appearing in a
    # consistent annotation, not only the consulted ones.
    tape_syms = {(a, p) for a in (set(t.alphabet) | {s for (_, s, _) in
                                                     p_aut.transitions})
                 for p in p_aut.states}
    tape_syms = {(a, p) for (a, p) in tape_syms
                 if a in t.alphabet or a == "^"}

    states = set(t.states)
    delta = {}
    final = set()

    probe = lambda r, a, p: ("probe", r, a, p)
    armed = lambda r, a, p: ("go", r, a, p)

    # states and tape symbols in repr order, so delta is built in an
    # order that does not depend on string hashing; the tape symbols
    # that may follow each one are found with one successors lookup
    originals = sorted(t.states, key=repr)
    order = sorted(tape_syms, key=repr)
    follow = {}
    for (a, p) in order:
        succ = p_aut.successors(p, a)
        follow[a, p] = [(b, p2) for (b, p2) in order if p2 in succ]

    for r in originals:
        for (a, p) in order:
            delta[(r, (a, p))] = (probe(r, a, p), (), 1)
            states.add(probe(r, a, p))

    for r in originals:
        for (a, p) in order:
            pr = probe(r, a, p)
            ar = armed(r, a, p)
            states.add(ar)
            if p in p_aut.final:
                final.add(ar)
            for nxt in follow[a, p]:
                delta[(pr, nxt)] = (ar, (), -1)

    for (q, a, p), (r, g, d) in t.delta.items():
        delta[(armed(q, a, p), (a, p))] = (r, g, d)

    return TwoWayTransducer(frozenset(tape_syms),
                            frozenset(t.output_alphabet),
                            frozenset(states), delta, t.initial,
                            frozenset(final), marked=True)

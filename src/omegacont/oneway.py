"""One-way Buchi transducers: evaluation, functionality, continuity.

A transducer transition is (state, input symbol, target, output word).
The realized function maps each accepted omega-word to the output of
its accepting run; the transducers handled here are assumed functional
(checkable with functionality_check).

Continuity and uniform continuity are decided by searching for the
structural bad pattern: two runs on a common prefix u followed by
synchronized loops on v whose outputs already disagree (or are forced
to disagree by a tail w on the second run).  The paired runs are
searched breadth-first, and the search stops at the first pair that
shows the pattern.  Output comparison along the paired runs tracks the
leader's pending output, clamped at a delay bound; a clamped
(overflowed) comparison is treated as unknown rather than as a
mismatch, so the search stays sound.

Every one-way question (evaluation, functionality, continuity and the
safe prefix of a stream) reads only the runs that emit forever, the
runs that define f, through one normal form per machine: emitting_runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Hashable, Optional, Tuple

from .buchi import (BuchiAutomaton, bfs_path, explore, find_lasso,
                    lasso_word, live_nodes)
from .buchi import trim as buchi_trim
from .words import UPWord, Word, as_word, mismatch, up_word

State = Hashable


class EpsilonLoopOutput(Exception):
    """The only accepting runs produce a finite output."""


@dataclass(frozen=True)
class Transducer:
    alphabet: FrozenSet
    output_alphabet: FrozenSet
    states: FrozenSet[State]
    transitions: FrozenSet[Tuple[State, object, State, Word]]
    initial: FrozenSet[State]
    final: FrozenSet[State]

    def __post_init__(self):
        for (q, a, r, g) in self.transitions:
            if q not in self.states or r not in self.states:
                raise ValueError(f"transition uses unknown state: {(q, a, r, g)}")
            if a not in self.alphabet:
                raise ValueError(f"unknown input symbol in {(q, a, r, g)}")
            if not isinstance(g, tuple):
                raise ValueError(f"output must be a symbol tuple in {(q, a, r, g)}")
            if any(c not in self.output_alphabet for c in g):
                raise ValueError(f"unknown output symbol in {(q, a, r, g)}")
        if not self.initial <= self.states or not self.final <= self.states:
            raise ValueError("initial/final states must be states")

    @cached_property
    def _index(self):
        # One pass over the transitions in a fixed order, so searches
        # and their witnesses do not depend on string hashing.
        out, arcs = {}, {}
        for (q, a, r, g) in sorted(self.transitions, key=repr):
            out.setdefault(q, []).append((a, r, g))
            arcs.setdefault((q, a), []).append((r, g))
        return ({q: tuple(v) for q, v in out.items()},
                {k: tuple(v) for k, v in arcs.items()})

    def out_arcs(self, q: State) -> Tuple[Tuple[object, State, Word], ...]:
        """Outgoing (symbol, target, output) triples of q, in transition
        order."""
        return self._index[0].get(q, ())

    def arcs(self, q: State, a) -> Tuple[Tuple[State, Word], ...]:
        return self._index[1].get((q, a), ())

    @cached_property
    def _trimmed(self) -> "Transducer":
        # immutable, so a stream and every search share one trim
        keep = buchi_trim(domain_automaton(self)).states
        if keep == self.states:
            return self  # already trim: reuse the transition index
        return Transducer(
            self.alphabet, self.output_alphabet, frozenset(keep),
            frozenset(tr for tr in self.transitions
                      if tr[0] in keep and tr[2] in keep),
            self.initial & keep, self.final & keep)

    @cached_property
    def _emitting(self) -> "Transducer":
        # see emitting_runs
        t = self._trimmed
        if not silent_accepting_cycle(t):
            return t
        trans = {((q, ph), a, (r, (ph + bool((q in t.final, g)[ph])) % 2), g)
                 for (q, a, r, g) in t.transitions for ph in (0, 1)}
        return Transducer(
            t.alphabet, t.output_alphabet,
            frozenset((q, ph) for q in t.states for ph in (0, 1)),
            frozenset(trans), frozenset((q, 0) for q in t.initial),
            frozenset((q, 0) for q in t.final))._trimmed

    @property
    def max_output_len(self) -> int:
        return max((len(g) for (_, _, _, g) in self.transitions), default=0)


def _sorted(states):
    """States in a fixed order, independent of string hashing."""
    return sorted(states, key=repr)


def transducer(alphabet, output_alphabet, states, transitions,
               initial, final) -> Transducer:
    """Build a Transducer, coercing output words given as strings."""
    trans = frozenset((q, a, r, as_word(g)) for (q, a, r, g) in transitions)
    return Transducer(frozenset(alphabet), frozenset(output_alphabet),
                      frozenset(states), trans,
                      frozenset(initial), frozenset(final))


def domain_automaton(t: Transducer) -> BuchiAutomaton:
    return BuchiAutomaton(
        t.alphabet, t.states,
        frozenset((q, a, r) for (q, a, r, _) in t.transitions),
        t.initial, t.final)


def trim_transducer(t: Transducer) -> Transducer:
    """t restricted to the states some accepting run visits."""
    return t._trimmed


def emitting_runs(t: Transducer) -> Transducer:
    """A trim machine whose accepting runs are exactly t's accepting
    runs that emit forever, the runs that define f; its domain is dom f.

    It is trim_transducer(t) when t has no silent accepting cycle.
    Otherwise it is the trimmed phase product: phase 0 waits for a
    final state and phase 1 for an emitting arc, and the finals are
    (q, 0) for final q.  Built once per machine."""
    return t._emitting


# ---------------------------------------------------------------------------
# Evaluation on UP words


def eval_up(t: Transducer, x: UPWord) -> Optional[UPWord]:
    """Value of the realized function on x, or None when x is not in
    the domain.  Raises EpsilonLoopOutput when x is accepted but every
    accepting run emits only finitely many symbols.

    The value is the output of any accepting run that emits infinitely
    often, which is well defined only when t is functional.  It is read
    off one lasso of emitting_runs(t); only when that machine rejects x
    and differs from the trimmed one is the trimmed one asked whether
    it accepts x.
    """
    e, tr = emitting_runs(t), trim_transducer(t)
    lasso = _lasso_on(e, x)
    if lasso is None:
        if e is not tr and _lasso_on(tr, x) is not None:
            raise EpsilonLoopOutput(str(x))
        return None
    return up_word(tuple(c for g in lasso.stem_labels for c in g),
                   tuple(c for g in lasso.loop_labels for c in g))


def _lasso_on(t: Transducer, x: UPWord):
    """An accepting lasso of t's runs on x, over (state, position)
    nodes, labelled by the outputs."""
    p, n = len(x.prefix), len(x.prefix) + len(x.period)
    syms = x.prefix + x.period
    nxt = list(range(1, n)) + [p]

    def succ(node):
        q, i = node
        j = nxt[i]
        return [(g, (r, j)) for (r, g) in t.arcs(q, syms[i])]

    # A node inside the prefix (i < p) lies on no cycle, since positions
    # only grow there; testing it first skips its hopeless cycle search
    # and leaves the lasso found unchanged.
    return find_lasso([(q, 0) for q in _sorted(t.initial)], succ,
                      lambda nd: nd[1] >= p and nd[0] in t.final)


# ---------------------------------------------------------------------------
# Paired-run output comparison

MM = ("mm",)   # outputs already disagree at some position
OF = ("of",)   # leader's pending output overflowed the bound: unknown
EQUAL = (1, ())


def delay_bound(t: Transducer) -> int:
    """Pending-output clamp for paired-run searches.  Two runs of a
    functional transducer on a common input stay within this delay."""
    return len(t.states) ** 2 * max(t.max_output_len, 1) + 1


def advance_status(status, g1: Word, g2: Word, bound: int):
    """Update the comparison status after copy 1 emits g1, copy 2 g2.

    (side, p) means the side's total output leads the other's by p.
    Mismatch and overflow are absorbing.
    """
    if status == MM or status == OF:
        return status
    side, p = status
    lead, chase = (p + g1, g2) if side == 1 else (p + g2, g1)
    if mismatch(chase, lead) is not None:
        return MM
    if len(chase) <= len(lead):
        ns = (side, lead[len(chase):])
    else:
        ns = (3 - side, chase[len(lead):])
    if not ns[1]:
        return EQUAL
    return OF if len(ns[1]) > bound else ns


# ---------------------------------------------------------------------------
# Functionality


@dataclass(frozen=True)
class FunctionalityCounterexample:
    word: UPWord
    output1: UPWord
    output2: UPWord


def functionality_check(t: Transducer, bound: Optional[int] = None
                        ) -> Optional[FunctionalityCounterexample]:
    """None if t is functional; otherwise a UP word of dom f with two
    accepting runs that emit infinitely often (the runs eval_up reads)
    and whose outputs differ somewhere or drift more than bound apart.

    A drift alone does not prove two images of omega-words (runs writing
    xx and x per letter agree), so compare output1 with output2.  A
    bound below delay_bound(t) keeps the search small but may report
    more functional machines that way; a None verdict stays trustworthy.

    The runs are pairs of runs of emitting_runs(t), every accepting run
    of which emits forever.  Only pairs of states from which both runs
    can still accept are compared, where a functional machine has one
    pending output per leading side and length; the search stops at the
    first difference or drift.
    """
    if bound is None:
        # the trimmed machine's delay bound holds for its emitting runs
        bound = delay_bound(trim_transducer(t))
    t = emitting_runs(t)
    final = t.final

    def pairs(node):
        # the phase waits in turn for q1 final and q2 final
        q1, q2, ph = node
        nph = (ph + ((q1, q2)[ph] in final)) % 2
        return [((a, g1, g2), (r1, r2, nph)) for (a, r1, g1)
                in t.out_arcs(q1) for (r2, g2) in t.arcs(q2, a)]

    def fair(node):
        return node[2] == 0 and node[0] in final

    ini = _sorted(t.initial)
    live = {n[:2] for n in live_nodes(
        [(p1, p2, 0) for p1 in ini for p2 in ini], pairs, fair)}

    def succ(node):
        q1, q2, status = node
        return [(lab, (r1, r2, advance_status(status, lab[1], lab[2], bound)))
                for (lab, (r1, r2, _)) in pairs((q1, q2, 0))
                if (r1, r2) in live]

    path = bfs_path([(p1, p2, EQUAL) for p1 in ini for p2 in ini
                     if (p1, p2) in live], succ, lambda n: n[2] in (MM, OF))
    if path is None:
        return None
    nodes, labels = path
    lasso = find_lasso([nodes[-1][:2] + (0,)], pairs, fair)
    stem, loop = labels + lasso.stem_labels, lasso.loop_labels
    word = up_word([l[0] for l in stem], [l[0] for l in loop])
    out1, out2 = (up_word([c for l in stem for c in l[i]],
                          [c for l in loop for c in l[i]]) for i in (1, 2))
    return FunctionalityCounterexample(word, out1, out2)


# ---------------------------------------------------------------------------
# Continuity


@dataclass(frozen=True)
class ContinuityWitness:
    """Structural evidence of a discontinuity at limit = u v^omega.

    The perturbed inputs u v^n w z, with z an accepting continuation
    from the second run's end state, converge to the limit while their
    outputs keep disagreeing at mismatch_pos with the output on the
    limit (cont) or on u v^n w1 z1 with z1 accepted past the first
    run's tail w1 (ucont, where the limit may fall outside the domain).
    """
    u: Word
    v: Word
    w: Word
    w1: Word
    out_u1: Word
    out_u2: Word
    out_w1: Word
    out_w2: Word
    continuation: UPWord
    continuation1: UPWord
    limit: UPWord
    mismatch_pos: int


def silent_accepting_cycle(t: Transducer) -> bool:
    """Trimmed machine has a cycle through a final state that emits
    nothing, i.e. an accepted word with a finite image."""
    def silent(q):
        return [(a, r) for (a, r, g) in t.out_arcs(q) if not g]
    return any(bfs_path((f,), silent, lambda q: q == f) is not None
               for f in t.final)


def decide_continuity(t: Transducer, variant: str = "cont"
                      ) -> Optional[ContinuityWitness]:
    """None when the realized function is (uniformly) continuous on its
    domain; otherwise a re-checkable witness.

    variant "cont" requires the limit u v^omega to be in the domain;
    "ucont" does not (uniform continuity also fails at limits outside
    the domain as long as both runs stay alive).

    Paired runs of emitting_runs(t) on a common input are searched
    breadth-first, each node tested for the pattern as it is first
    reached, and the search stops at the first node that shows it, with
    the path to it as u.  As in eval_up, only runs that emit forever
    count.
    """
    if variant not in ("cont", "ucont"):
        raise ValueError(variant)
    # a pair of runs that emit forever is a pair of the trimmed
    # machine's runs, so its delay bound holds for them as well
    bound = delay_bound(trim_transducer(t))
    t = emitting_runs(t)
    if not t.initial:
        return None
    init = [(p1, p2, EQUAL) for p1 in _sorted(t.initial)
            for p2 in _sorted(t.initial)]

    def succ(node):
        # None is a root whose edges lead to the start pairs, so that
        # they are tested too
        if node is None:
            return [(None, n) for n in init]
        q1, q2, status = node
        out = []
        for (a, r1, g1) in t.out_arcs(q1):
            for (r2, g2) in t.arcs(q2, a):
                ns = advance_status(status, g1, g2, bound)
                out.append(((a, g1, g2), (r1, r2, ns)))
        return out

    parts = {}  # the goal is tested on every edge, the pattern once a node
    dead = set()  # tails nodes that reach no mismatch, see _pattern

    def found(node):
        if node not in parts:
            parts[node] = _pattern(t, node, variant, bound, dead)
        return parts[node] is not None

    path = bfs_path([None], succ, found)
    if path is None:
        return None
    nodes, labels = path
    return _build_witness(t, labels[1:], *parts[nodes[-1]])


def _pattern(t, node, variant, bound, dead):
    """The pattern's parts at a paired-run node (q1, q2, status), as
    (v labels, w1 labels, r1, w labels, r2), or None.  dead is the set
    of _pair_mismatching_tails nodes known to reach no mismatch, kept
    for one decide_continuity call."""
    q1, q2, status = node
    need_final = (variant == "cont")
    if status == MM:
        cyc = _pair_cycle(t, q1, q2, need_final)
        return None if cyc is None else (cyc, (), q1, (), q2)
    if status == OF:
        return None
    if status[0] == 1 and status[1]:
        cyc = _pair_cycle(t, q1, q2, need_final, eps2=True)
        if cyc is not None:
            tail = _mismatching_tail(t, q2, status[1])
            if tail is not None:
                return (cyc, (), q1) + tail
    if variant == "ucont":
        # Both loops silent, mismatching tails on both sides.
        cyc = _pair_cycle(t, q1, q2, need_final=False, eps1=True, eps2=True)
        if cyc is not None:
            tails = _pair_mismatching_tails(t, q1, q2, status, bound,
                                            dead)
            if tails is not None:
                return (cyc,) + tails
    return None


def _build_witness(t, u_labels, v_labels, w1_labels, r1, w_labels, r2):
    u = tuple(l[0] for l in u_labels)
    out_u1 = tuple(c for l in u_labels for c in l[1])
    out_u2 = tuple(c for l in u_labels for c in l[2])
    v = tuple(l[0] for l in v_labels)
    w = tuple(l[0] for l in w_labels)
    w1 = tuple(l[0] for l in w1_labels)
    out_w1 = tuple(c for l in w1_labels for c in l[1])
    out_w2 = tuple(c for l in w_labels for c in l[1])
    cont_lasso = _accepting_continuation(t, r2)
    cont1 = _accepting_continuation(t, r1)
    pos = mismatch(out_u1, out_u2)
    if pos is None:
        pos = mismatch(out_u1 + out_w1, out_u2 + out_w2)
    assert pos is not None
    return ContinuityWitness(u, v, w, w1, out_u1, out_u2, out_w1, out_w2,
                             cont_lasso, cont1, up_word(u, v), pos)


def _accepting_continuation(t: Transducer, q) -> UPWord:
    """Input UP word accepted from q (exists by trimness)."""
    def succ(s):
        return [(a, r) for (a, r, _) in t.out_arcs(s)]
    lasso = find_lasso([q], succ, lambda s: s in t.final)
    assert lasso is not None, "state not trim"
    return lasso_word(lasso)


def _pair_cycle(t, q1, q2, need_final, eps1=False, eps2=False):
    """Simultaneous input loop at (q1, q2), as (a, g1, g2) labels.

    With need_final the first copy's loop must pass a final state; with
    eps1/eps2 the corresponding copy must emit nothing along the loop.
    """
    start_flag = (q1 in t.final) if need_final else True
    start = ((q1, q2), start_flag)
    target = ((q1, q2), True)

    def succ(node):
        (s1, s2), flag = node
        out = []
        for (a, r1, g1) in t.out_arcs(s1):
            if eps1 and g1:
                continue
            for (r2, g2) in t.arcs(s2, a):
                if eps2 and g2:
                    continue
                nf = flag or (not need_final) or (r1 in t.final)
                out.append(((a, g1, g2), ((r1, r2), nf)))
        return out

    # Path of length >= 1 from start back to target.
    path = bfs_path((start,), succ, lambda m: m == target)
    return None if path is None else path[1]


def _mismatching_tail(t, q2, pending: Word):
    """Path from q2 whose output mismatches pending within its length.

    Returns ((a, g) labels, end state) or None.  Branches whose output
    consistently covers all of pending can never mismatch and are cut.
    Search nodes are (state, matched length); a mismatching arc leads
    to (state, None).
    """
    def succ(node):
        s, j = node
        out = []
        for (a, r, g) in t.out_arcs(s):
            if mismatch(g, pending[j:]) is not None:
                out.append(((a, g), (r, None)))
            elif j + len(g) < len(pending):
                out.append(((a, g), (r, j + len(g))))
        return out

    path = bfs_path(((q2, 0),), succ, lambda n: n[1] is None)
    if path is None:
        return None
    nodes, labels = path
    return labels, nodes[-1][0]


def _pair_mismatching_tails(t, q1, q2, status, bound, dead):
    """Independent tails w1 from q1 and w2 from q2 whose outputs,
    appended to the pending comparison status, mismatch.

    Returns (w1 labels, r1, w2 labels, r2) with (a, g) labels, or None.
    Interleaves single-side moves; the comparison status only depends
    on the output totals, not the interleaving.

    dead holds the nodes that earlier failed searches reached: none of
    them reaches a mismatch, so they are skipped, and a search that
    fails adds every node it reached.  Everything a dead node reaches is
    dead too, so no node that is not dead was first reached from a dead
    one: skipping them keeps the breadth-first order of the other
    nodes, and the path found is the one the full search finds.
    """
    start = (q1, q2, status)
    if start in dead:
        return None
    reached = []

    def succ(node):
        reached.append(node)
        (s1, s2, st) = node
        moves = [(1, (a, g), (r, s2)) for (a, r, g) in t.out_arcs(s1)]
        moves += [(2, (a, g), (s1, r)) for (a, r, g) in t.out_arcs(s2)]
        out = []
        for side, lab, (n1, n2) in moves:
            g = lab[1]
            st2 = advance_status(st, g if side == 1 else (),
                                 g if side == 2 else (), bound)
            if st2 != OF and (n1, n2, st2) not in dead:
                out.append(((side, lab), (n1, n2, st2)))
        return out

    path = bfs_path((start,), succ, lambda n: n[2] == MM)
    if path is None:
        dead.update(reached)
        return None
    nodes, labels = path
    w1 = tuple(l for (sd, l) in labels if sd == 1)
    w2 = tuple(l for (sd, l) in labels if sd == 2)
    return w1, nodes[-1][0], w2, nodes[-1][1]


# ---------------------------------------------------------------------------
# Prefix consistency for streaming


def safe_prefix_length(t: Transducer, u, w) -> int:
    """Length of the longest prefix of w that is a prefix of f(x) for
    every x in dom f extending input u.

    Decided on emitting_runs(t), where every reachable run extends to
    an accepting one that emits forever.  A run is live at j while its
    output agrees with w on its first j symbols, and settles at j when
    its output first differs from w there.  The answer is the least
    position at which some run settles, or len(w) when none does.  A
    run that settles inside u counts only if it survives u; the tails
    of the live runs are then searched once, never past the least
    position found so far, since a run only settles at or after the
    position it is live at.  A run that covers w needs no cap: it stays
    live past len(w), the answer never exceeds its start value len(w),
    and no node at or past the least settled position is expanded.
    """
    u, w = as_word(u), as_word(w)
    t = emitting_runs(t)

    def advance(j, g):
        # (position, live) once a run live at j emits g
        m = mismatch(g, w[j:j + len(g)])
        return (j + len(g), True) if m is None else (j + m, False)

    cur = {(q, 0, True) for q in t.initial}
    for a in u:
        cur = {(r,) + (advance(j, g) if live else (j, False))
               for (q, j, live) in cur for (r, g) in t.arcs(q, a)}
    best = min((j for (_, j, live) in cur if not live), default=len(w))

    def succ(node):
        nonlocal best
        q, j = node
        out = []
        for (_, r, g) in t.out_arcs(q) if j < best else ():
            j2, live = advance(j, g)
            if live:
                out.append((None, (r, j2)))
            else:
                best = min(best, j2)
        return out

    explore([(q, j) for (q, j, live) in cur if live], succ)
    return best


def universal_prefix_consistent(t: Transducer, u, w) -> bool:
    """Is w a prefix of f(x) for every x in dom f extending input u?"""
    return safe_prefix_length(t, u, w) == len(as_word(w))

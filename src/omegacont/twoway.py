"""Deterministic two-way Buchi transducers, with optional prophetic
look-ahead.

Tape convention: cell 0 holds the left endmarker and cell i+1 the i-th
input symbol; moving left from cell 0 blocks.  Machines produced by
look-ahead elimination instead run directly on annotated words whose
first symbol is the annotated endmarker; those carry marked=True and
get no extra endmarker cell.

A run on an infinite word is accepting when its head positions are
unbounded and a Buchi-final state occurs infinitely often.  For
machines with look-ahead the final states live on the look-ahead side;
evaluation goes through look-ahead elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from .buchi import (BuchiAutomaton, _ambiguous_word, _reachable_part,
                    all_up_words, explore, pref_automaton)
from .oneway import Transducer, domain_automaton, emitting_runs
from .words import UPWord, Word, as_word, up_word

State = Hashable

ENDMARKER = "^"


class StateCapExceeded(Exception):
    """Two-way to one-way conversion stopped: it built more states
    than its budget allows."""


@dataclass(frozen=True)
class TwoWayTransducer:
    alphabet: FrozenSet
    output_alphabet: FrozenSet
    states: FrozenSet[State]
    # (state, tape symbol) -> (state, output word, direction)
    delta: Dict[Tuple[State, object], Tuple[State, Word, int]]
    initial: State
    final: FrozenSet[State]
    marked: bool = False

    def __post_init__(self):
        for (q, a), (r, g, d) in self.delta.items():
            if q not in self.states or r not in self.states:
                raise ValueError(f"unknown state in {(q, a)}")
            if d not in (-1, 1):
                raise ValueError(f"direction must be -1 or +1 in {(q, a)}")
            if not isinstance(g, tuple):
                raise ValueError(f"output must be a symbol tuple in {(q, a)}")
        if self.initial not in self.states or not self.final <= self.states:
            raise ValueError("initial/final states must be states")

    def tape_symbols(self):
        """Symbols that can appear on the tape."""
        if self.marked:
            return set(self.alphabet)
        return set(self.alphabet) | {ENDMARKER}


def two_way(alphabet, output_alphabet, states, delta, initial, final,
            marked=False) -> TwoWayTransducer:
    """Build a TwoWayTransducer from (q, a, q2, out, d) tuples."""
    dd = {}
    for (q, a, r, g, d) in delta:
        if (q, a) in dd:
            raise ValueError(f"nondeterministic at {(q, a)}")
        dd[(q, a)] = (r, as_word(g), d)
    return TwoWayTransducer(frozenset(alphabet), frozenset(output_alphabet),
                            frozenset(states), dd, initial, frozenset(final),
                            marked)


@dataclass(frozen=True)
class PropheticLookAhead:
    automaton: BuchiAutomaton


@dataclass(frozen=True)
class TwoWayPLA:
    """Deterministic two-way transducer consulting a prophetic
    look-ahead: delta keys are (state, tape symbol, look-ahead state).

    Acceptance lives on the look-ahead: a run is accepting when its
    positions are unbounded and look-ahead final states are consulted
    infinitely often (realized through look-ahead elimination).

    The look-ahead must be unambiguous: no word has two accepting
    runs, so no suffix is accepted from two states.  That is checked
    exactly when the machine is built, and a ValueError names a word
    with two runs.  It need not be complete: a suffix accepted from no
    state is outside the domain.
    """
    alphabet: FrozenSet
    output_alphabet: FrozenSet
    states: FrozenSet[State]
    delta: Dict[Tuple[State, object, State], Tuple[State, Word, int]]
    initial: State
    lookahead: PropheticLookAhead

    def __post_init__(self):
        word = _ambiguous_word(self.lookahead.automaton)
        if word is not None:
            raise ValueError(f"look-ahead is not prophetic: {word} has "
                             "two accepting runs")

    @cached_property
    def eliminated(self) -> TwoWayTransducer:
        """The look-ahead eliminated machine (see
        lookahead.eliminate_lookahead), built on first use: the machine
        is immutable, so every evaluation and search shares one."""
        from .lookahead import eliminate_lookahead
        return eliminate_lookahead(self)


def two_way_pla(alphabet, output_alphabet, states, delta, initial,
                lookahead: BuchiAutomaton) -> TwoWayPLA:
    dd = {}
    for (q, a, p, r, g, d) in delta:
        if (q, a, p) in dd:
            raise ValueError(f"nondeterministic at {(q, a, p)}")
        dd[(q, a, p)] = (r, as_word(g), d)
    return TwoWayPLA(frozenset(alphabet), frozenset(output_alphabet),
                     frozenset(states), dd, initial,
                     PropheticLookAhead(lookahead))


# ---------------------------------------------------------------------------
# Finite-tape simulation


@dataclass(frozen=True)
class FiniteRun:
    """Trace of a deterministic run on a finite tape.

    configs[i] = (state, cell) before step i; chunks[i] = output of
    step i.  exit is "right_end" (head moved past the last cell, with
    exit_state), "blocked" (no transition or left move at cell 0), or
    "looped" (exact configuration repeat).
    """
    configs: Tuple[Tuple[State, int], ...]
    chunks: Tuple[Word, ...]
    exit: str
    exit_state: Optional[State]

    @property
    def output(self) -> Word:
        return tuple(c for g in self.chunks for c in g)


def tape_of(t: TwoWayTransducer, w) -> Tuple:
    w = as_word(w)
    return w if t.marked else (ENDMARKER,) + w


def run_finite(t: TwoWayTransducer, w) -> FiniteRun:
    """Simulate t on the (endmarked) finite tape for w."""
    tape = tape_of(t, w)
    state, pos = t.initial, 0
    configs: List[Tuple[State, int]] = []
    chunks: List[Word] = []
    seen = set()
    while True:
        if pos >= len(tape):
            return FiniteRun(tuple(configs), tuple(chunks),
                             "right_end", state)
        cfg = (state, pos)
        if cfg in seen:
            return FiniteRun(tuple(configs), tuple(chunks), "looped", None)
        seen.add(cfg)
        configs.append(cfg)
        tr = t.delta.get((state, tape[pos]))
        if tr is None:
            chunks.append(())
            return FiniteRun(tuple(configs), tuple(chunks), "blocked", None)
        state2, g, d = tr
        if pos == 0 and d == -1:
            chunks.append(())
            return FiniteRun(tuple(configs), tuple(chunks), "blocked", None)
        chunks.append(g)
        state, pos = state2, pos + d


# ---------------------------------------------------------------------------
# Evaluation on UP words


@dataclass(frozen=True)
class NotInDomain:
    reason: str  # trapped | blocked | no-final-infinitely-often | finite-output


@dataclass(frozen=True)
class Output:
    value: UPWord


def eval_up_2way(t, x: UPWord):
    """Output(UPWord) or NotInDomain for the run of t on x.

    For plain machines the tape is the endmarked x.  TwoWayPLA inputs
    are annotated and evaluated through look-ahead elimination.  The
    run is followed until a shift-recurrent pair of configurations is
    found: same state, same offset in x's period, with the whole
    interval staying right of the earlier position.  The deterministic
    run then repeats the interval forever, shifted.
    """
    if isinstance(t, TwoWayPLA):
        from .lookahead import NoState, good_annotation
        marked = up_word((ENDMARKER,) + x.prefix, x.period)
        try:
            ann = good_annotation(t.lookahead.automaton, marked)
        except NoState:
            # the look-ahead rejects the input outright
            return NotInDomain("blocked")
        return eval_up_2way(t.eliminated, ann)

    if t.marked:
        tape = x
    else:
        # Raw constructor: normalizing could shift the period and
        # break the offset alignment used for recurrence detection.
        tape = UPWord((ENDMARKER,) + x.prefix, x.period)
    period_start = len(tape.prefix)
    qn = len(tape.period)

    n = len(t.states)
    max_steps = max(4000, n * n * (period_start + qn + 2) * qn * 16)

    state, pos = t.initial, 0
    positions: List[int] = []
    states: List[State] = []
    chunks: List[Word] = []
    seen_cfg = set()
    events: Dict[Tuple[State, int], List[int]] = {}
    for step in range(max_steps):
        cfg = (state, pos)
        if cfg in seen_cfg:
            return NotInDomain("trapped")
        seen_cfg.add(cfg)
        positions.append(pos)
        states.append(state)
        if pos >= period_start:
            key = (state, (pos - period_start) % qn)
            for t1 in events.get(key, ()):
                p1 = positions[t1]
                if pos > p1 and min(positions[t1:]) >= p1:
                    return _close_periodic(t, states, chunks, t1, step)
            events.setdefault(key, []).append(step)
        tr = t.delta.get((state, tape[pos]))
        if tr is None or (pos == 0 and tr[2] == -1):
            return NotInDomain("blocked")
        state2, g, d = tr
        chunks.append(g)
        state, pos = state2, pos + d
    raise RuntimeError(f"no recurrence within {max_steps} steps")


def _close_periodic(t, states, chunks, t1, t2):
    seg_states = states[t1:t2]
    seg_out = tuple(c for g in chunks[t1:t2] for c in g)
    if not any(s in t.final for s in seg_states):
        return NotInDomain("no-final-infinitely-often")
    if not seg_out:
        return NotInDomain("finite-output")
    head = tuple(c for g in chunks[:t1] for c in g)
    return Output(up_word(head, seg_out))


# ---------------------------------------------------------------------------
# Two-way to one-way conversion (crossing sequences)

_INIT = ("<init>",)


def _cell_step(t: TwoWayTransducer, c_left, a, final_states,
               comeback_states):
    """All crossing sequences at the right boundary of a cell holding a,
    given the sequence c_left at its left boundary.

    Crossing sequences are state tuples; even indices are rightward
    crossings, odd ones leftward.  For c_left, even entries are visits
    entering this cell and odd entries are exits this cell must
    produce; the roles flip for the produced sequence.  c_left = _INIT
    injects the initial state as the only entry and forbids exits to
    the left (used for the leftmost cell).

    Rightward comebacks are guessed; a repeated state in either
    direction would repeat a configuration (the machine is
    deterministic), so those branches are dropped.

    Guessed comebacks must be justified further right, otherwise
    sequences describing a phantom run walking in from infinity would
    be locally consistent.  Each produced odd entry therefore carries a
    link: the c_left odd entry whose required left exit it produced, or
    None when it merely bounced back rightward (a freshly born chain).
    Yields (crossing_sequence, saw_final, links) triples with links a
    dict {produced odd index: c_left odd index or None}.  Comebacks are
    guessed among comeback_states only.
    """
    results = []

    def explore(cur, prov, li, produced, links, saw_final):
        while True:
            saw_final = saw_final or cur in final_states
            tr = t.delta.get((cur, a))
            if tr is None:
                return
            nxt, _, d = tr
            if d == 1:
                if nxt in produced[0::2]:
                    return
                produced = produced + (nxt,)
                if c_left == _INIT or li == len(c_left):
                    results.append((produced, saw_final, dict(links)))
                for guess in comeback_states:
                    if guess in produced[1::2]:
                        continue
                    j = len(produced)
                    explore(guess, j, li, produced + (guess,),
                            {**links, j: None}, saw_final)
                return
            else:
                if c_left == _INIT:
                    return  # left move at the leftmost cell: blocked
                if li >= len(c_left) or c_left[li] != nxt:
                    return
                if prov is not None:
                    # this left exit was fed by comeback guess `prov`:
                    # the chain of c_left[li] continues through it
                    links = {**links, prov: li}
                li += 1
                if li >= len(c_left):
                    return  # run leaves left forever: positions bounded
                cur, prov = c_left[li], None
                li += 1

    if c_left == _INIT:
        explore(t.initial, None, 0, (), {}, False)
    else:
        if not c_left or len(c_left) % 2 == 0:
            return []
        explore(c_left[0], None, 1, (), {}, False)
    return results


def two_way_to_nba(t: TwoWayTransducer,
                   nba_state_cap: int = 100000) -> BuchiAutomaton:
    """One-way Buchi automaton accepting exactly the words on which t
    has an accepting (rightward-diverging, final-infinitely-often) run.

    States are (crossing sequence, tracked chain indices, phase,
    accept) tuples.  Tracked indices follow open comeback chains; when
    the tracked set empties every currently open chain is re-tracked
    (a reset).  The phase bit realizes the conjunction of the two
    infinitary requirements, finals infinitely often and resets
    infinitely often, the accept flag marking its completions.  Raises
    StateCapExceeded on expanding state nba_state_cap + 1, so exactly
    when there are more than nba_state_cap states.
    """
    # a comeback re-enters a cell via some left move taken by a run
    # from the initial state, so only reachable targets of left-moving
    # transitions are worth guessing (reachable ignoring the tape)
    step = {}
    for (q, _), (r, _, _) in t.delta.items():
        step.setdefault(q, set()).add(r)
    reach, _ = explore([t.initial],
                       lambda q: [(None, r) for r in step.get(q, ())])
    comeback = {r for (r, _, d) in t.delta.values()
                if d == -1 and r in reach}

    def advance(tracked, ph, c2, fl, links):
        tracked2 = frozenset(j for j, li in links.items()
                             if li is not None and li in tracked)
        reset = not tracked2
        if reset:
            tracked2 = frozenset(range(1, len(c2), 2))
        if ph == 0:
            return (c2, tracked2, 1 if fl else 0, False)
        return (c2, tracked2, 0 if reset else 1, reset)

    if t.marked:
        init_nodes = [(_INIT, frozenset(), 0, False)]
    else:
        init_nodes = [advance(frozenset(), 0, c, fl, links)
                      for (c, fl, links) in
                      _cell_step(t, _INIT, ENDMARKER, t.final, comeback)]

    expanded = 0

    def succ(node):
        nonlocal expanded
        expanded += 1
        if expanded > nba_state_cap:
            raise StateCapExceeded("crossing construction blew up")
        c, tracked, ph, _ = node
        return [(a, advance(tracked, ph, c2, fl, links)) for a in t.alphabet
                for (c2, fl, links) in _cell_step(t, c, a, t.final, comeback)]

    states, trans = _reachable_part(init_nodes, succ)
    final = frozenset(s for s in states if s[3])
    return BuchiAutomaton(frozenset(t.alphabet), states, trans,
                          frozenset(init_nodes), final)


def domain_nba(t: TwoWayTransducer,
               nba_state_cap: int = 100000) -> BuchiAutomaton:
    """NBA for the domain of t: words with an accepting run whose output
    is infinite (runs with finite output compute no omega-word).

    Built from an acceptor tracking a phase bit: waiting for a final
    state (0), then waiting for an emission (1); completing both marks
    the phase-2 target states, which are the Buchi-final ones.
    """
    states = {(q, ph) for q in t.states for ph in (0, 1, 2)}
    delta = {}
    for (q, a), (r, g, d) in t.delta.items():
        for ph in (0, 1, 2):
            cur = 0 if ph == 2 else ph
            if cur == 0 and q in t.final:
                cur = 1
            nxt = 2 if cur == 1 and g else cur
            delta[((q, ph), a)] = ((r, nxt), (), d)
    acc = TwoWayTransducer(t.alphabet, t.output_alphabet,
                           frozenset(states), delta, (t.initial, 0),
                           frozenset((q, 2) for q in t.states), t.marked)
    return two_way_to_nba(acc, nba_state_cap=nba_state_cap)


def sampled_extensions(machine, w, ext_bound: int):
    """(x, value) for each sampled ultimately periodic extension x of the
    finite word w that lies in the domain of machine, with value its
    image.  The samples are w.y for the UP words y with prefix and
    period of length at most ext_bound, in all_up_words order; running
    out of them proves nothing."""
    w = as_word(w)
    for e in all_up_words(machine.alphabet, ext_bound, ext_bound):
        x = up_word(w + e.prefix, e.period)
        got = eval_up_2way(machine, x)
        if isinstance(got, Output):
            yield x, got.value


class DomainOracle:
    """Membership in Pref(dom f) for finite words: does some domain word
    extend w?  One oracle answers for every machine kind.

    A one-way machine is exact, through the prefix automaton of the
    domain automaton of emitting_runs(machine), whose language is dom f:
    a word accepted only by runs with a finite image is not in it.  A
    plain two-way machine with at most state_cap states is exact,
    through domain_nba and its prefix automaton, unless the conversion
    overflows its build budget.  Otherwise (and always for a look-ahead
    machine) the oracle samples sampled_extensions: a yes is sound, a
    no is not, and exact is False.
    """

    def __init__(self, machine, state_cap: int = 12, ext_bound: int = 4):
        self.machine = machine
        self.ext_bound = ext_bound
        self.pref = None
        if isinstance(machine, Transducer):
            self.pref = pref_automaton(domain_automaton(
                emitting_runs(machine)))
        elif isinstance(machine, TwoWayTransducer) and \
                len(machine.states) <= state_cap:
            try:
                self.pref = pref_automaton(domain_nba(machine))
            except StateCapExceeded:
                pass
        self.exact = self.pref is not None

    def pref_member(self, w) -> bool:
        if self.exact:
            return self.pref.accepts(w)
        return any(sampled_extensions(self.machine, w, self.ext_bound))

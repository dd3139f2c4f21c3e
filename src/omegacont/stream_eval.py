"""Streaming computation of a function on an infinite input.

The streaming machine keeps two buffers: the input consumed so far and
the output committed so far.  After each input symbol it commits the
output symbols that are safe, where a symbol g is safe when
committed + g is a prefix of f(y) for every domain word y extending the
consumed input.  For continuous functions this makes progress; for
discontinuous ones the committed buffer can starve forever.

Every machine kind asks one domain oracle (Pref(dom f), built once per
stream) whether some domain word extends the consumed input u, and
commits nothing while the answer is no.  An exact no ends the stream; a
sampled one only means no extension was found within the bound.

A plain deterministic two-way machine commits the output of its own
run on u.  The run on any u.y agrees with the run on u until the head
first leaves u to the right, so that output is a prefix of f(u.y) for
every domain word u.y; and once some domain word extends u, each next
symbol of it is the only safe one.  A run that blocks or loops inside u
proves that no domain word extends u.

One-way and look-ahead machines commit the longest safe prefix of one
candidate image (see _candidate).  A one-way machine finds it with one
search, safe_prefix_length.  Its oracle, its candidate and that search
all read emitting_runs(machine), the runs that emit forever: a run
with a finite image neither puts a word into Pref(dom f) nor
contradicts a commit.  A look-ahead machine asks the mismatch
question once per committed symbol, plus one: is there y with u.y in
dom f and the prefix not a prefix of f(u.y)?  After look-ahead
elimination it is answered through a product two-way automaton whose
domain is exactly the mismatching inputs, converted to a Buchi
automaton and tested for emptiness.  (A look-ahead machine's run
depends on the infinite future, so its run output is not safe to
commit.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .buchi import is_empty
from .oneway import Transducer, emitting_runs, safe_prefix_length
from .twoway import (ENDMARKER, DomainOracle, StateCapExceeded, TwoWayPLA,
                     TwoWayTransducer, domain_nba, run_finite,
                     sampled_extensions)
from .words import Word, as_word, mismatch


class DeadInput(Exception):
    """The consumed input has no extension inside the domain."""


@dataclass(frozen=True)
class StreamState:
    machine: object  # Transducer, TwoWayTransducer or TwoWayPLA
    consumed: Word = ()
    committed: Word = ()
    # Pref(dom) oracle, built on the first step with that step's
    # state_cap and ext_bound
    oracle: Optional[DomainOracle] = None


def _letter(sym):
    # annotated tape symbols are (letter, class) pairs
    return sym[0] if isinstance(sym, tuple) else sym


def mismatch_automaton(t: TwoWayTransducer, u, v) -> TwoWayTransducer:
    """Two-way machine whose domain is exactly the inputs that start
    with u, lie in dom t, and whose image does not extend v.

    Phase one walks right comparing the first |u| tape letters with u,
    then rewinds.  Phase two replays t, matching its output against v;
    detecting a difference switches to plain replay with t's own
    acceptance, while consuming all of v without one kills the run.
    For annotated (marked) machines the comparison is on the letter
    component, so any annotation of u may be used.
    """
    u, v = as_word(u), as_word(v)
    syms = sorted(t.tape_symbols(), key=str)
    delta = {}

    def sim_target(q2, g, m):
        if mismatch(g, v[m:]) is not None:
            return ("mis", q2)
        m2 = m + len(g)
        if m2 >= len(v):
            return None  # v confirmed as a prefix: not a mismatch run
        return ("sim", q2, m2)

    def start_step(s):
        # behave as t's initial configuration on the cell-0 symbol s
        tr = t.delta.get((t.initial, s))
        if tr is None:
            return None
        q2, g, d = tr
        tgt = sim_target(q2, g, 0)
        return None if tgt is None else (tgt, g, d)

    if u:
        for s in syms:
            if _letter(s) == ENDMARKER:
                delta[(("chk", 0), s)] = (("chk", 1), (), 1)
                tr = start_step(s)
                if tr is not None:
                    delta[(("rew",), s)] = tr
            else:
                delta[(("rew",), s)] = (("rew",), (), -1)
        for i, a in enumerate(u):
            for s in syms:
                if _letter(s) != a:
                    continue
                if i + 1 < len(u):
                    delta[(("chk", i + 1), s)] = (("chk", i + 2), (), 1)
                else:
                    delta[(("chk", i + 1), s)] = (("rew",), (), -1)
        initial = ("chk", 0)
    else:
        initial = ("sim", t.initial, 0)

    for (q, s), (q2, g, d) in t.delta.items():
        delta[(("mis", q), s)] = (("mis", q2), g, d)
        for m in range(len(v)):
            tgt = sim_target(q2, g, m)
            if tgt is not None:
                delta[(("sim", q, m), s)] = (tgt, g, d)

    states = {("chk", i) for i in range(len(u) + 1)} | {("rew",)}
    states |= {("sim", q, m) for q in t.states for m in range(len(v))}
    states |= {("mis", q) for q in t.states}
    states.add(initial)
    return TwoWayTransducer(t.alphabet, t.output_alphabet,
                            frozenset(states), delta, initial,
                            frozenset(("mis", q) for q in t.final),
                            t.marked)


def mismatch_verdict(machine, u, v, state_cap: int = 12,
                     ext_bound: int = 4) -> Tuple[bool, bool]:
    """(answer, exact) for the mismatch question of mismatch_exists.

    A two-way machine is decided exactly through mismatch_automaton
    (after look-ahead elimination, for a look-ahead machine) when the
    caps allow.  Otherwise the machine itself is evaluated on
    sampled_extensions of u: a yes is sound, a no is not exact."""
    u, v = as_word(u), as_word(v)
    if isinstance(machine, Transducer):
        return safe_prefix_length(machine, u, v) < len(v), True
    if not v:
        return False, True
    t = machine
    if isinstance(machine, TwoWayPLA):
        t = machine.eliminated
    if len(t.states) <= state_cap:
        try:
            a = mismatch_automaton(t, u, v)
            nba = domain_nba(a, nba_state_cap=20000)
            return not is_empty(nba), True
        except StateCapExceeded:
            pass
    for _, y in sampled_extensions(machine, u, ext_bound):
        if mismatch(v, y.take(len(v))) is not None:
            return True, False
    return False, False


def mismatch_exists(machine, u, v, state_cap: int = 12,
                    ext_bound: int = 4) -> bool:
    """Is there y with u.y in dom f and v not a prefix of f(u.y)?"""
    return mismatch_verdict(machine, u, v, state_cap, ext_bound)[0]


def _candidate(machine, consumed: Word, ext_bound: int) -> Word:
    """One-way: the output of a longest run of emitting_runs(machine)
    on consumed.  Look-ahead: the image of the first sampled extension,
    cut at len(consumed) times the longest step output (every prefix of
    a determined image is safe, so the commit needs a cap).  Any other
    next letter is contradicted by that run or sample."""
    if isinstance(machine, Transducer):
        t = emitting_runs(machine)
        best = {q: () for q in t.initial}
        for a in consumed:
            nxt = {}
            for q, w in best.items():
                for (r, g) in t.arcs(q, a):
                    if r not in nxt or len(w) + len(g) > len(nxt[r]):
                        nxt[r] = w + g
            best = nxt
        return max(best.values(), key=len, default=())
    # the oracle's yes came from this same sampler and bound
    _, image = next(sampled_extensions(machine, consumed, ext_bound))
    per_step = max((len(g) for (_, g, _) in machine.delta.values()),
                   default=0)
    return image.take(len(consumed) * per_step)


def stream_start(machine) -> StreamState:
    return StreamState(machine)


def stream_step(s: StreamState, a, state_cap: int = 12,
                ext_bound: int = 4) -> Tuple[StreamState, Word]:
    """Feed one input symbol; returns the new state and the output
    symbols that became safe to commit (possibly none).

    The domain oracle is built on the stream's first step, with that
    step's state_cap and ext_bound, and carried in the state.  Nothing
    is committed while it cannot show that some domain word extends the
    consumed input.  A plain two-way machine then commits the output of
    its run on the consumed input: the run on any domain word extending
    it agrees with that run until the head first leaves the consumed
    input to the right.  One-way and look-ahead machines commit the
    longest safe prefix of their candidate image (see _candidate) that
    extends the committed buffer: a one-way machine with one
    safe_prefix_length search, a look-ahead machine with one mismatch
    question per committed symbol, plus one.

    Raises DeadInput when the consumed input stops being a prefix of
    any domain word: on an exact no of the oracle, or when the run of a
    plain two-way machine blocks or loops inside the consumed input.
    """
    m = s.machine
    consumed = s.consumed + (a,)
    oracle = s.oracle or DomainOracle(m, state_cap, ext_bound)
    run = None
    if isinstance(m, TwoWayTransducer):
        run = run_finite(m, consumed)
        if run.exit != "right_end":
            raise DeadInput("".join(map(str, consumed)))
    if not oracle.pref_member(consumed):
        if oracle.exact:
            raise DeadInput("".join(map(str, consumed)))
        # only sampled: no extension found within ext_bound
        return StreamState(m, consumed, s.committed, oracle), ()
    if run is not None:
        return (StreamState(m, consumed, run.output, oracle),
                run.output[len(s.committed):])
    cand = _candidate(m, consumed, oracle.ext_bound)
    k = len(s.committed)
    if cand[:k] != s.committed:
        # A one-way machine's longest run may not have written the
        # committed output yet (random_instance(186) after bb writes
        # nothing, after committing a); a look-ahead sample may
        # contradict a commit that rested on a sampled no.
        return StreamState(m, consumed, s.committed, oracle), ()
    if isinstance(m, Transducer):
        # at least k: the committed buffer stays safe as u grows
        k = safe_prefix_length(m, consumed, cand)
    else:
        while k < len(cand) and not mismatch_exists(
                m, consumed, cand[:k + 1], state_cap, ext_bound):
            k += 1
    return (StreamState(m, consumed, cand[:k], oracle),
            cand[len(s.committed):k])


def stream_feed(machine, symbols) -> Tuple[StreamState, Word]:
    """Run a whole finite input through stream_step."""
    s = stream_start(machine)
    out = []
    for a in symbols:
        s, emitted = stream_step(s, a)
        out.extend(emitted)
    return s, tuple(out)

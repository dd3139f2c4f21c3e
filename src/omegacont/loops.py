"""Crossing behavior of a deterministic two-way transducer over finite
factors, idempotent loops, and the pumping decomposition.

The behavior of a factor records, for each state entering from either
side, where the run exits (side, state, whether anything was emitted)
or that it never exits.  Behaviors compose; a factor is idempotent when
its behavior composed with itself is itself (checked in context on the
entries that the copy borders name).  For an idempotent middle
factor u2 the run on u1 u2^{n+1} u3 factors as
pi_0 tr(C_1)^n pi_1 ... tr(C_k)^n pi_k where the C_i are the factor's
crossing traversals; the decomposition is extracted by aligning the
runs on u1 u2 u3 and u1 u2 u2 u3.

Idempotence is decided in context, not as compose(b, b) == b over all
entries, which accepts a different set of candidates: every copy border
of the two runs must carry the same crossing sequence, and one copy
must exit as two do on each entry that sequence names.

There is one model of a run here, block summaries (BlockSummaries):
the blocks ^u1, u2 and u3 are each simulated once per entry, and the
runs are walked block by block, so a search over many triples sharing
these blocks does not re-simulate whole tapes.  rho, decompose and
is_idempotent read these walks, and behavior the same per-entry
simulation of one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .twoway import ENDMARKER, TwoWayTransducer
from .words import Word, as_word

Exit = Optional[Tuple[str, object, bool]]  # (side, state, emitted) or None
# (exit side or None when the run blocks or loops inside the block,
#  exit state, output, the boundary-cell configurations met and the
#  entry configuration, as bit sets: bit 2i (left cell) or 2i+1 (right
#  cell of a block of two or more) for the state numbered i, and the
#  number of steps taken inside the block)
Visit = Tuple[Optional[str], object, Word, int, int, int]


@dataclass
class Behavior:
    left_entry: Dict[object, Exit]
    right_entry: Dict[object, Exit]


class NotIdempotent(Exception):
    pass


class NotInPrefDomain(Exception):
    pass


def behavior(t: TwoWayTransducer, w) -> Behavior:
    """Crossing summary of t over the factor w (simulated in isolation,
    without endmarkers)."""
    w = as_word(w)
    if not w:
        return Behavior({q: ("R", q, False) for q in t.states},
                        {q: ("L", q, False) for q in t.states})
    block = _Block(t, {q: i for i, q in enumerate(t.states)}, w, False)
    return Behavior({q: _exit(block["L", q]) for q in t.states},
                    {q: _exit(block["R", q]) for q in t.states})


def compose(b1: Behavior, b2: Behavior) -> Behavior:
    """Behavior of w1 w2 from the behaviors of w1 and w2."""

    def walk(block, side, state):
        emitted = False
        seen = set()
        while True:
            key = (block, side, state)
            if key in seen:
                return None
            seen.add(key)
            b = b1 if block == 1 else b2
            res = (b.left_entry if side == "L" else b.right_entry)[state]
            if res is None:
                return None
            exit_side, state, e = res
            emitted = emitted or e
            if block == 1 and exit_side == "L":
                return ("L", state, emitted)
            if block == 2 and exit_side == "R":
                return ("R", state, emitted)
            # cross the inner border
            block = 2 if block == 1 else 1
            side = "L" if exit_side == "R" else "R"

    states = set(b1.left_entry) | set(b2.left_entry)
    return Behavior({q: walk(1, "L", q) for q in states},
                    {q: walk(2, "R", q) for q in states})


def is_idempotent(t: TwoWayTransducer, u1, u2, u3) -> bool:
    """Whether u2 is an idempotent loop in context: every copy border
    of u1 u2 u3 and u1 u2 u2 u3 carries the same crossing sequence, so
    extra copies replicate the run shape, and on each entry of that
    sequence one u2 exits as u2 u2 does (its behavior composed with
    itself is itself where it is used).  That is, decompose raises no
    NotIdempotent, whether or not the runs reach the right end."""
    try:
        BlockSummaries(t)._walks(as_word(u1), as_word(u2), as_word(u3))
    except NotIdempotent:
        return False
    except NotInPrefDomain:
        pass
    return True


@dataclass(frozen=True)
class Traversal:
    kind: str  # LL, LR, RL, RR
    start: int  # run indices into the full run's configs
    end: int
    output: Word
    entry_state: object
    exit_state: object


@dataclass(frozen=True)
class RunDecomposition:
    traversals: Tuple[Traversal, ...]
    components: Tuple[Tuple[int, ...], ...]  # traversal indices per component
    anchors: Tuple[int, ...]  # run indices, one per component
    pi_outputs: Tuple[Word, ...]  # pi_0 .. pi_k
    tr_outputs: Tuple[Word, ...]  # tr(C_1) .. tr(C_k)

    @property
    def producing(self) -> bool:
        return any(tr for tr in self.tr_outputs)


def pump_predict(d: RunDecomposition, n: int) -> Word:
    out = list(d.pi_outputs[0])
    for i, tr in enumerate(d.tr_outputs):
        out.extend(tr * n)
        out.extend(d.pi_outputs[i + 1])
    return tuple(out)


def _loop_outputs(pis, segs2) -> List[Word]:
    """tr(C_1) .. tr(C_k): segment i of the run on u1 u2 u2 u3 less its
    suffix pi_i, the output one more copy of u2 adds to crossing i."""
    trs = []
    for i in range(1, len(pis)):
        seg2, pi = segs2[i], pis[i]
        if pi and seg2[len(seg2) - len(pi):] != pi:
            raise RuntimeError("pumping alignment failed: no common suffix")
        trs.append(seg2[:len(seg2) - len(pi)])
    return trs


def decompose(t: TwoWayTransducer, u1, u2, u3) -> RunDecomposition:
    """Pumping decomposition of the run on u1 u2 u3 around the
    idempotent factor u2, aligned against the run on u1 u2 u2 u3
    (see BlockSummaries.decompose)."""
    return BlockSummaries(t).decompose(as_word(u1), as_word(u2),
                                       as_word(u3))


def _traverse(t: TwoWayTransducer, number: Dict, w: Word, leftmost: bool,
              side: str, state) -> Visit:
    """One visit of the head to the block w, entered at its left end
    (side "L") or its right end ("R") in state.  Moving left off the
    leftmost block blocks, as at cell 0 of the tape."""
    last = len(w) - 1
    pos = 0 if side == "L" else last
    entry = (1 if pos == 0 else 2) << 2 * number[state]
    out = []
    seen = set()
    boundary = 0
    while True:
        cfg = (pos, state)
        if cfg in seen:
            return None, None, tuple(out), boundary, entry, len(seen)
        seen.add(cfg)
        if pos == 0:
            boundary |= 1 << 2 * number[state]
        elif pos == last:
            boundary |= 2 << 2 * number[state]
        tr = t.delta.get((state, w[pos]))
        if tr is None or (leftmost and pos == 0 and tr[2] == -1):
            return None, None, tuple(out), boundary, entry, len(seen)
        state, g, d = tr
        out.extend(g)
        pos += d
        if pos < 0:
            return "L", state, tuple(out), boundary, entry, len(seen)
        if pos > last:
            return "R", state, tuple(out), boundary, entry, len(seen)


def _exit(v: Visit) -> Exit:
    """The behavior entry of a visit."""
    return (v[0], v[1], bool(v[2])) if v[0] else None


class _Block(dict):
    """The visits to one block word, by entry (side, state), each
    simulated on first use."""

    def __init__(self, t: TwoWayTransducer, number: Dict, w: Word,
                 leftmost: bool):
        super().__init__()
        self.args = (t, number, w, leftmost)

    def __missing__(self, entry) -> Visit:
        v = self[entry] = _traverse(*self.args, *entry)
        return v


def _segments(visits, lo: int, hi: int) -> List[Word]:
    """Outputs pi_0 .. pi_k of a walk, cut at the start of each crossing
    traversal of blocks lo..hi: one entered on one side and left on the
    other (the run's start counts as a left entry)."""
    cuts = []
    start = entry = None
    for k, (b, side, _, ex, _, _, _) in enumerate(visits):
        if not lo <= b <= hi:
            continue
        if start is None:
            start, entry = k, side
        if (ex == "R" and b == hi) or (ex == "L" and b == lo):
            if ex != entry:
                cuts.append(start)
            start = None
    ends = [0] + cuts + [len(visits)]
    return [tuple(chain.from_iterable(v[5] for v in visits[i:j]))
            for i, j in zip(ends, ends[1:])]


class BlockSummaries:
    """The runs of t on u1 u2 u3 and u1 u2 u2 u3, read off per-block
    traversal summaries: rho, decompose and the idempotence check.

    The tapes are made of the blocks ^u1 (u1 on a marked tape), u2 and
    u3.  Each block word is simulated once per entry cell, entry state
    and whether it is the leftmost block (where a left exit blocks),
    and the visit's exit side, exit state, output, boundary-cell
    configurations and step count are kept.  The configurations find
    the loops of a run at the step run_finite finds them; the step
    counts give run_finite's indices.  The idempotence check compares
    the visits to the blocks u2 and u2 u2, kept per u2.  One instance
    serves the calls of one search, whose triples share these blocks;
    it holds nothing beyond that search."""

    def __init__(self, t: TwoWayTransducer):
        self.t = t
        self._number = {q: i for i, q in enumerate(t.states)}
        self._blocks: Dict[Tuple[Word, bool], _Block] = {}
        self._loops: Dict[Word, Tuple[_Block, _Block]] = {}

    def _block(self, w: Word, leftmost: bool) -> _Block:
        b = self._blocks.get((w, leftmost))
        if b is None:
            b = self._blocks[(w, leftmost)] = _Block(self.t, self._number,
                                                     w, leftmost)
        return b

    def _walk(self, words):
        """Follow the run of t on the tape made of the non-empty blocks
        words, one visit at a time.  Returns whether the run leaves the
        tape to the right, the crossings of each block border (border i
        lies left of block i, the last one is the tape's right end)
        and the visits as (block, entry side, entry state, exit side,
        exit state, output, steps)."""
        blocks = [self._block(w, i == 0) for i, w in enumerate(words)]
        cross = [[] for _ in range(len(blocks) + 1)]
        visits = []
        if not blocks:
            return True, cross, visits
        seen = [0] * len(blocks)
        last = len(blocks) - 1
        b, side, q, border = 0, "L", self.t.initial, None
        while True:
            ex, q2, out, boundary, entry, steps = blocks[b][side, q]
            # A run meeting a configuration of an earlier visit follows
            # that visit to one of its boundary cells before it crosses
            # a border, so comparing boundary cells finds every loop in
            # time to record the same crossings as run_finite.
            if seen[b] & boundary:
                if seen[b] & entry:
                    # the step into a repeated configuration is not run
                    cross[border].pop()
                return False, cross, visits
            seen[b] |= boundary
            visits.append((b, side, q, ex, q2, out, steps))
            q = q2
            if ex is None:
                return False, cross, visits
            if ex == "R":
                if b == last:
                    cross[-1].append(("R", q))
                    return True, cross, visits
                b, side = b + 1, "L"
                border = b
            else:
                border = b
                b, side = b - 1, "R"
            cross[border].append((ex, q))

    def _stable(self, u2: Word, crossings) -> bool:
        """On each entry the copy borders name, one u2 exits as u2 u2
        does: compose(b, b) agrees with b where the run uses it."""
        pair = self._loops.get(u2)
        if pair is None:
            pair = self._loops[u2] = (self._block(u2, False),
                                      self._block(u2 + u2, False))
        one, two = pair
        for d, q in set(crossings):
            entry = ("L" if d == "R" else "R", q)
            if _exit(one[entry]) != _exit(two[entry]):
                return False
        return True

    def _walks(self, u1: Word, u2: Word, u3: Word):
        """The index of the (first) u2 block and the visits of the walks
        over ^u1 | u2 | u3 and ^u1 | u2 | u2 | u3 (None when u2 is
        empty).  NotIdempotent is raised when the first walk's two copy
        borders differ, or when one copy of u2 does not exit as two do
        on an entry they name, before the second walk starts, whose
        three copy borders must match them too; NotInPrefDomain after
        that, when a run does not reach the right end.

        Idempotence aligns the crossings: the runs agree until they
        first enter u2, enter it alike, and (one copy exiting as two
        do) leave it alike, so by induction they cross it in the same
        order, with the same kinds and entry states."""
        first = u1 if self.t.marked else (ENDMARKER,) + u1
        i = 1 if first else 0
        ends, cross, visits = self._walk([w for w in (first, u2, u3) if w])
        if not u2:
            if not ends:
                raise NotInPrefDomain("run does not reach the right end")
            return i, visits, None
        border = cross[i]
        if cross[i + 1] != border or not self._stable(u2, border):
            raise NotIdempotent(str(u2))
        ends2, cross2, visits2 = self._walk(
            [w for w in (first, u2, u2, u3) if w])
        if any(c != border for c in cross2[i:i + 3]):
            raise NotIdempotent(str(u2))
        if not (ends and ends2):
            raise NotInPrefDomain("run does not reach the right end")
        return i, visits, visits2

    def rho(self, u1: Word, u2: Word, u3: Word) -> Word:
        """rho(t, u1, u2, u3): the pi and tr segments are cut at the
        crossing visits of u2 (of u2 u2 in the second walk)."""
        i, visits, visits2 = self._walks(u1, u2, u3)
        if visits2 is None:
            return tuple(chain.from_iterable(v[5] for v in visits))
        pis = _segments(visits, i, i)
        out = list(pis[0])
        for tr, pi in zip(_loop_outputs(pis, _segments(visits2, i, i + 1)),
                          pis[1:]):
            if tr:
                break
            out.extend(pi)
        return tuple(out)

    def decompose(self, u1: Word, u2: Word, u3: Word) -> RunDecomposition:
        """decompose(t, u1, u2, u3): the traversals are the first walk's
        visits to u2, and a run index counts the steps the run takes
        before it."""
        i, visits, visits2 = self._walks(u1, u2, u3)
        if visits2 is None:
            out = tuple(chain.from_iterable(v[5] for v in visits))
            return RunDecomposition((), (), (), (out,), ())
        travs = []
        start = 0
        for b, side, q, ex, q2, out, steps in visits:
            if b == i:
                travs.append(Traversal(side + ex, start, start + steps, out,
                                       q, q2))
            start += steps
        pis = _segments(visits, i, i)
        trs = _loop_outputs(pis, _segments(visits2, i, i + 1))
        crossing = [k for k, tr in enumerate(travs)
                    if tr.kind in ("LR", "RL")]
        return RunDecomposition(tuple(travs), tuple((k,) for k in crossing),
                                tuple(travs[k].start for k in crossing),
                                tuple(pis), tuple(trs))


def rho(t: TwoWayTransducer, u1, u2, u3) -> Word:
    """Iteration-stable output prefix: the run's output up to the first
    anchor whose component emits when pumped, or the whole output when
    no component does.  Values and exceptions are those of decompose,
    read off the same two block walks (see BlockSummaries)."""
    return BlockSummaries(t).rho(as_word(u1), as_word(u2), as_word(u3))

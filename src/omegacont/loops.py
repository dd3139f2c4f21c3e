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
the blocks ^u1, u2 and u3 are each simulated once per entry, the runs
are walked block by block, and the walk up to u3 is resumed for each
u3, so a search over triples sharing these blocks does not re-simulate
whole tapes.  rho, decompose and is_idempotent read these walks, and
behavior the same per-entry simulation of one block.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _pieces(out: List, cuts: List[int]) -> List[Word]:
    """The output of a walk cut into pi_0 .. pi_k at its cut points."""
    ends = [0] + cuts + [len(out)]
    return [tuple(out[i:j]) for i, j in zip(ends, ends[1:])]


class BlockSummaries:
    """The runs of t on u1 u2 u3 and u1 u2 u2 u3, read off per-block
    traversal summaries: rho, decompose and the idempotence check.

    The tapes are made of the blocks ^u1 (u1 on a marked tape), u2 and
    u3.  Each block word is simulated once per entry cell, entry state
    and whether it is the leftmost block (where a left exit blocks),
    and the visit's exit side, exit state, output, boundary-cell
    configurations and step count are kept.  The configurations find
    the loops of a run at the step run_finite finds them; the step
    counts give run_finite's indices.  A run does not depend on u3
    before it first enters u3, so each walk stops there and every u3
    resumes it.  The instance keeps one such walk per tape length, as a
    search asks for all u3s of one (u1, u2) in a row, and holds nothing
    beyond the search it serves."""

    def __init__(self, t: TwoWayTransducer):
        self.t = t
        self._number = {q: i for i, q in enumerate(t.states)}
        self._blocks: Dict[Tuple[Word, bool], _Block] = {}
        self._stables: Dict[Tuple[Word, tuple], bool] = {}
        self._slots: Dict[int, tuple] = {}

    def _block(self, w: Word, leftmost: bool) -> _Block:
        b = self._blocks.get((w, leftmost))
        if b is None:
            b = self._blocks[(w, leftmost)] = _Block(self.t, self._number,
                                                     w, leftmost)
        return b

    def _walk(self, words, copies: int, walk=None):
        """Follow the run of t one visit at a time on the tape of the
        non-empty blocks words, from its start; or, given walk (one that
        left its tape to the right), on that tape and the block words[0],
        from the entry into it.  The output is cut at the start of each
        crossing traversal (entered on one side, left on the other) of
        the u2 copies: the last copies blocks of words, or of walk's
        tape.  A run starts in a copy only on a marked tape with u1
        empty, where equal copy borders keep it in the first copy: it
        has no value to cut.  A walk is whether the run leaves the tape
        to the right, the crossings of each border (border i lies left
        of block i, the last one is the tape's right end), the visits as
        (block, entry side, entry state, exit side, exit state, output,
        steps), the output, its cut points, and what resuming needs: the
        last state, the blocks and the boundary-cell configurations met
        per block."""
        if walk is None:
            blocks = [self._block(w, i == 0) for i, w in enumerate(words)]
            b = border = 0
            q, hi = self.t.initial, len(blocks) - 1
            seen, cross = [0] * len(blocks), [[] for _ in range(hi + 2)]
            visits, out, cuts = [], [], []
            if not blocks:
                return True, cross, visits, out, cuts, q, blocks, seen
        else:
            _, cross, visits, out, cuts, q, blocks, seen = walk
            b = border = len(blocks)
            hi = b - 1
            blocks = blocks + [self._block(words[0], not blocks)]
            seen, cross = seen + [0], [c[:] for c in cross] + [[]]
            visits, out, cuts = visits[:], out[:], cuts[:]
        side, last = "L", len(blocks) - 1
        lo, start = hi + 1 - copies, None
        while True:
            ex, q2, o, boundary, entry, steps = blocks[b][side, q]
            # A run meeting a configuration of an earlier visit follows
            # that visit to one of its boundary cells before it crosses
            # a border, so comparing boundary cells finds every loop in
            # time to record the same crossings as run_finite.
            if seen[b] & boundary:
                if seen[b] & entry:
                    # the step into a repeated configuration is not run
                    cross[border].pop()
                return False, cross, visits, out, cuts, q, blocks, seen
            seen[b] |= boundary
            visits.append((b, side, q, ex, q2, o, steps))
            if start is None and lo <= b <= hi:
                start, entered = len(out), side
            out.extend(o)
            q = q2
            if ex is None:
                return False, cross, visits, out, cuts, q, blocks, seen
            if start is not None and b == (hi if ex == "R" else lo):
                if ex != entered:
                    cuts.append(start)
                start = None
            if ex == "R":
                if b == last:
                    cross[-1].append(("R", q))
                    return True, cross, visits, out, cuts, q, blocks, seen
                b, side = b + 1, "L"
                border = b
            else:
                border = b
                b, side = b - 1, "R"
            cross[border].append((ex, q))

    def _resumed(self, words, copies: int, u3: Word):
        """The walk over words | u3, resumed from the walk over words,
        which is kept, keyed by its words alone: x | x is walked with
        one copy for (x, x, u3) and two for ((), x, u3) on a marked
        tape, but the second only when the run on x | u3 stays in x,
        and then neither walk on x | x leaves x or has a cut."""
        slot = self._slots.get(len(words))
        if slot is None or slot[0] != words:
            slot = self._slots[len(words)] = words, self._walk(words,
                                                               copies)
        walk = slot[1]
        if u3 and walk[0]:
            return self._walk((u3,), copies, walk)
        return walk

    def _stable(self, u2: Word, crossings) -> bool:
        """On each entry the copy borders name, one u2 exits as u2 u2
        does: compose(b, b) agrees with b where the run uses it.  Kept
        per u2 and crossing sequence."""
        key = (u2, tuple(crossings))
        if key not in self._stables:
            one, two = self._block(u2, False), self._block(u2 + u2, False)
            entries = {("L" if d == "R" else "R", q) for d, q in crossings}
            self._stables[key] = all(_exit(one[e]) == _exit(two[e])
                                     for e in entries)
        return self._stables[key]

    def _walks(self, u1: Word, u2: Word, u3: Word):
        """The index of the (first) u2 block, the visits of the walk
        over ^u1 | u2 | u3 and the pi segments of the walks over
        ^u1 | u2 | u3 and ^u1 | u2 | u2 | u3 (its output and None when
        u2 is empty).  NotIdempotent is raised when the first walk's
        copy borders differ or one u2 does not exit as two do on an
        entry they name, before the second walk starts, or when the
        second walk's three copy borders do not all match them; then
        NotInPrefDomain, when a run does not reach the right end.
        Idempotence aligns the crossings: the runs agree until they
        first enter u2, enter it alike, and (one copy exiting as two
        do) leave it alike, so by induction they cross it in the same
        order, with the same kinds and entry states."""
        first = u1 if self.t.marked else (ENDMARKER,) + u1
        i = 1 if first else 0
        head = tuple(filter(None, (first, u2)))
        ends, cross, visits, out, cuts = self._resumed(head, 1, u3)[:5]
        if not u2:
            if not ends:
                raise NotInPrefDomain("run does not reach the right end")
            return i, visits, [tuple(out)], None
        border = cross[i]
        if cross[i + 1] != border or not self._stable(u2, border):
            raise NotIdempotent(str(u2))
        ends2, cross2, _, out2, cuts2 = self._resumed(head + (u2,), 2,
                                                      u3)[:5]
        if cross2[i:i + 3] != [border] * 3:
            raise NotIdempotent(str(u2))
        if not (ends and ends2):
            raise NotInPrefDomain("run does not reach the right end")
        return i, visits, _pieces(out, cuts), _pieces(out2, cuts2)

    def rho(self, u1: Word, u2: Word, u3: Word) -> Word:
        """rho(t, u1, u2, u3): the pi and tr segments are cut at the
        crossing visits of u2 (of u2 u2 in the second walk)."""
        _, _, pis, segs2 = self._walks(u1, u2, u3)
        out = list(pis[0])
        if segs2 is not None:
            for tr, pi in zip(_loop_outputs(pis, segs2), pis[1:]):
                if tr:
                    break
                out.extend(pi)
        return tuple(out)

    def decompose(self, u1: Word, u2: Word, u3: Word) -> RunDecomposition:
        """decompose(t, u1, u2, u3): the traversals are the first walk's
        visits to u2, and a run index counts the steps the run takes
        before it."""
        i, visits, pis, segs2 = self._walks(u1, u2, u3)
        if segs2 is None:
            return RunDecomposition((), (), (), tuple(pis), ())
        travs = []
        start = 0
        for b, side, q, ex, q2, out, steps in visits:
            if b == i:
                travs.append(Traversal(side + ex, start, start + steps, out,
                                       q, q2))
            start += steps
        trs = _loop_outputs(pis, segs2)
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

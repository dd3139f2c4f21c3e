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

rho reads the same answer off block summaries (BlockSummaries): the
blocks ^u1, u2 and u3 are each simulated once per entry, and the runs
are walked block by block, so a search over many triples sharing these
blocks does not re-simulate whole tapes.  decompose keeps its scan of
the full runs, because its traversals and anchors are run indices,
which the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .twoway import ENDMARKER, FiniteRun, TwoWayTransducer, run_finite
from .words import Word, as_word

Exit = Optional[Tuple[str, object, bool]]  # (side, state, emitted) or None
# (exit side or None when the run blocks or loops inside the block,
#  exit state, output, the boundary-cell configurations met and the
#  entry configuration, as bit sets: bit 2i (left cell) or 2i+1 (right
#  cell of a block of two or more) for the state numbered i)
Visit = Tuple[Optional[str], object, Word, int, int]


@dataclass
class Behavior:
    left_entry: Dict[object, Exit]
    right_entry: Dict[object, Exit]

    @property
    def produces(self) -> bool:
        return any(v is not None and v[2]
                   for m in (self.left_entry, self.right_entry)
                   for v in m.values())


class NotIdempotent(Exception):
    pass


class NotInPrefDomain(Exception):
    pass


def _simulate(t: TwoWayTransducer, w: Word, state, pos) -> Exit:
    emitted = False
    seen = set()
    while True:
        if pos < 0:
            return ("L", state, emitted)
        if pos >= len(w):
            return ("R", state, emitted)
        cfg = (state, pos)
        if cfg in seen:
            return None  # trapped
        seen.add(cfg)
        tr = t.delta.get((state, w[pos]))
        if tr is None:
            return None  # blocked: never exits either
        state, g, d = tr
        emitted = emitted or bool(g)
        pos += d


def behavior(t: TwoWayTransducer, w) -> Behavior:
    """Crossing summary of t over the factor w (simulated in isolation,
    without endmarkers)."""
    w = as_word(w)
    if not w:
        return Behavior({q: ("R", q, False) for q in t.states},
                        {q: ("L", q, False) for q in t.states})
    return Behavior({q: _simulate(t, w, q, 0) for q in t.states},
                    {q: _simulate(t, w, q, len(w) - 1) for q in t.states})


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


def _crossings(run: FiniteRun, borders):
    """Ordered (direction, state) crossings of each border p (between
    cells p-1 and p), read in one pass over the run."""
    seqs = {p: [] for p in borders}
    seq = list(run.configs)
    if run.exit == "right_end":
        seq.append((run.exit_state, run.configs[-1][1] + 1))
    for (_, p1), (s2, p2) in zip(seq, seq[1:]):
        if p2 == p1 + 1 and p2 in seqs:
            seqs[p2].append(("R", s2))
        elif p2 == p1 - 1 and p1 in seqs:
            seqs[p1].append(("L", s2))
    return [seqs[p] for p in borders]


def _idempotent_with_runs(t, u1, u2, run1, run2) -> bool:
    n = len(u2)
    lo = (0 if t.marked else 1) + len(u1)
    borders = _crossings(run1, (lo, lo + n))
    borders += _crossings(run2, (lo, lo + n, lo + 2 * n))
    if any(c != borders[0] for c in borders[1:]):
        return False
    # Equal borders: every copy is entered exactly at their crossings,
    # a rightward one at its left end, a leftward one at its right end
    # (a run starting inside the first copy, on a marked tape, crosses
    # none and so never leaves it).  On each entry one copy must exit
    # as two do: b == compose(b, b) on the entries that occur.
    uu = u2 + u2
    for d, q in set(borders[0]):
        if d == "R":
            same = _simulate(t, u2, q, 0) == _simulate(t, uu, q, 0)
        else:
            same = _simulate(t, u2, q, n - 1) == _simulate(t, uu, q, 2 * n - 1)
        if not same:
            return False
    return True


def is_idempotent(t: TwoWayTransducer, u1, u2, u3) -> bool:
    """Whether u2 is an idempotent loop in context: every copy border
    of u1 u2 u3 and u1 u2 u2 u3 carries the same crossing sequence (one
    scan per run), so extra copies replicate the run shape, and on each
    entry of that sequence u2 and u2 u2 are simulated to the same exit
    (its behavior composed with itself is itself where it is used)."""
    u1, u2, u3 = as_word(u1), as_word(u2), as_word(u3)
    if not u2:
        return True
    run1 = run_finite(t, u1 + u2 + u3)
    run2 = run_finite(t, u1 + u2 + u2 + u3)
    return _idempotent_with_runs(t, u1, u2, run1, run2)


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


def _factor_traversals(t: TwoWayTransducer, run: FiniteRun, lo: int, hi: int):
    """Maximal run factors whose head stays in tape cells [lo, hi)."""
    travs = []
    n = len(run.configs)
    i = 0
    while i < n:
        state, pos = run.configs[i]
        if not lo <= pos < hi:
            i += 1
            continue
        entry_side = "L"
        if i > 0:
            entry_side = "L" if run.configs[i - 1][1] < lo else "R"
        j = i
        while j < n and lo <= run.configs[j][1] < hi:
            j += 1
        if j < n:
            exit_state, exit_pos = run.configs[j]
            exit_side = "R" if exit_pos >= hi else "L"
        else:
            exit_state, exit_side = run.exit_state, "R"
        out = tuple(c for g in run.chunks[i:j] for c in g)
        travs.append(Traversal(entry_side + exit_side, i, j, out,
                               run.configs[i][0], exit_state))
        i = j
    return travs


def _out(run: FiniteRun, i: int, j: int) -> Word:
    return tuple(c for g in run.chunks[i:j] for c in g)


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
    idempotent factor u2, aligned against the run on u1 u2 u2 u3."""
    u1, u2, u3 = as_word(u1), as_word(u2), as_word(u3)
    run1 = run_finite(t, u1 + u2 + u3)
    run2 = run_finite(t, u1 + u2 + u2 + u3)
    if u2 and not _idempotent_with_runs(t, u1, u2, run1, run2):
        raise NotIdempotent(str(u2))
    if run1.exit != "right_end" or run2.exit != "right_end":
        raise NotInPrefDomain("run does not reach the right end")

    lo = (0 if t.marked else 1) + len(u1)
    travs1 = _factor_traversals(t, run1, lo, lo + len(u2))
    if not u2:
        return RunDecomposition((), (), (), (run1.output,), ())
    travs2 = _factor_traversals(t, run2, lo, lo + 2 * len(u2))

    # Idempotence aligns the crossings: the runs agree until they first
    # enter the block, enter it alike, and (one copy exiting as two do)
    # leave it alike, so by induction they cross it in the same order,
    # with the same kinds and entry states.
    cross1 = [tr for tr in travs1 if tr.kind in ("LR", "RL")]
    cross2 = [tr for tr in travs2 if tr.kind in ("LR", "RL")]
    anchors1 = [c.start for c in cross1]
    anchors2 = [c.start for c in cross2]
    k = len(cross1)
    cuts1 = [0] + anchors1 + [len(run1.configs)]
    cuts2 = [0] + anchors2 + [len(run2.configs)]
    pis = [_out(run1, cuts1[i], cuts1[i + 1]) for i in range(k + 1)]
    trs = _loop_outputs(pis, [_out(run2, cuts2[i], cuts2[i + 1])
                              for i in range(len(cuts2) - 1)])
    components = tuple((travs1.index(c),) for c in cross1)
    return RunDecomposition(tuple(travs1), components, tuple(anchors1),
                            tuple(pis), tuple(trs))


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
            return None, None, tuple(out), boundary, entry
        seen.add(cfg)
        if pos == 0:
            boundary |= 1 << 2 * number[state]
        elif pos == last:
            boundary |= 2 << 2 * number[state]
        tr = t.delta.get((state, w[pos]))
        if tr is None or (leftmost and pos == 0 and tr[2] == -1):
            return None, None, tuple(out), boundary, entry
        state, g, d = tr
        out.extend(g)
        pos += d
        if pos < 0:
            return "L", state, tuple(out), boundary, entry
        if pos > last:
            return "R", state, tuple(out), boundary, entry


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
    for k, (b, side, ex, _) in enumerate(visits):
        if not lo <= b <= hi:
            continue
        if start is None:
            start, entry = k, side
        if (ex == "R" and b == hi) or (ex == "L" and b == lo):
            if ex != entry:
                cuts.append(start)
            start = None
    ends = [0] + cuts + [len(visits)]
    return [tuple(chain.from_iterable(v[3] for v in visits[i:j]))
            for i, j in zip(ends, ends[1:])]


class BlockSummaries:
    """rho of t, read off per-block traversal summaries.

    The tapes of rho(u1, u2, u3) are made of the blocks ^u1 (u1 on a
    marked tape), u2 and u3.  Each block word is simulated once per
    entry cell, entry state and whether it is the leftmost block (where
    a left exit blocks), and the visit's exit side, exit state, output
    and boundary-cell configurations are kept; the configurations find
    the loops of a run at the step run_finite finds them.  The
    behaviors of u2 and u2 u2, for the idempotence check, are kept per
    u2.  One instance serves the rho calls of one search, whose
    triples share these blocks; it holds nothing beyond that search."""

    def __init__(self, t: TwoWayTransducer):
        self.t = t
        self._number = {q: i for i, q in enumerate(t.states)}
        self._blocks: Dict[Tuple[Word, bool], _Block] = {}
        self._loops: Dict[Word, Tuple[Behavior, Behavior]] = {}

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
        and the visits as (block, entry side, exit side, output)."""
        blocks = [self._block(w, i == 0) for i, w in enumerate(words)]
        cross = [[] for _ in range(len(blocks) + 1)]
        visits = []
        if not blocks:
            return True, cross, visits
        seen = [0] * len(blocks)
        last = len(blocks) - 1
        b, side, q, border = 0, "L", self.t.initial, None
        while True:
            ex, q, out, boundary, entry = blocks[b][side, q]
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
            visits.append((b, side, ex, out))
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
        if u2 not in self._loops:
            b = behavior(self.t, u2)
            self._loops[u2] = (b, compose(b, b))
        b, bb = self._loops[u2]
        for d, q in set(crossings):
            if d == "R":
                if b.left_entry[q] != bb.left_entry[q]:
                    return False
            elif b.right_entry[q] != bb.right_entry[q]:
                return False
        return True

    def rho(self, u1: Word, u2: Word, u3: Word) -> Word:
        """rho(t, u1, u2, u3) from two walks over the blocks."""
        first = u1 if self.t.marked else (ENDMARKER,) + u1
        i = 1 if first else 0  # index of the (first) u2 block
        ends, cross, visits = self._walk([w for w in (first, u2, u3) if w])
        if not u2:
            if not ends:
                raise NotInPrefDomain("run does not reach the right end")
            return tuple(chain.from_iterable(v[3] for v in visits))
        border = cross[i]
        if cross[i + 1] != border or not self._stable(u2, border):
            raise NotIdempotent(str(u2))
        ends2, cross2, visits2 = self._walk(
            [w for w in (first, u2, u2, u3) if w])
        if any(c != border for c in cross2[i:i + 3]):
            raise NotIdempotent(str(u2))
        if not (ends and ends2):
            raise NotInPrefDomain("run does not reach the right end")
        pis = _segments(visits, i, i)
        out = list(pis[0])
        for tr, pi in zip(_loop_outputs(pis, _segments(visits2, i, i + 1)),
                          pis[1:]):
            if tr:
                break
            out.extend(pi)
        return tuple(out)


def rho(t: TwoWayTransducer, u1, u2, u3) -> Word:
    """Iteration-stable output prefix: the run's output up to the first
    anchor whose component emits when pumped, or the whole output when
    no component does.

    Read off block summaries (see BlockSummaries) rather than
    decompose's runs.  The walk over ^u1 | u2 | u3 gives the two copy
    borders; NotIdempotent is raised when they differ, or when one copy
    of u2 does not exit as two do on an entry they name, before the
    walk over ^u1 | u2 | u2 | u3 starts, whose three copy borders must
    match them too.  The pi and tr segments are cut at the crossing
    visits of u2 (of u2 u2 in the second walk).  Values and exceptions
    are those of decompose, which scans whole runs."""
    return BlockSummaries(t).rho(as_word(u1), as_word(u2), as_word(u3))

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
entries, which accepts a different set of candidates: both borders of
u2 in the run on u1 u2 u3 must carry the same crossing sequence, and
one copy must exit as two do on each entry that sequence names.  Then
every copy border of the run on u1 u2 u2 u3 carries it too.

There is one model of a run here, block summaries (BlockSummaries):
the blocks ^u1, u2 and u3 are each simulated once per entry, the run
on u1 u2 u3 is walked block by block, and the walk up to u3 is resumed
for each u3, so a search over triples sharing these blocks does not
re-simulate whole tapes.  The run on u1 u2 u2 u3 is read off that walk
and the visits of the block u2 u2.  rho, decompose and is_idempotent
read this walk, and behavior the same per-entry simulation of one
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """Whether u2 is an idempotent loop in context: both borders of u2
    in the run on u1 u2 u3 carry the same crossing sequence, and on each
    entry of that sequence one u2 exits as u2 u2 does (its behavior
    composed with itself is itself where it is used).  Every copy border
    of the run on u1 u2 u2 u3 then carries that sequence too (see
    BlockSummaries._walks), so extra copies replicate the run shape.
    That is, decompose raises no NotIdempotent, whether or not the runs
    reach the right end."""
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


def _output(visits) -> Word:
    """The output of the visits of a walk, in order."""
    out = []
    for v in visits:
        out += v[5]
    return tuple(out)


def _pieces(outs: List[Word], cuts: List[int]) -> List[Word]:
    """The visit outputs outs of a walk joined into pi_0 .. pi_k, cut
    before the visits cuts."""
    ends = [0] + cuts + [len(outs)]
    pieces = []
    for i, j in zip(ends, ends[1:]):
        # joined in a list: a tuple built from a generator is resized,
        # and the resized tuples pile up in CPython's tuple free lists
        piece = []
        for o in outs[i:j]:
            piece += o
        pieces.append(tuple(piece))
    return pieces


class BlockSummaries:
    """The run of t on u1 u2 u3, read off per-block traversal
    summaries, and the run on u1 u2 u2 u3 read off it: rho, decompose
    and the idempotence check.

    The tape is made of the blocks ^u1 (u1 on a marked tape), u2 and
    u3.  Each block word is simulated once per entry cell, entry state
    and whether it is the leftmost block (where a left exit blocks),
    and the visit's exit side, exit state, output, boundary-cell
    configurations and step count are kept.  The configurations find
    the loops of a run at the step run_finite finds them; the step
    counts give run_finite's indices.  A run does not depend on u3
    before it first enters u3, so the walk stops there and every u3
    resumes it.  The instance keeps such prefix walks, one per (u1, u2)
    that is not ruled out, and holds nothing beyond the search it
    serves.  A search asks in this order.  loop_possible rules out a
    pair for every u3, first from the kept first visit to ^u1 without
    a walk, then from the prefix walk: a resumed walk only extends its
    border crossings, so u2 is idempotent in context for no u3 when
    they are not prefix-comparable.  prefix_values reads the rho values
    of a pair's u3s off the same walk, when it tells them.  rho, last,
    resumes it per u3.  The run on u1 u2 u2 u3 is not walked: once u2
    is idempotent in context it makes the same visits with each visit
    to u2 replaced by the visit to the block u2 u2 on the same entry
    (see _walks).  Nor is it read: the tr of a crossing visit of u2
    depends on its entry alone and is kept per (u2, entry) (_tr), so
    rho is the output of the first run's visits up to its first
    crossing visit of u2 with a non-empty tr.  When such a visit, or
    one without a tr, lies in the prefix walk, that walk fixes rho or
    shows it has no value."""

    def __init__(self, t: TwoWayTransducer):
        self.t = t
        self._number = {q: i for i, q in enumerate(t.states)}
        self._blocks: Dict[Tuple[Word, bool], _Block] = {}
        self._stables: Dict[Tuple[Word, tuple], bool] = {}
        self._trs: Dict[Tuple[Word, tuple], Optional[Word]] = {}
        self._kept: Dict[tuple, tuple] = {}

    def _block(self, w: Word, leftmost: bool) -> _Block:
        b = self._blocks.get((w, leftmost))
        if b is None:
            b = self._blocks[(w, leftmost)] = _Block(self.t, self._number,
                                                     w, leftmost)
        return b

    def _walk(self, words, walk=None):
        """Follow the run of t one visit at a time on the tape of the
        non-empty blocks words, from its start; or, given walk (one that
        left its tape to the right), on that tape and the block words[0],
        from the entry into it.  The cuts are the visits to the last
        block of the first tape (u2, when it is not empty) that leave it
        on the other side: its crossing traversals, where pi_1 .. pi_k
        start.  The start counts as a left entry.  A run starts in u2
        only on a marked tape with u1 empty, where equal borders of u2
        keep it in u2, so it never reaches the right end and its cuts
        are not read.  A walk is whether the run leaves the tape to the
        right, the crossings of each border (border i lies left of block
        i, the last one is the tape's right end), the visits as (block,
        entry side, entry state, exit side, exit state, output, steps),
        the cuts as visit indices, and what resuming needs: the last
        state, the blocks and the boundary-cell configurations met per
        block."""
        if walk is None:
            blocks = [self._block(w, i == 0) for i, w in enumerate(words)]
            b = border = 0
            q, cut = self.t.initial, len(blocks) - 1
            seen, cross = [0] * len(blocks), [[] for _ in range(cut + 2)]
            visits, cuts = [], []
            if not blocks:
                return True, cross, visits, cuts, q, blocks, seen
        else:
            _, cross, visits, cuts, q, blocks, seen = walk
            b = border = len(blocks)
            cut = b - 1
            blocks = blocks + [self._block(words[0], not blocks)]
            seen, cross = seen + [0], [c[:] for c in cross] + [[]]
            visits, cuts = visits[:], cuts[:]
        side, last = "L", len(blocks) - 1
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
                return False, cross, visits, cuts, q, blocks, seen
            seen[b] |= boundary
            if b == cut and ex not in (side, None):
                cuts.append(len(visits))
            visits.append((b, side, q, ex, q2, o, steps))
            q = q2
            if ex is None:
                return False, cross, visits, cuts, q, blocks, seen
            if ex == "R":
                if b == last:
                    cross[-1].append(("R", q))
                    return True, cross, visits, cuts, q, blocks, seen
                b, side = b + 1, "L"
                border = b
            else:
                border = b
                b, side = b - 1, "R"
            cross[border].append((ex, q))

    def _resumed(self, words, u3: Word):
        """The walk over words | u3, resumed from the walk over words.
        That walk is kept, keyed by its words alone (a walk does not
        depend on the triple it serves, as its cuts are at its last
        block), until loop_possible rules its pair out: a search reads
        the prefix walks of a whole group before it resumes them."""
        walk = self._kept.get(words)
        if walk is None:
            walk = self._kept[words] = self._walk(words)
        if u3 and walk[0]:
            return self._walk((u3,), walk)
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

    def _prefix(self, u1: Word, u2: Word):
        """The index i of the u2 block, and the non-empty blocks of the
        tape ^u1 | u2 that every u3 resumes."""
        first = u1 if self.t.marked else (ENDMARKER,) + u1
        return (1 if first else 0), tuple(filter(None, (first, u2)))

    @cached_property
    def _right_targets(self) -> Dict[object, set]:
        """The states a move right on each tape symbol enters."""
        targets: Dict[object, set] = {}
        for (_, a), (r, _, d) in self.t.delta.items():
            if d == 1:
                targets.setdefault(a, set()).add(r)
        return targets

    def loop_possible(self, u1: Word, u2: Word) -> bool:
        """False when _walks raises for (u1, u2, u3) whatever u3 is.
        First, before any walk, when ^u1 and u2 are not empty and the
        first visit to ^u1 (the kept visit entered from the left in the
        initial state) does not leave it to the right in a state E that
        a move right on u2's last symbol enters.  Then read off the
        walk over ^u1 | u2 alone (the walk each u3 resumes, kept for
        them), when (a) it does not leave the tape to the right, (b) the
        crossing sequences of u2's borders, cross[i] and cross[i + 1],
        are not prefix-comparable, or (c) one u2 does not exit as u2 u2
        does on an entry the longer of them names.

        Proof.  First check: the run starts in ^u1, and its first visit
        there is that kept visit.  If it does not exit right, the run
        never leaves ^u1, so (a) holds.  Otherwise its exit is the first
        crossing of u2's left border: cross[i][0] == ("R", E).  The walk
        stops at its first crossing of u2's right border, the tape's
        right end, so when it leaves the tape to the right it ends with
        cross[i + 1] == [("R", q)], q the target of the move right on
        u2's last symbol that leaves u2's last cell.  Then (b) needs
        E == q, and no such q is E.  (a) _resumed returns this walk
        itself for every u3, so
        every u3 raises the same exception.  (b), (c): a resumed walk
        copies the crossing lists and only appends to them, save for a
        pop before a step into a repeated configuration.  Its first
        visit, to u3, meets no configuration seen in u3, and each later
        visit is entered by a crossing the resumed walk appended, so a
        pop removes only such a crossing.  Each border sequence of the
        run on ^u1 u2 u3 therefore extends the prefix walk's.  Equal
        final sequences C need the two prefixes to be prefix-comparable,
        and C then extends the longer one and names every entry it
        names; _stable is an all over the entries named, so it fails on
        C when it fails on the longer prefix.  Either way _walks raises
        NotIdempotent.  QED"""
        i, words = self._prefix(u1, u2)
        if i and u2:
            ex, e = self._block(words[0], True)["L", self.t.initial][:2]
            if ex != "R" or e not in self._right_targets.get(u2[-1], ()):
                return False
        ends, cross = self._resumed(words, ())[:2]
        if ends and u2:
            short, long = sorted((cross[i], cross[i + 1]), key=len)
            ends = long[:len(short)] == short and self._stable(u2, long)
        if not ends:
            del self._kept[words]
        return ends

    def _walks(self, u1: Word, u2: Word, u3: Word):
        """The index i of the u2 block, the visits of the walk over
        ^u1 | u2 | u3, and its cuts, where pi_1 .. pi_k start (none
        when u2 is empty).
        NotIdempotent is raised when the borders of u2 carry different
        crossing sequences or one u2 does not exit as u2 u2 does on an
        entry they name; then NotInPrefDomain, when the run does not
        reach the right end.  The second run is read off the first:

        Lemma.  Let the run on T1 = ^u1 u2 u3, as run_finite records it
        (up to its first repeated configuration), cross both borders x
        and y of u2 with the same sequence C.  Then the run on
        T2 = ^u1 u2 u2 u3 crosses its three copy borders x, m and y'
        with C, and it reaches the right end exactly when the first run
        does.  If, moreover, one u2 exits as u2 u2 does on every entry C
        names, the second run makes the first run's visits to ^u1 and
        u3 with the same entries and exits, and in place of each visit
        to u2 a stay in u2 u2 on the same entry with the same exit.

        Proof (Shepherdson's cut and paste, 1959).  If ^u1 is empty
        (a marked tape), u2 starts both tapes and nothing crosses x, so
        C is empty: both runs stay in the first u2, the same leftmost
        block, and make the same steps.  Otherwise the run starts left
        of x.  The crossings of a border alternate R, L, starting with
        R, so the head is right of a border exactly when an odd number
        of its crossings have been recorded.  A record ends past the
        right end (its exit counts as a crossing of the tape's right
        border), at a blocked configuration, or before a step into a
        configuration it holds.  With as many crossings of x as of y,
        the first run's record does not end in u2: it ends past the
        right end or in ^u1 or u3, and a step into a repeated
        configuration that crosses x or y enters u2.
        Cut the first run's record at y, keeping its steps on ^u1 u2
        (the left part), and at x, keeping its steps on u2 u3 (the
        right part).  Both parts cross their cut with C.  So the left
        part up to its first crossing of y, then the right part from
        its first crossing of x up to its second, then the left part
        from its second crossing of y up to its third, and so on, is a
        computation of t on T2 from its start, with the left part on
        ^u1 u2 and the right part on u2 u3 after m: the k-th crossings
        of y and of x are the same move, which on T2 is a step across
        m landing where the next piece starts.  It crosses m with C, x
        with the first run's crossings of x, and y' with its crossings
        of y.  It repeats no configuration, as neither part does and
        they lie on different cells, so by determinism it is the second
        run's record up to where the first run's record ends.  There
        the second run is past the right end when the first is, blocks
        when the first does (at the same cell of ^u1 or u3), and
        otherwise steps into the copy of the configuration the first
        run repeats, in the part the step stays in: a step entering u2
        from ^u1 lands in the left part, from u3 in the right part, and
        each part holds the first run's configurations in u2.  So the
        second run repeats it too and records no more crossings.
        For the visits: each visit of the first run to u2 is entered by
        a crossing in C, so on an entry C names, and leaves u2 by a
        recorded crossing, as the record does not end in u2.  By
        induction over the visits, the second run enters u2 u2 where
        the first enters u2, on the same entry, and leaves it as one u2
        does; the visits to ^u1 and u3 then run on the same blocks from
        the same entries.  QED

        So the copy borders of the second run need no walk of their
        own, nor does its reaching the right end; and its pi segments
        are the first run's, cut at the same visits (a stay in u2 u2
        leaves on the side its visit to u2 leaves), with each visit to
        u2 replaced by the visit to u2 u2 on the same entry.  They are
        not built: they differ from the first run's pi segments only by
        a word in front, read per crossing entry (_tr)."""
        i, words = self._prefix(u1, u2)
        ends, cross, visits, cuts = self._resumed(words, u3)[:4]
        if u2 and (cross[i + 1] != cross[i] or
                   not self._stable(u2, cross[i])):
            raise NotIdempotent(str(u2))
        if not ends:
            raise NotInPrefDomain("run does not reach the right end")
        return i, visits, cuts if u2 else []

    def _tr(self, u2: Word, entry) -> Optional[Word]:
        """tr at a crossing visit of u2 entered on entry (side, state):
        the output of the visit to u2 u2 on entry less its suffix, the
        output of the visit to u2 on entry; None when that is not a
        suffix of it.  Kept per u2 and entry.

        It is tr(C_i) for the crossing traversal i on that entry, the
        output one more copy of u2 adds to crossing i: segment i of the
        run on ^u1 u2 u2 u3 less its suffix pi_i.  By the lemma of
        _walks, segment i is pi_i with each visit to u2 replaced by the
        stay in u2 u2 on its entry.  A visit that leaves u2 on the side
        it entered crosses no border of u2 in between, so its stay
        crosses no m and emits what the visit does.  Let traversal i
        enter u2 by the a-th crossing of one border of u2 and leave by
        the b-th crossing of the other.  In the cut and paste of the
        lemma, the stay in u2 u2 that replaces it leaves by the b-th
        crossing of the matching copy border, inside the piece that
        starts at the a-th crossing of m and copies the first run from
        the a-th crossing of the entry border on: the stay ends with
        traversal i itself, in the copy it leaves from.  So segment i
        is pi_i with the rest of that stay's output in front, and that
        rest is the difference here, which depends on the entry alone.
        The suffix therefore exists on the entry of every crossing
        visit of a walk that passed the checks of _walks, the only walks
        whose cuts rho and decompose read: they never meet None.  A cut
        without a tr thus shows that no walk it is a cut of passes
        those checks (see prefix_values)."""
        key = (u2, entry)
        if key not in self._trs:
            one = self._block(u2, False)[entry][2]
            two = self._block(u2 + u2, False)[entry][2]
            k = len(two) - len(one)
            self._trs[key] = two[:k] if two[k:] == one else None
        return self._trs[key]

    def _emitting_cut(self, u2: Word, visits, cuts) -> Optional[int]:
        """The first of the cuts whose crossing visit has a tr other
        than the empty word, or None."""
        for c in cuts:
            if self._tr(u2, visits[c][1:3]) != ():
                return c
        return None

    def rho(self, u1: Word, u2: Word, u3: Word) -> Word:
        """rho(t, u1, u2, u3): the output of the walk's visits up to,
        not including, the first crossing visit of u2 whose tr (_tr) is
        non-empty; of all of them when there is none.  The cuts are
        where pi_1 .. pi_k start, so that is pi_0 .. pi_(j-1) for the
        first component j with tr(C_j) non-empty, and the tr of a
        crossing depends on its entry alone (see _tr): no second run is
        built and no tr after the first non-empty one is read."""
        _, visits, cuts = self._walks(u1, u2, u3)
        return _output(visits[:self._emitting_cut(u2, visits, cuts)])

    def prefix_values(self, u1: Word,
                      u2: Word) -> Optional[Tuple[Word, ...]]:
        """The values rho(u1, u2, u3) takes over the u3s it returns on,
        when the walk over ^u1 | u2 that each u3 resumes (kept for
        them) tells them, read off its cuts in order: (V,) when a cut
        has a non-empty tr, V the output of the walk's visits before
        it; () when a cut has no tr; None when neither, or u2 is empty
        (no cut is read).  A tr before such a cut is empty.

        Proof.  A resumed walk copies the visits and cuts of the prefix
        walk and only appends to them, so the prefix walk's first cut
        whose tr is not empty is the first such cut c of every resumed
        walk.  When c has a tr, rho is the output of the visits before
        c wherever it returns.  When c has none, no resumed walk passes
        the checks of _walks (see _tr), so rho returns on no u3.  QED"""
        _, words = self._prefix(u1, u2)
        visits, cuts = self._resumed(words, ())[2:4]
        c = self._emitting_cut(u2, visits, cuts) if u2 else None
        if c is None:
            return None
        if self._tr(u2, visits[c][1:3]) is None:
            return ()
        return (_output(visits[:c]),)

    def decompose(self, u1: Word, u2: Word, u3: Word) -> RunDecomposition:
        """decompose(t, u1, u2, u3): the traversals are the walk's
        visits to u2, a run index counts the steps the run takes before
        it, and tr(C_i) is the tr of crossing visit i's entry (_tr)."""
        i, visits, cuts = self._walks(u1, u2, u3)
        pis = tuple(_pieces([v[5] for v in visits], cuts))
        if not u2:
            return RunDecomposition((), (), (), pis, ())
        travs = []
        start = 0
        for b, side, q, ex, q2, out, steps in visits:
            if b == i:
                travs.append(Traversal(side + ex, start, start + steps, out,
                                       q, q2))
            start += steps
        trs = tuple(self._tr(u2, visits[c][1:3]) for c in cuts)
        crossing = [k for k, tr in enumerate(travs)
                    if tr.kind in ("LR", "RL")]
        return RunDecomposition(tuple(travs), tuple((k,) for k in crossing),
                                tuple(travs[k].start for k in crossing),
                                pis, trs)


def rho(t: TwoWayTransducer, u1, u2, u3) -> Word:
    """Iteration-stable output prefix: the run's output up to the first
    anchor whose component emits when pumped, or the whole output when
    no component does.  Values and exceptions are those of decompose,
    read off the same block walk (see BlockSummaries)."""
    return BlockSummaries(t).rho(as_word(u1), as_word(u2), as_word(u3))

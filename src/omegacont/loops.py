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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .twoway import FiniteRun, TwoWayTransducer, run_finite
from .words import Word, as_word

Exit = Optional[Tuple[str, object, bool]]  # (side, state, emitted) or None


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
    trs = []
    for i in range(1, k + 1):
        seg2 = _out(run2, cuts2[i], cuts2[i + 1])
        pi = pis[i]
        if pi and seg2[len(seg2) - len(pi):] != pi:
            raise RuntimeError("pumping alignment failed: no common suffix")
        trs.append(seg2[:len(seg2) - len(pi)])

    components = tuple((travs1.index(c),) for c in cross1)
    return RunDecomposition(tuple(travs1), components, tuple(anchors1),
                            tuple(pis), tuple(trs))


def rho(t: TwoWayTransducer, u1, u2, u3) -> Word:
    """Iteration-stable output prefix: the run's output up to the first
    anchor whose component emits when pumped, or the whole output when
    no component does."""
    d = decompose(t, u1, u2, u3)
    out = list(d.pi_outputs[0])
    for i, tr in enumerate(d.tr_outputs):
        if tr:
            return tuple(out)
        out.extend(d.pi_outputs[i + 1])
    return tuple(out)

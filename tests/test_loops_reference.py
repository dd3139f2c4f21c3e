"""decompose and is_idempotent against whole-run scans, and behavior
against direct simulation.

loops reads every run off block walks (loops.BlockSummaries).  The
reference functions below scan whole runs of run_finite instead
(_factor_traversals, _out): the crossing sequence of each border from
its own scan of the run, the behaviors of u2 and of u2 u2 (through
compose) compared on every traversal entry, the traversals and run
indices of decompose cut from the run's configs, and the alignment
check that the crossings of both runs agree.  Both routes must give the same answer,
the same decomposition, traversal indices included, or the same
exception, and the alignment check must never fail once idempotence
holds.  behavior must give, for every state and side, the exit that
_simulate finds by stepping the machine over the factor.
"""

import dataclasses
import itertools
import random

import pytest

from omegacont.fixtures import block_doubler
from omegacont.loops import (Exit, NotIdempotent, NotInPrefDomain,
                             RunDecomposition, Traversal, behavior, compose,
                             decompose, is_idempotent)
from omegacont.twoway import (ENDMARKER, FiniteRun, TwoWayTransducer,
                              run_finite, two_way)
from omegacont.words import Word, as_word
from test_loops import random_two_way, words_up_to


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


def _border_crossings(run: FiniteRun, p: int):
    """Ordered (direction, state) crossings of the boundary between
    cells p-1 and p."""
    seq = list(run.configs)
    if run.exit == "right_end":
        seq.append((run.exit_state, run.configs[-1][1] + 1))
    out = []
    for (s1, p1), (s2, p2) in zip(seq, seq[1:]):
        if p1 == p - 1 and p2 == p:
            out.append(("R", s2))
        elif p1 == p and p2 == p - 1:
            out.append(("L", s2))
    return out


def _idempotent_with_runs(t, u1, u2, run1, run2) -> bool:
    off = 0 if t.marked else 1
    lo = off + len(u1)
    entries = set()
    for run, copies in ((run1, 1), (run2, 2)):
        for c in range(copies):
            span = (lo + c * len(u2), lo + (c + 1) * len(u2))
            for tr in _factor_traversals(t, run, *span):
                entries.add((tr.kind[0], tr.entry_state))
    b = behavior(t, u2)
    bb = compose(b, b)
    for side, q in entries:
        m1, m2 = ((b.left_entry, bb.left_entry) if side == "L"
                  else (b.right_entry, bb.right_entry))
        if m1[q] != m2[q]:
            return False
    borders = [_border_crossings(run1, lo + i * len(u2)) for i in (0, 1)]
    borders += [_border_crossings(run2, lo + i * len(u2)) for i in (0, 1, 2)]
    return all(c == borders[0] for c in borders[1:])


def _reference_is_idempotent(t, u1, u2, u3) -> bool:
    u1, u2, u3 = as_word(u1), as_word(u2), as_word(u3)
    if not u2:
        return True
    run1 = run_finite(t, u1 + u2 + u3)
    run2 = run_finite(t, u1 + u2 + u2 + u3)
    return _idempotent_with_runs(t, u1, u2, run1, run2)


def _reference_decompose(t, u1, u2, u3) -> RunDecomposition:
    u1, u2, u3 = as_word(u1), as_word(u2), as_word(u3)
    run1 = run_finite(t, u1 + u2 + u3)
    run2 = run_finite(t, u1 + u2 + u2 + u3)
    if u2 and not _idempotent_with_runs(t, u1, u2, run1, run2):
        raise NotIdempotent(str(u2))

    if run1.exit != "right_end" or run2.exit != "right_end":
        raise NotInPrefDomain("run does not reach the right end")

    off = 0 if t.marked else 1
    lo = off + len(u1)
    travs1 = _factor_traversals(t, run1, lo, lo + len(u2))
    if not u2:
        return RunDecomposition((), (), (), (run1.output,), ())
    travs2 = _factor_traversals(t, run2, lo, lo + 2 * len(u2))

    cross1 = [tr for tr in travs1 if tr.kind in ("LR", "RL")]
    cross2 = [tr for tr in travs2 if tr.kind in ("LR", "RL")]
    if len(cross1) != len(cross2) or \
            [c.kind for c in cross1] != [c.kind for c in cross2] or \
            [c.entry_state for c in cross1] != \
            [c.entry_state for c in cross2]:
        raise RuntimeError("pumping alignment failed: crossings differ")

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


def _outcome(decomp, t, triple):
    """The decomposition, or the exception type and message."""
    try:
        return decomp(t, *triple)
    except (NotIdempotent, NotInPrefDomain, RuntimeError) as e:
        return type(e), str(e)


def _triples(alphabet, max_len=2):
    words = [w for k in range(max_len + 1)
             for w in itertools.product(sorted(alphabet), repeat=k)]
    return [(u1, u2, u3) for u1 in words for u2 in words if u2
            for u3 in words]


def _check(t, alphabet):
    idempotent = 0
    for triple in _triples(alphabet):
        want = _reference_is_idempotent(t, *triple)
        assert is_idempotent(t, *triple) == want, triple
        idempotent += want
        ref = _outcome(_reference_decompose, t, triple)
        assert ref != (RuntimeError,
                       "pumping alignment failed: crossings differ"), triple
        assert _outcome(decompose, t, triple) == ref, triple
    return idempotent


def test_block_doubler_matches_reference():
    assert _check(block_doubler(), "ab#") > 0


def _detour():
    """Every copy border of ^ y x w and ^ y x x w carries R a, L b, R c,
    yet x is not idempotent: entered from the left in c, one x exits
    right in a silently, while x x detours through the emitting a-entry
    before it exits right in a."""
    return two_way("xyw", "z", ["s", "a", "b", "c", "f"],
                   {("s", ENDMARKER, "s", "", 1), ("s", "y", "a", "", 1),
                    ("a", "x", "b", "z", -1), ("b", "y", "c", "", 1),
                    ("c", "x", "a", "", 1), ("b", "x", "c", "", 1),
                    ("a", "w", "b", "", -1), ("c", "w", "f", "", 1)},
                   "s", ["f"])


def test_equal_borders_yet_not_idempotent():
    t = _detour()
    assert not is_idempotent(t, "y", "x", "w")
    assert not _reference_is_idempotent(t, "y", "x", "w")
    assert _check(t, "xyw") > 0


def _random_machines(count=50, seed=5):
    rng = random.Random(seed)
    return [random_two_way(rng) for _ in range(count)]


@pytest.mark.parametrize("marked", [False, True])
def test_random_two_way_matches_reference(marked):
    # a marked tape has no endmarker, so an empty u1 puts the run's
    # start inside the first copy of u2, where no border is crossed
    idempotent = 0
    for t in _random_machines():
        if marked:
            t = dataclasses.replace(t, marked=True)
        idempotent += _check(t, "ab")
    assert idempotent > 0


def test_behavior_matches_simulation():
    checked = 0
    for t in [block_doubler()] + _random_machines():
        for w in words_up_to(sorted(t.alphabet), 3):
            b = behavior(t, w)
            assert b.left_entry == {q: _simulate(t, w, q, 0)
                                    for q in t.states}, w
            assert b.right_entry == {q: _simulate(t, w, q, len(w) - 1)
                                     for q in t.states}, w
            checked += 1
    assert checked == 156 + 50 * 15

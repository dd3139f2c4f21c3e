import dataclasses
import itertools
import random
from collections import Counter

import pytest

from omegacont import loops
from omegacont.fixtures import ENDMARKER, block_doubler
from omegacont.loops import (
    BlockSummaries, NotIdempotent, NotInPrefDomain, Behavior, behavior,
    compose, decompose, is_idempotent, pump_predict, rho,
)
from omegacont.twoway import run_finite, two_way
from omegacont.words import as_word


def random_two_way(rng, alphabet="ab", n_states=3):
    """Small random deterministic two-way transducer; runs may block or
    loop, callers filter on reaching the right end."""
    states = [f"q{i}" for i in range(n_states)]
    trans = set()
    for q in states:
        # endmarker transitions always move right to keep runs alive
        if rng.random() < 0.9:
            trans.add((q, ENDMARKER, rng.choice(states), "", 1))
        for a in alphabet:
            if rng.random() < 0.85:
                out = "".join(rng.choice(alphabet)
                              for _ in range(rng.randrange(3)))
                d = 1 if rng.random() < 0.7 else -1
                trans.add((q, a, rng.choice(states), out, d))
    return two_way(alphabet, alphabet, states, trans, states[0],
                   rng.sample(states, rng.randrange(1, n_states + 1)))


def words_up_to(alphabet, n):
    for k in range(n + 1):
        for w in itertools.product(alphabet, repeat=k):
            yield w


class TestBehavior:
    def test_empty_factor_is_identity(self):
        t = block_doubler()
        b = behavior(t, "")
        for q in t.states:
            assert b.left_entry[q] == ("R", q, False)
            assert b.right_entry[q] == ("L", q, False)

    def test_block_doubler_rewind_block(self):
        b = behavior(block_doubler(), "c#")
        assert b.left_entry["s1"] == ("L", "back", True)

    def test_composition_law(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(40):
            t = random_two_way(rng)
            for w1, w2 in [("a", "b"), ("ab", "a"), ("", "ab"),
                           ("ba", "ba"), ("aab", "b")]:
                direct = behavior(t, w1 + w2)
                composed = compose(behavior(t, w1), behavior(t, w2))
                assert direct == composed, (w1, w2)
                checked += 1
        assert checked >= 100

    def test_composition_associative(self):
        rng = random.Random(3)
        for _ in range(20):
            t = random_two_way(rng)
            ba, bb, bc = (behavior(t, w) for w in ("a", "ba", "ab"))
            assert compose(compose(ba, bb), bc) == compose(ba, compose(bb, bc))


class TestIdempotency:
    def test_block_doubler_values(self):
        t = block_doubler()
        assert is_idempotent(t, "ab#", "c#", "d#")
        assert is_idempotent(t, "ab#", "c", "#d#")


def idempotent_triples(t, alphabet, max_len=2, limit=30):
    """Triples accepted by decompose: idempotent in context and both
    runs reaching the right end."""
    found = []
    for u2 in words_up_to(alphabet, max_len):
        if not u2:
            continue
        for u1 in words_up_to(alphabet, max_len):
            for u3 in words_up_to(alphabet, max_len):
                if run_finite(t, u1 + u2 + u3).exit != "right_end":
                    continue
                if run_finite(t, u1 + u2 + u2 + u3).exit != "right_end":
                    continue
                if not is_idempotent(t, u1, u2, u3):
                    continue
                found.append((u1, u2, u3))
                if len(found) >= limit:
                    return found
    return found


class TestDecompose:
    def test_block_doubler_shape(self):
        d = decompose(block_doubler(), "ab#", "c#", "d#")
        kinds = [d.traversals[c[0]].kind for c in d.components]
        assert kinds == ["LR"]
        assert ["".join(x) for x in d.tr_outputs] == ["cc"]
        assert "".join(d.pi_outputs[0]) == "ababc"
        assert d.producing

    def test_component_kinds_alternate(self):
        d = decompose(block_doubler(), "ab#", "c", "#d#")
        kinds = [d.traversals[c[0]].kind for c in d.components]
        assert kinds == ["LR", "RL", "LR"]

    def test_not_idempotent_raises(self):
        # first copy of "aa" is entered in q2, later copies in q1: the
        # border crossings are not copy-invariant
        t = two_way("ab", "ab", ["q0", "q1", "q2"],
                    {("q0", ENDMARKER, "q2", "", 1),
                     ("q0", "a", "q1", "b", 1), ("q1", "a", "q0", "b", 1),
                     ("q2", "a", "q0", "a", 1)},
                    "q0", ["q0"])
        assert not is_idempotent(t, "", "aa", "")
        with pytest.raises(NotIdempotent):
            decompose(t, "", "aa", "")

    def test_pumping_identity_master(self):
        rng = random.Random(11)
        checked = 0
        machines = [block_doubler()] + [random_two_way(rng)
                                        for _ in range(25)]
        for t in machines:
            alphabet = sorted(t.alphabet - {"#"})[:2] or ["a"]
            for (u1, u2, u3) in idempotent_triples(t, alphabet, 2, 8):
                d = decompose(t, u1, u2, u3)
                for n in range(4):
                    run = run_finite(t, u1 + u2 * (n + 1) + u3)
                    if run.exit != "right_end":
                        break
                    assert pump_predict(d, n) == run.output, (u1, u2, u3, n)
                    checked += 1
        assert checked >= 100


class TestRho:
    def test_block_doubler_values(self):
        t = block_doubler()
        assert "".join(rho(t, "ab#", "c#", "d#")) == "ababc"
        assert "".join(rho(t, "ab#c#", "c#", "c#d#")) == "ababccc"

    def test_producing_loop_extends_strictly(self):
        t = block_doubler()
        r1 = rho(t, "ab#", "c#", "d#")
        r2 = rho(t, as_word("ab#") + as_word("c#"), "c#",
                 as_word("c#") + as_word("d#"))
        assert len(r2) > len(r1) and r2[:len(r1)] == r1

    def test_rho_prefix_of_pumped_outputs(self):
        t = block_doubler()
        for (u1, u2, u3) in [("ab#", "c#", "d#"), ("a#", "b#", "c#"),
                             ("", "a#", "b#")]:
            u1, u2, u3 = as_word(u1), as_word(u2), as_word(u3)
            r = rho(t, u1, u2, u3)
            for n in range(1, 6):
                out = run_finite(t, u1 + u2 * n + u3).output
                assert out[:len(r)] == r, (u1, u2, u3, n)

    def test_silent_loop_rho_is_full_output(self):
        # an all-epsilon machine: every component output is empty
        t = two_way("ab", "ab", ["q"],
                    {("q", ENDMARKER, "q", "", 1), ("q", "a", "q", "", 1),
                     ("q", "b", "q", "", 1)}, "q", ["q"])
        for n in range(1, 6):
            assert rho(t, "a", "b", "a") == \
                run_finite(t, as_word("a") + as_word("b") * n +
                           as_word("a")).output

    def test_shifted_rho_chain(self):
        t = block_doubler()
        u1, u2, u3 = as_word("ab#"), as_word("c#"), as_word("d#")
        for i in range(3):
            r = rho(t, u1 + u2 * i, u2, u2 * i + u3)
            for n in range(2 * i + 1, 2 * i + 4):
                out = run_finite(t, u1 + u2 * n + u3).output
                assert out[:len(r)] == r, (i, n)

    def test_producing_iff_some_component_emits(self):
        rng = random.Random(23)
        for t in [block_doubler()] + [random_two_way(rng) for _ in range(10)]:
            alphabet = sorted(t.alphabet - {"#"})[:2] or ["a"]
            for (u1, u2, u3) in idempotent_triples(t, alphabet, 2, 5):
                d = decompose(t, u1, u2, u3)
                pumped_gain = len(run_finite(t, u1 + u2 + u2 + u3).output) \
                    - len(run_finite(t, u1 + u2 + u3).output)
                assert d.producing == (pumped_gain > 0), (u1, u2, u3)


class TestCallOrder:
    """A BlockSummaries keeps one prefix walk per tape length and
    resumes it for every u3: its answers must not depend on the order
    of the calls."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except (NotIdempotent, NotInPrefDomain, RuntimeError) as e:
            return type(e), str(e)

    def _check(self, t, rng):
        """rho and decompose on every triple up to (2, 2, 2), shuffled
        and interleaved on one instance, against one-shot instances."""
        words = list(words_up_to(sorted(t.alphabet), 2))
        calls = [(fn, (u1, u2, u3)) for u1 in words for u2 in words
                 for u3 in words for fn in ("rho", "decompose")]
        rng.shuffle(calls)
        # Runs of calls whose prefix tapes hold the same words.  On a
        # marked tape ((), x, u3) walks the tapes x and x | x, (x, (), u3)
        # the tape x, and (x, x, u3) the tapes x | x and x | x | x.
        for x in words[1:]:
            for fn in ("rho", "decompose"):
                u3s = rng.sample(words, 4)
                calls += [(fn, ((), x, u3s[0])), (fn, (x, (), u3s[1])),
                          (fn, (x, x, u3s[2])), (fn, ((), x, u3s[3]))]
        shared = BlockSummaries(t)
        kinds = set()
        for fn, triple in calls:
            want = self._outcome(getattr(loops, fn), t, *triple)
            got = self._outcome(getattr(shared, fn), *triple)
            assert got == want, (fn, triple)
            raised = isinstance(want, tuple) and len(want) == 2 and \
                isinstance(want[0], type)
            kinds.add(want[0].__name__ if raised else "value")
        return kinds

    def test_block_doubler(self):
        # every run on a block doubler tape reaches the right end
        kinds = self._check(block_doubler(), random.Random(3))
        assert kinds == {"value", "NotIdempotent"}

    @pytest.mark.parametrize("marked", [False, True])
    def test_random_two_way(self, marked):
        rng = random.Random(7)
        kinds = set()
        for _ in range(20):
            t = random_two_way(rng)
            if marked:
                t = dataclasses.replace(t, marked=True)
            kinds |= self._check(t, rng)
        assert kinds == {"value", "NotIdempotent", "NotInPrefDomain"}


class TestCopyLemma:
    """The lemma of BlockSummaries._walks, on run_finite's runs: when
    both borders of u2 in the run on u1 u2 u3 carry the same crossing
    sequence C, the run on u1 u2 u2 u3 crosses all three copy borders
    with C and reaches the right end exactly when the first run does;
    when one u2 also exits as u2 u2 does on each entry C names, its
    stays in u2 u2 have the kinds, entry and exit states of the first
    run's visits to u2."""

    @pytest.mark.parametrize("marked", [False, True])
    def test_second_run_follows(self, marked):
        # test_loops_reference imports this module, so its run scans
        # are imported once both are loaded
        from test_loops_reference import _border_crossings, _factor_traversals
        rng = random.Random(5)
        held = Counter()
        for t in [block_doubler()] + [random_two_way(rng)
                                      for _ in range(50)]:
            if marked:
                t = dataclasses.replace(t, marked=True)
            words = list(words_up_to(sorted(t.alphabet), 2))
            behaviors = {}
            for u1, u2, u3 in itertools.product(words, words[1:], words):
                lo = len(u1) + (0 if marked else 1)
                run1 = run_finite(t, u1 + u2 + u3)
                cross = _border_crossings(run1, lo)
                if _border_crossings(run1, lo + len(u2)) != cross:
                    continue
                run2 = run_finite(t, u1 + u2 + u2 + u3)
                for k in range(3):
                    assert _border_crossings(run2, lo + k * len(u2)) == \
                        cross, (u1, u2, u3, k)
                assert (run2.exit == "right_end") == \
                    (run1.exit == "right_end"), (u1, u2, u3)
                held[run1.exit, bool(cross)] += 1
                if u2 not in behaviors:
                    behaviors[u2] = behavior(t, u2), behavior(t, u2 + u2)
                one, two = behaviors[u2]
                if any(one.left_entry[q] != two.left_entry[q] if d == "R"
                       else one.right_entry[q] != two.right_entry[q]
                       for d, q in cross):
                    continue
                visits, stays = (
                    [(tr.kind, tr.entry_state, tr.exit_state)
                     for tr in _factor_traversals(t, run, lo, lo + n)]
                    for run, n in ((run1, len(u2)), (run2, 2 * len(u2))))
                assert stays == visits, (u1, u2, u3)
                held["stable"] += 1
        # the lemma is met on runs that cross u2 and end in each way
        assert held["right_end", True] and held["looped", True] and \
            held["blocked", True] and held["stable"]

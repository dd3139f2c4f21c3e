import itertools
import random

import pytest

from omegacont.buchi import (
    BuchiAutomaton, _ambiguous_word, accepts_some, all_up_words, buchi,
    closure, find_lasso, is_empty, lasso_word, member_up, pref_automaton,
    product, trim,
)
from omegacont.textio import FIXTURE_NAMES, fixture_path, parse_spec
from omegacont.twoway import TwoWayPLA, two_way_pla
from omegacont.words import as_word, up_word


def member_oracle(b, x, from_states=None):
    """Reference UP membership: build the explicit product of b with the
    position graph of x and decide via transitive closure."""
    p, q = len(x.prefix), len(x.period)
    n = p + q

    def nxt(i):
        return i + 1 if i + 1 < n else p

    nodes = [(s, i) for s in b.states for i in range(n)]
    idx = {v: k for k, v in enumerate(nodes)}
    reach = [[False] * len(nodes) for _ in nodes]
    for (s, i) in nodes:
        for r in b.successors(s, x[i]):
            reach[idx[(s, i)]][idx[(r, nxt(i))]] = True
    for k in range(len(nodes)):
        for i in range(len(nodes)):
            if reach[i][k]:
                for j in range(len(nodes)):
                    if reach[k][j]:
                        reach[i][j] = True
    starts = b.initial if from_states is None else set(from_states)
    for (s, i) in nodes:
        if s not in b.final:
            continue
        j = idx[(s, i)]
        if not reach[j][j]:
            continue
        if any(st == s and i == 0 or reach[idx[(st, 0)]][j]
               for st in starts):
            return True
    return False


def random_buchi(rng, n_states=3, alphabet="ab", density=0.5):
    states = [f"q{i}" for i in range(n_states)]
    trans = {(q, a, r) for q in states for a in alphabet for r in states
             if rng.random() < density}
    initial = {rng.choice(states)}
    final = {q for q in states if rng.random() < 0.5} or {states[0]}
    return buchi(set(alphabet), states, trans, initial, final)


def ab_star_b_omega():
    """a* b^omega"""
    return buchi("ab", ["s", "f"],
                 {("s", "a", "s"), ("s", "b", "f"), ("f", "b", "f")},
                 ["s"], ["f"])


def inf_a():
    """words over {a,b} with infinitely many a's"""
    return buchi("ab", ["x", "y"],
                 {("x", "a", "y"), ("x", "b", "x"),
                  ("y", "a", "y"), ("y", "b", "x")},
                 ["x"], ["y"])


SAMPLES = [up_word(u, v)
           for u in ["", "a", "b", "ab", "ba", "aab"]
           for v in ["a", "b", "ab", "ba", "ab" "bb"]]


class TestMemberUp:
    def test_known_language(self):
        b = ab_star_b_omega()
        assert member_up(b, up_word("aa", "b"))
        assert member_up(b, up_word("", "b"))
        assert not member_up(b, up_word("", "a"))
        assert not member_up(b, up_word("b", "ab"))

    def test_from_states(self):
        b = ab_star_b_omega()
        assert member_up(b, up_word("", "b"), from_states=["f"])
        assert not member_up(b, up_word("a", "b"), from_states=["f"])

    def test_against_oracle_random(self):
        rng = random.Random(7)
        for _ in range(40):
            b = random_buchi(rng)
            for x in SAMPLES:
                assert member_up(b, x) == member_oracle(b, x), (b, x)


class TestEmptiness:
    def test_nonempty_returns_valid_lasso(self):
        rng = random.Random(11)
        seen_nonempty = 0
        for _ in range(60):
            b = random_buchi(rng)
            lasso = accepts_some(b)
            assert is_empty(b) == (lasso is None)
            if lasso is not None:
                seen_nonempty += 1
                assert member_up(b, lasso_word(lasso))
        assert seen_nonempty > 10

    def test_empty_cases(self):
        b = buchi("a", ["q", "f"], {("q", "a", "q")}, ["q"], ["f"])
        assert is_empty(b)
        b2 = buchi("a", ["f"], set(), ["f"], ["f"])
        assert is_empty(b2)  # final but no cycle


class TestTrim:
    def test_preserves_language(self):
        rng = random.Random(13)
        for _ in range(40):
            b = random_buchi(rng, n_states=4)
            t = trim(b)
            for x in SAMPLES:
                assert member_up(b, x) == member_up(t, x)

    def test_every_state_useful(self):
        rng = random.Random(17)
        for _ in range(40):
            t = trim(random_buchi(rng, n_states=4))
            for q in t.states:
                assert member_oracle_any_suffix(t, q)


def member_oracle_any_suffix(t, q):
    """q is useful: some accepting lasso is reachable from q."""
    def succ(s):
        return [(a, r) for (p, a, r) in t.transitions if p == s]
    return find_lasso([q], succ, lambda s: s in t.final) is not None


class TestProduct:
    def test_intersection_semantics(self):
        rng = random.Random(19)
        for _ in range(25):
            b1 = random_buchi(rng)
            b2 = random_buchi(rng)
            pr = product(b1, b2)
            for x in SAMPLES:
                assert member_up(pr, x) == (member_up(b1, x)
                                            and member_up(b2, x))

    def test_requires_both_final_sets_infinitely_often(self):
        # First component accepts everything, second needs infinitely
        # many a's; a^n b^omega must be rejected by the product.
        b1 = buchi("ab", ["u"],
                   {("u", "a", "u"), ("u", "b", "u")}, ["u"], ["u"])
        pr = product(b1, inf_a())
        assert member_up(pr, up_word("", "a"))
        assert not member_up(pr, up_word("a", "b"))


class TestClosurePrefixes:
    def test_closure_of_a_star_b_omega_contains_a_omega(self):
        c = closure(ab_star_b_omega())
        assert member_up(c, up_word("", "a"))
        assert member_up(c, up_word("a", "b"))
        assert not member_up(c, up_word("b", "a"))
        assert not member_up(c, up_word("ab", "a"))

    def test_closure_contains_original_and_is_idempotent(self):
        rng = random.Random(23)
        for _ in range(20):
            b = random_buchi(rng)
            c = closure(b)
            cc = closure(c)
            for x in SAMPLES:
                if member_up(b, x):
                    assert member_up(c, x)
                assert member_up(c, x) == member_up(cc, x)

    def test_closure_accepts_exactly_all_prefixes_extendable(self):
        b = ab_star_b_omega()
        c = closure(b)
        pref = pref_automaton(b)
        # x in closure iff every prefix of x is a prefix of the language
        for x in SAMPLES:
            ok = all(pref.accepts(x.take(n)) for n in range(10))
            assert member_up(c, x) == ok, x

    def test_pref_automaton_enumeration(self):
        pref = pref_automaton(ab_star_b_omega())
        for n in range(7):
            for w in itertools.product("ab", repeat=n):
                # prefixes of a*b^omega are a^i b^j
                expect = all(a == "b" for a in w[w.index("b"):]) \
                    if "b" in w else True
                assert pref.accepts(w) == expect


class TestProphetic:
    """A look-ahead is refused when it is built if some word has two
    accepting runs (_ambiguous_word), and only then."""

    def test_good_lookahead_passes(self):
        lookaheads = 0
        for name in FIXTURE_NAMES:
            with open(fixture_path(name), encoding="utf-8") as f:
                m = parse_spec(f.read()).machine
            if isinstance(m, TwoWayPLA):
                assert _ambiguous_word(m.lookahead.automaton) is None, name
                lookaheads += 1
        assert lookaheads == 3

    def test_ambiguity_detected(self):
        # Two states both accept b^omega.
        b = buchi("b", ["x", "y"],
                  {("x", "b", "x"), ("y", "b", "y")}, [], ["x", "y"])
        assert str(_ambiguous_word(b)) == "(b)"
        with pytest.raises(ValueError, match=r"^look-ahead is not "
                           r"prophetic: \(b\) has two accepting runs$"):
            two_way_pla("b", "b", ["q"], {("q", "^", "x", "q", "b", 1)},
                        "q", b)

    def test_single_run_codeterministic(self):
        b = buchi("ab", ["x", "y"],
                  {("x", "a", "y"), ("y", "b", "x")}, [], ["x"])
        assert _ambiguous_word(b) is None
        t = two_way_pla("ab", "a", ["q"], {("q", "a", "x", "q", "a", 1)},
                        "q", b)
        assert t.lookahead.automaton is b

    def test_word_independent_of_string_hashing(self):
        # (a) has two runs, from x and from y, and so has (b), from u
        # and from v; states and edges are taken in repr order, so the
        # search names (b) whatever the string hash seed
        b = buchi("ab", ["x", "y", "u", "v"],
                  {("x", "a", "x"), ("y", "a", "y"),
                   ("u", "b", "u"), ("v", "b", "v")},
                  [], ["x", "y", "u", "v"])
        assert _ambiguous_word(b) == up_word("", "b")

    def test_all_up_words_canonical_and_complete(self):
        ws = list(all_up_words("ab", 1, 2))
        assert len(ws) == len(set(ws))
        assert up_word("", "a") in ws
        assert up_word("b", "ab") in ws
        assert all(len(x.prefix) <= 1 and len(x.period) <= 2 for x in ws)

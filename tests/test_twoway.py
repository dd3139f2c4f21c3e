import random

import pytest

from omegacont import buchi, cli
from omegacont.buchi import all_up_words, is_empty, member_up, trim
from omegacont.fixtures import (
    ENDMARKER, block_doubler, p_letter_count, p_suffix_shape,
    prefix_doubler_2way, stem_doubler, tail_classifier_2way,
)
from omegacont.lookahead import (
    MultipleStates, NoState, eliminate_lookahead, good_annotation,
)
from omegacont.stream_eval import stream_feed, stream_start, stream_step
from omegacont.textio import fixture_path, parse_spec
from omegacont.twoway import (
    DomainOracle, NotInDomain, Output, StateCapExceeded, eval_up_2way,
    domain_nba, run_finite, two_way, two_way_to_nba,
)
from omegacont.words import UPWord, up_equal, up_word, words_up_to

from test_buchi import random_buchi
from test_loops import random_two_way


def word_str(w):
    return "".join(w)


class TestRunFinite:
    def test_block_doubler_traces(self):
        t = block_doubler()
        r = run_finite(t, "ab#")
        assert word_str(r.output) == "abab"
        assert r.exit == "right_end" and r.exit_state == "s1"
        r = run_finite(t, "ab#c#")
        assert word_str(r.output) == "ababcc"
        assert r.exit == "right_end"

    def test_partial_block_copies_once(self):
        t = block_doubler()
        r = run_finite(t, "ab#c")
        assert word_str(r.output) == "ababc"
        assert r.exit == "right_end"

    def test_blocked_on_undefined(self):
        t = two_way("ab", "ab", ["q"], {("q", ENDMARKER, "q", "", 1),
                                        ("q", "a", "q", "a", 1)},
                    "q", ["q"])
        r = run_finite(t, "ab")
        assert r.exit == "blocked"
        assert word_str(r.output) == "a"

    def test_looped_on_oscillation(self):
        t = two_way("a", "a", ["q", "p"],
                    {("q", ENDMARKER, "q", "", 1), ("q", "a", "p", "", -1),
                     ("p", ENDMARKER, "q", "", 1)},
                    "q", ["q"])
        assert run_finite(t, "aa").exit == "looped"


def j_reference(x):
    """Closed form of the stem doubler: j(u a b^omega) = u u b^omega,
    j(b^omega) = b^omega, undefined on words with infinitely many a's."""
    if "a" in x.period:
        return None
    u = x.prefix
    while u and u[-1] == "b":
        u = u[:-1]
    if not u:
        return up_word("", "b")
    return up_word(u[:-1] + u[:-1], "b")


class TestEvalUp2Way:
    def test_block_doubler_values(self):
        t = block_doubler()
        got = eval_up_2way(t, up_word("ab#c#", "d#"))
        assert isinstance(got, Output)
        assert up_equal(got.value, up_word("ababcc", "dd"))
        got = eval_up_2way(t, up_word("", "a#"))
        assert isinstance(got, Output)
        assert up_equal(got.value, up_word("", "aa"))

    def test_block_doubler_rejections(self):
        t = block_doubler()
        assert isinstance(eval_up_2way(t, up_word("", "a")), NotInDomain)
        # empty blocks accept but emit nothing
        r = eval_up_2way(t, up_word("", "#"))
        assert r == NotInDomain("finite-output")

    def test_stem_doubler_values(self):
        j = stem_doubler()
        got = eval_up_2way(j, up_word("aab", "b"))
        assert isinstance(got, Output)
        assert up_equal(got.value, up_word("aa", "b"))
        got = eval_up_2way(j, up_word("", "b"))
        assert isinstance(got, Output)
        assert up_equal(got.value, up_word("", "b"))
        assert isinstance(eval_up_2way(j, up_word("", "ab")), NotInDomain)

    def test_stem_doubler_matches_closed_form(self):
        j = stem_doubler()
        for x in all_up_words("ab", 4, 3):
            got = eval_up_2way(j, x)
            want = j_reference(x)
            if want is None:
                assert isinstance(got, NotInDomain), x
            else:
                assert isinstance(got, Output), x
                assert up_equal(got.value, want), x

    def test_tail_classifier_matches_closed_form(self):
        f = tail_classifier_2way()
        for x in all_up_words("ab", 3, 3):
            got = eval_up_2way(f, x)
            want = up_word("", "a" if "a" in x.period else "b")
            assert isinstance(got, Output), x
            assert up_equal(got.value, want), x


class TestGoodAnnotation:
    def test_frozen_values(self):
        p = p_suffix_shape()
        ann = good_annotation(p, up_word((ENDMARKER, "a"), ("b",)))
        assert ann.prefix == ((ENDMARKER, "p1"), ("a", "p4"))
        assert ann.period == (("b", "p5"),)
        ann = good_annotation(p, up_word((ENDMARKER,), ("b",)))
        assert ann.prefix == ((ENDMARKER, "p2"),)

    def test_no_state(self):
        p = p_suffix_shape()
        # c is not in the look-ahead's alphabet
        with pytest.raises(NoState):
            good_annotation(p, up_word((ENDMARKER,), ("c",)))

    def test_multiple_states(self):
        from omegacont.buchi import buchi
        b = buchi("b", ["x", "y"], {("x", "b", "x"), ("y", "b", "y")},
                  [], ["x", "y"])
        with pytest.raises(MultipleStates):
            good_annotation(b, up_word("", "b"))


def _reference_good_annotation(p, x: UPWord) -> UPWord:
    """good_annotation as it read before the backward pass: one
    member_up per (position, look-ahead state)."""
    pre, per = x.prefix, x.period
    n = len(pre) + len(per)

    def suffix_at(i: int) -> UPWord:
        if i < len(pre):
            return UPWord(pre[i:], per)
        j = i - len(pre)
        return UPWord(per[j:], per)

    states = []
    for i in range(n):
        sfx = suffix_at(i)
        fitting = [q for q in p.states if member_up(p, sfx, from_states=[q])]
        if not fitting:
            raise NoState(str(sfx))
        if len(fitting) > 1:
            raise MultipleStates(f"{sfx}: {sorted(map(str, fitting))}")
        states.append(fitting[0])
    ann = tuple((x[i], states[i]) for i in range(n))
    return UPWord(ann[:len(pre)], ann[len(pre):])


class TestGoodAnnotationReference:
    """The backward pass against the per-position member_up scan, on
    every endmarked UP word up to (3, 3): the annotation, or the same
    exception with the same message."""

    @staticmethod
    def _outcome(fn, p, x):
        try:
            return fn(p, x)
        except (NoState, MultipleStates) as e:
            return type(e), str(e)

    def _check(self, p, alphabet):
        kinds = set()
        for x in all_up_words(alphabet, 3, 3):
            marked = up_word((ENDMARKER,) + x.prefix, x.period)
            want = self._outcome(_reference_good_annotation, p, marked)
            assert self._outcome(good_annotation, p, marked) == want, x
            kinds.add(want[0].__name__ if isinstance(want, tuple)
                      else "value")
        return kinds

    def test_fixtures(self):
        kinds = set()
        for t in (stem_doubler(), tail_classifier_2way(),
                  prefix_doubler_2way()):
            kinds |= self._check(t.lookahead.automaton, sorted(t.alphabet))
        assert kinds == {"value", "NoState"}

    def test_not_prophetic(self):
        # f_inf's look-ahead with A8 a A8 replaced by B7 a A8 (see
        # tests/test_cli.py TestNotProphetic), built on its own: a
        # machine file with it is refused when it is loaded
        with open(fixture_path("f_inf"), encoding="utf-8") as f:
            la = parse_spec(f.read()).machine.lookahead.automaton
        assert ("A8", "a", "A8") in la.transitions
        p = buchi.buchi(la.alphabet, la.states,
                        (la.transitions - {("A8", "a", "A8")})
                        | {("B7", "a", "A8")}, la.initial, la.final)
        kinds = self._check(p, "ab")
        assert kinds == {"value", "MultipleStates"}


class TestPeriodStates:
    """good_annotation reads the states accepting a period off the
    look-ahead automaton's table, which fills each period once from the
    period's one-step relation."""

    def test_table_matches_member_up(self):
        automata = [(t.lookahead.automaton, sorted(t.alphabet))
                    for t in (stem_doubler(), tail_classifier_2way(),
                              prefix_doubler_2way())]
        rng = random.Random(5)
        automata += [(random_buchi(rng, 2 + s % 4, "ab",
                                   (0.2, 0.35, 0.5)[s % 3]), "ab")
                     for s in range(300)]
        queries = accepting = 0
        for p, letters in automata:
            for per in words_up_to(letters, 1, 4):
                x = UPWord((), per)
                want = {q for q in p.states
                        if member_up(p, x, from_states=[q])}
                assert p.period_states(per) == want, (p, per)
                queries += 1
                accepting += bool(want)
        assert queries > 9_000 and 1_000 < accepting < queries

    def test_mismatch_searches_each_period_once(self, monkeypatch, capsys):
        fills = []
        fill = buchi.BuchiAutomaton._accepting_period

        def counted(self, period):
            fills.append(period)
            return fill(self, period)

        monkeypatch.setattr(buchi.BuchiAutomaton, "_accepting_period",
                            counted)
        code = cli.main(["mismatch", fixture_path("t_c_2way"), "aa", "a"])
        assert (code, capsys.readouterr().out) == (
            2, "unknown up to ext-bound 4\n")
        # 105 distinct periods, one table fill each
        assert 0 < len(fills) <= 105
        assert len(set(fills)) == len(fills)


class TestEliminateLookahead:
    def test_agrees_with_direct_evaluation(self):
        j = stem_doubler()
        elim = eliminate_lookahead(j)
        p = j.lookahead.automaton
        checked = 0
        for x in all_up_words("ab", 6, 2):
            direct = eval_up_2way(j, x)
            if not isinstance(direct, Output):
                continue
            marked = up_word((ENDMARKER,) + x.prefix, x.period)
            ann = good_annotation(p, marked)
            via = eval_up_2way(elim, ann)
            assert isinstance(via, Output), x
            assert up_equal(via.value, direct.value), x
            checked += 1
        assert checked >= 50

    def test_corrupted_annotation_rejected(self):
        j = stem_doubler()
        elim = eliminate_lookahead(j)
        p = j.lookahead.automaton
        ann = good_annotation(p, up_word((ENDMARKER, "a", "a", "b"), ("b",)))
        assert ann.prefix[0] == (ENDMARKER, "p1")
        bad = UPWord(((ENDMARKER, "p2"),) + ann.prefix[1:], ann.period)
        assert isinstance(eval_up_2way(elim, bad), NotInDomain)


class TestTwoWayToNba:
    def test_scan_right_is_universal(self):
        t = two_way("ab", "a",
                    ["q"], {("q", ENDMARKER, "q", "", 1),
                            ("q", "a", "q", "", 1), ("q", "b", "q", "", 1)},
                    "q", ["q"])
        b = two_way_to_nba(t)
        for x in all_up_words("ab", 2, 2):
            assert member_up(b, x), x

    def test_unreachable_finals_empty(self):
        t = two_way("a", "a",
                    ["q", "f"], {("q", ENDMARKER, "q", "", 1),
                                 ("q", "a", "q", "", 1)},
                    "q", ["f"])
        assert is_empty(two_way_to_nba(t))

    def test_state_cap(self):
        t = block_doubler()
        with pytest.raises(StateCapExceeded):
            two_way_to_nba(t, nba_state_cap=2)

    def test_state_cap_counts_initial_states(self):
        # 8 initial states and no others: the cap counts every state
        # expanded, initial ones included
        t = random_two_way(random.Random(308), "ab", 2 + 308 % 3)
        b = two_way_to_nba(t)
        assert len(b.initial) == len(b.states) == 8
        with pytest.raises(StateCapExceeded):
            two_way_to_nba(t, nba_state_cap=5)
        assert len(two_way_to_nba(t, nba_state_cap=8).states) == 8

    def test_domain_matches_evaluation(self):
        t = block_doubler()
        d = trim(domain_nba(t))
        for x in all_up_words("ab#", 2, 3):
            want = isinstance(eval_up_2way(t, x), Output)
            assert member_up(d, x) == want, x

    def test_domain_examples(self):
        d = domain_nba(block_doubler())
        assert member_up(d, up_word("a#", "b#"))
        assert member_up(d, up_word("", "a#"))
        assert not member_up(d, up_word("#", "a"))
        assert not member_up(d, up_word("", "a"))
        # accepting but silent: empty blocks only
        assert not member_up(d, up_word("", "#"))


class TestFStar:
    """The finite-prefix function f_*: a plain two-way stream commits
    the run's output on the consumed prefix."""

    def test_prefix_outputs(self):
        t = block_doubler()
        cases = {"": "", "a": "a", "ab": "ab", "ab#": "abab",
                 "a#b": "aab", "aa#": "aaaa"}
        for w, out in cases.items():
            s, _ = stream_feed(t, w)
            assert s.oracle is None or s.oracle.exact
            assert word_str(s.committed) == out, w

    def test_prefix_limit_chain(self):
        # f_*(prefixes) form a chain converging to the full image
        t = block_doubler()
        x = up_word("ab#c#", "d#")
        full = eval_up_2way(t, x)
        assert isinstance(full, Output)
        s = stream_start(t)
        for a in x.take(20):
            prev = s.committed
            s, emitted = stream_step(s, a)
            assert s.committed == prev + emitted
            assert full.value.take(len(s.committed)) == s.committed

    def test_fallback_oracle_sound(self):
        t = block_doubler()
        orc = DomainOracle(t, state_cap=1, ext_bound=3)
        assert not orc.exact
        assert orc.pref_member("ab#")
        s = stream_start(t)
        for a in "ab#":
            s, _ = stream_step(s, a, state_cap=1, ext_bound=3)
        assert not s.oracle.exact
        assert word_str(s.committed) == "abab"

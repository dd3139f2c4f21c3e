import dataclasses
import random

import pytest

from omegacont import cli, continuity_regular, lookahead, loops, twoway
from omegacont.continuity_regular import (
    NoWitnessUpTo, NotContinuous, RegularWitness, SearchBounds, _apply,
    _PlainSpace, alphabet_automorphisms, search_witness, verify_witness,
)
from omegacont.fixtures import (
    ENDMARKER, block_doubler, prefix_doubler, prefix_doubler_2way,
    stem_doubler, tail_classifier, tail_classifier_2way,
)
from omegacont.oneway import decide_continuity
from omegacont.textio import fixture_path
from omegacont.twoway import TwoWayTransducer, two_way
from omegacont.words import up_equal, up_word, words_up_to
from test_loops import random_two_way


def tail_switch():
    """Plain two-way machine, continuous but not uniformly so:
    f(a^n b^omega) = b^omega and f(a^n c^omega) = c^omega, silent on
    the a-prefix."""
    E = ENDMARKER
    return two_way("abc", "bc", ["s", "B", "C"],
                   {("s", E, "s", "", 1), ("s", "a", "s", "", 1),
                    ("s", "b", "B", "b", 1), ("B", "b", "B", "b", 1),
                    ("s", "c", "C", "c", 1), ("C", "c", "C", "c", 1)},
                   "s", ["B", "C"])


def projection(w):
    return tuple(s[0] for s in w)


class TestSearchWitness:
    def test_tail_classifier_not_continuous(self):
        t = tail_classifier_2way()
        got = search_witness(t, "cont", SearchBounds(2, 2, 2))
        assert isinstance(got, NotContinuous)
        w = got.witness
        assert projection(w.u1) == projection(w.u1p)
        assert projection(w.u2) == projection(w.u2p)
        # the two annotations disagree on whether a's run out
        assert w.u1[0] != w.u1p[0]
        assert verify_witness(t, w, 6)

    def test_stem_doubler_not_continuous(self):
        t = stem_doubler()
        got = search_witness(t, "cont", SearchBounds(3, 2, 3))
        assert isinstance(got, NotContinuous)
        w = got.witness
        # the families converge to a b^omega, which is in the domain
        limit = up_word(projection(w.u1)[1:], projection(w.u2))
        assert up_equal(limit, up_word("a", "b"))
        assert verify_witness(t, w, 6)

    def test_block_doubler_no_witness(self):
        got = search_witness(block_doubler(), "cont", SearchBounds(3, 3, 3))
        assert isinstance(got, NoWitnessUpTo)
        assert got.pref_exact

    def test_cont_witness_is_ucont_witness(self):
        t = tail_classifier_2way()
        got = search_witness(t, "cont", SearchBounds(2, 2, 2))
        relaxed = dataclasses.replace(got.witness, variant="ucont")
        assert verify_witness(t, relaxed, 6)

    def test_continuous_but_not_uniformly(self):
        t = tail_switch()
        got = search_witness(t, "ucont", SearchBounds(2, 1, 1))
        assert isinstance(got, NotContinuous)
        w = got.witness
        assert w.u2 == w.u2p == ("a",)
        assert {w.u3, w.u3p} == {("b",), ("c",)}
        assert verify_witness(t, w, 6)
        # but along domain limits the outputs agree: no cont witness
        got = search_witness(t, "cont", SearchBounds(2, 2, 2))
        assert isinstance(got, NoWitnessUpTo)

    def test_plain_cont_not_searched(self, monkeypatch, capsys):
        # a plain machine is continuous: "cont" walks no block and
        # evaluates no word, and answers as the search did
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(loops.BlockSummaries, "_walk", counted(
            "_walk", loops.BlockSummaries._walk))
        for module in (twoway, continuity_regular):
            monkeypatch.setattr(module, "eval_up_2way", counted(
                "eval_up_2way", twoway.eval_up_2way))
        got = search_witness(block_doubler(), "cont")
        assert repr(got) == ("NoWitnessUpTo(bounds=SearchBounds(max_len_u1=3, "
                             "max_len_u2=3, max_len_u3=3, verify_n=4), "
                             "pref_exact=True)")
        code = cli.main(["check-cont", fixture_path("dbl")])
        assert (code, capsys.readouterr().out) == (
            2, "no witness up to bounds 3,3,3\n")
        assert calls == []

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            search_witness(block_doubler(), "both", SearchBounds(1, 1, 1))
        with pytest.raises(ValueError):
            SearchBounds(0, 1, 1)


class TestVerifyWitness:
    def witness(self):
        t = tail_classifier_2way()
        return t, search_witness(t, "cont", SearchBounds(2, 2, 2)).witness

    def test_position_past_rho_rejected(self):
        t, w = self.witness()
        assert not verify_witness(t, dataclasses.replace(
            w, mismatch_position=99), 4)

    def test_projection_mismatch_rejected(self):
        t, w = self.witness()
        assert not verify_witness(t, dataclasses.replace(
            w, u1p=w.u1p + w.u2p), 4)

    def test_inconsistent_annotation_rejected(self):
        t, w = self.witness()
        # annotate the primed family like the unprimed one: rho values
        # then agree, and the annotation chain fails Pref membership
        assert not verify_witness(t, dataclasses.replace(
            w, u1p=w.u1, u2p=w.u2, u3p=w.u3), 4)

    def test_empty_loop_rejected(self):
        t, w = self.witness()
        assert not verify_witness(t, dataclasses.replace(
            w, u2=(), u2p=()), 4)

    def test_plain_cont_witness_rejected(self):
        # dbl is not uniformly continuous, but it is continuous
        t = block_doubler()
        w = search_witness(t, "ucont").witness
        assert verify_witness(t, w)
        assert not verify_witness(t, dataclasses.replace(w, variant="cont"))


class TestOneWayConsistency:
    def test_tail_classifier_agrees(self):
        assert decide_continuity(tail_classifier(), "cont") is not None
        got = search_witness(tail_classifier_2way(), "cont",
                             SearchBounds(2, 2, 2))
        assert isinstance(got, NotContinuous)

    def test_prefix_doubler_agrees(self):
        assert decide_continuity(prefix_doubler(), "cont") is None
        got = search_witness(prefix_doubler_2way(), "cont",
                             SearchBounds(3, 3, 3))
        assert isinstance(got, NoWitnessUpTo)
        got = search_witness(prefix_doubler_2way(), "ucont",
                             SearchBounds(2, 2, 2))
        assert isinstance(got, NoWitnessUpTo)


class TestAutomorphisms:
    def test_block_doubler_group(self):
        autos = alphabet_automorphisms(block_doubler())
        # all permutations of the four letters, # pinned
        assert len(autos) == 24
        assert all(m["#"] == "#" for m in autos)

    def test_asymmetric_machine_identity_only(self):
        autos = alphabet_automorphisms(tail_switch())
        assert len(autos) == 1

    def test_groups_match_min_over_automorphisms(self):
        # the orbit representative is the least image of the pair
        def by_min(space, bounds):
            pairs = [(u1, u2)
                     for u1 in words_up_to(space.letters, 0,
                                           bounds.max_len_u1)
                     for u2 in words_up_to(space.letters, 1,
                                           bounds.max_len_u2)
                     if min((_apply(m, u1), _apply(m, u2))
                            for m in space.autos) == (u1, u2)]
            pairs.sort(key=lambda p: (len(p[0]) + len(p[1]), p))
            return [(p, [p]) for p in pairs]

        rng = random.Random(13)
        machines = [block_doubler()]
        for _ in range(20):
            t = random_two_way(rng)
            machines += [t, _swap_symmetric(t)]
        symmetric = 0
        for t in machines:
            space = _PlainSpace(t)
            symmetric += len(space.autos) > 1
            for bounds in (SearchBounds(3, 3, 1), SearchBounds(1, 3, 2),
                           SearchBounds(2, 1, 3)):
                assert list(space.groups(bounds)) == by_min(space, bounds)
        assert symmetric > 20


class TestWorkDone:
    """The search finds each fact once, and only when it needs it."""

    def test_plain_cont_finds_no_automorphism(self, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return alphabet_automorphisms(t)

        monkeypatch.setattr(continuity_regular, "alphabet_automorphisms",
                            counted)
        got = search_witness(block_doubler(), "cont")
        assert isinstance(got, NoWitnessUpTo)
        assert calls == []

    def test_ucont_stops_at_first_pair(self, monkeypatch):
        # the witness lies in the first group, (), (#): no automorphism
        # is applied to a word of a longer pair
        lengths = []

        def counted(m, w):
            lengths.append(len(w))
            return _apply(m, w)

        monkeypatch.setattr(continuity_regular, "_apply", counted)
        got = search_witness(block_doubler(), "ucont")
        assert repr(got) == (
            "NotContinuous(witness=RegularWitness(u1=(), u2=('#',), "
            "u3=('#', 'a'), u1p=(), u2p=('#',), u3p=('#', 'b'), "
            "mismatch_position=0, variant='ucont'), pref_exact=True)")
        assert lengths and max(lengths) <= 1

    @pytest.mark.parametrize("make", [stem_doubler, prefix_doubler_2way],
                             ids=["j", "t_c_2way"])
    def test_each_limit_evaluated_once(self, make, monkeypatch):
        limits = []

        def counted(t, x):
            limits.append(x)
            return evaluate(t, x)

        evaluate = continuity_regular.eval_up_2way
        monkeypatch.setattr(continuity_regular, "eval_up_2way", counted)
        search_witness(make(), "cont")
        assert limits
        assert len(limits) == len(set(limits))


def _swap_symmetric(t: TwoWayTransducer) -> TwoWayTransducer:
    """t with its b-moves replaced by the mirror images of its a-moves,
    so that swapping a and b is an automorphism."""
    swap = {"a": "b", "b": "a"}
    delta = {k: v for k, v in t.delta.items() if k[1] != "b"}
    for (q, a), (r, g, d) in t.delta.items():
        if a == "a":
            delta[(q, "b")] = (r, tuple(swap[c] for c in g), d)
    return dataclasses.replace(t, delta=delta)


class TestLookAheadElimination:
    @pytest.mark.parametrize("make", [stem_doubler, tail_classifier_2way,
                                      prefix_doubler_2way],
                             ids=["j", "f_inf", "t_c_2way"])
    def test_one_elimination_per_machine(self, make, monkeypatch):
        built = []

        def counted(t):
            built.append(t)
            return eliminate(t)

        eliminate = lookahead.eliminate_lookahead
        monkeypatch.setattr(lookahead, "eliminate_lookahead", counted)
        t = make()
        for variant in ("cont", "ucont"):
            search_witness(t, variant)
        assert built == [t]
        assert t.eliminated == eliminate(make())

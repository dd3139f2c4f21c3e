"""End-to-end acceptance checks.  Each class exercises one release
criterion; everything here must stay fast enough for a laptop run."""

import io
import itertools
import random

import pytest

from omegacont import fixtures as fx
from omegacont.buchi import (all_up_words, buchi, closure, member_up,
                             pref_automaton)
from omegacont.cli import main as cli_main
from omegacont.continuity_regular import (NoWitnessUpTo, NotContinuous,
                                          SearchBounds, search_witness,
                                          verify_witness)
from omegacont.lookahead import eliminate_lookahead, good_annotation
from omegacont.loops import (NotIdempotent, NotInPrefDomain, decompose,
                             is_idempotent, pump_predict, rho)
from omegacont.oneway import decide_continuity, eval_up
from omegacont.oracle import (BadPairFound, brute_force_check,
                              random_instance, recheck_bad_pair)
from omegacont.stream_eval import mismatch_exists, stream_start, stream_step
from omegacont.textio import fixture_path
from omegacont.twoway import (ENDMARKER, Output, eval_up_2way, run_finite,
                              two_way)
from omegacont.oneway import universal_prefix_consistent
from omegacont.words import UPWord, as_word, mismatch, up_equal, up_word


class TestCriterion1FixtureVerdicts:
    def test_branch_switch_not_continuous_with_revalidated_witness(self):
        t = fx.branch_switch()
        w = decide_continuity(t, "cont")
        assert w is not None
        limit_img = eval_up(t, w.limit)
        assert limit_img is not None
        for n in range(1, 7):
            x = up_word(w.u + w.v * n + w.w + w.continuation.prefix,
                        w.continuation.period)
            img = eval_up(t, x)
            assert img is not None
            assert img[w.mismatch_pos] != limit_img[w.mismatch_pos], n

    def test_cli_verdicts(self, capsys):
        assert cli_main(["check-cont", fixture_path("t_nc")]) == 1
        assert cli_main(["check-cont", fixture_path("t_c")]) == 0
        assert cli_main(["check-ucont", fixture_path("t_c")]) == 0
        assert cli_main(["check-cont", fixture_path("t_inf")]) == 1
        capsys.readouterr()


class TestCriterion2EvaluationExactness:
    def test_one_way(self):
        t = fx.prefix_doubler()
        assert eval_up(t, up_word("aa", "c")) == up_word("aaaa", "c")
        assert eval_up(t, up_word("a", "d")) == up_word("a", "d")

    def test_two_way(self):
        j = fx.stem_doubler()
        got = eval_up_2way(j, up_word("aab", "b"))
        assert isinstance(got, Output)
        assert got.value == up_word("aa", "b")
        got = eval_up_2way(j, up_word("", "b"))
        assert isinstance(got, Output)
        assert got.value == up_word("", "b")
        dbl = fx.block_doubler()
        got = eval_up_2way(dbl, up_word("ab#c#", "d#"))
        assert isinstance(got, Output)
        assert got.value == up_word("ababcc", "dd")


class TestCriterion3LookaheadElimination:
    def test_elimination_agrees_on_fifty_domain_words(self):
        j = fx.stem_doubler()
        elim = eliminate_lookahead(j)
        p = j.lookahead.automaton
        checked = 0
        for x in all_up_words("ab", 6, 2):
            direct = eval_up_2way(j, x)
            if not isinstance(direct, Output):
                continue
            ann = good_annotation(p, up_word((ENDMARKER,) + x.prefix,
                                             x.period))
            via = eval_up_2way(elim, ann)
            assert isinstance(via, Output), x
            assert up_equal(via.value, direct.value), x
            checked += 1
        assert checked >= 50

    def test_corrupted_annotation_rejected(self):
        j = fx.stem_doubler()
        elim = eliminate_lookahead(j)
        p = j.lookahead.automaton
        ann = good_annotation(p, up_word((ENDMARKER, "a", "b"), ("b",)))
        letter, cls = ann.prefix[1]
        other = next(q for q in sorted(p.states, key=str) if q != cls)
        bad = UPWord((ann.prefix[0], (letter, other)) + ann.prefix[2:],
                     ann.period)
        correct = eval_up_2way(elim, ann)
        corrupted = eval_up_2way(elim, bad)
        assert isinstance(correct, Output)
        assert not (isinstance(corrupted, Output) and
                    up_equal(corrupted.value, correct.value))


def one_state_copier():
    return two_way("ab", "ab", ["c"],
                   {("c", ENDMARKER, "c", "", 1), ("c", "a", "c", "a", 1),
                    ("c", "b", "c", "b", 1)},
                   "c", ["c"])


def parity_marcher():
    return two_way("a", "ab", ["q0", "q1", "q2"],
                   {("q0", ENDMARKER, "q2", "", 1),
                    ("q0", "a", "q1", "b", 1), ("q1", "a", "q0", "b", 1),
                    ("q2", "a", "q0", "a", 1)},
                   "q0", ["q0"])


def pumping_corpus():
    """(machine, u1, u2, u3) triples with an idempotent middle part."""
    rng = random.Random(11)
    pool = [(one_state_copier(), "ab"), (parity_marcher(), "a"),
            (fx.block_doubler(), "abc#")]
    out = []
    for t, letters in pool:
        tried = 0
        while len(out) < 45 * (pool.index((t, letters)) + 1) and tried < 600:
            tried += 1
            u1 = tuple(rng.choice(letters)
                       for _ in range(rng.randrange(0, 4)))
            u2 = tuple(rng.choice(letters)
                       for _ in range(rng.randrange(1, 4)))
            u3 = tuple(rng.choice(letters)
                       for _ in range(rng.randrange(0, 4)))
            try:
                if not is_idempotent(t, u1, u2, u3):
                    continue
            except NotInPrefDomain:
                continue
            out.append((t, u1, u2, u3))
    return out


CORPUS = pumping_corpus()
DBL_TRIPLE = (tuple("ab#"), tuple("c#"), tuple("d#"))


class TestCriterion4PumpingIdentity:
    def test_corpus_size(self):
        assert len(CORPUS) >= 100

    def test_pump_predict_matches_direct_run(self):
        cases = CORPUS + [(fx.block_doubler(),) + DBL_TRIPLE]
        for t, u1, u2, u3 in cases:
            try:
                d = decompose(t, u1, u2, u3)
            except NotInPrefDomain:
                continue
            for n in range(0, 4):
                run = run_finite(t, u1 + u2 * (n + 1) + u3)
                assert run.exit == "right_end"
                assert pump_predict(d, n) == run.output, (u1, u2, u3, n)


class TestCriterion5RhoLaws:
    def test_block_doubler_value(self):
        assert rho(fx.block_doubler(), *DBL_TRIPLE) == as_word("ababc")

    def test_prefix_and_strictness_laws(self):
        cases = CORPUS + [(fx.block_doubler(),) + DBL_TRIPLE]
        strict_seen = 0
        for t, u1, u2, u3 in cases:
            try:
                d = decompose(t, u1, u2, u3)
                r = rho(t, u1, u2, u3)
            except (NotIdempotent, NotInPrefDomain):
                continue
            producing = any(d.tr_outputs)
            for n in range(1, 6):
                out = run_finite(t, u1 + u2 * n + u3).output
                if producing:
                    assert out[:len(r)] == r, (u1, u2, u3, n)
                else:
                    assert out == r, (u1, u2, u3, n)
            if producing:
                try:
                    r2 = rho(t, u1 + u2, u2, u2 + u3)
                except (NotIdempotent, NotInPrefDomain):
                    continue
                assert len(r2) > len(r) and r2[:len(r)] == r, (u1, u2, u3)
                strict_seen += 1
        assert strict_seen >= 1


class TestCriterion6RegularWitnessSearch:
    def test_tail_classifier_witness(self):
        t = fx.tail_classifier_2way()
        got = search_witness(t, "cont", SearchBounds(2, 2, 2))
        assert isinstance(got, NotContinuous)
        w = got.witness
        # the pumped loop reads only a's; the eliminated machine needs
        # two copies of the letter for idempotency
        assert all(s[0] == "a" for s in w.u2)
        assert verify_witness(t, w, n=6)

    def test_stem_doubler_witness(self):
        t = fx.stem_doubler()
        got = search_witness(t, "cont", SearchBounds(3, 2, 3))
        assert isinstance(got, NotContinuous)
        assert verify_witness(t, got.witness, n=6)

    def test_block_doubler_no_witness(self):
        got = search_witness(fx.block_doubler(), "cont",
                             SearchBounds(3, 3, 3))
        assert isinstance(got, NoWitnessUpTo)
        assert got.pref_exact


class TestCriterion7DifferentialLaw:
    def test_no_contradictions(self):
        ms = [random_instance(s) for s in range(200)]
        cont_verdicts = []
        for variant, subset in (("cont", ms), ("ucont", ms[:100])):
            for t in subset:
                exact = decide_continuity(t, variant)
                got = brute_force_check(t, variant, 2)
                if variant == "cont":
                    cont_verdicts.append(exact is None)
                if isinstance(got, BadPairFound):
                    # definite answers must agree
                    assert exact is not None, (variant, t)
                    assert recheck_bad_pair(t, got.pair), (variant, t)
        assert sum(cont_verdicts) >= 5
        assert sum(not v for v in cont_verdicts) >= 5

    def test_discontinuous_machines_yield_bad_pairs(self):
        for s in range(200):
            t = random_instance(s)
            if decide_continuity(t, "cont") is None:
                continue
            assert any(isinstance(brute_force_check(t, "cont", b),
                                  BadPairFound) for b in (1, 2, 3, 4)), t


class TestCriterion8Streaming:
    def test_prefix_doubler_progress(self):
        t = fx.prefix_doubler()
        full = eval_up(t, up_word("aa", "c"))
        s = stream_start(t)
        stream = ["a", "a"] + ["c"] * 6
        for k, a in enumerate(stream, start=1):
            s, _ = stream_step(s, a)
            assert full.take(len(s.committed)) == s.committed
            if k >= 3:
                assert len(s.committed) >= k + 1, k

    def test_branch_switch_starves(self):
        t = fx.branch_switch()
        s = stream_start(t)
        for _ in range(200):
            s, emitted = stream_step(s, "a")
            assert emitted == ()
        assert s.committed == ()

    def test_stream_cli_refuses_without_force(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aa"))
        assert cli_main(["stream", fixture_path("t_nc")]) == 1
        monkeypatch.setattr("sys.stdin", io.StringIO("aa"))
        assert cli_main(["stream", fixture_path("t_nc"), "--force"]) == 0
        capsys.readouterr()


def brute_mismatch_1way(images, u, v):
    u, v = as_word(u), as_word(v)
    for word, img in images:
        if word.take(len(u)) != u:
            continue
        if img is not None and \
                mismatch(v, img.take(len(v))) is not None:
            return True
    return False


class TestCriterion9MismatchOracle:
    def test_one_way_fixtures_against_up_extension_brute_force(self):
        rng = random.Random(5)
        for t in (fx.branch_switch(), fx.prefix_doubler(),
                  fx.tail_classifier()):
            letters = sorted(t.alphabet)
            out_letters = sorted(t.output_alphabet)
            images = [(x, eval_up(t, x))
                      for x in all_up_words(letters, 4, 4)]
            for _ in range(120):
                u = tuple(rng.choice(letters)
                          for _ in range(rng.randrange(0, 5)))
                v = tuple(rng.choice(out_letters)
                          for _ in range(rng.randrange(1, 5)))
                want = brute_mismatch_1way(images, u, v)
                assert mismatch_exists(t, u, v) == want, (u, v)

    def test_block_doubler_against_brute_force(self, dbl_brute_mismatch):
        t = fx.block_doubler()
        for u in ["", "a", "#", "a#", "ab"]:
            for v in ["a", "b", "aa", "ab", "aab"]:
                want = dbl_brute_mismatch(u, v)
                assert mismatch_exists(t, u, v) == want, (u, v)


def random_acceptor(rng):
    states = [f"s{i}" for i in range(rng.randrange(2, 5))]
    trans = {(q, a, rng.choice(states))
             for q in states for a in "ab" if rng.random() < 0.7}
    return buchi("ab", states, trans,
                 rng.sample(states, 1), rng.sample(states, 1))


class TestCriterion10Topology:
    def a_star_b_omega(self):
        return buchi("ab", ["s", "t"],
                     {("s", "a", "s"), ("s", "b", "t"), ("t", "b", "t")},
                     ["s"], ["t"])

    def test_closure_contains_a_omega(self):
        assert member_up(closure(self.a_star_b_omega()), up_word("", "a"))

    def test_closure_idempotent_on_sampled_machines(self):
        rng = random.Random(41)
        samples = list(all_up_words("ab", 3, 2))
        for _ in range(20):
            b = random_acceptor(rng)
            c = closure(b)
            cc = closure(c)
            for x in samples:
                assert member_up(c, x) == member_up(cc, x), (b, x)

    def test_pref_automaton_matches_enumeration(self):
        pref = pref_automaton(self.a_star_b_omega())
        for n in range(13):
            for w in itertools.product("ab", repeat=n):
                expect = all(c == "b" for c in w[w.index("b"):]) \
                    if "b" in w else True
                assert pref.accepts(w) == expect, w

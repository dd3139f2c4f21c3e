import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from omegacont.buchi import all_up_words, member_up
from omegacont.fixtures import branch_switch, prefix_doubler, tail_classifier
from omegacont.oneway import (
    EpsilonLoopOutput, decide_continuity, domain_automaton, eval_up,
    functionality_check, transducer, trim_transducer,
    universal_prefix_consistent,
)
from omegacont.stream_eval import mismatch_exists
from omegacont.words import as_word, up_equal, up_lcp, up_word


def check_witness(t, wit, n_max=6):
    """Semantic re-validation of a continuity witness: two input
    families converging to each other whose outputs disagree at a fixed
    position."""
    za, zb = wit.continuation, wit.continuation1
    for n in range(1, n_max + 1):
        xn = up_word(wit.u + wit.v * n + wit.w + za.prefix, za.period)
        yn = up_word(wit.u + wit.v * n + wit.w1 + zb.prefix, zb.period)
        fx, fy = eval_up(t, xn), eval_up(t, yn)
        assert fx is not None and fy is not None
        cut = up_lcp(fx, fy)
        assert cut is not None and cut <= wit.mismatch_pos
    # inputs converge: common prefix grows with n
    assert len(wit.v) > 0


class TestEvalUp:
    def test_prefix_doubler_values(self):
        t = prefix_doubler()
        assert eval_up(t, up_word("aa", "c")) == up_word("aaaa", "c")
        assert eval_up(t, up_word("a", "d")) == up_word("a", "d")
        assert eval_up(t, up_word("", "a")) == up_word("", "a")
        assert eval_up(t, up_word("", "c")) == up_word("", "c")
        assert eval_up(t, up_word("c", "d")) is None

    def test_prefix_doubler_family(self):
        t = prefix_doubler()
        for n in range(7):
            got = eval_up(t, up_word("a" * n, "c"))
            assert got == up_word("a" * (2 * n), "c")

    def test_branch_switch_values(self):
        t = branch_switch()
        assert eval_up(t, up_word("", "a")) == up_word("", "c")
        assert eval_up(t, up_word("aaa", "b")) == up_word("", "d")
        assert eval_up(t, up_word("", "b")) == up_word("", "d")
        assert eval_up(t, up_word("ba", "b")) is None

    def test_epsilon_loop_raises(self):
        t = transducer("a", "x", ["q", "f"],
                       {("q", "a", "f", "x"), ("f", "a", "f", "")},
                       ["q"], ["f"])
        with pytest.raises(EpsilonLoopOutput):
            eval_up(t, up_word("", "a"))

    def test_prefers_emitting_lasso(self):
        # Two accepting loops on the same word, one silent: the value is
        # still the infinite output.
        t = transducer("a", "x", ["q", "f", "g"],
                       {("q", "a", "f", ""), ("f", "a", "f", ""),
                        ("q", "a", "g", "x"), ("g", "a", "g", "x")},
                       ["q"], ["f", "g"])
        assert eval_up(t, up_word("", "a")) == up_word("", "x")


class TestFunctionality:
    def test_fixtures_functional(self):
        for t in (branch_switch(), prefix_doubler(), tail_classifier()):
            assert functionality_check(t) is None

    def test_violation_found_and_valid(self):
        t = transducer("a", "xy", ["q", "f", "g"],
                       {("q", "a", "f", "x"), ("f", "a", "f", "x"),
                        ("q", "a", "g", "y"), ("g", "a", "g", "y")},
                       ["q"], ["f", "g"])
        ce = functionality_check(t)
        assert ce is not None
        assert member_up(domain_automaton(t), ce.word)
        assert not up_equal(ce.output1, ce.output2)

    def test_bounded_delay_same_output_ok(self):
        # One run emits two symbols every other step; outputs coincide.
        t = transducer("a", "x", ["q", "r1", "r2", "s"],
                       {("q", "a", "r1", "x"), ("r1", "a", "r1", "x"),
                        ("q", "a", "r2", "xx"), ("r2", "a", "s", ""),
                        ("s", "a", "r2", "xx")},
                       ["q"], ["r1", "r2"])
        assert functionality_check(t) is None

    def test_silent_run_not_compared(self):
        # the q-run accepts a^omega with a finite output: eval_up ignores it
        t = transducer("a", "x", ["p", "q"],
                       {("p", "a", "p", "x"), ("q", "a", "q", "")},
                       ["p", "q"], ["p", "q"])
        assert functionality_check(t) is None

    def test_drift_reported_with_equal_images(self):
        # unbounded delay, yet both runs write x^omega
        t = transducer("a", "x", ["p", "q"],
                       {("p", "a", "p", "xx"), ("q", "a", "q", "x")},
                       ["p", "q"], ["p", "q"])
        ce = functionality_check(t)
        assert ce is not None
        assert up_equal(ce.output1, ce.output2)

    def test_pairs_that_cannot_accept_are_not_compared(self, monkeypatch):
        # On a(a|b)^n the p-run copies the input and the d-run is
        # silent, so they drift apart by any word over ab.  Only the
        # p-run accepts a word without c and only the d-run one with c,
        # so that pair is never compared and no drifts are enumerated.
        import omegacont.oneway as ow
        compared = []
        advance = ow.advance_status

        def counted(*args):
            compared.append(args)
            return advance(*args)

        monkeypatch.setattr(ow, "advance_status", counted)
        t = transducer("abc", "abc", ["s", "p", "d", "f"],
                       {("s", "a", "p", ""), ("s", "a", "d", ""),
                        ("p", "a", "p", "a"), ("p", "b", "p", "b"),
                        ("d", "a", "d", ""), ("d", "b", "d", ""),
                        ("d", "c", "f", ""), ("f", "c", "f", "c")},
                       ["s"], ["p", "f"])
        assert functionality_check(t) is None
        assert len(compared) < 50


class TestContinuity:
    def test_branch_switch_not_continuous(self):
        t = branch_switch()
        wit = decide_continuity(t, "cont")
        assert wit is not None
        check_witness(t, wit)
        assert decide_continuity(t, "ucont") is not None

    def test_tail_classifier_not_continuous(self):
        t = tail_classifier()
        wit = decide_continuity(t, "cont")
        assert wit is not None
        check_witness(t, wit)

    def test_prefix_doubler_continuous(self):
        t = prefix_doubler()
        assert decide_continuity(t, "cont") is None
        assert decide_continuity(t, "ucont") is None

    def test_cont_but_not_ucont(self):
        # Swallow a's until the first b, then echo the rest prefixed by
        # one "a": f(a^n b x) = a.x with a^omega outside the domain.
        # Continuous on the domain (each point eventually reads its b)
        # but not uniformly: a^n ba... and a^n bb... are 2^-n apart
        # while the outputs differ at position 1.
        t = transducer("ab", "ab",
                       ["q", "f"],
                       {("q", "a", "q", ""), ("q", "b", "f", "a"),
                        ("f", "a", "f", "a"), ("f", "b", "f", "b")},
                       ["q"], ["f"])
        assert functionality_check(t) is None
        assert decide_continuity(t, "cont") is None
        wit = decide_continuity(t, "ucont")
        assert wit is not None
        check_witness(t, wit)


class TestPrefixConsistency:
    def test_prefix_doubler_examples(self):
        t = prefix_doubler()
        assert universal_prefix_consistent(t, "a", "a")
        assert not universal_prefix_consistent(t, "a", "aa")
        assert universal_prefix_consistent(t, "aac", "aaaac")
        assert not universal_prefix_consistent(t, "aac", "aaaacd")
        assert universal_prefix_consistent(t, "", "")

    def test_branch_switch_examples(self):
        t = branch_switch()
        # After any a's both c^omega and d^omega remain possible.
        assert not universal_prefix_consistent(t, "a", "c")
        assert not universal_prefix_consistent(t, "a", "d")
        assert universal_prefix_consistent(t, "a", "")
        assert universal_prefix_consistent(t, "ab", "d")
        assert not universal_prefix_consistent(t, "ab", "c")

    def test_against_up_extension_brute_force(self):
        for t in (branch_switch(), prefix_doubler()):
            dom = domain_automaton(t)
            alpha = sorted(t.alphabet)
            exts = list(all_up_words(t.alphabet, 3, 2))
            for u in ["", alpha[0], alpha[0] * 2, alpha[0] + alpha[-1]]:
                u = as_word(u)
                for w in ["", "a", "aa", "c", "d", "ac"]:
                    w = as_word(w)
                    brute = False
                    for e in exts:
                        x = up_word(u + e.prefix, e.period)
                        if x.take(len(u)) != u:
                            continue
                        fx = eval_up(t, x)
                        if fx is not None and fx.take(len(w)) != w:
                            brute = True
                            break
                    got = mismatch_exists(t, u, w)
                    # brute force only looks at short UP extensions, so
                    # it can miss mismatches but never invent one
                    if brute:
                        assert got, (u, w)


class TestHashSeedIndependence:
    """Witnesses must not follow the iteration order of string sets,
    which changes with the interpreter's hash seed."""

    SCRIPT = (
        "from omegacont.cli import main\n"
        "from omegacont.oneway import decide_continuity\n"
        "from omegacont.oracle import random_instance\n"
        "from omegacont.textio import fixture_path\n"
        "for name in ('t_nc', 't_inf'):\n"
        "    for cmd in ('check-cont', 'check-ucont'):\n"
        "        main([cmd, fixture_path(name)])\n"
        "print(decide_continuity(random_instance(40), 'ucont'))\n")

    def test_same_witness_under_every_seed(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=src)
            got = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            outs.add(got.stdout)
        assert len(outs) == 1
        assert "not continuous" in outs.pop()

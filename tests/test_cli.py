import io
import json
import os
import random
import subprocess
import sys

import pytest

import omegacont
from omegacont.cli import main
from omegacont.textio import (FIXTURE_NAMES, fixture_path, parse_spec,
                              serialize)
from test_loops import random_two_way


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_not_continuous(self, capsys):
        code, out, _ = run(capsys, "check-cont", fixture_path("t_nc"))
        assert code == 1
        assert "not continuous" in out
        assert "mismatch at position 0" in out

    def test_continuous_both_variants(self, capsys):
        for cmd in ("check-cont", "check-ucont"):
            code, out, _ = run(capsys, cmd, fixture_path("t_c"))
            assert (code, out.strip()) == (0, "continuous")

    def test_two_way_delegates_to_witness(self, capsys):
        code, out, _ = run(capsys, "check-cont", fixture_path("f_inf"))
        assert code == 1
        assert "not continuous" in out

    # stdout and exit code of the witness search at the default bounds,
    # byte for byte
    @pytest.mark.parametrize("name,cmd,want", [
        ("dbl", "check-cont", (2, "no witness up to bounds 3,3,3\n")),
        ("dbl", "check-ucont", (1, "not continuous\n  u1 = _\n  u2 = #\n"
                                   "  u3 = #a / u3' = #b\n"
                                   "  mismatch at position 0 (ucont)\n")),
        ("j", "check-cont", (1, "not continuous\n  u1 = ^ab\n  u2 = bb\n"
                                "  u3 = a / u3' = b\n"
                                "  mismatch at position 0 (cont)\n")),
        ("j", "check-ucont", (1, "not continuous\n  u1 = ^ab\n  u2 = bb\n"
                                 "  u3 = a / u3' = b\n"
                                 "  mismatch at position 0 (ucont)\n")),
        ("f_inf", "check-cont", (1, "not continuous\n  u1 = ^a\n  u2 = aa\n"
                                    "  u3 = a / u3' = a\n"
                                    "  mismatch at position 0 (cont)\n")),
        ("f_inf", "check-ucont", (1, "not continuous\n  u1 = ^a\n"
                                     "  u2 = aa\n  u3 = a / u3' = a\n"
                                     "  mismatch at position 0 (ucont)\n")),
        ("t_c_2way", "check-cont", (2, "no witness up to bounds 3,3,3\n")),
        ("t_c_2way", "check-ucont", (2, "no witness up to bounds 3,3,3\n")),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_two_way_output_pinned(self, name, cmd, want, capsys):
        code, out, _ = run(capsys, cmd, fixture_path(name))
        assert (code, out) == want

    def test_six_state_draw_returns(self, capsys, tmp_path):
        # its paired-run graph is far too large to explore in full
        p = tmp_path / "seed13.txt"
        p.write_text(run(capsys, "gen", "--seed", "13", "--profile",
                         "6,4,4,2")[1])
        for cmd in ("check-cont", "check-ucont"):
            code, out, _ = run(capsys, cmd, str(p))
            assert code == 1
            assert "not continuous" in out

    def test_silent_accepting_loop_is_not_read(self, capsys, tmp_path,
                                               monkeypatch):
        # the run that ends in the silent loop at r has no image
        p = tmp_path / "silent_loop.txt"
        p.write_text("type: nft\nalphabet: a\noutputs: c d\n"
                     "states: s1 s2 r\ninitial: s1 s2\nfinal: s1 r\n"
                     'trans: s1 a s1 "c"\ntrans: s2 a r "d"\n'
                     'trans: r a r ""\n')
        for cmd in ("check-cont", "check-ucont"):
            assert run(capsys, cmd, str(p))[:2] == (0, "continuous\n")
        assert run(capsys, "eval", str(p), "(a)")[:2] == (0, "(c)\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("a a a a"))
        assert run(capsys, "stream", str(p))[:2] == (0, "a -> c\n" * 4)

    def test_acceptor_rejected(self, capsys, tmp_path):
        p = tmp_path / "acc.txt"
        p.write_text("type: buchi\nalphabet: a\nstates: q\n"
                     "initial: q\nfinal: q\ntrans: q a q\n")
        code, _, err = run(capsys, "check-cont", str(p))
        assert code == 65
        assert "transducer" in err


class TestEvalMember:
    def test_eval_examples(self, capsys):
        for name, x, want in (("t_c", "aa(c)", "aaaa(c)"),
                              ("t_c", "a(d)", "a(d)"),
                              ("j", "aab(b)", "aa(b)"),
                              ("j", "(b)", "(b)")):
            code, out, _ = run(capsys, "eval", fixture_path(name), x)
            assert (code, out.strip()) == (0, want), (name, x)

    def test_eval_outside_domain(self, capsys):
        code, out, _ = run(capsys, "eval", fixture_path("t_c"), "ca(c)")
        assert code == 1
        assert "not in domain" in out

    def test_member(self, capsys):
        assert run(capsys, "member", fixture_path("t_c"), "aa(c)")[0] == 0
        assert run(capsys, "member", fixture_path("t_c"), "ca(c)")[0] == 1

    def test_accepted_with_finite_image(self, capsys, tmp_path):
        p = tmp_path / "silent.txt"
        p.write_text("type: nft\nalphabet: a\noutputs: a\nstates: q\n"
                     'initial: q\nfinal: q\ntrans: q a q ""\n')
        code, out, _ = run(capsys, "member", str(p), "(a)")
        assert (code, out.strip()) == (0, "true")
        code, _, err = run(capsys, "eval", str(p), "(a)")
        assert code == 65
        assert "every accepting run has a finite image" in err

    def test_bad_up_word(self, capsys):
        code, _, err = run(capsys, "eval", fixture_path("t_c"), "aaa")
        assert code == 65
        assert "UP word" in err


class TestStream:
    def test_continuous_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aacc"))
        code, out, _ = run(capsys, "stream", fixture_path("t_c"))
        assert code == 0
        assert out.splitlines() == ["a -> a", "a -> a", "c -> aac",
                                    "c -> c"]

    def test_raw_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aacc"))
        code, out, _ = run(capsys, "stream", fixture_path("t_c"), "--raw")
        assert code == 0
        assert out.strip() == "aaaacc"

    def test_refuses_discontinuous(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aaa"))
        code, _, err = run(capsys, "stream", fixture_path("t_nc"))
        assert code == 1
        assert "--force" in err

    def test_refuses_six_state_draw(self, capsys, monkeypatch, tmp_path):
        p = tmp_path / "seed13.txt"
        p.write_text(run(capsys, "gen", "--seed", "13", "--profile",
                         "6,4,4,2")[1])
        monkeypatch.setattr("sys.stdin", io.StringIO("aaa"))
        code, _, err = run(capsys, "stream", str(p))
        assert code == 1
        assert "--force" in err

    def test_force(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aaa"))
        code, out, _ = run(capsys, "stream", fixture_path("t_nc"),
                           "--force")
        assert code == 0
        assert all(line.endswith("-> _") for line in out.splitlines())

    def test_raw_two_way_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aab#"))
        code, out, _ = run(capsys, "stream", fixture_path("dbl"), "--raw")
        assert (code, out.strip()) == (0, "aabaab")

    def test_dead_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("ca"))
        code, _, err = run(capsys, "stream", fixture_path("t_c"))
        assert code == 65
        assert "ca" in err

    def test_input_read_only_by_silent_runs_is_dead(self, capsys, tmp_path,
                                                     monkeypatch):
        # c(a) is accepted only through the silent loop at z, so no word
        # of dom f starts with c
        p = tmp_path / "silent_branch.txt"
        p.write_text("type: nft\nalphabet: a b c\noutputs: c\n"
                     "states: s t z\ninitial: s\nfinal: t z\n"
                     'trans: s b t "c"\ntrans: t b t "c"\n'
                     'trans: s c z ""\ntrans: z a z ""\n')
        monkeypatch.setattr("sys.stdin", io.StringIO("c a a"))
        code, out, err = run(capsys, "stream", str(p))
        assert (code, out) == (65, "")
        assert "no domain word extends c" in err

    def test_sampled_no_is_not_dead_input(self, capsys, monkeypatch):
        # a#a#... is in the domain; sampling within bound 1 misses it
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
        code, out, err = run(capsys, "--state-cap", "1", "--ext-bound", "1",
                             "stream", fixture_path("dbl"))
        assert (code, out.splitlines(), err) == (0, ["a -> _"], "")


class TestNotFunctional:
    # both states initial and final: a^omega has the images x^omega and
    # y^omega, so no one-way verdict, value or commit is meaningful
    @pytest.mark.parametrize("argv", [
        ("check-cont",), ("check-ucont",), ("eval", "(a)"),
        ("stream", "--force"), ("oracle",)], ids=lambda argv: argv[0])
    def test_rejected_with_counterexample(self, argv, capsys, monkeypatch,
                                          tmp_path):
        p = tmp_path / "branches.txt"
        p.write_text("type: nft\nalphabet: a\noutputs: x y\n"
                     "states: p q\ninitial: p q\nfinal: p q\n"
                     'trans: p a p "x"\ntrans: q a q "y"\n')
        monkeypatch.setattr("sys.stdin", io.StringIO("aa"))
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out) == (65, "")
        assert "not functional: (a)" in err

    # functional: a silent run has no image, and runs writing xx and x
    # per letter agree on x^omega although their delay is unbounded
    @pytest.mark.parametrize("outputs", [("x", ""), ("xx", "x")],
                             ids=["silent_branch", "drifting_branch"])
    def test_one_image_is_printed(self, outputs, capsys, tmp_path):
        p = tmp_path / "branches.txt"
        p.write_text("type: nft\nalphabet: a\noutputs: x\n"
                     "states: p q\ninitial: p q\nfinal: p q\n"
                     f'trans: p a p "{outputs[0]}"\n'
                     f'trans: q a q "{outputs[1]}"\n')
        assert run(capsys, "eval", str(p), "(a)") == (0, "(x)\n", "")


class TestNotProphetic:
    # f_inf's look-ahead with A8 a A8 replaced by B7 a A8: the word a^omega
    # then fits both A8 and B7 after its first letter
    @pytest.mark.parametrize("argv", [
        ("eval", "(a)"), ("check-cont",), ("check-ucont",), ("stream",),
        ("member", "(a)"), ("witness",)],
        ids=lambda argv: argv[0])
    def test_exits_65(self, argv, capsys, monkeypatch, tmp_path):
        with open(fixture_path("f_inf"), encoding="utf-8") as f:
            text = f.read()
        assert "trans: A8 a A8\n" in text
        p = tmp_path / "not_prophetic.txt"
        p.write_text(text.replace("trans: A8 a A8\n", "trans: B7 a A8\n"))
        monkeypatch.setattr("sys.stdin", io.StringIO("a"))
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out, err) == (
            65, "", "error: look-ahead is not prophetic: (a) has two "
            "accepting runs\n")


class TestSeedIndependence:
    """The CLI prints the same bytes under every string-hash seed: set
    and frozenset order must not reach an answer."""

    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "from omegacont.cli import main\n"
        "got = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    got.append([argv[0], code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(got))\n")

    def test_same_bytes_under_four_seeds(self, tmp_path):
        commands = [[cmd, fixture_path(name)] for name in FIXTURE_NAMES
                    for cmd in ("check-cont", "check-ucont")]
        commands += [["witness", fixture_path(name), "--variant", "ucont",
                      "--bound", "2,2,2"]
                     for name in ("dbl", "j", "t_c_2way", "f_inf")]
        # both (a) and (b) have two accepting runs: the refusal names
        # the one a search over the look-ahead finds first
        p = tmp_path / "two_ambiguous_words.txt"
        p.write_text("type: 2dft-pla\nalphabet: a b\noutputs: a\n"
                     "states: t\ninitial: t\nlookahead:\n"
                     "  alphabet: ^ a b\n  states: x y u v\n  initial: \n"
                     "  final: x y u v\n  trans: x a x\n  trans: y a y\n"
                     "  trans: u b u\n  trans: v b v\n"
                     'trans: t a x t "a" +1\n')
        commands.append(["check-cont", str(p)])
        src = os.path.dirname(os.path.dirname(omegacont.__file__))
        procs = [subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for seed in range(4)]
        outs = []
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            outs.append(out)
        assert outs[1:] == outs[:1] * 3
        got = json.loads(outs[0])
        assert [code for _, code, _, _ in got].count(1) >= 5
        assert got[-1][1:] == [65, "", "error: look-ahead is not prophetic: "
                               "(b) has two accepting runs\n"]


class TestWitness:
    def test_witness_found(self, capsys):
        code, out, _ = run(capsys, "witness", fixture_path("f_inf"),
                           "--variant", "cont", "--bound", "2,2,2",
                           "--verify", "6")
        assert code == 1
        assert "not continuous" in out

    def test_no_witness(self, capsys):
        code, out, _ = run(capsys, "witness", fixture_path("t_c_2way"),
                           "--variant", "cont", "--bound", "2,2,2")
        assert code == 2
        assert "no witness up to" in out

    def test_bad_bound(self, capsys):
        code, _, err = run(capsys, "witness", fixture_path("f_inf"),
                           "--bound", "2,2")
        assert code == 65


class TestLoops:
    def test_rho(self, capsys):
        code, out, _ = run(capsys, "rho", fixture_path("dbl"),
                           "ab#", "c#", "d#")
        assert (code, out.strip()) == (0, "ababc")

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", fixture_path("dbl"),
                           "ab#", "c#", "d#")
        assert code == 0
        assert "component 0" in out

    def test_not_idempotent(self, capsys, tmp_path):
        # parity-sensitive machine: "aa" flips behavior when doubled
        p = tmp_path / "parity.txt"
        p.write_text("type: 2dbt\nalphabet: a\noutputs: a b\n"
                     "states: q0 q1 q2\ninitial: q0\nfinal: q0\n"
                     'trans: q0 ^ q2 "" +1\ntrans: q0 a q1 "b" +1\n'
                     'trans: q1 a q0 "b" +1\ntrans: q2 a q0 "a" +1\n')
        code, _, err = run(capsys, "rho", str(p), "_", "aa", "_")
        assert code == 65

    @pytest.mark.parametrize("cmd", ["rho", "decompose"])
    @pytest.mark.parametrize("u2", ["#", "a#"])
    def test_not_idempotent_message(self, capsys, cmd, u2):
        code, out, err = run(capsys, cmd, fixture_path("dbl"), "a", u2, "b")
        assert (code, out) == (65, "")
        assert err == f"error: u2 = {u2} is not an idempotent loop in " \
            "context\n"

    @pytest.mark.parametrize("cmd", ["rho", "decompose"])
    def test_not_in_pref_domain_message(self, capsys, tmp_path, cmd):
        # the run blocks on b, so it never reaches the right end
        p = tmp_path / "blocks.txt"
        p.write_text("type: 2dbt\nalphabet: a b\noutputs: a\n"
                     "states: q0\ninitial: q0\nfinal: q0\n"
                     'trans: q0 ^ q0 "" +1\ntrans: q0 a q0 "a" +1\n')
        code, out, err = run(capsys, cmd, str(p), "_", "a", "b")
        assert (code, out) == (65, "")
        assert err == "error: the run on u1 u2 u3 = ab does not reach the " \
            "right end\n"


class TestMismatch:
    def test_yes_no(self, capsys):
        assert run(capsys, "mismatch", fixture_path("dbl"),
                   "a#", "ab")[0] == 0
        assert run(capsys, "mismatch", fixture_path("dbl"),
                   "a#", "aa")[0] == 1

    def test_sampled_no_is_unknown(self, capsys):
        # dbl has 3 states, over the cap: only bounded extensions are
        # sampled, so finding no mismatch proves nothing
        code, out, _ = run(capsys, "--state-cap", "2", "--ext-bound", "2",
                           "mismatch", fixture_path("dbl"), "a#", "aa")
        assert (code, out.strip()) == (2, "unknown up to ext-bound 2")
        code, out, _ = run(capsys, "--state-cap", "2", "--ext-bound", "2",
                           "mismatch", fixture_path("dbl"), "a#", "ab")
        assert (code, out.strip()) == (0, "yes")

    def test_look_ahead_samples_plain_words(self, capsys):
        # t_c_2way is over the cap after look-ahead elimination, so the
        # original machine is evaluated on sampled plain extensions
        code, out, _ = run(capsys, "mismatch", fixture_path("t_c_2way"),
                           "a", "c")
        assert (code, out.strip()) == (0, "yes")
        # every image of a domain word starting with a starts with a
        code, out, _ = run(capsys, "mismatch", fixture_path("t_c_2way"),
                           "a", "a")
        assert (code, out.strip()) == (2, "unknown up to ext-bound 4")


class TestTransforms:
    def test_trim_output_parses(self, capsys):
        code, out, _ = run(capsys, "trim", fixture_path("t_nc"))
        assert code == 0
        assert parse_spec(out).kind == "nft"

    def test_closure(self, capsys, tmp_path):
        p = tmp_path / "astarb.txt"
        p.write_text("type: buchi\nalphabet: a b\nstates: q0 q1\n"
                     "initial: q0\nfinal: q1\n"
                     "trans: q0 a q0\ntrans: q0 b q1\ntrans: q1 b q1\n")
        code, out, _ = run(capsys, "closure", str(p))
        assert code == 0
        closed = parse_spec(out).machine
        from omegacont.buchi import member_up
        from omegacont.words import up_word
        assert member_up(closed, up_word("", "a"))
        assert member_up(closed, up_word("", "b"))


class TestOracleGen:
    def test_oracle_codes(self, capsys):
        code, out, _ = run(capsys, "oracle", fixture_path("t_nc"),
                           "--variant", "cont", "--bound", "2")
        assert code == 1
        assert "bad pair found" in out
        code, out, _ = run(capsys, "oracle", fixture_path("t_c"),
                           "--variant", "cont", "--bound", "1")
        assert code == 2
        assert "none up to bound 1" in out

    @pytest.mark.parametrize("seed", [659, 980])
    def test_oracle_unconfirmed_pair(self, capsys, tmp_path, seed):
        # continuous plain two-way machines on which bound 2 reports a
        # pair that recheck_bad_pair rejects: a candidate, exit 2
        t = random_two_way(random.Random(seed), "ab", 2 + seed % 3)
        path = tmp_path / "m.txt"
        path.write_text(serialize(t))
        code, out, _ = run(capsys, "oracle", str(path), "--bound", "2")
        assert code == 2
        assert out.startswith("candidate bad pair, not confirmed")
        assert "bad pair found" not in out

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_oracle_bound_below_one(self, capsys, bound):
        code, out, err = run(capsys, "oracle", fixture_path("t_nc"),
                             "--bound", bound)
        assert (code, out) == (65, "")
        assert "bound must be at least 1" in err

    def test_gen_reproducible(self, capsys):
        _, out1, _ = run(capsys, "gen", "--seed", "9")
        _, out2, _ = run(capsys, "gen", "--seed", "9")
        assert out1 == out2
        assert parse_spec(out1).kind == "nft"

    @pytest.mark.parametrize("profile,seed,want", [
        ("2,0,2,2", 0, 65), ("2,2,2,0", 0, 65), ("2,2,0,0", 0, 65),
        ("2,2,0,2", 0, 65), ("1,2,2,2", 2, 0), ("1,2,2,2", 3, 0),
        ("1,2,2,2", 5, 0)])
    def test_gen_profile_ends(self, profile, seed, want):
        # in a subprocess, so that a redraw loop that never ends fails
        # the test on its timeout instead of hanging the suite
        src = os.path.dirname(os.path.dirname(omegacont.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        got = subprocess.run(
            [sys.executable, "-m", "omegacont.cli", "gen", "--seed",
             str(seed), "--profile", profile],
            capture_output=True, text=True, env=env, timeout=30)
        assert got.returncode == want, got.stderr
        assert "Traceback" not in got.stderr
        if want == 0:
            assert parse_spec(got.stdout).kind == "nft"
        else:
            assert "profile" in got.stderr


class TestErrors:
    def test_usage(self, capsys):
        assert main(["definitely-not-a-command"]) == 64
        capsys.readouterr()

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "/nonexistent.txt", "(a)")
        assert code == 65

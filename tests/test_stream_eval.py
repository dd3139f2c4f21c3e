import pytest

from omegacont.fixtures import (
    block_doubler, branch_switch, prefix_doubler, tail_classifier,
    tail_classifier_2way,
)
from omegacont.oneway import eval_up, universal_prefix_consistent
from omegacont.stream_eval import (
    DeadInput, StreamState, mismatch_exists, stream_feed, stream_start,
    stream_step,
)
from omegacont.words import as_word, up_word


class TestMismatchExists:
    def test_prefix_doubler_examples(self):
        t = prefix_doubler()
        assert mismatch_exists(t, "aa", "ab")
        assert not mismatch_exists(t, "aa", "aa")
        # after aa the images disagree at position 2
        assert mismatch_exists(t, "aa", "aaa")

    def test_one_way_duality(self):
        checked = 0
        for t in (prefix_doubler(), tail_classifier(), branch_switch()):
            letters = sorted(t.alphabet) + sorted(t.output_alphabet)
            for u in ["", "a", "aa"]:
                for x in letters:
                    for y in letters + [""]:
                        v = x + y
                        assert mismatch_exists(t, u, v) == \
                            (not universal_prefix_consistent(t, u, v))
                        checked += 1
        assert checked >= 100

    def test_block_doubler_examples(self):
        t = block_doubler()
        assert not mismatch_exists(t, "a#", "aa")
        assert mismatch_exists(t, "a#", "ab")

    def test_block_doubler_matches_brute_force(self, dbl_brute_mismatch):
        t = block_doubler()
        for u in ["", "a", "#", "a#", "ab"]:
            for v in ["a", "b", "aa", "ab", "aab"]:
                want = dbl_brute_mismatch(u, v)
                assert mismatch_exists(t, u, v) == want, (u, v)


class TestStreaming:
    def test_prefix_doubler_c_branch(self):
        t = prefix_doubler()
        s, out = stream_feed(t, "aa")
        assert "".join(out) == "aa"
        s, e = stream_step(s, "c")
        # f is now determined as aaaa c^omega; the machine catches up
        assert "".join(e) == "aac"
        for _ in range(3):
            s, e = stream_step(s, "c")
            assert "".join(e) == "c"
        full = eval_up(t, up_word("aa", "c"))
        assert full.take(len(s.committed)) == s.committed

    def test_prefix_doubler_d_branch(self):
        t = prefix_doubler()
        s, out = stream_feed(t, "aadd")
        assert "".join(out) == "aadd"

    def test_non_continuous_machine_starves(self):
        t = tail_classifier()
        s = stream_start(t)
        for _ in range(200):
            s, e = stream_step(s, "a")
            assert e == ()
        assert s.committed == ()

    def test_dead_input(self):
        with pytest.raises(DeadInput):
            stream_feed(prefix_doubler(), "ca")

    def test_sampled_no_is_not_dead_input(self):
        # state cap 1 forces the sampled oracle, and no extension of a
        # within bound 1 is in the domain, yet a#a#... is
        t = block_doubler()
        s, e = stream_step(stream_start(t), "a", state_cap=1, ext_bound=1)
        assert not s.oracle.exact
        assert e == () and s.committed == ()
        # the oracle keeps bound 1, under which no period of length 1
        # closes blocks forever: the stream goes on without output
        for a in "#a":
            s, e = stream_step(s, a, state_cap=1, ext_bound=1)
            assert e == ()
        assert s.consumed == as_word("a#a")

    def test_one_oracle_per_stream_for_every_kind(self):
        # one-way and plain two-way oracles are exact; a look-ahead
        # machine's samples
        for t, exact in ((prefix_doubler(), True), (block_doubler(), True),
                         (tail_classifier_2way(), False)):
            s = stream_step(stream_start(t), "a")[0]
            oracle = s.oracle
            assert oracle.exact == exact
            for _ in range(2):
                s = stream_step(s, "a")[0]
                assert s.oracle is oracle

    def test_one_search_per_one_way_step(self, monkeypatch):
        import omegacont.stream_eval as se
        calls = {"mismatch": 0, "search": 0}
        search = se.safe_prefix_length

        def counted_mismatch(*args, **kw):
            calls["mismatch"] += 1
            return mismatch_exists(*args, **kw)

        def counted_search(*args):
            calls["search"] += 1
            return search(*args)

        monkeypatch.setattr(se, "mismatch_exists", counted_mismatch)
        monkeypatch.setattr(se, "safe_prefix_length", counted_search)
        s, out = stream_feed(prefix_doubler(), "a" * 30 + "ccc")
        assert "".join(out) == "a" * 60 + "ccc"
        assert calls == {"mismatch": 0, "search": 33}

    def test_one_trim_per_one_way_stream(self, monkeypatch):
        import omegacont.oneway as ow
        trims = []
        trim = ow.buchi_trim

        def counted_trim(b):
            trims.append(b)
            return trim(b)

        monkeypatch.setattr(ow, "buchi_trim", counted_trim)
        stream_feed(prefix_doubler(), "a" * 30 + "ccc")
        assert len(trims) == 1

    def test_progress_on_continuous_machine(self):
        t = prefix_doubler()
        s = stream_start(t)
        best = 0
        for i in range(1, 51):
            s, _ = stream_step(s, "a")
            best = max(best, len(s.committed))
            assert best >= i - 1
        assert best >= 50 - 1

    def test_loop_invariant_against_evaluator(self):
        t = prefix_doubler()
        for x in (up_word("", "a"), up_word("a", "c"), up_word("aa", "d"),
                  up_word("aaa", "c")):
            full = eval_up(t, x)
            s = stream_start(t)
            for i in range(12):
                s, _ = stream_step(s, x[i])
                assert full.take(len(s.committed)) == s.committed, (x, i)

    def test_two_way_stream(self):
        t = block_doubler()
        s, out = stream_feed(t, "ab#")
        assert "".join(out) == "abab"
        assert s.committed == as_word("abab")

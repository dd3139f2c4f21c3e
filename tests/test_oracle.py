import hashlib
import inspect
import itertools
import random
import sys

import pytest

from omegacont import oracle, words
from omegacont.buchi import all_up_words
from omegacont.fixtures import branch_switch, prefix_doubler, stem_doubler
from omegacont.oneway import (EpsilonLoopOutput, decide_continuity, eval_up,
                              functionality_check, transducer)
from omegacont.oracle import (
    DEFAULT_PROFILE, BadPair, BadPairFound, Divergent, MismatchAt, NoneUpTo,
    _diverges, _evaluator, _families, _first_mismatch, _mismatch,
    _stable_up_to, _start, _step, _window, _window_lcp,
    brute_force_check, random_instance, recheck_bad_pair,
)
from omegacont.textio import serialize
from omegacont.words import up_lcp, up_word, words_up_to
from conftest import SILENT_LOOP, silent_loop_draws
from test_lasso_reference import MACHINES as LASSO_MACHINES


def parity_flipper():
    """Silent on a, then copies the parity of the a-count into the tail:
    the images of a^n b^omega flip between a^omega and b^omega."""
    return transducer("ab", "ab", "eo",
                      {("e", "a", "o", ""), ("o", "a", "e", ""),
                       ("e", "b", "e", "a"), ("o", "b", "o", "b")},
                      "e", "eo")


class TestBruteForce:
    def test_branch_switch_bad_pair(self):
        r = brute_force_check(branch_switch(), "cont", 2)
        assert isinstance(r, BadPairFound)
        p = r.pair
        assert p.evidence == MismatchAt(0)
        assert p.v  # the pumped part is nonempty
        assert recheck_bad_pair(branch_switch(), p)

    def test_prefix_doubler_none_up_to(self):
        assert brute_force_check(prefix_doubler(), "cont", 3) == NoneUpTo(3)

    def test_prefix_doubler_ucont_small_bound(self):
        assert brute_force_check(prefix_doubler(), "ucont", 2) == NoneUpTo(2)

    def test_stem_doubler_bad_pair(self):
        r = brute_force_check(stem_doubler(), "cont", 3)
        assert isinstance(r, BadPairFound)
        assert isinstance(r.pair.evidence, MismatchAt)
        assert recheck_bad_pair(stem_doubler(), r.pair, n_max=8)

    def test_divergent_family(self):
        r = brute_force_check(parity_flipper(), "ucont", 1)
        assert isinstance(r, BadPairFound)
        assert isinstance(r.pair.evidence, Divergent)
        assert recheck_bad_pair(parity_flipper(), r.pair)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            brute_force_check(branch_switch(), "weird", 1)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one(self, bound):
        # a bound below 1 leaves no period to pump: nothing is searched
        with pytest.raises(ValueError, match="at least 1"):
            brute_force_check(branch_switch(), "cont", bound)

    def test_sampling_artifact_rejected(self):
        # deterministic, hence continuous, but the images of
        # b^n (ba)^omega repeat in n with period two; naive sampling
        # reports a phantom mismatch deep in the tail
        t = transducer("ab", "ab", ["p", "q"],
                       {("q", "a", "p", "aa"), ("q", "b", "p", "b"),
                        ("p", "b", "q", "ab"), ("p", "a", "p", "")},
                       ["p"], ["q"])
        assert decide_continuity(t, "cont") is None
        assert brute_force_check(t, "cont", 2) == NoneUpTo(2)

    def test_recheck_rejects_corrupted_evidence(self):
        r = brute_force_check(branch_switch(), "cont", 2)
        p = r.pair
        # identical tails can never mismatch
        twinned = BadPair(p.u, p.v, p.w, p.w, p.z, p.z, p.evidence)
        assert not recheck_bad_pair(branch_switch(), twinned)


class TestWindows:
    """brute_force_check reads every image and every lcp of two images
    off the image's first window symbols."""

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_capped_lcp(self, bound):
        window = 4 * (bound + 2)

        def cap(l):
            return window if l is None else min(l, window)

        # a common stem shifts every lcp, so that exact lcps below,
        # at and beyond the window all occur
        ups = list(all_up_words("ab", 3, 2))
        for shift in (0, window - 2, window):
            stem = ("a",) * shift
            for x, y in itertools.product(ups, repeat=2):
                x2 = up_word(stem + x.prefix, x.period)
                y2 = up_word(stem + y.prefix, y.period)
                a = _window(stem + x.prefix, x.period, window)
                b = _window(stem + y.prefix, y.period, window)
                assert a == x2.take(window) and b == y2.take(window)
                assert _window_lcp(a, b) == cap(up_lcp(x2, y2)), (x2, y2)
        # the consumers answer the same on capped lcp lists; these
        # values include every kind of lcp relative to the window
        n_max = 2 * bound + 2
        values = (None, 0, n_max - 1, window - 1, window, window + 1)
        for lcps in itertools.product(values, repeat=n_max - 1):
            capped = [cap(l) for l in lcps]
            assert _diverges(capped) == _diverges(lcps), lcps
            assert _stable_up_to(capped, window) == \
                _stable_up_to(lcps, window), lcps

    def test_no_image_normalised(self, monkeypatch):
        calls = {"up_lcp": 0, "UPWord": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        lcp = counted("up_lcp", words.up_lcp)
        monkeypatch.setattr(words, "up_lcp", lcp)
        monkeypatch.setattr(oracle, "up_lcp", lcp)
        # counts every UPWord built, by up_word or directly
        monkeypatch.setattr(words.UPWord, "__post_init__",
                            counted("UPWord", words.UPWord.__post_init__))
        assert brute_force_check(prefix_doubler(), "cont", 2) == NoneUpTo(2)
        assert calls == {"up_lcp": 0, "UPWord": 0}


class TestRandomInstance:
    def test_reproducible(self):
        assert random_instance(17) == random_instance(17)
        assert random_instance(3) != random_instance(4)

    def test_verdict_diversity(self):
        verdicts = [decide_continuity(random_instance(s), "cont") is None
                    for s in range(200)]
        assert sum(verdicts) >= 5
        assert sum(not v for v in verdicts) >= 5

    def test_profile_respected(self):
        t = random_instance(5, profile=(3, 2, 2, 1))
        assert len(t.states) <= 3
        assert t.alphabet <= {"a", "b"}
        assert all(len(g) <= 1 for (_, _, _, g) in t.transitions)

    @pytest.mark.parametrize("profile", [(1, 2, 2, 2), (1, 1, 1, 1),
                                         (1, 3, 2, 1)])
    def test_one_state_profile(self, profile):
        # a 1-state profile cannot be split into two halves
        for s in range(40):
            assert len(random_instance(s, profile).states) <= 1, s

    def test_draws_pinned(self):
        # functionality_check(t, bound=8) filters the draws, so a change
        # to that search must not change which machines are drawn
        draws = [(s, DEFAULT_PROFILE) for s in range(200)]
        draws += [(s, p) for p in ((6, 4, 4, 2), (8, 4, 4, 2), (3, 3, 2, 2),
                                   (5, 2, 2, 2)) for s in range(40)]
        h = hashlib.sha256()
        for s, p in draws:
            h.update(serialize(random_instance(s, p)).encode())
        assert h.hexdigest() == ("f236c0f4d938026c4b25f686c945edd1"
                                 "add7e3516a19e96019375c6c0f302539")


class TestDifferential:
    def test_no_contradictions_small_corpus(self):
        ms = [random_instance(s) for s in range(60)]
        for variant in ("cont", "ucont"):
            for t in ms:
                exact = decide_continuity(t, variant)
                r = brute_force_check(t, variant, 2)
                if isinstance(r, BadPairFound):
                    assert exact is not None, (variant, t)
                    assert recheck_bad_pair(t, r.pair), (variant, t)

    def test_bad_pair_found_for_discontinuous(self):
        ms = [random_instance(s) for s in range(60)]
        for variant in ("cont", "ucont"):
            for t in ms:
                if decide_continuity(t, variant) is None:
                    continue
                assert any(
                    isinstance(brute_force_check(t, variant, b),
                               BadPairFound)
                    for b in (1, 2, 3, 4)), (variant, t)


def eval_up_or_none(t, x):
    try:
        return eval_up(t, x)
    except EpsilonLoopOutput:
        return None


def presentations(letters):
    """Unnormalised (u v^n w, z) presentations, as brute_force_check
    enumerates them."""
    for u in words_up_to(letters, 0, 1):
        for v in words_up_to(letters, 1, 1):
            for w in words_up_to(letters, 0, 1):
                for z in words_up_to(letters, 1, 2):
                    for n in (1, 2):
                        yield u + v * n + w, z


def evaluator_machines():
    yield from LASSO_MACHINES
    yield "SILENT_LOOP", SILENT_LOOP
    for i, t in enumerate(silent_loop_draws()):
        yield f"silent_loop_draws()[{i}]", t


EVALUATOR_MACHINES = list(evaluator_machines())


class TestEvaluator:
    """The one-way evaluator, reading the states reached on the prefix
    and their lasso outputs over the period, against eval_up: the same
    value, or None where eval_up returns None or raises
    EpsilonLoopOutput."""

    @pytest.mark.parametrize("name,t", EVALUATOR_MACHINES,
                             ids=[n for n, _ in EVALUATOR_MACHINES])
    def test_matches_eval_up(self, name, t):
        ev = _evaluator(t)
        letters = sorted(t.alphabet)
        for x in all_up_words(letters, 3, 2):
            assert ev(x.prefix, x.period) == eval_up_or_none(t, x), x
        for prefix, period in presentations(letters):
            assert ev(prefix, period) == \
                eval_up_or_none(t, up_word(prefix, period)), (prefix, period)

    def test_long_prefix(self):
        # the prefix is read letter by letter, with no frame per letter:
        # 40 frames to spare are too few for one per letter
        cases = [(prefix_doubler(), "a" * 60, "c"),
                 (prefix_doubler(), "a" * 60, "d"),
                 (branch_switch(), "ab" * 30, "b"),
                 (SILENT_LOOP, "a" * 60, "a")]
        for t, prefix, period in cases:
            ev = _evaluator(t)
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(len(inspect.stack()) + 40)
            try:
                got = ev(tuple(prefix), tuple(period))
            finally:
                sys.setrecursionlimit(limit)
            want = eval_up_or_none(t, up_word(prefix, period))
            assert got == want, (prefix, period)
        assert want == up_word("", "c")


def pending_split():
    """Functional; on the prefix a it reaches p with output nothing and
    q with output c, and only q reads on past an a."""
    return transducer("ab", "cd", "ipqr",
                      {("i", "a", "p", ""), ("i", "a", "q", "c"),
                       ("p", "b", "p", "cc"), ("q", "a", "q", "d"),
                       ("q", "b", "r", "c"), ("r", "b", "r", "cc")},
                      "i", "pqr")


def family_machines():
    for seed in range(50):
        yield f"random_instance({seed})", random_instance(seed), 2
    yield "SILENT_LOOP", SILENT_LOOP, 2
    for i, t in enumerate(silent_loop_draws()):
        # bound 2 over three letters takes about 34 s for the 36 such
        # draws, bound 1 0.15 s
        yield f"silent_loop_draws()[{i}]", t, 2 if len(t.alphabet) < 3 else 1
    yield "pending_split", pending_split(), 2


FAMILY_MACHINES = list(family_machines())


class TestFamilies:
    """brute_force_check's one-way images, read off per-state rows
    carried along u v^n, against eval_up on every family it reads."""

    def test_pending_split(self):
        t = pending_split()
        assert functionality_check(t) is None
        assert _step(t, _start(t), ("a",)) == {"p": (), "q": ("c",)}

    @pytest.mark.parametrize("name,t,bound", FAMILY_MACHINES,
                             ids=[n for n, _, _ in FAMILY_MACHINES])
    def test_windows_match_eval_up(self, name, t, bound):
        letters = sorted(t.alphabet)
        n_max, window = 2 * bound + 2, 4 * (bound + 2)
        tails = list(itertools.product(words_up_to(letters, 0, bound),
                                       words_up_to(letters, 1, bound)))
        families = _families(t, tails, n_max, window)
        memo = {}

        def image(prefix, period):
            x = up_word(prefix, period)
            if x not in memo:
                memo[x] = eval_up_or_none(t, x)
            return memo[x]

        for u in words_up_to(letters, 0, bound):
            for v in words_up_to(letters, 1, bound):
                limit, windows = families(u, v)
                want = image(u, v)
                assert (None if limit is None else up_word(*limit)) == \
                    want, (u, v)
                for k, (w, z) in enumerate(tails):
                    want = []
                    for n in range(1, n_max + 1):
                        x = image(u + v * n + w, z)
                        if x is None:
                            want = None
                            break
                        want.append(x.take(window))
                    want = None if want is None else tuple(want)
                    assert windows(k) == want, (u, v, w, z)


def full_scan(tails, classes, sigs):
    """_first_mismatch without classes, signatures or the chain test:
    every pair of kept tails, in the order of itertools.combinations."""
    kept = [(wz, sigs[c]) for wz, c in zip(tails, classes)
            if sigs[c] is not None]
    for (a, (ta, sa)), (b, (tb, sb)) in itertools.combinations(kept, 2):
        pos = _mismatch(ta, sa, tb, sb)
        if pos is not None:
            return a, b, pos
    return None


def is_chain(sigs):
    prefixes = [takes[-1][:stable] for takes, stable in
                filter(None, sigs)]
    return all(a[:len(b)] == b or b[:len(a)] == a
               for a, b in itertools.combinations(prefixes, 2))


class TestFirstMismatch:
    """The pair scan: no family pair is compared when the stable
    prefixes form a prefix chain, and otherwise the answer is the full
    scan's."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def wrapped(*args):
            calls.append(args)
            return _mismatch(*args)

        monkeypatch.setattr(oracle, "_mismatch", wrapped)
        return calls

    def test_chain_not_compared(self, counted):
        a, b = tuple("abab"), tuple("abba")
        sigs = [((a, a), 2), ((b, b), 3), None, ((a, b), 0), ((b, a), 2)]
        tails = [(("a",) * k, ("b",)) for k in range(len(sigs))]
        assert is_chain(sigs)
        assert _first_mismatch(tails, range(len(sigs)), sigs) is None
        assert counted == []

    def test_mismatch_pair(self, counted):
        # tails 1 and 2 are one class; tail 3 keeps a mismatch at 1
        # with both, and so does tail 0, whose stable bound is 2, with
        # tail 3 only
        sigs = [((tuple("aab"), tuple("aab")), 2),
                ((tuple("aaa"), tuple("aaa")), 3),
                ((tuple("abb"), tuple("abb")), 3)]
        tails = [((), (c,)) for c in "wxyz"]
        classes = [0, 1, 1, 2]
        assert not is_chain(sigs)
        want = full_scan(tails, classes, sigs)
        assert want == (tails[0], tails[3], 1)
        assert _first_mismatch(tails, classes, sigs) == want
        assert counted

    def test_random_lists(self):
        # as brute_force_check makes them: classes numbered in the order
        # they first appear, each with at least one tail, and one sample
        # count for every family
        rng = random.Random(5)
        for _ in range(3000):
            first = {}
            classes = [first.setdefault(rng.randrange(5), len(first))
                       for _ in range(rng.randrange(1, 8))]
            n = rng.randrange(1, 4)
            sigs = []
            for _ in first:
                if rng.random() < 0.15:
                    sigs.append(None)
                    continue
                takes = tuple(tuple(rng.choice("ab") for _ in range(3))
                              for _ in range(n))
                sigs.append((takes, rng.randrange(4)))
            tails = [((), ("a",) * (k + 1)) for k in range(len(classes))]
            assert _first_mismatch(tails, classes, sigs) == \
                full_scan(tails, classes, sigs), (classes, sigs)


class TestTailClasses:
    """brute_force_check reads one family per distinct tail word
    w z^omega."""

    @pytest.mark.parametrize("name,t,bound", FAMILY_MACHINES,
                             ids=[n for n, _, _ in FAMILY_MACHINES])
    def test_one_word_one_family(self, name, t, bound):
        letters = sorted(t.alphabet)
        n_max, window = 2 * bound + 2, 4 * (bound + 2)
        tails = list(itertools.product(words_up_to(letters, 0, bound),
                                       words_up_to(letters, 1, bound)))
        classes = {}
        for k, (w, z) in enumerate(tails):
            classes.setdefault(up_word(w, z), []).append(k)
        assert any(len(ks) > 1 for ks in classes.values())
        families = _families(t, tails, n_max, window)
        for u in words_up_to(letters, 0, bound):
            for v in words_up_to(letters, 1, bound):
                windows = families(u, v)[1]
                for ks in classes.values():
                    assert len({windows(k) for k in ks}) == 1, \
                        (u, v, [tails[k] for k in ks])

    @pytest.mark.parametrize("letters,bound,count", [
        ("ab", 2, 16), ("ab", 1, 4), ("a", 3, 1), ("abc", 2, 81),
        ("ab", 3, 80)])
    def test_first_tail_per_word(self, monkeypatch, letters, bound, count):
        copier = transducer(letters, letters, "q",
                            {("q", a, "q", a) for a in letters}, "q", "q")
        handed = []

        def stop(machine, tails, n_max, window):
            handed.extend(tails)
            raise LookupError

        monkeypatch.setattr(oracle, "_families", stop)
        with pytest.raises(LookupError):
            brute_force_check(copier, "cont", bound)
        firsts = {}
        for w, z in itertools.product(words_up_to(letters, 0, bound),
                                      words_up_to(letters, 1, bound)):
            firsts.setdefault(up_word(w, z), (w, z))
        assert handed == list(firsts.values())
        assert len(handed) == count

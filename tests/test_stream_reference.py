"""Streaming commits against the greedy mismatch loop.

stream_step commits a plain two-way machine's run output, checked by
the domain oracle.  _reference_step keeps the former route: the domain
oracle decides DeadInput, then output letters are committed greedily,
each one only when the mismatch question says no domain extension
contradicts it, up to the length of the run's output.  Both must emit
the same symbols on every step.

One-way and look-ahead machines commit the longest prefix of one
candidate image that the mismatch question allows.  _greedy_step keeps
the former route for them: every output letter tried in order, up to
_commit_cap.  Again both must emit the same symbols on every step.
"""

import itertools

import pytest

from omegacont.fixtures import (block_doubler, branch_switch,
                                prefix_doubler, prefix_doubler_2way,
                                stem_doubler, tail_classifier)
from omegacont.oneway import Transducer, trim_transducer
from omegacont.oracle import random_instance
from omegacont.stream_eval import (DeadInput, StreamState, mismatch_exists,
                                   stream_start, stream_step)
from omegacont.twoway import ENDMARKER, DomainOracle, run_finite, two_way
from omegacont.words import Word

STATE_CAP, EXT_BOUND = 12, 4


def _reference_step(s: StreamState, a):
    consumed = s.consumed + (a,)
    oracle = DomainOracle(s.machine, state_cap=STATE_CAP,
                          ext_bound=EXT_BOUND)
    if not oracle.pref_member(consumed):
        raise DeadInput("".join(map(str, consumed)))
    committed = s.committed
    emitted = []
    letters = sorted(s.machine.output_alphabet)
    cap = len(run_finite(s.machine, consumed).output)
    progress = True
    while progress and len(committed) < cap:
        progress = False
        for g in letters:
            cand = committed + (g,)
            if not mismatch_exists(s.machine, consumed, cand,
                                   STATE_CAP, EXT_BOUND):
                committed = cand
                emitted.append(g)
                progress = True
                break
    return StreamState(s.machine, consumed, committed), tuple(emitted)


def _steps(step, machine, word):
    """Emitted symbols of each step, ending with "dead" if one raises
    DeadInput."""
    s = stream_start(machine)
    out = []
    for a in word:
        try:
            s, emitted = step(s, a)
        except DeadInput:
            out.append("dead")
            break
        out.append("".join(emitted))
    return out


def _words(alphabet, max_len):
    return ["".join(w) for k in range(1, max_len + 1)
            for w in itertools.product(sorted(alphabet), repeat=k)]


DBL = block_doubler()


@pytest.mark.parametrize(
    "word", _words(DBL.alphabet, 2) + ["ab#", "ba#", "aa#"])
def test_block_doubler_matches_reference(word):
    assert _steps(stream_step, DBL, word) == \
        _steps(_reference_step, DBL, word)


def _doubled_closed_blocks_then_open(word):
    """What every domain extension of word agrees on under the block
    doubler: each #-closed block written twice, then the open block."""
    *closed, open_block = word.split("#")
    return "".join(b + b for b in closed) + open_block


def test_block_doubler_closed_form():
    for word in _words(DBL.alphabet, 4):
        s = stream_start(DBL)
        for k, a in enumerate(word, start=1):
            s, _ = stream_step(s, a)
            assert "".join(s.committed) == \
                _doubled_closed_blocks_then_open(word[:k]), word[:k]


def _a_copier():
    """Copies a's rightward and has no move on b: every input with a b
    is outside the domain."""
    return two_way("ab", "a", ["q"],
                   {("q", ENDMARKER, "q", "", 1), ("q", "a", "q", "a", 1)},
                   "q", ["q"])


def _a_checker():
    """Walks right over a's, goes back on b, and blocks at the left
    endmarker: every input with a b is outside the domain, yet the run
    on it moves left first."""
    return two_way("ab", "a", ["q", "back"],
                   {("q", ENDMARKER, "q", "", 1), ("q", "a", "q", "a", 1),
                    ("q", "b", "back", "", -1),
                    ("back", "a", "back", "", -1)},
                   "q", ["q"])


@pytest.mark.parametrize("machine", [_a_copier(), _a_checker()])
def test_dead_input_on_first_blocking_symbol(machine):
    s = stream_start(machine)
    for a in "aa":
        s, emitted = stream_step(s, a)
        assert emitted == ("a",)
    with pytest.raises(DeadInput, match="aab"):
        stream_step(s, "b")
    assert _steps(stream_step, machine, "aaba") == ["a", "a", "dead"]
    assert _steps(_reference_step, machine, "aaba") == ["a", "a", "dead"]


def test_oracle_built_once_per_stream():
    s = stream_step(stream_start(DBL), "a")[0]
    oracle = s.oracle
    assert oracle is not None
    for a in "b#a":
        s = stream_step(s, a)[0]
        assert s.oracle is oracle


def _commit_cap(machine, consumed: Word) -> int:
    """How far the committed buffer of a one-way or look-ahead machine
    may grow: the most output the machine itself has produced on the
    consumed input.  Once the image is fully determined every prefix is
    safe, so without this cap the greedy commit loop would never stop."""
    if isinstance(machine, Transducer):
        t = trim_transducer(machine)
        best = {q: 0 for q in t.initial}
        for a in consumed:
            nxt = {}
            for q, n in best.items():
                for (r, g) in t.arcs(q, a):
                    if n + len(g) > nxt.get(r, -1):
                        nxt[r] = n + len(g)
            best = nxt
        return max(best.values(), default=0)
    per_step = max((len(g) for (_, g, _) in machine.delta.values()),
                   default=0)
    return len(consumed) * per_step


def _greedy_step(s: StreamState, a, state_cap: int = 12,
                 ext_bound: int = 4):
    m = s.machine
    consumed = s.consumed + (a,)
    oracle = s.oracle or DomainOracle(m, state_cap, ext_bound)
    if not oracle.pref_member(consumed):
        if oracle.exact:
            raise DeadInput("".join(map(str, consumed)))
        # only sampled: no extension found within ext_bound
        return StreamState(m, consumed, s.committed, oracle), ()
    committed = s.committed
    emitted = []
    letters = sorted(m.output_alphabet)
    cap = _commit_cap(m, consumed)
    progress = True
    while progress and len(committed) < cap:
        progress = False
        for g in letters:
            cand = committed + (g,)
            if not mismatch_exists(m, consumed, cand, state_cap,
                                   ext_bound):
                committed = cand
                emitted.append(g)
                progress = True
                break
    return StreamState(m, consumed, committed, oracle), tuple(emitted)


def _longest(alphabet, n):
    # the steps of every word of length n cover every shorter input
    return ["".join(w) for w in itertools.product(sorted(alphabet), repeat=n)]


@pytest.mark.parametrize("machine", [prefix_doubler(), branch_switch(),
                                     tail_classifier()],
                         ids=["t_c", "t_nc", "t_inf"])
def test_one_way_fixtures_match_greedy(machine):
    for word in _longest(machine.alphabet, 4):
        assert _steps(stream_step, machine, word) == \
            _steps(_greedy_step, machine, word), word


def test_random_one_way_match_greedy():
    for seed in range(50):
        machine = random_instance(seed)
        for word in _longest(machine.alphabet, 4):
            assert _steps(stream_step, machine, word) == \
                _steps(_greedy_step, machine, word), (seed, word)


def test_longest_run_shorter_than_the_committed_output():
    # after bb the longest run of this machine has written nothing,
    # less than the committed a, on exact answers: the step commits
    # nothing, as the greedy steps do
    machine = random_instance(186)
    assert _steps(stream_step, machine, "bbaa") == ["a", "", "", "ab"]
    assert _steps(_greedy_step, machine, "bbaa") == ["a", "", "", "ab"]


@pytest.mark.parametrize("machine,word", [
    (prefix_doubler_2way(), "c"), (prefix_doubler_2way(), "ac"),
    (prefix_doubler_2way(), "ad"), (stem_doubler(), "ba")],
    ids=["t_c_2way-c", "t_c_2way-ac", "t_c_2way-ad", "j-ba"])
def test_look_ahead_matches_greedy(machine, word):
    assert _steps(stream_step, machine, word) == \
        _steps(_greedy_step, machine, word)

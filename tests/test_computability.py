"""The source paper's theorem on one-way streams: a regular function is
computable exactly where it is continuous, and stream_step computes it.

- At every domain UP word x = u(v) of a continuous machine, the commit
  after u v^K is longer than after u v^2, and it is a prefix of f(x).
- Along the limit u v^omega of a discontinuity witness, the commit
  after u v^n, n <= K, never passes the witness's mismatch position.

K is fixed.  A word whose commit stalls is a defect of the decision or
of the stream, never a reason to raise K or to drop the word.
"""

import pytest

from conftest import SILENT_LOOP, silent_loop_draws
from omegacont.buchi import all_up_words
from omegacont.fixtures import branch_switch, prefix_doubler, tail_classifier
from omegacont.oneway import EpsilonLoopOutput, decide_continuity, eval_up
from omegacont.oracle import random_instance
from omegacont.stream_eval import stream_feed, stream_start, stream_step

K = 10

CORPORA = {
    "fixtures": lambda: [branch_switch(), prefix_doubler(),
                         tail_classifier()],
    "random_instance": lambda: [random_instance(s) for s in range(200)],
    "silent_loop": lambda: list(silent_loop_draws()) + [SILENT_LOOP],
}


def _feed(s, word):
    for a in word:
        s, _ = stream_step(s, a)
    return s


def _value(t, x):
    try:
        return eval_up(t, x)
    except EpsilonLoopOutput:
        return None  # accepted, but x is not in dom f


# the domain words of continuous machines, and the discontinuous machines
COUNTS = {"fixtures": (7, 2), "random_instance": (967, 12),
          "silent_loop": (1186, 4)}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_commit_grows_exactly_where_continuous(corpus):
    words = broken = 0
    for t in CORPORA[corpus]():
        wit = decide_continuity(t, "cont")
        if wit is not None:
            broken += 1
            s = stream_feed(t, wit.u + wit.v * K)[0]
            assert len(s.committed) <= wit.mismatch_pos, (t, wit)
            continue
        for x in all_up_words(sorted(t.alphabet), 2, 2):
            fx = _value(t, x)
            if fx is None:
                continue
            words += 1
            s2 = _feed(stream_start(t), x.prefix + x.period * 2)
            s10 = _feed(s2, x.period * (K - 2))
            assert len(s10.committed) > len(s2.committed), (t, x)
            assert fx.take(len(s10.committed)) == s10.committed, (t, x)
    assert (words, broken) == COUNTS[corpus]

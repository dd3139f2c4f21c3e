"""safe_prefix_length against the per-prefix question it replaced.

ref_universal_prefix_consistent and ref_consume_against are the former
universal_prefix_consistent and its status helper: read u tracking how
much of w each run has matched, then search a mismatching tail from
every run still short of w.  safe_prefix_length must return the largest
k for which that question accepts w[:k], on the one-way fixtures and
random_instance(0..49), for every input u of length at most 3 and every
output word w of length at most 3.
"""

import pytest

from omegacont.fixtures import branch_switch, prefix_doubler, tail_classifier
from omegacont.oneway import (MM, _mismatching_tail, safe_prefix_length,
                              trim_transducer, universal_prefix_consistent)
from omegacont.oracle import random_instance
from omegacont.words import as_word, mismatch, words_up_to


def ref_universal_prefix_consistent(t, u, w) -> bool:
    u, w = as_word(u), as_word(w)
    t = trim_transducer(t)
    # Read u, tracking how much of w each run's output has matched.
    # ("ext",) marks runs whose output already covers all of w; a run
    # that mismatches mid-u only matters if it survives all of u.
    cur = {(q, ("pfx", 0)) for q in t.initial}
    for a in u:
        nxt = set()
        for (q, st) in cur:
            for (r, g) in t.arcs(q, a):
                nxt.add((r, ref_consume_against(st, g, w)))
        cur = nxt
    # Extensions of u: only runs still short of w can still disagree.
    for (q, st) in cur:
        if st == MM:
            return False
        if st == ("ext",):
            continue
        _, k = st
        if _mismatching_tail(t, q, w[k:]) is not None:
            return False
    return True


def ref_consume_against(st, g, w):
    if st == ("ext",) or st == MM:
        return st
    _, k = st
    m = mismatch(g, w[k:])
    if m is not None:
        return MM
    k2 = k + len(g)
    return ("ext",) if k2 >= len(w) else ("pfx", k2)


MACHINES = [("t_nc", branch_switch), ("t_c", prefix_doubler),
            ("t_inf", tail_classifier)]
MACHINES += [(f"random_instance({s})", lambda s=s: random_instance(s))
             for s in range(50)]


@pytest.mark.parametrize("make", [m for _, m in MACHINES],
                         ids=[n for n, _ in MACHINES])
def test_safe_prefix_length_matches_reference(make):
    t = make()
    outputs = list(words_up_to(sorted(t.output_alphabet), 0, 3))
    for u in words_up_to(sorted(t.alphabet), 0, 3):
        for w in outputs:
            want = max(k for k in range(len(w) + 1)
                       if ref_universal_prefix_consistent(t, u, w[:k]))
            assert safe_prefix_length(t, u, w) == want, (u, w)
            assert universal_prefix_consistent(t, u, w) == \
                (want == len(w)), (u, w)

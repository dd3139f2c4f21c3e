"""The indexed lasso search and the single-search eval_up against the
straightforward versions they replaced.

The references below scan the whole transition set on every successor
query, re-query successors in every cycle search, and evaluate a UP
word with one cycle search per (final state, position).  The fast code
must return the same value, None or EpsilonLoopOutput, and the same
lasso, on every machine and word tried here.
"""

import pytest

from omegacont.buchi import (Lasso, accepts_some, all_up_words, find_lasso,
                             member_up)
from omegacont.fixtures import branch_switch, prefix_doubler, tail_classifier
from omegacont.oneway import (EpsilonLoopOutput, domain_automaton, eval_up,
                              transducer)
from omegacont.oracle import random_instance
from omegacont.words import UPWord, up_word


def ref_find_lasso(initial_nodes, successors, is_final):
    parent = {}
    order = []
    queue = list(dict.fromkeys(initial_nodes))
    seen = set(queue)
    while queue:
        n = queue.pop(0)
        order.append(n)
        for (lab, m) in successors(n):
            if m not in seen:
                seen.add(m)
                parent[m] = (n, lab)
                queue.append(m)

    def path_to(n):
        nodes, labels = [n], []
        while n in parent:
            n, lab = parent[n]
            nodes.append(n)
            labels.append(lab)
        return tuple(reversed(nodes)), tuple(reversed(labels))

    for f in order:
        if not is_final(f):
            continue
        cycle = ref_find_cycle(f, successors)
        if cycle is not None:
            loop_nodes, loop_labels = cycle
            stem_nodes, stem_labels = path_to(f)
            return Lasso(stem_nodes, stem_labels, loop_nodes, loop_labels)
    return None


def ref_find_cycle(f, successors):
    cparent = {}
    cqueue = []
    cseen = set()

    def rebuild(last, lab):
        nodes, labels = [f], [lab]
        k = last
        while k != f:
            k2, l2 = cparent[k]
            nodes.append(k)
            labels.append(l2)
            k = k2
        nodes.reverse()
        labels.reverse()
        return tuple(nodes), tuple(labels)

    for (lab, m) in successors(f):
        if m == f:
            return (f,), (lab,)
        if m not in cseen:
            cseen.add(m)
            cparent[m] = (f, lab)
            cqueue.append(m)
    while cqueue:
        n = cqueue.pop(0)
        for (lab, m) in successors(n):
            if m == f:
                return rebuild(n, lab)
            if m not in cseen:
                cseen.add(m)
                cparent[m] = (n, lab)
                cqueue.append(m)
    return None


def ref_arcs(t, q, a):
    return [(r, g) for (p, b, r, g) in t.transitions if p == q and b == a]


def ref_product_succ(t, x):
    """Successors on (state, position) nodes of t running on x."""
    p, n = len(x.prefix), len(x.prefix) + len(x.period)

    def succ(node):
        q, i = node
        j = i + 1 if i + 1 < n else p
        return [(g, (r, j)) for (r, g) in ref_arcs(t, q, x[i])]

    return succ


def ref_eval_up(t, x):
    n = len(x.prefix) + len(x.period)
    succ = ref_product_succ(t, x)
    starts = [(q, 0) for q in t.initial]
    if ref_find_lasso(starts, succ, lambda nd: nd[0] in t.final) is None:
        return None

    def succ_flag(node):
        nd, flag = node
        return [(g, (m, flag or len(g) > 0)) for (g, m) in succ(nd)]

    for f_state in t.final:
        for i in range(n):
            f = (f_state, i)
            stem = ref_path_between(starts, f, succ)
            if stem is None:
                continue
            cyc = ref_find_lasso([(f, False)], succ_flag,
                                 lambda nd: nd[0] == f and nd[1])
            if cyc is not None:
                loop_out = tuple(c for g in cyc.stem_labels for c in g)
                stem_out = tuple(c for g in stem for c in g)
                if loop_out:
                    return up_word(stem_out, loop_out)
    raise EpsilonLoopOutput(str(x))


def ref_path_between(starts, target, succ):
    if target in starts:
        return ()
    parent = {}
    seen = set(starts)
    queue = list(starts)
    while queue:
        nd = queue.pop(0)
        for (lab, m) in succ(nd):
            if m not in seen:
                seen.add(m)
                parent[m] = (nd, lab)
                if m == target:
                    labels = []
                    k = m
                    while k in parent:
                        k, l2 = parent[k]
                        labels.append(l2)
                    return tuple(reversed(labels))
                queue.append(m)
    return None


def ref_member_up(b, x):
    """Lasso search over (state, position) that tries every final node,
    prefix positions included."""
    p, n = len(x.prefix), len(x.prefix) + len(x.period)

    def succ(node):
        q, i = node
        j = i + 1 if i + 1 < n else p
        return [(a, (r, j)) for (s, a, r) in b.transitions
                if s == q and a == x[i]]

    starts = [(q, 0) for q in b.initial]
    return ref_find_lasso(starts, succ, lambda nd: nd[0] in b.final) \
        is not None


def outcome(evaluate, t, x):
    try:
        return evaluate(t, x)
    except EpsilonLoopOutput:
        return EpsilonLoopOutput


def machines():
    yield "branch_switch", branch_switch()
    yield "prefix_doubler", prefix_doubler()
    yield "tail_classifier", tail_classifier()
    # accepted words whose only accepting runs are silent from some point
    yield "silent_tail", transducer(
        "a", "x", ["q", "f"],
        {("q", "a", "f", "x"), ("f", "a", "f", "")}, ["q"], ["f"])
    # a silent and an emitting accepting loop on the same word
    yield "mixed_loops", transducer(
        "ab", "x", ["q", "f", "g"],
        {("q", "a", "f", ""), ("f", "a", "f", ""), ("f", "b", "g", ""),
         ("q", "a", "g", "x"), ("g", "a", "g", "x"), ("g", "b", "f", "")},
        ["q"], ["f", "g"])
    for seed in range(50):
        yield f"random_instance({seed})", random_instance(seed)


MACHINES = list(machines())


@pytest.mark.parametrize("name,t", MACHINES, ids=[n for n, _ in MACHINES])
def test_eval_up_and_lassos_match_reference(name, t):
    starts = [(q, 0) for q in t.initial]

    def is_final(nd):
        return nd[0] in t.final

    for x in all_up_words(t.alphabet, 3, 2):
        assert outcome(eval_up, t, x) == outcome(ref_eval_up, t, x), x
        succ = ref_product_succ(t, x)
        assert find_lasso(starts, succ, is_final) == \
            ref_find_lasso(starts, succ, is_final), x


@pytest.mark.parametrize("name,t", MACHINES, ids=[n for n, _ in MACHINES])
def test_accepts_some_matches_reference(name, t):
    b = domain_automaton(t)

    def succ(q):
        return [(a, r) for (p, a, r) in b.transitions if p == q]

    assert accepts_some(b) == \
        ref_find_lasso(b.initial, succ, lambda q: q in b.final)


@pytest.mark.parametrize("name,t", MACHINES, ids=[n for n, _ in MACHINES])
def test_member_up_matches_reference(name, t):
    b = domain_automaton(t)
    for x in all_up_words(t.alphabet, 3, 2):
        assert member_up(b, x) == ref_member_up(b, x), x


def test_reference_covers_every_outcome():
    got = [outcome(eval_up, t, x)
           for _, t in MACHINES for x in all_up_words(t.alphabet, 3, 2)]
    assert None in got
    assert EpsilonLoopOutput in got
    assert any(isinstance(y, UPWord) for y in got)
    member = {member_up(domain_automaton(t), x)
              for _, t in MACHINES for x in all_up_words(t.alphabet, 3, 2)}
    assert member == {True, False}

"""The one-way path searches on the breadth-first kernel of buchi
against the hand-written searches they replaced.

The references below are the former _pair_cycle, _mismatching_tail and
_pair_mismatching_tails, each with its own queue and parent pointers.
On every node of the paired-run graph that decide_continuity explores
(stage A), for the one-way fixtures and random_instance(0..49), the
kernel-based versions must return exactly the same labels and end
states.  The kernel itself is unit-tested at the end.
"""

import pytest

from omegacont.buchi import bfs_path, explore, path_to
from omegacont.fixtures import branch_switch, prefix_doubler, tail_classifier
from omegacont.oneway import (EQUAL, MM, OF, _mismatching_tail, _pair_cycle,
                              _pair_mismatching_tails, advance_status,
                              delay_bound, trim_transducer)
from omegacont.oracle import random_instance
from omegacont.words import mismatch, words_up_to


def ref_pair_cycle(t, q1, q2, need_final, eps1=False, eps2=False):
    start_flag = (q1 in t.final) if need_final else True
    start = ((q1, q2), start_flag)
    target = ((q1, q2), True)

    def succ(node):
        (s1, s2), flag = node
        out = []
        for (a, r1, g1) in t.out_arcs(s1):
            if eps1 and g1:
                continue
            for (r2, g2) in t.arcs(s2, a):
                if eps2 and g2:
                    continue
                nf = flag or (not need_final) or (r1 in t.final)
                out.append(((a, g1, g2), ((r1, r2), nf)))
        return out

    # Path of length >= 1 from start back to target.
    parent = {}
    seen = set()
    queue = []
    for (lab, m) in succ(start):
        if m == target:
            return (lab,)
        if m not in seen:
            seen.add(m)
            parent[m] = (None, lab)
            queue.append(m)
    while queue:
        n = queue.pop(0)
        for (lab, m) in succ(n):
            if m == target:
                labs = [lab]
                k = n
                while k is not None:
                    k2, l2 = parent[k]
                    labs.append(l2)
                    k = k2
                return tuple(reversed(labs))
            if m not in seen:
                seen.add(m)
                parent[m] = (n, lab)
                queue.append(m)
    return None


def ref_mismatching_tail(t, q2, pending):
    start = (q2, 0)
    parent = {}
    seen = {start}
    queue = [start]
    while queue:
        (s, j) = queue.pop(0)
        for (a, r, g) in t.out_arcs(s):
            rest = pending[j:]
            m = mismatch(g, rest)
            if m is not None:
                labs = [(a, g)]
                k = (s, j)
                while k in parent:
                    k, l2 = parent[k]
                    labs.append(l2)
                return tuple(reversed(labs)), r
            if j + len(g) >= len(pending):
                continue
            node = (r, j + len(g))
            if node not in seen:
                seen.add(node)
                parent[node] = ((s, j), (a, g))
                queue.append(node)
    return None


def ref_pair_mismatching_tails(t, q1, q2, status, bound):
    start = (q1, q2, status)
    parent = {}
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop(0)
        (s1, s2, st) = node
        moves = [(1, (a, g), (r, s2)) for (a, r, g) in t.out_arcs(s1)]
        moves += [(2, (a, g), (s1, r)) for (a, r, g) in t.out_arcs(s2)]
        for side, lab, (n1, n2) in moves:
            g = lab[1]
            st2 = advance_status(st, g if side == 1 else (),
                                 g if side == 2 else (), bound)
            if st2 == OF:
                continue
            nxt = (n1, n2, st2)
            if st2 == MM:
                labs = [(side, lab)]
                k = node
                while k in parent:
                    k, l2 = parent[k]
                    labs.append(l2)
                labs.reverse()
                w1 = tuple(l for (sd, l) in labs if sd == 1)
                w2 = tuple(l for (sd, l) in labs if sd == 2)
                return w1, n1, w2, n2
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (node, (side, lab))
                queue.append(nxt)
    return None


def stage_a_nodes(t, bound):
    """The paired-run nodes decide_continuity explores, in its order."""
    def succ(node):
        q1, q2, status = node
        out = []
        for (a, r1, g1) in t.out_arcs(q1):
            for (r2, g2) in t.arcs(q2, a):
                ns = advance_status(status, g1, g2, bound)
                out.append(((a, g1, g2), (r1, r2, ns)))
        return out

    init = [(p1, p2, EQUAL) for p1 in sorted(t.initial)
            for p2 in sorted(t.initial)]
    return list(explore(init, succ)[0])


MACHINES = [("t_nc", branch_switch), ("t_c", prefix_doubler),
            ("t_inf", tail_classifier)]
MACHINES += [(f"random_instance({s})", lambda s=s: random_instance(s))
             for s in range(50)]

FLAGS = [(nf, e1, e2) for nf in (False, True) for e1 in (False, True)
         for e2 in (False, True)]


@pytest.mark.parametrize("make", [m for _, m in MACHINES],
                         ids=[n for n, _ in MACHINES])
def test_stage_a_searches_match_reference(make):
    t = trim_transducer(make())
    bound = delay_bound(t)
    nodes = stage_a_nodes(t, bound)
    assert nodes
    for (q1, q2, status) in nodes:
        for (nf, e1, e2) in FLAGS:
            assert _pair_cycle(t, q1, q2, nf, e1, e2) == \
                ref_pair_cycle(t, q1, q2, nf, e1, e2)
        if status in (MM, OF):
            continue
        side, pending = status
        q = q2 if side == 1 else q1
        assert _mismatching_tail(t, q, pending) == \
            ref_mismatching_tail(t, q, pending)
        assert _pair_mismatching_tails(t, q1, q2, status, bound, set()) == \
            ref_pair_mismatching_tails(t, q1, q2, status, bound)


@pytest.mark.parametrize("make", [m for _, m in MACHINES[:3]],
                         ids=[n for n, _ in MACHINES[:3]])
def test_mismatching_tail_on_every_state_and_short_word(make):
    # the queries universal_prefix_consistent makes while streaming
    t = trim_transducer(make())
    for q in sorted(t.states):
        for w in words_up_to(sorted(t.output_alphabet), 0, 3):
            assert _mismatching_tail(t, q, w) == \
                ref_mismatching_tail(t, q, w)


# ---------------------------------------------------------------------------
# The kernel


def graph(edges):
    """Successor function of a labelled graph given as (n, label, m)."""
    def succ(n):
        return [(lab, m) for (p, lab, m) in edges if p == n]
    return succ


def test_bfs_path_closes_a_cycle_on_the_start():
    succ = graph([(0, "a", 1), (1, "b", 2), (2, "c", 0), (1, "d", 0)])
    assert bfs_path([0], succ, lambda n: n == 0) == ((1, 0), ("a", "d"))
    assert bfs_path([0], graph([(0, "x", 0)]), lambda n: n == 0) == \
        ((0,), ("x",))


def test_bfs_path_unreachable_goal_is_none():
    succ = graph([(0, "a", 1), (1, "b", 0), (2, "c", 3)])
    assert bfs_path([0], succ, lambda n: n == 3) is None
    assert bfs_path([0], graph([]), lambda n: n == 0) is None


def test_bfs_path_nodes_and_labels_align():
    edges = [(i, f"{i}>{j}", j) for i in range(6) for j in range(6)
             if (i * 7 + j * 3) % 5 < 2 and i != j]
    succ = graph(edges)
    for start in range(6):
        for goal in range(6):
            path = bfs_path([start], succ, lambda n: n == goal)
            if path is None:
                continue
            nodes, labels = path
            assert len(nodes) == len(labels) >= 1
            assert nodes[-1] == goal
            prev = (start,) + nodes[:-1]
            assert labels == tuple(f"{p}>{n}" for p, n in zip(prev, nodes))


def test_bfs_path_is_shortest_and_prefers_successor_order():
    succ = graph([(0, "long", 1), (1, "x", 3), (3, "y", 4),
                  (0, "short", 2), (2, "z", 4)])
    assert bfs_path([0], succ, lambda n: n == 4) == ((2, 4), ("short", "z"))
    succ = graph([(0, "p", 1), (0, "r", 2), (2, "s", 5), (1, "q", 5)])
    assert bfs_path([0], succ, lambda n: n == 5) == ((1, 5), ("p", "q"))


def test_explore_order_and_parents():
    succ = graph([(0, "a", 1), (0, "b", 2), (1, "c", 3), (2, "d", 3),
                  (3, "e", 0), (4, "f", 0)])
    succs, parent = explore([2, 0, 2], succ)
    assert list(succs) == [2, 0, 3, 1]
    assert succs[3] == (("e", 0),)
    assert parent == {3: (2, "d"), 1: (0, "a")}
    assert path_to(parent, 3) == ((2, 3), ("d",))
    assert path_to(parent, 0) == ((0,), ())

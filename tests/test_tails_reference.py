"""decide_continuity's "ucont" tails search, which skips the nodes an
earlier failed search of the same call reached, against the search it
replaced.

The reference below is the former _pair_mismatching_tails, kept as it
was: every call explores the tails graph from its own start, however
much of it earlier calls explored.  With the reference patched in,
decide_continuity(t, "ucont") must return the same witness (or None)
on random_instance(0..199), SILENT_LOOP and silent_loop_draws().
"""

from omegacont import buchi, oneway
from omegacont.oneway import MM, OF, advance_status, decide_continuity
from omegacont.oracle import random_instance
from conftest import SILENT_LOOP, first_draw, silent_loop_draws


def ref_pair_mismatching_tails(t, q1, q2, status, bound, dead=None):
    # dead is ignored: the reference searches from scratch every time
    def succ(node):
        (s1, s2, st) = node
        moves = [(1, (a, g), (r, s2)) for (a, r, g) in t.out_arcs(s1)]
        moves += [(2, (a, g), (s1, r)) for (a, r, g) in t.out_arcs(s2)]
        out = []
        for side, lab, (n1, n2) in moves:
            g = lab[1]
            st2 = advance_status(st, g if side == 1 else (),
                                 g if side == 2 else (), bound)
            if st2 != OF:
                out.append(((side, lab), (n1, n2, st2)))
        return out

    path = buchi.bfs_path(((q1, q2, status),), succ, lambda n: n[2] == MM)
    if path is None:
        return None
    nodes, labels = path
    w1 = tuple(l for (sd, l) in labels if sd == 1)
    w2 = tuple(l for (sd, l) in labels if sd == 2)
    return w1, nodes[-1][0], w2, nodes[-1][1]


def machines():
    for seed in range(200):
        yield f"random_instance({seed})", random_instance(seed)
    yield "SILENT_LOOP", SILENT_LOOP
    for i, t in enumerate(silent_loop_draws()):
        yield f"silent_loop_draws()[{i}]", t


MACHINES = list(machines())


def test_ucont_matches_reference(monkeypatch):
    got = {name: repr(decide_continuity(t, "ucont")) for name, t in MACHINES}
    monkeypatch.setattr(oneway, "_pair_mismatching_tails",
                        ref_pair_mismatching_tails)
    for name, t in MACHINES:
        assert got[name] == repr(decide_continuity(t, "ucont")), name
    # both answers occur on the corpus
    assert any(v == "None" for v in got.values())
    assert any(v != "None" for v in got.values())


def test_each_tails_node_expanded_once(monkeypatch):
    # the raw first draw of seed 15 (a silent loop, so its states are
    # (state, phase) pairs) asks for tails at many paired-run nodes
    # whose tails graphs overlap; searched from scratch each time, they
    # expand 36 100 nodes, 380 of them distinct
    expanded = []
    bfs_path = buchi.bfs_path

    def logged(starts, successors, goal):
        starts = tuple(starts)
        # a tails search starts at one (q1, q2, status) node
        if isinstance(starts[0], tuple) and len(starts[0]) == 3:
            def successors_logged(node):
                expanded.append(node)
                return successors(node)
            return bfs_path(starts, successors_logged, goal)
        return bfs_path(starts, successors, goal)

    monkeypatch.setattr(oneway, "bfs_path", logged)
    t = first_draw(15, (4, 2, 2, 2))
    assert decide_continuity(t, "ucont") is None
    assert expanded
    assert len(expanded) == len(set(expanded))


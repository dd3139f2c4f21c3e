"""Nondeterministic Buchi automata and the lasso searches built on them.

Transitions are a set of (state, symbol, state) triples.  Acceptance:
some run visits a final state infinitely often.  Most decision
procedures here reduce to searching a derived graph given by a
successor function node -> (label, node) pairs.  Every such search in
the package goes through one breadth-first kernel defined here:
explore (the reachable part, with parent edges), bfs_path (a shortest
non-empty path to a goal node) and path_to (reading a path off the
parent edges).  find_lasso, the reachable parts of product, closure
and the two-way crossing-sequence construction, and the paired-run
searches of the one-way decision procedures are built on it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from typing import Callable, FrozenSet, Hashable, Iterable, Optional, Tuple

from .words import UPWord, up_word

State = Hashable
Node = Hashable


@dataclass(frozen=True)
class BuchiAutomaton:
    alphabet: FrozenSet
    states: FrozenSet[State]
    transitions: FrozenSet[Tuple[State, object, State]]
    initial: FrozenSet[State]
    final: FrozenSet[State]

    def __post_init__(self):
        for (q, a, r) in self.transitions:
            if q not in self.states or r not in self.states:
                raise ValueError(f"transition {(q, a, r)} uses unknown state")
            if a not in self.alphabet:
                raise ValueError(f"transition {(q, a, r)} uses unknown symbol")
        if not self.initial <= self.states or not self.final <= self.states:
            raise ValueError("initial/final states must be states")

    @cached_property
    def _index(self):
        return _index_transitions(self.transitions)

    def out_edges(self, q: State) -> Tuple[Tuple[object, State], ...]:
        """Outgoing (symbol, target) pairs of q, in transition order."""
        return self._index[0].get(q, ())

    def successors(self, q: State, a) -> FrozenSet[State]:
        return self._index[1].get((q, a), frozenset())

    @cached_property
    def _period_states(self):
        return {}

    def period_states(self, period) -> FrozenSet[State]:
        """The states from which the automaton accepts period^omega,
        found once per period (_accepting_period)."""
        table = self._period_states
        if period not in table:
            table[period] = self._accepting_period(period)
        return table[period]

    def _accepting_period(self, period) -> FrozenSet[State]:
        """The states from which the automaton accepts period^omega,
        read off the period's one-step relation: an edge q -> r for
        each run over the period from q to r, flagged when some such
        run meets a final state after q.  A run on period^omega is a
        path of these edges that meets a final state infinitely often
        exactly when it takes flagged edges infinitely often, so it
        exists from q exactly when q reaches a flagged edge that lies
        on a cycle."""
        step = {}
        for q in self.states:
            runs = {(q, False)}
            for a in period:
                runs = {(r, f or r in self.final) for p, f in runs
                        for r in self.successors(p, a)}
            step[q] = runs

        def succ(q):
            return [(f, r) for r, f in step[q]]

        # the states reached from q by one edge or more
        after = {q: explore([r for r, _ in step[q]], succ)[0]
                 for q in self.states}
        cycling = {q for q in self.states
                   if any(f and (r == q or q in after[r])
                          for r, f in step[q])}
        return frozenset(q for q in self.states
                         if q in cycling or not cycling.isdisjoint(after[q]))


def _index_transitions(transitions):
    """One pass over (state, symbol, target) transitions: the outgoing
    (symbol, target) pairs of each state, and the target set of each
    (state, symbol).  Both keep the iteration order of transitions."""
    out, succ = {}, {}
    for (q, a, r) in transitions:
        out.setdefault(q, []).append((a, r))
        succ.setdefault((q, a), []).append(r)
    return ({q: tuple(v) for q, v in out.items()},
            {k: frozenset(v) for k, v in succ.items()})


def buchi(alphabet, states, transitions, initial, final) -> BuchiAutomaton:
    return BuchiAutomaton(frozenset(alphabet), frozenset(states),
                          frozenset(transitions), frozenset(initial),
                          frozenset(final))


@dataclass(frozen=True)
class Lasso:
    """An accepting lasso.

    stem_nodes[0] is initial, stem_nodes[-1] is the final node f; the
    loop starts at f and returns to it: loop_nodes lists the nodes after
    each loop edge, ending with f itself.  Label tuples align with the
    edges taken, so len(stem_labels) == len(stem_nodes) - 1 and
    len(loop_labels) == len(loop_nodes) >= 1.
    """
    stem_nodes: Tuple[Node, ...]
    stem_labels: Tuple[object, ...]
    loop_nodes: Tuple[Node, ...]
    loop_labels: Tuple[object, ...]


def explore(starts: Iterable[Node],
            successors: Callable[[Node], Iterable[Tuple[object, Node]]]):
    """Breadth-first search of the graph reachable from starts.

    Returns (succs, parent): succs maps each reachable node, in
    breadth-first order, to the tuple of its (label, node) successors,
    and parent maps each reached node other than a start to the
    (node, label) edge it was first reached by.  Starts are
    de-duplicated in order; successors is called once per node.
    """
    succs = {}
    parent = {}
    queue = deque(dict.fromkeys(starts))
    seen = set(queue)
    while queue:
        n = queue.popleft()
        out = succs[n] = tuple(successors(n))
        for (lab, m) in out:
            if m not in seen:
                seen.add(m)
                parent[m] = (n, lab)
                queue.append(m)
    return succs, parent


def path_to(parent, n) -> Tuple[Tuple[Node, ...], Tuple[object, ...]]:
    """(nodes, labels) of the path to n along parent edges, from the
    start it was reached from; len(nodes) == len(labels) + 1."""
    nodes, labels = [n], []
    while n in parent:
        n, lab = parent[n]
        nodes.append(n)
        labels.append(lab)
    return tuple(reversed(nodes)), tuple(reversed(labels))


def bfs_path(starts: Iterable[Node],
             successors: Callable[[Node], Iterable[Tuple[object, Node]]],
             goal: Callable[[Node], bool]):
    """Shortest non-empty path from starts to a node satisfying goal, as
    (nodes_after_each_edge, labels), or None.

    Breadth-first, with starts de-duplicated in order and successors
    scanned in their given order; the goal is tested on every edge
    before the seen check, so the path may close back on a start.
    """
    parent = {}
    queue = deque(dict.fromkeys(starts))
    seen = set(queue)
    while queue:
        n = queue.popleft()
        for (lab, m) in successors(n):
            if goal(m):
                nodes, labels = path_to(parent, n)
                return nodes[1:] + (m,), labels + (lab,)
            if m not in seen:
                seen.add(m)
                parent[m] = (n, lab)
                queue.append(m)
    return None


def find_lasso(initial_nodes: Iterable[Node],
               successors: Callable[[Node], Iterable[Tuple[object, Node]]],
               is_final: Callable[[Node], bool]) -> Optional[Lasso]:
    """Accepting lasso search in an implicit labeled graph.

    Finds a path from an initial node to a final node f together with a
    non-empty cycle f -> ... -> f.  Nodes must be hashable; the graph
    reachable from the initial nodes must be finite.

    successors is called once per reachable node, and its answer is
    recorded and reused by every cycle search, so it must be
    deterministic.  The final nodes are tried in breadth-first order and
    the first one on a cycle is returned, with its breadth-first stem
    and shortest cycle.
    """
    succs, parent = explore(initial_nodes, successors)
    for f in succs:
        if not is_final(f):
            continue
        cycle = bfs_path((f,), succs.__getitem__, lambda m: m == f)
        if cycle is not None:
            return Lasso(*path_to(parent, f), *cycle)
    return None


# ---------------------------------------------------------------------------
# Membership, emptiness, trimming


def member_up(b: BuchiAutomaton, x: UPWord,
              from_states: Optional[Iterable[State]] = None) -> bool:
    """Does b accept the UP word x (from from_states, default initial)?"""
    p, n = len(x.prefix), len(x.prefix) + len(x.period)
    starts = b.initial if from_states is None else frozenset(from_states)
    syms = x.prefix + x.period

    def succ(node):
        # positions p..n-1 are the period's, and n wraps back to p
        q, i = node
        a, j = syms[i], (i + 1 if i + 1 < n else p)
        return [(a, (r, j)) for r in b.successors(q, a)]

    # A final product node on a cycle must repeat with the same position,
    # which only happens at period positions, so no other node is tried.
    lasso = find_lasso([(q, 0) for q in starts], succ,
                       lambda nd: nd[1] >= p and nd[0] in b.final)
    return lasso is not None


def is_empty(b: BuchiAutomaton) -> bool:
    return accepts_some(b) is None


def accepts_some(b: BuchiAutomaton) -> Optional[Lasso]:
    """An accepting lasso of b, or None when L(b) is empty."""
    return find_lasso(b.initial, b.out_edges, lambda q: q in b.final)


def lasso_word(lasso: Lasso) -> UPWord:
    """The UP word read along a lasso whose labels are symbols."""
    return up_word(lasso.stem_labels, lasso.loop_labels)


def trim(b: BuchiAutomaton) -> BuchiAutomaton:
    """Restrict to states reachable from initial and co-reachable from a
    final state that lies on a cycle (i.e. useful for acceptance)."""
    fwd = defaultdict(list)
    for (q, a, r) in b.transitions:
        fwd[q].append((a, r))
    keep = live_nodes(b.initial, fwd.__getitem__, b.final.__contains__)
    return BuchiAutomaton(
        b.alphabet, frozenset(keep),
        frozenset(t for t in b.transitions if t[0] in keep and t[2] in keep),
        b.initial & keep, b.final & keep)


def live_nodes(starts: Iterable[Node],
               successors: Callable[[Node], Iterable[Tuple[object, Node]]],
               is_final: Callable[[Node], bool]):
    """The nodes reachable from starts from which a final node on a
    non-trivial cycle is reachable: those some accepting run visits."""
    succs, _ = explore(starts, successors)
    bwd = defaultdict(list)
    for n, out in succs.items():
        for (lab, m) in out:
            bwd[m].append((lab, n))
    live_finals = [f for f in succs if is_final(f)
                   and bfs_path([f], succs.__getitem__, lambda m: m == f)]
    coreachable, _ = explore(live_finals, bwd.__getitem__)
    return succs.keys() & coreachable.keys()


def product(b1: BuchiAutomaton, b2: BuchiAutomaton) -> BuchiAutomaton:
    """Intersection via the usual two-phase flag construction."""
    alphabet = b1.alphabet & b2.alphabet
    initial = frozenset((q1, q2, 0) for q1 in b1.initial for q2 in b2.initial)

    def succ(node):
        q1, q2, ph = node
        # Phase flips on leaving a final state of the watched component,
        # so "phase 0 with q1 final" recurs only if both finals recur.
        if ph == 0:
            nph = 1 if q1 in b1.final else 0
        else:
            nph = 0 if q2 in b2.final else 1
        return [(a, (r1, r2, nph)) for a in alphabet
                for r1 in b1.successors(q1, a)
                for r2 in b2.successors(q2, a)]

    states, trans = _reachable_part(initial, succ)
    final = frozenset(s for s in states if s[2] == 0 and s[0] in b1.final)
    return BuchiAutomaton(alphabet, states, trans, initial, final)


def _reachable_part(initial, succ):
    """States and (state, symbol, state) transitions reachable from
    initial under succ."""
    succs, _ = explore(initial, succ)
    return (frozenset(succs),
            frozenset((n, a, m) for n, out in succs.items() for (a, m) in out))


# ---------------------------------------------------------------------------
# Prefixes and topological closure


@dataclass(frozen=True)
class NFA:
    """Finite-word automaton used for prefix languages."""
    alphabet: FrozenSet
    states: FrozenSet[State]
    transitions: FrozenSet[Tuple[State, object, State]]
    initial: FrozenSet[State]
    final: FrozenSet[State]

    @cached_property
    def _index(self):
        return _index_transitions(self.transitions)

    def accepts(self, w) -> bool:
        succ = self._index[1]
        cur = set(self.initial)
        for a in w:
            cur = {r for q in cur for r in succ.get((q, a), ())}
            if not cur:
                return False
        return bool(cur & self.final)


def pref_automaton(b: BuchiAutomaton) -> NFA:
    """NFA for the finite prefixes of words in L(b)."""
    t = trim(b)
    return NFA(t.alphabet, t.states, t.transitions, t.initial, t.states)


def closure(b: BuchiAutomaton) -> BuchiAutomaton:
    """Buchi automaton for the topological closure of L(b).

    x is in the closure iff every finite prefix of x extends to a word
    of L(b), i.e. iff x has an infinite run in the trimmed automaton.
    The subset construction makes that a deterministic safety condition.
    """
    t = trim(b)
    init = frozenset(t.initial)
    if not init:
        # Empty language: closure is empty too.
        return BuchiAutomaton(b.alphabet, frozenset(), frozenset(),
                              frozenset(), frozenset())

    def succ(s):
        for a in t.alphabet:
            nxt = frozenset(r for q in s for r in t.successors(q, a))
            if nxt:
                yield a, nxt

    states, trans = _reachable_part([init], succ)
    return BuchiAutomaton(b.alphabet, states, trans, frozenset([init]),
                          states)


# ---------------------------------------------------------------------------
# Look-ahead unambiguity and UP-word samples


def _ambiguous_word(b: BuchiAutomaton) -> Optional[UPWord]:
    """A UP word with two distinct accepting runs, if one exists.

    Self-product over state pairs with an absorbing difference flag and
    a phase bit enforcing that both runs accept.  Runs may start at any
    state: look-ahead automata run from every state simultaneously.
    Start pairs and edges are taken in repr order, so the word found
    does not depend on string hashing.
    """
    order = sorted(b.states, key=repr)
    edges = {q: sorted(b.out_edges(q), key=repr) for q in order}
    targets = {k: sorted(v, key=repr) for k, v in b._index[1].items()}

    def succ(node):
        q1, q2, diff, ph = node
        nph = (1 if q1 in b.final else 0) if ph == 0 else \
              (0 if q2 in b.final else 1)
        return [(a, (r1, r2, diff or r1 != r2, nph))
                for (a, r1) in edges[q1]
                for r2 in targets.get((q2, a), ())]

    init = [(q1, q2, q1 != q2, 0) for q1 in order for q2 in order]
    lasso = find_lasso(
        init, succ,
        lambda n: n[2] and n[3] == 0 and n[0] in b.final)
    if lasso is None:
        return None
    return lasso_word(lasso)


def all_up_words(alphabet, max_prefix: int, max_period: int):
    """All canonical UP words over alphabet within the length bounds."""
    syms = sorted(alphabet, key=repr)
    seen = set()
    for lp in range(max_prefix + 1):
        for lq in range(1, max_period + 1):
            for u in iproduct(syms, repeat=lp):
                for v in iproduct(syms, repeat=lq):
                    x = up_word(u, v)
                    if (x.prefix, x.period) not in seen:
                        seen.add((x.prefix, x.period))
                        yield x

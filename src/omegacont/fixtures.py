"""Example machines used by the tests, the docs, and the CLI demos.

Each machine is defined once, in the machine file of the same fixture
name shipped in omegacont/machines, and loaded from there through
textio; the look-ahead automata are those embedded in the look-ahead
machines.
"""

from __future__ import annotations

from .buchi import BuchiAutomaton
from .oneway import Transducer
from .textio import fixture_path, parse_spec
from .twoway import ENDMARKER as ENDMARKER
from .twoway import TwoWayPLA, TwoWayTransducer


def _load(name: str):
    with open(fixture_path(name), encoding="utf-8") as f:
        return parse_spec(f.read()).machine


def branch_switch() -> Transducer:
    """Discontinuous one-way transducer over {a, b}.

    f(a^omega) = c^omega and f(a^n b^omega) = d^omega: the images of
    a^n b^omega stay at distance 1 from c^omega while the inputs
    converge to a^omega.
    """
    return _load("t_nc")


def prefix_doubler() -> Transducer:
    """Continuous (and uniformly continuous) one-way transducer.

    g(a^omega) = a^omega, g(a^n c^omega) = a^2n c^omega,
    g(a^n d^omega) = a^n d^omega.
    """
    return _load("t_c")


def tail_classifier() -> Transducer:
    """One-way form of f(w) = a^omega if w has infinitely many a's,
    else b^omega.  Continuous nowhere it matters: a^n b^omega converges
    to a^omega but the images sit at distance 1."""
    return _load("t_inf")


def block_doubler() -> TwoWayTransducer:
    """Two-way transducer doubling every #-terminated block.

    h(u1# u2# ...) = u1 u1 u2 u2 ... for letter blocks u_i; words with a
    last, unterminated block are outside the domain (the head parks).
    The rewind state is the Buchi-final one, visited once per block.
    """
    return _load("dbl")


def p_suffix_shape() -> BuchiAutomaton:
    """Prophetic look-ahead classifying suffixes of endmarked {a,b}
    words by their tail shape.

    p5: b^omega, p4: a b^omega, p3: nonempty then a b^omega,
    p7/p8: infinitely many a's starting with b/a,
    p1/p2/p6: the same classes after the left endmarker.
    """
    return stem_doubler().lookahead.automaton


def stem_doubler() -> TwoWayPLA:
    """Look-ahead machine computing j(u a b^omega) = u u b^omega and
    j(b^omega) = b^omega; inputs with infinitely many a's are outside
    the domain.

    The look-ahead spots the last a: symbols still followed by one (p3)
    are copied, the last a (p4) triggers a rewind and a second copy.
    """
    return _load("j")


def prefix_doubler_2way() -> TwoWayPLA:
    """Look-ahead version of the continuous prefix doubler:
    g(a^omega) = a^omega, g(a^n c^omega) = a^2n c^omega,
    g(a^n d^omega) = a^n d^omega."""
    return _load("t_c_2way")


def p_letter_count() -> BuchiAutomaton:
    """Prophetic look-ahead separating suffixes with infinitely many
    a's (A8/B7, by first letter) from those with finitely many (FA with
    a first, FB0 with b first but a's left, FBF for b^omega), plus the
    two endmarked classes."""
    return tail_classifier_2way().lookahead.automaton


def tail_classifier_2way() -> TwoWayPLA:
    """One-state look-ahead machine for f(x) = a^omega when x has
    infinitely many a's and b^omega otherwise.  Each cell's output is
    read off the look-ahead class, so the function is total on
    {a,b}^omega and nowhere continuous along a^n b^omega -> a^omega."""
    return _load("f_inf")

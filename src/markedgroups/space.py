"""Relation balls and the distance between marked groups.

Two marked groups are at distance e^(-L) where L is the largest radius
at which their relation balls agree.  L is kept as an exact integer; the
exponential only ever appears for display, so no floating point enters a
comparison.  Equality of marked groups is not finitely certifiable, so
the best possible verdict from a bounded scan is "agrees through
lambda_max", reported as an upper bound on the distance.

Both walk states, not words, when the oracles are state automata (see
:mod:`markedgroups.oracles`):

- :func:`distance` runs a breadth-first search by length over pairs
  (state1, state2) and stops at the first length where exactly one
  side is the identity.  Each pair is expanded once, from the letter
  that first reached it, which it does not step back over.  A pair is
  dropped once min(d1, d2) exceeds the letters left, where d is the
  oracle's ``identity_distance``: no extension of it can reach the
  identity on either side within lambda_max, so none can make the
  sides differ.
- :func:`rel_ball`, and ``dehn`` through :func:`trivial_letters`, run a
  depth-first search over reduced prefixes and drop a prefix once its
  ``identity_distance`` exceeds the letters left.  The walk keeps a
  transition row per state, so a state with a row is stepped once per
  letter; rows are added only while the table has at most ``radius``
  more rows than trivial words found, and below a state without a row
  the walk steps at every prefix.  A :class:`RelationBall` keeps the words in the
  walk's length-lex order, which is the order it prints them in.

When an oracle has no automaton (``start`` returns None), the walk
iterates :func:`enumerate_ball` in length-lex order and asks
:meth:`Oracle.decide`, so an oracle that cannot tell raises
:class:`UnknownVerdictError` at the first undecided word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .oracles import Oracle
from .presentations import Presentation
from .words import Word, enumerate_ball, signed_letters

__all__ = [
    "RelationBall",
    "MarkedDistance",
    "rel_ball",
    "trivial_letters",
    "distance",
    "convergence_report",
]


@dataclass(frozen=True)
class RelationBall:
    """All trivial reduced words of length <= radius for one marked group.

    ``words`` holds their letter tuples in length-lex order, the order
    :func:`trivial_letters` finds them in and ``to_json`` prints them in;
    ``members`` is the same ball as a set of :class:`Word`.
    """

    radius: int
    words: tuple[tuple[int, ...], ...]
    ngens: int

    @cached_property
    def members(self) -> frozenset[Word]:
        return frozenset(Word._trusted(self.ngens, letters) for letters in self.words)

    def to_json(self, pres: Presentation) -> dict:
        return {
            "lambda": self.radius,
            "count": len(self.words),
            "members": [pres.word_str(Word._trusted(self.ngens, letters)) for letters in self.words],
        }


@dataclass(frozen=True)
class MarkedDistance:
    """Exact agreement radius, or a lower bound on it.

    kind "exact": balls agree through ``lam`` and differ at ``lam + 1``,
    so the distance is exactly e^(-lam).  kind "at_most": balls agree
    through ``lam`` = the scanned maximum, so the distance is at most
    e^(-lam) (the marked groups may even be equal).
    """

    kind: str  # "exact" | "at_most"
    lam: int

    @property
    def display(self) -> float:
        return math.exp(-self.lam)

    def to_json(self) -> dict:
        return {"kind": self.kind, "lambda": self.lam, "display": self.display}

    def __str__(self) -> str:
        op = "=" if self.kind == "exact" else "<="
        return f"d {op} e^-{self.lam} ({self.display:.6g})"


def trivial_letters(oracle: Oracle, ngens: int, radius: int) -> list[tuple[int, ...]]:
    """Letter tuples of the trivial reduced words of length <= radius, in length-lex order.

    A depth-first search over reduced prefixes that drops a prefix once
    its ``identity_distance`` exceeds the letters left.  It pushes the
    letters in reverse order, so each length comes out in code order,
    and a stable sort by length gives length-lex order.

    The walk steps each oracle state at most once per letter: ``rows``
    maps a state to one ``(next state, identity distance)`` slot per
    signed letter, filled the first time a prefix ending in that state
    needs it.  A new row is added only while ``len(rows) <= len(found) +
    radius``, so the table never holds more than ``radius + 1`` rows
    beyond the words found.  The slack lets the states of the first
    descent, met before any nonempty word closes, keep their rows
    (without it Z x Z/3 at radius 8 takes 388 steps instead of 90).
    Below a state that gets no row, :func:`_walk_direct` steps the
    oracle at every prefix; where states never repeat, as in a free
    group, that is nearly the whole walk.

    When the oracle has no automaton, every word of
    :func:`enumerate_ball` is put to :meth:`Oracle.decide` in length-lex
    order instead.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    state = oracle.start(ngens)
    if state is None:
        return [w.letters for w in enumerate_ball(ngens, radius) if oracle.decide(w)]
    step, identity_distance = oracle.step, oracle.identity_distance
    alphabet = signed_letters(ngens)[::-1]
    slots = tuple(enumerate(alphabet))
    found = []
    rows = {}  # state -> [(next state, identity distance) or None per letter of alphabet]
    stack = [((), state, 0)]  # (letters, state, identity distance)
    push, pop = stack.append, stack.pop
    while stack:
        entry = letters, state, d = pop()
        room = radius - len(letters) - 1
        if room >= 0:
            row = rows.get(state)
            if row is None:
                if len(rows) > len(found) + radius:
                    _walk_direct(oracle, alphabet, radius, [entry], found)
                    continue
                row = rows[state] = [None] * len(alphabet)
        if d == 0:
            found.append(letters)
        if room < 0:
            continue
        back = -letters[-1] if letters else 0
        for i, x in slots:
            if x != back:
                move = row[i]
                if move is None:
                    nxt = step(state, x)
                    move = row[i] = (nxt, identity_distance(nxt))
                nxt, d = move
                if d <= room:
                    push((letters + (x,), nxt, d))
    found.sort(key=len)
    return found


def _walk_direct(oracle: Oracle, alphabet: tuple[int, ...], radius: int, stack: list, found: list) -> None:
    """Finish :func:`trivial_letters`' walk below the prefixes on ``stack``, stepping at every prefix."""
    step, identity_distance = oracle.step, oracle.identity_distance
    push, pop = stack.append, stack.pop
    while stack:
        letters, state, d = pop()
        if d == 0:
            found.append(letters)
        room = radius - len(letters) - 1
        if room < 0:
            continue
        back = -letters[-1] if letters else 0
        for x in alphabet:
            if x != back:
                nxt = step(state, x)
                d = identity_distance(nxt)
                if d <= room:
                    push((letters + (x,), nxt, d))


def rel_ball(pres: Presentation, oracle: Oracle, radius: int) -> RelationBall:
    """Every trivial reduced word of length <= radius, kept in the walk's length-lex order."""
    return RelationBall(radius, tuple(trivial_letters(oracle, pres.ngens, radius)), pres.ngens)


def distance(
    pres1: Presentation,
    oracle1: Oracle,
    pres2: Presentation,
    oracle2: Oracle,
    lambda_max: int,
) -> MarkedDistance:
    """Search the ball outward, stopping at the first disagreement.

    Two balls of the same radius are equal iff every word of that length
    gets the same verdict from both sides, so the search can stop at the
    first length with a differing word.  With two automata that is a
    breadth-first search over (state1, state2); one ``seen`` set serves
    all lengths, since words that reach one pair have the same futures.
    A level entry keeps the letter that first reached its pair, so the
    immediate backtrack is skipped.  An empty level ends the search
    early with the same "at_most" answer.  Otherwise the ball is scanned
    in length-lex order and each word is put to ``oracle1`` first.
    """
    if pres1.ngens != pres2.ngens:
        raise ValueError("marked groups live in different spaces (generator counts differ)")
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")
    state1 = oracle1.start(pres1.ngens)
    state2 = None if state1 is None else oracle2.start(pres2.ngens)
    if state2 is None:
        for w in enumerate_ball(pres1.ngens, lambda_max):
            if oracle1.decide(w) != oracle2.decide(w):
                return MarkedDistance("exact", len(w) - 1)
        return MarkedDistance("at_most", lambda_max)
    step1, step2 = oracle1.step, oracle2.step
    distance1, distance2 = oracle1.identity_distance, oracle2.identity_distance
    alphabet = signed_letters(pres1.ngens)
    level = [(state1, state2, 0)]
    seen = {(state1, state2)}
    for length in range(1, lambda_max + 1):
        room = lambda_max - length
        following = []
        for s1, s2, last in level:
            for x in alphabet:
                if x == -last:
                    continue
                t1, t2 = step1(s1, x), step2(s2, x)
                d1, d2 = distance1(t1), distance2(t2)
                if (d1 == 0) != (d2 == 0):
                    return MarkedDistance("exact", length - 1)
                if min(d1, d2) <= room and (t1, t2) not in seen:
                    seen.add((t1, t2))
                    following.append((t1, t2, x))
        if not following:
            break
        level = following
    return MarkedDistance("at_most", lambda_max)


@dataclass(frozen=True)
class ConvergenceReport:
    family: str
    lambda_max: int
    rows: tuple[tuple[int, MarkedDistance], ...]

    @property
    def lambda_non_decreasing(self) -> bool:
        values = [d.lam for _, d in self.rows]
        return all(a <= b for a, b in zip(values, values[1:]))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "lambda_max": self.lambda_max,
            "rows": [{"i": i, **d.to_json()} for i, d in self.rows],
            "lambda_non_decreasing": self.lambda_non_decreasing,
        }


def convergence_report(family, i_values, lambda_max: int) -> ConvergenceReport:
    """Distance from each family member to the family limit."""
    limit_pres, limit_oracle = family.limit()
    rows = []
    for i in i_values:
        member_pres, member_oracle = family.member(i)
        d = distance(member_pres, member_oracle, limit_pres, limit_oracle, lambda_max)
        rows.append((i, d))
    return ConvergenceReport(family.name, lambda_max, tuple(rows))

"""Relation balls and the distance between marked groups.

Two marked groups are at distance e^(-L) where L is the largest radius
at which their relation balls agree.  L is kept as an exact integer; the
exponential only ever appears for display, so no floating point enters a
comparison.  Equality of marked groups is not finitely certifiable, so
the best possible verdict from a bounded scan is "agrees through
lambda_max", reported as an upper bound on the distance.

Both walks iterate :func:`enumerate_ball` in length-lex order and ask
:meth:`Oracle.is_trivial`, so an unknown verdict raises
:class:`UnknownVerdictError` at the first undecided word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .oracles import Oracle
from .presentations import Presentation
from .words import Word, enumerate_ball

__all__ = ["RelationBall", "MarkedDistance", "rel_ball", "distance", "convergence_report"]


@dataclass(frozen=True)
class RelationBall:
    """All trivial reduced words of length <= radius for one marked group."""

    radius: int
    members: frozenset[Word]

    def sorted_members(self) -> list[Word]:
        return sorted(self.members, key=Word.sort_key)

    def to_json(self, pres: Presentation) -> dict:
        return {
            "lambda": self.radius,
            "count": len(self.members),
            "members": [pres.word_str(w) for w in self.sorted_members()],
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

    def agreement_radius(self) -> int:
        return self.lam

    def to_json(self) -> dict:
        return {"kind": self.kind, "lambda": self.lam, "display": self.display}

    def __str__(self) -> str:
        op = "=" if self.kind == "exact" else "<="
        return f"d {op} e^-{self.lam} ({self.display:.6g})"


def rel_ball(pres: Presentation, oracle: Oracle, radius: int) -> RelationBall:
    """Filter the free-group ball through the triviality oracle."""
    members = frozenset(w for w in enumerate_ball(pres.ngens, radius) if oracle.is_trivial(w))
    return RelationBall(radius, members)


def distance(
    pres1: Presentation,
    oracle1: Oracle,
    pres2: Presentation,
    oracle2: Oracle,
    lambda_max: int,
) -> MarkedDistance:
    """Scan the ball outward, stopping at the first disagreement.

    Two balls of the same radius are equal iff every word of that length
    gets the same verdict from both sides, so the scan can stop at the
    first differing word.  Each word is put to ``oracle1`` first.
    """
    if pres1.ngens != pres2.ngens:
        raise ValueError("marked groups live in different spaces (generator counts differ)")
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")
    for w in enumerate_ball(pres1.ngens, lambda_max):
        if oracle1.is_trivial(w) != oracle2.is_trivial(w):
            return MarkedDistance("exact", len(w) - 1)
    return MarkedDistance("at_most", lambda_max)


@dataclass(frozen=True)
class ConvergenceReport:
    family: str
    lambda_max: int
    rows: tuple[tuple[int, MarkedDistance], ...]

    @property
    def lambda_non_decreasing(self) -> bool:
        values = [d.agreement_radius() for _, d in self.rows]
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

"""Dehn-function tables and the convergence inequality harness.

delta(n) is the maximum area over all trivial words of length <= n; the
identity contributes area 0, so a group with no short relations has
delta(n) = 0 rather than an undefined value.

For a family (G_i) converging to a finitely presented limit G with
relator set R and L = max relator length, the harness checks, member by
member, the finite inequalities behind the limit statement

    limsup_i delta_i(n) / delta_i(L) <= delta(n):

(a) delta_i(n) <= K_i * delta(n) whenever the relation balls of G_i and
    G agree up to n, where K_i = max over r in R of the area of r in the
    member presentation;
(b) K_i <= delta_i(L);
(c) delta_i(n) / delta_i(L) <= delta(n).

The limsup itself is not finitely observable, so the reports state only
what was computed, for the tested members, with exactness flags.

:func:`verify_family` computes each quantity once per call and reads the
uniform bound delta_i(n) <= M * delta(n), M = max_i delta_i(L), off the
reports of each radius, with no search of its own.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

from .area import AreaNotFound, Caps, area_search
from .oracles import Oracle
from .presentations import Presentation, apply_symmetry, max_relator_length, splice_symmetries
from .space import distance, trivial_letters
from .words import Word, invert_letters, letter_key, letters_key

__all__ = [
    "DehnValue",
    "DehnComputationError",
    "TheoremReport",
    "CorollaryReport",
    "dehn",
    "worker_pool",
    "quotient_check",
    "compute_K",
    "verify_family",
    "theorem_check",
    "corollary_check",
]


class DehnComputationError(RuntimeError):
    """A trivial word's area search ran out of caps."""

    def __init__(self, word: Word, pres: Presentation, caps: Caps):
        super().__init__(
            f"area search exhausted caps {caps} on the trivial word "
            f"{pres.word_str(word)!r}; raise --length-cap/--node-cap"
        )
        self.word = word


@dataclass(frozen=True)
class DehnValue:
    """One table entry: the maximum area over trivial words of length <= n."""

    n: int
    value: int
    exact: bool
    witnesses: tuple[Word, ...]

    def to_json(self, pres: Presentation) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "exact": self.exact,
            "witnesses": [pres.word_str(w) for w in self.witnesses],
        }


def _area_value(pres: Presentation, caps: Caps, letters: tuple[int, ...]) -> int:
    try:
        return area_search(pres, Word(pres.ngens, letters), caps.length_cap, caps.node_cap).value
    except AreaNotFound:
        return -1


def _orbits(pres: Presentation, words: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Representatives of the symmetry orbits of ``words``, and each word's orbit index.

    A representative is the length-lex least image of a word or of its
    inverse under the splice symmetries; representatives are listed in
    first-seen order.  Each symmetry becomes a table from a letter to the
    :func:`letter_key` of its image, so images of one word compare in
    length-lex order as plain tuples.
    """
    letters = [x for g in range(1, pres.ngens + 1) for x in (g, -g)]
    key_maps = [
        dict(zip(letters, map(letter_key, apply_symmetry(sym, letters))))
        for sym in splice_symmetries(pres)
    ]
    orbit_index: dict[tuple, int] = {}
    word_orbit = []
    for w in words:
        inverse = invert_letters(w)
        key = min(tuple(map(keys.__getitem__, v)) for keys in key_maps for v in (w, inverse))
        word_orbit.append(orbit_index.setdefault(key, len(orbit_index)))
    return [tuple(g if s == 0 else -g for g, s in key) for key in orbit_index], word_orbit


def worker_pool(workers: int):
    """A context giving a process pool of ``workers`` processes, or None for one worker.

    The pool is built through the name ``ProcessPoolExecutor`` of this
    module.  Under the fork start method the executor starts its
    processes at the first ``map``, so a pool that is never used starts
    no process.
    """
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def dehn(
    pres: Presentation,
    oracle: Oracle,
    n: int,
    caps: Caps,
    workers: int = 1,
    max_witnesses: int = 8,
    *,
    pool: ProcessPoolExecutor | None = None,
) -> DehnValue:
    """List the trivial words of the ball, maximise their areas.

    The trivial words come from :func:`trivial_letters` and are taken in
    length-lex order.

    Areas are searched once per symmetry orbit of trivial words.  Word
    inversion and every signed generator permutation that maps the
    symmetrized relators onto themselves (:func:`splice_symmetries`) map
    the splice graph onto itself and keep word lengths, so all members of
    an orbit have the same cap-restricted area; each word reads its value
    from the orbit's length-lex least member.  ``caps.node_cap`` bounds
    the search of that representative: orbit members have isomorphic
    splice graphs, so their searches can differ only inside the final
    breadth-first level.

    The representative searches are independent, so they can fan out
    across processes in one ``pool.map`` whose chunk size follows
    ``workers``; results are reduced in enumeration order, which keeps
    the outcome identical for any worker count.  A caller that computes
    several tables passes its own ``pool`` (see :func:`worker_pool`);
    without one, a call with ``workers`` > 1 opens a pool for its
    searches and closes it before returning.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    found = trivial_letters(oracle, pres.ngens, n)
    trivial = sorted((letters for letters in found if letters), key=letters_key)
    if not trivial:
        return DehnValue(n, 0, True, ())
    reps, word_orbit = _orbits(pres, trivial)
    with worker_pool(workers) if pool is None else nullcontext(pool) as pool:
        if pool is None:
            rep_values = [_area_value(pres, caps, letters) for letters in reps]
        else:
            rep_values = list(
                pool.map(_area_value, [pres] * len(reps), [caps] * len(reps), reps,
                         chunksize=max(1, len(reps) // (4 * workers)))
            )
    values = [rep_values[orbit] for orbit in word_orbit]
    for letters, value in zip(trivial, values):
        if value < 0:
            raise DehnComputationError(Word(pres.ngens, letters), pres, caps)
    vmax = max(values)
    witnesses = tuple(
        Word(pres.ngens, letters) for letters, value in zip(trivial, values) if value == vmax
    )[:max_witnesses]
    return DehnValue(n, vmax, True, witnesses)


def quotient_check(limit_pres: Presentation, member_oracle: Oracle) -> bool:
    """True iff every limit relator is trivial in the member group."""
    return all(member_oracle.is_trivial(r) for r in limit_pres.relators)


def compute_K(limit_pres: Presentation, member_pres: Presentation, caps: Caps) -> tuple[int, bool]:
    """Max area of the limit's relators in the member presentation.

    Callers must have passed quotient_check first; a relator that is not
    trivial in the member makes the search fail its caps.
    """
    if not limit_pres.relators:
        raise ValueError("the limit presentation has no relators")
    best = 0
    exact = True
    for r in limit_pres.relators:
        result = area_search(member_pres, r, caps.length_cap, caps.node_cap)
        best = max(best, result.value)
        exact = exact and result.exact
    return best, exact


@dataclass(frozen=True)
class TheoremReport:
    """All quantities of the member-vs-limit inequality for one (i, n).

    Verdicts are booleans when every contributing value is exact and
    None when a quantity is unavailable (for example the ratio when
    delta_i(L) = 0).  Verdict (a) is asserted only while the relation
    balls agree up to n; reports with ball_agreement < n are
    informational, since nothing constrains early members.
    """

    i: int
    n: int
    ball_agreement: int
    delta_i_n: tuple[int, bool]
    delta_n: tuple[int, bool]
    K_i: tuple[int, bool]
    delta_i_L: tuple[int, bool]
    L: int
    ratio: Fraction | None
    inequality_star_ok: bool | None
    k_le_delta_L_ok: bool | None
    ratio_le_delta_ok: bool | None

    @property
    def applicable(self) -> bool:
        return self.ball_agreement >= self.n

    @property
    def all_pass(self) -> bool:
        """Release gate: (b) always; (a) and (c) when applicable."""
        if self.k_le_delta_L_ok is False:
            return False
        if self.applicable and (self.inequality_star_ok is False or self.ratio_le_delta_ok is False):
            return False
        return True

    def to_json(self) -> dict:
        def val(pair):
            return {"value": pair[0], "exact": pair[1]}

        return {
            "i": self.i,
            "n": self.n,
            "ball_agreement": self.ball_agreement,
            "delta_i_n": val(self.delta_i_n),
            "delta_n": val(self.delta_n),
            "K_i": val(self.K_i),
            "delta_i_L": val(self.delta_i_L),
            "L": self.L,
            "ratio": None if self.ratio is None else f"{self.ratio.numerator}/{self.ratio.denominator}",
            "inequality_star_ok": self.inequality_star_ok,
            "k_le_delta_L_ok": self.k_le_delta_L_ok,
            "ratio_le_delta_ok": self.ratio_le_delta_ok,
        }


def _theorem_report(i, n, L, agreement, d_i_n, d_n, d_i_L, K) -> TheoremReport:
    k_value, k_exact = K
    all_exact = d_i_n.exact and d_n.exact and d_i_L.exact and k_exact
    ratio = Fraction(d_i_n.value, d_i_L.value) if d_i_L.value > 0 else None
    star = d_i_n.value <= k_value * d_n.value if all_exact else None
    k_le = k_value <= d_i_L.value if all_exact else None
    ratio_le = (ratio <= d_n.value) if (all_exact and ratio is not None) else None
    return TheoremReport(
        i=i,
        n=n,
        ball_agreement=agreement,
        delta_i_n=(d_i_n.value, d_i_n.exact),
        delta_n=(d_n.value, d_n.exact),
        K_i=(k_value, k_exact),
        delta_i_L=(d_i_L.value, d_i_L.exact),
        L=L,
        ratio=ratio,
        inequality_star_ok=star,
        k_le_delta_L_ok=k_le,
        ratio_le_delta_ok=ratio_le,
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Uniform bound check: delta_i(n) <= M * delta(n) with M = max_i delta_i(L)."""

    family: str
    n: int
    L: int
    M: int
    delta_n: tuple[int, bool]
    rows: tuple[dict, ...]

    @property
    def all_pass(self) -> bool:
        return all(row["bound_ok"] is not False for row in self.rows)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "L": self.L,
            "M": self.M,
            "delta_n": {"value": self.delta_n[0], "exact": self.delta_n[1]},
            "rows": list(self.rows),
            "all_pass": self.all_pass,
        }

    @classmethod
    def from_reports(cls, family: str, reports) -> "CorollaryReport":
        """Read the bound off the theorem reports of one radius.

        Members whose relation balls disagree with the limit before n are
        excluded from the bound (nothing constrains them) and marked so.
        """
        first = reports[0]
        M = max(r.delta_i_L[0] for r in reports)
        rows = tuple(
            {
                "i": r.i,
                "ball_agreement": r.ball_agreement,
                "delta_i_L": {"value": r.delta_i_L[0], "exact": r.delta_i_L[1]},
                "delta_i_n": {"value": r.delta_i_n[0], "exact": r.delta_i_n[1]},
                "included": r.applicable,
                "bound_ok": (r.delta_i_n[0] <= M * first.delta_n[0]) if r.applicable else None,
            }
            for r in reports
        )
        return cls(family, first.n, first.L, M, first.delta_n, rows)


def verify_family(
    family, i_values, radii, caps: Caps, workers: int = 1
) -> tuple[list[TheoremReport], list[CorollaryReport]]:
    """Theorem reports for every (n, i), n outer, and one corollary per radius.

    Each quantity is computed once per call: the limit, each member with
    its quotient check, the ball agreement, K_i and delta_i(L) once per
    member, delta(n) once per radius, and delta_i(n) once per (i, n); at
    n = L, delta_i(n) and delta_i(L) are one value.  The ball agreement
    is scanned once, up to the largest radius, and the report at radius
    n reads min(agreement, n): the scan stops at the first disagreement,
    so that is what a scan up to n would give.  A quantity is computed at
    the first report that needs it, in the order agreement, delta_i(n),
    delta(n), delta_i(L), K_i, so the first failure does not depend on
    which values are reused.  With an oracle that can answer unknown
    (``derivation``), the agreement scan of a member's first report
    reaches the largest radius, so its unknown verdict comes before any
    failure of that member's Dehn tables.  Each corollary is read off
    the reports of its radius.

    With ``workers`` > 1 one process pool serves every Dehn table of the
    call (see :func:`worker_pool`), and it is closed, its processes
    joined, before the call returns or raises.
    """
    i_values, radii = tuple(i_values), tuple(radii)
    if not i_values or not radii:
        raise ValueError("the harness needs at least one member index and one radius")
    limit_pres, limit_oracle = family.limit()
    L = max_relator_length(limit_pres)
    if L is None:
        raise ValueError(
            f"family {family.name!r}: the limit has no relators, so L is undefined "
            "and the inequality cannot be formed"
        )
    memo: dict = {}

    def once(key, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def member(i):
        member_pres, member_oracle = family.member(i)
        if not quotient_check(limit_pres, member_oracle):
            raise ValueError(
                f"family {family.name!r}: member {i} is not a quotient of the limit; "
                "K_i does not exist"
            )
        return member_pres, member_oracle

    reports = []
    with worker_pool(workers) as pool:
        for n in radii:
            for i in i_values:
                member_pres, member_oracle = once(("member", i), lambda: member(i))
                agreement = once(("agreement", i), lambda: distance(
                    member_pres, member_oracle, limit_pres, limit_oracle, max(radii)).agreement_radius())
                d_i_n = once(("dehn", i, n), lambda: dehn(member_pres, member_oracle, n, caps, workers, pool=pool))
                d_n = once(("dehn", None, n), lambda: dehn(limit_pres, limit_oracle, n, caps, workers, pool=pool))
                d_i_L = once(("dehn", i, L), lambda: dehn(member_pres, member_oracle, L, caps, workers, pool=pool))
                K = once(("K", i), lambda: compute_K(limit_pres, member_pres, caps))
                reports.append(_theorem_report(i, n, L, min(agreement, n), d_i_n, d_n, d_i_L, K))
    width = len(i_values)
    corollaries = [
        CorollaryReport.from_reports(family.name, reports[k * width : (k + 1) * width])
        for k in range(len(radii))
    ]
    return reports, corollaries


def theorem_check(family, i: int, n: int, caps: Caps, workers: int = 1) -> TheoremReport:
    """Compute every quantity of the inequality for one member and radius."""
    return verify_family(family, (i,), (n,), caps, workers)[0][0]


def corollary_check(family, i_values, n: int, caps: Caps, workers: int = 1) -> CorollaryReport:
    """Check the uniform bound across the tested members at one radius.

    Runs :func:`verify_family`, so every member also passes the quotient check.
    """
    return verify_family(family, i_values, (n,), caps, workers)[1][0]

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
what was computed, for the tested members.  Each value is exact within
the caps, since a search that cannot show its minimum raises instead.

:func:`verify_family` computes one Dehn table per group and reads the
uniform bound delta_i(n) <= M * delta(n), M = max_i delta_i(L), off the
reports of each radius, with no search of its own.

The area searches of a table run through a ``map``: the builtin one, or
the one :func:`worker_pool` gives a command, which runs searches in
process until they have explored :data:`POOL_STATES` states and only
then starts a process pool for the rest.  The pool's classes, and with
them ``multiprocessing``, are imported when the first pool is built
(this module's ``__getattr__`` gives ``ProcessPoolExecutor``), so
importing the package loads neither, and a command that builds no pool
never pays for them.  The budget sits where a 2-process pool starts to
pay.  On 2 cores a pool costs a command about 45 ms to import, start,
feed and join, about 20 ms of it the import (`verify-theorem` on zxz,
42 states: 12 ms in process, 57 ms with a pool), and one process
explores about 100-145k states/s.  So 10,000 states is about 80 ms on
one core: a command below it is no slower in process (the 1,959 states
of `verify-theorem` on dihedral i = 6 take 23 ms in process, 72 ms with
a pool), and a command above it has run at most the budget plus the one
search that crosses it (up to the node cap) on one core, which a
2-process pool would at best have run in half the time: about 40 ms
plus half that search.  The budget is a count, not a time, so where a
command splits, and every traced counter, is the same on every machine
and run.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import groupby, islice

from .area import AreaNotFound, Caps, area_search
from .oracles import Oracle
from .presentations import Presentation, _cyclic_reduce, apply_symmetry, max_relator_length, splice_symmetries
from .space import distance, trivial_letters
from .words import Word, letters_key, letters_to_str, signed_letters, str_to_letters

__all__ = [
    "DehnValue",
    "DehnTable",
    "DehnComputationError",
    "WorkerDied",
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


MAX_WITNESSES = 8

# In-process area-search states after which worker_pool starts its pool;
# the module docstring gives the reason for the value.
POOL_STATES = 10_000


class DehnComputationError(RuntimeError):
    """A trivial word's area search ran out of caps."""

    def __init__(self, word: Word, pres: Presentation, caps: Caps):
        super().__init__(
            f"area search exhausted caps (length {caps.length_cap}, nodes {caps.node_cap}) "
            f"on the trivial word {pres.word_str(word)!r}; raise --length-cap/--node-cap"
        )
        self.word = word


class WorkerDied(RuntimeError):
    """A process of a :func:`worker_pool` pool died; the message is the pool's own."""


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported when first read (PEP 562), so that
    importing this module loads neither the pool nor ``multiprocessing``."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _exact(value: int) -> dict:
    """The JSON object of a reported value: a search that cannot show a
    value exact within its caps raises instead, so every value says exact."""
    return {"value": value, "exact": True}


@dataclass(frozen=True)
class DehnValue:
    """One table entry: the maximum area over trivial words of length <= n."""

    n: int
    value: int
    witnesses: tuple[Word, ...]

    def to_json(self, pres: Presentation) -> dict:
        return {
            "n": self.n,
            **_exact(self.value),
            "witnesses": [pres.word_str(w) for w in self.witnesses],
        }


@dataclass(frozen=True)
class DehnTable:
    """A Dehn table up to radius n: ``lengths[l]`` is the largest area of a
    nonempty trivial word of length exactly l with the first
    :data:`MAX_WITNESSES` such words in length-lex order, else ``(0, ())``."""

    n: int
    lengths: tuple[tuple[int, tuple[Word, ...]], ...]

    def at(self, n: int) -> DehnValue:
        """The entry for radius n: the first words of maximal area over the
        lengths <= n, taken from the lengths that reach it, shortest first."""
        if not 0 <= n <= self.n:
            raise ValueError(f"radius {n} is outside this table's range 0..{self.n}")
        upto = self.lengths[: n + 1]
        vmax = max(value for value, _ in upto)
        witnesses = [w for value, words in upto if value == vmax for w in words]
        return DehnValue(n, vmax, tuple(witnesses[:MAX_WITNESSES]))


def _area_value(pres: Presentation, caps: Caps, letters: tuple[int, ...]) -> tuple[int, int]:
    """The area of a word, -1 when the caps ran out, and the states its search explored."""
    try:
        result = area_search(pres, Word(pres.ngens, letters), caps.length_cap, caps.node_cap)
    except AreaNotFound as exc:
        return -1, exc.stats.states_explored
    return result.value, result.stats.states_explored


def _orbits(pres: Presentation, words: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Representatives of the classes of ``words``, and each word's class index.

    ``words`` must be freely reduced and nonempty, so that each has a
    nonempty cyclic core: the word with its cancelling ends stripped.  A
    word's class is the set of images of its core under the splice
    symmetries, inversion and rotation, which all keep the true area.
    The representative is the length-lex least member of the class;
    representatives are listed in first-seen order.  Words are compared
    as their :func:`~markedgroups.words.letters_to_str` codes, which all
    have the core's length, so the least code is the length-lex least
    word.  Each symmetry is a ``str.translate`` table on codes, and so is
    letter inversion, applied to the reversed code.  A class is built
    once, when its first core appears, and every member is entered in one
    dict, so every other word costs one end strip and one lookup.
    """
    letters = signed_letters(pres.ngens)
    codes = letters_to_str(letters)
    invert = str.maketrans(codes, letters_to_str(tuple(-x for x in letters)))
    tables = [str.maketrans(codes, letters_to_str(apply_symmetry(sym, letters))) for sym in splice_symmetries(pres)]
    reps: list[str] = []
    core_orbit: dict[str, int] = {}
    word_orbit = []
    for w in words:
        core = letters_to_str(_cyclic_reduce(w))
        if core not in core_orbit:
            images = {v.translate(table) for table in tables for v in (core, core[::-1].translate(invert))}
            members = {image[r:] + image[:r] for image in images for r in range(len(core))}
            reps.append(min(members))
            core_orbit.update(dict.fromkeys(members, len(reps) - 1))
        word_orbit.append(core_orbit[core])
    return list(map(str_to_letters, reps)), word_orbit


@contextmanager
def worker_pool(workers: int):
    """A context giving the ``map`` that area searches fan out through.

    With ``processes = min(workers, os.cpu_count())`` of 1, never more
    processes than CPUs, that is the builtin ``map``.  Otherwise it is a
    ``map`` made for the searches of :func:`dehn`, not a general one: it
    takes a list ``items`` and a function returning ``(value, states
    explored)`` pairs.  It runs the items in process, in order, until the
    searches it has run in process in this context have explored
    :data:`POOL_STATES` states, so at most that many plus those of the
    one search that crosses the budget, and sends the rest to one
    process pool of ``processes`` processes in
    chunks of ``max(1, len(rest) // (4 * processes))`` items.  Results
    come back in the order of ``items`` either way.  The pool is built
    through the name ``ProcessPoolExecutor`` of this module, at the
    first ``map`` that leaves it work, so a small command starts no
    process; it is shut down, its processes joined, when the context
    exits, on success and on error alike.  A pool process that dies makes
    the ``map`` raise :class:`WorkerDied` from the pool's
    ``BrokenProcessPool``.
    """
    processes = min(workers, os.cpu_count() or 1)
    if processes <= 1:
        yield map
        return
    states = 0
    pool = None

    def fan_out(fn, items):
        nonlocal states, pool
        results = []
        for item in items:
            if states >= POOL_STATES:
                break
            results.append(fn(item))
            states += results[-1][1]
        rest = items[len(results):]
        if not rest:
            return results
        from concurrent.futures.process import BrokenProcessPool

        if pool is None:
            pool = sys.modules[__name__].ProcessPoolExecutor(max_workers=processes)
        try:
            return results + list(pool.map(fn, rest, chunksize=max(1, len(rest) // (4 * processes))))
        except BrokenProcessPool as exc:
            raise WorkerDied(*exc.args) from exc

    try:
        yield fan_out
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def dehn(pres: Presentation, oracle: Oracle, n: int, caps: Caps, fan_out=map) -> DehnTable:
    """List the trivial words of the ball, record their areas per length.

    The trivial words come from :func:`trivial_letters` and are taken in
    length-lex order.  For each length the table keeps the largest area
    and the first :data:`MAX_WITNESSES` words of that area, from which
    :meth:`DehnTable.at` reads the entry of every radius up to n.  The
    caps do not depend on the radius, so that entry is the one a table
    computed at the smaller radius would give.

    Areas are searched once per class of trivial words (see
    :func:`_orbits`): a word's class is that of its cyclic core under
    rotation, word inversion and every signed generator permutation that
    maps the symmetrized relators onto themselves
    (:func:`splice_symmetries`).  None of these changes the true area
    (Bridson, *The geometry of the word problem*, 2002), so a word's value
    is the capped area of its class representative, the class's
    length-lex least member: ``caps``, ``caps.node_cap`` included, bound
    that representative's search, not the word's own.  Under caps this
    is a rule, not a theorem: a conjugate u c u^-1 needs 2|u| more length
    than c on the way, so where the length cap binds, a word's own search
    could find a larger capped area than its representative's, or none.

    The representative searches are independent, so they run through one
    ``fan_out(search, representatives)`` call: the builtin ``map``, or
    the ``map`` of :func:`worker_pool`, which a caller computing several
    tables opens once for all of them.  Each search returns its value
    and the states it explored; the table reads only the values.
    Results come back in enumeration order, which keeps the outcome
    identical for any worker count.
    """
    trivial = sorted(filter(None, trivial_letters(oracle, pres.ngens, n)), key=letters_key)
    reps, word_orbit = _orbits(pres, trivial)
    rep_values = [value for value, _ in fan_out(partial(_area_value, pres, caps), reps)]
    values = [rep_values[orbit] for orbit in word_orbit]
    for letters, value in zip(trivial, values):
        if value < 0:
            raise DehnComputationError(Word(pres.ngens, letters), pres, caps)
    lengths = [(0, ())] * (n + 1)
    for length, group in groupby(zip(trivial, values), key=lambda item: len(item[0])):
        group = list(group)
        vmax = max(value for _, value in group)
        best = (Word(pres.ngens, letters) for letters, value in group if value == vmax)
        lengths[length] = (vmax, tuple(islice(best, MAX_WITNESSES)))
    return DehnTable(n, tuple(lengths))


def quotient_check(limit_pres: Presentation, member_oracle: Oracle) -> bool:
    """True iff every limit relator is trivial in the member group."""
    return all(member_oracle.decide(r) for r in limit_pres.relators)


def compute_K(limit_pres: Presentation, member_pres: Presentation, caps: Caps) -> int:
    """Max area of the limit's relators in the member presentation.

    Callers must have passed quotient_check first; a relator that is not
    trivial in the member makes the search fail its caps.
    """
    if not limit_pres.relators:
        raise ValueError("the limit presentation has no relators")
    return max(area_search(member_pres, r, caps.length_cap, caps.node_cap).value for r in limit_pres.relators)


@dataclass(frozen=True)
class TheoremReport:
    """All quantities of the member-vs-limit inequality for one (i, n).

    The fields are the integers the harness computed, each exact within
    the caps of the call; the ratio and the verdicts (a), (b) and (c)
    are read off them.  Only the ratio and verdict (c) can be None, when
    delta_i(L) = 0.  Verdict (a) is asserted only while the relation
    balls agree up to n; reports with ball_agreement < n are
    informational, since nothing constrains early members.
    """

    i: int
    n: int
    ball_agreement: int
    delta_i_n: int
    delta_n: int
    K_i: int
    delta_i_L: int
    L: int

    @property
    def ratio(self) -> str | None:
        """delta_i(n) / delta_i(L) in lowest terms as ``"p/q"``, or None when delta_i(L) = 0."""
        if self.delta_i_L <= 0:
            return None
        g = math.gcd(self.delta_i_n, self.delta_i_L)
        return f"{self.delta_i_n // g}/{self.delta_i_L // g}"

    @property
    def inequality_star_ok(self) -> bool:
        """(a) delta_i(n) <= K_i * delta(n)."""
        return self.delta_i_n <= self.K_i * self.delta_n

    @property
    def k_le_delta_L_ok(self) -> bool:
        """(b) K_i <= delta_i(L)."""
        return self.K_i <= self.delta_i_L

    @property
    def ratio_le_delta_ok(self) -> bool | None:
        """(c) delta_i(n) / delta_i(L) <= delta(n), tested as delta_i(n) <=
        delta(n) * delta_i(L); None without a ratio."""
        return None if self.delta_i_L <= 0 else self.delta_i_n <= self.delta_n * self.delta_i_L

    @property
    def applicable(self) -> bool:
        return self.ball_agreement >= self.n

    @property
    def all_pass(self) -> bool:
        """Release gate: (b) always; (a) and (c) when applicable."""
        if not self.k_le_delta_L_ok:
            return False
        return not (self.applicable and (not self.inequality_star_ok or self.ratio_le_delta_ok is False))

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "n": self.n,
            "ball_agreement": self.ball_agreement,
            "delta_i_n": _exact(self.delta_i_n),
            "delta_n": _exact(self.delta_n),
            "K_i": _exact(self.K_i),
            "delta_i_L": _exact(self.delta_i_L),
            "L": self.L,
            "ratio": self.ratio,
            "inequality_star_ok": self.inequality_star_ok,
            "k_le_delta_L_ok": self.k_le_delta_L_ok,
            "ratio_le_delta_ok": self.ratio_le_delta_ok,
        }


@dataclass(frozen=True)
class CorollaryReport:
    """Uniform bound check: delta_i(n) <= M * delta(n) with M = max_i delta_i(L)."""

    family: str
    n: int
    L: int
    M: int
    delta_n: int
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
            "delta_n": _exact(self.delta_n),
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
        M = max(r.delta_i_L for r in reports)
        rows = tuple(
            {
                "i": r.i,
                "ball_agreement": r.ball_agreement,
                "delta_i_L": _exact(r.delta_i_L),
                "delta_i_n": _exact(r.delta_i_n),
                "included": r.applicable,
                "bound_ok": (r.delta_i_n <= M * first.delta_n) if r.applicable else None,
            }
            for r in reports
        )
        return cls(family, first.n, first.L, M, first.delta_n, rows)


def verify_family(
    family, i_values, radii, caps: Caps, fan_out=map
) -> tuple[list[TheoremReport], list[CorollaryReport]]:
    """Theorem reports for every (n, i), n outer, and one corollary per radius.

    Each quantity is computed once, and the first failure is that of the
    first step to fail in this order: member by member, in the order of
    ``i_values`` (a repeated index once), the quotient check, the ball
    agreement scanned up to the largest radius, one Dehn table at
    max(largest radius, L) and K_i; then one limit Dehn table at the
    largest radius.  A report at radius n reads
    min(agreement, n), since the scan stops at the first disagreement,
    and its Dehn values off the tables.  Each corollary is read off the
    reports of its radius.

    Every Dehn table of the call runs its area searches through
    ``fan_out`` (see :func:`dehn`), so one :func:`worker_pool` opened by
    the caller serves them all.
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
    top = max(radii)
    members = {}
    for i in dict.fromkeys(i_values):
        member_pres, member_oracle = family.member(i)
        if not quotient_check(limit_pres, member_oracle):
            raise ValueError(
                f"family {family.name!r}: member {i} is not a quotient of the limit; "
                "K_i does not exist"
            )
        agreement = distance(member_pres, member_oracle, limit_pres, limit_oracle, top).lam
        table = dehn(member_pres, member_oracle, max(top, L), caps, fan_out)
        members[i] = (agreement, table, compute_K(limit_pres, member_pres, caps))
    limit_table = dehn(limit_pres, limit_oracle, top, caps, fan_out)
    reports, corollaries = [], []
    for n in radii:
        delta_n = limit_table.at(n).value
        row = []
        for i in i_values:
            agreement, table, K = members[i]
            row.append(TheoremReport(i, n, min(agreement, n), table.at(n).value, delta_n, K, table.at(L).value, L))
        reports += row
        corollaries.append(CorollaryReport.from_reports(family.name, row))
    return reports, corollaries


def theorem_check(family, i: int, n: int, caps: Caps) -> TheoremReport:
    """Compute every quantity of the inequality for one member and radius."""
    return verify_family(family, (i,), (n,), caps)[0][0]


def corollary_check(family, i_values, n: int, caps: Caps) -> CorollaryReport:
    """Check the uniform bound across the tested members at one radius.

    Runs :func:`verify_family`, so every member also passes the quotient check.
    """
    return verify_family(family, i_values, (n,), caps)[1][0]

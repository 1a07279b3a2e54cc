"""Coset enumeration over the trivial subgroup (HLT strategy).

For a finite group the enumeration terminates with the right-regular
action: one coset per group element, acted on by every signed generator.
The processing order is fixed so results are reproducible: cosets are
scanned in creation order, relators in declaration order, definitions
fill the first undefined column, and coincidences are merged immediately
through a FIFO queue.  Enumeration completes or refuses the input at
``max_cosets`` with :class:`CosetLimitExceeded`, a ValueError; there are
no partial tables.

References for the algorithm shape: Holt, Eick, O'Brien, "Handbook of
Computational Group Theory", ch. 5 (relator-based enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import Presentation

__all__ = ["CayleyTable", "CosetLimitExceeded", "coset_enumerate"]


def _column(letter: int) -> int:
    # +j -> 2j-2, -j -> 2j-1; the inverse column is col ^ 1.
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


class CosetLimitExceeded(ValueError):
    """Enumeration hit max_cosets; the group may be infinite."""


@dataclass(frozen=True)
class CayleyTable:
    """Action of signed generators on cosets; coset 0 is the identity."""

    ngens: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def cosets(self) -> int:
        return len(self.rows)

    def act(self, coset: int, letter: int) -> int:
        """Image of ``coset`` under one signed generator."""
        return self.rows[coset][_column(letter)]

    def distances(self) -> tuple[int, ...]:
        """Length of a shortest word taking coset 0 to each coset.

        One breadth-first search over the table.  In a Cayley table this
        is the word length of each element, which is also the length of a
        shortest word taking the element back to the identity.
        """
        dist = [-1] * len(self.rows)
        dist[0] = 0
        queue = [0]
        for coset in queue:
            for image in self.rows[coset]:
                if dist[image] < 0:
                    dist[image] = dist[coset] + 1
                    queue.append(image)
        return tuple(dist)

    def is_regular(self) -> bool:
        """Check each generator column is a permutation."""
        n = len(self.rows)
        for col in range(2 * self.ngens):
            images = [row[col] for row in self.rows]
            if sorted(images) != list(range(n)):
                return False
        return True


def coset_enumerate(pres: Presentation, max_cosets: int) -> CayleyTable:
    """Run HLT enumeration to a complete table.

    Raises :class:`CosetLimitExceeded` when the group needs more than
    ``max_cosets`` cosets (it is too large, or infinite).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    nletters = 2 * pres.ngens
    relator_cols = [[_column(x) for x in r.letters] for r in pres.relators]
    table: list[list[int | None]] = [[None] * nletters]
    parent = [0]  # union-find over cosets, path-halving

    def rep(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def define(a: int, col: int) -> None:
        if len(table) >= max_cosets:
            raise CosetLimitExceeded(
                f"coset enumeration reached max_cosets={max_cosets}; the group may be infinite"
            )
        table.append([None] * nletters)
        b = len(table) - 1
        parent.append(b)
        table[a][col] = b
        table[b][col ^ 1] = a

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []
        merge(a, b, queue)
        for dead in queue:  # merge appends while this runs, so the queue drains first in, first out
            for col in range(nletters):
                image = table[dead][col]
                if image is None:
                    continue
                table[image][col ^ 1] = None
                mu, nu = rep(dead), rep(image)
                if table[mu][col] is not None:
                    merge(nu, table[mu][col], queue)
                elif table[nu][col ^ 1] is not None:
                    merge(mu, table[nu][col ^ 1], queue)
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def scan_and_fill(a: int, cols: list[int]) -> None:
        f, i = a, 0
        b, j = a, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    alpha = 0
    while alpha < len(table):
        if rep(alpha) == alpha:
            for cols in relator_cols:
                scan_and_fill(alpha, cols)
                if rep(alpha) != alpha:
                    break
            if rep(alpha) == alpha:
                for col in range(nletters):
                    if table[alpha][col] is None:
                        define(alpha, col)
        alpha += 1

    # Compress to live cosets, renumbering in creation order, and route
    # every entry through its representative.
    live = [k for k in range(len(table)) if rep(k) == k]
    renumber = {old: new for new, old in enumerate(live)}
    rows = []
    for old in live:
        if None in table[old]:
            raise RuntimeError("enumeration terminated with an undefined entry")
        rows.append(tuple(renumber[rep(entry)] for entry in table[old]))
    return CayleyTable(pres.ngens, tuple(rows))

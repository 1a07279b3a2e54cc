"""Word areas with machine-checkable certificates.

The area of a trivial word ``w`` is the least ``k`` such that

    w = u_1 r_1^(s_1) u_1^-1 * ... * u_k r_k^(s_k) u_k^-1

in the free group, with each ``r_t`` a relator and each ``s_t = +-1``.
A :class:`Certificate` records exactly these factors and is verified by
pure word arithmetic, independent of any search.

Search model: states are reduced words; one move splices a symmetrized
relator (a rotation of some ``r`` or ``r^-1``) into the word at some
position and freely reduces.  One splice corresponds to one conjugate
factor, so the minimal number of moves from ``w`` to the empty word
equals the area restricted to derivations whose intermediate words stay
within ``length_cap``.  Found values are therefore exact in that
cap-restricted sense and can only decrease when the cap grows.

The search must run from the word toward the identity: splice edges are
not symmetric (a splice whose block cancels completely shrinks the word
by more than the block length and has no one-splice reverse), so a
search outward from the identity would traverse the wrong edge set.
Uniform-cost search with the frontier expanded in length-lex order makes
results, certificates and statistics reproducible regardless of call
order or worker count.

Search states are ``str``s with one character per letter, coded as in
:func:`~markedgroups.words.letters_to_str` (``x`` is ``chr(2x - 1)``,
``x^-1`` is ``chr(2x)``), so ``(len(s), s)`` is length-lex order, each
frontier is sorted in C, and there is no ceiling on the number of
generators.  Words are decoded back to letter tuples only along the
goal's parent chain, to build the certificate.

A splice changes a word only at its seam, so successors are read off
tables rather than spliced one by one.  A table row is keyed by the
four letters around the position alone (two on each side, code 0 past
an end of the word).  It lists every move in move order, with the
letters it inserts, how many it cancels on each side and how many
letters it adds; a move that would pass ``length_cap`` is skipped as
the row is read.  A move whose cancellation reaches the window's edge,
or cancels completely, is marked with the counts it saw, and the search
resumes counting its cancellations by index along the word from there,
joining the two remainders when the whole move cancels.  Both passes
below take successors from one generator over these rows, in the order
of splicing every move at every position.  Rows are filled on first use
and live for one call, in a dict, so no size depends on ``length_cap``.

Where every relator is a commutator ``[x,y]`` of two generators (up to
sign, rotation and inversion: Z^2, Z^3, ``<a,b,c | [a,b]>``) and every
exponent sum of the word is 0, the search prunes with the winding
bound h (see :class:`_Winding`): the sum, over the relators' generator
planes, of |winding number| over the unit cells of the word's projected
lattice path.  One splice changes h by exactly one and h(empty) = 0, so
h is a consistent lower bound on the area (Bridson, *The geometry of
the word problem*, 2002; Hart, Nilsson and Raphael, 1968).  A
best-first pass (shortest word first, then code order, over the same
rows and at most ``node_cap`` words) first finds some derivation, whose
length U bounds the area from above; if it finds none, U is unbounded.
The breadth-first pass then drops every new word whose depth plus h
exceeds U.  Every word on the goal's parent chain has depth + h <=
area <= U, its first parent is kept too, and the kept words stay in
their order, so the value and certificate are those of the unpruned
search.  ``states_explored`` counts the words the breadth-first pass
kept, so it is smaller than unpruned, and the pruned search can find a
value that an unpruned one would run out of ``node_cap`` before
reaching.  Every other presentation, and every word with a nonzero
exponent sum, is searched unpruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import NamedTuple

from .presentations import Presentation, parse_word, symmetrize
from .words import (
    Word,
    _splice,
    free_reduce,
    invert_letters,
    letters_to_str,
    shell,
    str_to_letters,
    word_to_str,
)

__all__ = [
    "Caps",
    "SearchStats",
    "Certificate",
    "AreaResult",
    "AreaNotFound",
    "area_search",
    "expand_certificate",
    "verify_certificate",
    "compose_certificates",
    "area_exact_small",
]


class Caps(NamedTuple):
    """Search budget: maximum intermediate word length and node count."""

    length_cap: int
    node_cap: int


@dataclass(frozen=True)
class SearchStats:
    """``states_explored`` counts every distinct word the breadth-first
    pass kept, the start word included; the empty word is never searched
    and reports 0.  Words the winding bound drops are not counted.
    ``node_cap``, not this count, bounds the words kept, so the pass may
    hold up to ``node_cap`` words of up to ``length_cap`` letters each."""

    states_explored: int
    length_cap: int

    def to_json(self) -> dict:
        return {"states_explored": self.states_explored, "length_cap": self.length_cap}


@dataclass(frozen=True)
class Certificate:
    """Ordered factors (conjugator, relator index, sign in {+1, -1})."""

    factors: tuple[tuple[Word, int, int], ...]

    @property
    def size(self) -> int:
        return len(self.factors)

    def to_json(self, pres: Presentation) -> list[dict]:
        return [
            {"conjugator": pres.word_str(u), "relator": j, "sign": "+" if s > 0 else "-"}
            for (u, j, s) in self.factors
        ]

    @classmethod
    def from_json(cls, pres: Presentation, data: list[dict]) -> "Certificate":
        if not isinstance(data, list):
            raise ValueError(f"certificate must be a list of factors, got {type(data).__name__}")
        factors = []
        for item in data:
            if not (isinstance(item, dict) and isinstance(item.get("conjugator"), str)
                    and type(item.get("relator")) is int and "sign" in item):
                raise ValueError(f"invalid certificate entry {item!r}: expected a string "
                                 "'conjugator', an integer 'relator' and a 'sign'")
            if item["sign"] not in ("+", "-"):
                raise ValueError(f"invalid sign {item['sign']!r}: expected '+' or '-'")
            u = parse_word(item["conjugator"], pres.gen_names)
            factors.append((u, item["relator"], 1 if item["sign"] == "+" else -1))
        return cls(tuple(factors))


@dataclass(frozen=True)
class AreaResult:
    """A found area value together with its witness.

    The value is minimal among all derivations whose intermediate words
    stay within the length cap, and larger caps can only lower it: a
    search that cannot show minimality within its caps raises
    :class:`AreaNotFound` instead, so the report always says exact.
    """

    value: int
    certificate: Certificate
    stats: SearchStats

    def to_json(self, pres: Presentation) -> dict:
        return {
            "value": self.value,
            "exact": True,
            "certificate": self.certificate.to_json(pres),
            "stats": self.stats.to_json(),
        }


class AreaNotFound(Exception):
    """The caps were exhausted before the empty word was reached.

    Its ``args`` are the constructor's, so it pickles back from a pool
    process, and its message names the word under the generator names.
    """

    def __init__(self, word: Word, caps: Caps, stats: SearchStats, names: tuple[str, ...]):
        super().__init__(word, caps, stats, names)
        self.word = word
        self.caps = caps
        self.stats = stats
        self.names = names

    def __str__(self) -> str:
        return (
            f"no derivation of {word_to_str(self.word, self.names)!r} within caps (length {self.caps.length_cap}, "
            f"nodes {self.caps.node_cap}); explored {self.stats.states_explored} states"
        )


def area_search(pres: Presentation, w: Word, length_cap: int, node_cap: int) -> AreaResult:
    """Minimal-splice derivation of ``w`` within the caps.

    Raises :class:`AreaNotFound` when the caps are exhausted first, and
    ValueError on structural misuse (no relators, cap below the word).
    """
    if not pres.relators:
        raise ValueError("presentation has no relators; area is undefined")
    if w.ngens != pres.ngens:
        raise ValueError("word marking does not match the presentation")
    if length_cap < len(w):
        raise ValueError("length_cap must be at least the word length")
    if node_cap < 1:
        raise ValueError("node_cap must be positive")
    caps = Caps(length_cap, node_cap)
    if not w.letters:
        return AreaResult(0, Certificate(()), SearchStats(0, length_cap))

    moves = symmetrize(pres)
    # each move as a string, and with every letter inverted in place: a
    # letter cancels a move letter when it equals the inverted one
    move_strs = [(letters_to_str(mv), letters_to_str(tuple(-x for x in mv))) for mv, *_ in moves]

    # tables[window] holds the _window_row of a seam window (see the
    # module docstring); both passes read the same rows.
    tables: dict[str, list] = {}
    target = letters_to_str(w.letters)
    winding = _Winding.of(pres, moves, w, length_cap)
    upper = None
    if winding is not None:
        upper = _upper_bound(target, length_cap, node_cap, tables, move_strs)

    # Breadth-first over splices; unit costs, so the first time the
    # identity is generated its depth is minimal.  parents, the one
    # record of the pass, maps each reached word to (parent, move,
    # position): its size is the state count, and "" among its keys ends
    # the search.  A non-empty word is refused once node_cap words are
    # kept; the identity is always admitted, so node_cap + 1 may be.
    # With an upper bound, a new state at depth d is dropped when d + h >
    # upper.  A successor's h is its parent's plus or minus one, and a
    # kept parent has depth + h <= upper, so only "tight" parents, whose
    # successors would exceed upper at plus one, drop any: those whose
    # move winds its cell away from 0.
    parents: dict[str, tuple[str, int, int] | None] = {target: None}
    frontier = [target]
    depth = 0
    while frontier and "" not in parents:
        depth += 1
        next_frontier = []
        for state in frontier:
            drop = None
            if upper is not None:
                winds, h, corners = winding.measure(state)
                if depth + h > upper - 1:
                    drop = (winding.cells, winds, corners)
            for mi, pos, nxt in _successors(state, length_cap, tables, move_strs, parents, drop):
                if nxt and len(parents) >= node_cap:
                    raise AreaNotFound(w, caps, SearchStats(len(parents), length_cap), pres.gen_names)
                parents[nxt] = (state, mi, pos)
                if not nxt:
                    break
                next_frontier.append(nxt)
            if "" in parents:
                break
        # length-lex: the stable sort by length keeps the code order within a length
        next_frontier.sort()
        next_frontier.sort(key=len)
        frontier = next_frontier

    stats = SearchStats(len(parents), length_cap)
    if "" not in parents:
        raise AreaNotFound(w, caps, stats, pres.gen_names)

    # Walk parents from the identity back to the word, one factor per
    # splice; reversing gives them in application order.
    factors = []
    node = ""
    while parents[node] is not None:
        node, mi, pos = parents[node]
        _, rel_idx, sign, rot = moves[mi]
        rel = pres.relators[rel_idx].letters
        rho = rel if sign == 1 else invert_letters(rel)
        # Splicing rot_t(rho) at position p of v inserts the factor
        # (v[:p] * rho[:t]^-1) rho^-1 (...)^-1 into the derivation.
        conj = free_reduce(str_to_letters(node[:pos]) + invert_letters(rho[:rot]))
        factors.append((Word(pres.ngens, conj), rel_idx, -sign))
    factors.reverse()
    cert = Certificate(tuple(factors))
    if not verify_certificate(pres, w, cert):
        raise RuntimeError("internal error: reconstructed certificate failed verification")
    return AreaResult(len(factors), cert, stats)


def _upper_bound(
    target: str, length_cap: int, node_cap: int, tables: dict[str, list], moves: list[tuple[str, str]]
) -> int | None:
    """Length of the derivation a best-first pass finds, or None.

    The pass expands the shortest word first, then the least code, over
    the same :func:`_successors` and ``tables`` as the breadth-first
    pass.  It gives up, returning None, when it would hold more than
    ``node_cap`` distinct words or runs out of words under the cap.
    """
    depths = {target: 0}
    heap = [(len(target), target)]
    while heap:
        _, state = heappop(heap)
        depth = depths[state] + 1
        for _, _, nxt in _successors(state, length_cap, tables, moves, depths):
            if not nxt:
                return depth
            if len(depths) >= node_cap:
                return None
            depths[nxt] = depth
            heappush(heap, (len(nxt), nxt))
    return None


def _successors(
    state: str, length_cap: int, tables: dict[str, list], moves: list[tuple[str, str]], seen, drop=None
):
    """Yield ``(mi, pos, nxt)`` for every splice of ``state`` whose
    result ``nxt`` fits under ``length_cap`` and is not in ``seen`` when
    it is reached, by position, then move.

    ``tables`` maps a seam window to its :func:`_window_row`.  ``drop``,
    when given, is ``(cells, winds, corners)`` of :class:`_Winding`, and
    a move that would raise h is skipped before it is spliced.
    """
    if drop is not None:
        cells, winds, corners = drop
    room = length_cap - len(state)
    padded = "\0\0" + state + "\0\0"
    for pos in range(len(state) + 1):
        window = padded[pos:pos + 4]
        row = tables.get(window)
        if row is None:
            row = tables[window] = _window_row(moves, window)
        for mi, k1, k2, mid, growth in row:
            if growth > room:
                continue
            if drop is not None:
                plane, offset, sign = cells[mi]
                if winds.get(corners[plane][pos] + offset, 0) * sign >= 0:
                    continue
            if mid is None:
                nxt = _seam_splice(state, pos, *moves[mi], k1, k2)
                if len(nxt) > length_cap:
                    continue
            else:
                nxt = state[:pos - k1] + mid + state[pos + k2:]
            if nxt not in seen:
                yield mi, pos, nxt


def _window_row(moves: list[tuple[str, str]], window: str) -> list[tuple[int, int, int, str | None, int]]:
    """Splices of every move at one position, read off its seam window.

    ``moves`` pairs each move string with its letters inverted in place;
    ``window`` holds the two letters on each side of the position, code
    0 past an end of the word.  Entry ``(mi, k1, k2, mid, growth)``:
    move ``mi`` cancels ``k1`` letters on the left and ``k2`` on the
    right, so the successor is ``state[:pos-k1] + mid + state[pos+k2:]``,
    ``growth`` letters longer than the state.  Where the window cannot
    tell the result (a cancellation reaches its edge, or the whole move
    cancels and the seams meet), ``mid`` is None, ``k1`` and ``k2``
    count what the window saw cancel, and ``growth`` is 0, which no room
    is below: the caller splices with :func:`_seam_splice` and tests the
    cap itself.
    """
    left = window[1] + window[0]
    right = window[2:]
    row = []
    for mi, (mv, inv) in enumerate(moves):
        n = len(mv)
        k1 = 0
        while k1 < 2 and k1 < n and inv[k1] == left[k1]:
            k1 += 1
        k2 = 0
        while k2 < 2 and k1 + k2 < n and inv[n - 1 - k2] == right[k2]:
            k2 += 1
        if k1 == 2 or k2 == 2 or k1 + k2 == n:
            row.append((mi, k1, k2, None, 0))
        else:
            row.append((mi, k1, k2, mv[k1:n - k2], n - 2 * (k1 + k2)))
    return row


def _seam_splice(state: str, pos: int, move: str, inv: str, i: int = 0, j: int = 0) -> str:
    """``move`` spliced into ``state`` at ``pos`` and freely reduced.

    ``inv`` is ``move`` with its letters inverted in place.  Both words
    are reduced, so only the seams cancel: the move's head against the
    letters before ``pos``, then its tail against those after.  When the
    whole move cancels, the two remainders meet and cancel in turn.
    The counts resume from ``i`` letters known to cancel on the left and
    ``j`` on the right, as a window row counted them.
    """
    n = len(move)
    while i < n and i < pos and state[pos - 1 - i] == inv[i]:
        i += 1
    end = len(state)
    # the right count was bounded by the left count it was made with
    if j > n - i:
        j = n - i
    while i + j < n and pos + j < end and state[pos + j] == inv[n - 1 - j]:
        j += 1
    a = pos - i
    b = pos + j
    if i + j < n:
        return state[:a] + move[i:n - j] + state[b:]
    # codes 2g - 1 and 2g are inverse letters
    while a and b < end and (ord(state[a - 1]) - 1) ^ 1 == ord(state[b]) - 1:
        a -= 1
        b += 1
    return state[:a] + state[b:]


class _Winding:
    """The winding lower bound h on commutator presentations.

    Every relator is ``[x,y]`` for two distinct generators, up to sign,
    rotation and inversion, so each relator names a plane.  Projected to
    a plane, a word with zero exponent sums is a closed lattice path, and
    h is the sum over the planes of |winding number| over the unit
    cells.  A splice adds a unit loop around one cell of its plane and
    free reduction removes backtracks, so one move changes h by exactly
    one and h(empty word) = 0: h is a consistent lower bound on the area.

    A cell of plane ``k`` is keyed by one int, ``(x * stride + y) *
    nplanes + k`` for its lower-left corner ``(x, y)``, and a point of
    the path by the key of the cell it is the corner of.  ``cells[mi]``
    is ``(plane, offset, sign)``: move ``mi``, spliced where the path
    stands at key ``c``, winds once around the cell ``c + offset`` in
    direction ``sign`` (+1 counterclockwise).
    """

    def __init__(self, planes: list[tuple[int, int]], moves, length_cap: int):
        # keys are distinct while |y| < stride / 2; a path under the cap
        # and the cells next to it stay within length_cap / 2 + 1
        self.stride = stride = length_cap + 4
        self.nplanes = count = len(planes)
        self.codes = [tuple(letters_to_str((i, -i, j, -j))) for i, j in planes]
        index = {plane: k for k, plane in enumerate(planes)}
        self.cells = []
        for (x, y, *_), *_ in moves:
            # the loop x y x^-1 y^-1 runs along unit steps u then v
            # around the cell between 0 and u + v, in direction u cross v
            if abs(x) < abs(y):
                plane, u, v = index[abs(x), abs(y)], (x // abs(x), 0), (0, y // abs(y))
            else:
                plane, u, v = index[abs(y), abs(x)], (0, x // abs(x)), (y // abs(y), 0)
            low_x = min(0, u[0] + v[0])
            low_y = min(0, u[1] + v[1])
            self.cells.append((plane, (low_x * stride + low_y) * count, u[0] * v[1] - u[1] * v[0]))

    @classmethod
    def of(cls, pres: Presentation, moves, w: Word, length_cap: int) -> "_Winding | None":
        """The bound for searches from ``w``, or None where it is not defined."""
        planes = set()
        for rel in pres.relators:
            # a reduced (x, y, x^-1, y^-1) has |x| != |y|; its rotations
            # and inverse have the same form
            letters = rel.letters
            if len(letters) != 4 or letters[2:] != (-letters[0], -letters[1]):
                return None
            planes.add(tuple(sorted((abs(letters[0]), abs(letters[1])))))
        if any(w.exponent_sum(g) for g in range(1, pres.ngens + 1)):
            return None
        return cls(sorted(planes), moves, length_cap)

    def measure(self, state: str) -> tuple[dict[int, int], int, list[list[int]]]:
        """Winding of every cell around which ``state`` winds, keyed as
        above; h; and, per plane, the corner key at every position."""
        count = self.nplanes
        across = self.stride * count
        winds: dict[int, int] = {}
        corners = []
        for plane, (right, left, up, down) in enumerate(self.codes):
            key = plane
            y = low = 0
            keys = [key]
            edges = []
            for ch in state:
                if ch == right:
                    edges.append((key, y, -1))
                    key += across
                elif ch == left:
                    key -= across
                    edges.append((key, y, 1))
                elif ch == up:
                    key += count
                    y += 1
                elif ch == down:
                    key -= count
                    y -= 1
                    if y < low:
                        low = y
                keys.append(key)
            corners.append(keys)
            # a horizontal edge at height y adds its sign to the cells
            # below it in its column; below the lowest point the signs cancel
            for key, y, sign in edges:
                for cell in range(key - (y - low) * count, key, count):
                    winds[cell] = winds.get(cell, 0) + sign
        return winds, sum(map(abs, winds.values())), corners


def expand_certificate(pres: Presentation, cert: Certificate) -> Word:
    """Reduced product of the certificate's conjugated relators."""
    acc: tuple[int, ...] = ()
    for (u, j, s) in cert.factors:
        if not 0 <= j < len(pres.relators):
            raise ValueError(f"relator index {j} out of range")
        if s not in (1, -1):
            raise ValueError(f"invalid sign {s}")
        if u.ngens != pres.ngens:
            raise ValueError("conjugator marking does not match the presentation")
        rel = pres.relators[j].letters
        body = rel if s == 1 else invert_letters(rel)
        acc = free_reduce(acc + u.letters + body + invert_letters(u.letters))
    return Word(pres.ngens, acc)


def verify_certificate(pres: Presentation, w: Word, cert: Certificate) -> bool:
    """Check the defining identity in the free group; pure, no search."""
    if w.ngens != pres.ngens:
        raise ValueError("word marking does not match the presentation")
    return expand_certificate(pres, cert) == w


def compose_certificates(
    limit_pres: Presentation,
    member_pres: Presentation,
    cert: Certificate,
    subs: dict[int, Certificate],
) -> Certificate:
    """Substitute member-side certificates for each limit relator used.

    Every factor (a, j, s) of ``cert`` expands through ``subs[j]``: for
    each inner factor (u, t, s') emit (a*u, t, s*s'), keeping the inner
    order for s = +1 and reversing it for s = -1.  The composed size is
    the sum of the substitutes' sizes over the factors of ``cert``.
    """
    if limit_pres.ngens != member_pres.ngens:
        raise ValueError("presentations use different markings")
    for j in {j for (_, j, _) in cert.factors}:
        if j not in subs:
            raise ValueError(f"missing substitution for relator {j}")
        if not verify_certificate(member_pres, limit_pres.relators[j], subs[j]):
            raise ValueError(f"substitute certificate for relator {j} fails verification")
    out: list[tuple[Word, int, int]] = []
    for (a, j, s) in cert.factors:
        inner = subs[j].factors
        ordered = inner if s == 1 else tuple(reversed(inner))
        for (u, t, s_inner) in ordered:
            out.append((a * u, t, s * s_inner))
    composed = Certificate(tuple(out))
    if expand_certificate(member_pres, composed) != expand_certificate(limit_pres, cert):
        raise RuntimeError("internal error: composed certificate expands to a different word")
    return composed


def _single_conjugates(pres: Presentation, conj_cap: int) -> frozenset[tuple[int, ...]]:
    """All reduced u r^(+-1) u^-1 with |u| <= conj_cap."""
    out: set[tuple[int, ...]] = set()
    for length in range(conj_cap + 1):
        for u in shell(pres.ngens, length):
            inv_u = invert_letters(u)
            for rel in pres.relators:
                for body in (rel.letters, invert_letters(rel.letters)):
                    out.add(free_reduce(u + body + inv_u))
    return frozenset(out)


@lru_cache(maxsize=1)
def _product_tables(pres: Presentation, conj_cap: int) -> dict[int, frozenset[tuple[int, ...]]]:
    """Product sets by k for one (presentation, conj_cap) pair, filled by :func:`_products`.

    Only the latest pair is kept: repeated calls on one presentation reuse
    its tables, and memory never exceeds what a single call needs.
    """
    return {1: _single_conjugates(pres, conj_cap)}


def _products(products: dict[int, frozenset[tuple[int, ...]]], k: int) -> frozenset[tuple[int, ...]]:
    """Products of exactly k bounded conjugates, as reduced tuples."""
    if k not in products:
        products[k] = frozenset(_splice(x, y, ()) for x in _products(products, k - 1) for y in products[1])
    return products[k]


def area_exact_small(pres: Presentation, w: Word, k_max: int, conj_cap: int) -> int | None:
    """Brute-force area oracle, independent of the splice search.

    Enumerates all products of k <= k_max conjugated relators whose
    conjugators have length <= conj_cap and returns the smallest k that
    produces ``w``, or None.  Membership for a fixed word is decided by
    splitting k = ka + kb and meeting in the middle, which enumerates
    exactly the same product set without materialising the largest one.
    """
    if not pres.relators:
        raise ValueError("presentation has no relators; area is undefined")
    if w.ngens != pres.ngens:
        raise ValueError("word marking does not match the presentation")
    if k_max < 0 or conj_cap < 0:
        raise ValueError("k_max and conj_cap must be nonnegative")
    target = w.letters
    if not target:
        return 0
    products = _product_tables(pres, conj_cap)
    for k in range(1, k_max + 1):
        kb = k // 2
        ka = k - kb
        left = _products(products, ka)
        if kb == 0:
            if target in left:
                return k
            continue
        right = _products(products, kb)
        for y in right:
            if _splice(target, invert_letters(y), ()) in left:
                return k
    return None

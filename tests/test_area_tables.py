"""The window-table area search against the splice-everything reference.

``area_search`` reads most successors off tables keyed by the room left
under the length cap and the letters at the seam.  The reference below
is the search loop as it was before those tables: it splices every move
at every position and tests the cap afterwards.  Both must reach the
same states in the same order, so values, certificates, statistics and
the point where ``AreaNotFound`` is raised agree exactly.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from markedgroups.area import (
    AreaNotFound,
    AreaResult,
    Caps,
    Certificate,
    SearchStats,
    _seam_splice,
    _window_row,
    area_search,
    verify_certificate,
)
from markedgroups.families import get_family
from markedgroups.presentations import parse_presentation, parse_word, symmetrize
from markedgroups.words import (
    Word,
    _splice,
    free_reduce,
    invert_letters,
    letters_key,
    letters_to_str,
    str_to_letters,
)

A3_PRES = (Path(__file__).parent / "data" / "a3.pres").read_text(encoding="utf-8")


def reference_area_search(pres, w, length_cap, node_cap):
    """Splice every move at every position; the loop the tables replace."""
    if not pres.relators:
        raise ValueError("presentation has no relators; area is undefined")
    if w.ngens != pres.ngens:
        raise ValueError("word marking does not match the presentation")
    if length_cap < len(w):
        raise ValueError("length_cap must be at least the word length")
    if node_cap < 1:
        raise ValueError("node_cap must be positive")
    caps = Caps(length_cap, node_cap)
    target = w.letters
    if not target:
        return AreaResult(0, Certificate(()), SearchStats(0, length_cap))

    moves = symmetrize(pres)
    move_words = [m[0] for m in moves]

    parents: dict = {target: None}
    frontier = [target]
    explored = 1
    goal_entry = None
    while frontier and goal_entry is None:
        next_frontier = []
        for state in frontier:
            for pos in range(len(state) + 1):
                prefix = state[:pos]
                suffix = state[pos:]
                for mi, mv in enumerate(move_words):
                    nxt = _splice(prefix, mv, suffix)
                    if len(nxt) > length_cap or nxt in parents:
                        continue
                    if not nxt:
                        goal_entry = (state, mi, pos)
                        parents[nxt] = goal_entry
                        explored += 1
                        break
                    if explored >= node_cap:
                        raise AreaNotFound(w, caps, SearchStats(explored, length_cap))
                    parents[nxt] = (state, mi, pos)
                    explored += 1
                    next_frontier.append(nxt)
                if goal_entry is not None:
                    break
            if goal_entry is not None:
                break
        next_frontier.sort(key=letters_key)
        frontier = next_frontier

    stats = SearchStats(explored, length_cap)
    if goal_entry is None:
        raise AreaNotFound(w, caps, stats)

    steps = []
    node = ()
    while parents[node] is not None:
        par, mi, pos = parents[node]
        steps.append((par, mi, pos))
        node = par
    steps.reverse()

    factors = []
    for before, mi, pos in steps:
        _, rel_idx, sign, rot = moves[mi]
        rel = pres.relators[rel_idx].letters
        rho = rel if sign == 1 else invert_letters(rel)
        conj = free_reduce(before[:pos] + invert_letters(rho[:rot]))
        factors.append((Word(pres.ngens, conj), rel_idx, -sign))
    cert = Certificate(tuple(factors))
    assert verify_certificate(pres, w, cert)
    return AreaResult(len(factors), cert, stats)


GROUPS = {
    "z2": "gens: x y\nrels: [x,y]",
    "zxz3": "gens: x y\nrels: [x,y]; y^3",
    "dihedral5": get_family("dihedral").member(5)[0].to_text(),
    "z3": "gens: a b c\nrels: [a,b]; [a,c]; [b,c]",
    "bs12": "gens: a b\nrels: b a b^-1 a^-2",
    "a3": A3_PRES,
}
MAX_WORD = 10


@st.composite
def search_cases(draw):
    """A presentation, a trivial word (a product of conjugated relators) and caps."""
    pres = parse_presentation(GROUPS[draw(st.sampled_from(sorted(GROUPS)))])
    letter = st.sampled_from([s * g for g in range(1, pres.ngens + 1) for s in (1, -1)])
    factors = draw(st.lists(
        st.tuples(st.lists(letter, max_size=2), st.sampled_from(pres.relators), st.booleans()),
        min_size=1, max_size=3,
    ))
    letters = ()
    for conj, rel, inverted in factors:
        u = free_reduce(conj)
        body = invert_letters(rel.letters) if inverted else rel.letters
        letters = free_reduce(letters + u + body + invert_letters(u))
    length_cap = len(letters) + draw(st.integers(0, 5))
    node_cap = draw(st.sampled_from([1, 7, 50, 3000]))
    return pres, Word(pres.ngens, letters), length_cap, node_cap


def _outcome(search, pres, w, length_cap, node_cap):
    try:
        return search(pres, w, length_cap, node_cap)
    except AreaNotFound as exc:
        return ("not found", exc.stats, str(exc))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(search_cases())
def test_tables_match_reference_search(case):
    pres, w, length_cap, node_cap = case
    assume(len(w) <= MAX_WORD)
    expected = _outcome(reference_area_search, pres, w, length_cap, node_cap)
    assert _outcome(area_search, pres, w, length_cap, node_cap) == expected


@pytest.mark.parametrize("text, word, length_cap", [
    (GROUPS["z2"], "x^3 y^3 x^-3 y^-3", 14),
    (GROUPS["zxz3"], "x y^2 x^-1 y", 9),
    (GROUPS["dihedral5"], "(a b)^2 b a b a", 12),
    (GROUPS["bs12"], "b a^2 b^-1 a^-4", 10),
])
def test_tables_match_reference_on_larger_searches(text, word, length_cap):
    pres = parse_presentation(text)
    w = parse_word(word, pres.gen_names)
    for node_cap in (10, 500, 10**6):
        expected = _outcome(reference_area_search, pres, w, length_cap, node_cap)
        assert _outcome(area_search, pres, w, length_cap, node_cap) == expected


def _move_strs(pres):
    """Each move as a string, paired with its letters inverted in place."""
    moves = [mv for mv, *_ in symmetrize(pres)]
    return moves, [(letters_to_str(mv), letters_to_str(tuple(-x for x in mv))) for mv in moves]


def test_window_rows_agree_with_splice():
    # every entry a row keeps gives the spliced word; every move it drops
    # splices to a word longer than the room allows
    pres = parse_presentation(GROUPS["dihedral5"])
    moves, move_strs = _move_strs(pres)
    for state in [(), (1,), (2, 1), (1, 2, 1, 2), (2, 1, 2, 1, 2), (-1, 2, 2, -1)]:
        code = letters_to_str(state)
        padded = "\0\0" + code + "\0\0"
        for room in range(0, 12):
            for pos in range(len(state) + 1):
                row = _window_row(move_strs, padded[pos:pos + 4], room)
                kept = {mi for mi, *_ in row}
                for mi, k1, k2, mid in row:
                    spliced = _splice(state[:pos], moves[mi], state[pos:])
                    if mid is None:
                        assert str_to_letters(_seam_splice(code, pos, *move_strs[mi])) == spliced
                    else:
                        assert str_to_letters(code[:pos - k1] + mid + code[pos + k2:]) == spliced
                        assert len(spliced) <= len(state) + room
                for mi, mv in enumerate(moves):
                    if mi not in kept:
                        assert len(_splice(state[:pos], mv, state[pos:])) > len(state) + room


SPLICE_GROUPS = ("z2", "dihedral5", "bs12", "a3")


@st.composite
def seam_cases(draw):
    """A reduced word built around an inverted rotated move, and a group.

    ``C D rot(m)^-1 D^-1 E`` makes the rotated move cancel completely at
    one position, after which ``D`` and ``D^-1`` cancel in turn.
    """
    pres = parse_presentation(GROUPS[draw(st.sampled_from(SPLICE_GROUPS))])
    moves = [mv for mv, *_ in symmetrize(pres)]
    letter = st.sampled_from([s * g for g in range(1, pres.ngens + 1) for s in (1, -1)])
    piece = st.lists(letter, max_size=4).map(free_reduce)
    mv = draw(st.sampled_from(moves))
    t = draw(st.integers(0, len(mv) - 1))
    c, d, e = draw(piece), draw(piece), draw(piece)
    return pres, free_reduce(c + d + invert_letters(mv[t:] + mv[:t]) + invert_letters(d) + e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seam_cases())
def test_seam_splice_matches_splice_at_every_position(case):
    pres, state = case
    moves, move_strs = _move_strs(pres)
    code = letters_to_str(state)
    for pos in range(len(state) + 1):
        for mv, pair in zip(moves, move_strs):
            assert str_to_letters(_seam_splice(code, pos, *pair)) == _splice(state[:pos], mv, state[pos:])


def test_seam_splice_joins_the_remainders_of_a_cancelled_move():
    # [x,y] spliced at 1 into x (y x y^-1 x^-1) x^-1 cancels the whole
    # move on the right, then the outer x and x^-1 meet and cancel
    pres = parse_presentation(GROUPS["z2"])
    moves, move_strs = _move_strs(pres)
    state = (1, 2, 1, -2, -1, -1)
    mi = moves.index((1, 2, -1, -2))
    assert _splice(state[:1], moves[mi], state[1:]) == ()
    assert _seam_splice(letters_to_str(state), 1, *move_strs[mi]) == ""


def test_search_on_two_hundred_generators():
    # codes of g199 and g200 are 397..400, past one byte
    names = [f"g{i}" for i in range(1, 201)]
    pres = parse_presentation(f"gens: {' '.join(names)}\nrels: [g199,g200]; g200^3")
    w = parse_word("[g199^2,g200] g200^-3", pres.gen_names)
    result = area_search(pres, w, len(w) + 4, 10**5)
    assert result == reference_area_search(pres, w, len(w) + 4, 10**5)
    assert result.value == 3


def test_huge_length_cap_allocates_nothing_by_cap(z2):
    # tables are keyed by room in a dict, so a cap far beyond any word is cheap
    result = area_search(z2, parse_word("[x,y]", z2.gen_names), 10**9, 1000)
    assert result.value == 1
    assert result.stats.length_cap == 10**9

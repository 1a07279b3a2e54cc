"""The window-table area search against the splice-everything reference.

``area_search`` takes its successors from one generator,
``_successors``, that reads most of them off tables keyed by the four
letters at the seam alone and skips a move whose growth leaves no room
under the length cap.  The reference below is the search loop as it was
before those tables: it splices every move at every position and tests
the cap afterwards.  With ``prune=True`` it also applies the winding
drop rule, computed from scratch: an upper bound U from a best-first
pass, and a new state at depth d is dropped when d + h > U.  Searched
with the same rule, both reach the same states in the same order, so
values, certificates, statistics and the point where ``AreaNotFound``
is raised agree exactly.  Pruned or not, values and certificates agree
wherever both searches find one.
"""

from heapq import heappop, heappush
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
    _successors,
    _Winding,
    _window_row,
    area_exact_small,
    area_search,
    verify_certificate,
)
from markedgroups.families import get_family
from markedgroups.presentations import (
    apply_symmetry,
    parse_presentation,
    parse_word,
    splice_symmetries,
    symmetrize,
)
from markedgroups.words import (
    Word,
    _splice,
    free_reduce,
    invert_letters,
    letters_key,
    letters_to_str,
    shell,
    str_to_letters,
)

A3_PRES = (Path(__file__).parent / "data" / "a3.pres").read_text(encoding="utf-8")


def commutator_planes(pres):
    """Generator pairs of the relators when every relator is a commutator, else None."""
    planes = set()
    for rel in pres.relators:
        r = rel.letters
        if len(r) != 4 or r[2] != -r[0] or r[3] != -r[1]:
            return None
        planes.add(frozenset((abs(r[0]), abs(r[1]))))
    return planes


def reference_winding(pres, letters):
    """Sum of |winding number| over the unit cells of each relator plane.

    Counted cell by cell: a ray from the cell's centre to the right
    crosses the vertical edges of the projected path, upward ones +1 and
    downward ones -1.  0 unless every relator is a commutator and every
    exponent sum of ``letters`` is 0.
    """
    planes = commutator_planes(pres)
    if planes is None or any(sum((x > 0) - (x < 0) for x in letters if abs(x) == g)
                             for g in range(1, pres.ngens + 1)):
        return 0
    total = 0
    for i, j in (sorted(p) for p in planes):
        point, vertical = (0, 0), []
        for x in letters:
            step = 1 if x > 0 else -1
            if abs(x) == i:
                point = (point[0] + step, point[1])
            elif abs(x) == j:
                vertical.append((point[0], min(point[1], point[1] + step), step))
                point = (point[0], point[1] + step)
        xs = [x for x, _, _ in vertical] or [0]
        ys = [y for _, y, _ in vertical] or [0]
        for cx in range(min(xs) - 1, max(xs)):
            for cy in range(min(ys), max(ys) + 1):
                total += abs(sum(step for x, y, step in vertical if x > cx and y == cy))
    return total


def _splices(moves, state):
    """(position, move index, spliced word) for every splice of ``state``."""
    for pos in range(len(state) + 1):
        for mi, mv in enumerate(moves):
            yield pos, mi, _splice(state[:pos], mv, state[pos:])


def reference_upper_bound(moves, target, length_cap, node_cap):
    """Length of the derivation a best-first pass finds, or None.

    Expands the shortest word first, then the least in letter order; the
    first word of ``node_cap`` + 1 distinct ones ends the pass.
    """
    depths = {target: 0}
    heap = [(letters_key(target), target)]
    while heap:
        _, state = heappop(heap)
        for _, _, nxt in _splices(moves, state):
            if len(nxt) > length_cap or nxt in depths:
                continue
            if not nxt:
                return depths[state] + 1
            if len(depths) >= node_cap:
                return None
            depths[nxt] = depths[state] + 1
            heappush(heap, (letters_key(nxt), nxt))
    return None


def reference_area_search(pres, w, length_cap, node_cap, prune=False):
    """Splice every move at every position; the loop the tables replace.

    With ``prune`` a new state at depth d is dropped when d +
    :func:`reference_winding` exceeds :func:`reference_upper_bound`.
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
    target = w.letters
    if not target:
        return AreaResult(0, Certificate(()), SearchStats(0, length_cap))

    moves = symmetrize(pres)
    move_words = [m[0] for m in moves]
    upper = None
    if prune and commutator_planes(pres) is not None and not any(
        w.exponent_sum(g) for g in range(1, pres.ngens + 1)
    ):
        upper = reference_upper_bound(move_words, target, length_cap, node_cap)

    parents: dict = {target: None}
    frontier = [target]
    explored = 1
    depth = 0
    goal_entry = None
    while frontier and goal_entry is None:
        depth += 1
        next_frontier = []
        for state in frontier:
            for pos, mi, nxt in _splices(move_words, state):
                if len(nxt) > length_cap or nxt in parents:
                    continue
                if upper is not None and depth + reference_winding(pres, nxt) > upper:
                    continue
                if not nxt:
                    goal_entry = (state, mi, pos)
                    parents[nxt] = goal_entry
                    explored += 1
                    break
                if explored >= node_cap:
                    raise AreaNotFound(w, caps, SearchStats(explored, length_cap), pres.gen_names)
                parents[nxt] = (state, mi, pos)
                explored += 1
                next_frontier.append(nxt)
            if goal_entry is not None:
                break
        next_frontier.sort(key=letters_key)
        frontier = next_frontier

    stats = SearchStats(explored, length_cap)
    if goal_entry is None:
        raise AreaNotFound(w, caps, stats, pres.gen_names)

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
    "z2_rotated": "gens: x y\nrels: [y^-1,x]",
    "z2_free": "gens: a b c\nrels: [a,b]",
}
# groups where every relator is a commutator, so the winding bound prunes
WINDING_GROUPS = ("z2", "z3", "z2_rotated", "z2_free")
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


def _outcome(search, pres, w, length_cap, node_cap, **options):
    try:
        return search(pres, w, length_cap, node_cap, **options)
    except AreaNotFound as exc:
        return ("not found", exc.stats, str(exc))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(search_cases())
def test_tables_match_reference_search(case):
    pres, w, length_cap, node_cap = case
    assume(len(w) <= MAX_WORD)
    expected = _outcome(reference_area_search, pres, w, length_cap, node_cap, prune=True)
    assert _outcome(area_search, pres, w, length_cap, node_cap) == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(search_cases())
def test_pruned_search_matches_unpruned_reference(case):
    # pruning drops no state of the goal's parent chain and keeps the
    # frontier's order, so wherever the unpruned search finds a value the
    # pruned one finds the same value and certificate from fewer states
    pres, w, length_cap, node_cap = case
    assume(len(w) <= MAX_WORD)
    expected = _outcome(reference_area_search, pres, w, length_cap, node_cap)
    found = _outcome(area_search, pres, w, length_cap, node_cap)
    if commutator_planes(pres) is None:
        assert found == expected
        return
    if isinstance(expected, AreaResult):
        assert (found.value, found.certificate) == (expected.value, expected.certificate)
    found_stats = found.stats if isinstance(found, AreaResult) else found[1]
    expected_stats = expected.stats if isinstance(expected, AreaResult) else expected[1]
    assert found_stats.states_explored <= expected_stats.states_explored


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
        expected = _outcome(reference_area_search, pres, w, length_cap, node_cap, prune=True)
        assert _outcome(area_search, pres, w, length_cap, node_cap) == expected


def _move_strs(pres):
    """Each move as a string, paired with its letters inverted in place."""
    moves = [mv for mv, *_ in symmetrize(pres)]
    return moves, [(letters_to_str(mv), letters_to_str(tuple(-x for x in mv))) for mv in moves]


def test_window_rows_agree_with_splice():
    # a row lists every move in move order; at every room, a certain
    # entry whose growth fits gives the spliced word and fits the room,
    # one whose growth does not fit splices past the room, and a marked
    # entry gives the spliced word once _seam_splice resumes its counts
    pres = parse_presentation(GROUPS["dihedral5"])
    moves, move_strs = _move_strs(pres)
    for state in [(), (1,), (2, 1), (1, 2, 1, 2), (2, 1, 2, 1, 2), (-1, 2, 2, -1)]:
        code = letters_to_str(state)
        padded = "\0\0" + code + "\0\0"
        for room in range(0, 12):
            for pos in range(len(state) + 1):
                row = _window_row(move_strs, padded[pos:pos + 4])
                assert [mi for mi, *_ in row] == list(range(len(moves)))
                for mi, k1, k2, mid, growth in row:
                    spliced = _splice(state[:pos], moves[mi], state[pos:])
                    if mid is None:
                        assert str_to_letters(_seam_splice(code, pos, *move_strs[mi], k1, k2)) == spliced
                    elif growth <= room:
                        assert str_to_letters(code[:pos - k1] + mid + code[pos + k2:]) == spliced
                        assert len(spliced) <= len(state) + room
                    else:
                        assert len(spliced) > len(state) + room


def _kernel_states(pres):
    """A few reduced words of ``pres``: short ones, relators and conjugates of them."""
    g = pres.ngens
    first, last = pres.relators[0].letters, pres.relators[-1].letters
    return [
        (), (1,), (1, g, 1), first, last,
        free_reduce((g, g) + last + (-g, -g)),
        free_reduce((1, -g) + last + (g, -1) + invert_letters(first)),
    ]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_successors_match_splicing_every_move_at_every_position(name):
    # one table serves every state and room; a word in ``seen`` is not
    # yielded, and with the winding drop the kernel yields the same list
    # minus the moves that raise h
    pres = parse_presentation(GROUPS[name])
    moves, move_strs = _move_strs(pres)
    tables = {}
    pruned_lists = 0
    for state in _kernel_states(pres):
        code = letters_to_str(state)
        for room in range(0, 9):
            length_cap = len(state) + room
            expected = [(mi, pos, spliced) for pos, mi, spliced in _splices(moves, state)
                        if len(spliced) <= length_cap]
            found = [(mi, pos, str_to_letters(nxt))
                     for mi, pos, nxt in _successors(code, length_cap, tables, move_strs, {})]
            assert found == expected
            seen = {letters_to_str(spliced) for _, _, spliced in expected[::2]}
            assert [(mi, pos, nxt) for mi, pos, nxt in _successors(code, length_cap, tables, move_strs, seen)] \
                == [(mi, pos, letters_to_str(w)) for mi, pos, w in expected if letters_to_str(w) not in seen]
            bound = _Winding.of(pres, symmetrize(pres), Word(pres.ngens, state), length_cap)
            if bound is None:
                continue
            winds, h, corners = bound.measure(code)
            assert h == reference_winding(pres, state)
            pruned = [(mi, pos, str_to_letters(nxt)) for mi, pos, nxt
                      in _successors(code, length_cap, tables, move_strs, {}, (bound.cells, winds, corners))]
            assert pruned == [(mi, pos, w) for mi, pos, w in expected if reference_winding(pres, w) <= h]
            pruned_lists += 1
    assert (pruned_lists > 0) == (name in WINDING_GROUPS)


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
    padded = "\0\0" + code + "\0\0"
    for pos in range(len(state) + 1):
        for mv, pair in zip(moves, move_strs):
            assert str_to_letters(_seam_splice(code, pos, *pair)) == _splice(state[:pos], mv, state[pos:])
        # resumed from the counts of the window row that marked the move
        for mi, k1, k2, mid, _ in _window_row(move_strs, padded[pos:pos + 4]):
            if mid is None:
                spliced = _seam_splice(code, pos, *move_strs[mi], k1, k2)
                assert str_to_letters(spliced) == _splice(state[:pos], moves[mi], state[pos:])


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
    # rows are keyed by the seam window alone and the cap is only compared
    # with, so a cap far beyond any word is cheap
    result = area_search(z2, parse_word("[x,y]", z2.gen_names), 10**9, 1000)
    assert result.value == 1
    assert result.stats.length_cap == 10**9


# the winding bound itself

@st.composite
def winding_cases(draw):
    """A group whose relators are all commutators and a trivial word of it."""
    pres = parse_presentation(GROUPS[draw(st.sampled_from(WINDING_GROUPS))])
    letter = st.sampled_from([s * g for g in range(1, pres.ngens + 1) for s in (1, -1)])
    factors = draw(st.lists(
        st.tuples(st.lists(letter, max_size=3), st.sampled_from(pres.relators), st.booleans()),
        max_size=4,
    ))
    letters = ()
    for conj, rel, inverted in factors:
        u = free_reduce(conj)
        body = invert_letters(rel.letters) if inverted else rel.letters
        letters = free_reduce(letters + u + body + invert_letters(u))
    return pres, letters


def _winding(pres, letters):
    return _Winding.of(pres, symmetrize(pres), Word(pres.ngens, letters), max(len(letters), 1) + 8)


def test_winding_of_the_empty_word_is_zero():
    for name in WINDING_GROUPS:
        pres = parse_presentation(GROUPS[name])
        assert reference_winding(pres, ()) == 0
        assert _winding(pres, ()).measure("")[1] == 0


def test_winding_applies_only_to_commutator_relators_and_zero_exponent_sums():
    for name in ("zxz3", "dihedral5", "bs12", "a3"):
        pres = parse_presentation(GROUPS[name])
        assert _winding(pres, ()) is None
    z2 = parse_presentation(GROUPS["z2"])
    assert _winding(z2, (1, 2)) is None
    assert reference_winding(z2, (1, 2)) == 0
    assert _winding(z2, (1, 2, -1, -2)) is not None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(winding_cases())
def test_winding_changes_by_one_across_every_splice(case):
    # h is consistent: one splice moves it by exactly one, and the search
    # reads that change off the winding of one cell
    pres, state = case
    moves, _ = _move_strs(pres)
    bound = _winding(pres, state)
    winds, h, corners = bound.measure(letters_to_str(state))
    assert h == reference_winding(pres, state)
    for pos, mi, spliced in _splices(moves, state):
        change = reference_winding(pres, spliced) - h
        assert abs(change) == 1
        plane, offset, sign = bound.cells[mi]
        cell = winds.get(corners[plane][pos] + offset, 0)
        assert abs(cell + sign) - abs(cell) == change


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(winding_cases())
def test_winding_is_invariant_under_splice_symmetries_and_inversion(case):
    # dehn searches one word per orbit, so h must not depend on the member
    pres, state = case
    h = reference_winding(pres, state)
    assert reference_winding(pres, invert_letters(state)) == h
    for sym in splice_symmetries(pres):
        image = apply_symmetry(sym, state)
        assert reference_winding(pres, image) == h
        assert _winding(pres, image).measure(letters_to_str(image))[1] == h


@pytest.mark.parametrize("name", WINDING_GROUPS)
def test_winding_is_at_most_the_area(name):
    pres = parse_presentation(GROUPS[name])
    found = 0
    for length in range(0, 7, 2):
        for letters in shell(pres.ngens, length):
            if any(Word(pres.ngens, letters).exponent_sum(g) for g in range(1, pres.ngens + 1)):
                continue
            area = area_exact_small(pres, Word(pres.ngens, letters), 3, 2)
            if area is not None:
                assert reference_winding(pres, letters) <= area
                found += 1
    assert found > 20

"""Oracle state automata against decide, and the state walks against the word scan.

Each exact oracle reads words letter by letter through ``start`` and
``step``; ``identity_distance`` is a consistent lower bound that is 0
exactly at the identity.  ``distance``, ``rel_ball`` and ``dehn`` walk
those states when both sides have them.  The reference below is the same
oracle behind a wrapper whose ``start`` returns None, which sends every
walk down the word scan.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markedgroups.area import AreaNotFound, Caps
from markedgroups.dehn import dehn
from markedgroups.families import get_family
from markedgroups.oracles import (
    AbelianOracle,
    FreeOracle,
    Oracle,
    ProductOracle,
    UnknownVerdictError,
    build_oracle,
)
from markedgroups.presentations import parse_presentation
import markedgroups.space as space
from markedgroups.space import RelationBall, distance, rel_ball, trivial_letters
from markedgroups.words import Word, ball_size, enumerate_ball, free_reduce, letters_key, signed_letters

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


class ScanOracle(Oracle):
    """The wrapped oracle's verdicts with no automaton: walks scan words."""

    def __init__(self, inner):
        self.inner = inner
        self.spec, self.soundness, self.ngens = inner.spec, inner.soundness, inner.ngens

    def decide(self, w):
        return self.inner.decide(w)


def _pres_and_oracle(text, spec):
    pres = parse_presentation(text)
    return pres, build_oracle(spec, pres)


def _group(name):
    """(presentation, oracle) for the pool, by short name."""
    if name.startswith("dihedral"):
        return get_family("dihedral").member(int(name[len("dihedral"):]))
    return _pres_and_oracle(*{
        "z": ("gens: x\nrels:", "abelian:0"),
        "z2xz5": ("gens: x y\nrels: x^2; y^5; [x,y]", "abelian:2,5"),
        "z2": ("gens: x y\nrels: [x,y]", "abelian:0,0"),
        "zxz2": ("gens: x y\nrels: [x,y]; y^2", "abelian:0,2"),
        "z5xz": ("gens: x y\nrels: [x,y]; x^5", "abelian:5,0"),
        "dinf": ("gens: x y\nrels: x^2; y^2", "rewriting:involutions"),
        "f2": ("gens: x y\nrels:", "free"),
        "zxz5_product": ("gens: x y\nrels: [x,y]; y^5", "product:x=free;y=abelian:5"),
        "z2xz3_product": ("gens: x y\nrels: [x,y]; y^3", "product:x=abelian:0;y=abelian:3"),
        "z025": ("gens: a b c\nrels: [a,b]; [a,c]; [b,c]; b^2; c^5", "abelian:0,2,5"),
        "f2xz_product": ("gens: a b c\nrels: [a,c]; [b,c]", "product:a,b=free;c=abelian:0"),
        "dinf3": ("gens: a b c\nrels: a^2; b^2; c^2", "rewriting:involutions"),
    }[name])


POOL = {
    1: ["z"],
    2: ["z2xz5", "z2", "zxz2", "z5xz", "dihedral3", "dihedral4", "dihedral5", "dihedral6",
        "dinf", "f2", "zxz5_product", "z2xz3_product"],
    3: ["z025", "f2xz_product"],
}
ALL = [name for names in POOL.values() for name in names]
GROUPS = {name: _group(name) for name in ALL}


def _fold(oracle, ngens, letters):
    state = oracle.start(ngens)
    states = [state]
    for x in letters:
        state = oracle.step(state, x)
        states.append(state)
    return states


@st.composite
def group_and_letters(draw):
    """A pool group and a word over its generators, not always reduced.

    Half the words are closed by the inverse of a shuffle of their
    letters, which is trivial in every abelian group; runs of one letter
    reach the finite orders.
    """
    name = draw(st.sampled_from(ALL))
    ngens = GROUPS[name][0].ngens
    runs = draw(st.lists(st.tuples(st.integers(1, ngens), st.sampled_from((1, -1)),
                                   st.integers(1, 6)), max_size=5))
    letters = [g * sign for g, sign, k in runs for _ in range(k)]
    if draw(st.booleans()):
        letters += [-x for x in reversed(draw(st.permutations(letters)))]
    return name, letters


@SETTINGS
@given(group_and_letters())
def test_folded_state_is_identity_exactly_when_decide_says_trivial(case):
    name, letters = case
    pres, oracle = GROUPS[name]
    states = _fold(oracle, pres.ngens, letters)
    trivial = oracle.decide(Word(pres.ngens, free_reduce(letters)))
    assert (oracle.identity_distance(states[-1]) == 0) == trivial
    assert _fold(oracle, pres.ngens, free_reduce(letters))[-1] == states[-1]


@SETTINGS
@given(group_and_letters())
def test_identity_distance_is_consistent(case):
    name, letters = case
    pres, oracle = GROUPS[name]
    alphabet = signed_letters(pres.ngens)
    states = _fold(oracle, pres.ngens, letters)
    assert oracle.identity_distance(states[0]) == 0
    for state in states:
        d = oracle.identity_distance(state)
        assert d >= 0
        for x in alphabet:
            assert abs(oracle.identity_distance(oracle.step(state, x)) - d) <= 1


@SETTINGS
@given(st.sampled_from([(a, b) for names in POOL.values() for a in names for b in names]),
       st.integers(0, 8))
def test_distance_equals_the_scan(pair, lambda_max):
    (pres1, oracle1), (pres2, oracle2) = GROUPS[pair[0]], GROUPS[pair[1]]
    expected = distance(pres1, ScanOracle(oracle1), pres2, ScanOracle(oracle2), lambda_max)
    assert distance(pres1, oracle1, pres2, oracle2, lambda_max) == expected


@SETTINGS
@given(st.sampled_from(ALL), st.integers(0, 8))
def test_rel_ball_equals_the_scan(name, radius):
    pres, oracle = GROUPS[name]
    if pres.ngens == 3:
        radius = min(radius, 5)
    ball, scanned = rel_ball(pres, oracle, radius), rel_ball(pres, ScanOracle(oracle), radius)
    assert ball == scanned
    # both print their words as the members sorted length-lex
    for b in (ball, scanned):
        ordered = sorted(b.members, key=lambda w: letters_key(w.letters))
        assert b.to_json(pres)["members"] == [pres.word_str(w) for w in ordered]


@pytest.mark.parametrize("name", ALL)
def test_trivial_letters_come_in_the_scan_order(name):
    # the same words in the same order, length-lex: dehn reads them in order
    pres, oracle = GROUPS[name]
    radius = 5 if pres.ngens == 3 else 8
    assert trivial_letters(oracle, pres.ngens, radius) == trivial_letters(ScanOracle(oracle), pres.ngens, radius)


def _dehn_outcome(pres, oracle, n, caps):
    try:
        return dehn(pres, oracle, n, caps)
    except AreaNotFound as exc:
        return ("error", str(exc), exc.word)


@SETTINGS
@given(st.sampled_from(ALL), st.integers(0, 6), st.sampled_from([(6, 10**6), (2, 10)]))
def test_dehn_equals_the_scan(name, n, cap_choice):
    # (2, 10): length cap n + 2 and a node cap of 10, under which about a
    # quarter of the sweeps fail, so the first failing word is compared too.
    pres, oracle = GROUPS[name]
    if pres.ngens == 3:
        n = min(n, 4)
    extra, node_cap = cap_choice
    caps = Caps(n + extra, node_cap)
    assert _dehn_outcome(pres, oracle, n, caps) == _dehn_outcome(pres, ScanOracle(oracle), n, caps)


@pytest.mark.parametrize("i", [3, 4, 5, 6])
def test_coset_identity_distance_is_the_word_length(i):
    pres, oracle = GROUPS[f"dihedral{i}"]
    shortest = {}
    for w in enumerate_ball(pres.ngens, i):  # the diameter of the dihedral group of order 2i
        shortest.setdefault(reduce(oracle.table.act, w.letters, 0), len(w))
    assert shortest == {state: oracle.identity_distance(state) for state in range(2 * i)}


@pytest.mark.parametrize("i", [3, 4, 5, 6])
def test_coset_verdicts_match_the_affine_action_of_the_dihedral_group(i):
    # a: x -> -x and b: x -> 1 - x act faithfully on Z/i; a map x -> s x + c
    # is kept as (s, c), and a word is trivial iff it composes to (1, 0)
    pres, oracle = GROUPS[f"dihedral{i}"]
    maps = {1: (-1, 0), 2: (-1, 1)}
    for w in enumerate_ball(pres.ngens, 6):
        s, c = 1, 0
        for x in w.letters:
            t, d = maps[abs(x)]  # a and b are involutions
            s, c = t * s, (t * c + d) % i
        assert oracle.decide(w) == ((s, c) == (1, 0)), w


class CountingFreeOracle(FreeOracle):
    def __init__(self, counter):
        super().__init__(2)
        self.counter = counter

    def step(self, state, letter):
        self.counter[0] += 1
        return super().step(state, letter)


def test_distance_prune_bounds_the_steps_of_free_against_free():
    # min(d1, d2) > letters left drops every pair of reduced words longer
    # than 6 at lambda 12; without the prune this takes about 2.1M steps.
    pres = parse_presentation("gens: x y\nrels:")
    counter = [0]
    d = distance(pres, CountingFreeOracle(counter), pres, CountingFreeOracle(counter), 12)
    assert d.kind == "at_most" and d.lam == 12
    assert counter[0] <= 2 * 4 * ball_size(2, 6)


class CountingOracle(Oracle):
    """The wrapped oracle's automaton, counting the steps taken."""

    def __init__(self, inner):
        self.inner, self.steps = inner, 0
        self.spec, self.soundness, self.ngens = inner.spec, inner.soundness, inner.ngens

    def start(self, ngens):
        return self.inner.start(ngens)

    def step(self, state, letter):
        self.steps += 1
        return self.inner.step(state, letter)

    def identity_distance(self, state):
        return self.inner.identity_distance(state)


def test_distance_expands_each_state_pair_once():
    # expanding a pair once per last letter that reaches it takes 2,346
    # member steps here
    family = get_family("dihedral")
    member_pres, member_oracle = family.member(50)
    limit_pres, limit_oracle = family.limit()
    member = CountingOracle(member_oracle)
    d = distance(member_pres, member, limit_pres, limit_oracle, 120)
    assert d.kind == "exact" and d.lam == 99
    assert member.steps <= 594


def reference_trivial_letters(oracle, ngens, radius):
    """The walk without transition rows: ``step`` and ``identity_distance`` at every prefix."""
    alphabet = signed_letters(ngens)[::-1]
    found = []
    stack = [((), oracle.start(ngens), 0)]
    while stack:
        letters, state, d = stack.pop()
        if d == 0:
            found.append(letters)
        room = radius - len(letters) - 1
        if room < 0:
            continue
        last = letters[-1] if letters else 0
        for x in alphabet:
            if x != -last:
                nxt = oracle.step(state, x)
                d = oracle.identity_distance(nxt)
                if d <= room:
                    stack.append((letters + (x,), nxt, d))
    found.sort(key=len)
    return found


@pytest.mark.parametrize("name, radius, direct", [
    ("z2xz5", 9, False),
    ("z5xz", 4, True),
    ("z5xz", 8, False),
    ("dihedral5", 8, False),
    ("dinf", 9, False),
    ("dinf3", 6, False),
    ("f2", 3, False),
    ("f2", 9, True),
    ("zxz5_product", 5, True),
    ("zxz5_product", 9, False),
    ("f2xz_product", 5, True),
])
def test_trivial_letters_match_the_walk_without_rows(name, radius, direct, monkeypatch):
    # direct: whether the row bound leaves some states without a row, so
    # the walk below them steps at every prefix
    pres, oracle = _group(name)
    subwalks = []
    walk_direct = space._walk_direct
    monkeypatch.setattr(space, "_walk_direct", lambda *args: subwalks.append(walk_direct(*args)))
    counted, reference = CountingOracle(oracle), CountingOracle(oracle)
    expected = reference_trivial_letters(reference, pres.ngens, radius)
    assert trivial_letters(counted, pres.ngens, radius) == expected
    assert bool(subwalks) == direct
    assert counted.steps <= reference.steps
    ball = rel_ball(pres, oracle, radius)
    assert ball == RelationBall(radius, tuple(expected), pres.ngens)
    assert ball.members == frozenset(Word(pres.ngens, letters) for letters in expected)


def test_product_ball_steps_each_state_once():
    # Z x Z/3 at radius 8 meets 23 states; stepping at every prefix takes 4,762 steps
    pres, oracle = GROUPS["z2xz3_product"]
    counted = CountingOracle(oracle)
    assert len(trivial_letters(counted, pres.ngens, 8)) == 609
    assert counted.steps <= 23 * 4


def test_free_walk_keeps_the_steps_of_the_walk_without_rows():
    # no state of a free group repeats, so no row is ever read twice
    pres, oracle = GROUPS["f2"]
    counted = CountingOracle(oracle)
    assert trivial_letters(counted, pres.ngens, 16) == [()]
    assert counted.steps == 39_364


def _mismatched_oracles():
    a3 = parse_presentation("gens: a\nrels: a^3")
    return [
        AbelianOracle((0, 0, 0)),
        build_oracle("coset", a3),
        ProductOracle(((FreeOracle(1), (1,)), (AbelianOracle((0,)), (2,)), (FreeOracle(1), (3,))), ("a", "b", "c")),
        build_oracle("rewriting:involutions", parse_presentation("gens: a b c\nrels: a^2; b^2; c^2")),
        build_oracle("free", parse_presentation("gens: a\nrels:")),
        build_oracle("derivation:8,50", a3),
    ]


@pytest.mark.parametrize("bad", _mismatched_oracles(),
                         ids=["abelian", "coset", "product", "rewriting", "free", "derivation"])
def test_marking_mismatch_raises_the_decide_error_from_every_walk(bad):
    pres, good = GROUPS["z2"]
    with pytest.raises(ValueError) as decided:
        bad.decide(Word(pres.ngens, ()))
    message = str(decided.value)
    for call in (lambda: rel_ball(pres, bad, 3),
                 lambda: dehn(pres, bad, 3, Caps(8, 1000)),
                 lambda: distance(pres, bad, pres, good, 3),
                 lambda: distance(pres, good, pres, bad, 3)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_product_with_a_derivation_part_has_no_automaton_and_scans_words():
    pres = parse_presentation("gens: x y\nrels: [x,y]; y^3")
    oracle = build_oracle("product:x=derivation:8,50;y=abelian:3", pres)
    assert oracle.start(2) is None and build_oracle("derivation:8,50", pres).start(2) is None
    # with no relators the derivation part cannot decide x, the first nonempty word
    for call in (lambda: rel_ball(pres, oracle, 3), lambda: dehn(pres, oracle, 3, Caps(8, 50)),
                 lambda: distance(pres, GROUPS["z2xz3_product"][1], pres, oracle, 3)):
        with pytest.raises(UnknownVerdictError) as err:
            call()
        assert err.value.word == Word(2, (1,)) and err.value.oracle is oracle

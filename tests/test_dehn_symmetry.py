"""Class-reduced Dehn sweeps against the per-word reference.

``dehn`` runs one area search per class of trivial words: a word's class
is that of its cyclic core under rotation, word inversion and the signed
generator permutations that map the symmetrized relators onto
themselves.  The reference below runs one search per trivial word, as
the sweep did before the reduction.
"""

import importlib
import multiprocessing
import os
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from markedgroups.area import AreaNotFound, Caps, area_search
from markedgroups.dehn import DehnValue, _orbits, dehn, worker_pool
from markedgroups.families import get_family
from markedgroups.oracles import build_oracle
from markedgroups.presentations import (
    apply_symmetry,
    parse_presentation,
    splice_symmetries,
    symmetrize,
)
from markedgroups.space import trivial_letters
from markedgroups.words import Word, free_reduce, invert_letters, letters_key, shell, signed_letters

A3_PRES = (Path(__file__).parent / "data" / "a3.pres").read_text(encoding="utf-8")


def _group(name):
    """(presentation, oracle) for the test groups, by short name."""
    if name.startswith("dihedral"):
        return get_family("dihedral").member(int(name[len("dihedral"):]))
    text, spec = {
        "z2": ("gens: x y\nrels: [x,y]", "abelian:0,0"),
        "zxz3": ("gens: x y\nrels: [x,y]; y^3", "abelian:0,3"),
        "a3": (A3_PRES, "abelian:3"),
        "z3": ("gens: a b c\nrels: [a,b]; [a,c]; [b,c]", "abelian:0,0,0"),
    }[name]
    pres = parse_presentation(text)
    return pres, build_oracle(spec, pres)


GROUPS = ["z2", "zxz3", "dihedral3", "dihedral4", "dihedral5", "dihedral6", "a3", "z3"]


def reference_dehn(pres, oracle, n, caps):
    """One area search per trivial word, in enumeration order."""
    trivial, values = [], []
    for length in range(1, n + 1):
        for letters in shell(pres.ngens, length):
            w = Word(pres.ngens, letters)
            if not oracle.decide(w):
                continue
            trivial.append(w)
            values.append(area_search(pres, w, caps.length_cap, caps.node_cap).value)
    if not trivial:
        return DehnValue(n, 0, ())
    vmax = max(values)
    witnesses = tuple(w for w, v in zip(trivial, values) if v == vmax)[:8]
    return DehnValue(n, vmax, witnesses)


@pytest.mark.parametrize("name", GROUPS)
def test_orbit_reduced_dehn_matches_per_word_reference(name):
    pres, oracle = _group(name)
    longest = max(len(r) for r in pres.relators)
    cases = [(n, Caps(n + longest // 2, 10**6)) for n in (2, 4, 6)]
    expected = [reference_dehn(pres, oracle, n, caps) for n, caps in cases]
    # one table under one Caps gives the entry of every smaller radius
    one_caps = Caps(6 + longest // 2, 10**6)
    expected_at = [reference_dehn(pres, oracle, n, one_caps) for n in range(7)]
    for workers in (1, 2, 3):
        with worker_pool(workers) as fan_out:
            got = [dehn(pres, oracle, n, caps, fan_out).at(n) for n, caps in cases]
            table = dehn(pres, oracle, 6, one_caps, fan_out)
        assert got == expected, (name, workers)
        assert [table.at(n) for n in range(7)] == expected_at, (name, workers)
        for n in (-1, 7):
            with pytest.raises(ValueError):
                table.at(n)


def test_cap_exhaustion_reports_the_same_word(monkeypatch, opened_pools, pool_at_once):
    # every search runs in a pool of `workers` processes, on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    coxeter = parse_presentation("gens: x y\nrels: x^2; x^3; y^2; y^3")
    cases = [
        # x = x^3 * x^-2 needs an intermediate word of length 2: the first search fails
        (coxeter, build_oracle("coset", coxeter), 1, Caps(1, 10**6), "x"),
        # 16 class searches succeed within 200 states before the 17th fails
        (*get_family("dihedral").member(3), 6, Caps(8, 200), "a b a b^-1 a^-1 b^-1"),
    ]
    for pres, oracle, n, caps, word in cases:
        with pytest.raises(AreaNotFound) as expected:
            reference_dehn(pres, oracle, n, caps)
        assert pres.word_str(expected.value.word) == word
        for workers in (1, 2, 3):
            with worker_pool(workers) as fan_out, pytest.raises(AreaNotFound) as got:
                dehn(pres, oracle, n, caps, fan_out)
            assert (got.value.word, str(got.value)) == (expected.value.word, str(expected.value)), (word, workers)
            assert len(opened_pools) == (workers > 1) and multiprocessing.active_children() == []
            opened_pools.clear()


def test_one_search_per_orbit(monkeypatch):
    searched = []

    def counting_search(pres, w, length_cap, node_cap):
        searched.append(w.letters)
        return area_search(pres, w, length_cap, node_cap)

    monkeypatch.setattr(importlib.import_module("markedgroups.dehn"), "area_search", counting_search)
    pres, oracle = _group("z2")
    counts = []
    for n in (4, 6, 8):
        searched.clear()
        dehn(pres, oracle, n, Caps(10, 10**6))
        assert len(set(searched)) == len(searched)
        counts.append(len(searched))
    # 8, 48 and 360 trivial words of positive length
    assert counts == [1, 2, 9]


def _moves(pres):
    return {mv for mv, *_ in symmetrize(pres)}


@pytest.mark.parametrize("name", GROUPS)
def test_found_maps_keep_the_move_set(name):
    pres, _ = _group(name)
    moves = _moves(pres)
    found = splice_symmetries(pres)
    assert found[0] == tuple(range(1, pres.ngens + 1))
    assert len(set(found)) == len(found)
    for sym in found:
        assert {apply_symmetry(sym, mv) for mv in moves} == moves


@pytest.mark.parametrize("name", GROUPS)
def test_found_maps_are_all_signed_permutations_that_keep_the_move_set(name):
    pres, _ = _group(name)
    moves = _moves(pres)
    k = pres.ngens
    everything = [
        tuple(sign * gen for sign, gen in zip(signs, perm))
        for perm in permutations(range(1, k + 1))
        for signs in product((1, -1), repeat=k)
    ]
    keeping = {sym for sym in everything if {apply_symmetry(sym, mv) for mv in moves} == moves}
    assert set(splice_symmetries(pres)) == keeping


def test_symmetry_counts():
    counts = {name: len(splice_symmetries(_group(name)[0])) for name in GROUPS}
    assert counts == {
        "z2": 8, "zxz3": 4, "dihedral3": 4, "dihedral4": 4, "dihedral5": 4,
        "dihedral6": 4, "a3": 2, "z3": 48,
    }


def test_many_unconstrained_generators_stop_early():
    names = " ".join(f"g{j}" for j in range(9))
    pres = parse_presentation(f"gens: {names}\nrels: g0^2")
    found = splice_symmetries(pres)
    assert 0 < len(found) <= 1024
    moves = _moves(pres)
    for sym in found:
        assert {apply_symmetry(sym, mv) for mv in moves} == moves


# Property: inversion and every found map keep the cap-restricted area.

HYPOTHESIS_GROUPS = ["z2", "zxz3", "dihedral3", "dihedral4", "a3", "z3"]
MAX_WORD = 8


def _conjugate_product(factors):
    letters = ()
    for conj, rel, inverted in factors:
        u = free_reduce(conj)
        body = invert_letters(rel.letters) if inverted else rel.letters
        letters = free_reduce(letters + u + body + invert_letters(u))
    return letters


def conjugate_products(pres):
    """Trivial words of ``pres``: products of one to three conjugated relators."""
    letter = st.sampled_from(signed_letters(pres.ngens))
    return st.lists(
        st.tuples(st.lists(letter, max_size=2), st.sampled_from(pres.relators), st.booleans()),
        min_size=1, max_size=3,
    ).map(_conjugate_product)


@st.composite
def trivial_words(draw):
    """A group and a trivial word: a product of conjugated relators."""
    name = draw(st.sampled_from(HYPOTHESIS_GROUPS))
    pres, _ = _group(name)
    return name, pres, draw(conjugate_products(pres))


def _area(pres, letters, caps):
    try:
        return area_search(pres, Word(pres.ngens, letters), caps.length_cap, caps.node_cap).value
    except AreaNotFound:
        return None


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(trivial_words())
def test_orbit_members_have_equal_area(case):
    name, pres, letters = case
    assume(0 < len(letters) <= MAX_WORD)
    caps = Caps(len(letters) + 2, 10**6)
    value = _area(pres, letters, caps)
    assert _area(pres, invert_letters(letters), caps) == value, name
    for sym in splice_symmetries(pres):
        assert _area(pres, apply_symmetry(sym, letters), caps) == value, (name, sym)


# Property: a word's class value, the capped area of its class
# representative, is the capped area of the word itself, on every test
# group (each has an exact oracle) at n <= 6 and length caps n to n + 4.

@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 4))
def test_class_value_is_the_words_own_area(name, n, extra):
    pres, oracle = _group(name)
    caps = Caps(n + extra, 10**6)
    words = sorted(filter(None, trivial_letters(oracle, pres.ngens, n)), key=letters_key)
    reps, word_orbit = _orbits(pres, words)
    rep_values = [_area(pres, rep, caps) for rep in reps]
    for letters, orbit in zip(words, word_orbit):
        assert rep_values[orbit] == _area(pres, letters, caps), (name, caps, letters)


# Property: the code-string class keys of dehn._orbits give the classes of
# tuple keys on letters.

def letter_key(x):
    """Reference letter order as (generator index, sign) pairs."""
    return (x, 0) if x > 0 else (-x, 1)


def cyclic_core(w):
    """The word with its cancelling ends stripped."""
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def reference_orbits(pres, words):
    """Classes keyed by tuples of (index, sign) pairs: the least image of
    the cyclic core under every symmetry, both orientations and every
    rotation."""
    letters = signed_letters(pres.ngens)
    key_maps = [
        dict(zip(letters, map(letter_key, apply_symmetry(sym, letters))))
        for sym in splice_symmetries(pres)
    ]
    orbit_index = {}
    word_orbit = []
    for w in words:
        core = cyclic_core(w)
        key = min(
            tuple(map(keys.__getitem__, v[r:] + v[:r]))
            for keys in key_maps for v in (core, invert_letters(core)) for r in range(len(core))
        )
        word_orbit.append(orbit_index.setdefault(key, len(orbit_index)))
    return [tuple(g if s == 0 else -g for g, s in key) for key in orbit_index], word_orbit


ORBIT_GROUPS = ["z2", "z3", "zxz3", "dihedral5", "a3", "bs12"]


def _pres(name):
    if name == "bs12":
        return parse_presentation("gens: a b\nrels: b a b^-1 a^-2")
    return _group(name)[0]


@st.composite
def trivial_word_lists(draw):
    """A group and a shuffled list of nonempty trivial words, each next to a
    conjugate of a rotated image of its core under a symmetry."""
    name = draw(st.sampled_from(ORBIT_GROUPS))
    pres = _pres(name)
    symmetries = splice_symmetries(pres)
    letter = st.sampled_from(signed_letters(pres.ngens))
    words = []
    for letters in draw(st.lists(conjugate_products(pres), max_size=12)):
        if not letters:
            continue
        image = cyclic_core(apply_symmetry(draw(st.sampled_from(symmetries)), letters))
        image = invert_letters(image) if draw(st.booleans()) else image
        r = draw(st.integers(0, len(image) - 1))
        u = draw(st.lists(letter, max_size=2))
        words += [letters, free_reduce(tuple(u) + image[r:] + image[:r] + invert_letters(tuple(u)))]
    return name, pres, draw(st.permutations(words))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trivial_word_lists())
def test_code_orbit_keys_match_tuple_keys(case):
    name, pres, words = case
    assert _orbits(pres, words) == reference_orbits(pres, words), name


@pytest.mark.parametrize("name", ORBIT_GROUPS)
def test_symmetrize_lists_unique_moves_in_length_lex_order(name):
    moves = [mv for mv, *_ in symmetrize(_pres(name))]
    assert moves == sorted(set(moves), key=letters_key)

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markedgroups.words import (
    Word,
    _splice,
    ball_size,
    conjugate,
    enumerate_ball,
    free_reduce,
    letters_key,
    letters_to_str,
    make_word,
    shell,
    signed_letters,
    str_to_letters,
    word_to_str,
)


def letter_key(x):
    """Reference letter order as (generator index, sign) pairs."""
    return (x, 0) if x > 0 else (-x, 1)


def rand_word(rng, ngens, max_len):
    letters = [rng.choice([s * j for j in range(1, ngens + 1) for s in (1, -1)])
               for _ in range(rng.randint(0, max_len))]
    return make_word(ngens, letters)


@pytest.mark.parametrize("ngens", [1, 2, 3])
def test_signed_letters_follow_the_letter_order(ngens):
    letters = signed_letters(ngens)
    assert letters == tuple(sorted(letters, key=letter_key))
    assert set(letters) == {s * j for j in range(1, ngens + 1) for s in (1, -1)}


def test_reduce_examples():
    assert make_word(2, (1, 2, -2, -1)).letters == ()
    assert make_word(2, (1, 1, -1, 2)).letters == (1, 2)
    assert make_word(2, (1, 2, -1)).letters == (1, 2, -1)


def test_reduce_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_word(2, (3,))
    with pytest.raises(ValueError):
        make_word(2, (0,))


def test_reduce_idempotent_randomized():
    rng = random.Random(1)
    for _ in range(300):
        raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 12))]
        once = free_reduce(raw)
        assert free_reduce(once) == once


def test_word_constructor_requires_reduced():
    with pytest.raises(ValueError):
        Word(2, (1, -1))


def test_concat_examples():
    ab = make_word(2, (1, 2))
    assert (ab * make_word(2, (-2, 1))).letters == (1, 1)
    assert (ab * ab.inverse()).letters == ()
    assert (ab * ab).letters == (1, 2, 1, 2)


def test_concat_rejects_mixed_markings():
    with pytest.raises(ValueError):
        make_word(1, (1,)) * make_word(2, (1,))


def test_invert_examples():
    assert make_word(2, (1, 2, -1)).inverse().letters == (1, -2, -1)
    assert make_word(1, ()).inverse().letters == ()
    assert make_word(1, (1, 1, 1)).inverse().letters == (-1, -1, -1)
    w = make_word(2, (1, 2, -1, 2))
    assert w.inverse().inverse() == w


def test_conjugate_examples():
    a = make_word(2, (1,))
    b = make_word(2, (2,))
    assert conjugate(a, b).letters == (1, 2, -1)
    assert conjugate(make_word(2, (1, 2)), make_word(2, ())).letters == ()
    assert conjugate(make_word(1, (1,)), make_word(1, (1, 1, 1))).letters == (1, 1, 1)


def test_group_laws_randomized():
    rng = random.Random(2)
    for _ in range(200):
        u, v, w = (rand_word(rng, 2, 8) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        e = make_word(2, ())
        assert u * e == u and e * u == u
        assert (u * u.inverse()).letters == ()
        assert len(conjugate(u, w)) <= 2 * len(u) + len(w)


def test_ball_m1():
    words = list(enumerate_ball(1, 3))
    assert len(words) == 7
    assert {w.letters for w in words} == {
        (), (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1)
    }


def test_ball_m2_counts():
    assert ball_size(2, 2) == 17
    assert len(list(enumerate_ball(2, 2))) == 17
    assert [w.letters for w in enumerate_ball(2, 0)] == [()]


@pytest.mark.parametrize("ngens,radius", [(1, 8), (2, 8), (3, 6)])
def test_ball_exact_count_no_duplicates(ngens, radius):
    seen = set()
    count = 0
    for w in enumerate_ball(ngens, radius):
        count += 1
        seen.add(w.letters)
        # every emitted word freely reduced
        assert all(w.letters[i] != -w.letters[i + 1] for i in range(len(w) - 1))
    assert count == ball_size(ngens, radius)
    assert len(seen) == count


def test_ball_m3_radius8_count_only():
    # spot check at the top of the documented range, letter tuples only
    count = sum(1 for length in range(9) for _ in shell(3, length))
    assert count == ball_size(3, 8)


@pytest.mark.parametrize("ngens", [1, 2, 3])
def test_ball_words_equal_validated_words(ngens):
    # enumerate_ball skips validation; its words must equal validated ones
    expected = [Word(ngens, letters) for length in range(7) for letters in shell(ngens, length)]
    got = list(enumerate_ball(ngens, 6))
    assert got == expected
    assert [hash(w) for w in got] == [hash(w) for w in expected]
    assert all(type(w.letters) is tuple and w.ngens == ngens for w in got)


def test_ball_is_length_lex_sorted():
    words = list(enumerate_ball(2, 4))
    keys = [letters_key(w.letters) for w in words]
    assert keys == sorted(keys)


def test_word_to_str_round_trip():
    from markedgroups.presentations import parse_word

    rng = random.Random(3)
    names = ("x", "y")
    for _ in range(100):
        w = rand_word(rng, 2, 10)
        assert parse_word(word_to_str(w, names), names) == w
    assert word_to_str(make_word(2, ()), names) == "1"
    assert word_to_str(make_word(2, (1, 1, -2)), names) == "x^2 y^-1"


reduced = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(free_reduce)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reduced, reduced, reduced)
def test_splice_equals_free_reduction(a, b, c):
    # the seam-only cancellation agrees with a full rescan on reduced parts
    assert _splice(a, b, c) == free_reduce(a + b + c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(reduced, max_size=30))
def test_letters_key_orders_as_letter_pairs(words):
    # one integer per letter sorts exactly as the (index, sign) pairs
    assert sorted(words, key=letters_key) == sorted(words, key=lambda w: (len(w), tuple(map(letter_key, w))))


# 200 generators: the codes run up to 400, past any one-byte encoding
wide_words = st.lists(
    st.lists(st.integers(1, 200).flatmap(lambda g: st.sampled_from([g, -g])), max_size=8).map(free_reduce),
    max_size=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wide_words)
@example([(200, -199), (-200,), (1, 200)])
def test_string_codes_are_a_bijection_in_length_lex_order(words):
    for w in words:
        assert str_to_letters(letters_to_str(w)) == w
        assert len(letters_to_str(w)) == len(w)
    # the two sorts area_search gives each frontier
    codes = [letters_to_str(w) for w in words]
    codes.sort()
    codes.sort(key=len)
    assert [str_to_letters(c) for c in codes] == sorted(words, key=letters_key)

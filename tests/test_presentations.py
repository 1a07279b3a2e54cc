import pytest

from markedgroups.families import builtin_families
from markedgroups.presentations import (
    Presentation,
    PresentationSyntaxError,
    max_relator_length,
    parse_presentation,
    parse_word,
    read_presentation,
    symmetrize,
)
from markedgroups.words import invert_letters, make_word


def test_parse_commutator(z2):
    assert z2.ngens == 2
    assert [r.letters for r in z2.relators] == [(1, 2, -1, -2)]


def test_parse_power():
    p = parse_presentation("gens: a\nrels: a^3")
    assert p.ngens == 1
    assert [r.letters for r in p.relators] == [(1, 1, 1)]


def test_parse_three_relators(d3):
    assert [len(r) for r in d3.relators] == [2, 2, 6]


def test_parse_comments_and_blank_lines():
    text = "# presentation of Z^2\n\ngens: x y   # the marking\nrels: [x,y]  # one relator\n"
    p = parse_presentation(text)
    assert p.gen_names == ("x", "y")


def test_parse_empty_relator_list():
    p = parse_presentation("gens: x\nrels:")
    assert p.relators == ()
    assert max_relator_length(p) is None


def test_parse_errors_carry_position():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("gens: x y\nrels: x z")
    # 1-based: the 'z' is the 9th character of line 2
    assert (err.value.line, err.value.column) == (2, 9)
    assert str(err.value) == "line 2, column 9: unknown generator 'z'"
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("z")
    assert (err.value.line, err.value.column) == (1, 1)
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rels: x")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x\nrels: x\nextra: boom")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x\nrels: x^0")


def test_builtin_limits_equal_their_text_parsed_directly():
    texts = {"cyclicZ": "gens: x\nrels:", "zxz": "gens: x y\nrels: [x,y]", "dihedral": "gens: a b\nrels: a^2; b^2"}
    assert {f.name: f.limit_pres for f in builtin_families()} == {
        name: parse_presentation(text) for name, text in texts.items()
    }


@pytest.mark.parametrize("text, column", [
    ("gens: x x\nrels:", 9),
    # the second name 'x', not the 'x' of 'xy' or the first name 'x'
    ("gens: xy x y x\nrels:", 14),
], ids=["adjacent", "after_a_longer_name"])
def test_repeated_generator_name_is_a_syntax_error_at_the_repeat(text, column):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert str(err.value) == f"line 1, column {column}: duplicate generator name 'x'"
    assert (err.value.line, err.value.column) == (1, column)


def test_empty_word_relator_rejected():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x y\nrels: x x^-1")


def test_relators_cyclically_reduced_and_deduped():
    p = parse_presentation("gens: x y\nrels: y x^3 y^-1; x^3")
    # y x^3 y^-1 cyclically reduces to x^3, duplicating the second relator
    assert [r.letters for r in p.relators] == [(1, 1, 1)]


def test_marking_is_declaration_order():
    p1 = parse_presentation("gens: x y\nrels: x^2")
    p2 = parse_presentation("gens: y x\nrels: x^2")
    assert p1.relators[0].letters == (1, 1)
    assert p2.relators[0].letters == (2, 2)


def test_round_trip(z2, d3):
    for p in (z2, d3, parse_presentation("gens: a\nrels: a^5")):
        again = parse_presentation(p.to_text())
        assert again.gen_names == p.gen_names
        assert again.relators == p.relators


def test_max_relator_length_examples(z2, d3):
    assert max_relator_length(z2) == 4
    assert max_relator_length(d3) == 6
    assert max_relator_length(parse_presentation("gens: a\nrels: a^5")) == 5
    # independent recomputation
    assert max_relator_length(d3) == max(len(r.letters) for r in d3.relators)


def test_word_grammar_variants():
    names = ("x", "y")
    assert parse_word("xyXY", names).letters == (1, 2, -1, -2)
    assert parse_word("(x y)^2", names).letters == (1, 2, 1, 2)
    assert parse_word("(x y)^-1", names).letters == (-2, -1)
    assert parse_word("x^-1", names) == parse_word("X", names)
    assert parse_word("[x, y]", names).letters == (1, 2, -1, -2)
    assert parse_word("1", names).letters == ()
    long_names = ("alpha", "beta")
    assert parse_word("alpha beta^-2", long_names).letters == (1, -2, -2)


def test_word_grammar_rejects_unknowns():
    with pytest.raises(PresentationSyntaxError):
        parse_word("z", ("x", "y"))
    with pytest.raises(PresentationSyntaxError):
        parse_word("x^", ("x", "y"))
    with pytest.raises(PresentationSyntaxError):
        parse_word("(x", ("x", "y"))


# 2^63 = 2 * 2^62 letters is past any list index on a 64-bit build, and
# 2 * (2^62 - 1) is past the address space: Python refuses both before it
# allocates anything, as it does a count of 10^20 even for the empty word.
# offset: the 0-based offset of the exponent, reported as the 1-based column offset + 1
@pytest.mark.parametrize("text, offset", [
    ("x^99999999999999999999", 2),
    ("y x^-99999999999999999999", 4),
    ("(x y)^4611686018427387904", 6),
    ("(x y)^4611686018427387903", 6),
    ("1^99999999999999999999", 2),
])
def test_power_too_large_to_expand_is_a_syntax_error(text, offset):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_word(text, ("x", "y"))
    assert (err.value.line, err.value.column) == (1, offset + 1)
    assert str(err.value).endswith("exponent too large to expand")


def test_relator_power_too_large_to_expand_is_a_syntax_error():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("gens: x\nrels: x^99999999999999999999")
    assert (err.value.line, err.value.column) == (2, 9)


def test_symmetrize_single_power():
    p = parse_presentation("gens: a\nrels: a^3")
    moves = symmetrize(p)
    assert {mv for mv, *_ in moves} == {(1, 1, 1), (-1, -1, -1)}


def test_symmetrize_commutator_has_eight_moves(z2):
    # independent enumeration: 4 rotations of the commutator, 4 of its inverse
    comm = (1, 2, -1, -2)
    expected = set()
    for base in (comm, invert_letters(comm)):
        for t in range(4):
            expected.add(base[t:] + base[:t])
    moves = symmetrize(z2)
    assert {mv for mv, *_ in moves} == expected
    assert len(moves) == 8


def test_symmetrize_involution():
    p = parse_presentation("gens: a b\nrels: a^2")
    moves = symmetrize(p)
    assert {mv for mv, *_ in moves} == {(1, 1), (-1, -1)}


def test_symmetrize_closure_and_origin(d3):
    sym = symmetrize(d3)
    moves = {mv for mv, *_ in sym}
    for mv in moves:
        assert invert_letters(mv) in moves
        for t in range(len(mv)):
            assert mv[t:] + mv[:t] in moves
    assert len(sym) <= sum(2 * len(r) for r in d3.relators)
    for move, idx, sign, rot in sym:
        rho = d3.relators[idx].letters
        rho = rho if sign == 1 else invert_letters(rho)
        assert rho[rot:] + rho[:rot] == move


def test_presentation_constructor_validation():
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())
    with pytest.raises(ValueError):
        Presentation(("x",), (make_word(1, (1, 1)), make_word(1, (1, 1))))
    with pytest.raises(ValueError):
        Presentation((), ())


def test_presentation_file_may_start_with_a_byte_order_mark(tmp_path):
    text = b"gens: x y\nrels: [x,y]; x^2\n"
    (tmp_path / "plain.pres").write_bytes(text)
    (tmp_path / "bom.pres").write_bytes(b"\xef\xbb\xbf" + text)
    assert read_presentation(tmp_path / "bom.pres") == read_presentation(tmp_path / "plain.pres")

import itertools
import re
from functools import reduce

import pytest

from markedgroups.area import Caps
from markedgroups.coset import coset_enumerate
from markedgroups.oracles import (
    AbelianOracle,
    BoundedDerivationOracle,
    CosetLimitExceeded,
    CosetTableOracle,
    ProductOracle,
    RewritingOracle,
    UnknownVerdictError,
    build_oracle,
)
from markedgroups.presentations import parse_presentation, parse_word
from markedgroups.space import rel_ball
from markedgroups.words import ball_size, enumerate_ball, make_word, shell


def involution_rules(ngens):
    """x^-1 -> x and xx -> 1 for every generator: the rule system behind RewritingOracle."""
    return [((-j,), (j,)) for j in range(1, ngens + 1)] + [((j, j), ()) for j in range(1, ngens + 1)]


def leftmost_first(rules):
    """The rewriter that applies the first matching rule at its leftmost match until none does.

    Letters are encoded one character each, so str.find does the matching.
    """
    def encode(letters):
        return "".join(chr(ord("m") + x) for x in letters)

    encoded = [(encode(lhs), encode(rhs)) for lhs, rhs in rules]

    def rewrite(word):
        text = encode(word)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in encoded:
                i = text.find(lhs)
                if i >= 0:
                    text = text[:i] + rhs + text[i + len(lhs):]
                    changed = True
                    break
        return tuple(ord(c) - ord("m") for c in text)

    return rewrite


def verdict(oracle, w):
    """The oracle's answer on ``w``, None when it raises UnknownVerdictError."""
    try:
        return oracle.decide(w)
    except UnknownVerdictError:
        return None


# abelian oracle

def test_abelian_examples():
    comm = make_word(2, (1, 2, -1, -2))
    assert AbelianOracle((0, 0)).decide(comm)
    assert AbelianOracle((0, 5)).decide(make_word(2, (2,) * 5))
    assert not AbelianOracle((0, 5)).decide(make_word(2, (1, 2, 2, 2, 2, 2)))


def test_abelian_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        AbelianOracle((0,)).decide(make_word(2, (1,)))
    with pytest.raises(ValueError):
        build_oracle("abelian:1", parse_presentation("gens: x\nrels:"))


# coset enumeration

def test_z5_enumeration_and_cross_check():
    p = parse_presentation("gens: a\nrels: a^5")
    table = coset_enumerate(p, 100)
    assert table.cosets == 5 and table.is_regular()
    # cross-check against the exponent-sum oracle on all words of length <= 6
    oracle, abelian = CosetTableOracle(table), AbelianOracle((5,))
    for w in enumerate_ball(1, 6):
        assert oracle.decide(w) == abelian.decide(w)


def test_d3_enumeration_against_normal_forms(d3):
    table = coset_enumerate(d3, 100)
    assert table.cosets == 6
    # brute-force the dihedral normal forms and verify closure under a, b;
    # the confluent system for D3 on positive letters is aa, bb -> 1 and
    # bab -> aba
    forms = {(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)}
    rules = [((1, 1), ()), ((2, 2), ()), ((2, 1, 2), (1, 2, 1))]
    nf = leftmost_first(rules)
    closure = {nf(f + (g,)) for f in forms for g in (1, 2)}
    assert closure == forms
    # and the table distinguishes exactly these six elements
    assert {reduce(table.act, f, 0) for f in forms} == set(range(6))


def test_infinite_group_overflows():
    p = parse_presentation("gens: x y\nrels: [x,y]; y^3")
    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(p, 100)


def test_enumeration_deterministic(d3):
    t1 = coset_enumerate(d3, 100)
    t2 = coset_enumerate(d3, 100)
    assert t1 == t2


def test_quaternion_order_eight():
    p = parse_presentation("gens: a b\nrels: a^4; a^2 b^-2; b^-1 a b a")
    table = coset_enumerate(p, 200)
    assert table.cosets == 8 and table.is_regular()


@pytest.mark.parametrize(
    "text,order",
    [
        ("gens: x y\nrels: x^3; y^2; (x y)^2", 6),     # S3
        ("gens: a b\nrels: a^3; b^3; (a b)^2", 12),    # A4
        ("gens: a b\nrels: a^4; b^2; (a b)^3", 24),    # S4
        ("gens: a b\nrels: a^2; b^2; [a,b]", 4),       # Klein four
        ("gens: a\nrels: a^10; a^15", 5),              # Z/gcd(10,15)
        # the next four reach both coincidence paths: a merge through the
        # image's inverse entry, and a coset that dies while its relators are scanned
        ("gens: a\nrels: a^3; a^2", 1),
        # a word is trivial iff its b exponent sum is 0 mod 3
        ("gens: a b\nrels: b^-1 a^2 b^-1 a b^-1 a^-1; a", 3),
        ("gens: a b\nrels: a b a^-1 b^-2; b a b^-1 a^-2", 1),
        ("gens: a b c\nrels: b^-1 a b a c; b a b c^2; c b^2", 2),
    ],
)
def test_known_group_orders(text, order):
    table = coset_enumerate(parse_presentation(text), 2000)
    assert table.cosets == order and table.is_regular()


# table decisions

def test_table_decide_examples(d3):
    table = coset_enumerate(d3, 100)
    assert CosetTableOracle(table).decide(parse_word("(a b)^3", d3.gen_names))
    assert not CosetTableOracle(table).decide(parse_word("a b", d3.gen_names))
    z5 = coset_enumerate(parse_presentation("gens: a\nrels: a^5"), 100)
    assert not CosetTableOracle(z5).decide(make_word(1, (1,) * 4))


def test_table_decide_every_relator(d3):
    table = coset_enumerate(d3, 100)
    for r in d3.relators:
        assert CosetTableOracle(table).decide(r)


def test_table_decide_requires_complete():
    p = parse_presentation("gens: x y\nrels: [x,y]; y^3")
    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(p, 50)


def test_coset_part_that_does_not_complete_names_the_whole_spec(z2):
    spec = "product:x=abelian:0;y=coset"
    with pytest.raises(CosetLimitExceeded) as err:
        build_oracle(spec, z2)
    assert str(err.value).startswith(f"oracle spec {spec!r}: coset enumeration reached max_cosets=10000")
    assert isinstance(err.value, ValueError)


# rewriting oracle

def test_dinf_rewriting_examples():
    oracle = RewritingOracle(2)
    assert oracle.spec == "rewriting:involutions"
    assert oracle.decide(make_word(2, (1, 2, 2, 1)))
    assert not oracle.decide(make_word(2, (1, 2, 1, 2)))
    assert oracle.decide(make_word(2, (1, 1)))


@pytest.mark.parametrize("ngens", [2, 3])
def test_stack_normal_form_matches_rule_system(ngens):
    # the folded state, the one-pass stack normal form, equals leftmost-first
    # rewriting under the involution rules on every reduced word of length <= 8
    oracle = RewritingOracle(ngens)
    rewrite = leftmost_first(involution_rules(ngens))
    count = 0
    for length in range(9):
        for letters in shell(ngens, length):
            assert reduce(oracle.step, letters, oracle.start(ngens)) == rewrite(letters), letters
            count += 1
    assert count == ball_size(ngens, 8)


def test_abab_normal_form_by_exhaustive_rewriting():
    # verify no rewrite sequence from abab reaches the empty string
    rules = involution_rules(2)
    seen = set()
    frontier = [(1, 2, 1, 2)]
    while frontier:
        s = frontier.pop()
        if s in seen:
            continue
        seen.add(s)
        for lhs, rhs in rules:
            for i in range(len(s) - len(lhs) + 1):
                if s[i:i + len(lhs)] == lhs:
                    frontier.append(s[:i] + rhs + s[i + len(lhs):])
    assert () not in seen
    assert (1, 2, 1, 2) in seen
    oracle = RewritingOracle(2)
    assert reduce(oracle.step, (1, 2, 1, 2), oracle.start(2)) == (1, 2, 1, 2)


def test_involution_rules_locally_confluent():
    # all critical pairs of overlapping left-hand sides resolve to a
    # common normal form; with termination this gives confluence
    rules = involution_rules(2)
    nf = leftmost_first(rules)
    for (l1, r1), (l2, r2) in itertools.product(rules, repeat=2):
        for k in range(1, min(len(l1), len(l2)) + 1):
            if l1[len(l1) - k:] == l2[:k]:  # suffix of l1 overlaps prefix of l2
                word = l1 + l2[k:]
                left = r1 + l2[k:]
                right = l1[:len(l1) - k] + r2
                assert nf(left) == nf(right), (l1, l2, word)
        for i in range(len(l1) - len(l2) + 1):  # l2 inside l1
            if l1[i:i + len(l2)] == l2:
                left = r1
                right = l1[:i] + r2 + l1[i + len(l2):]
                assert nf(left) == nf(right)


# bounded derivation

def test_bounded_derivation_examples(a3, z2):
    assert BoundedDerivationOracle(a3, Caps(12, 10**5)).decide(make_word(1, (1,) * 6)) is True
    oracle = BoundedDerivationOracle(a3, Caps(12, 10**5))
    with pytest.raises(UnknownVerdictError) as err:
        oracle.decide(make_word(1, (1,)))
    assert err.value.word == make_word(1, (1,)) and err.value.oracle is oracle
    assert BoundedDerivationOracle(z2, Caps(10, 10**6)).decide(parse_word("x y^2 x^-1 y^-2", z2.gen_names))



# dispatch and product oracles

def test_product_oracle_componentwise():
    p = parse_presentation("gens: x y\nrels: [x,y]; y^3")
    oracle = build_oracle("product:x=abelian:0;y=abelian:3", p)
    assert oracle.decide(parse_word("x y^3 x^-1", p.gen_names))
    assert not oracle.decide(parse_word("x y^3", p.gen_names))
    assert oracle.decide(make_word(2, ()))


def test_product_oracle_unsorted_partition_matches_abelian():
    # parts listed out of generator order: z,x then y
    p = parse_presentation("gens: x y z\nrels: [x,y]; [x,z]; [y,z]; x^4; y^3")
    split = build_oracle("product:z,x=abelian:0,4;y=abelian:3", p)
    full = AbelianOracle((4, 3, 0))
    for w in enumerate_ball(3, 5):
        assert split.decide(w) == full.decide(w), w


@pytest.mark.parametrize("spec, text", [
    ("product:x=derivation:8,50;y=abelian:0", "gens: x y\nrels: [x,y]; x^3"),
    ("product:z,x=abelian:0,4;y=abelian:3", "gens: x y z\nrels: [x,y]; [x,z]; [y,z]; x^4; y^3"),
])
def test_product_spec_names_generators_and_round_trips(spec, text):
    pres = parse_presentation(text)
    oracle = build_oracle(spec, pres)
    assert oracle.spec == spec
    assert build_oracle(oracle.spec, pres).spec == oracle.spec


def test_product_coset_part_sees_its_own_relators():
    # the x part is built against <x | x^3>, so its coset enumeration completes
    pres = parse_presentation("gens: x y\nrels: [x,y]; x^3")
    split = build_oracle("product:x=coset;y=abelian:0", pres)
    assert split.spec == "product:x=coset:10000;y=abelian:0"
    ball = rel_ball(pres, split, 6)
    assert ball == rel_ball(pres, build_oracle("abelian:3,0", pres), 6)
    assert len(ball.members) == 77


def test_product_with_a_derivation_part_is_false_true_or_unknown():
    # the derivation part proves x^3 from its own relator and nothing else
    pres = parse_presentation("gens: x y\nrels: [x,y]; x^3")
    oracle = build_oracle("product:x=derivation:8,50;y=abelian:0", pres)
    for w in enumerate_ball(2, 4):
        x_sum, y_sum = w.exponent_sum(1), w.exponent_sum(2)
        if y_sum != 0:
            assert oracle.decide(w) is False, w
        elif x_sum % 3 == 0:
            assert oracle.decide(w) is True, w
        else:
            with pytest.raises(UnknownVerdictError, match=re.escape(repr(oracle.spec))):
                oracle.decide(w)
    assert oracle.spec == "product:x=derivation:8,50;y=abelian:0"


def test_product_partition_validation():
    p = parse_presentation("gens: x y\nrels: [x,y]")
    with pytest.raises(ValueError):
        build_oracle("product:x=abelian:0", p)  # does not cover y
    with pytest.raises(ValueError, match=re.escape("oracle 'abelian:0,0' reads words on 2 generator(s), not 1")):
        ProductOracle(((AbelianOracle((0, 0)), (1,)), (AbelianOracle((0,)), (2,))), ("x", "y"))


def test_any_oracle_trivial_on_identity(a3, z2, d3, dinf):
    cases = [
        (a3, "abelian:3"),
        (z2, "abelian:0,0"),
        (d3, "coset:100"),
        (dinf, "rewriting:involutions"),
        (a3, "derivation:10,1000"),
    ]
    for pres, spec in cases:
        oracle = build_oracle(spec, pres)
        assert oracle.decide(make_word(pres.ngens, ()))


@pytest.mark.parametrize("text, spec, message", [
    ("gens: a b\nrels: a^2; b^2", "abelian:0,0", "oracle spec 'abelian:0,0' calls the relator a^2 nontrivial"),
    ("gens: a b c\nrels: a^2; b^2", "rewriting:involutions",
     "oracle spec 'rewriting:involutions': rewriting needs the relator c^2"),
    ("gens: a b\nrels: a^2; b^2; a b a^-1 b^-1", "rewriting:involutions",
     "oracle spec 'rewriting:involutions' calls the relator a b a^-1 b^-1 nontrivial"),
    # a part is checked against the relators on its own generators
    ("gens: a b\nrels: [a,b]; b^2", "product:a=rewriting:involutions;b=abelian:2",
     "oracle spec 'product:a=rewriting:involutions;b=abelian:2': rewriting needs the relator a^2"),
], ids=["abelian_on_involutions", "rewriting_missing_a_square", "rewriting_on_a_commutator",
        "rewriting_product_part_missing_a_square"])
def test_build_oracle_refuses_an_oracle_outside_its_domain(text, spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_oracle(spec, parse_presentation(text))


@pytest.mark.parametrize("text, spec", [
    ("gens: a b\nrels:", "abelian:0,0"),
    # caps below the length of x^3, so the x part cannot decide that relator
    ("gens: x y\nrels: [x,y]; x^3", "product:x=derivation:2,50;y=abelian:0"),
], ids=["no_relator_to_contradict", "unknown_part_verdict"])
def test_build_oracle_refuses_only_provable_contradictions(text, spec):
    pres = parse_presentation(text)
    oracle = build_oracle(spec, pres)
    assert {verdict(oracle, r) for r in pres.relators} <= {True, None}


def test_bounded_derivation_unknown_on_nontrivial(a3):
    oracle = build_oracle("derivation:8,1000", a3)
    with pytest.raises(UnknownVerdictError):
        oracle.decide(make_word(1, (1,)))


def test_free_oracle():
    p = parse_presentation("gens: x y\nrels:")
    oracle = build_oracle("free", p)
    assert oracle.decide(make_word(2, ()))
    assert not oracle.decide(make_word(2, (1,)))
    with pytest.raises(ValueError):
        build_oracle("free", parse_presentation("gens: x\nrels: x^2"))


# oracle agreement across deciders

def test_agreement_cyclic_members():
    for i in (3, 4, 5):
        p = parse_presentation(f"gens: x\nrels: x^{i}")
        oracle = CosetTableOracle(coset_enumerate(p, 100))
        abelian = AbelianOracle((i,))
        for w in enumerate_ball(1, 8):
            assert oracle.decide(w) == abelian.decide(w)


def test_agreement_zxz_members_abelian_vs_product():
    for i in (2, 3, 5):
        p = parse_presentation(f"gens: x y\nrels: [x,y]; y^{i}")
        full = build_oracle(f"abelian:0,{i}", p)
        split = build_oracle(f"product:x=abelian:0;y=abelian:{i}", p)
        for w in enumerate_ball(2, 8):
            assert full.decide(w) == split.decide(w)


def test_agreement_semidecider_never_contradicts(a3, d3, dinf):
    # the bounded search returns True or raises, never False, and whenever
    # it says trivial the exact oracle agrees; small node cap, since
    # nontrivial words always burn the full budget
    for pres, exact_spec in ((d3, "coset:100"), (dinf, "rewriting:involutions"), (a3, "abelian:3")):
        exact, semi = build_oracle(exact_spec, pres), build_oracle("derivation:8,300", pres)
        verdicts = {w: verdict(semi, w) for w in enumerate_ball(pres.ngens, 4)}
        assert set(verdicts.values()) == {True, None}
        assert all(exact.decide(w) for w, v in verdicts.items() if v)
        assert sum(v is True for v in verdicts.values()) > 1  # the bound is not vacuous

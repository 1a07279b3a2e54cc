import pickle
import random
import re

import pytest

from markedgroups.area import (
    AreaNotFound,
    Certificate,
    area_exact_small,
    area_search,
    compose_certificates,
    expand_certificate,
    verify_certificate,
)
from markedgroups.presentations import parse_presentation, parse_word
from markedgroups.words import conjugate, enumerate_ball, make_word


def rand_word(rng, ngens, max_len):
    letters = [rng.choice([s * j for j in range(1, ngens + 1) for s in (1, -1)])
               for _ in range(rng.randint(0, max_len))]
    return make_word(ngens, letters)


def rand_certificate(rng, pres, max_factors, conj_len):
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        factors.append((
            rand_word(rng, pres.ngens, conj_len),
            rng.randrange(len(pres.relators)),
            rng.choice((1, -1)),
        ))
    return Certificate(tuple(factors))


# area_search basics

def test_area_of_relator_is_one(a3, z2):
    assert area_search(a3, make_word(1, (1, 1, 1)), 10, 10**5).value == 1
    assert area_search(z2, parse_word("[x,y]", z2.gen_names), 12, 10**5).value == 1


def test_area_a6_is_two(a3):
    # lower bound: each conjugate of a^3 has exponent sum +-3, so a^6
    # needs at least two factors; the search must find exactly two
    result = area_search(a3, make_word(1, (1,) * 6), 12, 10**5)
    assert result.value == 2
    assert verify_certificate(a3, make_word(1, (1,) * 6), result.certificate)


def test_area_of_identity_is_zero(z2):
    result = area_search(z2, make_word(2, ()), 12, 10**5)
    assert result.value == 0 and result.certificate.size == 0


def test_area_not_found_on_nontrivial_word(a3):
    with pytest.raises(AreaNotFound):
        area_search(a3, make_word(1, (1,)), 9, 10**5)


def test_area_validates_inputs(a3):
    free = parse_presentation("gens: x\nrels:")
    with pytest.raises(ValueError):
        area_search(free, make_word(1, (1,)), 10, 100)
    with pytest.raises(ValueError):
        area_search(a3, make_word(1, (1, 1, 1, 1)), 3, 100)
    with pytest.raises(ValueError):
        area_search(a3, make_word(1, (1,)), 10, 0)


def test_node_cap_exhaustion_raises(d3):
    w = parse_word("a b a b^-1 a^-1 b^-1", d3.gen_names)
    with pytest.raises(AreaNotFound):
        area_search(d3, w, 12, 3)


def test_area_not_found_pickles_with_its_word(d3):
    # a pool worker's exception crosses back to the command by pickle
    w = parse_word("a b a b^-1 a^-1 b^-1", d3.gen_names)
    with pytest.raises(AreaNotFound) as info:
        area_search(d3, w, 12, 3)
    exc = info.value
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is AreaNotFound
    assert (back.word, back.caps, back.stats, str(back)) == (exc.word, exc.caps, exc.stats, str(exc))
    assert str(exc) == "no derivation of 'a b a b^-1 a^-1 b^-1' within caps (length 12, nodes 3); explored 3 states"


def test_node_cap_admits_the_identity_beyond_the_cap(a3):
    # a^6 -> a^3 -> "" keeps 3 words before the identity; the identity,
    # which ends the search, is admitted past the cap, a fourth word is not
    w = make_word(1, (1,) * 6)
    free = area_search(a3, w, 10, 10**5)
    at_cap = area_search(a3, w, 10, 3)
    assert (at_cap.value, at_cap.certificate) == (2, free.certificate)
    assert at_cap.stats.states_explored == 4
    with pytest.raises(AreaNotFound) as info:
        area_search(a3, w, 10, 2)
    assert info.value.stats.states_explored == 2


# verify_certificate

def test_verify_examples(a3):
    one = make_word(1, ())
    a3w = make_word(1, (1, 1, 1))
    assert verify_certificate(a3, a3w, Certificate(((one, 0, 1),)))
    cert = Certificate(((one, 0, 1), (a3w, 0, 1)))
    assert expand_certificate(a3, cert).letters == (1,) * 6
    assert verify_certificate(a3, make_word(1, (1,) * 6), cert)
    assert not verify_certificate(a3, a3w, Certificate(((one, 0, -1),)))


def test_verify_rejects_bad_indices(a3):
    with pytest.raises(ValueError):
        verify_certificate(a3, make_word(1, ()), Certificate(((make_word(1, ()), 5, 1),)))


def test_certificate_json_round_trip(z2):
    rng = random.Random(7)
    for _ in range(20):
        cert = rand_certificate(rng, z2, 3, 3)
        again = Certificate.from_json(z2, cert.to_json(z2))
        assert again == cert


@pytest.mark.parametrize("sign", ["plus", "", "+1", "minus"])
def test_certificate_from_json_rejects_an_unknown_sign(z2, sign):
    with pytest.raises(ValueError, match=re.escape(repr(sign))):
        Certificate.from_json(z2, [{"conjugator": "x", "relator": 0, "sign": sign}])


@pytest.mark.parametrize("data, entry", [
    ([{"conjugator": "x", "relator": 0}], "{'conjugator': 'x', 'relator': 0}"),
    ([{"conjugator": "x", "relator": None, "sign": "+"}], "'relator': None"),
    ({"conjugator": "x", "relator": 0, "sign": "+"}, "got dict"),
    (["x", "y"], "entry 'x'"),
    ([{"conjugator": 5, "relator": 0, "sign": "+"}], "'conjugator': 5"),
], ids=["no_sign", "relator_null", "not_a_list", "list_of_strings", "conjugator_not_a_string"])
def test_certificate_from_json_rejects_a_malformed_entry(z2, data, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        Certificate.from_json(z2, data)


# certificate soundness and round trip

def test_search_certificates_verify_everywhere(a3, z2, d3):
    for pres, radius in ((a3, 6), (z2, 4), (d3, 4)):
        from markedgroups.oracles import build_oracle

        spec = {1: "abelian:3", 2: "abelian:0,0"}[pres.ngens] if pres is not d3 else "coset:100"
        oracle = build_oracle(spec, pres)
        for w in enumerate_ball(pres.ngens, radius):
            if oracle.decide(w):
                result = area_search(pres, w, 12, 10**6)
                assert verify_certificate(pres, w, result.certificate)
                assert result.value == result.certificate.size


def test_random_round_trip_bound(a3, z2, d3):
    from markedgroups.presentations import max_relator_length

    rng = random.Random(11)
    for trial in range(45):
        pres = (a3, z2, d3)[trial % 3]
        cert = rand_certificate(rng, pres, 4, 3)
        w = expand_certificate(pres, cert)
        cap = max(len(w) + 2 * max_relator_length(pres), 8)
        result = area_search(pres, w, cap, 10**6)
        assert result.value <= cert.size
        assert verify_certificate(pres, w, result.certificate)


# agreement with the brute-force oracle

def test_oracle_agreement_small_words(a3, z2):
    from markedgroups.oracles import build_oracle

    for pres, spec in ((a3, "abelian:3"), (z2, "abelian:0,0")):
        oracle = build_oracle(spec, pres)
        for w in enumerate_ball(pres.ngens, 5):
            if oracle.decide(w):
                searched = area_search(pres, w, 12, 10**6).value
                assert searched == area_exact_small(pres, w, 4, 4)


def test_exact_small_examples(a3, z2):
    assert area_exact_small(a3, make_word(1, (1,) * 6), 3, 4) == 2
    assert area_exact_small(z2, parse_word("[x,y]", z2.gen_names), 2, 2) == 1
    assert area_exact_small(a3, make_word(1, (1,)), 3, 4) is None
    assert area_exact_small(a3, make_word(1, ()), 3, 4) == 0


# invariance properties

def test_symmetry_under_inversion_and_conjugation(d3):
    rng = random.Random(13)
    from markedgroups.oracles import build_oracle

    oracle = build_oracle("coset:100", d3)
    words = [w for w in enumerate_ball(2, 5) if oracle.decide(w) and len(w)]
    for w in words[:20]:
        base = area_search(d3, w, 12, 10**6).value
        assert area_search(d3, w.inverse(), 12, 10**6).value == base
        g = make_word(2, (rng.choice((1, -1, 2, -2)),))
        conj = conjugate(g, w)
        assert area_search(d3, conj, 14, 10**6).value == base


def test_cap_monotonicity(d3):
    w = parse_word("a b a b^-1 a^-1 b^-1", d3.gen_names)
    v1 = area_search(d3, w, 12, 10**6).value
    v2 = area_search(d3, w, 24, 10**6).value
    assert v2 <= v1


def test_determinism_including_stats(d3):
    w = parse_word("a b^-1 a b^-1 a b^-1", d3.gen_names)
    r1 = area_search(d3, w, 12, 10**6)
    r2 = area_search(d3, w, 12, 10**6)
    assert r1 == r2


def test_splice_matches_conjugate_factor_algebra(d3, z2):
    # splicing rot_t(rho) at position p of v multiplies v on the left by
    # (v[:p] * rho[:t]^-1) rho (...)^-1; certificate extraction inverts this
    from markedgroups.area import _splice
    from markedgroups.presentations import symmetrize
    from markedgroups.words import Word, free_reduce, invert_letters

    rng = random.Random(17)
    for pres in (d3, z2):
        moves = symmetrize(pres)
        for _ in range(60):
            v = rand_word(rng, pres.ngens, 8)
            move, idx, sign, rot = moves[rng.randrange(len(moves))]
            pos = rng.randint(0, len(v))
            spliced = Word(pres.ngens, _splice(v.letters[:pos], move, v.letters[pos:]))
            rho = pres.relators[idx].letters if sign == 1 else invert_letters(pres.relators[idx].letters)
            conj = Word(pres.ngens, free_reduce(v.letters[:pos] + invert_letters(rho[:rot])))
            factor = conj * Word(pres.ngens, rho) * conj.inverse()
            assert factor * v == spliced


# certificate composition

def test_compose_identity_substitutions(z2):
    member = parse_presentation("gens: x y\nrels: [x,y]; y^3")
    cert = Certificate(((make_word(2, (1,)), 0, 1), (make_word(2, ()), 0, -1)))
    subs = {0: Certificate(((make_word(2, ()), 0, 1),))}
    composed = compose_certificates(z2, member, cert, subs)
    assert composed.size == cert.size
    assert expand_certificate(member, composed) == expand_certificate(z2, cert)


def test_compose_power_example():
    limit = parse_presentation("gens: x\nrels: x^4")
    member = parse_presentation("gens: x\nrels: x^2")
    w = make_word(1, (1,) * 8)
    cert = Certificate(((make_word(1, ()), 0, 1), (make_word(1, (1,) * 4), 0, 1)))
    assert verify_certificate(limit, w, cert)
    sub = Certificate(((make_word(1, ()), 0, 1), (make_word(1, (1, 1)), 0, 1)))
    assert verify_certificate(member, limit.relators[0], sub)
    composed = compose_certificates(limit, member, cert, {0: sub})
    assert composed.size == 4
    assert verify_certificate(member, w, composed)


def test_compose_missing_substitution(z2):
    member = parse_presentation("gens: x y\nrels: [x,y]; y^3")
    cert = Certificate(((make_word(2, ()), 0, 1),))
    with pytest.raises(ValueError):
        compose_certificates(z2, member, cert, {})


def test_compose_rejects_bad_substitute(z2):
    member = parse_presentation("gens: x y\nrels: [x,y]; y^3")
    cert = Certificate(((make_word(2, ()), 0, 1),))
    bad = Certificate(((make_word(2, ()), 1, 1),))  # expands to y^3, not [x,y]
    with pytest.raises(ValueError):
        compose_certificates(z2, member, cert, {0: bad})


def test_compose_randomized_sizes_and_verification(z2):
    rng = random.Random(19)
    member = parse_presentation("gens: x y\nrels: x^2; y^3; [x,y]")
    for _ in range(30):
        # build substitutes first, then define the limit relators as their
        # expansions, so each substitute certifies its relator by construction
        subs = {}
        relators = []
        attempts = 0
        while len(relators) < 2 and attempts < 200:
            attempts += 1
            cand = rand_certificate(rng, member, 3, 2)
            expanded = expand_certificate(member, cand)
            if expanded.letters and expanded.is_cyclically_reduced:
                if all(expanded.letters != r.letters for r in relators):
                    subs[len(relators)] = cand
                    relators.append(expanded)
        if len(relators) < 2:
            continue
        limit = parse_presentation("gens: x y\nrels:")
        from markedgroups.presentations import Presentation

        limit = Presentation(("x", "y"), tuple(relators))
        cert = rand_certificate(rng, limit, 3, 2)
        composed = compose_certificates(limit, member, cert, subs)
        assert composed.size == sum(subs[j].size for (_, j, _) in cert.factors)
        assert verify_certificate(member, expand_certificate(limit, cert), composed)

"""The ball walks of rel_ball, distance, dehn and quotient_check: decide order and errors."""

import pytest

from markedgroups.area import Caps
from markedgroups.dehn import dehn, quotient_check
from markedgroups.families import get_family
from markedgroups.oracles import Oracle, UnknownVerdictError, build_oracle
from markedgroups.presentations import parse_presentation
from markedgroups.space import distance, rel_ball
from markedgroups.words import ball_size, enumerate_ball, make_word

CAPS = Caps(12, 10**6)


class RecordingOracle(Oracle):
    """Wraps an oracle; logs (name, letters) per decide, raises UnknownVerdictError on one word."""

    def __init__(self, inner, name, log, unknown_on=None):
        self.inner, self.name, self.log, self.unknown_on = inner, name, log, unknown_on
        self.spec, self.soundness, self.ngens = inner.spec, inner.soundness, inner.ngens

    def decide(self, w):
        self.log.append((self.name, w.letters))
        if w.letters == self.unknown_on:
            raise UnknownVerdictError(w, self)
        return self.inner.decide(w)


def member(name, i):
    family = get_family(name)
    return family.member(i), family.limit()


def ball_letters(ngens, radius):
    return [w.letters for w in enumerate_ball(ngens, radius)]


@pytest.mark.parametrize("name,i,radius", [("dihedral", 4, 6), ("zxz", 3, 5)])
def test_rel_ball_decides_every_word_once_in_length_lex_order(name, i, radius):
    (pres, oracle), _ = member(name, i)
    log = []
    ball = rel_ball(pres, RecordingOracle(oracle, "o", log), radius)
    assert len(log) == ball_size(pres.ngens, radius)
    assert [letters for _, letters in log] == ball_letters(pres.ngens, radius)
    assert ball == rel_ball(pres, oracle, radius)


@pytest.mark.parametrize("name,i,n", [("dihedral", 4, 5), ("zxz", 3, 4)])
def test_dehn_decides_every_word_once_in_length_lex_order(name, i, n):
    (pres, oracle), _ = member(name, i)
    log = []
    value = dehn(pres, RecordingOracle(oracle, "o", log), n, CAPS)
    assert [letters for _, letters in log] == ball_letters(pres.ngens, n)
    assert value == dehn(pres, oracle, n, CAPS)


def test_distance_at_most_asks_oracle1_then_oracle2_on_every_word():
    (pres, oracle), _ = member("zxz", 3)
    log = []
    d = distance(pres, RecordingOracle(oracle, "o1", log), pres, RecordingOracle(oracle, "o2", log), 5)
    assert d.kind == "at_most" and d.lam == 5
    expected = [(name, letters) for letters in ball_letters(2, 5) for name in ("o1", "o2")]
    assert log == expected
    assert len(log) == 2 * ball_size(2, 5)


def test_distance_exact_stops_at_the_first_differing_word():
    (pres, oracle), (limit_pres, limit_oracle) = member("dihedral", 4)
    log = []
    d = distance(pres, RecordingOracle(oracle, "o1", log), limit_pres,
                 RecordingOracle(limit_oracle, "o2", log), 12)
    assert d.kind == "exact" and d.lam == 7  # (a b)^4 is the first relation the limit lacks
    words = ball_letters(2, 8)
    stop = next(k for k, letters in enumerate(words)
                if oracle.decide(make_word(2, letters))
                != limit_oracle.decide(make_word(2, letters)))
    assert log == [(name, letters) for letters in words[:stop + 1] for name in ("o1", "o2")]
    assert log[-1][1] == (1, 2, 1, 2, 1, 2, 1, 2)


@pytest.mark.parametrize("walk", ["rel_ball", "dehn", "distance1", "distance2"])
def test_unknown_verdict_raises_at_the_first_undecided_word(walk):
    # the 24th word of the ball, of length 3, is the one left undecided
    (pres, oracle), _ = member("dihedral", 5)
    target = ball_letters(2, 4)[23]
    log = []
    one = RecordingOracle(oracle, "o1", log, unknown_on=target if walk != "distance2" else None)
    two = RecordingOracle(oracle, "o2", log, unknown_on=target if walk == "distance2" else None)
    with pytest.raises(UnknownVerdictError) as err:
        if walk == "rel_ball":
            rel_ball(pres, one, 6)
        elif walk == "dehn":
            dehn(pres, one, 6, CAPS)
        else:
            distance(pres, one, pres, two, 6)
    assert err.value.word == make_word(2, target)
    assert err.value.oracle is (two if walk == "distance2" else one)
    assert log[-1] == ("o2" if walk == "distance2" else "o1", target)
    assert [letters for name, letters in log if name == "o1"] == ball_letters(2, 4)[:24]


def test_unknown_verdict_of_a_semidecider_names_the_first_nontrivial_word(a3):
    oracle = build_oracle("derivation:8,50", a3)
    for call in (lambda: rel_ball(a3, oracle, 4), lambda: dehn(a3, oracle, 4, CAPS),
                 lambda: distance(a3, build_oracle("abelian:3", a3), a3, oracle, 4)):
        with pytest.raises(UnknownVerdictError) as err:
            call()
        assert err.value.word == make_word(1, (1,)) and err.value.oracle is oracle


def test_quotient_check_asks_relators_in_order_and_stops_early():
    limit = parse_presentation("gens: a b\nrels: a^2; (a b)^3; b^2")
    d3 = build_oracle("coset", parse_presentation("gens: a b\nrels: a^2; b^2; (a b)^3"))
    d6 = build_oracle("coset", parse_presentation("gens: a b\nrels: a^2; b^2; (a b)^6"))
    relators = [r.letters for r in limit.relators]
    log = []
    assert quotient_check(limit, RecordingOracle(d3, "m", log))
    assert log == [("m", r) for r in relators]
    log.clear()
    assert not quotient_check(limit, RecordingOracle(d6, "m", log))
    assert log == [("m", r) for r in relators[:2]]
    log.clear()
    with pytest.raises(UnknownVerdictError) as err:
        quotient_check(limit, RecordingOracle(d3, "m", log, unknown_on=relators[1]))
    assert err.value.word == limit.relators[1]
    assert log == [("m", r) for r in relators[:2]]

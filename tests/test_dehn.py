import json
import multiprocessing

import pytest

from markedgroups.area import Caps, area_exact_small
from markedgroups.dehn import (
    DehnComputationError,
    DehnValue,
    compute_K,
    corollary_check,
    dehn,
    quotient_check,
    theorem_check,
    verify_family,
    worker_pool,
)
from markedgroups.families import builtin_families
from markedgroups.oracles import UnknownVerdictError, build_oracle
from markedgroups.presentations import parse_presentation
from markedgroups.words import make_word

CAPS = Caps(14, 10**6)


def fam(name):
    return next(f for f in builtin_families() if f.name == name)


# dehn values

def test_dehn_below_shortest_relation(a3):
    value = dehn(a3, build_oracle("abelian:3", a3), 2, CAPS)
    assert value.value == 0 and value.exact and value.witnesses == ()


def test_dehn_a3_at_7(a3):
    value = dehn(a3, build_oracle("abelian:3", a3), 7, CAPS)
    assert value.value == 2
    assert make_word(1, (1,) * 6) in value.witnesses
    # cross-check the witness area against the brute-force oracle
    assert area_exact_small(a3, make_word(1, (1,) * 6), 4, 4) == 2


def test_dehn_z2_at_4(z2):
    value = dehn(z2, build_oracle("abelian:0,0", z2), 4, CAPS)
    assert value.value == 1
    assert len(value.witnesses) == 8
    for w in value.witnesses:
        assert area_exact_small(z2, w, 2, 2) == 1


def test_dehn_free_group_is_zero():
    p = parse_presentation("gens: x y\nrels:")
    for n in (0, 3, 6):
        value = dehn(p, build_oracle("free", p), n, CAPS)
        assert value.value == 0 and value.exact


@pytest.mark.parametrize("i", [3, 4, 5])
def test_dehn_cyclic_floor_formula(i):
    p = parse_presentation(f"gens: a\nrels: a^{i}")
    oracle = build_oracle(f"abelian:{i}", p)
    for n in range(0, 11):
        value = dehn(p, oracle, n, CAPS)
        assert value.value == n // i, (i, n)
        assert value.exact


def test_dehn_monotone_in_n(d3):
    oracle = build_oracle("coset:100", d3)
    values = [dehn(d3, oracle, n, Caps(12, 10**6)).value for n in range(0, 7)]
    assert values == sorted(values)


def test_dehn_witness_validity(d3):
    oracle = build_oracle("coset:100", d3)
    value = dehn(d3, oracle, 6, Caps(12, 10**6))
    from markedgroups.area import area_search

    for w in value.witnesses:
        assert oracle.decide(w).is_trivial
        assert area_search(d3, w, 12, 10**6).value == value.value


def test_dehn_rejects_unknown_oracle(a3):
    with pytest.raises(UnknownVerdictError):
        dehn(a3, build_oracle("derivation:8,50", a3), 4, CAPS)


def test_dehn_caps_too_small_reports_word(a3):
    with pytest.raises(DehnComputationError) as err:
        dehn(a3, build_oracle("abelian:3", a3), 9, Caps(9, 1))
    assert err.value.word is not None


def test_dehn_workers_match_serial(z2):
    oracle = build_oracle("abelian:0,0", z2)
    serial = dehn(z2, oracle, 4, CAPS, workers=1)
    parallel = dehn(z2, oracle, 4, CAPS, workers=2)
    assert serial == parallel


def test_dehn_json_fields(z2):
    value = dehn(z2, build_oracle("abelian:0,0", z2), 4, CAPS)
    data = value.to_json(z2)
    assert list(data) == ["n", "value", "exact", "witnesses"]
    json.dumps(data)


# quotient checks

def test_quotient_check_examples(z2, dinf):
    member = parse_presentation("gens: x y\nrels: [x,y]; y^5")
    assert quotient_check(z2, build_oracle("abelian:0,5", member))
    d3 = parse_presentation("gens: a b\nrels: a^2; b^2; (a b)^3")
    assert quotient_check(dinf, build_oracle("coset:100", d3))
    a5 = parse_presentation("gens: a\nrels: a^5")
    assert not quotient_check(a5, build_oracle("abelian:0", parse_presentation("gens: a\nrels:")))


# K computation

def test_compute_K_subset_case(z2):
    member = parse_presentation("gens: x y\nrels: [x,y]; y^5")
    assert compute_K(z2, member, CAPS) == (1, True)


def test_compute_K_power_case():
    limit = parse_presentation("gens: a\nrels: a^4")
    member = parse_presentation("gens: a\nrels: a^2")
    value, exact = compute_K(limit, member, CAPS)
    assert value == 2 and exact


# theorem harness

def test_theorem_zxz_i5_n4():
    report = theorem_check(fam("zxz"), 5, 4, CAPS)
    assert report.ball_agreement == 4
    assert report.delta_i_n == (1, True)
    assert report.delta_n == (1, True)
    assert report.K_i == (1, True)
    assert report.delta_i_L == (1, True)
    assert report.L == 4
    assert str(report.ratio) == "1"
    assert report.inequality_star_ok and report.k_le_delta_L_ok and report.ratio_le_delta_ok
    assert report.applicable and report.all_pass


def test_theorem_dihedral_i4_n3():
    report = theorem_check(fam("dihedral"), 4, 3, Caps(12, 10**6))
    assert report.L == 2
    assert report.ball_agreement == 3  # shortest member-only relation has length 8
    assert report.K_i == (1, True)
    assert report.all_pass


def test_theorem_applicability_gates_star():
    # i=3 at n=4: y^3 separates the balls at radius 3, nothing is asserted
    report = theorem_check(fam("zxz"), 3, 4, CAPS)
    assert report.ball_agreement == 2
    assert not report.applicable
    assert report.all_pass  # informational rows cannot fail the gate


@pytest.mark.parametrize("i", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 4])
def test_theorem_zxz_grid_passes(i, n):
    report = theorem_check(fam("zxz"), i, n, CAPS)
    if report.applicable:
        assert report.inequality_star_ok
        assert report.ratio_le_delta_ok in (True, None)
    assert report.k_le_delta_L_ok
    assert report.all_pass


def test_theorem_refuses_free_limit():
    with pytest.raises(ValueError):
        theorem_check(fam("cyclicZ"), 3, 2, CAPS)


def test_theorem_tight_ratio_cases():
    # the ratio bound saturates once delta values exceed 1
    report = theorem_check(fam("zxz"), 7, 6, CAPS)
    assert report.applicable
    assert report.delta_i_n == (2, True) and report.delta_n == (2, True)
    assert report.delta_i_L == (1, True)
    assert str(report.ratio) == "2"
    assert report.ratio_le_delta_ok and report.inequality_star_ok
    report = theorem_check(fam("dihedral"), 3, 4, Caps(12, 10**6))
    assert report.applicable
    assert report.delta_i_n == (2, True) and report.delta_n == (2, True)
    assert str(report.ratio) == "2"
    assert report.all_pass


def test_dehn_witness_cap():
    z2 = parse_presentation("gens: x y\nrels: [x,y]")
    value = dehn(z2, build_oracle("abelian:0,0", z2), 4, CAPS, max_witnesses=3)
    assert value.value == 1 and len(value.witnesses) == 3


def test_theorem_json_fields():
    report = theorem_check(fam("zxz"), 5, 4, CAPS)
    data = report.to_json()
    assert list(data) == [
        "i", "n", "ball_agreement", "delta_i_n", "delta_n", "K_i",
        "delta_i_L", "L", "ratio", "inequality_star_ok",
        "k_le_delta_L_ok", "ratio_le_delta_ok",
    ]
    assert data["ratio"] == "1/1"
    json.dumps(data)


# corollary

def test_corollary_zxz():
    report = corollary_check(fam("zxz"), (3, 4, 5), 4, CAPS)
    assert report.M == 1
    assert report.all_pass
    included = [row for row in report.rows if row["included"]]
    excluded = [row for row in report.rows if not row["included"]]
    assert [row["i"] for row in excluded] == [3, 4]  # balls differ before 4
    for row in included:
        assert row["delta_i_n"]["value"] <= report.M * report.delta_n[0]
        assert row["bound_ok"]
    for row in excluded:
        assert row["bound_ok"] is None


def test_corollary_single_member_matches_theorem():
    corollary = corollary_check(fam("dihedral"), (4,), 3, Caps(12, 10**6))
    theorem = theorem_check(fam("dihedral"), 4, 3, Caps(12, 10**6))
    row = corollary.rows[0]
    assert row["delta_i_n"]["value"] == theorem.delta_i_n[0]
    assert corollary.M == theorem.delta_i_L[0]
    assert theorem.K_i[0] <= corollary.M


# worker pools

def test_dehn_alone_opens_its_own_pool_only_for_searches(z2, opened_pools):
    oracle = build_oracle("abelian:0,0", z2)
    assert dehn(z2, oracle, 3, CAPS, workers=2) == DehnValue(3, 0, True, ())
    assert opened_pools == []
    assert dehn(z2, oracle, 4, CAPS, workers=2) == dehn(z2, oracle, 4, CAPS)
    assert len(opened_pools) == 1


def test_dehn_uses_the_callers_pool(z2, opened_pools):
    oracle = build_oracle("abelian:0,0", z2)
    with worker_pool(2) as pool:
        tables = [dehn(z2, oracle, n, CAPS, workers=2, pool=pool) for n in (4, 6)]
        assert multiprocessing.active_children() != []
    assert tables == [dehn(z2, oracle, n, CAPS) for n in (4, 6)]
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1), (3, 1)])
def test_verify_family_opens_at_most_one_pool(workers, pools, opened_pools):
    serial = verify_family(fam("zxz"), (3, 4, 5, 6), (2, 4), CAPS)
    assert opened_pools == []
    assert verify_family(fam("zxz"), (3, 4, 5, 6), (2, 4), CAPS, workers=workers) == serial
    assert len(opened_pools) == pools
    assert multiprocessing.active_children() == []


def test_verify_family_reads_each_agreement_off_one_scan():
    # zxz member 4 agrees with the limit through radius 3
    reports, _ = verify_family(fam("zxz"), (4,), (2, 4, 6), CAPS)
    assert [r.ball_agreement for r in reports] == [2, 3, 3]
    assert [r.applicable for r in reports] == [True, False, False]

import importlib
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from markedgroups.area import Caps, area_exact_small, area_search
from markedgroups.dehn import (
    MAX_WITNESSES,
    DehnComputationError,
    DehnValue,
    TheoremReport,
    WorkerDied,
    _area_value,
    _orbits,
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
from markedgroups.space import trivial_letters
from markedgroups.words import letters_key, make_word

CAPS = Caps(14, 10**6)


def fam(name):
    return next(f for f in builtin_families() if f.name == name)


# dehn values

def test_dehn_below_shortest_relation(a3):
    value = dehn(a3, build_oracle("abelian:3", a3), 2, CAPS).at(2)
    assert value.value == 0 and value.witnesses == ()


def test_dehn_a3_at_7(a3):
    value = dehn(a3, build_oracle("abelian:3", a3), 7, CAPS).at(7)
    assert value.value == 2
    assert make_word(1, (1,) * 6) in value.witnesses
    # cross-check the witness area against the brute-force oracle
    assert area_exact_small(a3, make_word(1, (1,) * 6), 4, 4) == 2


def test_dehn_z2_at_4(z2):
    value = dehn(z2, build_oracle("abelian:0,0", z2), 4, CAPS).at(4)
    assert value.value == 1
    assert len(value.witnesses) == 8
    for w in value.witnesses:
        assert area_exact_small(z2, w, 2, 2) == 1


def test_dehn_free_group_is_zero():
    p = parse_presentation("gens: x y\nrels:")
    table = dehn(p, build_oracle("free", p), 6, CAPS)
    for n in (0, 3, 6):
        assert table.at(n).value == 0


@pytest.mark.parametrize("i", [3, 4, 5])
def test_dehn_cyclic_floor_formula(i):
    p = parse_presentation(f"gens: a\nrels: a^{i}")
    oracle = build_oracle(f"abelian:{i}", p)
    table = dehn(p, oracle, 10, CAPS)
    for n in range(0, 11):
        value = table.at(n)
        assert value.value == n // i, (i, n)
        assert value.to_json(p)["exact"] is True


def test_dehn_monotone_in_n(d3):
    oracle = build_oracle("coset:100", d3)
    table = dehn(d3, oracle, 6, Caps(12, 10**6))
    values = [table.at(n).value for n in range(0, 7)]
    assert values == sorted(values)


def test_dehn_witness_validity(d3):
    oracle = build_oracle("coset:100", d3)
    value = dehn(d3, oracle, 6, Caps(12, 10**6)).at(6)
    from markedgroups.area import area_search

    for w in value.witnesses:
        assert oracle.decide(w)
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
    serial = dehn(z2, oracle, 4, CAPS)
    with worker_pool(2) as fan_out:
        parallel = dehn(z2, oracle, 4, CAPS, fan_out)
    assert serial == parallel


def test_dehn_json_fields(z2):
    value = dehn(z2, build_oracle("abelian:0,0", z2), 4, CAPS).at(4)
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
    assert compute_K(z2, member, CAPS) == 1


def test_compute_K_power_case():
    limit = parse_presentation("gens: a\nrels: a^4")
    member = parse_presentation("gens: a\nrels: a^2")
    assert compute_K(limit, member, CAPS) == 2


# theorem harness

def test_theorem_zxz_i5_n4():
    report = theorem_check(fam("zxz"), 5, 4, CAPS)
    assert report.ball_agreement == 4
    assert report.delta_i_n == 1
    assert report.delta_n == 1
    assert report.K_i == 1
    assert report.delta_i_L == 1
    assert report.L == 4
    assert report.ratio == "1/1"
    assert report.inequality_star_ok and report.k_le_delta_L_ok and report.ratio_le_delta_ok
    assert report.applicable and report.all_pass


def test_theorem_dihedral_i4_n3():
    report = theorem_check(fam("dihedral"), 4, 3, Caps(12, 10**6))
    assert report.L == 2
    assert report.ball_agreement == 3  # shortest member-only relation has length 8
    assert report.K_i == 1
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
    assert report.delta_i_n == 2 and report.delta_n == 2
    assert report.delta_i_L == 1
    assert report.ratio == "2/1"
    assert report.ratio_le_delta_ok and report.inequality_star_ok
    report = theorem_check(fam("dihedral"), 3, 4, Caps(12, 10**6))
    assert report.applicable
    assert report.delta_i_n == 2 and report.delta_n == 2
    assert report.ratio == "2/1"
    assert report.all_pass


def test_dehn_witness_cap(z2, monkeypatch):
    # Z^2 has 16 trivial words of maximal area at n = 8; the table lists the first 8
    oracle, caps = build_oracle("abelian:0,0", z2), Caps(16, 10**6)
    value = dehn(z2, oracle, 8, caps).at(8)
    monkeypatch.setattr(importlib.import_module("markedgroups.dehn"), "MAX_WITNESSES", 100)
    every = dehn(z2, oracle, 8, caps).at(8)
    assert MAX_WITNESSES == 8 and len(every.witnesses) == 16
    assert value == DehnValue(8, every.value, every.witnesses[:8])


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


# the release gate, on reports built from their integers

def gate_report(ball_agreement, delta_i_n, delta_n, K_i, delta_i_L):
    return TheoremReport(i=5, n=4, ball_agreement=ball_agreement, delta_i_n=delta_i_n,
                         delta_n=delta_n, K_i=K_i, delta_i_L=delta_i_L, L=4)


@pytest.mark.parametrize("ball_agreement, applicable", [(4, True), (2, False)])
def test_failed_star_fails_the_gate_only_when_applicable(ball_agreement, applicable):
    report = gate_report(ball_agreement, delta_i_n=3, delta_n=1, K_i=1, delta_i_L=3)
    assert report.inequality_star_ok is False
    assert report.k_le_delta_L_ok is True and report.ratio_le_delta_ok is True
    assert report.applicable is applicable
    assert report.all_pass is not applicable


@pytest.mark.parametrize("ball_agreement", [4, 2])
def test_failed_k_bound_always_fails_the_gate(ball_agreement):
    report = gate_report(ball_agreement, delta_i_n=1, delta_n=1, K_i=2, delta_i_L=1)
    assert report.inequality_star_ok is True and report.ratio_le_delta_ok is True
    assert report.k_le_delta_L_ok is False
    assert report.all_pass is False


def test_zero_delta_L_leaves_ratio_and_verdict_c_open():
    report = gate_report(4, delta_i_n=0, delta_n=0, K_i=0, delta_i_L=0)
    assert report.ratio is None and report.ratio_le_delta_ok is None
    assert report.to_json()["ratio"] is None
    assert report.all_pass


# corollary

def test_corollary_zxz():
    report = corollary_check(fam("zxz"), (3, 4, 5), 4, CAPS)
    assert report.M == 1
    assert report.all_pass
    included = [row for row in report.rows if row["included"]]
    excluded = [row for row in report.rows if not row["included"]]
    assert [row["i"] for row in excluded] == [3, 4]  # balls differ before 4
    for row in included:
        assert row["delta_i_n"]["value"] <= report.M * report.delta_n
        assert row["bound_ok"]
    for row in excluded:
        assert row["bound_ok"] is None


def test_corollary_single_member_matches_theorem():
    corollary = corollary_check(fam("dihedral"), (4,), 3, Caps(12, 10**6))
    theorem = theorem_check(fam("dihedral"), 4, 3, Caps(12, 10**6))
    row = corollary.rows[0]
    assert row["delta_i_n"]["value"] == theorem.delta_i_n
    assert corollary.M == theorem.delta_i_L
    assert theorem.K_i <= corollary.M


# worker pools

def test_worker_pool_starts_processes_at_the_first_search(z2, opened_pools, pool_at_once):
    oracle = build_oracle("abelian:0,0", z2)
    with worker_pool(1) as fan_out:
        assert fan_out is map
    assert opened_pools == []
    with worker_pool(2) as fan_out:
        assert dehn(z2, oracle, 3, CAPS, fan_out).at(3) == DehnValue(3, 0, ())
        assert multiprocessing.active_children() == []
        assert dehn(z2, oracle, 4, CAPS, fan_out) == dehn(z2, oracle, 4, CAPS)
        assert multiprocessing.active_children() != []
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []


def test_dehn_uses_the_callers_pool(z2, opened_pools, pool_at_once):
    oracle = build_oracle("abelian:0,0", z2)
    with worker_pool(2) as fan_out:
        tables = [dehn(z2, oracle, n, CAPS, fan_out) for n in (4, 6)]
        assert multiprocessing.active_children() != []
    assert tables == [dehn(z2, oracle, n, CAPS) for n in (4, 6)]
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []


def _exit_worker(item):
    """Kills the pool process that runs it."""
    os._exit(9)


def test_dead_worker_raises_worker_died(monkeypatch, pool_at_once):
    # two CPUs however many the machine has, so the map is the pool's, not the builtin one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(WorkerDied) as info:
        with worker_pool(2) as fan_out:
            fan_out(_exit_worker, [(1,), (2,)])
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert str(info.value) == str(info.value.__cause__)
    assert multiprocessing.active_children() == []


IN_PROCESS = []


def _recorded_search(pres, w, length_cap, node_cap):
    """area_search that records, in the process it runs in, the words it searches."""
    IN_PROCESS.append(w.letters)
    return area_search(pres, w, length_cap, node_cap)


def _prefix(states, budget):
    """How many searches run in process: up to the first whose states reach the budget."""
    return next((k for k in range(len(states) + 1) if sum(states[:k]) >= budget), len(states))


@pytest.mark.parametrize("budget", ["zero", "half", "default"])
@pytest.mark.parametrize("group", ["z2", "dihedral"])
def test_worker_pool_runs_searches_in_process_up_to_the_budget(group, budget, z2, monkeypatch, opened_pools):
    dehn_module = importlib.import_module("markedgroups.dehn")
    pres, oracle = (z2, build_oracle("abelian:0,0", z2)) if group == "z2" else fam("dihedral").member(5)
    # radii at which half the budget splits a table and the default budget fits one
    n = {"z2": 8, "dihedral": 6}[group]
    serial = dehn(pres, oracle, n, CAPS)
    reps, _ = _orbits(pres, sorted(filter(None, trivial_letters(oracle, pres.ngens, n)), key=letters_key))
    states = [_area_value(pres, CAPS, letters)[1] for letters in reps]
    limit = {"zero": 0, "half": sum(states) // 2, "default": dehn_module.POOL_STATES}[budget]
    monkeypatch.setattr(dehn_module, "POOL_STATES", limit)
    # under fork the pool workers record into their own copies of IN_PROCESS
    monkeypatch.setattr(dehn_module, "area_search", _recorded_search)
    IN_PROCESS.clear()
    with worker_pool(2) as fan_out:
        # two tables in one context share one count and one pool
        assert [dehn(pres, oracle, n, CAPS, fan_out) for _ in range(2)] == [serial, serial]
    first = _prefix(states, limit)
    second = _prefix(states, limit - sum(states[:first]))
    assert IN_PROCESS == reps[:first] + reps[:second]
    # one table fits in the default budget
    assert (budget == "default") == (first == len(reps))
    assert len(opened_pools) == (second < len(reps))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1), (3, 1)])
def test_verify_family_opens_at_most_one_pool(workers, pools, opened_pools, pool_at_once):
    serial = verify_family(fam("zxz"), (3, 4, 5, 6), (2, 4), CAPS)
    assert opened_pools == []
    with worker_pool(workers) as fan_out:
        assert verify_family(fam("zxz"), (3, 4, 5, 6), (2, 4), CAPS, fan_out) == serial
    assert len(opened_pools) == pools
    assert multiprocessing.active_children() == []


def test_verify_family_reads_each_agreement_off_one_scan():
    # zxz member 4 agrees with the limit through radius 3
    reports, _ = verify_family(fam("zxz"), (4,), (2, 4, 6), CAPS)
    assert [r.ball_agreement for r in reports] == [2, 3, 3]
    assert [r.applicable for r in reports] == [True, False, False]


def test_verify_family_computes_member_by_member_then_the_limit(monkeypatch):
    # the order the verify_family docstring states: a first failure is that of the first step to fail
    dehn_module = importlib.import_module("markedgroups.dehn")
    calls = []

    def record(name, label):
        fn = getattr(dehn_module, name)

        def wrapper(*args):
            calls.append((name, label(*args)))
            return fn(*args)

        monkeypatch.setattr(dehn_module, name, wrapper)

    record("quotient_check", lambda limit_pres, oracle: oracle.spec)
    record("distance", lambda pres, oracle, limit_pres, limit_oracle, lam: (oracle.spec, lam))
    record("dehn", lambda pres, oracle, n, caps, fan_out: (oracle.spec, n))
    record("compute_K", lambda limit_pres, pres, caps: pres.to_text())
    # zxz has L = 4; index 4 is repeated and computed once
    reports, _ = verify_family(fam("zxz"), (4, 3, 4), (3, 2), CAPS)
    assert calls == [
        ("quotient_check", "abelian:0,4"),
        ("distance", ("abelian:0,4", 3)),
        ("dehn", ("abelian:0,4", 4)),
        ("compute_K", "gens: x y\nrels: x y x^-1 y^-1; y^4\n"),
        ("quotient_check", "abelian:0,3"),
        ("distance", ("abelian:0,3", 3)),
        ("dehn", ("abelian:0,3", 4)),
        ("compute_K", "gens: x y\nrels: x y x^-1 y^-1; y^3\n"),
        ("dehn", ("abelian:0,0", 3)),
    ]
    assert [(r.n, r.i) for r in reports] == [(3, 4), (3, 3), (3, 4), (2, 4), (2, 3), (2, 4)]

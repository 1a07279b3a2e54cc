"""Acceptance suite: one test per release criterion, each with a runtime
budget, printing one pass/fail line per criterion (run with -s to see
them live)."""

import itertools
import json
import random
import time
from contextlib import contextmanager

from conftest import run_cli_subprocess

from markedgroups.area import (
    Certificate,
    area_exact_small,
    area_search,
    compose_certificates,
    expand_certificate,
    verify_certificate,
)
from markedgroups.dehn import Caps, corollary_check, dehn, theorem_check
from markedgroups.families import builtin_families
from markedgroups.oracles import build_oracle
from markedgroups.presentations import Presentation, parse_presentation
from markedgroups.space import distance, rel_ball
from markedgroups.words import ball_size, enumerate_ball, make_word


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    status = "PASS" if within else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s < {budget_seconds}s)")
    assert within, f"runtime {elapsed:.1f}s exceeded the {budget_seconds}s budget"


def fam(name):
    return next(f for f in builtin_families() if f.name == name)


def test_criterion_1_ball_counts():
    with criterion(1, "ball counts", 5):
        for radius in range(9):
            words = list(enumerate_ball(2, radius))
            assert len(words) == ball_size(2, radius)
            assert len({w.letters for w in words}) == len(words)
        assert ball_size(2, 2) == 17


def test_criterion_2_rel_ball_exactness():
    with criterion(2, "relation balls", 5):
        z2 = parse_presentation("gens: x y\nrels: [x,y]")
        ball = rel_ball(z2, build_oracle("abelian:0,0", z2), 4)
        assert len(ball.members) == 9
        for w in ball.members:
            assert w.inverse() in ball.members
        z5 = parse_presentation("gens: x\nrels: x^5")
        ball5 = rel_ball(z5, build_oracle("abelian:5", z5), 5)
        assert ball5.members == frozenset(
            {make_word(1, ()), make_word(1, (1,) * 5), make_word(1, (-1,) * 5)}
        )


def test_criterion_3_distances_and_ultrametric():
    with criterion(3, "distance values", 30):
        cyc = fam("cyclicZ")
        limit = cyc.limit()
        for i in range(3, 8):
            member = cyc.member(i)
            d = distance(*member, *limit, 10)
            assert (d.kind, d.lam) == ("exact", i - 1)
        d57 = distance(*cyc.member(5), *cyc.member(7), 10)
        assert (d57.kind, d57.lam) == ("exact", 4)
        dih = fam("dihedral")
        for i in (3, 4, 5):
            d = distance(*dih.member(i), *dih.limit(), 2 * i + 2)
            assert (d.kind, d.lam) == ("exact", 2 * i - 1)
        # ultrametric on every tested triple, per family
        for family, indices, lam_max in ((cyc, (3, 4, 5, 6, 7), 12), (dih, (3, 4, 5), 12)):
            groups = [family.member(i) for i in indices] + [family.limit()]
            lam = {}
            for a, b in itertools.combinations(range(len(groups)), 2):
                d = distance(*groups[a], *groups[b], lam_max)
                lam[(a, b)] = lam[(b, a)] = d.lam
            for a, b, c in itertools.permutations(range(len(groups)), 3):
                assert lam[(a, c)] >= min(lam[(a, b)], lam[(b, c)])


def test_criterion_4_area_oracle_agreement():
    with criterion(4, "area oracle agreement", 120):
        setups = [
            (parse_presentation("gens: a\nrels: a^3"), "abelian:3"),
            (parse_presentation("gens: x y\nrels: [x,y]"), "abelian:0,0"),
            (parse_presentation("gens: a b\nrels: a^2; b^2; (a b)^3"), "coset:100"),
        ]
        for pres, spec in setups:
            oracle = build_oracle(spec, pres)
            for w in enumerate_ball(pres.ngens, 6):
                if not oracle.decide(w):
                    continue
                result = area_search(pres, w, 12, 10**6)
                assert verify_certificate(pres, w, result.certificate)
                assert result.value == area_exact_small(pres, w, 4, 4), pres.word_str(w)


def test_criterion_5_dehn_tables():
    with criterion(5, "Dehn tables", 120):
        for i in (3, 4, 5):
            pres = parse_presentation(f"gens: a\nrels: a^{i}")
            oracle = build_oracle(f"abelian:{i}", pres)
            table = dehn(pres, oracle, 10, Caps(14, 10**6))
            for n in range(11):
                value = table.at(n)
                assert value.value == n // i
                assert value.to_json(pres)["exact"] is True
        z2 = parse_presentation("gens: x y\nrels: [x,y]")
        value = dehn(z2, build_oracle("abelian:0,0", z2), 4, Caps(12, 10**6)).at(4)
        assert value.value == 1


def test_criterion_6_theorem_harness():
    with criterion(6, "inequality harness", 300):
        caps = Caps(12, 10**6)
        for family, indices, radii in (
            (fam("zxz"), (3, 4, 5, 6), (2, 4)),
            (fam("dihedral"), (3, 4, 5), (2, 3)),
        ):
            limit_relators = {r.letters for r in family.limit_pres.relators}
            for i in indices:
                member_relators = {r.letters for r in family.member(i)[0].relators}
                subset = limit_relators <= member_relators
                for n in radii:
                    report = theorem_check(family, i, n, caps)
                    if report.ball_agreement >= n:
                        assert report.inequality_star_ok is True
                        assert report.k_le_delta_L_ok is True
                        assert report.ratio_le_delta_ok is True
                        data = report.to_json()
                        assert data["delta_i_n"]["exact"] is True and data["delta_n"]["exact"] is True
                    if subset:
                        assert report.K_i == 1
        # exit-code contract via the CLI
        code, _ = run_cli_subprocess(
            ["verify-theorem", "--family", "zxz", "--i", "3..6", "--n", "2,4"]
        )
        assert code == 0
        code, _ = run_cli_subprocess(
            ["verify-theorem", "--family", "dihedral", "--i", "3..5", "--n", "2,3"]
        )
        assert code == 0


def test_criterion_7_certificate_composition():
    with criterion(7, "certificate composition", 30):
        rng = random.Random(20240809)
        member = parse_presentation("gens: x y\nrels: x^2; y^3; [x,y]")
        alphabet = [s * j for j in (1, 2) for s in (1, -1)]

        def random_cert(max_factors, pres):
            factors = []
            for _ in range(rng.randint(1, max_factors)):
                u = make_word(2, [rng.choice(alphabet) for _ in range(rng.randint(0, 3))])
                factors.append((u, rng.randrange(len(pres.relators)), rng.choice((1, -1))))
            return Certificate(tuple(factors))

        checked = 0
        while checked < 100:
            subs = {}
            relators = []
            while len(relators) < 2:
                cand = random_cert(3, member)
                expanded = expand_certificate(member, cand)
                if expanded.letters and expanded.is_cyclically_reduced and all(
                    expanded.letters != r.letters for r in relators
                ):
                    subs[len(relators)] = cand
                    relators.append(expanded)
            limit = Presentation(("x", "y"), tuple(relators))
            cert = random_cert(3, limit)
            composed = compose_certificates(limit, member, cert, subs)
            assert composed.size == sum(subs[j].size for (_, j, _) in cert.factors)
            assert verify_certificate(member, expand_certificate(limit, cert), composed)
            checked += 1


def test_criterion_8_corollary_bound():
    with criterion(8, "corollary bound", 60):
        report = corollary_check(fam("zxz"), (3, 4, 5, 6), 4, Caps(12, 10**6))
        assert report.M == 1
        for row in report.rows:
            if row["included"]:
                assert row["delta_i_n"]["value"] <= report.M * report.delta_n
                assert row["bound_ok"] is True
        assert report.all_pass


def test_criterion_9_worker_determinism():
    with criterion(9, "worker determinism", 240):
        runs = [
            ["dehn", "--family", "zxz", "--i", "5", "--n", "2,4", "--format", "json"],
            ["dehn", "--family", "dihedral", "--i", "3", "--n", "4", "--format", "json"],
            ["verify-theorem", "--family", "zxz", "--i", "3..6", "--n", "2,4", "--format", "json"],
            ["verify-theorem", "--family", "dihedral", "--i", "3..5", "--n", "2,3", "--format", "json"],
        ]
        for argv in runs:
            code1, out1 = run_cli_subprocess(argv + ["--workers", "1"])
            code2, out2 = run_cli_subprocess(argv + ["--workers", "2"])
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
            json.loads(out1)

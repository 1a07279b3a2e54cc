import json

import pytest

from markedgroups.area import Caps
from markedgroups.coset import coset_enumerate
from markedgroups.dehn import quotient_check
from markedgroups.families import builtin_families, get_family, load_manifest
from markedgroups.oracles import BoundedDerivationOracle, UnknownVerdictError
from markedgroups.presentations import max_relator_length
from markedgroups.space import convergence_report
from markedgroups.words import enumerate_ball


def fam(name):
    return next(f for f in builtin_families() if f.name == name)


def test_registry_contents():
    names = [f.name for f in builtin_families()]
    assert names == ["cyclicZ", "zxz", "dihedral"]


def test_zxz_member_shape():
    pres, oracle = fam("zxz").member(5)
    assert pres.gen_names == ("x", "y")
    assert [r.letters for r in pres.relators] == [(1, 2, -1, -2), (2,) * 5]
    assert oracle.spec == "abelian:0,5"


def test_cyclicZ_members_and_limit():
    pres, _ = fam("cyclicZ").member(3)
    assert [r.letters for r in pres.relators] == [(1, 1, 1)]
    limit_pres, limit_oracle = fam("cyclicZ").limit()
    assert limit_pres.relators == ()
    assert max_relator_length(limit_pres) is None
    assert limit_oracle.start(limit_pres.ngens) is not None


def test_dihedral_member_orders():
    p3, o3 = fam("dihedral").member(3)
    assert o3.table.cosets == 6
    p2, _ = fam("dihedral").member(2)
    assert coset_enumerate(p2, 100).cosets == 4


def test_valid_i_enforced():
    for family in builtin_families():
        with pytest.raises(ValueError):
            family.member(family.valid_i - 1)


def test_limit_and_members_share_marking():
    for family in builtin_families():
        limit_pres, _ = family.limit()
        for i in (2, 4):
            member_pres, _ = family.member(i)
            assert member_pres.gen_names == limit_pres.gen_names


def test_quotient_property_holds():
    for family in builtin_families():
        limit_pres, _ = family.limit()
        for i in range(family.valid_i, family.valid_i + 4):
            _, member_oracle = family.member(i)
            assert quotient_check(limit_pres, member_oracle)


def test_convergence_witnessed():
    for family, i_values, lam_max in (
        (fam("cyclicZ"), range(2, 8), 12),
        (fam("zxz"), range(2, 7), 8),
        (fam("dihedral"), range(2, 6), 12),
    ):
        report = convergence_report(family, i_values, lam_max)
        assert report.lambda_non_decreasing
        radii = [d.lam for _, d in report.rows]
        assert radii[-1] > radii[0]


def test_member_oracles_agree_with_semidecider():
    for name in ("zxz", "dihedral"):
        family = fam(name)
        pres, oracle = family.member(3)
        semidecider = BoundedDerivationOracle(pres, Caps(8, 300))
        hits = 0
        for w in enumerate_ball(pres.ngens, 4):
            try:
                trivial = semidecider.decide(w)
            except UnknownVerdictError:
                continue
            assert trivial and oracle.decide(w)
            hits += 1
        assert hits > 1


def test_get_family_unknown():
    with pytest.raises(ValueError):
        get_family("nope")


def test_manifest_round_trip(tmp_path):
    (tmp_path / "limit.pres").write_text("gens: x\nrels: x^2\n", encoding="utf-8")
    manifest = tmp_path / "family.json"
    manifest.write_text(
        """
        {
          "name": "evenCyclic",
          "valid_i": 1,
          "notes": "Z/2i converging nowhere in particular; manifest smoke test",
          "limit": {"presentation": "limit.pres", "oracle": "abelian:2"},
          "member_template": {"presentation": "gens: x\\nrels: x^2; x^$i",
                              "oracle": "coset:100"}
        }
        """,
        encoding="utf-8",
    )
    family = load_manifest(manifest)
    assert family.name == "evenCyclic"
    limit_pres, limit_oracle = family.limit()
    assert [r.letters for r in limit_pres.relators] == [(1, 1)]
    pres, oracle = family.member(6)
    assert {tuple(r.letters) for r in pres.relators} == {(1, 1), (1,) * 6}
    assert oracle.table.cosets == 2  # gcd(2, 6)
    assert get_family(str(manifest)).name == "evenCyclic"


def test_manifest_and_limit_file_may_start_with_a_byte_order_mark(tmp_path):
    bom = b"\xef\xbb\xbf"
    limit = b"gens: x y\nrels: [x,y]\n"
    (tmp_path / "limit.pres").write_bytes(limit)
    (tmp_path / "bom.pres").write_bytes(bom + limit)
    manifest = {
        "name": "zxzManifest",
        "valid_i": 3,
        "limit": {"presentation": "limit.pres", "oracle": "abelian:0,0"},
        "member_template": {"presentation": "gens: x y\nrels: [x,y]; y^$i", "oracle": "abelian:0,$i"},
    }
    (tmp_path / "plain.json").write_bytes(json.dumps(manifest).encode())
    manifest["limit"]["presentation"] = "bom.pres"
    (tmp_path / "bom.json").write_bytes(bom + json.dumps(manifest).encode())
    assert load_manifest(tmp_path / "bom.json") == load_manifest(tmp_path / "plain.json")

import csv
import importlib.util
import io
import json
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import run_cli, run_cli_subprocess

from markedgroups.cache import ResultCache
from markedgroups.cli import build_parser, main
from markedgroups.dehn import CorollaryReport, TheoremReport
from markedgroups.families import FamilySpec

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "verify_theorem"
AREA_GOLDEN = Path(__file__).parent / "data" / "area"


@pytest.fixture
def pres_dir(tmp_path):
    (tmp_path / "z2.pres").write_text("gens: x y\nrels: [x,y]\n", encoding="utf-8")
    (tmp_path / "a3.pres").write_text("gens: a\nrels: a^3\n", encoding="utf-8")
    (tmp_path / "free.pres").write_text("gens: x\nrels:\n", encoding="utf-8")
    (tmp_path / "broken.pres").write_text("gens: x\nrels: z^2\n", encoding="utf-8")
    return tmp_path


def test_area_commutator(pres_dir, capsys):
    code, out, _ = run_cli(["area", "-p", str(pres_dir / "z2.pres"), "-w", "[x,y]"], capsys)
    assert code == 0
    assert "1" in out.splitlines()[2]


def test_area_json(pres_dir, capsys):
    code, out, _ = run_cli(
        ["area", "-p", str(pres_dir / "a3.pres"), "-w", "a^6", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2 and data["exact"] is True
    assert len(data["certificate"]) == 2
    assert set(data["certificate"][0]) == {"conjugator", "relator", "sign"}
    assert set(data["stats"]) == {"states_explored", "length_cap"}


def test_area_not_found_exit_code(pres_dir, capsys):
    code, _, err = run_cli(["area", "-p", str(pres_dir / "a3.pres"), "-w", "a"], capsys)
    assert code == 3
    assert "not found" in err


def test_area_parse_error_exit_code(pres_dir, capsys):
    code, _, err = run_cli(["area", "-p", str(pres_dir / "broken.pres"), "-w", "x"], capsys)
    assert code == 2
    assert "error" in err


# offset: the 0-based offset of the exponent, reported as the 1-based column offset + 1
@pytest.mark.parametrize("word, offset", [("x^99999999999999999999", 2), ("(x y)^4611686018427387904", 6)])
def test_power_too_large_to_expand_exits_2(pres_dir, word, offset, capsys):
    code, out, err = run_cli(["area", "-p", str(pres_dir / "z2.pres"), "-w", word], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: line 1, column {offset + 1}: exponent too large to expand\n"


def test_relator_power_too_large_to_expand_exits_2(tmp_path, capsys):
    (tmp_path / "big.pres").write_text("gens: x\nrels: x^99999999999999999999\n", encoding="utf-8")
    code, out, err = run_cli(
        ["rel-ball", "-p", str(tmp_path / "big.pres"), "--oracle", "abelian:0", "--radius", "2"], capsys
    )
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'big.pres'}: line 2, column 9: exponent too large to expand\n"


@pytest.mark.parametrize("word, fmt, fixture", [
    (word, fmt, f"{name}_cap14.{ext}")
    for name, word in (("x33", "x^3 y^3 x^-3 y^-3"), ("x24", "x^2 y^4 x^-2 y^-4"))
    for fmt, ext in (("json", "json"), ("table", "txt"), ("csv", "csv"))
])
def test_area_matches_golden_report(word, fmt, fixture, capsys, monkeypatch):
    # values and certificates were captured from the splice-everything
    # search; states_explored counts the states the winding bound keeps
    monkeypatch.chdir(AREA_GOLDEN)
    code, out, err = run_cli(["area", "-p", "z2.pres", "-w", word, "--length-cap", "14", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == (AREA_GOLDEN / fixture).read_text(encoding="utf-8")


def test_area_node_cap_matches_golden_error(capsys, monkeypatch):
    monkeypatch.chdir(AREA_GOLDEN)
    code, out, err = run_cli(
        ["area", "-p", "z2.pres", "-w", "x^3 y^3 x^-3 y^-3", "--length-cap", "14", "--node-cap", "300"], capsys
    )
    assert (code, out) == (3, "")
    assert err == (AREA_GOLDEN / "x33_cap14_nodes300.err").read_text(encoding="utf-8")


def test_area_node_cap_the_unpruned_search_exhausted_now_gives_the_value(capsys, monkeypatch):
    # unpruned, this search stopped at 3,000 of the 7,822 states it needs;
    # the winding bound keeps 694 of them
    monkeypatch.chdir(AREA_GOLDEN)
    code, out, err = run_cli(
        ["area", "-p", "z2.pres", "-w", "x^3 y^3 x^-3 y^-3", "--length-cap", "14", "--node-cap", "3000",
         "--format", "json"], capsys
    )
    assert (code, err) == (0, "")
    assert out == (AREA_GOLDEN / "x33_cap14.json").read_text(encoding="utf-8")
    assert json.loads(out)["value"] == 9


def test_area_with_nonzero_exponent_sums_searches_unpruned(capsys, monkeypatch):
    # x y is not trivial in Z^2; the winding bound needs zero exponent
    # sums, so the search and its message are the unpruned ones
    monkeypatch.chdir(AREA_GOLDEN)
    code, out, err = run_cli(["area", "-p", "z2.pres", "-w", "x y"], capsys)
    assert (code, out) == (3, "")
    assert err == "not found: no derivation of 'x y' within caps (length 10, nodes 1000000); explored 2430 states\n"


def test_dehn_family(capsys):
    code, out, _ = run_cli(
        ["dehn", "--family", "zxz", "--i", "5", "--n", "2,4", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert [row["value"] for row in data["rows"]] == [0, 1]
    assert all(row["exact"] for row in data["rows"])


def test_dehn_presentation_with_oracle(pres_dir, capsys):
    code, out, _ = run_cli(
        ["dehn", "-p", str(pres_dir / "a3.pres"), "--oracle", "abelian:3", "--n", "7",
         "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == 2


def test_dehn_free_presentation_defaults_to_free_oracle(pres_dir, capsys):
    code, out, _ = run_cli(
        ["dehn", "-p", str(pres_dir / "free.pres"), "--n", "2,4,6", "--format", "json"], capsys
    )
    assert code == 0
    assert [row["value"] for row in json.loads(out)["rows"]] == [0, 0, 0]


def test_dehn_unknown_oracle_exit_code(pres_dir, capsys):
    code, _, err = run_cli(
        ["dehn", "-p", str(pres_dir / "a3.pres"), "--oracle", "derivation:8,50", "--n", "4"],
        capsys,
    )
    assert code == 4
    assert "inconclusive" in err


def test_rel_ball(pres_dir, capsys):
    code, out, _ = run_cli(
        ["rel-ball", "-p", str(pres_dir / "z2.pres"), "--oracle", "abelian:0,0",
         "--radius", "4", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 9 and data["members"][0] == "1"


def test_dist_family(capsys):
    code, out, _ = run_cli(
        ["dist", "--family", "cyclicZ", "--i", "5", "--lambda-max", "10", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "exact" and data["lambda"] == 4


def test_dist_same_file_is_upper_bound(pres_dir, capsys):
    code, out, _ = run_cli(
        ["dist", "--p1", str(pres_dir / "z2.pres"), "--oracle1", "abelian:0,0",
         "--p2", str(pres_dir / "z2.pres"), "--oracle2", "abelian:0,0",
         "--lambda-max", "6", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "at_most" and data["lambda"] == 6


def test_dist_ends_at_the_first_empty_level(pres_dir):
    # the six (state, state, letter) triples of A3 against itself are all
    # met by length 3, so level 4 is empty and the search stops there
    a3 = str(pres_dir / "a3.pres")
    code, out = run_cli_subprocess(
        ["dist", "--p1", a3, "--oracle1", "abelian:3", "--p2", a3, "--oracle2", "coset",
         "--lambda-max", "1000000000000", "--format", "json"],
        timeout=60,
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "at_most" and data["lambda"] == 10**12


def test_dist_dihedral(capsys):
    code, out, _ = run_cli(
        ["dist", "--family", "dihedral", "--i", "4", "--lambda-max", "12", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["lambda"] == 7


def test_converge_csv(capsys):
    code, out, _ = run_cli(
        ["converge", "--family", "cyclicZ", "--i", "3..7", "--lambda-max", "10",
         "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "kind", "lambda", "display"]
    assert [r[2] for r in rows[1:]] == ["2", "3", "4", "5", "6"]


def test_verify_theorem_zxz(capsys):
    code, out, _ = run_cli(
        ["verify-theorem", "--family", "zxz", "--i", "3..6", "--n", "2,4",
         "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["status"] == "verified"
    assert data["L"] == 4
    for report in data["reports"]:
        if report["ball_agreement"] >= report["n"]:
            assert report["inequality_star_ok"] is True
            assert report["k_le_delta_L_ok"] is True
            assert report["ratio_le_delta_ok"] is True


def test_verify_theorem_dihedral(capsys):
    code, out, _ = run_cli(
        ["verify-theorem", "--family", "dihedral", "--i", "3..5", "--n", "2,3",
         "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["status"] == "verified"
    assert all(r["K_i"]["value"] == 1 for r in data["reports"])


def test_failing_report_exits_5(capsys, monkeypatch):
    # K_i = 2 > delta_i(L) = 1 breaks verdict (b), which the gate always asserts
    report = TheoremReport(i=5, n=4, ball_agreement=4, delta_i_n=1, delta_n=1, K_i=2, delta_i_L=1, L=4)
    monkeypatch.setattr(
        "markedgroups.cli.verify_family",
        lambda *a, **k: ([report], [CorollaryReport.from_reports("zxz", [report])]),
    )
    argv = ["verify-theorem", "--family", "zxz", "--i", "5", "--n", "4"]
    code, out, err = run_cli([*argv, "--format", "json"], capsys)
    assert (code, err) == (5, "")
    data = json.loads(out)
    assert data["summary"]["status"] == "failed"
    assert data["reports"][0]["k_le_delta_L_ok"] is False
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (5, "")
    assert "FAIL" in out and "summary: failed" in out


def test_verify_theorem_refuses_free_limit(capsys):
    code, _, err = run_cli(
        ["verify-theorem", "--family", "cyclicZ", "--i", "3..4", "--n", "2"], capsys
    )
    assert code == 2
    assert "undefined" in err


def test_cache_transparency(pres_dir, capsys):
    cache_dir = pres_dir / "cache"
    argv = ["dehn", "--family", "zxz", "--i", "4", "--n", "4", "--format", "json",
            "--cache-dir", str(cache_dir)]
    code1, cold, _ = run_cli(argv, capsys)
    assert code1 == 0
    assert any(cache_dir.iterdir())
    code2, warm, _ = run_cli(argv, capsys)
    assert code2 == 0
    assert cold == warm


def _no_search(pres, caps, letters):
    raise AssertionError("an area search ran")


def test_unusable_cache_dir_is_an_input_error(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("", encoding="utf-8")
    argv = ["dehn", "--family", "zxz", "--i", "3", "--n", "2", "--cache-dir", str(blocker)]
    monkeypatch.setattr(importlib.import_module("markedgroups.dehn"), "_area_value", _no_search)
    assert run_cli(argv, capsys) == (
        2, "", f"error: cache directory {str(blocker)!r} is not a writable directory\n"
    )


def test_table_format_is_default(capsys):
    code, out, _ = run_cli(["dist", "--family", "cyclicZ", "--i", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0].split() == ["kind", "lambda", "display"]


def test_dist_files_without_relators_default_to_the_free_oracle(pres_dir, capsys):
    free = str(pres_dir / "free.pres")
    code, out, err = run_cli(["dist", "--p1", free, "--p2", free, "--lambda-max", "4", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["kind"] == "at_most"


def test_dist_syntax_error_names_the_file(pres_dir, capsys):
    bad = pres_dir / "bad.pres"
    bad.write_text("gens: x y\nrels: x z\n", encoding="utf-8")
    argv = ["dist", "--p1", str(pres_dir / "z2.pres"), "--oracle1", "abelian:0,0",
            "--p2", str(bad), "--oracle2", "abelian:0,0"]
    assert run_cli(argv, capsys) == (2, "", f"error: {bad}: line 2, column 9: unknown generator 'z'\n")


def test_missing_manifest_is_a_missing_file_not_an_unknown_family(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli(["converge", "--family", missing, "--i", "3"], capsys) == (
        2, "", f"error: [Errno 2] No such file or directory: {missing!r}\n"
    )


def _directory_as_presentation(tmp_path):
    return ["area", "-p", str(tmp_path), "-w", "x"]


def _directory_as_manifest(tmp_path):
    (tmp_path / "family.json").mkdir()
    return ["converge", "--family", str(tmp_path / "family.json"), "--i", "3"]


def _directory_as_manifest_limit(tmp_path):
    (tmp_path / "limit.pres").mkdir()
    (tmp_path / "family.json").write_text(json.dumps(GOOD_MANIFEST), encoding="utf-8")
    return ["converge", "--family", str(tmp_path / "family.json"), "--i", "3"]


def _directory_as_cache_entry(tmp_path):
    argv = ["dehn", "--family", "zxz", "--i", "3", "--n", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    for entry in tmp_path.iterdir():
        entry.unlink()
        entry.mkdir()
    return argv


NESTED = "(" * 600 + "x" + ")" * 600


def _nested_word(tmp_path):
    return ["area", "-p", str(AREA_GOLDEN / "z2.pres"), "-w", NESTED]


def _nested_relator(tmp_path):
    (tmp_path / "deep.pres").write_text(f"gens: x\nrels: {NESTED}\n", encoding="utf-8")
    return ["area", "-p", str(tmp_path / "deep.pres"), "-w", "x"]


@pytest.mark.parametrize("make_argv, message", [
    (_directory_as_presentation, "Is a directory"),
    (_directory_as_manifest, "Is a directory"),
    (_directory_as_manifest_limit, "Is a directory"),
    (_directory_as_cache_entry, "Is a directory"),
    (_nested_word, "line 1, column 1: expression nested too deeply"),
    (_nested_relator, "line 2, column 7: expression nested too deeply"),
], ids=["presentation", "manifest", "manifest-limit", "cache-entry", "nested-word", "nested-relator"])
def test_unreadable_paths_and_deep_nesting_are_input_errors(make_argv, message, tmp_path, capsys):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_dist_single_dash_aliases(pres_dir, capsys):
    code, out, _ = run_cli(
        ["dist", "-p1", str(pres_dir / "z2.pres"), "--oracle1", "abelian:0,0",
         "-p2", str(pres_dir / "z2.pres"), "--oracle2", "abelian:0,0",
         "--lambda-max", "3", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["kind"] == "at_most"


def test_exit_codes_stable_across_formats(pres_dir, capsys):
    for fmt in ("table", "json", "csv"):
        code, _, _ = run_cli(
            ["area", "-p", str(pres_dir / "a3.pres"), "-w", "a", "--format", fmt], capsys
        )
        assert code == 3
        code, _, _ = run_cli(
            ["verify-theorem", "--family", "dihedral", "--i", "3", "--n", "2",
             "--format", fmt], capsys
        )
        assert code == 0


@pytest.mark.parametrize("indices", ["5..3", " , "])
def test_verify_theorem_rejects_empty_index_range(indices, capsys):
    code, out, err = run_cli(
        ["verify-theorem", "--family", "dihedral", "--i", indices, "--n", "4"], capsys
    )
    assert code == 2
    assert out == ""
    assert "selects no index" in err


DAMAGE = {
    "truncate": lambda text: text[: len(text) // 2],
    "empty": lambda text: "",
    "empty_object": lambda text: "{}",
    "other_n": lambda text: json.dumps({"n": 2, "value": 0, "exact": True, "witnesses": []}),
    "exact_false": lambda text: text.replace('"exact": true', '"exact": false'),
    "deep": lambda text: "[" * 100000 + "]" * 100000,  # too deep for the JSON decoder
    # the payload alone, as entries were written before they carried their key
    "old_format": lambda text: json.dumps(json.loads(text)["payload"], indent=2) + "\n",
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_damaged_cache_entry_is_a_miss(damage, pres_dir, capsys):
    cache_dir = pres_dir / "cache"
    argv = ["dehn", "--family", "zxz", "--i", "4", "--n", "4", "--format", "json",
            "--cache-dir", str(cache_dir)]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    (entry,) = cache_dir.iterdir()
    text = entry.read_text(encoding="utf-8")
    entry.write_text(DAMAGE[damage](text), encoding="utf-8")
    code, again, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert again == cold
    # the recomputed entry replaced the damaged one
    assert entry.read_text(encoding="utf-8") == text
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]


def test_row_cached_under_an_older_version_is_a_miss(pres_dir, capsys, monkeypatch):
    # 0.1.0 valued each word by its own symmetry orbit, not its class
    cache_dir = pres_dir / "cache"
    argv = ["dehn", "--family", "zxz", "--i", "4", "--n", "4", "--format", "json"]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    with monkeypatch.context() as m:
        m.setattr(importlib.import_module("markedgroups.cli"), "__version__", "0.1.0")
        assert run_cli([*argv, "--cache-dir", str(cache_dir)], capsys)[0] == 0
    (old,) = cache_dir.iterdir()
    entry = json.loads(old.read_text(encoding="utf-8"))
    entry["payload"]["value"] += 1
    old.write_text(json.dumps(entry), encoding="utf-8")
    code, warm, err = run_cli([*argv, "--cache-dir", str(cache_dir)], capsys)
    assert (code, err) == (0, "")
    assert warm == cold
    assert len(list(cache_dir.iterdir())) == 2


def test_entry_of_another_key_is_a_miss(pres_dir, capsys):
    # a copied or renamed file: the entry a run at another length cap wrote, its value changed
    cache_dir = pres_dir / "cache"
    argv = ["dehn", "--family", "zxz", "--i", "4", "--n", "4", "--format", "json", "--cache-dir", str(cache_dir)]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    (entry,) = cache_dir.iterdir()
    text = entry.read_text(encoding="utf-8")
    assert run_cli([*argv, "--length-cap", "14"], capsys)[0] == 0
    (other,) = set(cache_dir.iterdir()) - {entry}
    foreign = json.loads(other.read_text(encoding="utf-8"))
    foreign["payload"]["value"] += 1
    entry.write_text(json.dumps(foreign), encoding="utf-8")
    code, again, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert again == cold
    assert entry.read_text(encoding="utf-8") == text


def test_keys_sharing_a_bucket_never_serve_each_others_rows(pres_dir, capsys, monkeypatch):
    # every key files its entry in one bucket, as keys whose CRC-32 collide do
    cache_dir = pres_dir / "cache"
    bucket = cache_dir / "00000000.json"
    monkeypatch.setattr(ResultCache, "_path", lambda self, key: bucket)
    argv = ["dehn", "--family", "zxz", "--i", "4", "--format", "json"]
    # each run, then the (n, length cap) of the last key written, which the bucket holds;
    # the second run hits; the third and fifth share the n of the run before under another key, so miss
    runs = [(["--n", "2,4"], (4, 12)), (["--n", "4"], (4, 12)), (["--n", "4", "--length-cap", "14"], (4, 14)),
            (["--n", "2,4"], (4, 12)), (["--n", "4", "--length-cap", "14"], (4, 14))]
    for extra, last in runs:
        code, cold, _ = run_cli([*argv, *extra], capsys)
        assert code == 0
        code, cached, err = run_cli([*argv, *extra, "--cache-dir", str(cache_dir)], capsys)
        assert (code, err) == (0, "")
        assert cached == cold
        assert list(cache_dir.iterdir()) == [bucket]
        entry = json.loads(bucket.read_text(encoding="utf-8"))
        key = json.loads(entry["key"])
        assert (key["n"], key["length_cap"]) == last and entry["payload"]["n"] == key["n"]


@pytest.mark.parametrize("command", [
    ["dehn", "--family", "zxz", "--i", "3"],
    ["verify-theorem", "--family", "dihedral", "--i", "3"],
])
def test_empty_radius_list_is_an_input_error(command, capsys):
    code, out, err = run_cli([*command, "--n", ","], capsys)
    assert code == 2
    assert out == ""
    assert "gives no radius" in err


@pytest.mark.parametrize("args, fixture", [
    (["--family", "zxz", "--i", "3..6", "--n", "2,4", "--format", "json"], "zxz_3-6_n2-4.json"),
    (["--family", "zxz", "--i", "3..6", "--n", "2,4", "--format", "csv"], "zxz_3-6_n2-4.csv"),
    (["--family", "dihedral", "--i", "6", "--n", "4,6", "--workers", "2"], "dihedral_6_n4-6_w2.txt"),
    # K_i = 2: members <x, y | y^i, [x,y] y^i> of Z x Z/i converging to Z^2
    (["--family", str(REPO / "tests" / "data" / "families" / "zxz_k2.json"), "--i", "3..6", "--n", "2,4,6",
      "--format", "json"], "zxzK2_3-6_n2-4-6.json"),
    # K_i = (i+3)/2: for odd i, members <x, y | y^i, [x,y^2]> of Z x Z/i converging to Z^2
    (["--family", str(REPO / "tests" / "data" / "families" / "zxz_kgrow.json"), "--i", "3,5,7,9", "--n", "2,4,6",
      "--format", "json"], "zxzKgrow_3-5-7-9_n2-4-6.json"),
])
def test_verify_theorem_matches_golden_report(args, fixture, capsys):
    # fixtures were captured before values were reused across reports; reuse must not show
    code, out, err = run_cli(["verify-theorem", *args], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / fixture).read_text(encoding="utf-8")


def test_growing_k_family_at_an_even_index_exits_3(capsys):
    # for even i, [x,y] is nontrivial in <x, y | y^i, [x,y^2]>, but abelian:0,$i calls it trivial,
    # so the search for its derivation runs out of caps rather than verify a false report
    family = str(REPO / "tests" / "data" / "families" / "zxz_kgrow.json")
    code, out, err = run_cli(["verify-theorem", "--family", family, "--i", "4", "--n", "2,4"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "not found: no derivation of 'x y x^-1 y^-1' within caps (length 12, nodes 1000000); explored 1926 states\n"
    )


def test_verify_theorem_matches_golden_input_error(capsys):
    code, out, err = run_cli(["verify-theorem", "--family", "dihedral", "--i", "1..3", "--n", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == (GOLDEN / "dihedral_1-3_n2.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("args, expected", [
    # one Dehn table per group: each member's at max(4, L) = 4, the limit's at 4
    (["--family", "zxz", "--i", "3..6", "--n", "2,4"],
     {"dehn": 5, "compute_K": 4, "quotient_check": 4, "distance": 0, "member": 4}),
    # dihedral has L = 2: the member's table and the limit's, both at 6
    (["--family", "dihedral", "--i", "6", "--n", "4,6", "--workers", "2"],
     {"dehn": 2, "compute_K": 1, "quotient_check": 1, "distance": 0, "member": 1}),
])
def test_verify_theorem_computes_each_quantity_once(args, expected, capsys, monkeypatch):
    # the package attribute markedgroups.dehn is the function, so fetch the module
    dehn_module = importlib.import_module("markedgroups.dehn")
    counts = Counter()

    def count(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*a, **k):
            counts[key] += 1
            return fn(*a, **k)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("dehn", "compute_K", "quotient_check"):
        count(dehn_module, name, name)
    # the ball agreement is read off the Dehn tables, with no pair search
    assert not hasattr(dehn_module, "distance")
    count(importlib.import_module("markedgroups.space"), "distance", "distance")
    count(FamilySpec, "member", "member")
    code, _, _ = run_cli(["verify-theorem", *args], capsys)
    assert code == 0
    assert counts == Counter(expected)


@pytest.mark.parametrize("group, radii", [
    (["--family", "dihedral", "--i", "5"], "6,6"),
    (["--family", "zxz", "--i", "3"], "8,4,8"),
])
def test_dehn_computes_one_table_for_all_radii(group, radii, capsys, monkeypatch):
    cli_module = importlib.import_module("markedgroups.cli")
    dehn_function = cli_module.dehn
    tables = []

    def counting_dehn(pres, oracle, n, caps, fan_out=map):
        tables.append(n)
        return dehn_function(pres, oracle, n, caps, fan_out)

    monkeypatch.setattr(cli_module, "dehn", counting_dehn)
    code, out, err = run_cli(["dehn", *group, "--n", radii, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    radii = [int(n) for n in radii.split(",")]
    assert tables == [max(radii)]
    # each row is the row its radius prints alone, under the same length cap
    cap = str(json.loads(out)["caps"]["length_cap"])
    alone = []
    for n in radii:
        code, single, _ = run_cli(["dehn", *group, "--n", str(n), "--length-cap", cap, "--format", "json"], capsys)
        assert code == 0
        alone.append(json.loads(single)["rows"][0])
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == radii
    assert [json.dumps(row, indent=2) for row in rows] == [json.dumps(row, indent=2) for row in alone]


GOOD_MANIFEST = {
    "name": "zxzManifest",
    "limit": {"presentation": "limit.pres", "oracle": "abelian:0,0"},
    "member_template": {"presentation": "gens: x y\nrels: [x,y]; y^$i", "oracle": "abelian:0,$i"},
}


@pytest.mark.parametrize("manifest, message", [
    ({k: v for k, v in GOOD_MANIFEST.items() if k != "limit"}, "missing key 'limit'"),
    ([GOOD_MANIFEST], "must be a JSON object"),
    ({**GOOD_MANIFEST, "member_template": {"presentation": "gens: x y\nrels: [x,y]; y^$j",
                                           "oracle": "abelian:0,$i"}}, "placeholder $j"),
    ({**GOOD_MANIFEST, "valid_i": None}, "valid_i must be an integer"),
    ({**GOOD_MANIFEST, "valid_i": 2.7}, "valid_i must be an integer"),
    ({**GOOD_MANIFEST, "valid_i": True}, "valid_i must be an integer"),
    ({**GOOD_MANIFEST, "valid_i": "3"}, "valid_i must be an integer"),
    ({**GOOD_MANIFEST, "limit": {"presentation": 5, "oracle": "abelian:0,0"}},
     "limit.presentation must be a string"),
    (b'{"name": }', "bad.json: not valid JSON: Expecting value"),
    (b'\xff{', "bad.json: not valid JSON: 'utf-8' codec can't decode"),
    (b"[" * 100000 + b"]" * 100000, "bad.json: not valid JSON: maximum recursion depth exceeded"),
    ({**GOOD_MANIFEST, "member_template": {"presentation": "gens: x y\nrels: [x,y]; z^$i",
                                           "oracle": "abelian:0,$i"}},
     "family 'zxzManifest' member 3: line 2, column 14: unknown generator 'z'"),
    ({**GOOD_MANIFEST, "member_template": {"presentation": "gens: x y\nrels: [x,y]; y^$i # costs $5",
                                           "oracle": "abelian:0,$i"}},
     "family 'zxzManifest' member 3: Invalid placeholder"),
], ids=["no_limit", "not_an_object", "unknown_placeholder", "valid_i_null", "valid_i_float",
        "valid_i_bool", "valid_i_string", "not_a_string", "not_json", "not_utf8", "deep",
        "member_syntax_error", "member_invalid_placeholder"])
def test_malformed_manifest_is_an_input_error(manifest, message, tmp_path, capsys):
    # bytes are written as they stand, anything else as its JSON text
    (tmp_path / "limit.pres").write_text("gens: x y\nrels: [x,y]\n", encoding="utf-8")
    path = tmp_path / "bad.json"
    path.write_bytes(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
    code, out, err = run_cli(["converge", "--family", str(path), "--i", "3"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    # the well-formed manifest in the same place works
    path.write_text(json.dumps(GOOD_MANIFEST), encoding="utf-8")
    assert run_cli(["converge", "--family", str(path), "--i", "3"], capsys)[0] == 0


NOT_UTF8 = b"\xffgens: x\nrels:\n"
DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("culprit, content, argv, message", [
    ("limit.pres", b"gens: x y\nrels: x z\n", ["converge", "--family", "{tmp}/family.json", "--i", "3"],
     "line 2, column 9: unknown generator 'z'"),
    ("limit.pres", NOT_UTF8, ["converge", "--family", "{tmp}/family.json", "--i", "3"], DECODE_ERROR),
    ("bin.pres", NOT_UTF8, ["rel-ball", "-p", "{tmp}/bin.pres", "--radius", "1"], DECODE_ERROR),
    ("bin.pres", NOT_UTF8,
     ["dist", "--p1", "{tmp}/limit.pres", "--oracle1", "abelian:0,0", "--p2", "{tmp}/bin.pres"], DECODE_ERROR),
], ids=["limit_syntax_error", "limit_not_utf8", "rel_ball_not_utf8", "dist_p2_not_utf8"])
def test_presentation_file_error_names_the_file(culprit, content, argv, message, tmp_path, capsys):
    (tmp_path / "limit.pres").write_text("gens: x y\nrels: [x,y]\n", encoding="utf-8")
    (tmp_path / "family.json").write_text(json.dumps(GOOD_MANIFEST), encoding="utf-8")
    (tmp_path / culprit).write_bytes(content)
    code, out, err = run_cli([arg.format(tmp=tmp_path) for arg in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {tmp_path / culprit}: {message}\n")


@pytest.mark.parametrize("value, flag, command", [
    ("-3", "--workers", ["dehn", "--family", "zxz", "--i", "3", "--n", "2"]),
    ("0", "--workers", ["dehn", "--family", "zxz", "--i", "3", "--n", "2"]),
    ("0", "--node-cap", ["area", "-p", str(AREA_GOLDEN / "z2.pres"), "-w", "[x,y]"]),
    # no word of Z^2 up to length 2 is trivial, so no search would reject it
    ("0", "--node-cap", ["dehn", "-p", str(AREA_GOLDEN / "z2.pres"), "--oracle", "abelian:0,0", "--n", "2"]),
    ("0", "--node-cap", ["verify-theorem", "--family", "zxz", "--i", "3", "--n", "2"]),
    # radii are at least 0
    ("-1", "--radius", ["rel-ball", "--family", "zxz", "--i", "3"]),
    ("-1", "--lambda-max", ["dist", "--family", "zxz", "--i", "3"]),
    ("-1", "--lambda-max", ["converge", "--family", "zxz", "--i", "3"]),
], ids=["-3", "0", "node-cap-area", "node-cap-dehn", "node-cap-verify-theorem", "radius-rel-ball",
        "lambda-max-dist", "lambda-max-converge"])
def test_workers_below_one_is_an_input_error(value, flag, command, capsys):
    low = 0 if flag in ("--radius", "--lambda-max") else 1
    with pytest.raises(SystemExit) as exit_info:
        run_cli([*command, flag, value], capsys)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: must be at least {low}, got {value}" in captured.err


@pytest.mark.parametrize("spec, message", [
    ("product:x=abelian:0;q=abelian:0",
     "oracle spec 'product:x=abelian:0;q=abelian:0': unknown generator 'q' (the presentation has x, y)"),
    ("derivation:5",
     "oracle spec 'derivation:5': derivation takes two integers 'length_cap,node_cap', got '5'"),
    ("abelian:x",
     "oracle spec 'abelian:x': abelian takes one integer order per generator, got 'x'"),
    ("coset:abc",
     "oracle spec 'coset:abc': coset takes one integer 'max_cosets', got 'abc'"),
    ("derivation:-3,50",
     "oracle spec 'derivation:-3,50': derivation needs length_cap >= 0 and node_cap >= 1"),
    ("derivation:4,0",
     "oracle spec 'derivation:4,0': derivation needs length_cap >= 0 and node_cap >= 1"),
    ("rewriting:involutions",
     "oracle spec 'rewriting:involutions': rewriting needs the relator x^2, which is missing"),
    ("product:x=rewriting:involutions;y=abelian:0",
     "oracle spec 'product:x=rewriting:involutions;y=abelian:0': rewriting needs the relator x^2, which is missing"),
    ("abelian:0",
     "oracle spec 'abelian:0': abelian takes one integer order per generator, got '0'"),
    ("free",
     "oracle spec 'free' calls the relator x y x^-1 y^-1 nontrivial: "
     "it is exact only for free groups (presentations with an empty relator list)"),
    ("rewriting:foo",
     "oracle spec 'rewriting:foo': rewriting takes 'involutions', got 'foo'"),
    # refusals raised by the oracle constructors name the spec too
    ("coset:0",
     "oracle spec 'coset:0': max_cosets must be at least 1"),
    ("abelian:1,0",
     "oracle spec 'abelian:1,0': invalid generator order 1; use 0 or >= 2"),
    ("product:x=abelian:0",
     "oracle spec 'product:x=abelian:0': parts must cover every generator"),
    ("product:x=abelian:0;x,y=abelian:0,0",
     "oracle spec 'product:x=abelian:0;x,y=abelian:0,0': parts must partition the generators"),
    ("bogus:1",
     "oracle spec 'bogus:1': unknown kind 'bogus'"),
], ids=["unknown_generator", "derivation_one_field", "abelian_not_an_integer", "coset_not_an_integer",
        "derivation_negative_length_cap", "derivation_zero_node_cap", "rewriting_outside_its_domain",
        "rewriting_product_part_outside_its_domain", "abelian_one_order_short", "free_on_a_relator",
        "rewriting_unknown_system", "coset_zero_max_cosets", "abelian_order_one", "product_part_missing",
        "product_parts_overlap", "unknown_kind"])
def test_malformed_oracle_spec_names_the_problem(spec, message, pres_dir, capsys):
    code, out, err = run_cli(
        ["rel-ball", "-p", str(pres_dir / "z2.pres"), "--oracle", spec, "--radius", "2"], capsys
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [
    ["dehn", "--family", "zxz", "--i", "3..5", "--n", "2"],
    ["rel-ball", "--family", "zxz", "--i", "3,4", "--radius", "2"],
    ["dist", "--family", "zxz", "--i", "x"],
], ids=["dehn", "rel-ball", "dist"])
def test_single_index_takes_one_integer(command, capsys):
    code, out, err = run_cli(command, capsys)
    i = command[command.index("--i") + 1]
    assert (code, out, err) == (2, "", f"error: --i {i!r}: {command[0]} takes one integer index\n")


# Each subcommand declares only the options it reads; these are the rest.
MINIMAL_ARGV = {
    "area": ["-p", "z2.pres", "-w", "[x,y]"],
    "dehn": ["--family", "zxz", "--i", "3", "--n", "2"],
    "rel-ball": ["--family", "zxz", "--i", "3", "--radius", "2"],
    "dist": ["--family", "zxz", "--i", "3"],
    "converge": ["--family", "zxz", "--i", "3"],
    "verify-theorem": ["--family", "zxz", "--i", "3", "--n", "2"],
}
UNREAD_OPTIONS = [
    ("area", "--lambda-max"), ("area", "--workers"),
    ("dehn", "--lambda-max"), ("verify-theorem", "--lambda-max"),
    ("rel-ball", "--length-cap"), ("rel-ball", "--node-cap"), ("rel-ball", "--workers"),
    ("rel-ball", "--lambda-max"),
    ("dist", "--length-cap"), ("dist", "--node-cap"), ("dist", "--workers"),
    ("converge", "--length-cap"), ("converge", "--node-cap"), ("converge", "--workers"),
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS, ids=[f"{c}{o}" for c, o in UNREAD_OPTIONS])
def test_option_a_subcommand_does_not_read_is_a_parse_error(command, option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli([command, *MINIMAL_ARGV[command], option, "1"], capsys)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option} 1" in captured.err


def test_benchmark_jobs_parse(monkeypatch):
    # bench/workloads.py is stdlib-only and not a package module; load it from its file
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    parser = build_parser()
    sigma = workloads.SignedPerm.draw(1)
    argvs = [job.argv for name in workloads.WORKLOADS for job in workloads.jobs(name, sigma, Path("work"))]
    assert {argv[0] for argv in argvs} == {"area", "dehn", "rel-ball", "dist", "converge", "verify-theorem"}
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]


# Every option each subcommand declares, by its long flag, with a value it accepts
DECLARED_OPTIONS = {
    "area": ["--presentation", "z2.pres", "--word", "[x,y]", "--format", "csv", "--cache-dir", "c",
             "--length-cap", "9", "--node-cap", "7"],
    "dehn": ["--presentation", "z2.pres", "--oracle", "abelian:0,0", "--family", "zxz", "--i", "3", "--n", "2,4",
             "--format", "json", "--cache-dir", "c", "--length-cap", "9", "--node-cap", "7", "--workers", "2"],
    "rel-ball": ["--presentation", "z2.pres", "--oracle", "abelian:0,0", "--family", "zxz", "--i", "3",
                 "--radius", "0", "--format", "csv", "--cache-dir", "c"],
    "dist": ["--p1", "a.pres", "--oracle1", "free", "--p2", "b.pres", "--oracle2", "coset", "--family", "zxz",
             "--i", "3", "--format", "json", "--cache-dir", "c", "--lambda-max", "0"],
    "converge": ["--family", "zxz", "--i", "3..5", "--format", "csv", "--cache-dir", "c", "--lambda-max", "12"],
    "verify-theorem": ["--family", "zxz", "--i", "3..5", "--n", "2,4", "--format", "json", "--cache-dir", "c",
                       "--length-cap", "9", "--node-cap", "7", "--workers", "2"],
}


@pytest.mark.parametrize("command", list(DECLARED_OPTIONS))
def test_each_subcommand_parses_exactly_the_options_it_declares(command):
    # an option dropped from a subcommand is a parse error here, and one added shows as an extra key
    argv = DECLARED_OPTIONS[command]
    args = build_parser().parse_args([command, *argv])
    given = {flag[2:].replace("-", "_"): value for flag, value in zip(argv[::2], argv[1::2])}
    assert {dest: str(value) for dest, value in vars(args).items()} == {"command": command, **given}


@pytest.mark.parametrize("command", list(DECLARED_OPTIONS))
def test_parser_built_for_argv_parses_and_helps_as_the_full_one(command, capsys):
    # only the invoked subcommand gets its options; what it parses and both help texts stay the same
    argv = [command, *DECLARED_OPTIONS[command]]
    full, built = build_parser(), build_parser(argv)
    assert vars(built.parse_args(argv)) == vars(full.parse_args(argv))
    assert built.format_help() == full.format_help()
    helps = []
    for parser in (full, built):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and f"usage: markedgroups {command} " in helps[0]
    for other in DECLARED_OPTIONS.keys() - {command}:  # no other subcommand has its options
        with pytest.raises(SystemExit):
            built.parse_args([other, *DECLARED_OPTIONS[other]])
        assert "unrecognized arguments" in capsys.readouterr().err


# One worker pool per command

def _exit_worker(pres, caps, letters):
    """Stands in for the area search of a pool worker and kills the process."""
    os._exit(9)


@pytest.fixture
def started_processes(monkeypatch):
    """Every child process started, counted at Process.start."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return started


POOL_COMMANDS = {
    "verify-theorem": ["verify-theorem", "--family", "zxz", "--i", "3..6", "--n", "2,4"],
    "dehn": ["dehn", "--family", "zxz", "--i", "3", "--n", "4,6,8"],
}


@pytest.mark.parametrize("workers, pools", [("1", 0), ("2", 1)])
@pytest.mark.parametrize("command", sorted(POOL_COMMANDS))
def test_one_pool_per_command(command, workers, pools, opened_pools, pool_at_once, tmp_path, capsys):
    code, _, err = run_cli(
        [*POOL_COMMANDS[command], "--workers", workers, "--cache-dir", str(tmp_path)], capsys
    )
    assert (code, err) == (0, "")
    assert len(opened_pools) == pools


def test_cache_hit_dehn_starts_no_process(opened_pools, started_processes, tmp_path, capsys):
    argv = [*POOL_COMMANDS["dehn"], "--format", "json", "--cache-dir", str(tmp_path)]
    cold = run_cli(argv, capsys)
    assert started_processes == []
    warm = run_cli([*argv, "--workers", "2"], capsys)
    assert warm == cold
    assert len(opened_pools) == 0 and started_processes == []


def test_workers_beyond_the_cpu_count_build_a_pool_of_cpu_count(
    monkeypatch, opened_pools, pool_at_once, started_processes, capsys
):
    # a pool is built only when it gets work, so radius 3; under fork
    # the pool starts all its processes at its first search
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, err = run_cli(["dehn", "--family", "zxz", "--i", "3", "--n", "3", "--workers", "64"], capsys)
    assert (code, err) == (0, "")
    assert [pool._max_workers for pool in opened_pools] == [2]
    assert len(started_processes) == 2
    assert multiprocessing.active_children() == []


def test_one_cpu_builds_no_pool(monkeypatch, opened_pools, pool_at_once, started_processes, capsys):
    argv = ["verify-theorem", "--family", "dihedral", "--i", "6", "--n", "4,6"]
    expected = run_cli([*argv, "--workers", "1"], capsys)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_cli([*argv, "--workers", "4"], capsys) == expected
    assert opened_pools == [] and started_processes == []


WORKER_GOLDENS = pytest.mark.parametrize("argv, fixture", [
    (["verify-theorem", "--family", "dihedral", "--i", "6", "--n", "4,6"], "dihedral_6_n4-6_w2.txt"),
    (["verify-theorem", "--family", "zxz", "--i", "3..6", "--n", "2,4", "--format", "json"],
     "zxz_3-6_n2-4.json"),
    (["dehn", "--family", "zxz", "--i", "3", "--n", "4,6,8", "--format", "json"],
     "dehn_zxz_3_n4-6-8.json"),
], ids=["verify-theorem-dihedral", "verify-theorem-zxz", "dehn-zxz"])


@WORKER_GOLDENS
@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_report_bytes_do_not_depend_on_workers(argv, fixture, workers, opened_pools, started_processes, capsys):
    code, out, err = run_cli([*argv, "--workers", workers], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / fixture).read_text(encoding="utf-8")
    # at the default budget only the dehn run, 103k states, crosses into a pool
    assert len(opened_pools) == (workers != "1" and argv[0] == "dehn")
    assert (started_processes == []) == (opened_pools == [])


@WORKER_GOLDENS
@pytest.mark.parametrize("workers", ["2", "3"])
def test_report_bytes_do_not_depend_on_the_pool_budget(argv, fixture, workers, opened_pools, pool_at_once, capsys):
    code, out, err = run_cli([*argv, "--workers", workers], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / fixture).read_text(encoding="utf-8")
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", sorted(POOL_COMMANDS))
def test_failed_search_leaves_no_worker_running(command, opened_pools, pool_at_once, started_processes, capsys):
    code, out, err = run_cli([*POOL_COMMANDS[command], "--node-cap", "3", "--workers", "2"], capsys)
    assert (code, out) == (3, "")
    # the failing search ran in a pool process and its error crossed back whole
    length_cap = {"dehn": 16, "verify-theorem": 12}[command]
    assert err == (
        f"not found: no derivation of 'x y x^-1 y^-1' within caps (length {length_cap}, nodes 3); "
        "explored 3 states\n"
    )
    assert len(opened_pools) == 1 and started_processes != []
    assert multiprocessing.active_children() == []


def test_exhausted_caps_are_written_as_numbers(capsys):
    code, out, err = run_cli(
        ["verify-theorem", "--family", "dihedral", "--i", "3", "--n", "2", "--node-cap", "1"], capsys
    )
    assert (code, out) == (3, "")
    assert err == "not found: no derivation of 'a^2' within caps (length 6, nodes 1); explored 1 states\n"


@pytest.mark.parametrize("command", sorted(POOL_COMMANDS))
def test_dead_worker_is_exit_6(command, monkeypatch, pool_at_once, capsys):
    # under fork the workers inherit the patched search
    monkeypatch.setattr(importlib.import_module("markedgroups.dehn"), "_area_value", _exit_worker)
    code, out, err = run_cli([*POOL_COMMANDS[command], "--workers", "2"], capsys)
    assert (code, out) == (6, "")
    assert err.startswith("error: a --workers process died: ") and err.count("\n") == 1
    assert multiprocessing.active_children() == []


FIRST_USE_MODULES = ("concurrent.futures", "multiprocessing", "hashlib", "fractions", "decimal")


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["area", "-p", str(AREA_GOLDEN / "z2.pres"), "-w", "[x,y]"], []),
    (["converge", "--family", "zxz", "--i", "3..5"], []),
    # below the pool budget a --workers 2 command starts no pool, so loads none
    (["dehn", "--family", "zxz", "--i", "3", "--n", "4", "--workers", "2"], []),
    (["dehn", "--family", "zxz", "--i", "3", "--n", "4", "--workers", "1"], []),
    # no command loads hashlib
    (["dehn", "--family", "zxz", "--i", "3", "--n", "4", "--cache-dir", "{tmp}"], []),
], ids=["import", "area", "converge", "dehn-workers-2", "dehn-workers-1", "dehn-cache-dir"])
def test_modules_load_at_first_use(argv, loaded, tmp_path):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    # a fresh interpreter: this one has loaded multiprocessing itself
    script = (
        "import sys\n"
        "import markedgroups, markedgroups.cli\n"
        f"argv = {argv!r}\n"
        "code = markedgroups.cli.main(argv) if argv else 0\n"
        f"print(code, [m for m in {FIRST_USE_MODULES!r} if m in sys.modules], file=sys.stderr)\n"
    )
    paths = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == f"0 {loaded!r}\n"


def test_closed_stdout_pipe_exits_141_without_a_message():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # 700 kB table is far more than a pipe holds, so the writer is still writing
    paths = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    argv = ["rel-ball", "--family", "dihedral", "--i", "8", "--radius", "11", "--format", "table"]
    proc = subprocess.Popen([sys.executable, "-m", "markedgroups", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().split() == [b"member"]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("argv, message", [
    (["converge", "--family", "zxz", "--i", "a..5"], "--i 'a..5': expected an integer or a range A..B"),
    (["converge", "--family", "zxz", "--i", "3..99999999999999999999"],
     "--i '3..99999999999999999999': the range is too long to list"),
    (["verify-theorem", "--family", "zxz", "--i", "3..99999999999999999999", "--n", "2"],
     "--i '3..99999999999999999999': the range is too long to list"),
    (["verify-theorem", "--family", "zxz", "--i", "3,x", "--n", "2"],
     "--i '3,x': expected an integer or a range A..B"),
    (["verify-theorem", "--family", "zxz", "--i", "3", "--n", "2,x"],
     "--n '2,x': expected comma-separated integers"),
    (["dehn", "--family", "zxz", "--i", "3", "--n", "4.5"], "--n '4.5': expected comma-separated integers"),
    (["dehn", "--family", "zxz", "--i", "3", "--n", "-1"], "--n '-1': radii must be nonnegative"),
    (["dehn", "--family", "zxz", "--i", "3", "--n", "2,-1"], "--n '2,-1': radii must be nonnegative"),
    (["verify-theorem", "--family", "zxz", "--i", "3", "--n", "-1"], "--n '-1': radii must be nonnegative"),
    (["verify-theorem", "--family", "zxz", "--i", "3", "--n", "2,-1"], "--n '2,-1': radii must be nonnegative"),
    (["dehn", "--family", "zxz", "--i", "3", "-p", str(AREA_GOLDEN / "z2.pres"), "--n", "2"],
     "-p cannot be combined with --family"),
    (["rel-ball", "--family", "zxz", "--i", "3", "--oracle", "abelian:0,3", "--radius", "2"],
     "--oracle cannot be combined with --family"),
    (["dehn", "-p", str(AREA_GOLDEN / "z2.pres"), "--oracle", "abelian:0,0", "--i", "3", "--n", "2"],
     "--i requires --family"),
    (["dist", "--family", "zxz", "--i", "3", "--p1", str(AREA_GOLDEN / "z2.pres"), "--oracle2", "abelian:0,0"],
     "--p1/--oracle2 cannot be combined with --family"),
    (["dist", "--p1", str(AREA_GOLDEN / "z2.pres"), "--oracle1", "abelian:0,0",
      "--p2", str(AREA_GOLDEN / "z2.pres"), "--oracle2", "abelian:0,0", "--i", "3"],
     "--i requires --family"),
    (["dist", "--p1", str(AREA_GOLDEN / "z2.pres"), "--p2", str(AREA_GOLDEN / "z2.pres"), "--oracle2", "abelian:0,0"],
     "--oracle1 is required for presentations with relators"),
], ids=["converge-i", "converge-i-overflow", "verify-theorem-i-overflow", "verify-theorem-i", "verify-theorem-n",
        "dehn-n", "dehn-n-negative", "dehn-n-mixed", "verify-theorem-n-negative", "verify-theorem-n-mixed", "dehn-family-and-p", "rel-ball-family-and-oracle",
        "dehn-i-without-family", "dist-family-and-files", "dist-i-without-family",
        "dist-p1-without-oracle1"])
def test_index_and_radius_parse_errors_name_the_option(argv, message, capsys):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, field", [
    (["rel-ball", "--family", "zxz", "--i", "03", "--radius", "3"], "presentation"),
    (["dehn", "--family", "zxz", "--i", "+3", "--n", "2"], "presentation"),
    (["dist", "--family", "zxz", "--i", " 3"], "p1"),
], ids=["rel-ball", "dehn", "dist"])
def test_reports_label_the_parsed_index(argv, field, capsys):
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)[field] == "zxz[3]"


def test_unknown_verdict_of_the_agreement_scan_comes_first(tmp_path, capsys):
    # The member is trivial, but its derivation oracle answers unknown past
    # length 3.  The member's Dehn table walks its ball to the largest
    # radius, 4, before the delta_i(2) search exhausts its caps.
    (tmp_path / "limit.pres").write_text("gens: a\nrels: a\n", encoding="utf-8")
    (tmp_path / "semi.json").write_text(json.dumps({
        "name": "semi",
        "valid_i": 1,
        "limit": {"presentation": "limit.pres", "oracle": "coset:10"},
        "member_template": {"presentation": "gens: a\nrels: a^$i", "oracle": "derivation:3,1000"},
    }), encoding="utf-8")
    argv = ["verify-theorem", "--family", str(tmp_path / "semi.json"), "--i", "1", "--node-cap", "1"]
    code, out, err = run_cli([*argv, "--n", "2,4"], capsys)
    assert (code, out) == (4, "")
    assert err == (
        "inconclusive: oracle 'derivation:3,1000' returned unknown for a word of length 4; "
        "raise the caps or use an exact oracle\n"
    )
    # with the largest radius 2 the walk decides every word and the search fails
    code, out, err = run_cli([*argv, "--n", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == "not found: no derivation of 'a' within caps (length 4, nodes 1); explored 1 states\n"


def test_unknown_verdict_of_the_limit_comes_at_the_limit_table(tmp_path, capsys, monkeypatch):
    # The limit is trivial, but its derivation oracle answers unknown past
    # length 3.  The member's table and K_i come first; the limit's table
    # walks to the largest radius, 4, and raises there.
    dehn_module = importlib.import_module("markedgroups.dehn")
    compute_K, computed = dehn_module.compute_K, []

    def recording_K(*args):
        computed.append(compute_K(*args))
        return computed[-1]

    monkeypatch.setattr(dehn_module, "compute_K", recording_K)
    (tmp_path / "limit.pres").write_text("gens: a\nrels: a\n", encoding="utf-8")
    (tmp_path / "semi.json").write_text(json.dumps({
        "name": "semi",
        "valid_i": 1,
        "limit": {"presentation": "limit.pres", "oracle": "derivation:3,1000"},
        "member_template": {"presentation": "gens: a\nrels: a^$i", "oracle": "coset:10"},
    }), encoding="utf-8")
    argv = ["verify-theorem", "--family", str(tmp_path / "semi.json"), "--i", "1"]
    code, out, err = run_cli([*argv, "--n", "2,4"], capsys)
    assert (code, out, computed) == (4, "", [1])
    assert err == (
        "inconclusive: oracle 'derivation:3,1000' returned unknown for a word of length 4; "
        "raise the caps or use an exact oracle\n"
    )
    # with the largest radius 2 the limit's walk decides every word
    code, out, _ = run_cli([*argv, "--n", "2", "--format", "json"], capsys)
    assert code == 0
    assert [r["ball_agreement"] for r in json.loads(out)["reports"]] == [2]

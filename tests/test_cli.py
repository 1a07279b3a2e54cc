import csv
import importlib.util
import io
import json
import multiprocessing
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import run_cli

from markedgroups.cache import ENV_VAR
from markedgroups.cli import build_parser
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


@pytest.mark.parametrize("word, fmt, fixture", [
    (word, fmt, f"{name}_cap14.{ext}")
    for name, word in (("x33", "x^3 y^3 x^-3 y^-3"), ("x24", "x^2 y^4 x^-2 y^-4"))
    for fmt, ext in (("json", "json"), ("table", "txt"), ("csv", "csv"))
])
def test_area_matches_golden_report(word, fmt, fixture, capsys, monkeypatch):
    # fixtures were captured from the splice-everything search; the
    # successor tables must reach the same states in the same order
    monkeypatch.chdir(AREA_GOLDEN)
    code, out, err = run_cli(["area", "-p", "z2.pres", "-w", word, "--length-cap", "14", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == (AREA_GOLDEN / fixture).read_text(encoding="utf-8")


def test_area_node_cap_matches_golden_error(capsys, monkeypatch):
    monkeypatch.chdir(AREA_GOLDEN)
    code, out, err = run_cli(
        ["area", "-p", "z2.pres", "-w", "x^3 y^3 x^-3 y^-3", "--length-cap", "14", "--node-cap", "3000"], capsys
    )
    assert (code, out) == (3, "")
    assert err == (AREA_GOLDEN / "x33_cap14_nodes3000.err").read_text(encoding="utf-8")


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


def test_cache_env_var(pres_dir, capsys, monkeypatch):
    cache_dir = pres_dir / "envcache"
    monkeypatch.setenv(ENV_VAR, str(cache_dir))
    code, _, _ = run_cli(["dehn", "--family", "zxz", "--i", "4", "--n", "2"], capsys)
    assert code == 0
    assert any(cache_dir.iterdir())


def test_table_format_is_default(capsys):
    code, out, _ = run_cli(["dist", "--family", "cyclicZ", "--i", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0].split() == ["kind", "lambda", "display"]


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
])
def test_verify_theorem_matches_golden_report(args, fixture, capsys):
    # fixtures were captured before values were reused across reports; reuse must not show
    code, out, err = run_cli(["verify-theorem", *args], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / fixture).read_text(encoding="utf-8")


def test_verify_theorem_matches_golden_input_error(capsys):
    code, out, err = run_cli(["verify-theorem", "--family", "dihedral", "--i", "1..3", "--n", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == (GOLDEN / "dihedral_1-3_n2.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("args, expected", [
    # zxz has L = 4, one of the radii: delta_i(L) is the entry delta_i(4)
    (["--family", "zxz", "--i", "3..6", "--n", "2,4"],
     {"dehn": 10, "compute_K": 4, "quotient_check": 4, "distance": 4, "member": 4}),
    # dihedral has L = 2: delta(4), delta(6), delta_6(4), delta_6(6), delta_6(2)
    (["--family", "dihedral", "--i", "6", "--n", "4,6", "--workers", "2"],
     {"dehn": 5, "compute_K": 1, "quotient_check": 1, "distance": 1, "member": 1}),
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

    for name in ("dehn", "compute_K", "quotient_check", "distance"):
        count(dehn_module, name, name)
    count(FamilySpec, "member", "member")
    code, _, _ = run_cli(["verify-theorem", *args], capsys)
    assert code == 0
    assert counts == expected


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
    ({**GOOD_MANIFEST, "limit": {"presentation": 5, "oracle": "abelian:0,0"}},
     "limit.presentation must be a string"),
], ids=["no_limit", "not_an_object", "unknown_placeholder", "valid_i_null", "not_a_string"])
def test_malformed_manifest_is_an_input_error(manifest, message, tmp_path, capsys):
    (tmp_path / "limit.pres").write_text("gens: x y\nrels: [x,y]\n", encoding="utf-8")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    code, out, err = run_cli(["converge", "--family", str(path), "--i", "3"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    # the well-formed manifest in the same place works
    path.write_text(json.dumps(GOOD_MANIFEST), encoding="utf-8")
    assert run_cli(["converge", "--family", str(path), "--i", "3"], capsys)[0] == 0


@pytest.mark.parametrize("workers", ["-3", "0"])
def test_workers_below_one_is_an_input_error(workers, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["dehn", "--family", "zxz", "--i", "3", "--n", "2", "--workers", workers], capsys)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--workers: must be at least 1, got {workers}" in captured.err


@pytest.mark.parametrize("spec, message", [
    ("product:x=abelian:0;q=abelian:0",
     "oracle spec 'product:x=abelian:0;q=abelian:0': unknown generator 'q' (the presentation has x, y)"),
    ("derivation:5",
     "oracle spec 'derivation:5': derivation takes two integers 'length_cap,node_cap', got '5'"),
    ("abelian:x",
     "oracle spec 'abelian:x': abelian takes one integer order per generator, got 'x'"),
    ("coset:abc",
     "oracle spec 'coset:abc': coset takes one integer 'max_cosets', got 'abc'"),
], ids=["unknown_generator", "derivation_one_field", "abelian_not_an_integer", "coset_not_an_integer"])
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
def test_one_pool_per_command(command, workers, pools, opened_pools, tmp_path, capsys):
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
    assert len(opened_pools) == 1 and started_processes == []


@pytest.mark.parametrize("argv, fixture", [
    (["verify-theorem", "--family", "dihedral", "--i", "6", "--n", "4,6"], "dihedral_6_n4-6_w2.txt"),
    (["verify-theorem", "--family", "zxz", "--i", "3..6", "--n", "2,4", "--format", "json"],
     "zxz_3-6_n2-4.json"),
    (["dehn", "--family", "zxz", "--i", "3", "--n", "4,6,8", "--format", "json"],
     "dehn_zxz_3_n4-6-8.json"),
], ids=["verify-theorem-dihedral", "verify-theorem-zxz", "dehn-zxz"])
@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_report_bytes_do_not_depend_on_workers(argv, fixture, workers, capsys):
    code, out, err = run_cli([*argv, "--workers", workers], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / fixture).read_text(encoding="utf-8")


def test_failed_search_leaves_no_worker_running(capsys):
    code, out, err = run_cli(
        ["verify-theorem", "--family", "zxz", "--i", "3..4", "--n", "4", "--node-cap", "3",
         "--workers", "2"], capsys
    )
    assert (code, out) == (3, "")
    assert err.startswith("not found: area search exhausted caps")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", sorted(POOL_COMMANDS))
def test_dead_worker_is_exit_6(command, monkeypatch, capsys):
    # under fork the workers inherit the patched search
    monkeypatch.setattr(importlib.import_module("markedgroups.dehn"), "_area_value", _exit_worker)
    code, out, err = run_cli([*POOL_COMMANDS[command], "--workers", "2"], capsys)
    assert (code, out) == (6, "")
    assert err.startswith("error: a --workers process died: ") and err.count("\n") == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv, message", [
    (["converge", "--family", "zxz", "--i", "a..5"], "--i 'a..5': expected an integer or a range A..B"),
    (["verify-theorem", "--family", "zxz", "--i", "3,x", "--n", "2"],
     "--i '3,x': expected an integer or a range A..B"),
    (["verify-theorem", "--family", "zxz", "--i", "3", "--n", "2,x"],
     "--n '2,x': expected comma-separated integers"),
    (["dehn", "--family", "zxz", "--i", "3", "--n", "4.5"], "--n '4.5': expected comma-separated integers"),
], ids=["converge-i", "verify-theorem-i", "verify-theorem-n", "dehn-n"])
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
    # length 3.  The agreement scan runs to the largest radius, 4, at the
    # member's first report, before the delta_i(2) search exhausts its caps.
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
    # with the largest radius 2 the scan decides every word and the search fails
    code, out, err = run_cli([*argv, "--n", "2"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("not found: area search exhausted caps")

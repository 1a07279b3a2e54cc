"""markedgroups benchmark: CLI workloads with checked answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition runs the workload's job
list (workloads.py) in a fresh interpreter (child.py) with
MARKEDGROUPS_CACHE_DIR removed and a new empty --cache-dir, so no result
cache or lru_cache carries over.  Repetitions continue while the next
one is expected to end within S seconds, with at least three.  Every
job's answer is checked (checks.py); a nonzero exit, an exception or a
wrong answer counts as a failed operation.

--trace 0 reports the end-to-end metrics as medians over repetitions.
--trace 1 alternates untraced and traced repetitions (at least two of
each) and reports the per-layer metrics of tracing.py as medians over
the traced ones, with trace.overhead_s the difference of the two
medians; it also checks that the exact counters repeat between traced
repetitions.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

from checks import Checker  # noqa: E402
from workloads import WORKLOADS, SignedPerm, jobs  # noqa: E402

MIN_REPS = 3
MIN_TRACED = 2
START_LIMIT_S = 110  # no repetition starts later than this ...
KILL_LIMIT_S = 165  # ... and none outlives this, so a run ends within 180 s

# Names, units and better-directions of the metrics are BENCHMARK.json's.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Per-layer metric -> the end-to-end metric and workload it should move
# (BENCHMARK.json has no key for this).  Times are inclusive unless named
# self_s; decide_s.<kind> excludes nested decides of product components.
LAYER_METRICS = {
    "area.searches": "wall_s on dehn_sweep, area_deep, theorem_harness",
    "area.search_s": "wall_s on dehn_sweep, area_deep, theorem_harness",
    "area.states": "wall_s on dehn_sweep, area_deep, theorem_harness",
    "area.states_max": "wall_s and peak_rss_mb on area_deep",
    "area.states_per_s": "wall_s on dehn_sweep, area_deep",
    "area.not_found": "ops_failed anywhere (predicted 0)",
    "area.verify_s": "wall_s on dehn_sweep, area_deep",
    "area.worker_searches": "wall_s on theorem_harness",
    "area.pool_wait_s": "wall_s on theorem_harness",
    "presentations.symmetrize_calls": "wall_s on dehn_sweep, theorem_harness",
    "presentations.symmetrize_s": "wall_s on dehn_sweep, theorem_harness",
    "oracles.decide_calls.abelian": "wall_s on ball_scan (predicted 0 on area_deep)",
    "oracles.decide_calls.coset": "wall_s on ball_scan",
    "oracles.decide_calls.rewriting": "wall_s on ball_scan",
    "oracles.decide_calls.product": "wall_s on ball_scan",
    "oracles.decide_s.abelian": "wall_s on ball_scan",
    "oracles.decide_s.coset": "wall_s on ball_scan",
    "oracles.decide_s.rewriting": "wall_s on ball_scan",
    "oracles.decide_s.product": "wall_s on ball_scan",
    "words.walked": "wall_s on ball_scan",
    "space.distance_calls": "wall_s on ball_scan, theorem_harness",
    "space.distance_s": "wall_s on ball_scan, theorem_harness",
    "space.rel_ball_s": "wall_s on ball_scan",
    "space.self_s": "wall_s on ball_scan, a little on theorem_harness",
    "dehn.calls": "wall_s on theorem_harness",
    "dehn.distinct_calls": "wall_s on theorem_harness",
    "dehn.repeat_share": "wall_s on theorem_harness",
    "dehn.self_s": "wall_s on theorem_harness",
    "dehn.pools": "wall_s on theorem_harness",
    "dehn.compute_K_s": "wall_s on theorem_harness",
    "families.builds": "wall_s on theorem_harness",
    "families.build_s": "wall_s on theorem_harness",
    "coset.enumerate_calls": "wall_s on theorem_harness",
    "coset.enumerate_s": "wall_s on theorem_harness",
    "coset.cosets": "wall_s on theorem_harness",
    "cache.gets": "wall_s on dehn_sweep",
    "cache.hits": "wall_s on dehn_sweep, theorem_harness once it uses the cache",
    "cache.puts": "wall_s on dehn_sweep",
    "cache.put_s": "wall_s on dehn_sweep",
    "cli.self_s": "wall_s on ball_scan",
    "trace.wall_s": "traced wall_s, the base of every layer share",
    "trace.overhead_s": "none: median traced minus median untraced wall_s",
}
assert list(LAYER_METRICS) == [m["name"] for m in SPEC["per_layer"]], "LAYER_METRICS and BENCHMARK.json disagree"


class RepFailed(RuntimeError):
    """A repetition's interpreter did not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MARKEDGROUPS_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def warm_up() -> None:
    """Import everything once, untimed, so the bytecode caches that every
    user run reads exist; fails fast when the package cannot run."""
    code = "import markedgroups.cli, child, tracing"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=child_env(),
                          capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise RepFailed(proc.stderr.decode(errors="replace").strip()[-2000:])


def run_rep(workload: str, seed: int, rep_dir: Path, trace_file: Path | None, deadline: float) -> dict:
    env = child_env()
    rep_dir.mkdir(parents=True)
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(rep_dir)]
    if trace_file is not None:
        argv.append(str(trace_file))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed("repetition timed out")
    result_file = rep_dir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        raise RepFailed(err.decode(errors="replace").strip()[-2000:] or f"exit {proc.returncode}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    shutil.rmtree(rep_dir)
    result["setup_s"] = result["ready"] - start
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "markedgroups" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    deadline = t0 + KILL_LIMIT_S
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    sigma = SignedPerm.draw(args.seed)
    checker = Checker(sigma)
    job_list = jobs(args.workload, sigma, run_dir)
    print(f"workload {args.workload}, seed {args.seed}: generator map {sigma}, {len(job_list)} jobs")

    try:
        warm_up()
    except RepFailed as exc:
        print(f"error: the package does not run: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    plain, traced = [], []
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"

    def one(traced_rep: bool) -> float:
        nonlocal attempted, failed
        start = time.perf_counter()
        rep_dir = run_dir / f"rep{len(plain) + len(traced)}"
        attempted += len(job_list)
        try:
            result = run_rep(args.workload, args.seed, rep_dir, trace_file if traced_rep else None, deadline)
        except RepFailed as exc:
            failed += len(job_list)
            print(f"  repetition failed: {exc}")
            return time.perf_counter() - start
        for job, outcome in zip(job_list, result["jobs"]):
            try:
                problems = checker.check(job, outcome)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"malformed answer: {exc!r}"]
            if problems:
                failed += 1
                print(f"  FAILED {job.argv[0]}: {'; '.join(problems)}")
        (traced if traced_rep else plain).append(result)
        print(f"  {'traced' if traced_rep else 'plain '} wall {result['wall_s']:.4f} s, "
              f"setup {result['setup_s']:.4f} s, peak {result['peak_rss_mb']:.1f} MB, jobs "
              + " ".join(f"{o['seconds']:.3f}" for o in result["jobs"]))
        return time.perf_counter() - start

    def more(step_s: float, done: int, minimum: int) -> bool:
        now = time.perf_counter()
        if now - t0 > START_LIMIT_S:
            return False
        return done < minimum or now - t0 + step_s <= args.seconds

    if args.trace == 0:
        step = one(False)
        while more(step, len(plain), MIN_REPS):
            step = one(False)
    else:
        step = one(False) + one(True)
        while more(step, len(traced), MIN_TRACED):
            step = one(False) + one(True)

    shutil.rmtree(run_dir, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print("error: no repetition produced a result", file=sys.stderr)
        return 1
    correct = failed == 0
    metrics = {}
    if args.trace == 0:
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            metrics[name] = {"value": statistics.median([r[name] for r in plain]), "unit": spec["unit"]}
        print(f"medians over {len(plain)} repetitions")
    else:
        counters = [name for name in LAYER_METRICS if UNITS[name] == "count"]
        first = traced[0]["layers"]
        for other in traced[1:]:
            moved = [n for n in counters if n in first and other["layers"][n] != first[n]]
            if moved:
                correct = False
                print(f"  exact counters differ between traced repetitions: {moved}")
        layers = {name: statistics.median([r["layers"][name] for r in traced]) for name in first}
        layers["trace.wall_s"] = statistics.median([r["wall_s"] for r in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median([r["wall_s"] for r in plain])
        for name in LAYER_METRICS:
            metrics[name] = {"value": layers[name], "unit": UNITS[name]}
        print(f"medians over {len(traced)} traced and {len(plain)} untraced repetitions; spans in {trace_file}")
        self_s = {k: statistics.median([r["layer_self_s"].get(k, 0.0) for r in traced]) for k in traced[0]["layer_self_s"]}
        for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  self {layer:<14} {seconds:8.4f} s  {seconds / layers['trace.wall_s']:6.1%} of traced wall_s")
        if layers["area.worker_searches"]:
            from tracing import POOL_HIDDEN

            print(f"  not observable: {', '.join(POOL_HIDDEN)} cover only the in-process searches; "
                  f"{int(layers['area.worker_searches'])} searches ran in pool workers")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

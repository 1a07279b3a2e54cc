"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED WORKDIR [TRACE_FILE]

Imports the package, writes the seeded input files into WORKDIR, runs
the job list through ``markedgroups.cli.main`` with stdout and stderr
captured, and writes WORKDIR/result.json for run.py to check.  With
TRACE_FILE the layer wrappers are installed first and the spans are
written there at the end.  Time stamps are ``time.perf_counter``, which
is the system-wide monotonic clock on Linux, so run.py can subtract its
own spawn time from ``ready``.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    trace_file = sys.argv[4] if len(sys.argv) > 4 else None
    importlib.import_module("markedgroups")
    cli = importlib.import_module("markedgroups.cli")
    sigma = workloads.SignedPerm.draw(seed)
    for name, text in workloads.input_texts(sigma).items():
        (workdir / name).write_text(text, encoding="utf-8")
    job_list = workloads.jobs(workload, sigma, workdir)
    ready = time.perf_counter()

    tracer = None
    if trace_file:
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tracer.install()

    outcomes = []
    for index, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        outcomes.append({"exit": code, "error": error, "seconds": seconds,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall = sum(o["seconds"] for o in outcomes)

    # Pool workers are waited-for children, so RUSAGE_CHILDREN covers them.
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"ready": ready, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "jobs": outcomes}
    if tracer is not None:
        tracer.dump(trace_file)
        result["layers"] = tracer.metrics()
        result["layer_self_s"] = tracer.layer_self_s()
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

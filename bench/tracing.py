"""Per-layer timing from outside the package.

The tracer replaces public functions with timing wrappers where the
calling modules bind them, so no file of the package changes.  Coarse
boundaries (CLI commands, family builds, coset enumeration, ball walks,
Dehn tables, area searches, cache access) are recorded as spans with a
name, start, end, parent and job id.  The per-word ``Oracle.decide``
boundary sees hundreds of thousands of calls, so it keeps only counts
and times.  Everything stays in memory until :meth:`Tracer.dump`.

A span's self time is its duration minus the time its child spans and
decides cover.  Area searches that run in pool workers (``--workers`` >
1) are outside this process: only their number and the time spent
waiting on the pool are observable here.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

perf = time.perf_counter

# Span name -> package module (layer) it belongs to.
SPAN_LAYER = {
    "cli.main": "cli",
    "FamilySpec.member": "families",
    "FamilySpec.limit": "families",
    "coset_enumerate": "coset",
    "distance": "space",
    "rel_ball": "space",
    "dehn": "dehn",
    "compute_K": "dehn",
    "theorem_check": "dehn",
    "corollary_check": "dehn",
    "area_search": "area",
    "verify_certificate": "area",
    "pool.map": "area",
    "symmetrize": "presentations",
    "ResultCache.get": "cache",
    "ResultCache.put": "cache",
}

DECIDE_KINDS = {
    "AbelianOracle": "abelian",
    "CosetTableOracle": "coset",
    "RewritingOracle": "rewriting",
    "ProductOracle": "product",
    "FreeOracle": "free",
    "BoundedDerivationOracle": "derivation",
}
REPORTED_KINDS = ("abelian", "coset", "rewriting", "product")

# Spans whose direct decides are the walks over reduced words.
WALKS = frozenset({"distance", "rel_ball", "dehn"})

# Metrics that are not observable when the area searches run in pool
# workers; the traced run names them instead of estimating them.
POOL_HIDDEN = (
    "area.search_s", "area.states", "area.states_max", "area.states_per_s",
    "area.not_found", "area.verify_s", "presentations.symmetrize_calls",
    "presentations.symmetrize_s",
)


class Tracer:
    def __init__(self) -> None:
        self.job = 0
        self.next_id = 0
        # Open frames: [span id (None for a decide), name, start, covered, parent span id].
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.dur: Counter = Counter()
        self.self_time: Counter = Counter()
        self.dehn_keys: set = set()

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result, exc)`` records counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [sid, name, perf(), 0.0, parent]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((tracer.job, sid, parent, name, frame[2], end, own))
                tracer.counts[name] += 1
                tracer.dur[name] += duration
                tracer.self_time[name] += own
                if after is not None:
                    after(args, result, exc)

        return wrapper

    def decide(self, kind, fn):
        stack = self.stack
        counts = self.counts
        self_time = self.self_time

        @functools.wraps(fn)
        def wrapper(oracle, w):
            frame = [None, kind, 0.0, 0.0, None]
            stack.append(frame)
            start = perf()
            try:
                return fn(oracle, w)
            finally:
                duration = perf() - start
                stack.pop()
                counts["decide." + kind] += 1
                self_time["decide." + kind] += duration - frame[3]
                if stack:
                    top = stack[-1]
                    top[3] += duration
                    if top[0] is not None and top[1] in WALKS:
                        counts["words.walked"] += 1

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name where the calling modules bind it."""
        # importlib, because ``import markedgroups.dehn as D`` yields the
        # dehn *function*: the package __init__ rebinds that name.
        mod = {name: importlib.import_module(f"markedgroups.{name}")
               for name in ("area", "cache", "cli", "dehn", "families", "oracles", "space")}
        counts = self.counts

        def rebind(name, wrapped, *modules):
            for m in modules:
                setattr(mod[m], name, wrapped)

        def after_area(args, result, exc):
            stats = getattr(result if exc is None else exc, "stats", None)
            if stats is not None:
                counts["area.states"] += stats.states_explored
                counts["area.states_max"] = max(counts["area.states_max"], stats.states_explored)
            if isinstance(exc, mod["area"].AreaNotFound):
                counts["area.not_found"] += 1

        def after_coset(args, result, exc):
            if result is not None:
                counts["coset.cosets"] += result.cosets

        def after_dehn(args, result, exc):
            pres, oracle, n, caps = args[:4]
            self.dehn_keys.add((pres.to_text(), oracle.spec, n, tuple(caps)))

        def after_get(args, result, exc):
            if result is not None:
                counts["cache.hits"] += 1

        rebind("main", self.span("cli.main", mod["cli"].main), "cli")
        spec = mod["families"].FamilySpec
        spec.member = self.span("FamilySpec.member", spec.member)
        spec.limit = self.span("FamilySpec.limit", spec.limit)
        rebind("coset_enumerate", self.span("coset_enumerate", mod["oracles"].coset_enumerate, after_coset), "oracles")
        rebind("distance", self.span("distance", mod["space"].distance), "space", "cli", "dehn")
        rebind("rel_ball", self.span("rel_ball", mod["space"].rel_ball), "space", "cli")
        rebind("dehn", self.span("dehn", mod["dehn"].dehn, after_dehn), "dehn", "cli")
        rebind("compute_K", self.span("compute_K", mod["dehn"].compute_K), "dehn")
        rebind("theorem_check", self.span("theorem_check", mod["dehn"].theorem_check), "dehn", "cli")
        rebind("corollary_check", self.span("corollary_check", mod["dehn"].corollary_check), "dehn", "cli")
        rebind("area_search", self.span("area_search", mod["area"].area_search, after_area),
               "area", "dehn", "cli", "oracles")
        rebind("symmetrize", self.span("symmetrize", mod["area"].symmetrize), "area")
        rebind("verify_certificate", self.span("verify_certificate", mod["area"].verify_certificate), "area")
        cache = mod["cache"].ResultCache
        cache.get = self.span("ResultCache.get", cache.get, after_get)
        cache.put = self.span("ResultCache.put", cache.put)
        for cls_name, kind in DECIDE_KINDS.items():
            cls = getattr(mod["oracles"], cls_name)
            cls.decide = self.decide(kind, cls.decide)
        mod["dehn"].ProcessPoolExecutor = self._counting_pool(mod["dehn"].ProcessPoolExecutor)

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            """Counts pools and the searches sent to them; times the wait."""

            def __init__(self, *args, **kwargs):
                tracer.counts["dehn.pools"] += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tracer.counts["area.worker_searches"] += len(iterables[0])
                run = tracer.span("pool.map", lambda: list(base.map(self, fn, *iterables, **kwargs)))
                return iter(run())

        return CountingPool

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (units in BENCHMARK.json)."""
        c, d, s = self.counts, self.dur, self.self_time
        out = {
            "cli.self_s": s["cli.main"],
            "families.builds": c["FamilySpec.member"] + c["FamilySpec.limit"],
            "families.build_s": d["FamilySpec.member"] + d["FamilySpec.limit"],
            "coset.enumerate_calls": c["coset_enumerate"],
            "coset.enumerate_s": d["coset_enumerate"],
            "coset.cosets": c["coset.cosets"],
            "presentations.symmetrize_calls": c["symmetrize"],
            "presentations.symmetrize_s": d["symmetrize"],
            "words.walked": c["words.walked"],
            "space.distance_calls": c["distance"],
            "space.distance_s": d["distance"],
            "space.rel_ball_s": d["rel_ball"],
            "space.self_s": s["distance"] + s["rel_ball"],
            "area.searches": c["area_search"],
            "area.search_s": d["area_search"],
            "area.states": c["area.states"],
            "area.states_max": c["area.states_max"],
            "area.states_per_s": c["area.states"] / d["area_search"] if d["area_search"] else 0.0,
            "area.not_found": c["area.not_found"],
            "area.verify_s": d["verify_certificate"],
            "area.worker_searches": c["area.worker_searches"],
            "area.pool_wait_s": d["pool.map"],
            "dehn.calls": c["dehn"],
            "dehn.distinct_calls": len(self.dehn_keys),
            "dehn.repeat_share": 1 - len(self.dehn_keys) / c["dehn"] if c["dehn"] else 0.0,
            "dehn.self_s": sum(s[n] for n in ("dehn", "compute_K", "theorem_check", "corollary_check")),
            "dehn.pools": c["dehn.pools"],
            "dehn.compute_K_s": d["compute_K"],
            "cache.gets": c["ResultCache.get"],
            "cache.hits": c["cache.hits"],
            "cache.puts": c["ResultCache.put"],
            "cache.put_s": d["ResultCache.put"],
        }
        for kind in REPORTED_KINDS:
            out[f"oracles.decide_calls.{kind}"] = c["decide." + kind]
            out[f"oracles.decide_s.{kind}"] = s["decide." + kind]
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self time per package module; sums to the traced CLI time."""
        out: Counter = Counter()
        for name, own in self.self_time.items():
            layer = "oracles" if name.startswith("decide.") else SPAN_LAYER[name]
            out[layer] += own
        return dict(out)

    def dump(self, path) -> None:
        fields = ("job", "id", "parent", "name", "start", "end", "self")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [dict(zip(fields, span)) for span in self.spans],
                    "decides": {k: {"calls": self.counts[k], "self_s": self.self_time[k]}
                                for k in self.counts if k.startswith("decide.")},
                    "layer_self_s": self.layer_self_s(),
                    "metrics": self.metrics(),
                },
                handle,
            )

"""Command-line front end.

Subcommands: area, dehn, rel-ball, dist, converge, verify-theorem.
Each takes --format table|json|csv, --cache-dir (read only by dehn; no
cache without it) and only the options it reads: --length-cap and
--node-cap (area, dehn, verify-theorem), --workers (dehn,
verify-theorem), --lambda-max (dist, converge).  Each option is
declared once, in ``_OPTIONS``, and each subcommand once, in
``_COMMANDS``, which both ``build_parser`` and ``main`` read; ``main``
gives options only to the subcommand it runs.  Integer
options are bounded by their type: --node-cap and --workers are at
least 1, --radius and --lambda-max at least 0, and a smaller value is
a parse error that names the flag.

dehn, rel-ball and dist name each group in one of two ways: a
presentation file with an oracle spec, which defaults to free for a
file without relators, or --family with one index --i, which gives the
member and, for dist's second group, the limit.

Exit codes: 0 success; 2 input or parse error, including a path that
cannot be read and a file that cannot be decoded; 3 area not found
within caps; 4 unknown oracle verdict; 5 a checked inequality failed
(which would mean an implementation bug); 6 a worker process of
--workers died; 141 (128 + SIGPIPE) the reader closed stdout early,
which prints nothing more.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .area import AreaNotFound, Caps, area_search
from .cache import ResultCache
from .dehn import POOL_STATES, WorkerDied, dehn, verify_family, worker_pool
from .families import get_family
from .oracles import UnknownVerdictError, build_oracle
from .presentations import Presentation, max_relator_length, parse_word, read_presentation
from .space import convergence_report, distance, rel_ball

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_FOUND = 3
EXIT_UNKNOWN_VERDICT = 4
EXIT_VERDICT_FAILED = 5
EXIT_WORKER_DIED = 6
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, refused with the flag named."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


# dest -> (flags, add_argument settings); a subcommand makes an option required in _COMMANDS
_OPTIONS = {
    "presentation": (("-p", "--presentation"), dict(help="presentation file")),
    "word": (("-w", "--word"), dict(help="word expression")),
    "p1": (("-p1", "--p1"), dict(help="first presentation file")),
    "oracle1": (("--oracle1",), dict(help="oracle spec for the first group")),
    "p2": (("-p2", "--p2"), dict(help="second presentation file")),
    "oracle2": (("--oracle2",), dict(help="oracle spec for the second group")),
    "oracle": (("--oracle",), dict(help="oracle spec, e.g. abelian:0,5")),
    "family": (("--family",), dict(help="built-in family name or manifest path")),
    "i": (("--i",), dict(help="family index; converge and verify-theorem take a range like 3..7 or a comma list")),
    "n": (("--n",), dict(help="comma-separated radii, e.g. 2,4,6")),
    "radius": (("--radius",), dict(type=_int_at_least(0), help="largest word length in the ball")),
    "format": (("--format",), dict(choices=("table", "json", "csv"), default="table")),
    "cache_dir": (("--cache-dir",), dict(help="result cache directory, off when not given; only dehn reads it")),
    "length_cap": (("--length-cap",), dict(type=int, help="max intermediate word length in area searches")),
    "node_cap": (("--node-cap",), dict(type=_int_at_least(1), default=1_000_000,
                                       help="max states explored per area search")),
    "workers": (("--workers",), dict(
        type=_int_at_least(1), default=1,
        help="worker processes for per-word area searches, started only once the command's "
             f"searches have explored {POOL_STATES:,} states in process; output does not depend on it",
    )),
    "lambda_max": (("--lambda-max",), dict(type=_int_at_least(0), default=10,
                                          help="largest radius scanned for ball agreement")),
}


def _parse_indices(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            indices = list(range(int(lo), int(hi) + 1))
        else:
            indices = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--i {text!r}: expected an integer or a range A..B") from None
    except OverflowError:
        raise ValueError(f"--i {text!r}: the range is too long to list") from None
    if not indices:
        raise ValueError(f"--i {text!r} selects no index; give a range lo..hi with lo <= hi or a list")
    return indices


def _parse_radii(text: str) -> list[int]:
    try:
        radii = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--n {text!r}: expected comma-separated integers") from None
    if not radii:
        raise ValueError(f"--n {text!r} gives no radius; give a comma-separated list such as 2,4")
    if min(radii) < 0:
        raise ValueError(f"--n {text!r}: radii must be nonnegative")
    return radii


def _groups(args, *files) -> list[tuple[Presentation, object, str]]:
    """One (presentation, oracle, label) per ``files`` entry, a (file flag, path, oracle flag, spec) tuple.

    With --family the groups are the member named by --i, then the limit
    (for a second entry), and no file or oracle flag may be given.
    Otherwise each entry loads its file; a file without relators takes
    the free oracle unless a spec is given.
    """
    if args.family:
        given = [flag for file_flag, path, oracle_flag, spec in files
                 for flag, value in ((file_flag, path), (oracle_flag, spec)) if value is not None]
        if given:
            raise ValueError(f"{'/'.join(given)} cannot be combined with --family")
        if args.i is None:
            raise ValueError("--family requires --i")
        family = get_family(args.family)
        try:
            i = int(args.i)
        except ValueError:
            raise ValueError(f"--i {args.i!r}: {args.command} takes one integer index") from None
        groups = [(*family.member(i), f"{family.name}[{i}]")]
        if len(files) > 1:
            groups.append((*family.limit(), f"{family.name}[limit]"))
        return groups
    if args.i is not None:
        raise ValueError("--i requires --family")
    groups = []
    for file_flag, path, oracle_flag, spec in files:
        if not path:
            raise ValueError(f"give either {file_flag} FILE or --family NAME --i K")
        pres = read_presentation(path)
        if not spec and pres.relators:
            raise ValueError(f"{oracle_flag} is required for presentations with relators")
        groups.append((pres, build_oracle(spec or "free", pres), path))
    return groups


def _default_length_cap(args, floor: int, pres: Presentation) -> int:
    if args.length_cap is not None:
        if args.length_cap < floor:
            raise ValueError(f"--length-cap must be at least {floor}")
        return args.length_cap
    L = max_relator_length(pres) or 0
    return max(floor + 2 * L, 4)


def _render_table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[k]) for r in cells)) if cells else len(h) for k, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[k].ljust(widths[k]) for k in range(len(headers))))
    return "\n".join(lines)


def _render_csv(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit(args, payload: dict, headers: list[str], rows: list[list], footer: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(_render_csv(headers, rows))
    else:
        print(_render_table(headers, rows))
        if footer:
            print(footer)


def cmd_area(args) -> int:
    pres = read_presentation(args.presentation)
    w = parse_word(args.word, pres.gen_names)
    length_cap = _default_length_cap(args, len(w), pres)
    result = area_search(pres, w, length_cap, args.node_cap)
    payload = {
        "presentation": args.presentation,
        "word": pres.word_str(w),
        **result.to_json(pres),
    }
    cert_text = "; ".join(
        f"{entry['conjugator']} * r{entry['relator']}^{entry['sign']}" for entry in payload["certificate"]
    )
    _emit(
        args,
        payload,
        ["value", "exact", "states_explored", "certificate"],
        [[result.value, True, result.stats.states_explored, cert_text or "-"]],
    )
    return EXIT_OK


def _is_dehn_row(hit, n: int) -> bool:
    """True iff a cache hit has the shape of :meth:`DehnValue.to_json` for radius n."""
    return (
        isinstance(hit, dict)
        and set(hit) == {"n", "value", "exact", "witnesses"}
        and type(hit["n"]) is int
        and hit["n"] == n
        and type(hit["value"]) is int
        and hit["exact"] is True
        and isinstance(hit["witnesses"], list)
        and all(isinstance(w, str) for w in hit["witnesses"])
    )


def cmd_dehn(args) -> int:
    [(pres, oracle, label)] = _groups(args, ("-p", args.presentation, "--oracle", args.oracle))
    radii = _parse_radii(args.n)
    length_cap = _default_length_cap(args, max(radii), pres)
    caps = Caps(length_cap, args.node_cap)
    cache = ResultCache(args.cache_dir)
    # keys are plain text, cheap enough to build whether or not a cache is given
    text = pres.to_text()
    keys = {
        n: ResultCache.make_key(op="dehn", presentation=text, oracle=oracle.spec, n=n,
                                length_cap=caps.length_cap, node_cap=caps.node_cap, version=__version__)
        for n in radii
    }
    rows = {n: cache.get(key) for n, key in keys.items()}
    missing = [n for n, hit in rows.items() if not _is_dehn_row(hit, n)]
    with worker_pool(args.workers) as fan_out:
        if missing:
            table = dehn(pres, oracle, max(missing), caps, fan_out)
            for n in missing:
                rows[n] = table.at(n).to_json(pres)
                cache.put(keys[n], rows[n])
    payload = {
        "presentation": label,
        "oracle": oracle.spec,
        "caps": {"length_cap": caps.length_cap, "node_cap": caps.node_cap},
        "rows": [rows[n] for n in radii],
    }
    table_rows = [
        [row["n"], row["value"], row["exact"], " | ".join(row["witnesses"][:4]) or "-"]
        for row in payload["rows"]
    ]
    _emit(args, payload, ["n", "value", "exact", "witnesses"], table_rows)
    return EXIT_OK


def cmd_rel_ball(args) -> int:
    [(pres, oracle, label)] = _groups(args, ("-p", args.presentation, "--oracle", args.oracle))
    ball = rel_ball(pres, oracle, args.radius)
    payload = {"presentation": label, "oracle": oracle.spec, **ball.to_json(pres)}
    rows = [[word] for word in payload["members"]]
    _emit(args, payload, ["member"], rows, footer=f"{payload['count']} members at radius {args.radius}")
    return EXIT_OK


def cmd_dist(args) -> int:
    (pres1, oracle1, label1), (pres2, oracle2, label2) = _groups(
        args, ("--p1", args.p1, "--oracle1", args.oracle1), ("--p2", args.p2, "--oracle2", args.oracle2)
    )
    d = distance(pres1, oracle1, pres2, oracle2, args.lambda_max)
    payload = {"p1": label1, "p2": label2, **d.to_json()}
    _emit(args, payload, ["kind", "lambda", "display"], [[d.kind, d.lam, f"{d.display:.6g}"]])
    return EXIT_OK


def cmd_converge(args) -> int:
    family = get_family(args.family)
    report = convergence_report(family, _parse_indices(args.i), args.lambda_max)
    payload = report.to_json()
    rows = [[row["i"], row["kind"], row["lambda"], f"{row['display']:.6g}"] for row in payload["rows"]]
    footer = f"lambda non-decreasing: {payload['lambda_non_decreasing']}"
    _emit(args, payload, ["i", "kind", "lambda", "display"], rows, footer=footer)
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    family = get_family(args.family)
    indices = _parse_indices(args.i)
    radii = _parse_radii(args.n)
    L = max_relator_length(family.limit_pres)
    floor = max(radii + [L or 0])
    length_cap = _default_length_cap(args, floor, family.limit_pres)
    caps = Caps(length_cap, args.node_cap)
    with worker_pool(args.workers) as fan_out:
        reports, corollaries = verify_family(family, indices, radii, caps, fan_out)
    failed = any(not r.all_pass for r in reports) or any(not c.all_pass for c in corollaries)
    status = "failed" if failed else "verified"
    payload = {
        "family": family.name,
        "L": L,
        "caps": {"length_cap": caps.length_cap, "node_cap": caps.node_cap},
        "reports": [r.to_json() for r in reports],
        "corollary": [c.to_json() for c in corollaries],
        "summary": {
            "status": status,
            "applicable": sum(1 for r in reports if r.applicable),
            "checked": len(reports),
        },
    }

    def mark(flag):
        return "-" if flag is None else ("ok" if flag else "FAIL")

    rows = [
        [
            r.i,
            r.n,
            r.ball_agreement,
            r.delta_i_n,
            r.delta_n,
            r.K_i,
            r.delta_i_L,
            r.ratio or "-",
            mark(r.inequality_star_ok),
            mark(r.k_le_delta_L_ok),
            mark(r.ratio_le_delta_ok),
            "yes" if r.applicable else "no",
        ]
        for r in reports
    ]
    footer = (
        f"summary: {status} "
        f"({payload['summary']['applicable']}/{payload['summary']['checked']} reports applicable; "
        f"values are exact within caps {caps.length_cap}/{caps.node_cap})"
    )
    _emit(
        args,
        payload,
        ["i", "n", "agree", "d_i(n)", "d(n)", "K_i", "d_i(L)", "ratio", "star", "K<=d_i(L)", "ratio<=d(n)", "applies"],
        rows,
        footer=footer,
    )
    return EXIT_VERDICT_FAILED if failed else EXIT_OK


# name -> (handler, help, required options, every option in usage order)
_COMMANDS = {
    "area": (cmd_area, "area of a word with a verifiable certificate", ("presentation", "word"),
             ("presentation", "word", "format", "cache_dir", "length_cap", "node_cap")),
    "dehn": (cmd_dehn, "Dehn-function table over a list of radii", ("n",),
             ("presentation", "oracle", "family", "i", "n", "format", "cache_dir", "length_cap", "node_cap", "workers")),
    "rel-ball": (cmd_rel_ball, "relation ball of one marked group", ("radius",),
                 ("presentation", "oracle", "family", "i", "radius", "format", "cache_dir")),
    "dist": (cmd_dist, "distance between two marked groups", (),
             ("p1", "oracle1", "p2", "oracle2", "family", "i", "format", "cache_dir", "lambda_max")),
    "converge": (cmd_converge, "distance of each family member to the limit", ("family", "i"),
                 ("family", "i", "format", "cache_dir", "lambda_max")),
    "verify-theorem": (cmd_verify_theorem, "check the convergence inequalities member by member", ("family", "i", "n"),
                       ("family", "i", "n", "format", "cache_dir", "length_cap", "node_cap", "workers")),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand is registered, so the top-level
    help and the invalid-choice error list all six, but only the one ``argv``
    invokes gets its options.  That is its first token not starting with '-',
    which is the token argparse dispatches on, since no top-level option takes
    a value.  Without ``argv`` every subcommand gets its options."""
    invoked = None if argv is None else next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="markedgroups",
        description="Relation balls, marked-group distances, word areas and Dehn tables.",
    )
    parser.add_argument("--version", action="version", version=f"markedgroups {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, required, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if argv is not None and name != invoked:
            continue
        for dest in options:
            flags, settings = _OPTIONS[dest]
            command.add_argument(*flags, required=dest in required, **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        code = handler(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # a reader such as `head` closed the pipe: not an input error; stdout
        # goes to devnull so the flush at shutdown fails neither loudly nor again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AreaNotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except UnknownVerdictError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_VERDICT
    except WorkerDied as exc:
        print(f"error: a --workers process died: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED


if __name__ == "__main__":
    sys.exit(main())

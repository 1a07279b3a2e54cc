"""Command-line front end.

Subcommands: area, dehn, rel-ball, dist, converge, verify-theorem.
Each takes --format table|json|csv, --cache-dir (read only by dehn; no
cache without it) and only the options it reads: --length-cap and
--node-cap (area, dehn, verify-theorem), --workers (dehn,
verify-theorem), --lambda-max (dist, converge).

dehn, rel-ball and dist name each group in one of two ways: a
presentation file with an oracle spec, which defaults to free for a
file without relators, or --family with one index --i, which gives the
member and, for dist's second group, the limit.

Exit codes: 0 success; 2 input or parse error, including a path that
cannot be read and a file that cannot be decoded; 3 area not found
within caps; 4 unknown oracle verdict; 5 a checked inequality failed
(which would mean an implementation bug); 6 a worker process of
--workers died.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .area import AreaNotFound, Caps, area_search
from .cache import ResultCache
from .dehn import POOL_STATES, DehnComputationError, WorkerDied, dehn, verify_family, worker_pool
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_OPTIONS = {
    "--length-cap": dict(type=int, default=None, help="max intermediate word length in area searches"),
    "--node-cap": dict(type=_positive_int, default=1_000_000, help="max states explored per area search"),
    "--lambda-max": dict(type=int, default=10, help="largest radius scanned for ball agreement"),
    "--workers": dict(
        type=_positive_int, default=1,
        help="worker processes for per-word area searches, started only once the command's "
             f"searches have explored {POOL_STATES:,} states in process; output does not depend on it",
    ),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """--format and --cache-dir, then the named entries of ``_OPTIONS``."""
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument(
        "--cache-dir", default=None, help="result cache directory, off when not given; only dehn reads it"
    )
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markedgroups",
        description="Relation balls, marked-group distances, word areas and Dehn tables.",
    )
    parser.add_argument("--version", action="version", version=f"markedgroups {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="area of a word with a verifiable certificate")
    p_area.add_argument("-p", "--presentation", required=True, help="presentation file")
    p_area.add_argument("-w", "--word", required=True, help="word expression")
    _add_options(p_area, "--length-cap", "--node-cap")

    p_dehn = sub.add_parser("dehn", help="Dehn-function table over a list of radii")
    p_dehn.add_argument("-p", "--presentation", help="presentation file")
    p_dehn.add_argument("--oracle", help="oracle spec, e.g. abelian:0,5")
    p_dehn.add_argument("--family", help="built-in family name or manifest path")
    p_dehn.add_argument("--i", help="family index")
    p_dehn.add_argument("--n", required=True, help="comma-separated radii, e.g. 2,4,6")
    _add_options(p_dehn, "--length-cap", "--node-cap", "--workers")

    p_ball = sub.add_parser("rel-ball", help="relation ball of one marked group")
    p_ball.add_argument("-p", "--presentation", help="presentation file")
    p_ball.add_argument("--oracle", help="oracle spec")
    p_ball.add_argument("--family", help="built-in family name or manifest path")
    p_ball.add_argument("--i", help="family index")
    p_ball.add_argument("--radius", type=int, required=True)
    _add_options(p_ball)

    p_dist = sub.add_parser("dist", help="distance between two marked groups")
    p_dist.add_argument("-p1", "--p1", help="first presentation file")
    p_dist.add_argument("--oracle1", help="oracle spec for the first group")
    p_dist.add_argument("-p2", "--p2", help="second presentation file")
    p_dist.add_argument("--oracle2", help="oracle spec for the second group")
    p_dist.add_argument("--family", help="family member vs limit instead of two files")
    p_dist.add_argument("--i", help="family index")
    _add_options(p_dist, "--lambda-max")

    p_conv = sub.add_parser("converge", help="distance of each family member to the limit")
    p_conv.add_argument("--family", required=True)
    p_conv.add_argument("--i", required=True, help="range like 3..7 or comma list")
    _add_options(p_conv, "--lambda-max")

    p_thm = sub.add_parser("verify-theorem", help="check the convergence inequalities member by member")
    p_thm.add_argument("--family", required=True)
    p_thm.add_argument("--i", required=True, help="range like 3..6 or comma list")
    p_thm.add_argument("--n", required=True, help="comma-separated radii")
    _add_options(p_thm, "--length-cap", "--node-cap", "--workers")

    return parser


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
    keys = {
        n: ResultCache.make_key(op="dehn", presentation=pres.to_text(), oracle=oracle.spec, n=n,
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


_COMMANDS = {
    "area": cmd_area,
    "dehn": cmd_dehn,
    "rel-ball": cmd_rel_ball,
    "dist": cmd_dist,
    "converge": cmd_converge,
    "verify-theorem": cmd_verify_theorem,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AreaNotFound, DehnComputationError) as exc:
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

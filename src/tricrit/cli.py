"""Command line front end.

Exit codes follow one convention everywhere: 0 when the queried property
holds or a coloring was found, 1 when it fails or no coloring exists,
2 for unusable input (bad flags, bad pattern names, malformed files, files
that cannot be opened), and 141, as a shell reports a process ended by
SIGPIPE, when the reader of the output closed it early
(``tricrit enumerate --emit /dev/stdout | head``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .coloring import ListSystem, l_colorable, lists_from_json, lists_to_json
from .dichotomy import classify, describe
from .families import gen_Gr, gen_Hr, verify_Gr, verify_Hr
from .graphs import Graph, Graph6Error, parse_graph6, parse_pattern, write_graph6
from .obstructions import is_4_vertex_critical, obstruction_report
from .propagation import P6_REFERENCE_COUNTS, enumerate_propagation_paths


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read graph file {path}: {exc}")
    try:
        return parse_graph6(text.strip())
    except Graph6Error as exc:
        raise ValueError(f"bad graph6 in {path}: {exc}")


def _load_lists(path: str, n: int) -> ListSystem:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read list file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON in {path}: {exc}")
    try:
        lists = lists_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"bad list system in {path}: {exc}")
    if lists.n != n:
        raise ValueError(f"list system in {path} has {lists.n} entries, graph has {n}")
    return lists


def _load_instance(args: argparse.Namespace) -> tuple[Graph, ListSystem]:
    """The graph of ``--graph`` and the lists of ``--lists``, by default the
    full palette at every vertex."""
    g = _load_graph(args.graph)
    return g, _load_lists(args.lists, g.n) if args.lists else ListSystem.full(g.n)


def _print(args: argparse.Namespace, obj, lines) -> None:
    """The one output path: ``obj`` as one JSON line under ``--format json``,
    else ``lines``, one per line."""
    if args.format == "json":
        print(json.dumps(obj))
    else:
        for line in lines:
            print(line)


def cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerate_propagation_paths(args.forbidden, args.max_n, emit=args.emit, jobs=args.jobs)
    _print(args, {"counts": list(result.counts), "max_length": result.max_length},
           [f"{k}\t{c}" for k, c in enumerate(result.counts, 1)]
           + [f"max_length\t{result.max_length}"])
    if [name.strip() for name in args.forbidden] != ["P6"]:
        return 0
    pairs = enumerate(zip(result.counts, P6_REFERENCE_COUNTS), 1)
    bad = [(k, got, want) for k, (got, want) in pairs if got != want]
    for k, got, want in bad:
        print(f"length {k}: got {got}, reference says {want}", file=sys.stderr)
    return 1 if bad else 0


def cmd_solve(args: argparse.Namespace) -> int:
    coloring = l_colorable(*_load_instance(args))
    if coloring is None:
        _print(args, {"coloring": None}, ["UNSAT"])
        return 1
    _print(args, {"coloring": list(coloring)}, [f"{v}\t{c}" for v, c in enumerate(coloring)])
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    report = obstruction_report(*_load_instance(args))
    lines = [
        f"colorable\t{report.colorable}",
        f"minimal\t{report.minimal}",
        f"non_critical\t{','.join(map(str, report.non_critical)) or '-'}",
    ]
    if report.extracted is not None:
        lines.append(f"extracted\t{','.join(map(str, report.extracted[0]))}")
    _print(args, report.to_json_dict(), lines)
    return 0 if report.minimal else 1


def cmd_critical(args: argparse.Namespace) -> int:
    verdict = is_4_vertex_critical(_load_graph(args.graph))
    _print(args, {"four_vertex_critical": verdict}, [f"four_vertex_critical\t{verdict}"])
    return 0 if verdict else 1


def cmd_family(args: argparse.Namespace) -> int:
    if args.verify:
        report = (verify_Gr if args.name == "Gr" else verify_Hr)(args.r)
        _print(args, report.to_json_dict(), [
            f"{check.name}\t{'PASS' if check.passed else 'FAIL'}"
            + (f"\t{check.details}" if check.details else "")
            for check in report.checks
        ])
        return 0 if report.passed else 1
    if args.name == "Gr":
        g6 = write_graph6(gen_Gr(args.r))
        _print(args, {"graph6": g6}, [g6])
        return 0
    g, lists = gen_Hr(args.r)
    obj = {"graph6": write_graph6(g), "lists": lists_to_json(lists)}
    _print(args, obj, [obj["graph6"], json.dumps(obj["lists"])])
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    text = args.pattern
    try:
        target = parse_pattern(text)
    except ValueError as e:
        try:
            target = parse_graph6(text)
        except Graph6Error:
            raise ValueError(
                f"{text!r} is neither a recognized pattern name nor valid graph6: {e}"
            )
    verdict = classify(target)
    summary = describe(verdict)
    _print(args, {**verdict.to_json_dict(), "summary": summary}, [
        f"case\t{verdict.case}",
        f"finite_vertex_critical\t{verdict.finite_vertex_critical}",
        f"finite_list_obstructions\t{verdict.finite_list_obstructions}",
        summary,
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricrit",
        description="Obstructions to list 3-coloring: enumeration, families, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("enumerate", parents=[fmt],
                       help="count pattern-free propagation paths by length")
    p.set_defaults(func=cmd_enumerate)
    p.add_argument("--forbidden", action="append", default=[], metavar="PATTERN",
                   help="forbidden pattern name, repeatable")
    p.add_argument("--max-n", type=int, default=25)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--emit", metavar="FILE", help="write accepted configurations here")

    p = sub.add_parser("solve", parents=[fmt], help="find a list coloring or report UNSAT")
    p.set_defaults(func=cmd_solve)
    p.add_argument("--graph", required=True, metavar="G6FILE")
    p.add_argument("--lists", metavar="JSONFILE")

    p = sub.add_parser("check", parents=[fmt],
                       help="full obstruction report for a graph with lists")
    p.set_defaults(func=cmd_check)
    p.add_argument("--graph", required=True, metavar="G6FILE")
    p.add_argument("--lists", metavar="JSONFILE")

    p = sub.add_parser("critical", parents=[fmt], help="is the graph 4-vertex-critical?")
    p.set_defaults(func=cmd_critical)
    p.add_argument("--graph", required=True, metavar="G6FILE")

    p = sub.add_parser("family", parents=[fmt], help="emit or verify a certificate family member")
    p.set_defaults(func=cmd_family)
    p.add_argument("--name", choices=("Gr", "Hr"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("classify", parents=[fmt], help="finite/infinite verdict for a pattern")
    p.set_defaults(func=cmd_classify)
    p.add_argument("--pattern", required=True, metavar="NAME_OR_G6")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # Point stdout at the null device so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        # BrokenPipeError is an OSError, so it is caught above first.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())

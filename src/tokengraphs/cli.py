"""Batch command-line interface.

Subcommands: build (construct and export a token graph), nu / beta (exact
values with witnesses), verify (replay a named check), scan (bulk
scanners), oeis (sequence prefixes with solver cross-checks). Every
command that compares closed forms with the solvers runs through
``verify``: the catalog, the scans and the sequence cross-checks. Each
``scan`` subcommand is one ``verify.SCANS`` entry, run by one handler.

Graph specs: path:N | cycle:N | complete:N | kbip:M,N | star:N | match:M,S
| file:PATH. Exit codes: 0 all rows pass or hold their bound, 1 any row
fails, 2 usage error (a bad budget or graph spec, an output path that
cannot be written, a verify or scan with no instance, or a scan above the
desk-scale guard), 3 budget exceeded, 141 stdout closed before all output
was written (128 + SIGPIPE, as a shell reports it; nothing is printed).
Output paths are checked before anything is solved or written.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

from .budget import Budget, BudgetExceededError
from .graphs import Graph, GraphError, family, parse_edge_list_text
from .independence import max_independent_set
from .matching import max_matching
from .reports import (
    STATUS_BOUND,
    STATUS_PASS,
    VerificationReport,
    exit_code_for,
    reports_to_csv,
    reports_to_json,
)
from .tokens import subset_label, token_graph, token_graph_to_dot, token_graph_to_json
from .verify import _OEIS, CHECKS, SCANS, oeis_check, run_check, run_rows

BUDGET_ENV = "TOKENGRAPHS_BUDGET"


def parse_graph_spec(spec: str) -> Graph:
    """Build a base graph from a ``kind:params`` spec string."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise GraphError(f"bad graph spec {spec!r}; expected kind:params")
    if kind == "file" and not arg:
        raise GraphError(f"graph spec {spec!r} names no edge-list file")
    try:
        if kind == "file":
            return parse_edge_list_text(Path(arg).read_text())
        return family(kind, [int(x) for x in arg.split(",")])
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read edge list {arg!r}: {exc}") from None
    except GraphError as exc:  # before ValueError, its base class
        raise GraphError(f"graph spec {spec!r}: {exc}") from None
    except ValueError:
        raise GraphError(f"bad parameters in graph spec {spec!r}") from None


def _budget_seconds(text: str) -> float:
    """A budget in seconds: a finite number, not negative."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not 0 <= seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"budget must be a finite number of seconds >= 0, not {text!r}"
        )
    return seconds


def _budget_from(args: argparse.Namespace) -> Budget | None:
    return Budget(seconds=args.budget) if args.budget is not None else None


def _print_reports(reports: list[VerificationReport]) -> None:
    for r in reports:
        print(
            f"{r.status:>15}  {r.check_id}: {r.instance}  "
            f"formula={r.formula_value} solver={r.solver_value} ({r.seconds:.2f}s)"
        )
    good = sum(1 for r in reports if r.status in (STATUS_PASS, STATUS_BOUND))
    print(f"-- {good}/{len(reports)} rows pass or hold their bound")


def _check_writable(*paths: str | None) -> None:
    """Refuse an output path that cannot be written, as a usage error, before
    anything is solved or written: it costs no solve and leaves no file."""
    for path in filter(None, paths):
        target = Path(path)
        if target.is_dir():
            reason = errno.EISDIR
        elif not target.parent.is_dir():
            reason = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            reason = errno.EACCES
        else:
            continue
        raise GraphError(f"cannot write {path}: {os.strerror(reason)}")


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc.strerror or exc}") from None


def _finish_reports(
    reports: list[VerificationReport], args: argparse.Namespace, empty: str
) -> int:
    """Print and write the reports and return the exit code. A run with no
    rows is a usage error: ``empty`` goes to stderr and nothing is written."""
    if not reports:
        print(f"error: {empty}", file=sys.stderr)
        return 2
    _print_reports(reports)
    if args.json:
        _write(args.json, reports_to_json(reports))
    if args.csv:
        _write(args.csv, reports_to_csv(reports))
    return exit_code_for(reports)


def _cmd_build(args: argparse.Namespace) -> int:
    t = token_graph(parse_graph_spec(args.graph), args.k)
    print(
        f"token graph: base order {t.base.n}, k={t.k}, "
        f"{t.graph.n} vertices, {t.graph.edge_count} edges"
    )
    if args.dot:
        _write(args.dot, token_graph_to_dot(t))
        print(f"wrote DOT to {args.dot}")
    if args.json:
        _write(args.json, json.dumps(token_graph_to_json(t), indent=2) + "\n")
        print(f"wrote JSON to {args.json}")
    return 0


def _solve(solve, args: argparse.Namespace):
    """The named token graph and ``solve``'s answer; budget errors name it."""
    t = token_graph(parse_graph_spec(args.graph), args.k)
    try:
        return t, solve(t.graph, _budget_from(args))
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"F_{args.k}({args.graph}): {exc}") from None


def _cmd_nu(args: argparse.Namespace) -> int:
    t, found = _solve(max_matching, args)
    print(f"nu = {found.size}")
    for a, b in found.sorted_edges():
        print(f"  {subset_label(t.codec.unrank(a))} -- {subset_label(t.codec.unrank(b))}")
    return 0


def _cmd_beta(args: argparse.Namespace) -> int:
    t, found = _solve(max_independent_set, args)
    print(f"beta = {found.size}")
    print("  " + " ".join(subset_label(t.codec.unrank(r)) for r in found.sorted_vertices()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_check(args.check, max_n=args.max_n, budget=_budget_from(args))
    return _finish_reports(
        reports, args, f"verify {args.check} has no instance with --max-n {args.max_n}"
    )


def _cmd_scan(args: argparse.Namespace) -> int:
    check_id, _, options, rows = SCANS[args.target]
    reports = run_rows(check_id, rows(args, _budget_from(args)))
    given = " ".join(f"{flag} {getattr(args, flag[2:].replace('-', '_'))}" for flag, _ in options)
    return _finish_reports(reports, args, f"scan {args.target} has no instance with {given}")


def _cmd_oeis(args: argparse.Namespace) -> int:
    result = oeis_check(args.sequence, args.count)
    print(f"{result.sequence_id}: {', '.join(str(x) for x in result.terms)}")
    print(f"solver cross-check: {'ok' if result.solver_agrees else 'MISMATCH'}")
    return 0 if result.solver_agrees else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokengraphs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--budget",
        type=_budget_seconds,
        default=None,
        help=f"per-instance solver budget in seconds (default: ${BUDGET_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report_files = argparse.ArgumentParser(add_help=False)
    report_files.add_argument("--json", help="write the report as JSON")
    report_files.add_argument("--csv", help="write the report as CSV")

    p_build = sub.add_parser("build", help="construct a token graph and export it")
    p_build.add_argument("graph", help="graph spec, e.g. cycle:5 or kbip:2,5")
    p_build.add_argument("-k", type=int, required=True, help="token count")
    p_build.add_argument("--dot", help="write DOT to this path")
    p_build.add_argument("--json", help="write JSON to this path")
    p_build.set_defaults(func=_cmd_build)

    p_nu = sub.add_parser("nu", help="exact matching number of a token graph")
    p_nu.add_argument("graph")
    p_nu.add_argument("-k", type=int, required=True)
    p_nu.set_defaults(func=_cmd_nu)

    p_beta = sub.add_parser("beta", help="exact independence number of a token graph")
    p_beta.add_argument("graph")
    p_beta.add_argument("-k", type=int, required=True)
    p_beta.set_defaults(func=_cmd_beta)

    p_verify = sub.add_parser(
        "verify", parents=[report_files], help="replay a named verification check"
    )
    p_verify.add_argument("check", choices=sorted(CHECKS))
    p_verify.add_argument("--max-n", type=int, default=None, help="largest base order to run")
    p_verify.set_defaults(func=_cmd_verify)

    scans = sub.add_parser("scan", help="run a bulk scanner").add_subparsers(
        dest="target", required=True
    )
    for name, (_, help_text, options, _) in SCANS.items():
        p_scan = scans.add_parser(name, parents=[report_files], help=help_text)
        for flag, keywords in options:
            p_scan.add_argument(flag, **keywords)
        p_scan.set_defaults(func=_cmd_scan)

    p_oeis = sub.add_parser("oeis", help="sequence prefix from the closed forms")
    p_oeis.add_argument("sequence", choices=list(_OEIS))
    p_oeis.add_argument("--count", type=int, default=10)
    p_oeis.set_defaults(func=_cmd_oeis)

    return parser


EXIT_CLOSED_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    raw = os.environ.get(BUDGET_ENV)
    if args.budget is None and raw:
        try:
            args.budget = _budget_seconds(raw)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"${BUDGET_ENV}: {exc}")
    try:
        _check_writable(*(getattr(args, name, None) for name in ("dot", "json", "csv")))
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # ``| head`` closed stdout: its unwritten buffer goes to devnull, so
        # the flush at shutdown prints nothing either
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # no descriptor, as with a StringIO
            return EXIT_CLOSED_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

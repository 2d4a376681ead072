"""Command-line surface: family, power, spectrum, stats, dot, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Graphs travel between commands in the edge-list format, so the subcommands
compose in pipelines, e.g.::

    symgraph family path 3 | symgraph power -k 2 | symgraph stats

A command that reads a graph file holds it as the arrays (n, u, v, w) of
``fileio.read_edges``; plain ``stats`` counts its blocks as they arrive.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Iterable

from .combinatorics import CountLimitError
from .fileio import (
    GraphFormatError,
    dot_blocks,
    edge_text_blocks,
    read_edges,
    read_stats_json,
    stats_json_edges,
    write_graph,
)
from .graphs import FAMILY_NAMES, family
# sym_power itself is not called here: the benchmark's tracer wraps every
# module binding of it, and bench/test_bench.py checks that this one is reached
from .power import METHODS, sym_power, sym_power_edges  # noqa: F401
from .spectra import JacobiConvergenceError, eigenvalues_edges

# the theorem suites in run order, each run by symgraph.verify.suite_<name>;
# listed here so that no other command has to import symgraph.verify
SUITES = ("kernels", "spectra", "subgraph", "components", "degrees", "wiener", "permutation")


def _open_input(path: str):
    return nullcontext(sys.stdin) if path == "-" else open(path, "r", encoding="utf-8")


def _write_output(texts: Iterable[str], path: str | None) -> None:
    """Write each text as soon as it is made."""
    with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", encoding="utf-8") as handle:
        handle.writelines(texts)


def _load_edges(path: str):
    with _open_input(path) as handle:
        return read_edges(handle)


def _cmd_family(args: argparse.Namespace) -> int:
    graph = family(args.name, *args.params)
    _write_output([write_graph(graph)], args.output)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    power = sym_power_edges(*_load_edges(args.input), args.k, method=args.method, order=args.order)
    if args.exact and not power.exact:
        raise ValueError("--exact requires a graph with rational weights")
    blocks = power.upper_blocks(edges=not args.exact)
    if args.exact:
        blocks = ((rows, cols, list(map(power.entry_exact, rows.tolist(), cols.tolist()))) for rows, cols, _ in blocks)
    _write_output(edge_text_blocks(power.dim, ((rows + 1, cols + 1, w) for rows, cols, w in blocks)), args.output)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spectrum = eigenvalues_edges(*_load_edges(args.input), tol=args.tol)
    sys.stdout.write("".join(f"{v!r}\n" for v in spectrum.values))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.wiener or args.spectrum:
        sys.stdout.write(stats_json_edges(*_load_edges(args.input), wiener=args.wiener, spectrum=args.spectrum))
    else:
        with _open_input(args.input) as handle:
            sys.stdout.write(read_stats_json(handle))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    _write_output(dot_blocks(*_load_edges(args.input)), None)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    results = run_suites(
        "all" if args.suite == "all" else [args.suite],
        nmax=args.nmax,
        kmax=args.kmax,
        seed=args.seed,
    )
    failed = False
    for result in results:
        for line in result.report:
            print(line)
        for failure in result.failures:
            print(failure.line())
        status = "ok" if result.ok else "FAILED"
        print(
            f"{status} {result.name}: {result.checks} checks, "
            f"{len(result.failures)} failures, {result.seconds:.2f} s"
        )
        failed = failed or not result.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symgraph",
        description="Symmetric tensor powers of weighted graphs, with built-in verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="emit a named family graph")
    p_family.add_argument("name", choices=FAMILY_NAMES)
    p_family.add_argument("params", nargs="*", type=int, help="family parameters")
    p_family.add_argument("-o", "--output", default=None, metavar="FILE")
    p_family.set_defaults(func=_cmd_family)

    p_power = sub.add_parser("power", help="emit the k-th symmetric tensor power")
    p_power.add_argument("-k", type=int, required=True, help="power exponent (>= 1)")
    p_power.add_argument("--method", choices=METHODS, default="permanent")
    p_power.add_argument("--order", choices=("paper", "lex"), default="paper")
    p_power.add_argument(
        "--exact",
        action="store_true",
        help="emit q*sqrt(r) weight tokens (rational input graphs only)",
    )
    p_power.add_argument("-o", "--output", default=None, metavar="FILE")
    p_power.add_argument("input", nargs="?", default="-", metavar="INPUT")
    p_power.set_defaults(func=_cmd_power)

    p_spectrum = sub.add_parser("spectrum", help="eigenvalues, one per line, sorted")
    p_spectrum.add_argument("--tol", type=float, default=1e-8,
                            help="kept for existing invocations; it does not change the printed "
                            "eigenvalues, since eigvalsh takes no tolerance")
    p_spectrum.add_argument("input", nargs="?", default="-", metavar="INPUT")
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_stats = sub.add_parser("stats", help="summary statistics as JSON")
    p_stats.add_argument("--wiener", action="store_true")
    p_stats.add_argument("--spectrum", action="store_true")
    p_stats.add_argument("input", nargs="?", default="-", metavar="INPUT")
    p_stats.set_defaults(func=_cmd_stats)

    p_dot = sub.add_parser("dot", help="DOT rendering of a graph file")
    p_dot.add_argument("input", nargs="?", default="-", metavar="INPUT")
    p_dot.set_defaults(func=_cmd_dot)

    p_verify = sub.add_parser("verify", help="run the theorem suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), required=True)
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--kmax", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "power" and args.k < 1:
        parser.error(f"power exponent must be >= 1, got {args.k}")
    if getattr(args, "nmax", None) is not None and args.nmax < 2:
        parser.error("--nmax must be >= 2")
    if getattr(args, "kmax", None) is not None and args.kmax < 1:
        parser.error("--kmax must be >= 1")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (FileNotFoundError, GraphFormatError, CountLimitError, JacobiConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

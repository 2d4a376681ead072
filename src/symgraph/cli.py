"""Command-line surface: family, power, spectrum, stats, dot, verify.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or I/O error.
Graphs travel between commands in the edge-list format, so the subcommands
compose in pipelines, e.g.::

    symgraph family path 3 | symgraph power -k 2 | symgraph stats

Every command that reads a graph file reads ``fileio.read_blocks``: ``stats``
counts the blocks as they arrive, ``dot`` joins them, and ``power`` and
``spectrum`` hold them all, so a bad line is named before a budget refusal.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Iterable

from .combinatorics import CountLimitError
from .fileio import dot_blocks, edge_text_blocks, read_blocks, stats_json, write_graph
from .graphs import FAMILY_NAMES, family
# sym_power itself is not called here: the benchmark's tracer wraps every
# module binding of it, and bench/test_bench.py checks that this one is reached
from .power import METHODS, sym_power, sym_power_upper_blocks  # noqa: F401
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


def _cmd_family(args: argparse.Namespace) -> int:
    graph = family(args.name, *args.params)
    _write_output([write_graph(graph)], args.output)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    with _open_input(args.input) as handle:
        n, *blocks = read_blocks(handle)  # the whole file first: a bad line is named before a budget refusal
    dim, pairs = sym_power_upper_blocks(n, blocks, args.k, method=args.method, order=args.order, exact=args.exact)
    del blocks  # the pairs are in the scaled matrix now
    _write_output(edge_text_blocks(dim, pairs, range(dim + 1)), args.output)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    with _open_input(args.input) as handle:
        n, *blocks = read_blocks(handle)  # the whole file first: a bad line is named before a budget refusal
    spectrum = eigenvalues_edges(n, blocks)
    sys.stdout.write("".join(f"{v!r}\n" for v in spectrum.values))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _open_input(args.input) as handle:
        blocks = read_blocks(handle)
        sys.stdout.write(stats_json(next(blocks), blocks, args.wiener, args.spectrum))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    with _open_input(args.input) as handle:
        blocks = read_blocks(handle)
        _write_output(dot_blocks(next(blocks), blocks), None)  # it joins the whole file before its first line
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
    # a MemoryError comes from the input too, such as a vertex count of 10^17
    except (OSError, CountLimitError, JacobiConvergenceError, MemoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

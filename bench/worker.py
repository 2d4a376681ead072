"""One benchmark operation in its own process; the result goes to a JSON file.

    python3 bench/worker.py kernel --seed S --kind int --n 8 --k 5 --out R.json
    python3 bench/worker.py verify --seed S --out R.json
    python3 bench/worker.py cli --out R.json -- power -k 5

``kernel`` times ``sym_power(g, k)`` on a seeded graph and then checks the
core: a sample of entries against ``entry_permanent``, a digest of exact
cores, and for float graphs the support against the 0/1 pattern's power.
``verify`` runs the named suites one by one.  ``cli`` runs
``symgraph.cli.main(argv)`` in this process; stdin and stdout are the ones
the parent gave it.  With ``--trace`` each operation runs under a
:class:`tracer.Tracer` and writes its spans next to the result file.
``symgraph`` must be importable (the parent puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import random
import resource
import sys
import time
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from tracer import Tracer

# (n, k) rows per input kind.  Float rows run on the ROADMAP grid.  The int
# rows run (4, 8) in its place: at k = 8 a weight-2 edge pushes the kernel's
# int64 bound past 2**62, so today the row falls back to pure Python, which
# takes about 50 s at (5, 8) and 5 s at (4, 8)
GRID = {
    "int": ((8, 5), (6, 6), (12, 4), (4, 8)),
    "float": ((8, 5), (6, 6), (12, 4), (5, 8)),
    "bigrat": ((6, 4), (7, 4)),
}
EDGE_SHARE = 0.4  # share of the n(n+1)/2 vertex pairs (loops included) with an edge
INT_WEIGHTS = (-1, 1, 2)
# one-decimal weights, none of them dyadic: a dyadic weight is exact in
# binary and could hide rounding residues where the exact power is zero
FLOAT_WEIGHTS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)
# a loop weight this large puts the k = 4 constant-tuple core entry past 2**63
BIGRAT_LOOP = (70_000, 99_999)
ORACLE_SAMPLE = 16  # entries checked per kernel row, twice: any entry and nonzero ones
FLOAT_REL_TOL = 1e-9

VERIFY_SUITES = ("kernels", "spectra", "subgraph", "components", "degrees", "wiener", "permutation")


def kernel_graph(seed: int, kind: str, n: int, k: int):
    """The seeded input graph of one kernel row.

    Every seed gets a relabeling of one fixed support pattern per (n, k), with
    seeded weights on it.  The kernel's work depends on the support's shape,
    which relabeling keeps, so the work is the same on every seed while the
    values and the vertex numbering are not.
    """
    from symgraph import WeightedGraph

    shape = random.Random(f"support:{n}:{k}")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
    support = shape.sample(pairs, round(EDGE_SHARE * len(pairs)))
    support.remove((1, 1)) if (1, 1) in support else support.pop()
    support.insert(0, (1, 1))
    rng = random.Random(f"{seed}:{kind}:{n}:{k}")
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = [tuple(sorted((label[u - 1], label[v - 1]))) for u, v in support]
    if kind == "int":
        values = [max(INT_WEIGHTS)] + [rng.choice(INT_WEIGHTS) for _ in edges[1:]]
    elif kind == "float":
        values = [rng.choice(FLOAT_WEIGHTS) for _ in edges]
    elif kind == "bigrat":
        # fixed magnitudes in seeded order and signs, so Fraction sizes match too
        magnitudes = [Fraction(shape.randint(1, 9), shape.randint(1, 9)) for _ in edges[1:]]
        rng.shuffle(magnitudes)
        values = [shape.randint(*BIGRAT_LOOP)] + magnitudes
        values = [rng.choice((-1, 1)) * x for x in values]
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    # edges[0] is the relabeled loop (1, 1): it carries the 2 of an int row
    # and the large loop weight of a bigrat row
    return WeightedGraph(n, dict(zip(edges, values)))


def _rational_text(x) -> str:
    if type(x) is int:
        return str(x)
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"exact core holds a non-rational entry {x!r}")


def core_digest(power) -> str:
    """sha256 over the tuples, orbit sizes and exact upper-triangle core entries.

    Entries are read through ``core_entry`` and written as reduced rationals,
    so the digest does not depend on how the core is stored.
    """
    h = hashlib.sha256()
    h.update(f"{power.n} {power.k} {power.order}\n".encode())
    h.update((" ".join(",".join(map(str, t)) for t in power.tuples) + "\n").encode())
    h.update((" ".join(map(str, power.orbit_sizes)) + "\n").encode())
    dim = power.dim
    for i in range(dim):
        row = map(power.core_entry, repeat(i, dim - i), range(i, dim))
        h.update((" ".join(map(_rational_text, row)) + "\n").encode())
    return h.hexdigest()


def _sample_pairs(rng: random.Random, dense) -> list[tuple[int, int]]:
    import numpy as np

    dim = dense.shape[0]
    pairs = [tuple(sorted((rng.randrange(dim), rng.randrange(dim)))) for _ in range(ORACLE_SAMPLE)]
    rows, cols = np.nonzero(np.triu(dense))
    for idx in rng.sample(range(len(rows)), min(ORACLE_SAMPLE, len(rows))):
        pairs.append((int(rows[idx]), int(cols[idx])))
    return pairs


def _pattern_support(graph, k: int, cache: Path | None):
    """Upper-triangle support of the int64 power of the graph's 0/1 pattern."""
    import numpy as np
    from symgraph import WeightedGraph, sym_power

    if cache is not None and cache.exists():
        return np.load(cache)
    pattern = WeightedGraph(graph.n, {(u, v): 1 for u, v, _ in graph.edges()})
    support = np.triu(sym_power(pattern, k).to_dense() != 0)
    if cache is not None:
        cache.parent.mkdir(parents=True, exist_ok=True)
        np.save(cache, support)
    return support


def check_kernel_row(graph, power, seed: int, kind: str, cache: Path | None) -> dict:
    import numpy as np
    from symgraph import VertexMultiset, entry_permanent

    n, k = graph.n, power.k
    out: dict = {"failures": [], "dim": power.dim}
    dense = power.to_dense()
    largest = float(np.abs(dense).max())
    rows = graph.weight_rows()
    twin = [[Fraction(repr(x)) if isinstance(x, float) else x for x in r] for r in rows]
    rng = random.Random(f"{seed}:{kind}:{n}:{k}:oracle")
    for i, j in _sample_pairs(rng, dense):
        ti = VertexMultiset(power.tuples[i], n)
        tj = VertexMultiset(power.tuples[j], n)
        want = entry_permanent(twin, ti, tj)
        if power.exact:
            ok = power.entry_exact(i, j) == want
        else:
            ok = abs(float(want) - float(dense[i, j])) <= FLOAT_REL_TOL * largest
        if not ok:
            out["failures"].append(f"oracle {kind} n={n} k={k} entry ({i},{j}) want {want}")
    if power.exact:
        out["digest"] = core_digest(power)
    else:
        support = _pattern_support(graph, k, cache)
        got = np.triu(dense != 0)
        out["true_nonzeros"] = int(support.sum())
        out["spurious"] = int((got & ~support).sum())
        lost = int((support & ~got).sum())
        if lost:
            out["failures"].append(f"float {kind} n={n} k={k}: {lost} true nonzeros read back as 0")
    return out


# ---------------------------------------------------------------------------
# tracing hooks and installation
# ---------------------------------------------------------------------------


def install_wrappers(tracer: Tracer) -> None:
    """Time the public functions of every symgraph layer."""
    import numpy as np
    from symgraph import analysis, combinatorics, fileio, power, spectra
    from symgraph.exact import ExactWeight
    from symgraph.graphs import WeightedGraph
    from symgraph.power import SymPowerMatrix

    to_dense = SymPowerMatrix.to_dense

    def count_entries(t: Tracer, args, result) -> None:
        t.add("power.entries", result.dim * (result.dim + 1) // 2)
        t.add("power.nonzero_entries", int(np.count_nonzero(np.triu(to_dense(result)))))

    def count_dim(t: Tracer, args, result) -> None:
        t.add("spectra.eigenvalues_symmetric.dim_sum", len(args[0]))

    def count_written(t: Tracer, args, result) -> None:
        t.add("fileio.bytes_written", len(result.encode()))

    def count_read(t: Tracer, args, result) -> None:
        t.add("fileio.bytes_read", len(args[0].encode()))

    for module, attr, hook in (
        (combinatorics, "enumerate_multisets", None),
        (combinatorics, "enumerate_orbit", None),
        (power, "sym_power", count_entries),
        (fileio, "write_graph", count_written),
        (fileio, "write_stats_json", count_written),
        (fileio, "parse_graph", count_read),
        (analysis, "components", None),
        (analysis, "degree_sequence", None),
        (analysis, "wiener_index", None),
        (spectra, "eigenvalues_symmetric", count_dim),
        (spectra, "exact_determinant", None),
    ):
        tracer.wrap_function(module, attr, f"{module.__name__.split('.')[-1]}.{attr}", hook)
    tracer.wrap_method(SymPowerMatrix, "to_dense", "power.to_dense")
    tracer.wrap_method(SymPowerMatrix, "to_graph", "power.to_graph")
    tracer.wrap_method(SymPowerMatrix, "entry_exact", "power.entry_exact", tally=True)
    tracer.wrap_method(ExactWeight, "make", "exact.ExactWeight.make", tally=True)
    tracer.wrap_method(WeightedGraph, "__init__", "graphs.WeightedGraph.init")
    tracer.wrap_method(WeightedGraph, "edges", "graphs.WeightedGraph.edges")


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                   "names": tracer.names, "spans": tracer.finished_spans()}, handle)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def op_kernel(args, tracer: Tracer | None) -> tuple[dict, int]:
    import symgraph

    graph = kernel_graph(args.seed, args.kind, args.n, args.k)
    if tracer is not None:
        install_wrappers(tracer)
    start = time.perf_counter()
    power = symgraph.sym_power(graph, args.k)  # looked up after the wrappers went in
    kernel_s = time.perf_counter() - start
    # peak RSS up to here: the checks below would otherwise add their own
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    cache = Path(args.cache) / f"pattern-{args.seed}-{args.n}-{args.k}.npy" if args.cache else None
    out = check_kernel_row(graph, power, args.seed, args.kind, cache)
    out["kernel_s"] = kernel_s
    out["rss_mb"] = rss_mb
    return out, 0


def op_verify(args, tracer: Tracer | None) -> tuple[dict, int]:
    from symgraph.verify import run_suites

    if tracer is not None:
        install_wrappers(tracer)
    out: dict = {"failures": [], "suites": {}}
    for name in VERIFY_SUITES:
        start = time.perf_counter()
        if tracer is None:
            [result] = run_suites([name], seed=args.seed)
        else:
            [result] = tracer.call(f"verify.{name}", run_suites, [name], seed=args.seed)
            tracer.add(f"verify.{name}.checks", result.checks)
        out["suites"][name] = {"ok": result.ok, "checks": result.checks,
                               "s": time.perf_counter() - start}
        out["failures"] += [f.line() for f in result.failures]
    return out, 0


def op_cli(args, tracer: Tracer | None) -> tuple[dict, int]:
    import symgraph.cli

    if tracer is not None:
        install_wrappers(tracer)
    cpu = time.process_time()
    if tracer is None:
        code = symgraph.cli.main(args.argv)
    else:
        code = tracer.call(f"cli.{args.argv[0]}", symgraph.cli.main, args.argv)
        tracer.add("cli.cpu_s", time.process_time() - cpu)
    sys.stdout.flush()
    return {"failures": []}, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="op", required=True)
    p_kernel = sub.add_parser("kernel")
    p_kernel.add_argument("--kind", choices=tuple(GRID), required=True)
    p_kernel.add_argument("--n", type=int, required=True)
    p_kernel.add_argument("--k", type=int, required=True)
    p_kernel.add_argument("--cache", default=None, help="directory for pattern supports")
    p_verify = sub.add_parser("verify")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    for p in (p_kernel, p_verify, p_cli):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)
    if args.op == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]

    tracer = Tracer(args.pass_id) if args.trace else None
    op = {"kernel": op_kernel, "verify": op_verify, "cli": op_cli}[args.op]
    result, code = op(args, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        write_spans(tracer, Path(args.out + ".spans.json"))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

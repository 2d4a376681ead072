"""symgraph benchmark: two checked workloads, from the kernel to the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src`` next to this
directory, so nothing needs installing.  Every operation (a kernel row, a
CLI command, the verify suites) runs in its own child process, one at a
time, with one BLAS thread.  Wall time, CPU time and peak RSS come from
``os.wait4`` on that child.

``--trace 0`` repeats passes of the workload until ``--seconds`` are used
up (at least one pass), times set-up before and after them, and reports
medians of the end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics of the traced pass plus the tracing
overhead.  Every output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
from worker import GRID, VERIFY_SUITES  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_SHIM = "import sys; from symgraph.cli import main; sys.exit(main())"
OP_TIMEOUT = 150.0
RUN_LIMIT = 170.0  # no pass starts that could end a run past this many seconds
SETUP_REPS = 3  # set-up timings before the first pass and after the last

WORKLOADS = ("kernel_grid", "pipelines_verify")

# (name, unit, better, bound); every workload reports every one
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
)

# (name, unit, better); reported by --trace 1 on every workload, 0 where absent
PER_LAYER = (
    ("kernel.int_s", "s", "lower"),
    ("kernel.float_s", "s", "lower"),
    ("kernel.bigrat_s", "s", "lower"),
    ("pipeline_dense.s", "s", "lower"),
    ("exact_sparse.s", "s", "lower"),
    ("verify_all.s", "s", "lower"),
    ("combinatorics.enumerate_multisets.calls", "count", "lower"),
    ("combinatorics.enumerate_multisets.s", "s", "lower"),
    ("combinatorics.enumerate_orbit.calls", "count", "lower"),
    ("combinatorics.enumerate_orbit.s", "s", "lower"),
    ("power.sym_power.calls", "count", "lower"),
    ("power.sym_power.self_s", "s", "lower"),
    ("power.entries", "count", "higher"),
    ("power.entries_per_s", "1/s", "higher"),
    ("power.to_dense.s", "s", "lower"),
    ("power.to_graph.s", "s", "lower"),
    ("power.nonzero_ratio", "ratio", "higher"),
    ("power.entry_exact.calls", "count", "lower"),
    ("power.entry_exact.s", "s", "lower"),
    ("power.float_spurious_entries", "count", "lower"),
    ("power.float_true_nonzeros", "count", "higher"),
    ("exact.ExactWeight.make.calls", "count", "lower"),
    ("exact.ExactWeight.make.s", "s", "lower"),
    ("graphs.WeightedGraph.init.calls", "count", "lower"),
    ("graphs.WeightedGraph.init.s", "s", "lower"),
    ("graphs.WeightedGraph.edges.calls", "count", "lower"),
    ("graphs.WeightedGraph.edges.s", "s", "lower"),
    ("fileio.write_graph.s", "s", "lower"),
    ("fileio.parse_graph.s", "s", "lower"),
    ("fileio.write_stats_json.self_s", "s", "lower"),
    ("fileio.bytes_written", "B", "lower"),
    ("fileio.bytes_read", "B", "lower"),
    ("analysis.components.s", "s", "lower"),
    ("analysis.degree_sequence.s", "s", "lower"),
    ("analysis.wiener_index.s", "s", "lower"),
    ("spectra.eigenvalues_symmetric.calls", "count", "lower"),
    ("spectra.eigenvalues_symmetric.s", "s", "lower"),
    ("spectra.eigenvalues_symmetric.dim_sum", "count", "lower"),
    ("spectra.exact_determinant.calls", "count", "lower"),
    ("spectra.exact_determinant.s", "s", "lower"),
    *((f"verify.{suite}.{part}", unit, better) for suite in VERIFY_SUITES
      for part, unit, better in (("s", "s", "lower"), ("checks", "count", "higher"))),
    ("cli.family.s", "s", "lower"),
    ("cli.power.s", "s", "lower"),
    ("cli.stats.s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("trace.hooks.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(THREAD_ENV)
    return env


def run_child(argv: list[str], stdin: Path | None = None, stdout: Path | None = None,
              timeout: float = OP_TIMEOUT) -> Child:
    """Run one process to completion; its own rusage comes from ``wait4``."""
    with ExitStack() as stack:
        fin = stack.enter_context(open(stdin, "rb")) if stdin else subprocess.DEVNULL
        fout = stack.enter_context(open(stdout, "wb")) if stdout else subprocess.DEVNULL
        fired = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, env=child_env(), cwd=ROOT)

        def kill() -> None:
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, fired.is_set())


# ---------------------------------------------------------------------------
# one pass of a workload
# ---------------------------------------------------------------------------


@dataclass
class Context:
    workload: str
    seed: int
    work: Path
    trace: bool
    expected: dict
    pass_id: int = 0
    deadline: float = float("inf")

    @property
    def timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT, self.deadline - time.perf_counter()))

    def out(self, name: str) -> Path:
        return self.work / f"p{self.pass_id}-{name}"

    def worker(self, *args: str) -> list[str]:
        argv = [sys.executable, str(WORKER), *args, "--seed", str(self.seed),
                "--pass-id", str(self.pass_id)]
        return argv + ["--trace"] if self.trace else argv


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    layers: dict = field(default_factory=lambda: defaultdict(float))

    def fail(self, label: str, message: str) -> None:
        self.failed_ops.add(label)
        self.failures.append(f"{label}: {message}")

    def op(self, label: str, child: Child, result: Path | None = None) -> dict | None:
        """Account one operation; returns the worker's result when there is one."""
        self.attempted += 1
        self.cpu += child.cpu
        data = self._result(label, child, result)
        # a kernel worker reports its peak RSS from before its checks ran
        self.rss_mb = max(self.rss_mb, (data or {}).get("rss_mb", child.rss_mb))
        return data

    def _result(self, label: str, child: Child, result: Path | None) -> dict | None:
        if child.timed_out:
            self.fail(label, "timed out")
            return None
        if child.code != 0:
            self.fail(label, f"exit code {child.code}")
            return None
        if result is None:
            return {}
        try:
            data = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.fail(label, f"unreadable result: {exc}")
            return None
        for message in data.get("failures", ()):
            self.fail(label, message)
        for name, value in data.get("trace", {}).items():
            self.layers[name] += value
        return data

    def expect(self, label: str, part: str, key: str, got, recorded: dict) -> None:
        """Record an observed value; compare it when a value was recorded."""
        self.observed.setdefault(part, {})[key] = got
        want = recorded.get(part, {}).get(key)
        if want is not None and got != want:
            self.fail(label, f"{key}: got {got}, recorded {want}")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def stats_failures(text: str, want: dict) -> list[str]:
    """Differences between a stats JSON document and its closed forms."""
    try:
        stats = json.loads(text)
    except ValueError as exc:
        return [f"stats is not JSON: {exc}"]
    out = []
    for key, value in want.items():
        got = stats.get(key)
        if got == value:
            continue
        if isinstance(got, list) and isinstance(value, list) and len(got) == len(value):
            i = next(i for i, (a, b) in enumerate(zip(got, value)) if a != b)
            key, got, value = f"{key}[{i}]", got[i], value[i]
        out.append(f"stats {key}: got {got!r:.60}, want {value!r:.60}")
    return out


def edge_pairs(text: str) -> list[tuple[str, str]]:
    return [tuple(line.split()[:2]) for line in text.splitlines()[1:] if line.strip()]


def run_cli(p: Pass, ctx: Context, label: str, args: list[str],
            stdin: Path | None, stdout: Path) -> dict | None:
    """One CLI command as a process; traced runs call main(argv) in the worker."""
    result = None
    if ctx.trace:
        result = ctx.out(f"{label}.result.json")
        argv = ctx.worker("cli", "--out", str(result)) + ["--", *args]
    else:
        argv = [sys.executable, "-c", CLI_SHIM, *args]
    child = run_child(argv, stdin, stdout, ctx.timeout)
    p.wall += child.wall
    p.layers[label.split(".")[0] + ".s"] += child.wall
    return p.op(label, child, result)


def check_cli_outputs(p: Pass, ctx: Context, part: str, outputs: dict[str, Path]) -> None:
    recorded = ctx.expected.get("cli", {})
    for name, path in outputs.items():
        if path.exists():
            p.expect(f"{part}.{name}", part, name, file_digest(path), recorded)


def add_kernel_rows(p: Pass, ctx: Context, kind: str) -> None:
    recorded = {"kernel": ctx.expected.get("kernel", {}).get(str(ctx.seed), {})}
    cache = ctx.work / "cache"
    for n, k in GRID[kind]:
        label = f"{kind}:{n}:{k}"
        result = ctx.out(f"kernel-{kind}-{n}-{k}.json")
        argv = ctx.worker("kernel", "--kind", kind, "--n", str(n), "--k", str(k),
                          "--out", str(result), "--cache", str(cache))
        data = p.op(label, run_child(argv, timeout=ctx.timeout), result)
        if data is None:
            continue
        p.wall += data["kernel_s"]
        p.layers[f"kernel.{kind}_s"] += data["kernel_s"]
        if "digest" in data:
            p.expect(label, "kernel", label, data["digest"], recorded)
        if "spurious" in data:
            p.observed.setdefault("float_spurious_entries", {})[label] = data["spurious"]
            p.layers["power.float_spurious_entries"] += data["spurious"]
            p.layers["power.float_true_nonzeros"] += data["true_nonzeros"]


def add_pipeline_dense(p: Pass, ctx: Context) -> None:
    part = "pipeline_dense"
    dim = 1287  # C(9 + 5 - 1, 5)
    family, power, stats = (ctx.out(f"dense-{name}") for name in ("family.txt", "power.txt", "stats.json"))
    run_cli(p, ctx, f"{part}.family", ["family", "complete_loops", "9"], None, family)
    run_cli(p, ctx, f"{part}.power", ["power", "-k", "5"], family, power)
    run_cli(p, ctx, f"{part}.stats", ["stats"], power, stats)
    check_cli_outputs(p, ctx, part, {"family": family, "power": power, "stats": stats})
    want = {"n": dim, "edges": dim * (dim + 1) // 2, "loops": dim, "components": 1,
            "degrees": [dim] * dim}
    for message in stats_failures(stats.read_text() if stats.exists() else "", want):
        p.fail(f"{part}.stats", message)


def add_exact_sparse(p: Pass, ctx: Context) -> None:
    from symgraph.analysis import predict

    part = "exact_sparse"
    family, exact, power, stats = (ctx.out(f"sparse-{name}") for name in
                                   ("family.txt", "power-exact.txt", "power.txt", "stats.json"))
    run_cli(p, ctx, f"{part}.family", ["family", "cycle", "19"], None, family)
    run_cli(p, ctx, f"{part}.power_exact", ["power", "-k", "3", "--exact"], family, exact)
    run_cli(p, ctx, f"{part}.power", ["power", "-k", "3"], family, power)
    run_cli(p, ctx, f"{part}.stats", ["stats"], power, stats)
    check_cli_outputs(p, ctx, part, {"family": family, "power_exact": exact, "power": power,
                                     "stats": stats})
    want = {"n": 1330, "edges": 4940, "loops": 0, "components": predict("cycle_components", 19, 3)}
    for message in stats_failures(stats.read_text() if stats.exists() else "", want):
        p.fail(f"{part}.stats", message)
    if exact.exists() and power.exists():
        exact_text, power_text = exact.read_text(), power.read_text()
        if exact_text.split("\n", 1)[0] != "1330" or edge_pairs(exact_text) != edge_pairs(power_text):
            p.fail(f"{part}.power_exact", "--exact output does not list the same pairs as the float output")


def add_verify(p: Pass, ctx: Context) -> None:
    recorded = {"verify_checks": ctx.expected.get("verify_checks", {}).get(str(ctx.seed), {})}
    result = ctx.out("verify.json")
    child = run_child(ctx.worker("verify", "--out", str(result)), timeout=ctx.timeout)
    p.wall += child.wall
    p.layers["verify_all.s"] += child.wall
    data = p.op("verify", child, result)
    for name, suite in (data or {}).get("suites", {}).items():
        if not suite["ok"]:
            p.fail("verify", f"suite {name} failed")
        p.expect("verify", "verify_checks", name, suite["checks"], recorded)


def run_pass(ctx: Context) -> Pass:
    p = Pass()
    if ctx.workload == "kernel_grid":
        for kind in GRID:
            add_kernel_rows(p, ctx, kind)
    else:
        add_pipeline_dense(p, ctx)
        add_exact_sparse(p, ctx)
        add_verify(p, ctx)
    return p


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def measure_setup(reps: int = SETUP_REPS) -> list[Child]:
    """Fresh interpreters importing symgraph.cli, timed from spawn to exit."""
    return [run_child([sys.executable, "-c", "import symgraph.cli"]) for _ in range(reps)]


def end_to_end_metrics(passes: list[Pass], setup_s: float, failed: int = 0) -> dict:
    attempted = sum(p.attempted for p in passes)
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "ok_ratio": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def layer_metrics(traced: Pass, base: Pass) -> dict[str, float]:
    layers = traced.layers
    values = {name: float(layers.get(name, 0.0)) for name, _, _ in PER_LAYER}
    sym_s = layers.get("power.sym_power.s", 0.0)
    entries = layers.get("power.entries", 0.0)
    values["power.entries_per_s"] = entries / sym_s if sym_s else 0.0
    values["power.nonzero_ratio"] = layers.get("power.nonzero_entries", 0.0) / entries if entries else 0.0
    values["trace.overhead_ratio"] = traced.wall / base.wall - 1.0 if base.wall else 0.0
    return values


def report(p: Pass, tag: str) -> None:
    print(f"{tag}: wall {p.wall:.4f} s, cpu {p.cpu:.4f} s, peak rss {p.rss_mb:.1f} MB, "
          f"ops {p.attempted}, failed {len(p.failed_ops)}", file=sys.stderr)
    for message in p.failures:
        print(f"  FAIL {message}", file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    started = time.perf_counter()
    ctx = Context(workload, seed, work, False, expected, deadline=started + RUN_LIMIT)

    if trace:
        base = run_pass(ctx)
        report(base, "untraced pass")
        ctx.trace, ctx.pass_id = True, 1
        traced = run_pass(ctx)
        report(traced, "traced pass")
        passes = [base, traced]
        failed = sum(len(p.failed_ops) for p in passes)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layer_metrics(traced, base).items()}
    else:
        measure_setup(1)  # warm the file cache and the bytecode cache
        setups = measure_setup()
        passes = []
        measure_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(ctx))
            report(passes[-1], f"pass {ctx.pass_id}")
            now = time.perf_counter()
            last = now - pass_start
            if (passes[-1].failed_ops or now + last > measure_start + seconds
                    or now + last > started + RUN_LIMIT):
                break
            ctx.pass_id += 1
        setups += measure_setup()  # set-up is sampled at both ends of the run
        print(f"{len(passes)} passes, {len(setups)} set-ups, "
              f"blas threads {THREAD_ENV['OPENBLAS_NUM_THREADS']}", file=sys.stderr)
        setup_failed = any(c.code != 0 for c in setups)
        failed = sum(len(p.failed_ops) for p in passes) + setup_failed
        metrics = end_to_end_metrics(passes, statistics.median(c.wall for c in setups), failed)
    attempted = sum(p.attempted for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symgraph" / "cli.py").is_file():
        print(f"error: no symgraph sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before anything here imports numpy
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

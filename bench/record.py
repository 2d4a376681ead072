"""Record the outputs the benchmark checks against, into bench/expected.json.

    python3 bench/record.py --seeds 0-15

Records, per seed, the digest of every exact kernel core (int and bigrat
rows), the float rows' spurious-entry counts (for reference; they are not
checked, since fixing the float kernel changes them) and the check count of
every verify suite; and, once, the digest of every CLI output file.  Run it
only on a commit whose outputs are known to be right: later runs fail on
any difference.  Refuses to write if any other check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args()
    os.environ.update(run.THREAD_ENV)
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "record"
    work.mkdir(parents=True, exist_ok=True)
    recorded: dict = {"kernel": {}, "float_spurious_entries": {}, "verify_checks": {}, "cli": {}}
    for seed in parse_seeds(args.seeds):
        observed: dict = {}
        for workload in run.WORKLOADS:
            p = run.run_pass(run.Context(workload, seed, work, False, {}))
            if p.failures:
                raise SystemExit(f"{workload} seed {seed} failed: {p.failures}")
            observed.update(p.observed)
        print(f"seed {seed}: {observed}", file=sys.stderr)
        for part in ("kernel", "float_spurious_entries", "verify_checks"):
            recorded[part][str(seed)] = observed[part]
        for part in ("pipeline_dense", "exact_sparse"):  # the same on every seed
            recorded["cli"][part] = observed[part]
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

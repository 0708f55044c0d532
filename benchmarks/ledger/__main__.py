"""Command line of the performance ledger.

    PYTHONPATH=src python -m benchmarks.ledger run --seed 11
    PYTHONPATH=src python -m benchmarks.ledger run --seed 11 --trace
    PYTHONPATH=src python -m benchmarks.ledger compare \\
        --parent P1.json ... --change C1.json ...

``run`` measures every workload, each in its own process, prints every
metric by name with its unit, and writes one ledger file.  ``compare``
is :mod:`benchmarks.ledger.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from benchmarks.ledger import compare, harness, workloads


def run_all(args):
    ledger = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    failed = 0
    for name in workloads.WORKLOAD_NAMES:
        cmd = [sys.executable, harness.RUN_PY, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                              text=True, timeout=300)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("workload %s did not finish" % name)
            return 1
        record, _ = harness.parse_output(proc.stdout)
        harness.print_record(record)
        ledger["workloads"][name] = record
        ledger["host"] = record["host"]
        failed += record["failed"]
    out = args.out or os.path.join(
        harness.WORK_ROOT, "ledger-s%d%s.json"
        % (args.seed, "-trace" if args.trace else ""))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("ledger written to %s" % out)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=11,
                     help="input seed (default 11; hold out 23 for claims)")
    run.add_argument("--seconds", type=float,
                     default=harness.load_benchmark()["run_seconds"])
    run.add_argument("--trace", action="store_true",
                     help="also measure per-layer spans")
    run.add_argument("--out", help="ledger file to write")
    check = commands.add_parser("compare", help="parent vs change runs")
    check.add_argument("--parent", nargs="+", required=True)
    check.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_all(args)
    return compare.main(harness.load_benchmark(), args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())

"""Check a change's ledger files against its parent's.

Usage (ledger files written by ``python -m benchmarks.ledger run``)::

    PYTHONPATH=src python -m benchmarks.ledger compare \\
        --parent P1.json P2.json ... --change C1.json C2.json ...

Pair *i* is parent file *i* against change file *i*; alternate which
side runs first when producing them.  Per workload and end-to-end
metric of ``BENCHMARK.json`` it prints both sides' median and quartiles
and one verdict, modelled on ``benchmarks/check_ablation_regression.py``
and the claim rule of the choosing-metrics guide:

``REGRESSION``
    the change's median is worse than the parent's by more than the
    metric's bound (``setup_s`` must also move by more than 0.05 s), or
    every change run is worse than every parent run;
``unresolved``
    either side's spread (quartile distance over median) exceeds the
    bound, so "no regression" cannot be claimed;
``improved``
    a gain may be claimed: at least 10 pairs, the change wins at least
    9 in 10 of them (ties count for neither), and the medians differ by
    more than the parent's quartile distance;
``ok``
    within the bound, no claim.

A difference in ``sim.cycles`` or ``sim.retired`` between a parent and a
change run of the same workload and seed, or any failed job in the
change, is a hard failure.  The exit status is 1 on a regression or a
hard failure.
"""

from __future__ import annotations

import json
import statistics

SETUP_FLOOR_S = 0.05
MIN_PAIRS = 10
WIN_SHARE = 0.9
EXACT = ("sim.cycles", "sim.retired")


def quartiles(values):
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(spec, parent, change):
    """The verdict for one metric: ``spec`` is its ``BENCHMARK.json``
    entry, ``parent``/``change`` its values, pair-aligned."""
    sign = 1.0 if spec["better"] == "lower" else -1.0  # > 0 means worse

    def worse(c, p):
        return sign * (c - p) > 0

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    bound = spec["bound"]
    if all(worse(c, p) for c in change for p in parent):
        return "REGRESSION"
    all_better = all(worse(p, c) for c in change for p in parent)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    if spread > bound and not all_better:
        return "unresolved"
    moved = abs(c_med - p_med)
    if (sign * (c_med - p_med) / p_med > bound
            and (spec["name"] != "setup_s" or moved > SETUP_FLOOR_S)):
        return "REGRESSION"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if worse(p, c))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and moved > p_q3 - p_q1 and sign * (c_med - p_med) < 0):
        return "improved"
    return "ok"


def hard_failures(parents, changes):
    """Messages for exact-count differences and failed change jobs."""
    problems = []
    for change in changes:
        for name, record in change["workloads"].items():
            if record["failed"]:
                problems.append("%s: %d failed job(s) in the change: %s"
                                % (name, record["failed"],
                                   "; ".join(record["errors"])))
            for parent in parents:
                other = parent["workloads"].get(name)
                if other is None or other["seed"] != record["seed"]:
                    continue
                for metric in EXACT:
                    old = other["metrics"][metric]["value"]
                    new = record["metrics"][metric]["value"]
                    if old != new:
                        problems.append("%s seed %d: %s %s -> %s"
                                        % (name, record["seed"], metric,
                                           old, new))
    return sorted(set(problems))


def compare(benchmark, parents, changes):
    """``(rows, problems)``: one row per workload and metric."""
    rows = []
    for name in parents[0]["workloads"]:
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            parent = [p["workloads"][name]["metrics"][metric]["value"]
                      for p in parents if name in p["workloads"]]
            change = [c["workloads"][name]["metrics"][metric]["value"]
                      for c in changes if name in c["workloads"]]
            rows.append((name, metric, spec["unit"], quartiles(parent),
                         quartiles(change), verdict(spec, parent, change)))
    return rows, hard_failures(parents, changes)


def main(benchmark, parent_paths, change_paths):
    parents = [_load(path) for path in parent_paths]
    changes = [_load(path) for path in change_paths]
    rows, problems = compare(benchmark, parents, changes)
    print("%d parent run(s), %d change run(s)" % (len(parents), len(changes)))
    for name, metric, unit, (p1, pm, p3), (c1, cm, c3), result in rows:
        print("%-15s %-12s parent %11.5g [%.5g, %.5g]  change %11.5g "
              "[%.5g, %.5g] %s  %+6.1f%%  %s"
              % (name, metric, pm, p1, p3, cm, c1, c3, unit,
                 100.0 * (cm - pm) / pm, result))
    for problem in problems:
        print("FAIL " + problem)
    regressed = any(row[-1] == "REGRESSION" for row in rows)
    return 1 if regressed or problems else 0


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)

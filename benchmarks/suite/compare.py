#!/usr/bin/env python3
"""Compare two dsbench result files under the bounds in ``dsbench/metrics.py``.

    python benchmarks/suite/compare.py A.json B.json
    python benchmarks/suite/compare.py --self F.json

``A`` is the parent, ``B`` the change; each file holds several ``--trace 0``
passes written by ``run.py --out``.  ``--self`` splits one file into alternate
passes (1st, 3rd, ... against 2nd, 4th, ...) — the check that a benchmark
agrees with itself.  For every workload and end-to-end metric it prints both
medians and quartiles and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  the quartile spread of either side is wider than the bound,
                so the data cannot tell — unless every pass of one side beats
                every pass of the other, which settles it either way.

Exit code 1 on any ``regressed`` verdict or any failed operation, 2 when the
files do not compare (other core count or segment counts).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from dsbench.metrics import END_TO_END, Metric, iqr_spread  # noqa: E402

Runs = List[Dict[str, Any]]


def load(path: Path) -> Tuple[Dict[str, Any], Runs]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["stamp"], [run for run in data["runs"] if not run.get("trace")]


def values_of(runs: Runs, workload: str, metric: str) -> List[float]:
    return [run["workloads"][workload]["metrics"][metric]
            for run in runs if workload in run["workloads"]]


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, worsening)`` with worsening as a share of the parent's median."""
    median_a, median_b = statistics.median(parent), statistics.median(change)
    delta = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worsening = delta if metric.better == "lower" else -delta
    separated = max(parent) < min(change) or max(change) < min(parent)
    if max(iqr_spread(parent), iqr_spread(change)) > metric.bound and not separated:
        return "unresolved", worsening
    return ("regressed" if worsening > metric.bound else "ok"), worsening


def compare(parent: Runs, change: Runs) -> int:
    """Print the table; return the number of ``regressed`` verdicts."""
    workloads = [name for name in parent[0]["workloads"] if name in change[0]["workloads"]]
    regressed = 0
    print(f"{'workload':<14s} {'metric':<15s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in END_TO_END:
            a = values_of(parent, workload, metric.name)
            b = values_of(change, workload, metric.name)
            result, worsening = verdict(metric, a, b)
            regressed += result == "regressed"
            cells = []
            for values in (a, b):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):11.5g} [{q1:9.5g}, {q3:9.5g}]")
            print(f"{workload:<14s} {metric.name:<15s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{worsening:>+9.1%} {metric.bound:>6.1%}  {result}")
    return regressed


def failed_operations(runs: Runs) -> int:
    return sum(result.get("failed", 0) for run in runs for result in run["workloads"].values())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, metavar="RESULTS.json")
    parser.add_argument("--self", dest="self_file", type=Path, metavar="F",
                        help="split one result file into alternate passes")
    args = parser.parse_args(argv)
    if args.self_file is not None and not args.files:
        _stamp, runs = load(args.self_file)
        parent, change = runs[0::2], runs[1::2]
    elif args.self_file is None and len(args.files) == 2:
        (stamp_a, parent), (stamp_b, change) = load(args.files[0]), load(args.files[1])
        if stamp_a["cpu_count"] != stamp_b["cpu_count"]:
            print(f"not comparable: {stamp_a['cpu_count']} vs {stamp_b['cpu_count']} cores",
                  file=sys.stderr)
            return 2
        shared = set(stamp_a["segments"]) & set(stamp_b["segments"])
        if any(stamp_a["segments"][w] != stamp_b["segments"][w] for w in shared):
            print(f"not comparable: segment counts {stamp_a['segments']} vs "
                  f"{stamp_b['segments']}", file=sys.stderr)
            return 2
    else:
        parser.error("give two result files, or --self with one")
    if not parent or not change:
        print("not comparable: a side has no --trace 0 pass", file=sys.stderr)
        return 2
    regressed = compare(parent, change)
    failed = failed_operations(parent) + failed_operations(change)
    print(f"\n{len(parent)} vs {len(change)} passes: {regressed} regressed, "
          f"{failed} failed operations")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())

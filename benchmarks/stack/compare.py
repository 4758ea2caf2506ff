"""Compare two sets of stack-benchmark runs, metric by metric.

    python3 benchmarks/stack/compare.py --a PARENT.jsonl ... --b CHANGE.jsonl ...

Reads the run records ``run.py --out`` appends. For every (end-to-end
metric, workload) it prints each side's median and quartiles, the
fraction of run pairs B wins, and one verdict, using the bounds and
directions in ``BENCHMARK.json``:

* ``unresolved``: either side's quartile distance, as a share of its
  median, is wider than the bound, and not every B run beats every A run;
* ``regressed``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least nine tenths of the pairs and the medians
  differ by more than A's quartile distance;
* ``within bound``: otherwise.

Pairs are runs in order (the i-th A with the i-th B) when both sides ran
equally often, else every A run with every B run; ties count for
neither side. The diagnostics and the per-layer metrics carry no bound:
they read ``better`` by the same rule or nothing. Records of runs whose
open loop fell behind its schedule are left out. Exits 1 when any
verdict is ``regressed`` or ``unresolved``, and 2 without a table when
the records were not all taken with the same run length and scale.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def win_fraction(a: list[float], b: list[float], better: str) -> float:
    """Share of run pairs in which B reads better than A."""
    pairs = (
        list(zip(a, b)) if len(a) == len(b)
        else [(x, y) for x in a for y in b]
    )
    sign = 1 if better == "higher" else -1
    return sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)


def gained(a: list[float], b: list[float], better: str) -> bool:
    """B wins nine tenths of the pairs and the medians differ by more
    than A's quartile distance."""
    q1_a, _, q3_a = quartiles(a)
    return (
        win_fraction(a, b, better) >= 0.9
        and abs(median(b) - median(a)) > q3_a - q1_a
    )


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """One of better / within bound / regressed / unresolved."""
    sign = 1 if better == "higher" else -1
    med_a, med_b = median(a), median(b)
    separated = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not separated:
        return "unresolved"
    if sign * (med_a - med_b) / abs(med_a) > bound:
        return "regressed"
    if gained(a, b, better):
        return "better"
    return "within bound"


def load(
    paths: list[Path], settings: set[tuple[float, float]]
) -> dict[tuple[str, bool], dict[str, list[float]]]:
    """``(workload, traced) -> metric -> values`` of the valid records,
    in file order; adds each record's ``(seconds, scale)`` to
    ``settings``."""
    runs: dict[tuple[str, bool], dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for path in paths:
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if not record.get("valid", True):
                print(f"{path}: left out an invalid {record['workload']} run "
                      f"(seed {record.get('seed')})", file=sys.stderr)
                continue
            settings.add((record["seconds"], record["scale"]))
            key = (record["workload"], record["trace"])
            for name, metric in record["metrics"].items():
                runs[key][name].append(metric["value"])
    return runs


def compare(a_runs, b_runs, spec: dict) -> tuple[list[list[str]], bool]:
    """Table rows for every metric both sides report, and whether any
    verdict was regressed or unresolved."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    unbounded = {m["name"]: m for m in spec["per_layer"]}
    rows = []
    failing = False
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, traced = key
        for name in sorted(set(a_runs[key]) & set(b_runs[key])):
            a, b = a_runs[key][name], b_runs[key][name]
            bounded = not traced and name in bounds
            metric = bounds[name] if bounded else unbounded.get(name)
            if metric is None:
                rows.append([workload, name, _fmt(a), _fmt(b), "", "", ""])
                continue
            if bounded:
                result = verdict(a, b, metric["bound"], metric["better"])
                failing |= result in ("regressed", "unresolved")
            else:
                result = "better" if gained(a, b, metric["better"]) else ""
            rows.append([
                workload, name, _fmt(a), _fmt(b),
                f"{max(spread(a), spread(b)):.3f}/{metric.get('bound', '-')}",
                f"{win_fraction(a, b, metric['better']):.2f}",
                result,
            ])
    return rows, failing


def _fmt(values: list[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--a", nargs="+", type=Path, required=True)
    parser.add_argument("--b", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    settings: set[tuple[float, float]] = set()
    a_runs, b_runs = load(args.a, settings), load(args.b, settings)
    if len(settings) > 1:
        print(f"records mix run settings (seconds, scale): {sorted(settings)}",
              file=sys.stderr)
        return 2
    rows, failing = compare(a_runs, b_runs, spec)
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "spread/bound", "B wins", "verdict"]
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

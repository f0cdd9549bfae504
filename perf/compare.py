"""A/B comparison of two sets of benchmark runs.

Usage::

    python3 perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``run_*.json`` files that ``perf/run.py --out
DIR`` wrote.  For every (workload, metric) pair this prints both sides'
median and quartiles and the change's win fraction over chronologically
paired runs, and for end-to-end metrics a verdict from the bounds in
``BENCHMARK.json``:

``improved``
    the change wins at least 9 of 10 pairs and the medians differ, in
    the better direction, by more than the parent's interquartile range;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``unresolved``
    either side's interquartile range, relative to its median, is wider
    than the bound;
``unchanged``
    anything else.

Smoke runs are ignored.  The exit status is 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

WIN_FRACTION = 0.9


def load_runs(directory: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` in the order the runs started."""
    records = []
    for path in Path(directory).glob("run_*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record["smoke"]:
            records.append(record)
    records.sort(key=lambda record: record["started_unix"])
    values: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def win_fraction(parent: Sequence[float], change: Sequence[float], better: str) -> float:
    """Share of (parent[i], change[i]) pairs the change wins; ties lose."""
    pairs = list(zip(parent, change))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    return wins / len(pairs) if pairs else 0.0


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if win_fraction(parent, change, better) >= WIN_FRACTION and gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * abs(p_med):
        return "regressed"
    if max(relative_iqr(parent), relative_iqr(change)) > bound:
        return "unresolved"
    return "unchanged"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    print(
        f"{'workload':<17} {'metric':<24} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'delta':>8} {'wins':>6}  verdict"
    )
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        old, new = parent[key], change[key]
        o1, om, o3 = quartiles(old)
        n1, nm, n3 = quartiles(new)
        delta = (nm - om) / abs(om) if om else 0.0
        wins = win_fraction(old, new, spec["better"])
        result = "-"
        if "bound" in spec:
            result = verdict(old, new, spec["better"], spec["bound"])
            regressed = regressed or result == "regressed"
        print(
            f"{workload:<17} {name:<24} "
            f"{om:>12.6g} [{o1:>9.6g}, {o3:>9.6g}] "
            f"{nm:>12.6g} [{n1:>9.6g}, {n3:>9.6g}] "
            f"{delta:>+8.2%} {wins:>6.0%}  {result} "
            f"(n={len(old)}/{len(new)}, {spec['unit']})"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

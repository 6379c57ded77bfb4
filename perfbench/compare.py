"""Layer-attribution comparison of two benchmark result sets.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the records ``run.py --out`` appends (one per run).  For
every workload in both sets this prints one row: each end-to-end metric's
median change next to the per-layer self-time changes, largest first, so
a regression points at a layer rather than at a geomean.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

Medians = Dict[str, Dict[str, Dict[str, float]]]

#: Layer self-time deltas shown per row.
TOP_LAYERS = 6


def load(path: str) -> Medians:
    """``{workload: {"e2e"|"layers": {metric: median}}}``."""
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record.get("correct"):
                continue
            part = "layers" if record["trace"] else "e2e"
            slot = values.setdefault(record["workload"],
                                     {"e2e": {}, "layers": {}})[part]
            for name, metric in record["metrics"].items():
                slot.setdefault(name, []).append(metric["value"])
    return {workload: {part: {name: statistics.median(vals)
                              for name, vals in metrics.items()}
                       for part, metrics in parts.items()}
            for workload, parts in values.items()}


def host_factor(path: str) -> float:
    """Median yardstick factor (reference-host seconds per host second)
    over a result set's records."""
    with open(path) as fh:
        values = [record["yardstick_factor"]
                  for record in map(json.loads, filter(str.strip, fh))
                  if record.get("yardstick_factor")]
    return statistics.median(values) if values else 0.0


def _pct(old: float, new: float) -> str:
    return f"{100 * (new - old) / old:+.1f}%" if old else "n/a"


def rows(before: Medians, after: Medians) -> List[str]:
    out = []
    for workload in sorted(set(before) & set(after)):
        old, new = before[workload], after[workload]
        e2e = [f"{name} {_pct(old['e2e'][name], new['e2e'][name])}"
               for name in old["e2e"] if name in new["e2e"]]
        deltas = []
        for name, value in old["layers"].items():
            if name.endswith(".self_s") and name in new["layers"]:
                deltas.append((new["layers"][name] - value, name, value))
        deltas.sort(key=lambda d: -abs(d[0]))
        layers = [f"{name[:-len('.self_s')]} {delta:+.4f}s "
                  f"({_pct(value, value + delta)})"
                  for delta, name, value in deltas[:TOP_LAYERS] if delta]
        if not old["layers"] or not new["layers"]:
            layers = ["no traced runs"]
        out.append(f"{workload:<16} | "
                   + (", ".join(e2e) or "no untraced runs") + " | "
                   + (", ".join(layers) or "no layer changed"))
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[1]), load(argv[2])
    table = rows(before, after)
    if not table:
        print("no workload with correct runs in both result sets",
              file=sys.stderr)
        return 1
    before_f, after_f = host_factor(argv[1]), host_factor(argv[2])
    print(f"yardstick factor: {before_f:.3f} before, {after_f:.3f} after "
          "(all times below are already scaled by it)")
    print(f"{'workload':<16} | end-to-end median change | layer self-time "
          "change (traced)")
    print("\n".join(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

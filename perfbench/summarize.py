"""Summarize the runs left in ``.perfbench/`` as JSON on stdout: per
workload, the median and quartiles of every metric over the untraced runs,
the per-layer values of the traced runs, and the machine notes.

    python3 perfbench/summarize.py > perfbench/baseline.json
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

WORK = Path(__file__).resolve().parent.parent / ".perfbench"


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2],
            "iqr_over_median": (q[2] - q[0]) / med if med else 0.0}


def main() -> int:
    runs: dict[tuple[str, int], list[dict]] = {}
    for f in sorted(WORK.glob("*-seed*-trace[01]/result.json")):
        workload, rest = f.parent.name.rsplit("-seed", 1)
        trace = int(rest.rsplit("-trace", 1)[1])
        runs.setdefault((workload, trace), []).append(json.loads(f.read_text()))
    out: dict[str, dict] = {}
    for (workload, trace), rs in sorted(runs.items()):
        entry = out.setdefault(workload, {})
        key = "traced" if trace else "untraced"
        names = rs[0]["named"] if not trace else {
            n: [m["value"], m["unit"]] for n, m in rs[0]["result"]["metrics"].items()}
        table = {}
        for n, (_, unit) in names.items():
            vals = [r["named"][n][0] if not trace else r["result"]["metrics"][n]["value"]
                    for r in rs]
            table[n] = dict(spread(vals), unit=unit)
        entry[key] = {"runs": len(rs),
                      "attempted": sum(r["result"]["attempted"] for r in rs),
                      "failed": sum(r["result"]["failed"] for r in rs),
                      "metrics": table}
        entry["meta"] = {k: v for k, v in rs[0]["meta"].items()
                         if k not in ("probe_ms", "raw_round_s")}
        entry[key]["probe_ms_median"] = spread([r["meta"]["probe_ms"]["median"] for r in rs])
        entry[key]["raw_round_s"] = spread([r["meta"]["raw_round_s"] for r in rs])
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

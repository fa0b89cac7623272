"""Fold the results of many runs into one point of the bench trajectory.

    python3 perfbench/summarize.py LABEL [RESULTS_DIR]

Reads every ``<workload>-s<seed>-t<trace>-<pid>.json`` that run.py wrote
(default ``perfbench/out/results``) and writes ``perfbench/BENCH_<LABEL>.json``:
per workload, the seeds, the environment of the first run, and per metric
the median, the quartiles (``statistics.quantiles(n=4)``) and the number of
runs, separately for untraced (end-to-end) and traced (per-layer) runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(results: Path) -> dict:
    runs = defaultdict(list)
    for f in sorted(results.glob("*.json")):
        r = json.loads(f.read_text())
        runs[r["workload"], r["trace"]].append(r)
    out: dict = {}
    for (workload, trace), rs in sorted(runs.items()):
        w = out.setdefault(workload, {"env": rs[0]["env"], "seconds": rs[0]["seconds"]})
        values = defaultdict(list)
        for r in rs:
            for name, m in r["result"]["metrics"].items():
                values[name].append((m["value"], m["unit"]))
        metrics = {}
        for name, vu in values.items():
            v = [x for x, _ in vu]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            metrics[name] = {
                "median": statistics.median(v), "q1": q[0], "q3": q[2],
                "n": len(v), "unit": vu[0][1],
            }
        w["traced" if trace else "untraced"] = {
            "seeds": [r["seed"] for r in rs],
            "failed": sum(r["result"]["failed"] for r in rs),
            "attempted": sum(r["result"]["attempted"] for r in rs),
            "metrics": metrics,
        }
    return out


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    label = sys.argv[1]
    results = Path(sys.argv[2]) if len(sys.argv) == 3 else HERE / "out" / "results"
    path = HERE / f"BENCH_{label}.json"
    path.write_text(json.dumps(summarize(results), indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

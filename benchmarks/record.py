"""Summarize benchmark result files across seeds, and optionally save the summary.

    python3 benchmarks/record.py .bench_work/results/*-trace0.json
    python3 benchmarks/record.py --label NAME --out benchmarks/history/BENCH_NAME.json FILES...

For each workload and metric it prints the median, the quartiles and their
distance as a share of the median (statistics.quantiles(values, n=4)), the
spread a bound in BENCHMARK.json has to cover.  With --out it writes that
summary, the environment of the first file and the seeds as one point of the
benchmark history.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    workloads: dict[str, dict] = {}
    for rec in records:
        w = workloads.setdefault(
            rec["workload"], {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}}
        )
        w["seeds"] = sorted({*w["seeds"], rec["seed"]})
        w["attempted"] += rec["attempted"]
        w["failed"] += rec["failed"]
        for name, m in rec["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"]
            )
    for w in workloads.values():
        for m in w["metrics"].values():
            values = m["values"]
            m["runs"] = len(values)
            m["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / abs(m["median"]) if m["median"] else None
    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--label")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    records = [json.loads(f.read_text()) for f in args.files]
    workloads = summarize(records)
    for name, w in sorted(workloads.items()):
        print(f"{name}: seeds {w['seeds']}, {w['failed']} of {w['attempted']} operations failed")
        for metric, m in w["metrics"].items():
            spread = m.get("spread")
            spread_text = "" if spread is None else f"  spread {spread:.4f}"
            print(
                f"  {metric:<26} {m['median']:>14.6g} {m['unit']:<8} "
                f"median of {m['runs']}{spread_text}"
            )
    if args.out:
        point = {
            "label": args.label,
            "environment": records[0]["environment"],
            "seconds": records[0]["seconds"],
            "workloads": workloads,
        }
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of benchmark records written with ``run.py --out``.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds ``*.json`` records of repeated runs (different seeds) of
one commit.  For every workload and end-to-end metric this prints both
medians and quartiles and whether the change is worse than the parent by
more than the metric's bound in ``BENCHMARK.json``.  Records taken on
different kernel backends are refused (exit 2): their timings do not
compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: str) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + change}
    if len(backends) != 1:
        print(f"compare: records span backends {sorted(backends)}; refusing", file=sys.stderr)
        return 2
    for key in ("nproc", "cpu"):
        seen = {str(r["env"][key]) for r in base + change}
        if len(seen) > 1:
            print(f"warning: records span {key} values {sorted(seen)}")
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    print(f"backend {backends.pop()}")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            name = m["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base
                 if r["workload"] == w["name"] and name in r["result"]["metrics"]]
            c = [r["result"]["metrics"][name]["value"] for r in change
                 if r["workload"] == w["name"] and name in r["result"]["metrics"]]
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (cq[1] - bq[1]) / bq[1]
            spread = (bq[2] - bq[0]) / bq[1]
            if worse_by > m["bound"]:
                verdict = "REGRESSION"
            elif spread > m["bound"]:
                verdict = "unresolved (parent spread above bound)"
            elif -worse_by > spread:
                verdict = "better"
            else:
                verdict = "no change"
            print(
                f"{w['name']:18s} {name:12s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
                f"worse by {worse_by:+.1%} (bound {m['bound']:.0%}) {verdict}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

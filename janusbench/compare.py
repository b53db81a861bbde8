#!/usr/bin/env python3
"""Compare two sets of janusbench result documents (standard library only).

    python3 janusbench/compare.py BASE_DIR_OR_FILES... -- NEW_DIR_OR_FILES...

Each side is a list of result documents (files, or directories searched for
*.json) as run.py writes them. Documents are grouped by workload and tracing
mode; for every end-to-end metric named in BENCHMARK.json the comparer prints
each side's median, first and third quartile (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the change of the new median
against the base median. A metric is "within" when the change in its worse
direction stays inside the metric's bound; exit status 1 when any is not, or
when a document reports failed outputs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(paths):
    docs = []
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "*.json"))) \
            if os.path.isdir(path) else [path]
        for name in files:
            with open(name) as f:
                doc = json.load(f)
            if doc.get("benchmark") == "janusbench":
                docs.append(doc)
    return docs


def group(docs):
    """{(workload, trace): {metric: [values]}} plus the failed-run count."""
    out = {}
    failed = 0
    for doc in docs:
        prov = doc["provenance"]
        key = (prov["workload"], bool(prov["trace"]))
        for name, m in doc["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
        failed += 0 if doc["correct"] else 1
    return out, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base_docs, new_docs = load(argv[:split]), load(argv[split + 1:])
    if not base_docs or not new_docs:
        print("compare.py: no result documents on one side", file=sys.stderr)
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, base_failed = group(base_docs)
    new, new_failed = group(new_docs)

    ok = base_failed == 0 and new_failed == 0
    print(f"base: {len(base_docs)} documents ({base_failed} with failures); "
          f"new: {len(new_docs)} documents ({new_failed} with failures)")
    header = (f"{'workload':10} {'metric':16} {'n':>3} {'base median':>12} "
              f"{'base q1..q3':>23} {'spread':>7} {'new median':>12} "
              f"{'new q1..q3':>23} {'spread':>7} {'change':>8} {'bound':>6}  verdict")
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace:
            continue  # per-layer metrics have no bound
        for name in bounds:
            if name not in base[key] or name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
            change = sign * (nmed - bmed) / bmed if bmed else 0.0
            bound = bounds[name]["bound"]
            within = change <= bound
            ok = ok and within
            print(f"{workload:10} {name:16} {min(len(b), len(n)):>3} "
                  f"{bmed:12.6g} {bq1:11.5g}..{bq3:<10.5g} "
                  f"{(bq3 - bq1) / bmed if bmed else 0:7.3f} "
                  f"{nmed:12.6g} {nq1:11.5g}..{nq3:<10.5g} "
                  f"{(nq3 - nq1) / nmed if nmed else 0:7.3f} "
                  f"{change:+8.3f} {bound:6.2f}  "
                  f"{'within' if within else 'WORSE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

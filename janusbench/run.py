#!/usr/bin/env python3
"""Build and run the JANUS benchmark.

    python3 janusbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 janusbench/run.py --workload all --seed 0        # every workload
    python3 janusbench/run.py --write-reference              # regenerate sizes

Run from the root of a JANUS checkout. The first call configures and builds
janusbench/ (with the library sources next to it) into .bench_build/; later
calls rebuild incrementally. Each workload runs in its own process. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
named in BENCHMARK.json. The full result document (provenance, every metric
with unit and sample count, outputs, attribution report) is written under
.bench_build/results/.

Exit status: 0 when every output checked out, 1 when a check failed (wrong
size against reference.json, failed oracle, unknown probe, error response),
2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("ladder", "bounds", "service", "portfolio")


def log(text):
    print(f"[run.py] {text}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "janusbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "janusbench")


def source_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def reference_failures(doc, reference):
    """Compare a result document's outputs with the committed reference."""
    workload = doc["provenance"]["workload"]
    bad = []
    for out in doc["outputs"]:
        name = out["name"]
        if workload == "ladder":
            want = reference["ladder"].get(name)
            got = {"lb": out["lb"], "size": out["size"]}
        elif workload == "bounds":
            want = reference["bounds"].get(name)
            got = {"lb": out["lb"], "ub": out["ub"]}
        elif workload == "portfolio":
            want = reference["portfolio"].get(name, {}).get(out["backend"])
            got = out["cost"]
        else:  # service: pool sizes are janus ladder sizes
            want = reference["portfolio"].get(name, {}).get("janus")
            got = out["size"]
        if want != got:
            bad.append(f"{workload} {name}: got {got}, reference {want}")
    return bad


def run_one(binary, workload, seed, seconds, trace):
    """One workload in its own process; returns its checked document."""
    work = os.path.join(BUILD, "work")
    results = os.path.join(BUILD, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    doc_path = os.path.join(
        results, f"{workload}-seed{seed}-trace{int(trace)}-{int(time.time())}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work", work, "--rev", source_rev(), "--out", doc_path]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"janusbench exited with {proc.returncode}")
    with open(doc_path) as f:
        doc = json.load(f)
    with open(REFERENCE) as f:
        reference = json.load(f)
    mismatches = reference_failures(doc, reference)
    if mismatches:
        doc["failures"] = doc["failures"] + mismatches
        doc["correct"] = False
        # A mismatching output is one more failed operation per pass.
        doc["failed"] = min(doc["attempted"], doc["failed"] + len(mismatches))
        doc["failed_ratio"] = doc["failed"] / doc["attempted"]
    with open(doc_path, "w") as f:
        json.dump(doc, f, indent=2)
    return doc


def contract_metrics(doc, trace):
    with open(SPEC) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {n: {"value": doc["metrics"][n]["value"],
                "unit": doc["metrics"][n]["unit"]} for n in names}


def print_document(doc):
    prov = doc["provenance"]
    print(f"# {prov['workload']}: seed {prov['seed']}, trace "
          f"{'on' if prov['trace'] else 'off'}, rev {prov['rev']}, "
          f"{prov['build_type']}, {prov['compiler']}, "
          f"{prov['hardware_threads']} hardware threads")
    for section in ("metrics", "extra"):
        for name, m in doc[section].items():
            note = f"  ({m['note']})" if m.get("note") else ""
            print(f"{prov['workload']:9} {name:28} {m['value']:>14.6g} "
                  f"{m['unit']:6} n={m['samples']}{note}")
    print(f"{prov['workload']:9} {'failed_ratio':28} {doc['failed_ratio']:>14.6g} "
          f"{'1':6} base={doc['attempted']} {doc['failed_base']}")
    report = doc.get("report")
    if report:
        print(f"{prov['workload']:9} coverage {report['coverage']:.4f} of a "
              f"{report['pass_wall_s']:.3f} s traced pass; trace file "
              f"{report['trace_file']}")
        for row in report["layers"]:
            print(f"{prov['workload']:9}   layer {row['layer']:10} "
                  f"count {row['count']:6} busy {row['busy_ms']:12.3f} ms "
                  f"self {row['self_ms']:12.3f} ms share {row['share']:.4f}")
    for failure in doc["failures"]:
        print(f"{prov['workload']:9} FAILED {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json (jobs=1, canonical set)")
    args = parser.parse_args()
    if not args.workload and not args.write_reference:
        parser.error("--workload or --write-reference is required")

    try:
        with open(SPEC) as f:
            spec = json.load(f)
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        binary = build()
        if args.write_reference:
            subprocess.run([binary, "--reference", "--out", REFERENCE],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
            log(f"wrote {REFERENCE}")
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        docs = []
        for name in names:
            log(f"{name}: seed {args.seed}, {seconds} s, trace {args.trace}")
            doc = run_one(binary, name, args.seed, seconds, args.trace == 1)
            print_document(doc)
            docs.append(doc)
    except (OSError, KeyError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as e:
        log(f"cannot run the benchmark: {e}")
        return 2

    correct = all(d["correct"] for d in docs)
    if len(docs) == 1:
        metrics = contract_metrics(docs[0], args.trace == 1)
    else:
        metrics = {f"{d['provenance']['workload']}.{n}": m
                   for d in docs
                   for n, m in contract_metrics(d, args.trace == 1).items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(d["attempted"] for d in docs),
                      "failed": sum(d["failed"] for d in docs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

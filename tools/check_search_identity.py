#!/usr/bin/env python3
"""Check that two bench_solver runs made the same search.

A solver change that only makes propagation cheaper must not move a single
decision, so every (instance, config) cell present in both bench_solver JSON
files must report the same `conflicts` and `propagations`. Wall times are
ignored. Cells present in only one file are skipped (a smoke run covers a
subset of the committed targets), but at least one cell must be shared.

Usage: python3 tools/check_search_identity.py NEW.json REFERENCE.json
Exits 0 when every shared cell matches, 1 on any difference (or no shared
cell), 2 on bad usage.
"""

import json
import sys

COUNTERS = ("conflicts", "propagations")
CONFIGS = ("scratch_off", "scratch_on", "session_off", "session_on")


def cells(path: str) -> dict[tuple[str, str], dict]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for inst in doc["instances"]:
        for cfg in CONFIGS:
            if cfg in inst:
                out[(inst["name"], cfg)] = inst[cfg]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: check_search_identity.py NEW.json REFERENCE.json",
              file=sys.stderr)
        return 2
    new, ref = cells(argv[1]), cells(argv[2])
    shared = sorted(new.keys() & ref.keys())
    if not shared:
        print("check_search_identity: no (instance, config) cell in common",
              file=sys.stderr)
        return 1
    failures = 0
    for name, cfg in shared:
        for counter in COUNTERS:
            a, b = new[(name, cfg)][counter], ref[(name, cfg)][counter]
            if a != b:
                failures += 1
                print(f"{name} {cfg} {counter}: {a} != {b}", file=sys.stderr)
    print(f"check_search_identity: {len(shared)} cells, "
          f"{failures} counter differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

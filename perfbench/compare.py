#!/usr/bin/env python3
"""Compares two perfbench reports of one workload (perfbench/out/*.json).

Refuses, with exit code 2, to compare reports whose workload, trace mode,
record count or generated-input digest differ, so that a change to the
input generator cannot pass for a change in speed.

usage: python3 perfbench/compare.py <report.json> <report.json>
"""
import json
import sys

IDENTITY = ("workload", "trace", "records", "input_digest")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    a, b = (json.load(open(path)) for path in argv[1:])
    for key in IDENTITY:
        va, vb = a["fingerprint"].get(key), b["fingerprint"].get(key)
        if va is None or va != vb:
            print(f"refusing to compare: {key} differs ({va!r} vs {vb!r})", file=sys.stderr)
            return 2
    print(f"{a['fingerprint']['workload']}: {argv[1]} (a) vs {argv[2]} (b)")
    print(f"{'metric':<34} {'a':>16} {'b':>16} {'b/a':>8}")
    for name, m in a["metrics"].items():
        x, y = m["value"], b["metrics"].get(name, {}).get("value", 0.0)
        ratio = f"{y / x:.3f}" if x else "-"
        print(f"{name:<34} {x:>16.6f} {y:>16.6f} {ratio:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

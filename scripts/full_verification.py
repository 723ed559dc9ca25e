#!/usr/bin/env python3
"""Run every identity family over seeded curve sweeps and write one JSON report.

Usage: python scripts/full_verification.py [--count 20] [--seed 42] [--out report.json]
"""

import argparse
import json
import time

from g2soliton.identities import identity_ids
from g2soliton.sweep import SweepConfig, run_sweep, summarize

# each family samples curves on the merged constraints of its identities
FAMILIES = [
    ("weierstrass", ["W1", "W2", "W3", "W4", "W5", "W6", "W7"]),
    ("jacobi", ["J1", "J2", "J3", "J4", "J5", "J6", "J7"]),
    ("integrability", ["INT-R", "INT-W", "INT-J", "Y1Y2"]),
    ("kummer", ["KUM2"]),
    ("quintic", ["WS1", "WS2", "WS3", "INT-W2", "KUM1"]),
    ("quintic-reduced", ["WS4", "WS5", "JS1", "JS2", "JS3", "JS4", "JS5", "INT-J2", "HP"]),
    ("projective", ["HP", "GII"]),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="verification_report.json")
    args = parser.parse_args()
    if args.count < 1:
        parser.error(f"--count must be at least 1, got {args.count}")

    payload = {"count": args.count, "seed": args.seed, "families": {}}
    clean = True
    catalog = identity_ids()
    for name, tags in FAMILIES:
        constraints = [c for tag in tags for c in catalog[tag].constraints]
        config = SweepConfig(count=args.count, seed=args.seed, constraints=constraints)
        start = time.perf_counter()
        reports = run_sweep(config, tags, jobs=args.jobs)
        elapsed = time.perf_counter() - start
        summary = summarize(reports)
        clean = clean and summary.clean and not summary.n_skipped
        payload["families"][name] = {
            "tags": tags,
            "constraints": [str(c) for c in config.constraints],
            "zero": summary.n_zero,
            "nonzero": summary.n_nonzero,
            "skipped": summary.n_skipped,
            "seconds": round(elapsed, 3),
            "failing_curves": summary.failing_curves,
        }
        print(
            f"{name:<16} {summary.n_zero:>4} zero  {summary.n_nonzero:>3} nonzero "
            f"{summary.n_skipped:>3} skipped   {elapsed:6.2f}s"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"report written to {args.out}")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())

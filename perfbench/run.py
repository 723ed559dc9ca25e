"""Benchmark of g2soliton, end to end and layer by layer.

    python3 perfbench/run.py --workload catalog-zero --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A fuller result file,
with a manifest of versions and settings, goes to perfbench/out/.  See
perfbench/README.md for what each workload does and how it is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 150
# calibration units bracketing each set-up process (about 10 ms each side)
SETUP_CALIBRATION_UNITS = 40


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import, generate the first inputs, run one warm-up item and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    if not (src / "g2soliton" / "__init__.py").is_file():
        raise SystemExit(f"error: no g2soliton sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import g2soliton

    if Path(g2soliton.__file__).resolve().parent != (src / "g2soliton").resolve():
        raise SystemExit(f"error: imported g2soliton from {g2soliton.__file__}, not from {src}")
    return g2soliton


def _rngs(seed: int):
    # integer seeds only: hashing a tuple would depend on PYTHONHASHSEED
    return random.Random(2 * seed), random.Random(2 * seed + 1)


def timed(fn, units: int):
    """(result, raw seconds, scaled seconds) of fn(), bracketed by the calibration loop."""
    from calibrate import loop_seconds, scaled

    before = loop_seconds(units)
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, scaled(elapsed, before, loop_seconds(units))


def _warm_up(workload, warm_rng) -> float:
    """Run one item twice, untimed, and return the cost of the second run with its checks."""
    from workloads import REPEATS

    item = workload.make_round(warm_rng)[0]
    inp = item.inputs[0]
    cost = 0.0
    for _ in range(2):
        start = time.perf_counter()
        out, _, _ = timed(lambda: workload.run(inp), workload.calibration_units)
        run_s = time.perf_counter() - start
        workload.check(inp, out, full=True, check_seed=item.check_seed)
        cost = REPEATS * run_s + (time.perf_counter() - start - run_s)
    return cost


def _time_setup(args) -> tuple:
    """Raw and scaled set-up times of SETUP_RUNS fresh processes.

    Each child prints time.monotonic() (one clock for all processes on the
    host) once its warm-up item is done; set-up is that moment minus the
    moment before the child was started.
    """
    from calibrate import loop_seconds, scaled

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    raw, norm = [], []
    for _ in range(SETUP_RUNS):
        before = loop_seconds(SETUP_CALIBRATION_UNITS)
        start = time.monotonic()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        elapsed = float(proc.stdout.split()[-1]) - start
        raw.append(elapsed)
        norm.append(scaled(elapsed, before, loop_seconds(SETUP_CALIBRATION_UNITS)))
    return raw, norm


def _manifest(g2soliton, args, argv) -> dict:
    import mpmath
    import numpy

    from g2soliton import curvering

    return {
        "package_version": g2soliton.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "rational_backend": f"{curvering.Rat.__module__}.{curvering.Rat.__qualname__}",
        "probe_digits": curvering.probe_digits(),
        "seed": args.seed,
        "argv": list(argv),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_passes(workload, rounds: list, tracer=None) -> dict:
    """Time every item REPEATS times, one pass over all items per repeat.

    Repeats of one item are a whole pass apart, so a slow spell of the host
    rarely covers all of them.  An item's time is the best of its repeats.
    """
    from workloads import REPEATS

    items = [item for rnd in rounds for item in rnd]
    raw = [[] for _ in items]
    scaled = [[] for _ in items]
    bad = [False] * len(items)
    problems: list[str] = []

    def execute(inp):
        if tracer is None:
            return workload.run(inp)
        tracer.begin_item()
        try:
            return workload.run(inp)
        finally:
            tracer.end_item()

    for r in range(REPEATS):
        for i, item in enumerate(items):
            inp = item.inputs[r]
            try:
                out, elapsed, norm = timed(lambda: execute(inp), workload.calibration_units)
                raw[i].append(elapsed)
                scaled[i].append(norm)
                found = workload.check(inp, out, full=r == 0, check_seed=item.check_seed)
            except Exception as exc:  # a failing item is data, the run goes on
                found = [f"{item.label}: {type(exc).__name__}: {exc}"]
            if found:
                bad[i] = True
                problems.extend(found[:3])
    return {
        "attempted": len(items),
        "failed": sum(bad),
        "rounds": len(rounds),
        "best_s": [min(t) for t, b in zip(scaled, bad) if not b],
        "raw_best_s": [min(t) for t, b in zip(raw, bad) if not b],
        "problems": problems,
    }


def _rate(best: list) -> float:
    return len(best) / sum(best) if best else 0.0


def _p50_ms(best: list) -> float:
    return statistics.median(best) * 1000 if best else 0.0


def end_to_end(best: list, setup_s: float) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "items_per_s": {"value": _rate(best), "unit": "1/s"},
        "item_ms_p50": {"value": _p50_ms(best), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    g2soliton = _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    rng, warm_rng = _rngs(args.seed)
    if args.setup_only:
        workload.run(workload.make_round(warm_rng)[0].inputs[0])
        print(time.monotonic())
        return 0

    setup_raw, setup_scaled = ([], []) if args.trace else _time_setup(args)
    item_cost = _warm_up(workload, warm_rng)
    n_rounds = max(1, round(args.seconds / (item_cost * workload.round_size)))
    rounds = [workload.make_round(rng) for _ in range(n_rounds)]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        outcome = run_passes(workload, rounds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    best = outcome["best_s"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "manifest": _manifest(g2soliton, args, argv),
        "workload": args.workload,
        "trace": args.trace,
        "calibration_units": workload.calibration_units,
        "rounds": outcome["rounds"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": outcome["problems"][:50],
        "item_best_ms": [t * 1000 for t in best],
        "raw_items_per_s": _rate(outcome["raw_best_s"]),
        "raw_item_ms_p50": _p50_ms(outcome["raw_best_s"]),
    }
    if tracer is None:
        metrics = end_to_end(best, statistics.median(setup_scaled))
        record["setup_raw_s"] = setup_raw
        record["setup_scaled_s"] = setup_scaled
    else:
        metrics = tracer.per_layer()
        record["traced_items_per_s"] = _rate(best)
        untraced = OUT_DIR / f"{stem}-trace0.json"
        if untraced.is_file():
            plain = json.loads(untraced.read_text())["metrics"]["items_per_s"]["value"]
            record["tracing_overhead"] = _rate(best) / plain if plain else None
        spans = OUT_DIR / f"{args.workload}-spans.npz"
        tracer.save_spans(spans)
        record["spans_file"] = spans.name
        record["span_count"] = len(tracer.span_name)
    record["metrics"] = metrics
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

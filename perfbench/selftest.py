"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs one item of every workload and requires its checks to pass, then
corrupts each kind of output and requires the matching check to fail.  It
also runs run.py for one round in both modes and compares the printed
metrics with BENCHMARK.json, and runs it in a copy holding only the
benchmark files, where it must exit non-zero without a result.  Exit status
0 means every assertion held.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from g2soliton import identities  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def one_item(workload):
    item = workload.make_round(random.Random(7))[0]
    inp = item.inputs[0]
    out = workload.run(inp)
    problems = workload.check(inp, out, full=True, check_seed=item.check_seed)
    expect(problems == [], f"{workload.name}: one item passes its checks {problems[:2]}")
    return item, inp, out


def flags(workload, inp, out, item, what: str) -> None:
    problems = workload.check(inp, out, full=True, check_seed=item.check_seed)
    expect(bool(problems), f"{workload.name}: {what} is caught")


def test_catalog() -> None:
    w = wl.CatalogZero()
    item, curve, report = one_item(w)
    bad = copy.deepcopy(report)
    bad.results[0] = dataclasses.replace(bad.results[0], status="nonzero")
    flags(w, curve, bad, item, "a flipped status")
    bad = copy.deepcopy(report)
    bad.results.pop()
    flags(w, curve, bad, item, "a missing identity")

    fns = identities.G2Functions(curve)
    xs, signs = ref.probe_point(curve.lambdas, random.Random(1), wl.LOW_DPS)
    expect(wl.vanishes(*wl.probe_twice("W1", fns, xs, signs)), "catalog-zero: a true zero vanishes at a probe point")
    expect(not wl.vanishes(*wl.probe_twice("INT-W2", fns, xs, signs)), "catalog-zero: an off-locus residual does not vanish")
    expect(w.check_flows(fns, xs, signs) == [], "catalog-zero: flow derivatives match central differences")
    fns._derivs[("q", "1")] = fns.deriv("q", "2")
    expect(bool(w.check_flows(fns, xs, signs)), "catalog-zero: a wrong first derivative is caught")
    fns = identities.G2Functions(curve)
    fns._derivs[("hp11", "12")] = fns.deriv("hp11", "11")
    expect(bool(w.check_flows(fns, xs, signs)), "catalog-zero: a wrong second derivative is caught")


def test_offlocus() -> None:
    w = wl.OfflocusWitness()
    item, curve, (fns, found) = one_item(w)
    tag, point, value = found[0]
    # the same point, but the residual of an identity that holds on every curve
    expect(bool(w.check_witness("W1", fns, point, value)), "offlocus-witness: a witness where the residual is zero is caught")
    expect(bool(w.check_witness(tag, fns, point, str(2 * float(value)))), "offlocus-witness: a wrong witness value is caught")
    moved = [point[1], point[0] + 0.01] + list(point[2:])
    moved_found = [(tag, moved, value)] + found[1:]
    flags(w, curve, (fns, moved_found), item, "a witness moved off its point")
    flags(w, curve, (fns, [(tag, None, None)] + found[1:]), item, "a missing witness")


def test_soliton() -> None:
    w = wl.SolitonEvolve()
    item, x0, out = one_item(w)
    final = out.final.copy()
    final[17] += 1e-5
    flags(w, x0, dataclasses.replace(out, final=final), item, "a perturbed soliton sample")
    flags(w, x0, dataclasses.replace(out, final=np.roll(out.final, 1)), item, "a soliton one cell off")
    flags(w, x0, dataclasses.replace(out, window_residual=2e-6), item, "a large KdV residual")
    v_mid = out.v_mid + 1e-6 * np.cos(np.arange(len(out.v_mid)))
    flags(w, x0, dataclasses.replace(out, v_mid=v_mid), item, "a Miura map off by 1e-6")
    u_window = [u.copy() for u in out.u_window]
    u_window[3] += 1e-6
    flags(w, x0, dataclasses.replace(out, u_window=u_window), item, "a mapped trajectory that misses KdV")


def test_pointwise() -> None:
    w = wl.GenusOnePointwise()
    item, z, out = one_item(w)
    s, c, d = out.triples[0]
    flags(w, z, dataclasses.replace(out, triples=[(s + 1e-9, c, d)] + out.triples[1:]), item, "a perturbed sn value")
    flags(w, z, dataclasses.replace(out, periods=[out.periods[0] * (1 + 1e-10)] + out.periods[1:]), item, "a perturbed quarter period")
    flags(w, z, dataclasses.replace(out, halfperiod=2e-9), item, "a half-period residual over tolerance")
    flags(w, z, dataclasses.replace(out, weierstrass=2e-9), item, "a Weierstrass residual over tolerance")
    lhs, rhs = out.statics[1]
    flags(w, z, dataclasses.replace(out, statics=[out.statics[0], (lhs + 1e-3, rhs)] + out.statics[2:]), item, "a broken factorisation")
    flags(w, z, dataclasses.replace(out, jet=w.run(z + 0.01).jet), item, "an sn jet taken at the wrong point")
    res = out.commutator.copy()
    res[0, 0] += 1e-6
    flags(w, z, dataclasses.replace(out, commutator=res), item, "a nonzero commutator diagonal")


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_contract() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.PER_LAYER],
           "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    expect(sorted(x["name"] for x in spec["workloads"]) == sorted(wl.WORKLOADS), "BENCHMARK.json lists every workload")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", "genus-one-pointwise", "--seed", "3", "--seconds", "0", "--trace", str(trace))
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"--trace {trace}: result keys")
        expect(result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1,
               f"--trace {trace}: one round finishes with no failed item")
        metrics = result.get("metrics", {})
        expect(sorted(metrics) == sorted(m["name"] for m in spec[key]), f"--trace {trace}: metric names match {key}")
        expect(all(metrics[m["name"]]["unit"] == m["unit"] for m in spec[key] if m["name"] in metrics),
               f"--trace {trace}: metric units match {key}")

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run_bench("--workload", "catalog-zero", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "without the sources: non-zero exit, no result")
    shutil.rmtree(bare)


def main() -> int:
    for test in (test_catalog, test_offlocus, test_soliton, test_pointwise, test_contract):
        test()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

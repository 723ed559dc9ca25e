"""Command-line surface: exit codes, report files, determinism."""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2soliton
from g2soliton import cli, identities, pde, sweep
from g2soliton.cli import main
from g2soliton.pde import conserved_quantities


def run_cli(*argv):
    return main(list(argv))


def test_verify_g2_weierstrass_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("verify-g2", "--lambda", "1,2,1,3,1,4,5", "--set", "weierstrass", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    entries = report["entries"]
    assert len(entries) == 7
    assert all(e["status"] == "zero" for e in entries)
    table = capsys.readouterr().out
    assert "W1" in table and "zero" in table


def test_verify_g2_rational_lambda_text(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "verify-g2", "--lambda", "lambda = [1/2, 2, 1, 3/5, 1, 4, 5]", "--set", "integrability",
        "--out", str(out),
    )
    assert code == 0
    assert all(e["status"] == "zero" for e in json.loads(out.read_text())["entries"])


def test_verify_g2_skipped_set_fails():
    code = run_cli("verify-g2", "--lambda", "1,2,1,3,1,4,5", "--set", "jacobi-special")
    assert code == 2


def test_verify_g2_unknown_set():
    code = run_cli("verify-g2", "--lambda", "1,2,1,3,1,4,5", "--set", "nonsense")
    assert code == 2


def test_bad_lambda_is_usage_error(capsys):
    assert run_cli("verify-g2", "--lambda", "1,2,3", "--set", "weierstrass") == 2
    assert run_cli("verify-g2", "--lambda", "1,2,3,4,5,6,1/0", "--set", "weierstrass") == 2
    assert capsys.readouterr().err.count("\n") == 2


def _statuses(path):
    return {e["identity"]: e["status"] for e in json.loads(path.read_text())["entries"]}


def test_half_period_guard_exits_nonzero(tmp_path, capsys):
    # the half-period set is gone, also on the curve where HP and GII held
    out = tmp_path / "hp.json"
    code = run_cli("verify-g2", "--set", "half-period", "--lambda", "0,4,1,1,1,4,0", "--out", str(out))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert not out.exists()


def test_kummer_command(tmp_path):
    out = tmp_path / "k.json"
    assert run_cli("verify-g2", "--set", "kummer", "--lambda", "2,3,1,5,1,4,0", "--out", str(out)) == 0
    assert _statuses(out) == {"KUM2": "zero", "KUM1": "zero"}
    assert run_cli("verify-g2", "--set", "kummer", "--lambda", "1,2,1,3,1,4,5", "--out", str(out)) == 0
    assert _statuses(out) == {"KUM2": "zero", "KUM1": "skipped"}


@pytest.mark.parametrize("command", ["kummer", "half-period"])
def test_removed_subcommands_are_usage_errors(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--lambda", "0,4,1,1,1,4,0")
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv", [("sweep", "--count", "abc"), ("verify-g2",)])
def test_argument_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"usage error: g2soliton {argv[0]}: ")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "-h")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: g2soliton sweep ")


def test_sweep_all_checks_every_identity_on_its_locus(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli("sweep", "--count", "2", "--seed", "42", "--set", "all", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert {e["identity"] for e in report["entries"]} == set(identities.IDENTITY_SETS["all"])
    assert len(report["entries"]) == 2 * 31 and report["excluded"] == []
    assert report["summary"]["zero"] == 62
    assert report["summary"]["nonzero"] == report["summary"]["skipped"] == 0


def test_sweep_excludes_identities_off_the_user_locus(tmp_path):
    out = tmp_path / "s.json"
    code = run_cli("sweep", "--count", "2", "--set", "all", "--constraints", "l6=3", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    excluded = ["INT-W2", "WS1", "WS2", "WS3", "WS4", "WS5", "JS1", "JS2", "KUM1"]
    assert [x["identity"] for x in report["excluded"]] == excluded
    assert all("l6=0" in x["reason"] for x in report["excluded"])
    assert report["summary"]["skipped"] == len(excluded) and report["summary"]["nonzero"] == 0
    assert report["summary"]["zero"] == 2 * (31 - len(excluded))
    assert all(e["curve"][6] == "3" for e in report["entries"])


def test_sweep_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("sweep", "--count", "3", "--seed", "42", "--set", "weierstrass")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


# SHA-256 digests of reports, millis masked: `sweep --count 3 --seed 42` for
# every named identity set, and verify-g2 of the whole catalog on one curve;
# a deliberate change of report output updates them
PINNED_SWEEP_SHA256 = {
    "weierstrass": "7f999a78157db95ce2608027b27a80219c40050ebc450125cc2285915dbca9f5",
    "jacobi": "065b8f00b4fc6f8296c6e705a4889d57573bead6f776d18db7ca78aad2b906ee",
    "weierstrass-special": "b3f5281507ca9d40b357bdc7f1ee5f942831991da5535bce223959bdf113d760",
    "jacobi-special": "e3bb51aea7b397b518765582ed9ceaa873ce3d8e136900bed1c5cf3c3092d4b3",
    "kummer": "7125673a9eff3f49f7075bee9f9246a02add324af12a94e9c380e738dd4e1f40",
    "integrability": "467753bb787f1d51854cdb2f4c6a9936e8b2e1532f72af2bf4ca63041ee6abc4",
    "all": "5937fc330c8d43dbe1a3c1aa082c45ed5a7fe19192194071312f85334438e7e5",
}
PINNED_VERIFY_G2_SHA256 = "89171b6a0b0e7f7e0fa215d55820b37d64816343c71a5416889da2c29877ade4"


def test_reports_match_pinned_digests(tmp_path):
    assert set(PINNED_SWEEP_SHA256) == set(identities.IDENTITY_SETS)
    sweep = tmp_path / "sweep.json"
    for identity_set, digest in PINNED_SWEEP_SHA256.items():
        args = ("sweep", "--count", "3", "--seed", "42", "--set", identity_set, "--out", str(sweep))
        assert run_cli(*args) == 0
        assert hashlib.sha256(sweep.read_bytes()).hexdigest() == digest, identity_set
    g2 = tmp_path / "g2.json"
    assert run_cli("verify-g2", "--set", "all", "--lambda", "3,2,1,5,7,4,9", "--out", str(g2)) == 0
    entries = json.loads(g2.read_text())["entries"]
    for entry in entries:
        entry["millis"] = None
    assert hashlib.sha256(json.dumps(entries, indent=2).encode()).hexdigest() == PINNED_VERIFY_G2_SHA256


def test_sweep_parallel_same_entries(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for identity_set in ("integrability", "all"):
        args = ("sweep", "--count", "4", "--seed", "5", "--set", identity_set)
        assert run_cli(*args, "--jobs", "1", "--out", str(out1)) == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_sweep_starts_no_more_workers_than_work_or_cores(tmp_path, monkeypatch):
    # a stub pool records max_workers and maps in-process, so no process starts
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("sweep", "--count", "3", "--seed", "5", "--set", "weierstrass")
    assert run_cli(*args, "--jobs", "1", "--out", str(out1)) == 0
    assert started == []
    for cores, expected in ((8, 3), (2, 2), (1, None), (None, None)):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda cores=cores: cores)
        started.clear()
        assert run_cli(*args, "--jobs", "64", "--out", str(out2)) == 0
        assert started == ([] if expected is None else [expected])  # one locus group of 3 curves
        assert out1.read_bytes() == out2.read_bytes()


def test_sweep_special_sets_with_constraints(tmp_path):
    out = tmp_path / "s.json"
    code = run_cli(
        "sweep", "--count", "3", "--seed", "9", "--set", "jacobi-special",
        "--constraints", "l0=0,l6=0", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["nonzero"] == 0 and report["summary"]["skipped"] == 0


@pytest.mark.parametrize(
    "constraints", ["l5=0,l5!=0", "l5=4,l5=3", "l0=0,l1=0,l2=0,l3=0,l4=0,l5=0,l6=0", "l5=1/0"]
)
def test_sweep_bad_constraints_are_usage_errors(constraints, capsys):
    code = run_cli("sweep", "--count", "1", "--set", "weierstrass", "--constraints", constraints)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_sweep_redundant_constraints_ignore_hash_seed(tmp_path):
    # l5=4 absorbs l5!=0, whatever order a set of strings iterates in
    # and every locus group of --set all draws its curves from the same seed
    src = str(Path(g2soliton.__file__).resolve().parent.parent)
    outputs = {}
    for identity_set, constraints in (("kummer", "l5=4,l5!=0"), ("all", "")):
        for hash_seed in ("1", "2", "3"):
            out = tmp_path / f"{identity_set}{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "g2soliton.cli", "sweep", "--count", "2", "--seed", "3",
                 "--set", identity_set, "--constraints", constraints, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.setdefault(identity_set, []).append(out.read_bytes())
        assert len(set(outputs[identity_set])) == 1
    report = json.loads(outputs["kummer"][0])
    assert report["constraints"] == ["l5=4"]
    assert all(e["curve"][5] == "4" for e in report["entries"])


def test_exact_subcommands_start_without_numpy():
    src = str(Path(g2soliton.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "from g2soliton.cli import main\n"
        "assert main(['verify-g2', '--lambda', '1,2,1,3,1,4,5', '--set', 'weierstrass']) == 0\n"
        "assert main(['sweep', '--count', '1', '--set', 'integrability']) == 0\n"
        "assert not {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules), 'a pool module'\n"
        "assert main(['elliptic-check', '--re', '0.1:2.0:5', '--im=-0.8:0.8:5']) == 0\n"
        "assert main(['static-transforms', '--samples', '3']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "False"


def test_elliptic_check_zero_modulus_is_usage_error(capsys):
    # K'(0) is infinite, so no half-period point can be evaluated
    assert run_cli("elliptic-check", "--k", "0", "--re", "0.2:1.8:2", "--im=-0.4:0.4:2") == 2
    assert "half-period points" in capsys.readouterr().err


def test_elliptic_check_writes_csv(tmp_path):
    csv_path = tmp_path / "grid.csv"
    out = tmp_path / "e.json"
    code = run_cli(
        "elliptic-check", "--k", "0.7", "--re", "0.2:1.8:6", "--im=-0.4:0.4:6",
        "--csv", str(csv_path), "--out", str(out),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "z_re,z_im,residual_abs"
    assert len(lines) > 20
    summary = json.loads(out.read_text())
    assert summary["worst_sn_ode_residual"] < 1e-10
    assert summary["worst_halfperiod_residual"] < 1e-9


def test_static_transforms_command(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("static-transforms", "--samples", "8", "--out", str(out)) == 0
    summary = json.loads(out.read_text())
    assert all(v < 1e-8 for v in summary["factorization_worst"].values())
    assert all(v < 1e-8 for v in summary["sn_profile_worst"].values())


def test_akns_check_command(tmp_path):
    out = tmp_path / "a.json"
    assert run_cli("akns-check", "--jets", "50", "--draws", "10", "--out", str(out)) == 0
    summary = json.loads(out.read_text())
    assert summary["worst_diagonal"] < 1e-13


def test_pde_run_soliton(tmp_path):
    csv_path = tmp_path / "traj.csv"
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--eq", "kdv", "--t-end", "0.05", "--init", "soliton:c=4,x0=10",
        "--csv", str(csv_path), "--out", str(out),
    )
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["relative_residual_window"] < 1e-6
    assert summary["relative_residual_window"] == summary["pde_residual_window"] / summary["residual_scale"]
    assert all(v < 1e-7 for v in summary["invariant_drifts"].values())
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x,re_u"


def test_pde_run_file_init(tmp_path):
    data = tmp_path / "init.csv"
    data.write_text("\n".join(f"{0.1 + 0.05 * math.cos(2 * math.pi * i / 64)},{0.0}" for i in range(64)))
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--eq", "gmkdv", "--a", "1.5", "--n", "64", "--L", "20",
        "--t-end", "0.02", "--init", f"file:{data}", "--out", str(out),
    )
    assert code == 0


def test_pde_run_complex_file_init_is_usage_error(tmp_path, capsys):
    data = tmp_path / "init.csv"
    data.write_text("\n".join(f"{0.1},{0.0 if i else 1e-3}" for i in range(64)))
    code = run_cli(
        "pde-run", "--eq", "gmkdv", "--a", "1.5", "--n", "64", "--L", "20",
        "--t-end", "0.02", "--init", f"file:{data}",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "imaginary part" in captured.err


def test_pde_run_short_file_init_is_usage_error(tmp_path, capsys):
    data = tmp_path / "init.csv"
    data.write_text("\n".join(f"{0.1},{0.0}" for _ in range(63)))
    code = run_cli("pde-run", "--n", "64", "--L", "20", "--t-end", "0.02", "--init", f"file:{data}")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "file has 63 samples, grid needs 64" in captured.err


def test_pde_run_unknown_init_kind_is_usage_error(capsys):
    assert run_cli("pde-run", "--n", "64", "--t-end", "0.02", "--init", "bogus") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown --init kind 'bogus'" in captured.err


def test_pde_run_csv_has_one_real_sample_column(tmp_path):
    # fields are real, so the former im_u column (always 0.0) is gone
    csv_path = tmp_path / "traj.csv"
    code = run_cli(
        "pde-run", "--n", "128", "--L", "20", "--t-end", "0.01", "--init", "soliton:c=4,x0=5",
        "--csv", str(csv_path), "--out", str(tmp_path / "run.json"),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,re_u"
    assert len(lines) == 1 + cli.PDE_SNAPSHOTS * 128  # 10 steps: t = 0, 0.001, ..., 0.01
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert all(len(row) == 3 for row in rows)
    assert min(row[2] for row in rows) < -1.9  # the depth-2 soliton trough


def test_pde_run_gmkdv_conserves_its_invariants(tmp_path):
    # README settings; the KdV energy int (u_x^2/2 + u^3) drifts 8e-4 here
    out = tmp_path / "run.json"
    code = run_cli("pde-run", "--eq", "gmkdv", "--a", "1.5", "--init", "cnoidal:k=0.9,m=2", "--out", str(out))
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["init"]["m"] == 2
    drifts = summary["invariant_drifts"]
    assert set(drifts) == {"mass", "momentum", "energy"}
    assert all(v < 1e-7 for v in drifts.values())


def test_pde_run_cnoidal_near_unit_modulus(tmp_path):
    # at m = 2, L = 20 a grid point of n = 64, and so of n = 128, falls on
    # z = 3K(0.99), where cn = 0.  n = 64 under-resolves the wave (dealiasing
    # moves it by 2.3e-6 of its peak); at n = 128 the stiffer top modes need
    # dt = 2.5e-4 (relative residual 7.4e-9; 1.7e-6 at dt = 1e-3)
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--eq", "gmkdv", "--a", "1.5", "--n", "128", "--L", "20", "--dt", "2.5e-4",
        "--t-end", "0.01", "--init", "cnoidal:k=0.99,m=2", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["relative_residual_window"] < cli.PDE_RESIDUAL_TOL


@pytest.mark.parametrize(
    "argv",
    [
        ("elliptic-check", "--k", "0.99999999", "--re", "0.1:60:40", "--im=-0.5:0.5:5"),
        ("pde-run", "--eq", "kdv", "--n", "256", "--L", "40", "--t-end", "0.01",
         "--init", "cnoidal:k=0.99999999,m=1"),
    ],
)
def test_modulus_within_1e8_of_one_passes(argv, tmp_path):
    # an imaginary-argument transform at k' gave an sn ODE residual of 0.64 and
    # a window residual of 2.8 here; the Landen ladder is exact to rounding
    assert run_cli(*argv, "--out", str(tmp_path / "run.json")) == 0


@pytest.mark.parametrize(
    "argv,points",
    [
        (("--k", "1e-4", "--re", "0.1:2.0:5", "--im=-0.8:0.8:5"), 25),
        (("--k", "0.6+0.3j", "--re", "1000:2000:5"), 100),
        (("--k", "1e-9"), 400),
    ],
)
def test_far_imaginary_arguments_pass(argv, points, tmp_path):
    # z + 3iK' at k = 1e-4, and z reduced by the complex period 4K, lie far from
    # the real axis, where the half-period and sn ODE residuals were 1.0; at
    # k = 1e-9 the ladder took no Landen rung, and the half-period residual was 0.95
    out = tmp_path / "run.json"
    assert run_cli("elliptic-check", *argv, "--out", str(out)) == 0
    assert json.loads(out.read_text())["grid_points"] == points


def test_pde_run_under_resolved_exits_1(tmp_path):
    # dt = 1e-2 on a c = 4 soliton: the window residual is 5.8e-5 of the flow's terms
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--eq", "kdv", "--n", "128", "--L", "20", "--dt", "1e-2", "--t-end", "0.1",
        "--init", "soliton:c=4,x0=5", "--out", str(out),
    )
    assert code == 1
    assert json.loads(out.read_text())["relative_residual_window"] >= cli.PDE_RESIDUAL_TOL


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "32", "--L", "1e300", "--init", "soliton:c=1"),  # one grid point on the trough
        ("--n", "32", "--L", "100"),
        ("--n", "32"),
        ("--n", "64", "--L", "20", "--init", "soliton:c=4,x0=5"),  # moved 2.3e-4 of its peak
        ("--init", "soliton:c=1e-4"),  # wider than the domain, with a kink where it wraps
    ],
)
def test_pde_run_under_resolved_init_is_usage_error(argv, capsys):
    # the run would evolve the field without its modes above n/3, which no gate sees
    assert run_cli("pde-run", "--t-end", "0.01", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("usage error: --init ") and "under-resolved" in captured.err


def test_pde_run_reports_the_soliton_closed_form_error(readme_reports):
    # only a KdV soliton run has a closed form to compare with
    errors = {argv[argv.index("--eq") + 1]: report.get("closed_form_error")
              for argv, report in readme_reports if report["command"] == "pde-run"}
    assert errors["gmkdv"] is None
    assert 0 < errors["kdv"] < 1e-7


def test_pde_run_zero_mean_field_reports_small_drifts(tmp_path):
    # mass is 0 up to rounding: its drift is measured against int |u| dx, not |mass|
    data = tmp_path / "sine.csv"
    data.write_text("\n".join(f"{0.3 * math.sin(2 * math.pi * i / 64)},0" for i in range(64)))
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--eq", "gmkdv", "--a", "1.5", "--n", "64", "--L", "20",
        "--t-end", "0.02", "--init", f"file:{data}", "--out", str(out),
    )
    assert code == 0
    drifts = json.loads(out.read_text())["invariant_drifts"]
    assert all(v < 1e-7 for v in drifts.values())


def test_pde_run_drift_alone_fails_the_gate(tmp_path, monkeypatch):
    # the csv-column settings pass both gates (relative residual 1.7e-8); a final mass
    # 1e-6 off its start must then fail on the drift alone
    calls = []

    def drifting(u, eq):
        mass, momentum, energy = conserved_quantities(u, eq)
        calls.append(eq)
        return (mass * (1 + 1e-6) if len(calls) == 2 else mass), momentum, energy

    # the subcommand imports the PDE layer when it runs, so patch it there
    monkeypatch.setattr(pde, "conserved_quantities", drifting)
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--n", "128", "--L", "20", "--t-end", "0.01", "--init", "soliton:c=4,x0=5",
        "--out", str(out),
    )
    assert code == 1
    summary = json.loads(out.read_text())
    assert summary["relative_residual_window"] < cli.PDE_RESIDUAL_TOL
    assert summary["invariant_drifts"]["mass"] == pytest.approx(1e-6, rel=1e-3)


def test_flipped_dispersion_fails_the_relative_residual_gate(tmp_path, monkeypatch):
    # a solver with the sign of w_xxx flipped must fail the residual gate on each
    # field, also on a long domain, where dispersion is 1e-6 of the flow's terms
    # and the absolute residual (3.9e-9) passed it, and on a 1e-4 sine
    monkeypatch.chdir(tmp_path)
    for name, amplitude in (("long.csv", 0.5), ("small.csv", 1e-4)):
        Path(name).write_text("".join(f"{amplitude * math.sin(2 * math.pi * i / 256)}\n" for i in range(256)))
    runs = [
        ("pde-run", "--eq", "kdv", "--init", "soliton:c=4,x0=10"),
        ("pde-run", "--eq", "gmkdv", "--a", "1.5", "--init", "cnoidal:k=0.9,m=2"),
        ("miura-pipeline",),
        ("pde-run", "--L", "4000", "--init", "file:long.csv"),
        ("pde-run", "--init", "file:small.csv"),
    ]
    linear_symbol = pde._linear_symbol
    try:
        for flipped in (False, True):
            if flipped:
                monkeypatch.setattr(pde, "_linear_symbol", lambda grid, eq, a: -linear_symbol(grid, eq, a))
            pde._etdrk4_coefficients.cache_clear()  # the coefficients hold the symbol
            for argv in runs:
                assert run_cli(*argv, "--t-end", "0.01", "--out", "run.json") == int(flipped), (argv, flipped)
                report = json.loads(Path("run.json").read_text())
                relative = report.get("relative_residual_window", report.get("relative_mapped_residual"))
                assert (not relative < cli.PDE_RESIDUAL_TOL) == flipped, (argv, relative)
    finally:
        monkeypatch.undo()
        pde._etdrk4_coefficients.cache_clear()


def test_miura_pipeline_command(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli("miura-pipeline", "--t-end", "0.02", "--out", str(out)) == 0
    summary = json.loads(out.read_text())
    assert summary["relative_mapped_residual"] < 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--count", "0", "--set", "weierstrass"),
        ("sweep", "--count", "-3", "--set", "weierstrass"),
        ("akns-check", "--draws", "0"),
        ("pde-run", "--dt", "0"),
        ("pde-run", "--t-end", "-1"),
        ("pde-run", "--t-end", "0.0004"),
        ("miura-pipeline", "--t-end", "0.001"),
        ("static-transforms", "--samples", "0"),
        ("static-transforms", "--samples", "1", "--seed", "6"),
        ("elliptic-check", "--re", "0:1:0"),
        ("verify-g2", "--lambda", "1,2,1,3,1,4,5", "--set", "nonsense"),
        ("sweep", "--count", "1", "--set", "nonsense"),
        ("sweep", "--count", "2", "--set", "jacobi-special", "--constraints", "l1=0"),
        ("verify-g2", "--lambda", "0,4,1,1,1,4,0", "--set", "half-period"),
        ("sweep", "--count", "1", "--set", "half-period"),
        ("pde-run", "--t-end", "inf"),
        ("pde-run", "--t-end", "1e400"),
        ("pde-run", "--dt", "1e-320", "--t-end", "1"),
        ("miura-pipeline", "--t-end", "inf"),
        ("pde-run", "--n", "32", "--dt", "1e-9", "--t-end", "1"),
        ("miura-pipeline", "--dt", "1e-9", "--t-end", "1"),
        ("static-transforms", "--a", "nan"),
        ("pde-run", "--a", "nan"),
        ("pde-run", "--eq", "gmkdv", "--a", "inf"),
        ("miura-pipeline", "--a=-inf"),
        ("pde-run", "--init", "soliton:c=0"),
        ("pde-run", "--init", "cnoidal:k=0"),
        ("pde-run", "--init", "cnoidal:k=0.9,m=0"),
        ("pde-run", "--init", "cnoidal:k=0.9,m=1.5"),
        ("elliptic-check", "--re", "0:inf:3"),
        ("elliptic-check", "--k", "0.7", "--re", "0.1:1:3", "--im=-1e308:0.5:2"),
        ("elliptic-check", "--k", "0.7", "--re", "1e17:1e17:1", "--im", "0:0:1"),
        ("elliptic-check", "--k", "0.7", "--re", "0:0:1", "--im", "1.8626408023327385:1.8626408023327385:1"),
        ("pde-run", "--t-end", "0.01", "--init", "soliton:speed=9"),
        ("pde-run", "--t-end", "0.01", "--init", "cnoidal:K=0.5,m=2"),
        ("pde-run", "--t-end", "0.01", "--init", "soliton:c=4,c=5"),
        ("pde-run", "--t-end", "0.01", "--init", "soliton:x0=inf"),
        ("pde-run", "--t-end", "0.01", "--init", "soliton:c=nan"),
        ("pde-run", "--t-end", "0.01", "--init", "cnoidal:k=nan"),
        ("pde-run", "--t-end", "0.01", "--init", "soliton:c=1e-300"),
        ("pde-run", "--n", "32", "--L", "inf", "--t-end", "0.01"),
        ("miura-pipeline", "--L", "nan"),
        ("pde-run", "--t-end", "0.0104"),
        ("miura-pipeline", "--t-end", "0.0205"),
        ("pde-run", "--n", "64", "--L", "20", "--t-end", "0.01", "--init", "file:constant.csv"),
        # invariants of subnormal size: a right solve exited 1 (energy drift 4.0e-7) and 0 (every drift 0.0)
        ("pde-run", "--t-end", "0.01", "--init", "file:sine1e-158.csv"),
        ("pde-run", "--t-end", "0.01", "--init", "file:sine1e-160.csv"),
        # the time stencil's roundoff reaches the relative bound: a right solve exited 1
        ("pde-run", "--L", "1e8", "--t-end", "0.01", "--init", "file:sine0.5.csv"),
        ("miura-pipeline", "--L", "1e300", "--t-end", "0.01"),
    ],
)
def test_vacuous_or_degenerate_runs_are_usage_errors(argv, capsys, tmp_path, monkeypatch):
    # each used to pass having checked nothing, or to end in a traceback
    monkeypatch.chdir(tmp_path)
    Path("constant.csv").write_text("0.5\n" * 64)  # no x-derivative, so no flow term to check
    for amplitude in ("1e-158", "1e-160", "0.5"):
        samples = (float(amplitude) * math.sin(2 * math.pi * i / 256) for i in range(256))
        Path(f"sine{amplitude}.csv").write_text("".join(f"{u}\n" for u in samples))
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_a_tiny_sine_with_normal_invariants_reaches_the_gates(tmp_path, monkeypatch):
    # its energy magnitude (0.247 A^2 = 2.5e-301) is just above float_info.min / DRIFT_TOL,
    # the smallest one the drift gate accepts, and a right solve passes both gates
    monkeypatch.chdir(tmp_path)
    Path("tiny.csv").write_text("".join(f"{1e-150 * math.sin(2 * math.pi * i / 256)}\n" for i in range(256)))
    assert run_cli("pde-run", "--t-end", "0.01", "--init", "file:tiny.csv", "--out", "run.json") == 0
    report = json.loads(Path("run.json").read_text())
    assert report["relative_residual_window"] < cli.PDE_RESIDUAL_TOL
    assert max(report["invariant_drifts"].values()) < 1e-12


@pytest.mark.parametrize(
    "init, named",
    [
        ("soliton:c=abc", "--init soliton key c "),
        ("soliton:c=", "--init soliton key c "),
        ("soliton:x0=1e", "--init soliton key x0 "),
        ("soliton:c=-4", "--init soliton key c "),
        ("cnoidal:k=1", "--init cnoidal key k "),
        ("cnoidal:k=-1,m=2", "--init cnoidal key k "),
        ("cnoidal:k=0.9,m=0", "--init cnoidal key m "),
        ("cnoidal:k=1e200", "--init cnoidal keys k=1e+200, m=1: "),
        ("cnoidal:m=1e300", "--init cnoidal keys k=0.9, m=1e+300: "),
    ],
)
def test_pde_run_init_value_errors_name_the_option_and_key(init, named, capsys):
    # each used to print a bare float() or math error, a numpy warning, or a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("pde-run", "--t-end", "0.01", "--init", init) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"usage error: {named}")


def test_pde_run_zero_file_init_is_usage_error(tmp_path, capsys):
    data = tmp_path / "zero.csv"
    data.write_text("\n".join("0.0,0.0" for _ in range(64)))
    assert run_cli("pde-run", "--n", "64", "--L", "20", "--t-end", "0.02", "--init", f"file:{data}") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "the terms of the kdv flow sum to 0 on this field, so there is nothing to check" in captured.err


def test_miura_pipeline_unstable_run_fails_without_traceback(capsys):
    # a finite but huge a overflows the ETDRK4 coefficients: one line, no numpy warnings
    for command in (("miura-pipeline",), ("pde-run", "--eq", "gmkdv")):
        assert run_cli(*command, "--a", "1e300", "--t-end", "0.004") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("run failed: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--init", "soliton:c=1e4"),
        ("--init", "soliton:c=1e10"),
        ("--init", "soliton:c=1e300"),
        ("--n", "32", "--L", "1e-300"),
    ],
)
def test_overflowing_pde_runs_fail_in_one_line(argv, capsys):
    # the soliton's cosh, the step or k^3 overflows; each printed numpy warnings first
    assert run_cli("pde-run", "--t-end", "0.01", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("run failed: ")
    assert captured.err.count("\n") == 1


def test_miura_pipeline_short_run_names_minimum(capsys):
    assert run_cli("miura-pipeline", "--t-end", "0.001", "--dt", "1e-3") == 2
    assert "at least 4*dt = 0.004" in capsys.readouterr().err


def test_readme_names_every_option():
    # an option no README command or sentence names has no documented caller
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{name} {option}"
        for name, parser in commands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)
    ]
    assert missing == []


README = Path(__file__).resolve().parent.parent / "README.md"
# every number a report holds besides its checks, by subcommand
DIAGNOSTICS = {
    "verify-g2": {"millis", "witness_point"},
    "sweep": {"seed", "count", "millis", "witness_point", "summary"},
    "elliptic-check": {"grid_points"},
    "static-transforms": {"samples"},
    "akns-check": {"jets", "draws"},
    "pde-run": {"a", "n", "L", "dt", "t_end", "init", "pde_residual_window", "residual_scale", "final_max_abs",
                "closed_form_error"},
    "miura-pipeline": {"a", "gmkdv_residual", "mapped_kdv_residual", "residual_scale"},
}


def _number_paths(value, path=()):
    """The dict keys enclosing each number of a report."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _number_paths(item, path + (key,))
    elif isinstance(value, list):
        for item in value:
            yield from _number_paths(item, path)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


@pytest.fixture(scope="module")
def readme_reports(tmp_path_factory):
    """(argv, report) of each README command, run in-process; no worker process starts."""
    commands = [shlex.split(line, comments=True)[1:] for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("g2soliton ")]
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("readme"))
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # the --jobs sweep must fall back to in-process
        mp.setattr(sweep.os, "cpu_count", lambda: 1)
        for argv in commands:
            out = Path(f"{len(runs)}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out", str(out)]) == 0, argv
            runs.append((argv, json.loads(out.read_text())))
    assert len({argv[0] for argv, _ in runs}) == 7
    return runs


def test_every_reported_number_is_a_check_or_a_diagnostic(readme_reports):
    for argv, report in readme_reports:
        command = report["command"]
        named = set(cli.GATES.get(command, ())) | DIAGNOSTICS[command]
        stray = [path for path in _number_paths(report) if not named & set(path)]
        assert stray == [], argv
    assert set(DIAGNOSTICS) == {argv[0] for argv, _ in readme_reports}
    assert set(cli.GATES) < set(DIAGNOSTICS)


def test_each_gate_alone_fails_the_run(readme_reports, monkeypatch, capsys, tmp_path):
    # the runner hands back its README report; a bound at the largest reported
    # value of one gate must fail exactly that value, and nothing else
    monkeypatch.chdir(tmp_path)  # where the README's --out report.json goes
    checked = set()
    for argv, report in readme_reports:
        monkeypatch.setattr(cli, f"_cmd_{report['command'].replace('-', '_')}", lambda args, r=report: r)
        for key in cli.GATES.get(report["command"], ()):
            value = report[key]
            named = {f"{key}.{n}": v for n, v in value.items()} if isinstance(value, dict) else {key: value}
            name, worst = max(named.items(), key=lambda item: item[1])
            with monkeypatch.context() as m:
                m.setitem(cli.GATES[report["command"]], key, worst)
                assert main(argv) == 1, (argv, key)
            err = capsys.readouterr().err
            assert err.startswith(f"check failed: {name} = ") and err.count("\n") == 1, (argv, err)
            checked.add((report["command"], key))
        assert main(argv) == 0 and capsys.readouterr().err == ""
    assert checked == {(command, key) for command, gates in cli.GATES.items() for key in gates}
    # NaN is not below any bound
    nan_report = {"command": "miura-pipeline", "relative_mapped_residual": math.nan}
    assert cli.failed_checks(nan_report) == ["relative_mapped_residual = nan, bound 1e-06"]


def test_corrupted_builder_fails_and_names_the_entry(monkeypatch, capsys):
    w1 = identities._BUILDERS["W1"]
    monkeypatch.setitem(identities._BUILDERS, "W1", lambda c: w1(c) + c.p22**2)
    assert run_cli("verify-g2", "--lambda", "1,2,1,3,1,4,5", "--set", "weierstrass") == 1
    assert capsys.readouterr().err == "check failed: W1 is nonzero on lambda = [1,2,1,3,1,4,5]\n"


def test_readme_states_every_gate():
    # the README's exit-1 table has one row per subcommand
    lines = README.read_text(encoding="utf-8").splitlines()
    for command, diagnostics in DIAGNOSTICS.items():
        (row,) = [line for line in lines if line.startswith(f"| `{command}` |")]
        stated = [f"`{key}` < {bound:g}" for key, bound in cli.GATES.get(command, {}).items()]
        stated += [f"`{key}`" for key in diagnostics]
        assert [text for text in stated if text not in row] == [], command


@st.composite
def _argv_with_one_edge(draw, command, valid, edges):
    """(argv, edged): a valid argv for `command`, with at most one option set to
    an edge value, and whether one was."""
    options = {name: draw(values) for name, values in valid.items()}
    edge = draw(st.sampled_from([None, *edges]))
    if edge:
        options[edge] = draw(edges[edge])
    return [command, *(f"{name}={value}" for name, value in options.items())], edge is not None


# every combination is a whole number of steps, and every field is resolved:
# dealiasing moves it by at most 1.2e-7 of its peak, under cli.PDE_RESIDUAL_TOL
_PDE_VALID = {
    "--eq": st.sampled_from(["kdv", "gmkdv"]),
    "--a": st.sampled_from(["0", "1.5", "-2"]),
    "--n": st.sampled_from(["128", "256"]),
    "--L": st.sampled_from(["20", "24"]),
    "--dt": st.sampled_from(["1e-3", "2e-3", "5e-3"]),
    "--t-end": st.sampled_from(["0.02", "0.01", "0.04"]),
    "--init": st.sampled_from(["soliton:c=3,x0=5", "soliton:c=2", "cnoidal:k=0.9,m=2", "cnoidal:k=0.3"]),
}
_PDE_EDGES = {
    "--a": st.sampled_from(["1e3", "1e300", "nan", "-inf"]),
    "--n": st.sampled_from(["48", "16", "0"]),
    "--L": st.sampled_from(["1", "1e4", "1e-300", "1e300", "0", "-5", "inf", "nan"]),
    "--dt": st.sampled_from(["0.02", "1e-9", "1e-320", "0", "nan"]),
    "--t-end": st.sampled_from(["0.0004", "0", "nan"]),
    "--init": st.one_of(
        st.builds("soliton:c={},x0={}".format,
                  st.sampled_from(["0", "1e-300", "1e-4", "1e4", "1e10", "1e300", "-4", "nan", "abc"]),
                  st.sampled_from(["0", "-1e300", "1e300", "inf"])),
        st.builds("cnoidal:k={},m={}".format,
                  st.sampled_from(["0", "1e-9", "0.99999999", "1", "-0.5", "1.5", "1e200"]),
                  st.sampled_from(["1", "0", "1.5", "1e300"])),
        st.sampled_from(["bogus", "soliton:", "cnoidal:", "file:missing.csv"]),
    ),
}
_ELLIPTIC_VALID = {
    "--k": st.sampled_from(["0.7", "0.3", "0.6+0.3j", "1.5"]),
    "--re": st.sampled_from(["0.1:2.0:3", "0.2:1.8:2"]),
    "--im": st.sampled_from(["-0.8:0.8:3", "0:0:1"]),
    "--seed": st.integers(0, 5).map(str),
}
_ELLIPTIC_EDGES = {
    "--k": st.sampled_from(["0", "1", "-1", "1e-9", "0.99999999", "1e8", "1j", "nan", "inf", "abc"]),
    "--re": st.sampled_from(["0:0:1", "-1e17:1e17:2", "0:inf:2", "1:1:0", "1e300:1e300:1", "a:b:c"]),
    "--im": st.sampled_from(["400:400:1", "-1e308:0.5:2", "1.8626408023327385:1.8626408023327385:1"]),
}


@settings(max_examples=40, deadline=None)
@given(st.one_of(_argv_with_one_edge("pde-run", _PDE_VALID, _PDE_EDGES),
                 _argv_with_one_edge("elliptic-check", _ELLIPTIC_VALID, _ELLIPTIC_EDGES)))
def test_edge_values_take_the_one_gate_path(drawn):
    # in-process on small grids: no traceback or warning, one line on exit 2,
    # exit 1 exactly when a check fails or the run does, and no exit 2 without an edge
    argv, edged = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert edged or code != 2, (argv, err)
    if code == 2 or err.startswith("run failed: "):
        assert out == "" and err.count("\n") == 1, (argv, err)
        return
    checks = cli.failed_checks(json.loads(out))
    assert (code == 1) == bool(checks), (argv, code, checks)
    assert err.splitlines() == [f"check failed: {line}" for line in checks], argv

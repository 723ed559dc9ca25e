"""Command-line surface: exit codes, report files, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g2soliton
from g2soliton import cli, identities, sweep
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
def test_removed_subcommands_are_usage_errors(command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--lambda", "0,4,1,1,1,4,0")
    assert exc.value.code == 2


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

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
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
    assert summary["pde_residual_window"] < 1e-6
    assert all(v < 1e-7 for v in summary["invariant_drifts"].values())
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x,re_u"


def test_pde_run_file_init(tmp_path):
    data = tmp_path / "init.csv"
    data.write_text("\n".join(f"{0.1},{0.0}" for _ in range(64)))
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
        "pde-run", "--n", "64", "--L", "20", "--t-end", "0.01", "--init", "soliton:c=4,x0=5",
        "--snapshots", "3", "--csv", str(csv_path), "--out", str(tmp_path / "run.json"),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,re_u"
    assert len(lines) == 1 + 3 * 64
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
    # at m = 2, n = 64, L = 20 a grid point falls on z = 3K(0.99), where cn = 0
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--eq", "gmkdv", "--a", "1.5", "--n", "64", "--L", "20", "--t-end", "0.01",
        "--init", "cnoidal:k=0.99,m=2", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["pde_residual_window"] < cli.PDE_RESIDUAL_TOL


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


def test_pde_run_under_resolved_exits_1(tmp_path):
    # dt = 1e-2 on a c = 4 soliton: the window residual is about 3.6e-3
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--eq", "kdv", "--n", "64", "--L", "20", "--dt", "1e-2", "--t-end", "0.1",
        "--init", "soliton:c=4,x0=5", "--out", str(out),
    )
    assert code == 1
    assert json.loads(out.read_text())["pde_residual_window"] >= cli.PDE_RESIDUAL_TOL


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
    # the csv-column settings pass both gates (residual 6.9e-7); a final mass
    # 1e-6 off its start must then fail on the drift alone
    calls = []

    def drifting(u, eq):
        mass, momentum, energy = conserved_quantities(u, eq)
        calls.append(eq)
        return (mass * (1 + 1e-6) if len(calls) == 2 else mass), momentum, energy

    monkeypatch.setattr(cli, "conserved_quantities", drifting)
    out = tmp_path / "run.json"
    code = run_cli(
        "pde-run", "--n", "64", "--L", "20", "--t-end", "0.01", "--init", "soliton:c=4,x0=5",
        "--snapshots", "3", "--out", str(out),
    )
    assert code == 1
    summary = json.loads(out.read_text())
    assert summary["pde_residual_window"] < cli.PDE_RESIDUAL_TOL
    assert summary["invariant_drifts"]["mass"] == pytest.approx(1e-6, rel=1e-3)


def test_miura_pipeline_command(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli("miura-pipeline", "--t-end", "0.02", "--out", str(out)) == 0
    summary = json.loads(out.read_text())
    assert summary["mapped_kdv_residual"] < 1e-6


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
    ],
)
def test_vacuous_or_degenerate_runs_are_usage_errors(argv, capsys):
    # each used to pass having checked nothing, or to end in a traceback
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_pde_run_zero_file_init_is_usage_error(tmp_path, capsys):
    data = tmp_path / "zero.csv"
    data.write_text("\n".join("0.0,0.0" for _ in range(64)))
    assert run_cli("pde-run", "--n", "64", "--L", "20", "--t-end", "0.02", "--init", f"file:{data}") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "identically zero" in captured.err


def test_miura_pipeline_unstable_run_fails_without_traceback(capsys):
    # a finite but huge a overflows the ETDRK4 coefficients: one line, no numpy warnings
    for command in (("miura-pipeline",), ("pde-run", "--eq", "gmkdv")):
        assert run_cli(*command, "--a", "1e300", "--t-end", "0.004") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("run failed: ")
        assert captured.err.count("\n") == 1


def test_miura_pipeline_short_run_names_minimum(capsys):
    assert run_cli("miura-pipeline", "--t-end", "0.001", "--dt", "1e-3") == 2
    assert "at least 4*dt = 0.004" in capsys.readouterr().err

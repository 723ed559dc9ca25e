"""Command-line entry point for verification sweeps, elliptic checks, PDE runs.

Exit codes: 0 all requested checks passed, 1 a check failed or a PDE run
failed, 2 usage error.  Each subcommand returns its report, and `main` emits
it and decides the code: the checks are the exact entries (a status in
`FAILING_STATUSES` fails) and the numbers `GATES` bounds.  An identity whose
locus the curve misses is reported as skipped and fails nothing; an exact run
that checks no identity at all is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

# numpy and the PDE and AKNS modules are imported by the subcommands that use
# them, so the exact and genus-one subcommands start without numpy
from . import __version__
from .curvering import CurveParams
from .elliptic import (
    EllipticError,
    PoleArgument,
    WeierstrassRoots,
    halfperiod_residual_g1,
    sn_ode_residual,
    sncndn,
    weierstrass_ode_residual,
)
from .identities import FAILING_STATUSES, IDENTITY_SETS, verify_all
from .jets import Jet, trig_jet
from .sweep import SweepConfig, locus_groups, run_sweep, summarize
from .transforms import (
    TRANSFORMATIONS,
    paired_profile_jet,
    sn_pair_check,
    sn_profile_jet,
    static_transformation_residuals,
)


# acceptance criterion 10: the PDE residual over a dense window against the terms
# it balances (`pde.flow_scale`), and invariant drift over its magnitude.  The
# residual bound also bounds what dealiasing moves the --init field by, over its
# peak: measured at most 1.4e-8 on resolved grids, at least 2.3e-6 on others.
PDE_RESIDUAL_TOL = 1e-6
DRIFT_TOL = 1e-7
# 100x the README pde-run; a miura-pipeline at n = 256 then holds about 0.4 GB of snapshots
MAX_STEPS = 100_000
# snapshots in the pde-run CSV, t = 0 and t_end included, when 10 divides the step count
PDE_SNAPSHOTS = 11

# The bounds behind exit 1: each numeric subcommand's gated report keys.  A
# check passes when value < bound, so NaN fails; a dict-valued key gates each
# of its values.  Every other number in a report is a diagnostic.
GATES = {
    "elliptic-check": {
        "worst_sn_ode_residual": 1e-10,
        "worst_sn_cn_identity": 1e-10,
        "worst_halfperiod_residual": 1e-9,
        "worst_weierstrass_ode_residual": 1e-9,
    },
    "static-transforms": {"factorization_worst": 1e-8, "sn_profile_worst": 1e-8},
    "akns-check": {"worst_diagonal": 1e-13, "worst_offdiagonal_vs_D": 1e-12, "worst_antisymmetry": 1e-13},
    "pde-run": {"relative_residual_window": PDE_RESIDUAL_TOL, "invariant_drifts": DRIFT_TOL},
    "miura-pipeline": {"relative_mapped_residual": PDE_RESIDUAL_TOL},
}


def failed_checks(report: dict) -> list:
    """One line per failed check of a report: an exact entry whose status
    fails, or a gated number that is not below its bound."""
    failed = [
        f"{e['identity']} is {e['status']} on lambda = [{','.join(e['curve'])}]"
        for e in report.get("entries", ())
        if e["status"] in FAILING_STATUSES
    ]
    for key, bound in GATES.get(report["command"], {}).items():
        value = report[key]
        named = {f"{key}.{name}": v for name, v in value.items()} if isinstance(value, dict) else {key: value}
        failed.extend(f"{name} = {v:.3g}, bound {bound:g}" for name, v in named.items() if not v < bound)
    return failed


def _emit(report: dict, out_path: str | None) -> None:
    payload = json.dumps(report, indent=2, default=str)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _range_points(text: str) -> list:
    """The points of an a:b:n range, as np.linspace(a, b, n) gives them bit for bit."""
    lo, hi, n = text.split(":")
    if int(n) < 1:
        raise ValueError(f"range {text!r} must have at least one point")
    delta = float(hi) - float(lo)
    if not math.isfinite(delta):
        raise ValueError(f"range {text!r} must have finite ends a finite distance apart")
    lo, n, div = float(lo), int(n), max(int(n) - 1, 1)
    step = delta / div
    points = [lo + (i / div * delta if step == 0 else i * step) for i in range(n)]
    return points[:-1] + [float(hi)] if n > 1 else points


def _identity_set(name: str) -> list:
    tags = IDENTITY_SETS.get(name)
    if tags is None:
        raise ValueError(f"unknown identity set {name!r}; choose from {sorted(IDENTITY_SETS)}")
    return tags


def _check_finite(**options) -> None:
    for name, value in options.items():
        if not math.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value}")


def _require_checked(results, what: str) -> None:
    """ValueError (exit 2) when no identity was on its locus: nothing was checked."""
    if all(r.status == "skipped" for r in results):
        raise ValueError(f"{what}: no identity is on its locus, so nothing was checked")


# -- subcommand runners ---------------------------------------------------------


def _cmd_verify_g2(args) -> dict:
    params = CurveParams.from_text(args.lam)
    report = verify_all(params, _identity_set(args.set))
    _require_checked(report.results, f"set {args.set!r} on curve {params}")
    print(report.table())
    return {"command": "verify-g2", "entries": report.to_json_entries()}


def _cmd_sweep(args) -> dict:
    constraints = [c for c in args.constraints.split(",") if c.strip()]
    config = SweepConfig(count=args.count, seed=args.seed, constraints=constraints)
    tags = _identity_set(args.set)
    _, excluded = locus_groups(config, tags)
    reports = run_sweep(config, tags, jobs=args.jobs)
    results = [r for rep in reports for r in rep.results]
    _require_checked(results, f"set {args.set!r} under --constraints {args.constraints!r}")
    summary = summarize(reports, excluded)
    entries = []
    for rep in reports:
        print(rep.table())
        entries.extend(rep.to_json_entries())
    if not args.timing:
        # identical seeds must give byte-identical reports; timings are the
        # only nondeterministic field, so they are opt-in for sweeps
        for entry in entries:
            entry["millis"] = None
    print(
        f"sweep: {summary.n_curves} curves, {summary.n_zero} zero, "
        f"{summary.n_nonzero} nonzero, {summary.n_skipped} skipped"
    )
    return {
        "command": "sweep",
        "seed": args.seed,
        "count": args.count,
        "constraints": [str(c) for c in config.constraints],
        "set": args.set,
        "entries": entries,
        "excluded": [{"identity": tag, "reason": reason} for tag, reason in excluded],
        "summary": {
            "zero": summary.n_zero,
            "nonzero": summary.n_nonzero,
            "skipped": summary.n_skipped,
            "failing_curves": summary.failing_curves,
        },
    }


def _cmd_elliptic_check(args) -> dict:
    re_points, im_points = _range_points(args.re_range), _range_points(args.im_range)
    k = complex(args.k)
    rows = []
    worst_ode = worst_sq = 0.0
    for re in re_points:
        for im in im_points:
            z = complex(re, im)
            try:
                s, c, d = sncndn(z, k)
                ode = abs(sn_ode_residual(z, k))
                sq = abs(s * s + c * c - 1)
            except PoleArgument:
                continue
            worst_ode = max(worst_ode, ode)
            worst_sq = max(worst_sq, sq)
            rows.append((re, im, ode))
    if not rows:
        raise ValueError(f"every --re/--im grid point is a pole at k={args.k}, so the grid checked nothing")
    worst_hp = 0.0
    rng = random.Random(args.seed)
    n_hp, need = 0, 100
    for _ in range(10 * need):  # draws near a pole are redrawn, within a bound
        z = complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5))
        try:
            worst_hp = max(worst_hp, abs(halfperiod_residual_g1(z, k)))
        except PoleArgument:
            continue
        n_hp += 1
        if n_hp == need:
            break
    else:
        raise ValueError(f"only {n_hp} of {need} half-period points could be evaluated at k={args.k}")
    roots = WeierstrassRoots(1.2, 0.3, -1.5)
    worst_wp = 0.0
    for _ in range(40):
        u = complex(rng.uniform(0.2, 1.2), rng.uniform(-0.6, 0.6))
        try:
            worst_wp = max(worst_wp, abs(weierstrass_ode_residual(u, roots)))
        except PoleArgument:
            continue
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("z_re,z_im,residual_abs\n")
            for re, im, ode in rows:
                fh.write(f"{re},{im},{ode}\n")
    return {
        "command": "elliptic-check",
        "k": str(k),
        "grid_points": len(rows),
        "worst_sn_ode_residual": worst_ode,
        "worst_sn_cn_identity": worst_sq,
        "worst_halfperiod_residual": worst_hp,
        "worst_weierstrass_ode_residual": worst_wp,
    }


def _cmd_static_transforms(args) -> dict:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    _check_finite(a=args.a)
    rng = random.Random(args.seed)
    worst = {name: 0.0 for name in TRANSFORMATIONS}
    checked = 0
    for _ in range(args.samples):
        x0 = rng.uniform(-2.0, 2.0)
        terms = [(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0), rng.uniform(0, 6)) for _ in range(3)]
        v = trig_jet(x0, 6, terms) + Jet.constant(rng.uniform(0.8, 1.6), 6)
        if abs(v.value(1)) < 0.05:
            continue
        checked += 1
        for name in TRANSFORMATIONS:
            lhs, rhs = static_transformation_residuals(v, name, a=args.a)
            worst[name] = max(worst[name], abs(lhs - rhs))
    if not checked:
        raise ValueError(
            f"--samples {args.samples} --seed {args.seed}: no sample has |v'(x0)| >= 0.05, so nothing was checked"
        )
    # the paired sn profiles at modulus sqrt(2), a = 3/2
    sn_worst = {"square_profile": 0.0, "inv_square_profile": 0.0, "pair_ode": 0.0, "pair_product": 0.0}
    x = 0.35
    count = 0
    while count < 20:
        x += 0.29
        v1 = sn_profile_jet(x)
        if abs(v1.value(0)) < 0.15 or abs(v1.value(1)) < 0.05:
            continue
        v2 = paired_profile_jet(x)
        lhs1, _ = static_transformation_residuals(v1, "square", a=1.5)
        lhs2, _ = static_transformation_residuals(v2, "inv_square", a=1.5)
        sn_worst["square_profile"] = max(sn_worst["square_profile"], abs(lhs1))
        sn_worst["inv_square_profile"] = max(sn_worst["inv_square_profile"], abs(lhs2))
        sn_worst["pair_ode"] = max(sn_worst["pair_ode"], abs(sn_pair_check(x)))
        sn_worst["pair_product"] = max(
            sn_worst["pair_product"], abs(math.sqrt(2) * v1.value(0) * v2.value(0) - 1)
        )
        count += 1
    return {
        "command": "static-transforms",
        "samples": args.samples,
        "factorization_worst": worst,
        "sn_profile_worst": sn_worst,
    }


def _cmd_akns_check(args) -> dict:
    # bounded uniform draws keep the absolute roundoff of the exactly-zero
    # diagonal below 1e-13; gaussian tails would not
    if args.draws < 1 or args.jets < 1:
        raise ValueError(f"--draws and --jets must be at least 1, got {args.draws} and {args.jets}")
    import numpy as np

    from .akns import AKNSParams, JetPoint, akns_commutator_residual, signed_mkdv_residual

    rng = np.random.default_rng(args.seed)
    worst_diag = worst_off = worst_asym = 0.0
    for _ in range(args.draws):
        params = AKNSParams(
            eta=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            b=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        # per jet, the same stream as two draws of 5: real parts, then imaginary
        parts = rng.uniform(-1, 1, size=(args.jets, 2, 5))
        for values in (parts[:, 0] + 1j * parts[:, 1]).tolist():
            jet = JetPoint(*values)
            res = akns_commutator_residual(jet, params)
            d_val = signed_mkdv_residual(jet, params)
            scale = max(1.0, abs(d_val))
            worst_diag = max(worst_diag, abs(res[0, 0]), abs(res[1, 1]))
            worst_off = max(worst_off, abs(res[0, 1] - d_val) / scale, abs(res[1, 0] + d_val) / scale)
            worst_asym = max(worst_asym, abs(res[0, 1] + res[1, 0]) / scale)
    return {
        "command": "akns-check",
        "jets": args.jets,
        "draws": args.draws,
        "worst_diagonal": worst_diag,
        "worst_offdiagonal_vs_D": worst_off,
        "worst_antisymmetry": worst_asym,
    }


_INIT_KEYS = {"soliton": ("c", "x0"), "cnoidal": ("k", "m")}


def _initial_field(spec: str, grid) -> tuple:
    """Parse soliton:c=4,x0=10 | cnoidal:k=0.9,m=1 | file:path."""
    import numpy as np

    from .pde import Field1D, cnoidal_wave, one_soliton

    kind, _, rest = spec.partition(":")
    options = {}
    if kind in _INIT_KEYS and rest:
        keys = _INIT_KEYS[kind]
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in keys or key in options:
                raise ValueError(f"--init {kind} takes the keys {' and '.join(keys)}, each at most once, got {item!r}")
            try:
                options[key] = float(value)
            except ValueError:
                options[key] = math.nan
            if not math.isfinite(options[key]):
                raise ValueError(f"--init {kind} key {key} must be a finite number, got {value.strip()!r}")
    if kind == "soliton":
        c = options.get("c", 4.0)
        x0 = options.get("x0", grid.length / 4)
        if c < 0:
            raise ValueError(f"--init soliton key c (the speed) must not be negative, got {c:g}")
        field, info = one_soliton(grid, c, x0), {"kind": "soliton", "c": c, "x0": x0}
    elif kind == "cnoidal":
        k, m = options.get("k", 0.9), options.get("m", 1.0)
        if not (m >= 1 and m.is_integer()):
            raise ValueError(f"--init cnoidal key m (the number of periods) must be a positive integer, got {m:g}")
        if abs(k) == 1:
            raise ValueError(f"--init cnoidal key k must not be 1 or -1, where the sn^2 period is infinite, got {k:g}")
        try:
            field, speed = cnoidal_wave(grid, k, n_periods=int(m))
        except (EllipticError, OverflowError) as exc:
            reason = "the sn^2 amplitude overflows" if isinstance(exc, OverflowError) else exc
            raise ValueError(f"--init cnoidal keys k={k:g}, m={m:g}: {reason}") from None
        info = {"kind": "cnoidal", "k": k, "m": int(m), "speed": speed}
    elif kind == "file":
        data = np.loadtxt(rest, delimiter=",", ndmin=2)
        if data.shape[1] > 1 and np.any(data[:, 1]):
            raise ValueError("file column 2 (imaginary part) must be zero: fields are real")
        if len(data) != grid.n:
            raise ValueError(f"file has {len(data)} samples, grid needs {grid.n}")
        field, info = Field1D(grid, data[:, 0]), {"kind": "file", "path": rest}
    else:
        raise ValueError(f"unknown --init kind {kind!r}")
    return field, info


def _time_steps(args, min_steps: int) -> int:
    """Steps of size --dt up to --t-end; ValueError unless both are positive and
    --t-end is a whole number (to a relative 1e-9) of `min_steps` to MAX_STEPS steps."""
    if not (args.dt > 0 and args.t_end > 0):
        raise ValueError(f"--dt and --t-end must be positive, got {args.dt:g} and {args.t_end:g}")
    if args.t_end / args.dt > MAX_STEPS:
        raise ValueError(f"--t-end / --dt must be at most {MAX_STEPS} steps, got {args.t_end:g} / {args.dt:g}")
    steps = int(round(args.t_end / args.dt))
    if abs(args.t_end / args.dt - steps) > 1e-9 * steps:
        raise ValueError(f"--t-end must be a whole number of --dt steps, got {args.t_end:g} / {args.dt:g}")
    if steps < min_steps:
        raise ValueError(
            f"--t-end must be at least {min_steps}*dt = {min_steps * args.dt:g}, got {args.t_end:g}: "
            f"the run needs {min_steps + 1} snapshots"
        )
    return steps


def _cmd_pde_run(args) -> dict:
    import numpy as np

    from .pde import (Grid1D, conserved_quantities, evolve_trajectory, exact_soliton, flow_scale, gmkdv_residual,
                      kdv_residual)

    steps = _time_steps(args, min_steps=1)
    _check_finite(a=args.a, L=args.length)
    grid = Grid1D(args.n, args.length)
    u0, init_info = _initial_field(args.init, grid)
    save_every = max(1, steps // (PDE_SNAPSHOTS - 1))
    traj = evolve_trajectory(args.eq, u0, args.t_end, args.dt, a=args.a, save_every=save_every)
    # residual needs five consecutive snapshots; rerun densely over a short window
    window = evolve_trajectory(args.eq, u0, 8 * args.dt, args.dt, a=args.a, save_every=1)
    # the field is checked after the runs, so a run that blows up fails as such whatever its field
    scale = flow_scale(window[2], args.eq, args.a)
    loss = float(np.max(np.abs(u0.values - traj[0].values))) / u0.max_abs()
    if not loss < PDE_RESIDUAL_TOL:
        raise ValueError(
            f"--init {args.init} is under-resolved on --n {args.n} --L {args.length:g}: dropping its modes "
            f"above n/3 moves it by {loss:.3g} of its peak (bound {PDE_RESIDUAL_TOL:g})"
        )
    _require_above_roundoff(window[2], args.dt, scale)
    residual = kdv_residual(window, args.dt) if args.eq == "kdv" else gmkdv_residual(window, args.dt, args.a)
    q0, q1 = conserved_quantities(traj[0], args.eq), conserved_quantities(traj[-1], args.eq)
    magnitudes = _invariant_magnitudes(traj[0], args.eq)
    # from this size up, rounding the subnormal terms moves a drift by at most about eps * L of its bound
    smallest = sys.float_info.min / DRIFT_TOL
    if not min(magnitudes) >= smallest:
        raise ValueError(
            f"--init {args.init}: an invariant's magnitude {min(magnitudes):.3g} is below {smallest:.3g}, "
            f"where its subnormal terms keep too few bits for the drift bound {DRIFT_TOL:g}"
        )
    drifts = [abs(b - a) / m for a, b, m in zip(q0, q1, magnitudes)]
    if args.csv:
        times = [i * save_every * args.dt for i in range(len(traj))]
        times[-1] = args.t_end
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,x,re_u\n")
            for t, snap in zip(times, traj):
                for xv, uv in zip(grid.x, snap.values):
                    fh.write(f"{t},{xv},{uv}\n")
    report = {
        "command": "pde-run",
        "eq": args.eq,
        "a": args.a,
        "n": args.n,
        "L": args.length,
        "dt": args.dt,
        "t_end": args.t_end,
        "init": init_info,
        "pde_residual_window": residual,
        "residual_scale": scale,
        "relative_residual_window": residual / scale,
        "invariant_drifts": {"mass": drifts[0], "momentum": drifts[1], "energy": drifts[2]},
        "final_max_abs": traj[-1].max_abs(),
    }
    if args.eq == "kdv" and init_info["kind"] == "soliton":
        exact = exact_soliton(grid, init_info["c"], init_info["x0"], args.t_end)
        report["closed_form_error"] = float(np.max(np.abs(traj[-1].values - exact)))
    return report


def _require_above_roundoff(w, dt: float, scale: float) -> None:
    """ValueError (exit 2) unless the relative residual bound is above 10 times the
    roundoff floor of the time stencil, eps max|w| / (dt s).  Where roundoff is
    all a right solve's residual holds, it measured up to 1.7 times that floor
    in pde-run and 3.2 times in miura-pipeline."""
    floor = sys.float_info.epsilon * w.max_abs() / (dt * scale)
    if not 10 * floor < PDE_RESIDUAL_TOL:
        raise ValueError(
            f"the time stencil's roundoff alone makes the relative residual about {floor:.3g} here, "
            f"over a tenth of its bound {PDE_RESIDUAL_TOL:g}, so the gate has nothing to check"
        )


def _invariant_magnitudes(u, eq: str) -> tuple:
    """`conserved_quantities` with |integrand|, so a zero-mean mass drifts against the field's size."""
    import numpy as np

    dx = u.grid.length / u.grid.n
    potential = np.abs(u.values) ** 3 if eq == "kdv" else 0.5 * u.values**4
    integrands = (np.abs(u.values), u.values**2, 0.5 * u.deriv(1) ** 2 + potential)
    return tuple(float(np.sum(f) * dx) for f in integrands)


def _cmd_miura_pipeline(args) -> dict:
    import numpy as np

    from .pde import Field1D, Grid1D, evolve_trajectory, flow_scale, gmkdv_residual, kdv_residual, miura_map

    _time_steps(args, min_steps=4)
    _check_finite(a=args.a, L=args.length)
    grid = Grid1D(args.n, args.length)
    phase = 2 * np.pi * grid.x / grid.length
    v0 = Field1D(grid, 0.4 * np.sin(phase) + 0.1 * np.cos(2 * phase), "v")
    vtraj = evolve_trajectory("gmkdv", v0, args.t_end, args.dt, a=args.a, save_every=1)
    utraj = [miura_map(v, args.a) for v in vtraj]
    res_v = gmkdv_residual(vtraj, args.dt, args.a)
    res_u = kdv_residual(utraj, args.dt)
    scale = flow_scale(utraj[2], "kdv")
    _require_above_roundoff(utraj[2], args.dt, scale)
    return {
        "command": "miura-pipeline",
        "a": args.a,
        "gmkdv_residual": res_v,
        "mapped_kdv_residual": res_u,
        "residual_scale": scale,
        "relative_mapped_residual": res_u / scale,
    }


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr and exit 2."""

    def error(self, message):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="g2soliton",
        description="Exact genus-two identity verification and soliton-PDE checks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify-g2", help="reduce an identity set on one curve")
    p.add_argument("--lambda", dest="lam", required=True, help="l0,l1,...,l6 (p/q entries allowed)")
    p.add_argument("--set", default="all", help=f"one of {sorted(IDENTITY_SETS)}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_g2)

    p = sub.add_parser("sweep", help="verify identity sets on seeded random curves")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--set", default="all")
    p.add_argument("--constraints", default="", help="comma list like l0=0,l6=0,l5=4")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="include per-identity timings")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("elliptic-check", help="sn/cn/dn and Weierstrass residual grid")
    p.add_argument("--k", default="0.7")
    p.add_argument("--re", dest="re_range", default="0.1:2.0:20", help="a:b:n")
    p.add_argument("--im", dest="im_range", default="-0.8:0.8:20", help="c:d:m")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_elliptic_check)

    p = sub.add_parser("static-transforms", help="profile-map factorization identities")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--a", type=float, default=1.3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_static_transforms)

    p = sub.add_parser("akns-check", help="zero-curvature commutator residuals")
    p.add_argument("--jets", type=int, default=50)
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_akns_check)

    p = sub.add_parser("pde-run", help="evolve kdv/gmkdv and report diagnostics")
    p.add_argument("--eq", choices=("kdv", "gmkdv"), default="kdv")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--L", dest="length", type=float, default=40.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p.add_argument("--init", default="soliton:c=4,x0=10")
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pde_run)

    p = sub.add_parser("miura-pipeline", help="gmkdv trajectory mapped through the Miura map")
    p.add_argument("--a", type=float, default=1.5)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--L", dest="length", type=float, default=40.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", dest="t_end", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_miura_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        _emit(report, args.out)
    except (ValueError, OSError, EllipticError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        from .pde import PdeError  # imported here, so the exact subcommands start without numpy

        if not isinstance(exc, PdeError):
            raise
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    failed = failed_checks(report)
    for line in failed:
        print(f"check failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

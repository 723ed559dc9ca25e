"""The four workloads: seeded inputs, the timed call, and the output checks.

Every workload hands out rounds of items.  An item is timed `REPEATS` times,
each time on a fresh input of the same cost that the program has not seen:
a curve's image under x -> -x, f -> -f (or, where neither keeps the locus,
their composite and the reversal x -> 1/x), a soliton with shifted x0, or a
new point z at the same moduli.  The program receives only these inputs and
is always reached through its module attributes, so the traced run's
wrappers see every call.

`calibration_units` is how many units of the calibration loop (calibrate.py)
bracket each timed call: a few per cent of an item's time, or more.

`check(inp, out, full)` returns a list of problems.  The cheap part runs on
every repeat; with `full` (the first repeat of an item) it also compares
with the computations in `reference`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from g2soliton import akns, curvering, elliptic, identities, pde, transforms

import reference as ref

REPEATS = 3


@dataclass
class Item:
    """One unit of work: a label, one input per repeat, and a seed for its checks."""

    label: str
    inputs: list
    check_seed: int


# -- curves ----------------------------------------------------------------------


def _coefficient(rng: random.Random) -> Fraction:
    # nonzero and never +-4, so no variant lands on an l1 = 4 or l5 = 4 locus
    while True:
        v = Fraction(rng.randint(-100, 100), rng.randint(1, 10))
        if v != 0 and abs(v) != 4:
            return v


def general_sextic(rng: random.Random) -> tuple:
    return tuple(_coefficient(rng) for _ in range(7))


def quintic_dual(rng: random.Random) -> tuple:
    """l0 = l6 = 0, every other coefficient nonzero."""
    l = list(general_sextic(rng))
    l[0] = l[6] = Fraction(0)
    return tuple(l)


def gii_curve(rng: random.Random) -> tuple:
    """l0 = l6 = 0 and l1 = l5 = 4, with l2 != +-l4 so all variants differ."""
    while True:
        l2, l3, l4 = (_coefficient(rng) for _ in range(3))
        if abs(l2) != abs(l4):
            return (Fraction(0), Fraction(4), l2, l3, l4, Fraction(4), Fraction(0))


def curve_variants(lambdas: tuple, keep_gii: bool) -> list:
    """The item's curve and two images of the same coefficient sizes."""
    if keep_gii:
        # x -> -x and f -> -f each flip l1 and l5; their composite keeps them
        return [lambdas, ref.flip_f(ref.flip_x(lambdas)), ref.reverse(lambdas)]
    return [lambdas, ref.flip_x(lambdas), ref.flip_f(lambdas)]


def _params(lambdas) -> curvering.CurveParams:
    return curvering.CurveParams(tuple(lambdas))


# -- two-precision probes ------------------------------------------------------------

LOW_DPS = 30
HIGH_DPS = 50


def _probe(tag: str, fns, xs, signs, dps: int) -> list:
    point = ref.point_at(fns.params.lambdas, xs, signs, dps)
    with mp.workdps(dps):
        return [mp.mpc(v) for v in identities.probe_identity(tag, fns, point)]


def probe_twice(tag: str, fns, xs, signs) -> tuple:
    """Residual components at LOW_DPS and HIGH_DPS digits at one curve point."""
    return _probe(tag, fns, xs, signs, LOW_DPS), _probe(tag, fns, xs, signs, HIGH_DPS)


def vanishes(low: list, high: list) -> bool:
    """True when no component keeps its value as the working precision grows.

    A nonzero value agrees at both precisions to about LOW_DPS digits; an
    exact zero evaluates to rounding noise (or 0) that changes with them.
    """
    return not any(h != 0 and abs(h - lo) <= 1e-10 * abs(h) for lo, h in zip(low, high))


# -- catalog-zero ------------------------------------------------------------------------


class CatalogZero:
    """`verify_all` over the whole catalog on one curve from each of three loci."""

    name = "catalog-zero"
    round_size = 3
    calibration_units = 20
    LOCI = (("sextic", general_sextic), ("l0=l6=0", quintic_dual), ("gii", gii_curve))
    FIRST_DERIVATIVES = ("p22", "p21", "q", "r22", "r21", "r11", "hp11", "hp21", "hq")
    SECOND_DERIVATIVES = ("p22", "p21", "q", "hp11", "hp21", "hq")
    # central differences at 45 digits agree with exact derivatives to ~1e-20
    FLOW_DPS = 45
    FLOW_REL = 1e-15

    def make_round(self, rng: random.Random) -> list:
        items = []
        for label, sample in self.LOCI:
            lambdas = sample(rng)
            variants = curve_variants(lambdas, keep_gii=label == "gii")
            items.append(Item(label, [_params(v) for v in variants], rng.getrandbits(32)))
        return items

    def run(self, curve):
        return identities.verify_all(curve)

    def check(self, curve, report, full: bool, check_seed: int = 0) -> list:
        problems = []
        catalog = identities.identity_ids()
        tags = [r.tag for r in report.results]
        if tags != list(catalog):
            problems.append(f"catalog order or size changed: {len(tags)} identities")
        for r in report.results:
            runnable = all(ref.constraint_holds(c, curve.lambdas) for c in catalog[r.tag].required_constraints)
            expected = "zero" if runnable else "skipped"
            if r.status != expected:
                problems.append(f"{r.tag} on {curve}: status {r.status}, constraints predict {expected}")
        if full and not problems:
            fns = identities.G2Functions(curve)
            rng = random.Random(check_seed)
            xs, signs = ref.probe_point(curve.lambdas, rng, LOW_DPS)
            for r in report.results:
                if r.status == "zero" and not vanishes(*probe_twice(r.tag, fns, xs, signs)):
                    problems.append(f"{r.tag} reported zero but does not vanish at x={xs}")
            problems += self.check_flows(fns, xs, signs)
        return problems

    def check_flows(self, fns, xs, signs) -> list:
        """Program flow derivatives against central differences along the flow."""
        problems = []
        lambdas = fns.params.lambdas
        dps = self.FLOW_DPS
        point = ref.point_at(lambdas, xs, signs, dps)
        rel = self.FLOW_REL
        with mp.workdps(dps):
            lmp = [mp.mpf(v.numerator) / v.denominator for v in lambdas]
            for name in self.FIRST_DERIVATIVES:
                for d in (1, 2):
                    got = fns.deriv(name, str(d)).eval_mp(*point)
                    want = ref.along_flow(
                        lambda *p, name=name: ref.base_value(name, lmp, *p), lambdas, point, d, dps
                    )
                    if not ref.close(got, want, rel):
                        problems.append(f"D{d} {name}: program {mp.nstr(got, 8)}, difference {mp.nstr(want, 8)}")
            for name in self.SECOND_DERIVATIVES:
                for d1, d2 in ((1, 1), (1, 2), (2, 2)):
                    first = fns.deriv(name, str(d1))
                    got = fns.deriv(name, f"{d1}{d2}").eval_mp(*point)
                    want = ref.along_flow(first.eval_mp, lambdas, point, d2, dps)
                    if not ref.close(got, want, rel):
                        problems.append(f"D{d2}D{d1} {name}: program {mp.nstr(got, 8)}, difference {mp.nstr(want, 8)}")
        return problems


# -- offlocus-witness ------------------------------------------------------------------------


class OfflocusWitness:
    """The 13 special identities on a general sextic: assembled, nonzero, witnessed."""

    name = "offlocus-witness"
    round_size = 3
    calibration_units = 20
    TAGS = (
        "INT-W2", "WS1", "WS2", "WS3", "WS4", "WS5", "KUM1",
        "INT-J2", "JS1", "JS2", "JS3", "JS4", "JS5",
    )

    def make_round(self, rng: random.Random) -> list:
        items = []
        for _ in range(self.round_size):
            variants = curve_variants(general_sextic(rng), keep_gii=False)
            items.append(Item("sextic", [_params(v) for v in variants], rng.getrandbits(32)))
        return items

    def run(self, curve):
        fns = identities.G2Functions(curve)
        found = []
        for tag in self.TAGS:
            comps = identities.residuals_unchecked(tag, fns)
            if all(comp.is_zero() for comp in comps):
                found.append((tag, None, None))
                continue
            point, value = identities.find_witness(comps, fns)
            found.append((tag, point, value))
        return fns, found

    def check(self, curve, out, full: bool, check_seed: int = 0) -> list:
        fns, found = out
        problems = []
        if [tag for tag, _, _ in found] != list(self.TAGS):
            problems.append("identity list changed")
        for tag, point, value in found:
            if point is None or value is None:
                problems.append(f"{tag} on {curve}: no witness (residual zero or search failed)")
            elif not float(value) > 0:
                problems.append(f"{tag}: witness value {value} is not positive")
            elif full:
                problems += self.check_witness(tag, fns, point, value)
        return problems

    @staticmethod
    def check_witness(tag: str, fns, point, value) -> list:
        """Re-evaluate the residual with probe_identity at the reported point."""
        # find_witness draws x from a grid of step 1/100 and reports it as a float
        xs = tuple(Fraction(x).limit_denominator(100) for x in point[:2])
        exact = ref.point_at(fns.params.lambdas, xs, (1, 1), LOW_DPS)
        signs = tuple(1 if abs(complex(y) - complex(w)) <= abs(complex(y) + complex(w)) else -1
                      for y, w in zip(exact[2:], point[2:]))
        low, high = probe_twice(tag, fns, xs, signs)
        if vanishes(low, high):
            return [f"{tag}: residual vanishes at the reported witness x={xs}"]
        reported = float(value)
        if not any(abs(float(abs(h)) - reported) <= 1e-5 * reported for h in high):
            got = ", ".join(mp.nstr(abs(h), 8) for h in high)
            return [f"{tag}: witness value {value} but |residual| = {got} at x={xs}"]
        return []


# -- soliton-evolve ------------------------------------------------------------------------


@dataclass
class SolitonRun:
    final: np.ndarray
    window_residual: float
    invariants: tuple
    v_mid: np.ndarray
    u_window: list
    mapped_residual: float


class SolitonEvolve:
    """KdV one-soliton at the pde-run settings, then a mapped gmKdV trajectory."""

    name = "soliton-evolve"
    round_size = 2
    calibration_units = 40
    C = 4.0
    LENGTH = 40.0
    DT = 1e-3
    T_END = 1.0
    A = 1.5
    GM_T_END = 0.1

    def make_round(self, rng: random.Random) -> list:
        items = []
        for _ in range(self.round_size):
            x0 = rng.uniform(8.0, 12.0)
            shifts = [0.0, rng.uniform(0.1, 1.0), rng.uniform(1.1, 2.0)]
            items.append(Item("x0", [x0 + s for s in shifts], rng.getrandbits(32)))
        return items

    def run(self, x0: float) -> SolitonRun:
        grid = pde.Grid1D(256, self.LENGTH)
        u0 = pde.one_soliton(grid, self.C, x0)
        steps = int(round(self.T_END / self.DT))
        traj = pde.evolve_trajectory("kdv", u0, self.T_END, self.DT, save_every=steps // 10)
        window = pde.evolve_trajectory("kdv", u0, 8 * self.DT, self.DT, save_every=1)
        residual = pde.kdv_residual(window, self.DT)
        invariants = (pde.conserved_quantities(traj[0]), pde.conserved_quantities(traj[-1]))

        wide = pde.Grid1D(1024, self.LENGTH)
        phase = 2 * np.pi * (wide.x - x0) / self.LENGTH
        v0 = pde.Field1D(wide, 0.4 * np.sin(phase) + 0.1 * np.cos(2 * phase), "v")
        vtraj = pde.evolve_trajectory("gmkdv", v0, self.GM_T_END, self.DT, a=self.A, save_every=1)
        utraj = [pde.miura_map(v, self.A) for v in vtraj]
        mapped = pde.kdv_residual(utraj, self.DT)
        mid = len(vtraj) // 2
        return SolitonRun(
            final=traj[-1].values,
            window_residual=residual,
            invariants=invariants,
            v_mid=vtraj[mid].values,
            u_window=[u.values for u in utraj[mid - 2: mid + 3]],
            mapped_residual=mapped,
        )

    def check(self, x0: float, out: SolitonRun, full: bool, check_seed: int = 0) -> list:
        problems = []
        # tolerances of the acceptance suite: residuals 1e-6, invariant drift 1e-7
        if not out.window_residual < 1e-6:
            problems.append(f"KdV window residual {out.window_residual:.3g}")
        drift = max(abs(b - a) / abs(a) for a, b in zip(*out.invariants))
        if not drift < 1e-7:
            problems.append(f"invariant drift {drift:.3g}")
        if not out.mapped_residual < 1e-6:
            problems.append(f"mapped KdV residual {out.mapped_residual:.3g}")
        x = np.arange(256) * (self.LENGTH / 256)
        exact = ref.kdv_soliton(x, self.LENGTH, self.C, x0, self.T_END)
        err = float(np.max(np.abs(out.final - exact)))
        if not err < 1e-6:
            problems.append(f"soliton at t=1 differs from sech^2 by {err:.3g}")
        travel = (ref.trough_position(out.final.real, self.LENGTH) - x0) % self.LENGTH
        if not abs(travel - self.C * self.T_END) < 1e-2:
            problems.append(f"trough travelled {travel:.5f}, expected {self.C * self.T_END}")
        if full:
            mapped = ref.miura(out.v_mid, self.LENGTH, self.A)
            err = float(np.max(np.abs(mapped - out.u_window[2])))
            if not err < 1e-8:
                problems.append(f"miura_map differs from v^2 + v_x - a/6 by {err:.3g}")
            res = ref.kdv_residual_at(out.u_window, 2, self.DT, self.LENGTH)
            if not res < 1e-6:
                problems.append(f"mapped field misses KdV by {res:.3g}")
        return problems


# -- genus-one-pointwise ---------------------------------------------------------------------


@dataclass
class PointRun:
    triples: list
    periods: list
    halfperiod: complex
    weierstrass: complex
    jet: object
    statics: list
    pair: complex
    jet_point: object
    akns_params: object
    commutator: np.ndarray


class GenusOnePointwise:
    """One complex point through sn/cn/dn, the half period, jets, transforms and AKNS."""

    name = "genus-one-pointwise"
    round_size = 20
    calibration_units = 1
    # |k| > 1 (the paper's sn profile), the near-1 band and a complex modulus
    MODULI = (math.sqrt(2), 0.99, 0.6 + 0.3j)
    HALFPERIOD_K = 0.7
    A = 1.5

    def __init__(self):
        self.roots = elliptic.WeierstrassRoots(1.2, 0.3, -1.5)

    @staticmethod
    def _point(rng: random.Random) -> complex:
        return complex(rng.uniform(0.3, 1.5), rng.uniform(-0.4, 0.4))

    def make_round(self, rng: random.Random) -> list:
        return [
            Item("z", [self._point(rng) for _ in range(REPEATS)], rng.getrandbits(32))
            for _ in range(self.round_size)
        ]

    def run(self, z: complex) -> PointRun:
        triples = [elliptic.sncndn(z, k) for k in self.MODULI]
        periods = [elliptic.quarter_period(k) for k in self.MODULI]
        hp = elliptic.halfperiod_residual_g1(z, self.HALFPERIOD_K)
        wp = elliptic.weierstrass_ode_residual(0.75 * z, self.roots)
        v = transforms.sn_profile_jet(z, 6)
        statics = [transforms.static_transformation_residuals(v, w, self.A) for w in transforms.TRANSFORMATIONS]
        pair = transforms.sn_pair_check(z)
        v0, v1, v2, v3 = (v.value(n) for n in range(4))
        jet_point = akns.JetPoint(v0, v1, v2, v3, 6 * v0 * v0 * v1 - v3 - self.A * v1)
        params = akns.AKNSParams(eta=0.5 * z, b=1 - z / 3)
        commutator = akns.akns_commutator_residual(jet_point, params)
        return PointRun(triples, periods, hp, wp, v, statics, pair, jet_point, params, commutator)

    def check(self, z: complex, out: PointRun, full: bool, check_seed: int = 0) -> list:
        problems = []
        # the acceptance tolerances hold here with at least 200x to spare
        # (100,000 points): half period and Weierstrass ODE 1e-9, transforms
        # and the sn pair 1e-8, commutator diagonal 1e-13, off-diagonal 1e-12
        if not abs(out.halfperiod) < 1e-9:
            problems.append(f"half-period residual {abs(out.halfperiod):.3g} at z={z}")
        if not abs(out.weierstrass) < 1e-9:
            problems.append(f"Weierstrass ODE residual {abs(out.weierstrass):.3g} at u={0.75 * z}")
        for which, (lhs, rhs) in zip(transforms.TRANSFORMATIONS, out.statics):
            if not abs(lhs - rhs) < 1e-8:
                problems.append(f"{which}: lhs - rhs = {abs(lhs - rhs):.3g} at z={z}")
            # the sn profile solves the square and inverse-square profile equations
            if which in ("square", "inv_square") and not abs(lhs) < 1e-8:
                problems.append(f"{which}: profile residual {abs(lhs):.3g} at z={z}")
        if not abs(out.pair) < 1e-8:
            problems.append(f"sn pair residual {abs(out.pair):.3g} at z={z}")
        j, p = out.jet_point, out.akns_params
        d = ref.signed_mkdv(j.v, j.v_x, j.v_xx, j.v_xxx, j.v_t, p.eta, p.b)
        res = out.commutator
        if not max(abs(res[0, 0]), abs(res[1, 1])) < 1e-13:
            problems.append(f"commutator diagonal {max(abs(res[0, 0]), abs(res[1, 1])):.3g} at z={z}")
        off = max(abs(res[0, 1] - d), abs(res[1, 0] + d)) / max(1.0, abs(d))
        if not off < 1e-12:
            problems.append(f"commutator off-diagonal differs from D by {off:.3g} at z={z}")
        if full:
            for k, got, period in zip(self.MODULI, out.triples, out.periods):
                want = ref.jacobi_reference(z, k)
                if not all(abs(g - w) <= 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)):
                    problems.append(f"sncndn({z}, {k}) = {got}, mpmath {want}")
                kq = ref.quarter_period_reference(k)
                if not abs(period - kq) <= 1e-12 * abs(kq):
                    problems.append(f"quarter_period({k}) = {period}, mpmath {kq}")
            want = ref.sn_profile_derivatives(z)
            got = [out.jet.value(n) for n in range(3)]
            if not all(abs(g - w) <= 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)):
                problems.append(f"sn profile jet {got}, mpmath {want}")
        return problems


WORKLOADS = {w.name: w for w in (CatalogZero, OfflocusWitness, SolitonEvolve, GenusOnePointwise)}

"""The genus-two identity catalog: probe oracles, exact zeros, and witnesses."""

import functools
import json
import random

import mpmath as mp
import pytest

from g2soliton import identities
from g2soliton.cli import main
from g2soliton.curvering import CurveParams, Fld, Poly, Rat, probe_digits, random_probe_point
from g2soliton.flows import flow_derivative
from g2soliton.identities import (
    Constraint,
    ExactContext,
    G2Functions,
    IDENTITY_SETS,
    MissingConstraint,
    NumericContext,
    find_witness,
    identity_ids,
    merge_constraints,
    probe_identity,
    residuals,
    residuals_unchecked,
    symmetric_pairing,
    verify_all,
    verify_identity,
)
from g2soliton.sweep import SweepConfig, locus_groups, run_sweep, sample_curve, sample_curves, summarize

GENERIC = CurveParams((1, 2, 1, 3, 1, 4, 5))
QUINTIC = CurveParams((2, 3, 1, 5, 1, 4, 0))  # l6 = 0
SPECIAL = CurveParams((0, 4, 1, 1, 1, 4, 0))  # l0 = l6 = 0, l1 = l5 = 4


@pytest.fixture(scope="module")
def generic_fns():
    return G2Functions(GENERIC)


@pytest.fixture(scope="module")
def special_fns():
    return G2Functions(SPECIAL)


# -- construction --------------------------------------------------------------


def test_weierstrass_triple_shapes(generic_fns):
    params = GENERIC
    x1 = Fld.variable(params, "x1")
    x2 = Fld.variable(params, "x2")
    l5 = params.lambdas[5]
    assert generic_fns.p22 == l5 / 4 * (x1 + x2)
    assert generic_fns.p21 == -(l5 / 4) * x1 * x2


def test_dual_triple_shapes(generic_fns):
    params = GENERIC
    x1 = Fld.variable(params, "x1")
    x2 = Fld.variable(params, "x2")
    l1 = params.lambdas[1]
    assert generic_fns.hp11 == l1 / 4 * (1 / x1 + 1 / x2)
    assert generic_fns.hp21 == -(l1 / 4) / (x1 * x2)
    assert generic_fns.hq == generic_fns.q / (x1 * x2)


def test_q_defining_relation(generic_fns):
    params = GENERIC
    x1 = Fld.variable(params, "x1")
    x2 = Fld.variable(params, "x2")
    y1y2 = Fld(Poly(params, {(0, 0, 1, 1): Rat(1)}))
    lhs = 4 * (x1 - x2) ** 2 * generic_fns.q
    assert (lhs - (Fld(generic_fns.f_poly) - 2 * y1y2)).is_zero()


def test_r_family_collapses_when_l6_zero():
    fns = G2Functions(QUINTIC)
    assert (fns.r22 - fns.p22).is_zero()
    assert (fns.r21 - fns.p21).is_zero()
    assert (fns.r11 - fns.q).is_zero()


def test_build_functions_guards():
    # every family is built on an l5 = 0 curve; the catalog locus guards W1
    no_w = CurveParams((1, 2, 1, 3, 1, 0, 5))
    fns = G2Functions(no_w)
    assert fns.base("p22").is_zero() and fns.base("p21").is_zero()
    assert not fns.base("hp11").is_zero()
    with pytest.raises(MissingConstraint):
        residuals("W1", fns)


def test_symmetry_under_point_swap(generic_fns):
    for name in ("p22", "p21", "q", "hp11", "hp21", "hq"):
        f = generic_fns.base(name)
        assert (f - f.swap_points()).is_zero()


# -- probe oracle first, then exact reduction -----------------------------------

GENERIC_TAGS = [
    "W1", "W2", "W3", "W4", "W5", "W6", "W7",
    "J1", "J2", "J3", "J4", "J5", "J6", "J7",
    "INT-R", "INT-W", "INT-J", "KUM2",
]


@pytest.mark.parametrize("tag", GENERIC_TAGS)
def test_probe_oracle_then_exact_zero(tag, generic_fns):
    # numeric Schwartz-Zippel probe at 5 random curve points first, the
    # exact reduction second; both must agree that the residual vanishes.
    # 40 digits leave |residual| < 1e-20 with headroom even for the quartic,
    # whose individual terms reach ~1e6 at the probe points
    rng = random.Random(sum(map(ord, tag)))
    with mp.workdps(40):
        for _ in range(5):
            point = random_probe_point(GENERIC, rng, dps=40)
            vals = probe_identity(tag, generic_fns, point)
            assert all(abs(v) < mp.mpf("1e-20") for v in vals)
    assert all(r.is_zero() for r in residuals(tag, generic_fns))


SPECIAL_TAGS = ["WS1", "WS2", "WS3", "WS4", "WS5", "JS1", "JS2", "JS3", "JS4", "JS5",
                "INT-W2", "INT-J2", "KUM1"]


@pytest.mark.parametrize("tag", SPECIAL_TAGS)
def test_special_curve_identities_exact_zero(tag, special_fns):
    assert all(r.is_zero() for r in residuals(tag, special_fns))


def test_quintic_curve_specializations():
    fns = G2Functions(QUINTIC)
    for tag in ("WS1", "WS2", "WS3", "INT-W2", "KUM1", "KUM2"):
        assert all(r.is_zero() for r in residuals(tag, fns))


# -- the two-way integrability gaps ----------------------------------------------


def test_mixed_integrability_gap_nonzero_for_sextic(generic_fns):
    gap = residuals_unchecked("INT-W2", generic_fns)[0]
    assert not gap.is_zero()
    point, value = find_witness((gap,), generic_fns, seed=1)
    assert point is not None and value is not None


def test_dual_integrability_gap_nonzero_when_l0_nonzero(generic_fns):
    gap = residuals_unchecked("INT-J2", generic_fns)[0]
    assert not gap.is_zero()


def test_gaps_close_on_special_curve(special_fns):
    assert residuals("INT-W2", special_fns)[0].is_zero()
    assert residuals("INT-J2", special_fns)[0].is_zero()


# -- Kummer ---------------------------------------------------------------------


def test_kummer_quartic_nonzero_without_correction(generic_fns):
    assert not residuals_unchecked("KUM1", generic_fns)[0].is_zero()


def test_kummer_difference_vanishes_on_quintic():
    fns = G2Functions(QUINTIC)
    (k2,) = residuals("KUM2", fns)
    (k1,) = residuals("KUM1", fns)
    assert (k2 - k1).is_zero()


def test_kummer_on_fractional_curve_with_l0_not_one():
    # regression: the Y^2 term of the sextic correction carries l0*l5^2;
    # curves with l0 = 1 cannot tell the difference, this one can
    params = CurveParams.from_text("lambda = [-81/7,-9,25/2,62/9,-31/5,37,-93/2]")
    fns = G2Functions(params)
    (kum2,) = residuals("KUM2", fns)
    assert kum2.is_zero()


# -- dual involution ---------------------------------------------------------------


def dual_transform_poly(p, target):
    """Image of a polynomial under x_i -> 1/x_i, y_i -> y_i/x_i^3.

    `target` must be the coefficient-reversed curve; the involution maps the
    quotient relation of one curve onto the other.
    """
    assert target.lambdas == p.params.dual().lambdas
    d1 = max((m[0] + 3 * m[2] for m in p.terms), default=0)
    d2 = max((m[1] + 3 * m[3] for m in p.terms), default=0)
    num_terms = {(d1 - e1 - 3 * a1, d2 - e2 - 3 * a2, a1, a2): c for (e1, e2, a1, a2), c in p.terms.items()}
    return Fld(Poly.scaled(target, num_terms, p.scale), Poly.scaled(target, {(d1, d2, 0, 0): 1}))


def dual_transform(a):
    """Image of a function-field element under the dual involution, apart
    from the catalog: a reference for the generated Jacobi entries."""
    target = a.params.dual()
    return dual_transform_poly(a.num, target) / dual_transform_poly(a.den, target)


def test_dual_transform_sends_triple_to_hatted():
    # the Weierstrass triple on the reversed curve maps onto the dual triple
    rev = GENERIC.dual()
    fns = G2Functions(GENERIC)
    fns_rev = G2Functions(rev)
    assert (dual_transform(fns_rev.p22) - fns.hp11).is_zero()
    assert (dual_transform(fns_rev.p21) - fns.hp21).is_zero()
    assert (dual_transform(fns_rev.q) - fns.hq).is_zero()


def test_dual_transform_flow_relabeling():
    # S o D1 = -D2 o S: the involution swaps and reverses the flows
    rev = GENERIC.dual()
    fns_rev = G2Functions(rev)
    g = fns_rev.p22
    lhs = dual_transform(flow_derivative(g, 1))
    rhs = -flow_derivative(dual_transform(g), 2)
    assert (lhs - rhs).is_zero()


def test_dual_pairing_polynomial_consistency():
    # F(1/x1, 1/x2; reversed) * (x1 x2)^3 == F(x1, x2; original)
    rev = GENERIC.dual()
    f_rev = symmetric_pairing(rev)
    image = dual_transform(Fld(f_rev))
    x1 = Fld.variable(GENERIC, "x1")
    x2 = Fld.variable(GENERIC, "x2")
    expect = Fld(symmetric_pairing(GENERIC)) / (x1 * x2) ** 3
    assert (image - expect).is_zero()


# each generated Jacobi entry and the Weierstrass entry it is the dual image of
DUAL_PARTNERS = {
    "J1": "W4", "J2": "W3", "J3": "W2", "J4": "W1", "J5": "W7", "J6": "W6", "J7": "W5",
    "INT-J": "INT-W", "INT-J2": "INT-W2",
    "JS1": "WS5", "JS2": "WS4", "JS3": "WS3", "JS4": "WS2", "JS5": "WS1",
}
DUAL_CURVES = {
    "sextic": CurveParams((3, 2, 1, 5, 7, 4, 9)),
    "l0=0": CurveParams((0, 2, 1, 5, 7, 4, 9)),
    "fractional": CurveParams(("3/2", "-7/3", "5", "1/4", "-2/5", "9/7", "5/6")),
}


@pytest.mark.parametrize("name", list(DUAL_CURVES))
def test_generated_jacobi_entries_are_dual_images(name):
    # on and off their loci: J on C is the image of its partner W on the
    # reversed curve; S o D1 = -D2 o S flips the sign of first-derivative
    # relations only
    params = DUAL_CURVES[name]
    fns, fns_rev = G2Functions(params), G2Functions(params.dual())
    for tag, partner in DUAL_PARTNERS.items():
        sign = -1 if tag.startswith("INT") else 1
        got = residuals_unchecked(tag, fns)
        want = residuals_unchecked(partner, fns_rev)
        assert len(got) == len(want) == 1
        assert (got[0] - sign * dual_transform(want[0])).is_zero(), (tag, partner)


def test_jacobi_loci_imply_reflected_partner_loci():
    ids = identity_ids()
    for tag, partner in DUAL_PARTNERS.items():
        reflected = [Constraint(6 - c.index, c.kind, c.value) for c in ids[partner].constraints]
        assert merge_constraints(ids[tag].constraints + tuple(reflected)) == ids[tag].constraints, tag


# -- quintic entries generated by pinning -----------------------------------------

# the quintic entries as written out before they were generated from their
# sextic partners with l6 (and l0) pinned to zero: references for the pin
QUINTIC_REFERENCES = {
    "WS1": lambda c: c.d("p22", "22") - 6 * c.p22**2 - c.l4 * c.p22 - c.l5 * c.p21 - c.l3 * c.l5 / 8,
    "WS2": lambda c: c.d("p22", "12") - 6 * c.p22 * c.p21 - c.l4 * c.p21 + c.l5 / 2 * c.q,
    "WS3": lambda c: c.d("p22", "11") - 2 * c.p22 * c.q - 4 * c.p21**2 - c.l3 / 2 * c.p21,
    "WS4": lambda c: c.d("p21", "11") - 6 * c.p21 * c.q + c.l1 / 2 * c.p22 - c.l2 * c.p21,
    "WS5": lambda c: c.d("q", "11") - 6 * c.q**2 - c.l1 * c.p21 - c.l2 * c.q - c.l1 * c.l3 / 8,
    "KUM1": identities._kummer_quartic,
}
PIN_CURVES = {
    "sextic": CurveParams((3, 2, 1, 5, 7, 4, 9)),
    "sextic, l1<0": CurveParams((1, -2, 3, 5, 7, 4, 9)),
    "l0=l6=0": CurveParams((0, 2, 1, 5, 7, 4, 0)),
    "l6=0": CurveParams((2, 2, 1, 5, 7, 4, 0)),
    "fractional sextic": CurveParams(("59/5", "89/6", "76/9", "-93/8", "49/2", "66", "-30")),
}


@pytest.mark.parametrize("name", list(PIN_CURVES))
def test_generated_quintic_entries_match_the_written_out_forms(name):
    # on and off their loci, so residuals and witnesses are unchanged
    fns = G2Functions(PIN_CURVES[name])
    for tag, reference in QUINTIC_REFERENCES.items():
        (got,) = residuals_unchecked(tag, fns)
        want = reference(ExactContext(fns))
        assert got.num == want.num and got.struct == want.struct, tag
    with mp.workdps(probe_digits()):
        point = fns.probe_point(0, 0)
        for tag, reference in QUINTIC_REFERENCES.items():
            assert probe_identity(tag, fns, point) == (reference(NumericContext(fns, point)),), tag


def test_generated_js_entries_are_dual_images_of_the_references():
    # the pin acts on the dual view: pinning the curve's own l6 instead
    # would give another JS3 on this sextic
    params = PIN_CURVES["fractional sextic"]
    fns, ctx_rev = G2Functions(params), ExactContext(G2Functions(params.dual()))
    for tag in ("JS1", "JS2", "JS3", "JS4", "JS5"):
        (got,) = residuals_unchecked(tag, fns)
        want = QUINTIC_REFERENCES[DUAL_PARTNERS[tag]](ctx_rev)
        assert not got.is_zero() and (got - dual_transform(want)).is_zero(), tag


# -- mutation control and witnesses ------------------------------------------------


def test_corrupted_identity_yields_witness(generic_fns):
    # flip the sign of the quadratic term of the first closure
    (good,) = residuals("W1", generic_fns)
    corrupted = good + 12 * generic_fns.p22**2
    assert not corrupted.is_zero()
    point, value = find_witness((corrupted,), generic_fns, seed=0)
    assert point is not None
    with mp.workdps(30):
        assert abs(corrupted.eval_mp(point[0], point[1], point[2], point[3])) > mp.mpf("1e-10")


# witnesses found before the probe stream was shared: (tag, seed) -> (point, |residual|)
_POINT_SEED0 = [2.17, 2.35, (-27.882167013749935 + 0j), (34.77731426631627 + 0j)]
_POINT_SEED1 = [0.88, 3.11, (3.2575235165874092 + 0j), (76.73682170573137 + 0j)]
PINNED_WITNESSES = {
    ("INT-W2", 0): (_POINT_SEED0, "9961.34"),
    ("INT-W2", 1): (_POINT_SEED1, "51.2254"),
    ("WS4", 0): (_POINT_SEED0, "1327.12"),
    ("WS4", 1): (_POINT_SEED1, "205.988"),
    ("KUM1", 0): (_POINT_SEED0, "3.17531e+8"),
    ("KUM1", 1): (_POINT_SEED1, "8396.94"),
    ("JS3", 0): (_POINT_SEED0, "0.0340844"),
    ("JS3", 1): (_POINT_SEED1, "0.194645"),
}


def test_pinned_witness_points_and_values():
    fns = G2Functions(GENERIC)
    for (tag, seed), (point, value) in PINNED_WITNESSES.items():
        assert find_witness(residuals_unchecked(tag, fns), fns, seed=seed) == (point, value), (tag, seed)


def test_probe_stream_is_drawn_once_per_seed_and_precision(monkeypatch):
    draws = []

    def counting(params, rng, dps=None):
        draws.append(dps)
        return random_probe_point(params, rng, dps)

    monkeypatch.setattr(identities, "random_probe_point", counting)
    fns = G2Functions(GENERIC)
    comps = [residuals_unchecked(tag, fns) for tag in ("INT-W2", "WS4", "KUM1", "JS3")]
    dps = probe_digits()
    for c in comps:
        find_witness(c, fns, seed=0)
    assert draws == [dps]  # every identity took the first point, drawn once
    find_witness(comps[0], fns, seed=1)
    assert draws == [dps, dps]  # another seed walks its own stream
    monkeypatch.setenv("PROBE_DIGITS", str(dps + 10))
    point, _ = find_witness(comps[0], fns, seed=0)
    assert draws == [dps, dps, dps + 10]  # and so does another precision
    assert point[:2] == PINNED_WITNESSES[("INT-W2", 0)][0][:2]
    for seed in (0, 1, 5):
        for digits in (dps, dps + 10):
            rng = random.Random(seed)
            with mp.workdps(digits):
                fresh = [random_probe_point(GENERIC, rng, digits) for _ in range(4)]
                assert [fns.probe_point(seed, i) for i in range(4)] == fresh


def test_missing_witness_is_unresolved_and_fails(monkeypatch, generic_fns):
    corrupted = residuals("W1", generic_fns)[0] + 12 * generic_fns.p22**2
    monkeypatch.setattr(identities, "residuals_unchecked", lambda tag, fns: (corrupted,))
    assert find_witness((corrupted,), generic_fns, tries=0) == (None, None)
    monkeypatch.setattr(identities, "find_witness", functools.partial(find_witness, tries=0))
    res = verify_identity("W1", generic_fns)
    assert res.status == "unresolved" and res.witness_point is None and res.millis >= 0
    report = verify_all(GENERIC, ["W1", "W2"])
    assert [r.status for r in report.results] == ["unresolved", "unresolved"] and report.has_nonzero
    summary = summarize([report])
    assert summary.n_nonzero == 2 and summary.failing_curves == [str(GENERIC)]
    assert main(["verify-g2", "--lambda", "1,2,1,3,1,4,5", "--set", "weierstrass"]) == 1


# -- verify driver and report shape -------------------------------------------------


def test_verify_all_weierstrass_report(generic_fns):
    report = verify_all(GENERIC, IDENTITY_SETS["weierstrass"])
    assert sum(r.status == "zero" for r in report.results) == 7
    assert not report.has_nonzero and not any(r.status == "skipped" for r in report.results)
    entries = report.to_json_entries()
    assert len(entries) == 7
    for entry in entries:
        assert set(entry) == {"curve", "identity", "status", "witness_point", "millis", "reason"}
        assert entry["status"] == "zero"
        json.dumps(entry)


def test_verify_all_skips_with_reason():
    report = verify_all(GENERIC, IDENTITY_SETS["jacobi-special"])
    assert any(r.status == "skipped" for r in report.results)
    reasons = [r.reason for r in report.results]
    assert any("l0=0" in (reason or "") for reason in reasons)


def test_verify_identity_nonzero_status(generic_fns):
    res = verify_identity("W1", generic_fns)
    assert res.status == "zero" and res.millis >= 0
    # INT-W2 on a sextic curve is skipped by constraints
    res = verify_identity("INT-W2", generic_fns)
    assert res.status == "skipped"


def test_residual_accessor_rejects_multicomponent(generic_fns):
    assert len(residuals("INT-R", generic_fns)) == 2


# the catalog in its order with its canonical loci; the skip reasons of every
# report are printed from these
CATALOG = {
    **{f"W{i}": ("l5!=0",) for i in range(1, 8)},
    "INT-R": (),
    "INT-W": ("l5!=0",),
    "INT-W2": ("l5!=0", "l6=0"),
    **{f"WS{i}": ("l5!=0", "l6=0") for i in range(1, 4)},
    **{f"WS{i}": ("l0=0", "l5!=0", "l6=0") for i in range(4, 6)},
    **{f"J{i}": ("l1!=0",) for i in range(1, 8)},
    "INT-J": ("l1!=0",),
    "INT-J2": ("l0=0", "l1!=0"),
    **{f"JS{i}": ("l0=0", "l1!=0", "l6=0") for i in range(1, 3)},
    **{f"JS{i}": ("l0=0", "l1!=0") for i in range(3, 6)},
    "KUM1": ("l5!=0", "l6=0"),
    "KUM2": ("l5!=0",),
}


def test_identity_ids_carry_constraints():
    ids = identity_ids()
    assert list(ids) == IDENTITY_SETS["all"] == list(CATALOG)
    assert {tag: tuple(map(str, i.constraints)) for tag, i in ids.items()} == CATALOG
    assert ids["W1"].required_constraints == frozenset({"l5!=0"})
    assert ids["JS1"].required_constraints == frozenset({"l0=0", "l6=0", "l1!=0"})
    assert not ids["W1"].violated(GENERIC)
    assert ids["JS1"].violated(GENERIC) == ["l0=0", "l6=0"]


def test_constraint_text_round_trip():
    for text, canonical in (("l5!=0", "l5!=0"), (" l3 = -2/4 ", "l3=-1/2"), ("l0=0", "l0=0"), ("l1=4", "l1=4")):
        c = Constraint.parse(text)
        assert str(c) == canonical and Constraint.parse(str(c)) == c
    assert Constraint.parse("l6=0").holds(QUINTIC) and not Constraint.parse("l6=0").holds(GENERIC)
    assert Constraint.parse("l5=4").holds(SPECIAL) and not Constraint.parse("l5!=0").holds(CurveParams((1,) * 5 + (0, 1)))
    for bad in ("l7=0", "l5!=3", "l5=1/0", "x5=0", "l5", "l5==4", "l5=four"):
        with pytest.raises(ValueError):
            Constraint.parse(bad)


def test_merge_constraints_folds_and_rejects_contradictions():
    merged = merge_constraints(["l5!=0", "l6=0", "l5=4", "l0=0", "l5!=0"])
    assert [str(c) for c in merged] == ["l0=0", "l5=4", "l6=0"]
    assert merge_constraints(["l5=4", "l5!=0"]) == merge_constraints(["l5!=0", "l5=4"])
    for bad in (["l5=0", "l5!=0"], ["l5!=0", "l5=0"], ["l5=4", "l5=3"], ["l1=4", "l5!=0", "l1=1/4"]):
        with pytest.raises(ValueError, match="contradictory"):
            merge_constraints(bad)


# -- sweeps ----------------------------------------------------------------------


def test_sweep_reproducible_curves():
    cfg = SweepConfig(count=5, seed=123, constraints=frozenset({"l6=0"}))
    a = sample_curves(cfg)
    b = sample_curves(cfg)
    assert [c.lambdas for c in a] == [c.lambdas for c in b]
    assert all(c.lambdas[6] == 0 for c in a)


def test_sweep_runs_and_summarizes():
    cfg = SweepConfig(count=3, seed=7, constraints=frozenset({"l5!=0"}))
    reports = run_sweep(cfg, IDENTITY_SETS["weierstrass"])
    summary = summarize(reports)
    assert summary.n_curves == 3 and summary.n_zero == 21 and summary.n_nonzero == 0


def test_sweep_parallel_matches_serial():
    cfg = SweepConfig(count=4, seed=11, constraints=frozenset({"l5!=0", "l1!=0"}))
    serial = run_sweep(cfg, ["W1", "J1"], jobs=1)
    parallel = run_sweep(cfg, ["W1", "J1"], jobs=2)
    flat = lambda reps: [
        (str(r.curve), e.tag, e.status) for r in reps for e in r.results
    ]
    assert flat(serial) == flat(parallel)


def test_js3_to_js5_need_only_l0_zero():
    # their partners WS3-WS1 need l6=0 but not l0=0, so the duals need l0=0 only
    cfg = SweepConfig(count=8, seed=5, constraints=("l0=0", "l1!=0", "l6!=0"))
    for params in sample_curves(cfg):
        fns = G2Functions(params)
        for tag in ("JS3", "JS4", "JS5"):
            assert all(comp.is_zero() for comp in residuals_unchecked(tag, fns)), (tag, params)
        for tag in ("JS1", "JS2"):
            assert not all(comp.is_zero() for comp in residuals_unchecked(tag, fns)), (tag, params)


def test_sweep_samples_each_identity_on_its_locus():
    cfg = SweepConfig(count=2, seed=8, constraints=("l2=1",))
    groups, excluded = locus_groups(cfg, ["W1", "JS3", "KUM2", "INT-J2", "INT-R"])
    assert excluded == []
    assert [(list(map(str, g.constraints)), tags) for g, tags in groups] == [
        (["l2=1", "l5!=0"], ["W1", "KUM2"]),
        (["l0=0", "l1!=0", "l2=1"], ["JS3", "INT-J2"]),
        (["l2=1"], ["INT-R"]),
    ]
    # every group draws from a string seed of (seed, locus text)
    rng = random.Random("8|l0=0,l1!=0,l2=1")
    assert sample_curves(groups[1][0]) == [sample_curve(rng, groups[1][0]) for _ in range(2)]
    reports = run_sweep(cfg, ["W1", "JS3", "KUM2", "INT-J2", "INT-R"])
    assert [r.curve for r in reports] == [c for g, _ in groups for c in sample_curves(g)]
    tags = [[e.tag for e in r.results] for r in reports]
    assert tags == [["W1", "KUM2"]] * 2 + [["JS3", "INT-J2"]] * 2 + [["INT-R"]] * 2
    summary = summarize(reports)
    assert summary.n_zero == 10 and summary.n_skipped == 0 and summary.n_nonzero == 0


def test_sweep_excludes_identities_whose_locus_contradicts_the_constraints():
    cfg = SweepConfig(count=2, seed=8, constraints=("l0=1",))
    groups, excluded = locus_groups(cfg, ["W1", "JS3", "WS4"])
    assert [tags for _, tags in groups] == [["W1"]]
    reason = "contradictory constraints l0=0 and l0=1"
    assert excluded == [("JS3", reason), ("WS4", reason)]
    reports = run_sweep(cfg, ["W1", "JS3", "WS4"])
    assert [[e.tag for e in r.results] for r in reports] == [["W1"], ["W1"]]
    assert summarize(reports, excluded).n_skipped == 2


def test_sweep_config_rejects_bad_directives():
    for bad in ({"l9=0"}, {"l5=0", "l5!=0"}, {"l5=4", "l5=3"}, {"l5=1/0"}, {f"l{i}=0" for i in range(7)}):
        with pytest.raises(ValueError):
            SweepConfig(count=1, seed=0, constraints=frozenset(bad))

"""Seeded random-curve sweeps: Schwartz-Zippel style quantification over lambda.

Identities are polynomial relations once the curve coefficients are fixed, so
sweeping many random small-height rational coefficient vectors and reducing
each identity exactly gives the same confidence as symbolic arithmetic in the
lambdas at a fraction of the cost.  A sweep is reproducible: the same seed
yields byte-identical curve sequences and reports.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .curvering import CurveParams, Rat
from .identities import IDENTITY_SETS, VerifyReport, merge_constraints, verify_all


@dataclass(frozen=True)
class SweepConfig:
    """How many curves to draw, from which seeded distribution.

    `constraints` takes Constraint values or their text ('l0=0', 'l5!=0',
    'l5=4'); they are merged once, here, into one directive per coefficient.
    """

    count: int = 20
    seed: int = 42
    constraints: tuple = ()
    num_bound: int = 100
    den_bound: int = 10

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        merged = merge_constraints(self.constraints)
        if len(merged) == 7 and all(c.kind == "=" and c.value == 0 for c in merged):
            raise ValueError("constraints force every coefficient to zero, so f(x) would vanish")
        object.__setattr__(self, "constraints", merged)


def _draw(rng: random.Random, config: SweepConfig) -> Rat:
    return Rat(rng.randint(-config.num_bound, config.num_bound), rng.randint(1, config.den_bound))


def sample_curve(rng: random.Random, config: SweepConfig) -> CurveParams:
    """One random curve honoring the configured coefficient directives."""
    directives = {c.index: c for c in config.constraints}
    while True:
        lams = []
        for j in range(7):
            c = directives.get(j)
            if c is not None and c.kind == "=":
                lams.append(c.value)
                continue
            v = _draw(rng, config)
            while c is not None and v == 0:  # the directive is l<j>!=0
                v = _draw(rng, config)
            lams.append(v)
        if any(v != 0 for v in lams):
            return CurveParams(tuple(lams))


def sample_curves(config: SweepConfig) -> list[CurveParams]:
    rng = random.Random(config.seed)
    return [sample_curve(rng, config) for _ in range(config.count)]


def _sweep_worker(args) -> VerifyReport:
    lam_strings, tags, witness_seed = args
    params = CurveParams(tuple(lam_strings))
    return verify_all(params, tags, witness_seed=witness_seed)


def run_sweep(config: SweepConfig, tags=None, jobs: int = 1, witness_seed: int = 0) -> list[VerifyReport]:
    """Verify the identity set on every sampled curve; order is by curve index."""
    if tags is None:
        tags = IDENTITY_SETS["all"]
    curves = sample_curves(config)
    work = [(c.as_strings(), list(tags), witness_seed) for c in curves]
    if jobs <= 1 or len(curves) <= 1:
        return [_sweep_worker(w) for w in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_worker, work))


@dataclass
class SweepSummary:
    n_curves: int = 0
    n_zero: int = 0
    n_nonzero: int = 0
    n_skipped: int = 0
    failing_curves: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.n_nonzero == 0


def summarize(reports) -> SweepSummary:
    summary = SweepSummary(n_curves=len(reports))
    for rep in reports:
        for r in rep.results:
            if r.status == "zero":
                summary.n_zero += 1
            elif r.status in ("nonzero", "unresolved"):
                # an unresolved residual is exactly nonzero; only its witness is missing
                summary.n_nonzero += 1
            else:
                summary.n_skipped += 1
        if rep.has_nonzero:
            summary.failing_curves.append(str(rep.curve))
    return summary

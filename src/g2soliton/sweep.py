"""Seeded random-curve sweeps: Schwartz-Zippel style quantification over lambda.

Identities are polynomial relations once the curve coefficients are fixed, so
sweeping many random small-height rational coefficient vectors and reducing
each identity exactly gives the same confidence as symbolic arithmetic in the
lambdas at a fraction of the cost.  Each identity is sampled on its own locus,
its catalog constraints merged with the sweep's, so every identity is checked.
A sweep is reproducible: the same seed yields byte-identical curve sequences
and reports.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

from .curvering import CurveParams, Rat
from .identities import FAILING_STATUSES, IDENTITY_SETS, VerifyReport, identity_ids, merge_constraints, verify_all

# coefficients are drawn as p/q with |p| <= NUM_BOUND and 1 <= q <= DEN_BOUND
NUM_BOUND = 100
DEN_BOUND = 10


@dataclass(frozen=True)
class SweepConfig:
    """How many curves to draw, from which seeded distribution.

    `constraints` takes Constraint values or their text ('l0=0', 'l5!=0',
    'l5=4'); they are merged once, here, into one directive per coefficient.
    """

    count: int = 20
    seed: int = 42
    constraints: tuple = ()

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        merged = merge_constraints(self.constraints)
        if len(merged) == 7 and all(c.kind == "=" and c.value == 0 for c in merged):
            raise ValueError("constraints force every coefficient to zero, so f(x) would vanish")
        object.__setattr__(self, "constraints", merged)


def _draw(rng: random.Random) -> Rat:
    return Rat(rng.randint(-NUM_BOUND, NUM_BOUND), rng.randint(1, DEN_BOUND))


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
            v = _draw(rng)
            while c is not None and v == 0:  # the directive is l<j>!=0
                v = _draw(rng)
            lams.append(v)
        if any(v != 0 for v in lams):
            return CurveParams(tuple(lams))


def sample_curves(config: SweepConfig) -> list[CurveParams]:
    # a string seed goes through SHA-512, so the draws ignore PYTHONHASHSEED
    rng = random.Random(f"{config.seed}|{','.join(map(str, config.constraints))}")
    return [sample_curve(rng, config) for _ in range(config.count)]


def locus_groups(config: SweepConfig, tags) -> tuple[list, list]:
    """The tags grouped by locus, and the tags the sweep's constraints exclude.

    A tag's locus is its catalog constraints merged with the sweep's; tags
    with equal loci share one group config (and so one set of curves).
    Returns ([(group config, tags)], [(tag, reason)]), both in tag order.
    """
    catalog = identity_ids()
    groups: dict = {}
    excluded = []
    for tag in tags:
        try:
            group = replace(config, constraints=catalog[tag].constraints + config.constraints)
        except ValueError as exc:  # the locus contradicts the sweep's constraints
            excluded.append((tag, str(exc)))
            continue
        groups.setdefault(group, []).append(tag)
    return list(groups.items()), excluded


def run_sweep(config: SweepConfig, tags=None, jobs: int = 1) -> list[VerifyReport]:
    """Verify each locus group of the tags on its own sampled curves.

    Reports are ordered by group, then by curve index; excluded tags are
    left out (see `locus_groups`).  At most `jobs` worker processes start,
    and no more than there are work items or cores.
    """
    if tags is None:
        tags = IDENTITY_SETS["all"]
    groups, _ = locus_groups(config, tags)
    work = [(c, group_tags) for group, group_tags in groups for c in sample_curves(group)]
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers <= 1:
        return [verify_all(curve, group_tags) for curve, group_tags in work]
    from concurrent.futures import ProcessPoolExecutor  # most of this module's import time, so only for a pool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(verify_all, *zip(*work)))


@dataclass
class SweepSummary:
    n_curves: int = 0
    n_zero: int = 0
    n_nonzero: int = 0
    n_skipped: int = 0
    failing_curves: list = field(default_factory=list)


def summarize(reports, excluded=()) -> SweepSummary:
    """Status counts of the reports: a status in `FAILING_STATUSES` counts as
    nonzero, and `excluded` tags count as skipped."""
    summary = SweepSummary(n_curves=len(reports), n_skipped=len(excluded))
    for rep in reports:
        statuses = [r.status for r in rep.results]
        zero = statuses.count("zero")
        failing = sum(status in FAILING_STATUSES for status in statuses)
        summary.n_zero += zero
        summary.n_nonzero += failing
        summary.n_skipped += len(statuses) - zero - failing
        if failing:
            summary.failing_curves.append(str(rep.curve))
    return summary

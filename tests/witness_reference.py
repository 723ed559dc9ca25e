"""The per-term witness search, the tests' reference for `identities.find_witness`.

`find_witness` reads each residual component as it stands and decides and
values it in integers on the probe grid.  This module is the same search the
long way: each component is brought to normal form, its denominator taken
from `Fld.den_mp` and its numerator summed term by term, each coefficient
formed as c * scale, in PROBE_DIGITS-digit mpmath at the same probe points.
The rule, |numerator| > 10^-(PROBE_DIGITS // 2) * (sum of |terms| + 1), and
the outputs, the point as floats and |component| to 6 digits, are the same.
"""

import mpmath as mp

from g2soliton.curvering import PROBE_DIGITS, PoleAtPoint, rat_to_mp
from g2soliton.identities import WITNESS_TRIES


def per_term(p, x1, x2, y1, y2) -> tuple:
    """(value, sum of term moduli) of the Poly p at one point, term by term."""
    value, magnitude = mp.mpc(0), mp.mpf(0)
    for (e1, e2, a1, a2), c in p.terms.items():
        term = rat_to_mp(c * p.scale) * x1**e1 * x2**e2 * y1**a1 * y2**a2
        value += term
        magnitude += abs(term)
    return value, magnitude


def find_witness(comps, fns):
    """`identities.find_witness` by normal forms and per-term mpmath sums."""
    with mp.workdps(PROBE_DIGITS):
        threshold = mp.mpf(10) ** (-(PROBE_DIGITS // 2))
        for i in range(WITNESS_TRIES):
            point = fns.probe_point(i)
            for comp in comps:
                if comp.is_zero():
                    continue
                try:
                    den_value = comp.den_mp(point[0], point[1])
                except PoleAtPoint:
                    continue
                value, magnitude = per_term(comp.num, *point)
                if abs(value) / (magnitude + 1) > threshold:
                    reported = [float(point[0]), float(point[1]), complex(point[2]), complex(point[3])]
                    return reported, mp.nstr(abs(value / den_value), 6)
    return None, None

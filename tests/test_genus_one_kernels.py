"""The memoised ladder and the loop kernels against their long forms, bit for bit."""

import math
import random

import pytest

from g2soliton import elliptic
from g2soliton.elliptic import quarter_period, sncndn
from g2soliton.jets import Jet, sn_jet_triple, trig_jet
from g2soliton.transforms import sn_profile_jet

import genus_one_reference as ref

REAL_MODULI = (complex(0.7, 0.0), complex(0.7, -0.0), complex(1e-9, 0.0), complex(1e-9, -0.0), 0.99, 1 - 1e-12,
               -(1 - 1e-12), 1e-4, -0.3, 0, 1, -1, math.sqrt(2), 1.5)
COMPLEX_MODULI = (0.6 + 0.3j, 0.999 + 0.001j, 3 - 0.5j, complex(-0.0, 0.5))


def _points(k, rng):
    """Points where the imaginary reduction does not apply: for a real modulus
    |Im z| <= 1 stays below K' (>= pi/2 for |k| <= 1, and |k| Im z stays below
    K' of 1/k for the two moduli above 1); for a complex modulus |kz| <= 5.7
    is never reduced."""
    if complex(k).imag == 0:
        zs = [complex(rng.uniform(-60, 60), rng.uniform(-1, 1)) for _ in range(60)]
        zs += [complex(rng.uniform(-20, 20), rng.choice((0.0, -0.0))) for _ in range(20)]
    else:
        radius = 5.7 / max(1.0, abs(k))
        zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * radius / math.sqrt(2) for _ in range(80)]
    return zs + [0j, complex(-0.0, 0.3), complex(0.5, -0.0)]


@pytest.mark.parametrize("k", REAL_MODULI + COMPLEX_MODULI, ids=repr)
def test_sncndn_and_quarter_period_match_reference(k):
    rng = random.Random(repr(k))
    assert repr(quarter_period(k)) == repr(ref.quarter_period(k))
    for z in _points(k, rng):
        assert repr(sncndn(z, k)) == repr(ref.sncndn(z, k)), (z, k)


MEMOS = (elliptic._landen_descent, elliptic._agm_quarter_period, elliptic._imaginary_quarter_period)


def test_signed_zero_moduli_are_kept_apart():
    # +-0 + 0.5i compare equal, but reduce 0.3 + 20i over their lattices with
    # different rounding, so a memo that mixed them up would show
    z = complex(0.3, 20)
    moduli = (complex(0.0, 0.5), complex(-0.0, 0.5))
    fresh = []
    for k in moduli:
        for memo in MEMOS:
            memo.cache_clear()
        fresh.append(repr(sncndn(z, k)))
    assert fresh[0] != fresh[1]
    for i in (0, 1, 0):
        assert repr(sncndn(z, moduli[i])) == fresh[i]


@pytest.mark.parametrize("k", [complex(0.7, -0.0), 0.99, 1 - 1e-12, math.sqrt(2), 0.6 + 0.3j, 3 - 0.5j])
def test_sn_jets_match_reference(k):
    rng = random.Random(repr(k))
    for z in _points(k, rng)[::4]:
        for order, scale in ((6, 1.0), (4, 0.8)):
            got = sn_jet_triple(z, k, order, scale=scale)
            assert repr(tuple(j.coef for j in got)) == repr(ref.sn_jet_triple(z, k, order, scale=scale))


def test_jet_products_match_reference():
    rng = random.Random(4)
    jets = [sn_profile_jet(x, order) for x in (0.7, 2.3, 1.1 + 0.2j, 0.9 - 0.3j) for order in (3, 6)]
    for _ in range(6):
        terms = [(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)), rng.uniform(0.3, 2), rng.uniform(0, 6))
                 for _ in range(3)]
        jets.append(trig_jet(rng.uniform(-2, 2), rng.randint(3, 8), terms))
    jets.append(Jet((complex(0.5, -0.0), complex(-0.0, 1.5), 0.25 + 0j)))
    for v in jets:
        assert repr((v * v).coef) == repr(ref.jet_product(v.coef, v.coef))
        assert repr((v * jets[1]).coef) == repr(ref.jet_product(v.coef, jets[1].coef))


def test_memo_stays_at_its_size():
    size = elliptic._MEMO_MODULI
    assert all(memo.cache_info().maxsize == size for memo in MEMOS)
    rng = random.Random(8)
    for _ in range(1000):
        k = complex(rng.uniform(0.01, 0.99), rng.uniform(-0.1, 0.1))
        quarter_period(k)
        sncndn(complex(rng.uniform(8, 9), 30), k)  # every memo: the ladder, 4K and 2iK'
    assert all(memo.cache_info().currsize == size for memo in MEMOS)
    nan = complex(math.nan, 0)
    for _ in range(1000):
        assert math.isnan(quarter_period(nan).real)
        with pytest.raises(elliptic.EllipticError):
            sncndn(0.3, nan)
    assert all(memo.cache_info().currsize <= size for memo in MEMOS)

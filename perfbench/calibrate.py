"""A fixed calibration loop that tracks how fast the host runs right now.

The host this benchmark was built on is a 2-core VM whose speed swings by up
to 1.8x between spells that last longer than a whole run, so plain wall
times from two runs of the same code disagree by far more than any useful
bound.  Each timed execution is therefore bracketed by a calibration loop
that does not touch the program, and the execution time is scaled by how
long the loop took then against its reference time:

    scaled = elapsed * REF_UNIT_S / (seconds per loop unit, before and after)

One unit mixes what the workloads spend their time on: pure-Python rational
arithmetic and numpy FFT round trips at n = 256 and n = 1024.  REF_UNIT_S is
the unit's time on the reference host when it is not slowed, so scaled
times read like unslowed wall times there.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# seconds per unit on the reference host (2-core VM, Python 3.11, numpy 2.4),
# the low end of its range
REF_UNIT_S = 2.6e-4

_SHORT = np.exp(1j * np.arange(256) * 0.37)
_LONG = np.exp(1j * np.arange(1024) * 0.11)


def _unit() -> None:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7)
    np.fft.ifft(np.fft.fft(_SHORT) * _SHORT)
    np.fft.ifft(np.fft.fft(_LONG) * _LONG)


def loop_seconds(units: int) -> float:
    """Wall time of `units` calibration units, divided by `units`."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / units


def scaled(elapsed: float, before: float, after: float) -> float:
    """An elapsed time scaled by the loop's unit times measured around it."""
    return elapsed * REF_UNIT_S * 2 / (before + after)

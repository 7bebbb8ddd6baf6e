"""Reference-speed clock: wall time corrected for the machine's current speed.

The shared machine the benchmark was tuned on switches between a fast and a
slow state, about 1.7x apart, for seconds to minutes at a time, with load
from outside the process. Raw wall times then measure that load as much as
the program: the same 30 s run gave a median step time anywhere from 430 to
710 us.

A fixed calibration loop runs between units of measured work. It is Python
arithmetic plus the small numpy calls (`cross`, 3x3 `matmul`, 3x3 `svd`)
that dominate a legodom step, and it never changes with the program. A wall
time t measured between calibrations that took c1 and c2 seconds is
reported as t * CAL_REF_S / ((c1 + c2) / 2): the time it would have taken
on a machine where the loop takes CAL_REF_S, which is about this machine's
fast state. In a 240 s recording this cut the spread of 30 s medians from
22 % to 2 %. The raw times are kept and printed too.
"""

import time

import numpy as np

# calibration-loop seconds at the reference speed
CAL_REF_S = 0.003
# recalibrate at most this often inside a step loop
CAL_EVERY_S = 0.2

_RNG = np.random.default_rng(20260217)
_VEC = _RNG.normal(size=(64, 3))
_MAT = _RNG.normal(size=(64, 3, 3))


def calibration_loop():
    acc = 0.0
    for i in range(6000):
        acc += (i * 0.5) % 7.0
    for i in range(64):
        a = np.cross(_VEC[i], _VEC[i - 1])
        b = _MAT[i] @ _VEC[i]
        s = np.linalg.svd(_MAT[i])[1]
        acc += float(a[0] + b[1] + s[2])
    return acc


class RefClock:
    """Timed calibration loops; `scale` turns wall seconds into seconds at
    the reference speed."""

    def __init__(self):
        self.cals = []
        self.last = None
        self.last_at = float("-inf")

    def calibrate(self):
        """Best of two calibration loops, in seconds."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            calibration_loop()
            best = min(best, time.perf_counter() - t0)
        self.cals.append(best)
        self.last = best
        self.last_at = time.perf_counter()
        return best

    def due(self):
        return time.perf_counter() - self.last_at >= CAL_EVERY_S

    def timed(self, fn, *args, **kwargs):
        """Run fn between two calibrations: (result, wall s, reference s)."""
        before = self.calibrate() if self.due() else self.last
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = self.calibrate()
        return out, wall, wall * self.scale(before, after)

    @staticmethod
    def scale(before, after):
        return CAL_REF_S / (0.5 * (before + after))

    def median(self):
        return float(np.median(self.cals)) if self.cals else float("nan")

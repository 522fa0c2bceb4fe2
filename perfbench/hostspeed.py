"""Host-speed probe: a fixed piece of work timed between jobs.

The benchmark runs on a few cores of a shared host.  Even in CPU time, the
program runs up to about 1.5 times slower while another tenant loads the
same physical core, in phases that last seconds to minutes.  Every timed
pass therefore interleaves this probe with its jobs, spread evenly over
the pass, and divides its CPU times by a power of the probe's slowdown
against REFERENCE_S.  The probe is the benchmark's own code, so a change
to the program cannot move it.  It does the kind of work the program does
(an interpreted loop over small numpy vector operations, tuple keys and
integer arithmetic), so it slows with the host as the program does, if
more steeply.
"""

from __future__ import annotations

import math
import statistics
from time import process_time

import numpy as np

# Probe CPU time on an uncontended core of the reference host (2-core Xeon
# VM, Python 3.11, numpy with one OpenBLAS thread).  It only fixes the
# scale of the reported times, and must never change.
REFERENCE_S = 1.5e-3
PROBE_STEPS = 400
# How steeply the program's CPU time follows the probe's, as an exponent
# of the slowdown.  Measured on the reference host: over 10-s windows of
# one process, the regression slope of log job CPU time on log probe CPU
# time was 0.67-0.72 (all-suites, gf-series).  Over eight sets of ten runs
# (two per workload), exponents 0, 0.5, 0.7 and 1 left worst spreads
# (IQR/median of a time metric other than setup_s) of 0.151, 0.101, 0.079
# and 0.088.
SENSITIVITY = 0.7

_COLUMNS = np.exp(1j * np.arange(64.0).reshape(8, 8))


def probe() -> float:
    """Run the probe once; returns its CPU time in seconds."""
    c0 = process_time()
    row = np.zeros(8, dtype=np.complex128)
    total = 0j
    seen = {}
    for k in range(1, PROBE_STEPS):
        row += _COLUMNS[(k & -k).bit_length() & 7]
        total += row.prod()
        seen[k & 31, k % 7] = math.comb(k & 15, k & 3)
    return process_time() - c0


def slowdown(samples) -> float:
    """How much slower the host ran than the reference: the mean probe CPU
    time over REFERENCE_S."""
    return statistics.fmean(samples) / REFERENCE_S


def scale(samples) -> float:
    """The factor a run's CPU times are divided by: slowdown**SENSITIVITY."""
    return slowdown(samples) ** SENSITIVITY

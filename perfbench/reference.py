"""A fixed reference loop that measures how fast the host runs right now.

On a shared machine the speed of one core drifts: on a 2-core x86 VM the
same learner call took from 2.4 s to 3.3 s within one minute, in slow
periods that last tens of seconds, so a whole run can fall inside one.
The benchmark therefore times this loop right before and right after every
timed operation and reports the operation in reference seconds:

    wall time * REFERENCE_S / (mean of the two loop times)

A slow period stretches the loop and the operation alike and cancels out,
while a change to gieskit moves only the operation. The loop imports
nothing from gieskit, so no change to the library can move it. It mixes
the two kinds of work the learners do: interpreter-bound bookkeeping
(tuple construction, sorting, dict updates) and small least-squares fits.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Time of one loop on a quiet 2-core x86 VM (Python 3.11, OpenBLAS, one
#: thread). A fixed scale only: it sets the unit, not the comparison.
REFERENCE_S = 0.1

ITERATIONS = 300

_rng = np.random.default_rng(0)
# a small and a tall design, around the row counts of the workloads' fits
# (n = 1000 and n = 5000)
_FITS = [
    (_rng.standard_normal((rows, 4)), _rng.standard_normal(rows)) for rows in (2000, 10000)
]


def loop() -> float:
    """One pass of the fixed reference work; returns a checksum."""
    total = 0.0
    counts: dict = {}
    for i in range(ITERATIONS):
        X, y = _FITS[i % 2]
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        total += float(beta[i % 4])
        items = [((j * 7919 + i) % 1013, j, (j & 3,)) for j in range(250)]
        items.sort()
        for key, j, tag in items:
            counts[key, tag] = counts.get((key, tag), 0) + j
    return total + len(counts)


def time_loop() -> float:
    """Wall time of one reference loop, in seconds."""
    t0 = perf_counter()
    loop()
    return perf_counter() - t0

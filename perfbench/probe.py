"""Host-speed probe: the unit the benchmark's times are reported in.

On a shared host the same code runs up to 1.6x slower for seconds at a time,
because other tenants load the same cores, and that drift swamps any change
in the program.  So each op is bracketed by a fixed probe kernel that touches
no sclab code, and the op's time is rescaled by REFERENCE_PROBE_S / (mean of
the two probe times): seconds on a host that runs the probe in
REFERENCE_PROBE_S.  A change in the program moves the rescaled time exactly as
it moves the raw one; a change in host speed mostly cancels.
"""

import time

import numpy as np

# the probe's time on an idle 2-core Intel Xeon VM (Python 3.11, numpy 2.4)
REFERENCE_PROBE_S = 0.0075

_ARRAY = np.arange(1 << 15, dtype=np.uint64)


def probe_seconds():
    """Time one run of a fixed mix of interpreted and numpy work."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(10):
        (_ARRAY * _ARRAY) ^ (_ARRAY >> np.uint64(3))
    return time.perf_counter() - start


def reference_seconds(raw_seconds, probe_before, probe_after):
    """Raw seconds rescaled to the reference host speed."""
    return raw_seconds * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)

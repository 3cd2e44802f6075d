"""Host speed probe: a fixed pure-Python loop timed between operations.

On a shared host the same pass can run 1.5 times slower for a minute at a
time. The benchmark runs ``probe()`` after every sampler call and bench cell,
outside every timed section, and scales its times by
``REFERENCE_S / mean probe time``: a time in reference seconds is what the
work would have taken had the host run the loop in ``REFERENCE_S``. The
loop uses neither numpy nor the library, so no change to the program under
test can change its speed. The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import time

# Time of reference_loop() on the 2-vCPU host the bounds were set on; it
# fixes only the scale of reference seconds.
REFERENCE_S = 0.027
clock = time.perf_counter


def reference_loop() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


class Probe:
    """Collects the times of reference_loop() runs."""

    def __init__(self):
        self.samples = []

    def __call__(self) -> float:
        """Run the loop once and return its time."""
        start = clock()
        reference_loop()
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed


def scale(samples) -> float:
    """Factor from raw seconds to reference seconds, given probe times."""
    return REFERENCE_S * len(samples) / math.fsum(samples)

"""CPU time scaled to a fixed processor speed.

The benchmark was built on a shared 2-core virtual machine whose processor
runs up to twice as slow while its neighbours are busy, in spells of tens of
milliseconds to minutes; CPU time slows with it, so raw times of the same
code spread by more than a benchmark bound. A fixed reference loop, which
does not touch crowdreg, runs between the timed items. Each item's CPU time
is scaled by ``REFERENCE_S`` over the mean of the loop's times just before
and just after it, so a slow spell slows item and loop alike and cancels.
On that machine the scaled times of interleaved pure-Python work spread
about a quarter as much as the raw ones.
"""

from __future__ import annotations

import hashlib
from time import process_time

REFERENCE_STEPS = 600
# The reference loop's CPU time on the machine above when its neighbours
# are quiet, so scaled times read as milliseconds on that machine at rest.
REFERENCE_S = 0.00055
# A reading older than this (CPU seconds) is taken again before an item.
STALE_S = 0.002


def reference_s() -> float:
    """CPU seconds of one run of the fixed reference loop."""
    t0 = process_time()
    table = {}
    h = b"reference"
    for i in range(REFERENCE_STEPS):
        h = hashlib.sha256(h).digest()
        table[h[:3]] = (i, h)
    sorted(table.items())
    return process_time() - t0


class SpeedClock:
    """Times items back to back, each against the loop run next to it.

    ``start()`` returns the CPU clock; ``scale()``, called when the item
    ends, runs the loop and returns the factor from the item's CPU seconds
    to reference seconds. The reading after one item serves as the reading
    before the next when nothing ran in between.
    """

    def __init__(self):
        self._last = reference_s()
        self._at = process_time()
        self._before = self._last

    def start(self) -> float:
        now = process_time()
        if now - self._at > STALE_S:
            self._last = reference_s()
            now = self._at = process_time()
        self._before = self._last
        return now

    def scale(self) -> float:
        after = reference_s()
        self._last, self._at = after, process_time()
        return 2 * REFERENCE_S / (self._before + after)

    def time(self, t0: float) -> float:
        """Scaled seconds of the item started at ``t0``."""
        elapsed = process_time() - t0
        return elapsed * self.scale()

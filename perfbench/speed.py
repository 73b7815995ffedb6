"""Speed of the machine, measured alongside the workload.

On a shared virtual machine the same code runs up to twice as slow
for minutes at a time, as other guests load the host's cores; this moves
every timing of a run together, and a median over one run cannot remove
it.  So that runs made at different times compare, the runner measures
the machine's speed during each batch and reports times at a fixed
reference speed.

After each item, outside the item's timing, the runner spends a tenth of
that item's time on passes of a fixed Python bytecode loop.  One untimed
pass first refills the caches the item evicted, so the timed passes see
the machine rather than the item's memory footprint.  The batch's speed
factor is the loop's mean time over NOMINAL_S: above 1 the machine ran
slower than nominal, and the runner divides the batch's measured times by
it.  The loop never calls spinlab, so a change to the program moves the
measured times and leaves the factor alone.  The loop follows the
interpreter-bound work that dominates most items; a slowdown of memory
alone (another guest thrashing the shared cache) moves the workloads more
than the loop and is only partly removed.
"""

from __future__ import annotations

import time

DUTY = 0.1  # reference time per second of item time
NOMINAL_S = 7.5e-5  # the loop's time on a quiet 2-vCPU Xeon (Sapphire Rapids) guest; sets the scale only


def _loop() -> None:
    total = 0
    for i in range(1000):
        total += i * i


class ReferenceSpeed:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._spent = 0.0
        self._passes = 0

    def run_after(self, item_seconds: float) -> None:
        """Run timed passes for DUTY times an item's time, at least one."""
        _loop()
        budget = self._spent + DUTY * item_seconds
        while True:
            start = time.perf_counter()
            _loop()
            self._spent += time.perf_counter() - start
            self._passes += 1
            if self._spent >= budget:
                return

    def factor(self) -> float:
        """Mean measured pass time since the last reset, over the nominal one."""
        return self._spent / self._passes / NOMINAL_S

"""Machine-speed reference for the end-to-end times.

On a shared machine the speed of one core drifts by up to ±20%, and by
more in some phases, which last several minutes: longer than a run, so more
solves per run do not average it out, but far longer than one measurement
(a solve takes 2–15 s, a set-up under 1 s).  A fixed pure-Python loop slows
with the core, and neucrit's solves are bound by interpreter overhead as
much as by numpy.  A `Sampler` therefore times the loop `SAMPLES` times
just before and just after a measurement, in the same phase.  Faster
changes during one solve are not followed.  `solve_s` and `setup_s` are
wall times rescaled to a core on which the loop takes `NOMINAL_S`:
`seconds * NOMINAL_S / median(loop samples)`.

The loop does not touch neucrit and does not run while neucrit does, so a
change to the program moves a rescaled time by the same factor as the raw
one.  Raw wall times are kept in every result file.
"""

import statistics
import time

LOOPS = 50_000
SAMPLES = 5
# the loop's time on the 2-vCPU Xeon where the benchmark was built, in a
# quiet phase; it only fixes the scale, so it never needs updating
NOMINAL_S = 0.0032


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i
    return time.perf_counter() - t0


class Sampler:
    """Loop timings taken on each side of one measurement."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.extend(_loop() for _ in range(SAMPLES))

    def reference(self) -> float:
        return statistics.median(self.samples)

    def scaled(self, seconds: float) -> float:
        """`seconds` on a core where the loop takes NOMINAL_S."""
        return seconds * NOMINAL_S / self.reference()

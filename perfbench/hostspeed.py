"""Host-speed reference: a fixed kernel timed between measured spans.

The shared VM this benchmark was written on changes speed in bands that
last from seconds to minutes, up to 1.8x apart, and no run length averages
that out.  So a fixed reference kernel that does not touch dunets is timed
before the first measured span and after every span (a step, a set-up
pass), and each span is scaled to the host speed ``NOMINAL_S`` stands for.
A change to dunets moves only the spans, never the reference, so the scaled
figures still move with the program.  The raw wall times go to the run file.

A dunets span slows less than the reference when the host slows: over six
32 s runs per workload, the run-to-run spread of the scaled figures was
smallest with the span scaled by (NOMINAL_S / reference) ** BETA for
BETA between 0.6 and 0.75 on every workload, while BETA = 1 over-corrected.
"""

import math
import time

import numpy as np

clock = time.perf_counter

# The kernel's time in the fast band of a 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4, OpenBLAS pinned to one thread); scaled figures read as if the
# host ran at that speed throughout.
NOMINAL_S = 10e-3
BETA = 0.75


class Reference:
    """The reference kernel: a conv1d/PReLU at dunets' shapes plus a Python loop.

    It mixes the two kinds of work a dunets step does: numpy calls on
    arrays of the protocol's shapes (pad, stack, einsum, where) and
    interpreter overhead.
    """

    def __init__(self):
        rng = np.random.default_rng(0x5eed)
        self.x = rng.normal(size=(16, 32, 53))
        self.w = rng.normal(size=(32, 32, 5))
        self.items = [(i, float(i)) for i in range(1000)]

    def _kernel(self):
        xp = np.pad(self.x, ((0, 0), (0, 0), (2, 2)))
        cols = np.stack([xp[..., i:i + 53] for i in range(5)], axis=-1)
        y = np.einsum("bcnk,ock->bon", cols, self.w)
        y = np.where(y > 0, y, 0.25 * y)
        acc = {}
        for i, v in self.items:
            acc[i % 7] = acc.get(i % 7, 0.0) + v * 0.5
        return y, acc

    def time(self):
        """One timing of the kernel, in seconds."""
        t0 = clock()
        self._kernel()
        return clock() - t0


def scaled(spans, refs):
    """Each span at the nominal host speed.

    ``refs`` has one more entry than ``spans``: the reference timings
    before the first span and after each span.
    """
    return [t * (NOMINAL_S / math.sqrt(a * b)) ** BETA
            for t, a, b in zip(spans, refs, refs[1:])]

"""Host-speed reference kernel, used to express op times at a nominal host speed.

On a shared host the same op on the same input can take twice as long in one
minute as in the next, while process CPU time grows just as much as wall
time: the slowdown comes from below the guest kernel, not from its
scheduler. This kernel does the kind of work the library does, an
arithmetic loop, object code and numpy calls on small arrays, and does not
depend on ``subtrace``, so a change to the library leaves the kernel's work
as it was.

A ``Meter`` times a set-up or an op in pieces, with one run of the kernel
before each piece and one after the last. The pieces are split at points
where the benchmark's own code runs between library calls. Each piece's time
is scaled by ``NOMINAL_S`` over the mean of the kernel times on its two
sides, and the piece times and scaled times are summed; the kernel runs are
in neither sum. On a 2-vCPU Xeon host, twenty-op medians of one attack-day op
on one input spread by 0.30 (interquartile distance over median) when raw and
by 0.05 when scaled. Speed also changes within a 2.5 s evaluate-subtrips op,
hence the pieces. A kernel that streams a large array tracked the slowdown
poorly and was left out.
"""

import gc
import json
import time

import numpy as np

# The kernel's time on a 2-vCPU Xeon host in its faster phases: the 10th
# percentile of 320 timings over two evaluate-subtrips runs. It is a fixed
# unit conversion, so that a scaled time reads as milliseconds on such a
# host. It is never re-measured.
NOMINAL_S = 0.0069

_rng = np.random.default_rng(20150521)
_V = _rng.random(2000)
_M = _rng.random((60, 60))


class _Point:
    def __init__(self, x):
        self.x = x

    def shifted(self, dx):
        return self.x + dx


def _kernel() -> float:
    """About equal parts of arithmetic loop, object code and small-array numpy."""
    s, d = 0.0, {}
    for i in range(20000):
        s += i * 0.5
        d[i & 255] = s
    points = [_Point(i) for i in range(3000)]
    for p in points:
        s += p.shifted(1)
    ranked = sorted(points, key=lambda p: -p.x)
    s += len(json.dumps([p.x for p in ranked]))
    for _ in range(20):
        x = np.diff(_V)
        np.sort(x)
        np.cumsum(x)
        s += float((_M @ _M).sum())
        np.percentile(x, [10, 50, 90])
    return s


def reference_s() -> float:
    """Wall time of one run of the kernel.

    The garbage collector is off during the run: a collection would scan the
    whole heap, and the kernel's time would then depend on how much the
    library keeps in memory.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times one set-up or op in pieces, with a kernel run between pieces."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.piece_s: list[float] = []
        self._t0 = None

    def mark(self) -> None:
        """End the current piece, if any, run the kernel, and start the next piece."""
        now = time.perf_counter()
        if self._t0 is not None:
            self.piece_s.append(now - self._t0)
        self.kernel_s.append(reference_s())
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.mark()
        self._t0 = None

    @property
    def raw_s(self) -> float:
        return sum(self.piece_s)

    @property
    def scaled_s(self) -> float:
        k = self.kernel_s
        return sum(p * NOMINAL_S / (0.5 * (k[i] + k[i + 1])) for i, p in enumerate(self.piece_s))


def no_mark() -> None:
    """Stands in for ``Meter.mark`` where kernel runs must not split the work."""

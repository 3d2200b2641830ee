"""Host-speed reference: time the program against a fixed kernel run beside it.

The virtual CPU this benchmark was built on runs whole seconds to minutes
30-50% slower at random, and its process CPU time slows with it, so neither
wall nor CPU time of the program alone repeats from run to run. A fixed
reference kernel timed in between the program's calls slows by the same
share (README.md, "Timings are normalised"). Every end-to-end time is
therefore reported as

    normalised seconds = measured seconds * NOMINAL_S / median(kernel seconds)

where the kernel seconds are the ticks taken just before, during and just
after the measured work: the time the work would take on a host where the
kernel takes NOMINAL_S. The kernel is this file's code on fixed data, so a
change to the program does not change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel seconds that a normalised time refers to: about the kernel's median
# on the reference host (README.md), so normalised times read close to wall
# times there.
NOMINAL_S = 0.0012


class Kernel:
    """The program's kinds of work in miniature, on fixed buffers: FFTs of
    one OFDM frame's size, a dense layer of the codec's width, and
    interpreted scalar code. It allocates no array, so the state of the
    process's allocator does not change its speed, and it does not change
    that state for the program."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.grid = rng.standard_normal((14, 2048)) + 1j * rng.standard_normal((14, 2048))
        self.time = np.empty_like(self.grid)
        self.freq = np.empty_like(self.grid)
        self.x = rng.standard_normal((32, 192))
        self.w = rng.standard_normal((192, 192)) / 14.0
        self.h = np.empty((32, 192))
        self.scalars = rng.standard_normal(2000).tolist()

    def __call__(self) -> float:
        np.fft.ifft(self.grid, axis=1, out=self.time)
        np.fft.fft(self.time, axis=1, out=self.freq)
        for _ in range(3):
            np.matmul(self.x, self.w, out=self.h)
            np.tanh(self.h, out=self.h)
        acc = 0.0
        for v in self.scalars:
            acc += v * v if v > 0.0 else -v
        return acc


class Calibrator:
    """Times the kernel between pieces of measured work.

    `measure(fn)` ticks before and after `fn`; `hook` ticks inside it when
    installed as a Tracer counter on functions the work calls often. A tick
    inside is taken only if `interval` seconds have passed since the last one,
    and its time is taken out of the measured time.
    """

    def __init__(self, interval: float = 0.02, clock=time.perf_counter, kernel=None):
        self.interval = interval
        self.clock = clock
        self.kernel = kernel or Kernel()
        self.ticks = []  # kernel seconds, in order
        self.spent = 0.0  # wall seconds spent in ticks
        self._last = None

    def tick(self) -> None:
        t0 = self.clock()
        self.kernel()
        t1 = self.clock()
        self.ticks.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def hook(self, *_ignored) -> None:
        if self._last is None or self.clock() - self._last >= self.interval:
            self.tick()

    def measure(self, fn, *args, **kwargs):
        """Run fn; returns (result, raw seconds, factor).

        Raw seconds exclude the ticks taken inside fn. The normalised time
        is raw seconds * factor, with factor = NOMINAL_S / the median of the
        ticks from the one just before fn to the one just after it.
        """
        self.tick()
        first = len(self.ticks) - 1
        spent = self.spent
        t0 = self.clock()
        result = fn(*args, **kwargs)
        raw = self.clock() - t0 - (self.spent - spent)
        self.tick()
        return result, raw, self.factor(first)

    def factor(self, first: int = 0) -> float:
        return NOMINAL_S / statistics.median(self.ticks[first:])

"""Machine-speed probe: scales measured times to a reference machine speed.

The shared machine the benchmark was written on changes speed by up to 2x,
over tens of seconds and sometimes within tens of milliseconds: the same
spin analyses took 0.92-1.93 s in one process, CPU time tracking wall time,
so the slowdown is in the processor, not in scheduling. A short fixed kernel
of small numpy calls and Python loops slows down with it: run next to a
0.35 s block of norm calls, its time correlated 0.87-0.92 with the block's,
and dividing by it cut the block's quartile spread from 0.31 to 0.10 of the
median; run on the other vCPU it correlated only 0.56. So the kernel runs in
the measured process itself, on a timer every INTERVAL_S (a signal handler,
between bytecodes), and a measured interval is

    (wall time - kernel time inside it) * REF_S / mean kernel time nearby

in seconds on the reference machine at full speed. The kernel uses no
metastab code: a change to the program moves the analysis times, not the
kernel.
"""
import signal
import statistics
import time

import numpy as np

# kernel time at full speed on the machine the benchmark was written on
# (2-vCPU Xeon VM, numpy 2.4 / OpenBLAS, one BLAS thread): the minimum over
# runs was 2.94-2.96 ms, the median 3.1-5.3 ms
REF_S = 0.003
INTERVAL_S = 0.1
WINDOW_S = 0.5     # kernel samples this close to an analysis scale it


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        A = rng.normal(size=(16, 3, 3)) + 1j * rng.normal(size=(16, 3, 3))
        self._A = (A + A.conj().transpose(0, 2, 1)) / 2
        self._M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        self._B = rng.normal(size=(48, 48))
        self.samples = []     # (start, seconds), in time order
        self._previous = None

    def kernel(self):
        t0 = time.perf_counter()
        x = self._A
        for _ in range(50):
            w, v = np.linalg.eigh(x)
            y = (v * np.where(w >= 0, 1.0, -1.0)[:, None, :]) \
                @ v.conj().transpose(0, 2, 1)
            z = (y.reshape(16, 9) @ self._M).reshape(16, 3, 3)
            x = (z + z.conj().transpose(0, 2, 1)) / (2 * np.abs(z).max()) \
                + self._A
        C = self._B
        for _ in range(3):
            C = np.tanh(C @ self._B / 48.0)
        s = 0.0
        for i in range(2500):
            s += (i % 7) * 0.5
        seconds = time.perf_counter() - t0
        self.samples.append((t0, seconds))
        return seconds

    def _on_alarm(self, signum, frame):
        self.kernel()

    def __enter__(self):
        """Sample on a timer until exit."""
        self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.kernel()
        return False

    def scale(self, t0, t1):
        """The interval [t0, t1] without the kernel runs inside it, in
        reference-machine seconds."""
        inside = sum(s for start, s in self.samples if t0 <= start < t1)
        near = [s for start, s in self.samples
                if t0 - WINDOW_S <= start <= t1 + WINDOW_S]
        return (t1 - t0 - inside) * REF_S / statistics.fmean(near)

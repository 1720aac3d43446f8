"""Host-speed probe: rescales measured host time to a fixed reference speed.

On a shared 2-vCPU virtual machine the effective CPU speed drifts by up to
2x over tens of seconds as other tenants load the host, with little steal
time to show for it.  Raw host seconds of one run then say more about the
neighbours than about perchsim.  So every measured run also times a small
fixed kernel (3-vector and 3x3 numpy operations, a dataclass and float
arithmetic, the mix of perchsim's tick) ten times a second from a SIGALRM
handler, in the same thread as the workload.  The kernel times say how fast
the host ran during the run, and `scale()` converts host seconds to seconds
at the reference speed, at which one kernel call takes REF_S.

REF_S is about the fastest kernel time seen on the 2-vCPU virtual machine
the benchmark was defined on (Python 3.11, numpy 2.4: 0.33 ms fastest, 0.38 ms
median over 15 quiet seconds, 0.53 ms in a busy minute), so reference
seconds read close to host seconds on an unloaded host.  Over 150 s of 2 s
hovers the quartile spread of host time was 0.149 of the median and 0.085
after rescaling by the median kernel time.

Probe time that falls inside the timed window (0.3-0.5% of it) is
subtracted from the window.
"""

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

REF_S = 0.00035         # kernel time at the reference speed
LOOPS = 25              # kernel iterations
INTERVAL_S = 0.1        # probe period inside the timed window
BURST = 5               # probes in one burst outside the window


@dataclass
class _State:
    p: np.ndarray
    v: np.ndarray


def kernel():
    """Small-array numpy, dataclass and float work, like one perchsim stage."""
    R = np.eye(3)
    v = np.array([0.1, 0.2, 0.3])
    st = _State(np.zeros(3), v)
    s = 0.0
    for _ in range(LOOPS):
        w = R @ v
        K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]],
                      [-w[1], w[0], 0.0]])
        R = R + 1e-12 * (K @ R)
        st = _State(st.p + 1e-3 * st.v, np.clip(st.v, -1.0, 1.0))
        x = np.concatenate([w * np.cos(v), w * np.sin(v)])
        s += float(np.linalg.norm(x)) + math.atan2(w[0], w[1])
    return s


class SpeedProbe:
    """Probes the host ten times a second while used as a context manager.

    Call `burst` before and after the timed window, so that even a short run
    has samples; burst probes are not in the window.
    """

    def __init__(self):
        self.durations = []       # every probe, in s
        self.window = []          # (start_ns, end_ns) of probes in the window
        self.window_cpu_s = 0.0

    def _sample(self, in_window):
        c0 = time.process_time()
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        self.durations.append((t1 - t0) / 1e9)
        if in_window:
            self.window.append((t0, t1))
            self.window_cpu_s += time.process_time() - c0

    def burst(self):
        for _ in range(BURST):
            self._sample(False)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM,
                                  lambda *_: self._sample(True))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def window_s(self):
        return sum(t1 - t0 for t0, t1 in self.window) / 1e9

    def scale(self):
        """Reference seconds per host second, averaged over the run.

        The mean of REF_S / kernel time, not REF_S / its median: the host
        speed can switch between fast and slow phases within one run, and
        the run's work is the time integral of the speed.
        """
        return statistics.fmean(REF_S / d for d in self.durations)

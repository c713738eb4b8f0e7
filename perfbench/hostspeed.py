"""Host speed meter: states run times at a fixed reference speed of the host.

On a shared host the speed of one core changes by up to 1.8x within seconds,
as neighbours come and go. A program's run time then says as much about the
host as about the program. The meter measures the host while the program
runs: every PERIOD_S a SIGALRM handler runs one small fixed probe, taking
turns over six kinds of work (interpreter arithmetic, random dict lookups,
pointer chasing over list objects, a memory-bound NumPy sum, small NumPy
matmuls, and scalar work like labelforge's own: xorshift on Python ints,
float repr and parse, stores into a NumPy array), and records how long it
took. No one kind slows in step with every workload on a shared host; their
mix follows each of them more closely than any one does.

For an interval of program time the host factor is the geometric mean, over
the six kinds, of REFERENCE_S[kind] / (harmonic mean of that kind's probe
times in the interval). The interval's normalised seconds are its wall time,
less the probes run inside it, times that factor: the time the same work
would have taken with every probe at its reference time. Probe work is fixed
benchmark code, so a faster or slower program reads faster or slower at any
host speed, while the host's swings largely cancel out.

The handler runs between Python bytecodes of the measured program; system
calls it interrupts are retried (PEP 475). The probes' own data is about
20 MB, which the process's peak RSS includes.
"""

from __future__ import annotations

import math
import random
import signal
import time

import numpy as np

PERIOD_S = 0.025

# Probe times (s) that define the reference speed: roughly the medians seen
# on a 2-vCPU shared Xeon VM (Python 3.11, NumPy 2.4, OpenBLAS on 1 thread).
REFERENCE_S = {
    "arith": 0.00042,
    "dict": 0.00035,
    "objects": 0.00047,
    "npsum": 0.00065,
    "matmul": 0.00048,
    "scalar": 0.00055,
}
_MASK64 = (1 << 64) - 1


class HostMeter:
    """Samples the host's speed on a timer; converts intervals to normalised seconds."""

    def __init__(self):
        rnd = random.Random(20240917)
        self._table = {k * 7919: k for k in range(100_000)}
        self._keys = list(self._table)
        rnd.shuffle(self._keys)
        self._objects = [[k] for k in range(100_000)]
        rnd.shuffle(self._objects)
        self._array = np.arange(1 << 19, dtype=np.float64)
        self._square = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
        self._row = np.empty(200)
        self._state = 88172645463325252
        self._kinds = [
            ("arith", self._arith),
            ("dict", self._dict),
            ("objects", self._walk),
            ("npsum", self._npsum),
            ("matmul", self._matmul),
            ("scalar", self._scalar),
        ]
        self._cursor = 0
        self._turn = 0
        self.samples: list[tuple[float, float, str]] = []  # (start, seconds, kind)

    # -- probes -----------------------------------------------------------------
    def _arith(self):
        acc = 0
        for i in range(4000):
            acc = (acc + i * i) % 1_000_003

    def _dict(self):
        start = self._cursor
        self._cursor = (start + 1000) % 99_000
        table, acc = self._table, 0
        for key in self._keys[start:start + 1000]:
            acc += table[key]

    def _walk(self):
        start = (self._cursor * 3) % 98_000
        acc = 0
        for obj in self._objects[start:start + 2000]:
            acc += obj[0]

    def _npsum(self):
        self._array.sum()

    def _matmul(self):
        a = self._square
        for _ in range(16):
            a = np.tanh(a @ self._square)

    def _scalar(self):
        out, s = self._row, self._state
        for i in range(out.size):
            s ^= (s << 13) & _MASK64
            s ^= s >> 7
            s ^= (s << 17) & _MASK64
            out[i] = float(repr(math.sqrt((s >> 11) * 2.0**-53)))
        self._state = s

    def _probe(self, kind, fn):
        started = time.perf_counter()
        fn()
        self.samples.append((started, time.perf_counter() - started, kind))

    def _tick(self, signum, frame):
        kind, fn = self._kinds[self._turn % len(self._kinds)]
        self._turn += 1
        self._probe(kind, fn)

    # -- sampling ---------------------------------------------------------------
    def burst(self, rounds: int = 3) -> tuple[float, float]:
        """Run every probe `rounds` times now; returns the burst's (start, end)."""
        started = time.perf_counter()
        for _ in range(rounds):
            for kind, fn in self._kinds:
                self._probe(kind, fn)
        return started, time.perf_counter()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # -- conversion -------------------------------------------------------------
    def factor(self, a: float, b: float) -> float:
        """Host factor over [a, b): reference probe time over measured, per kind.

        A kind with no probe inside the interval uses its latest probe before b.
        """
        logs = []
        for kind in REFERENCE_S:
            times = [s for t, s, k in self.samples if k == kind and a <= t < b]
            if not times:
                times = [s for t, s, k in self.samples if k == kind and t < b][-1:]
            if not times:
                raise RuntimeError(f"host meter has no {kind} probe before {b}")
            harmonic = len(times) / sum(1.0 / s for s in times)
            logs.append(math.log(REFERENCE_S[kind] / harmonic))
        return math.exp(sum(logs) / len(logs))

    def seconds(self, a: float, b: float) -> float:
        """Normalised seconds of program work between perf_counter times a and b."""
        probing = sum(s for t, s, _ in self.samples if a <= t < b)
        return (b - a - probing) * self.factor(a, b)

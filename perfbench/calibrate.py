"""Rounds timed at a fixed reference speed of the machine.

The benchmark runs on a small shared machine whose speed drifts, from
second to second and over minutes, whoever runs on it: the same round
of the same code took 3.3 s and 5.2 s in one process. A round's wall
time alone therefore says as much about the host as about the program.

While a round runs, ``SpeedSampler`` interrupts it every ``INTERVAL_S``
seconds of wall time (SIGALRM) and times one short fixed piece of each
kind of work in the workload's mix: interpreted code (tuple sorting, set
lookups and dictionary counting, like ``check_L_exact`` and the
elimination chain of ``certify_free``), numpy array work (sorting,
counting and reducing mod p an int64 array, like sampling and
diagnostics) and a BLAS
matrix product (like the mod-p rank's updates). The machine's speed is
the mix-weighted mean of ``REF_PIECE_S / piece time``. The wall time
since the previous sample is converted to reference seconds at that
speed: an interval in which the host ran at half speed counts half. The
sum over the round is the round's time at the reference speed; the
pieces' own time is left out. Nothing in a piece calls randgroup, so a
change to the program never moves the reference.

A signal handler runs between bytecodes, so during one long numpy call
the next sample waits until the call returns; that interval is then
converted at the speed measured at its end.
"""

from __future__ import annotations

import signal
import time
from itertools import combinations

import numpy as np

# The pieces' typical times on the machine the bounds were set on, so a
# scaled round reads about as many seconds as a wall-clock round there.
REF_PIECE_S = {"python": 0.0013, "numpy": 0.0010, "blas": 0.0012}
INTERVAL_S = 0.1


class SpeedSampler:
    """mix gives each kind of piece its weight; the weights sum to 1."""

    def __init__(self, mix: dict):
        if set(mix) - set(REF_PIECE_S) or abs(sum(mix.values()) - 1) > 1e-9:
            raise ValueError(f"bad speed mix {mix!r}")
        self.mix = mix
        rng = np.random.default_rng(12345)
        self.ints = rng.integers(0, 1 << 40, size=40_000)
        self.mat = rng.random((288, 288))
        self.keys = [int(x) for x in rng.integers(0, 500, size=5_000)]
        self.members = frozenset(range(0, 300, 3))
        self.pieces = {"python": self._python, "numpy": self._numpy,
                       "blas": self._blas}
        self.active = False
        self.ref_s = self.overhead_s = 0.0
        self.samples = 0
        self.last = 0.0
        for _ in range(20):  # warm the caches and the allocator
            self.speed()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _python(self) -> int:
        hits = 0
        for t in combinations(range(17), 3):
            s = tuple(sorted(t + (7, 3)))
            hits += (s[0] * 37 + s[-1] * 11) in self.members
        counts: dict[int, int] = {}
        for k in self.keys:
            counts[k] = counts.get(k, 0) + 1
        return hits + sum(1 for v in counts.values() if v == 1)

    def _numpy(self) -> int:
        srt = np.sort(self.ints)
        buckets = np.bincount(srt & 1023, minlength=1024)
        return int(buckets[7]) + int(np.remainder(srt, 2_147_483_629)[-1])

    def _blas(self) -> int:
        return int((self.mat @ self.mat)[0, 0] > 0)

    def speed(self) -> float:
        """The machine's speed now relative to the reference."""
        speed = 0.0
        for kind, weight in self.mix.items():
            t = time.perf_counter()
            self.pieces[kind]()
            speed += weight * REF_PIECE_S[kind] / (time.perf_counter() - t)
        return speed

    def _sample(self) -> None:
        t0 = time.perf_counter()
        speed = self.speed()
        t1 = time.perf_counter()
        self.ref_s += (t0 - self.last) * speed
        self.overhead_s += t1 - t0
        self.samples += 1
        self.last = t1

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self._sample()

    def start(self) -> None:
        self.ref_s = self.overhead_s = 0.0
        self.samples = 0
        self.active = True
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """End the round; return its time at the reference speed. A
        last sample closes the last interval."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.active = False
        self._sample()
        return self.ref_s

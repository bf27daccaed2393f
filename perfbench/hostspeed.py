"""Host-speed probes: fixed reference kernels timed between units of work.

The benchmark runs on shared hosts whose speed drifts by 20% and more
within a minute, so the same pass of work can take 6 s or 11 s. The
benchmark times a small fixed kernel, which does not touch rotpack, a few
times before and after every pass and before each of the pass's units of
work (draws or trajectories), and reports each unit's time scaled by the
kernel's nominal time over the median of the five probes nearest to it:
seconds at a fixed host speed, the speed at which the kernel takes its
nominal time. A change to rotpack moves the scaled times exactly as it
moves the raw ones; a slow spell of the host moves both the kernel and the
work and cancels out. Scaling each unit by its own neighbourhood follows
drifts that last only seconds: on recorded MPS runs it left half the
spread between 30-s windows that one factor per window left. The raw times
are printed too.

A kernel only cancels a drift that slows it as much as the work, so each
workload uses the kernel made of the same kind of work. Measured on the
2-CPU development host over 30-s windows of 4-minute recordings:

- ``INTERPRETER`` (small SVD/QR calls and interpreted arithmetic), for MPS
  updates, tiny circuits and annealing loops: MPS draw times ranged by 20%
  raw and by 9% scaled. A stream kernel scaled them worse (15%).
- ``STREAM`` (elementwise products on a 4 MiB array, the size of an M=18
  state), for the dense statevector: its draw times ranged by 10% raw and
  by 6% scaled, while ``INTERPRETER`` made them range by 30%.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(0)
_MAT = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))


def _interpreter_kernel() -> int:
    for _ in range(2):  # small dense linear algebra, as in MPS updates
        np.linalg.svd(_MAT, full_matrices=False)
        np.linalg.qr(_MAT)
    x = 0
    for i in range(12000):  # the interpreter
        x += i * i
    return x


@functools.cache
def _stream_arrays() -> tuple[np.ndarray, np.ndarray]:
    # allocated on first use, so that only the workload that streams
    # carries the 8 MiB in its peak memory
    state = np.exp(1j * np.random.default_rng(0).standard_normal(1 << 18))
    return state, np.empty_like(state)


def _stream_kernel() -> None:
    state, out = _stream_arrays()
    for _ in range(3):
        np.multiply(state, state, out=out)


@dataclass(frozen=True)
class Reference:
    """A probe kernel and its time at the nominal host speed.

    The nominal times are about the kernels' medians on the 2-CPU
    development host, so scaled times read close to wall times there.
    """

    name: str
    kernel: Callable[[], object]
    nominal_s: float


INTERPRETER = Reference("interpreter", _interpreter_kernel, 1.25e-3)
STREAM = Reference("stream", _stream_kernel, 1.5e-3)


class HostClock:
    """Times a reference kernel on demand and turns raw times into scaled ones.

    Probes go into the current bucket (one per pass). ``speed()`` is the
    nominal time over the bucket's median probe time, the factor that
    scales a pass's raw times; ``speed(mark)`` uses only the five probes
    nearest to a unit of work that started at ``mark()``, right after a
    probe. A clock without a reference probes nothing and scales by 1.
    """

    def __init__(self, reference: Reference | None) -> None:
        self.reference = reference
        self.bucket: list[float] = []
        self.spent = 0.0  # time spent probing, to take out of raw times

    @property
    def enabled(self) -> bool:
        return self.reference is not None

    def begin(self) -> None:
        self.bucket = []

    def probe(self, n: int = 1) -> None:
        if self.reference is None:
            return
        for _ in range(n):
            t0 = time.perf_counter()
            self.reference.kernel()
            dt = time.perf_counter() - t0
            self.bucket.append(dt)
            self.spent += dt

    def mark(self) -> int:
        return len(self.bucket)

    def speed(self, mark: int | None = None) -> float:
        near = self.bucket if mark is None else self.bucket[max(0, mark - 3): mark + 2]
        if self.reference is None or not near:
            return 1.0
        return self.reference.nominal_s / statistics.median(near)

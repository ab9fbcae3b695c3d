"""CPU-speed calibration for the timed loop.

The reference host (2 vCPUs shared with other tenants) changes speed by up
to a factor of two within seconds: the same `verify --suite appendix`
call has taken 9.5 ms and 18.5 ms in 4-second windows of one process, with
CPU time tracking wall time, so the CPU runs slower rather than the process
waiting. Raw wall times therefore spread by 20-30% from run to run.

A fixed reference kernel, with the mix of work g2coflow does (small
einsum contractions, 6x6 products, a Python loop over permutations and a
small least-squares solve), is timed next to the operations. Each
operation's wall time is scaled by REFERENCE_S / (kernel time around it):
the time it would take on a host where the kernel takes REFERENCE_S. The
kernel is benchmark code, so a change to g2coflow moves the operation and
not the kernel.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time

import numpy as np

# Kernel time that defines reference speed: its usual median on the
# 2-core x86 reference host, so scaled figures read like its wall times.
REFERENCE_S = 2.2e-3
EVERY_S = 0.2  # recalibrate before an operation once this much has passed

_A = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
_R = np.linspace(0.0, 1.0, 216).reshape(6, 6, 6)
_P = np.linspace(-1.0, 1.0, 72 * 36).reshape(72, 36) ** 3


def kernel() -> float:
    acc = 0.0
    for _ in range(3):
        acc += float(np.einsum("mn,pq,mpa,nqb->ab", _A, _A, _R, _R)[0, 0])
        acc += float((_A @ _A.T - _A.T @ _A)[1, 2])
    table = {}
    for perm in itertools.permutations(range(5)):
        table[perm] = sum(p * q for p, q in zip(perm, range(5)))
    x = np.linalg.lstsq(_P, _P[:, 0], rcond=None)[0]
    return acc + len(table) + float(x[0])


def kernel_time() -> float:
    """Median wall time of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedTrack:
    """Kernel times sampled through a run, to scale intervals between them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.kernel_s.append(kernel_time())

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples just before
        t0 and just after t1 (the nearest one when only one side exists)."""
        before = bisect.bisect_right(self.at, t0) - 1
        after = bisect.bisect_left(self.at, t1)
        near = [self.kernel_s[i] for i in (before, after) if 0 <= i < len(self.at)]
        return REFERENCE_S / statistics.fmean(near)

"""Host-speed calibration: a fixed numpy kernel timed between operations.

On a shared virtual machine the same code runs up to twice as slow during
spells of contention for the physical cores, and CPU time slows with wall
time, so neither shows the program's own cost.  The benchmark therefore times
this kernel before and after every timed operation and scales the operation's
time by ``REFERENCE_S`` over the kernel's mean time around it: a time in
seconds at the host speed at which the kernel takes ``REFERENCE_S``.

The cores of such a host slow down separately, so an operation that keeps two
worker processes busy is calibrated on two lanes: ``Lanes(2)`` runs the
kernel in this process and in one helper process at the same time and
reports the mean of the two times.

The kernel does the kinds of work vardiag spends its time on, written here
with numpy alone: a Python-level VAR(1) recursion with 2 x 2 products, the
assembly of a 62 x 62 block-Toeplitz matrix from 2 x 2 blocks, and its
Cholesky factorization.  It never calls the program, so a change to the
program cannot change it.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

# Seconds the kernel takes at the reference speed: about its median time on
# the 2-vCPU host (Intel Xeon, 2.0 GHz) the benchmark was tuned on.
REFERENCE_S = 0.06
ROUNDS = 24
STEPS = 400
BLOCKS = 31

_RNG = np.random.default_rng(20161101)
_COEF = 0.3 * _RNG.standard_normal((2, 2))
_SHOCKS = _RNG.standard_normal((STEPS, 2))
_LAGGED = [_RNG.standard_normal((2, 2)) for _ in range(BLOCKS)]
# Bound at import, so the traced run's Cholesky counter never sees the kernel.
_cholesky = np.linalg.cholesky


def kernel() -> float:
    """Run the fixed work once; returns a checksum so the work is not skipped."""
    total = 0.0
    for _ in range(ROUNDS):
        path = np.zeros((STEPS, 2))
        for t in range(1, STEPS):
            path[t] = _COEF @ path[t - 1] + _SHOCKS[t]
        big = np.empty((2 * BLOCKS, 2 * BLOCKS))
        for i in range(BLOCKS):
            for j in range(BLOCKS):
                big[2 * i:2 * i + 2, 2 * j:2 * j + 2] = _LAGGED[abs(i - j)]
        spd = big @ big.T + np.eye(2 * BLOCKS)
        total += float(_cholesky(spd)[-1, -1]) + float(path[-1, 0])
    return total


def measure() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time taken between two kernel runs into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))


def _helper(conn) -> None:
    while conn.recv():
        conn.send(measure())


class Lanes:
    """Times the kernel in ``count`` processes at once: this one and ``count - 1`` helpers.

    Use it as a context manager; leaving the block stops the helpers and
    waits for them to end.
    """

    def __init__(self, count: int):
        self.helpers = []
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(count - 1):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(child,), daemon=True)
                proc.start()
                child.close()
                self.helpers.append((proc, conn))
        except BaseException:
            self.close()
            raise

    def measure(self) -> float:
        """Mean wall seconds of the kernel over the lanes, run at the same time."""
        for _, conn in self.helpers:
            conn.send(True)
        times = [measure()] + [conn.recv() for _, conn in self.helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for proc, conn in self.helpers:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
        for proc, _ in self.helpers:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.helpers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

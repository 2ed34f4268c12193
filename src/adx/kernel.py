"""The numpy entropy/variance kernel of the resampling loops, and the
helper that runs those loops on every CPU the process may use.

``entropy_and_variance`` is ``entropy.adx`` and ``entropy.adx_variance``
on an integer count vector instead of a ``FrequencyProfile``, and ``adx``
is its first half alone; the pure-Python pair stays the reference they are
tested against. ``replicates`` computes one row per replicate, splitting
the replicates between the process and forked workers; a replicate draws
from its own seeded stream, so the rows do not depend on the number of
workers. Only ``benefit_risk`` and ``simulate`` import this module, so the
report commands still load no numpy and never fork.
"""
from __future__ import annotations

import os
import signal
from collections.abc import Callable, Sequence

import numpy as np

# The smallest share of replicates worth a worker of its own. A fork copies the
# page tables and both processes then pay copy-on-write faults: on a 2-vCPU
# host a split of 2 x 50 bootstrap replicates broke even in a 39 MB process,
# and one of 2 x 100 in a 150 MB process.
MIN_SHARE = 100


def _terms(counts: np.ndarray) -> tuple:
    c = counts[counts > 0]
    n = c.sum()
    p = c / n
    lp = np.log(p)
    return 0.0 - float((p * lp).sum()), c, n, p, lp


def adx(counts: np.ndarray) -> float:
    """adx of a 1-D vector of counts per AE type, as ``entropy_and_variance``."""
    return _terms(counts)[0]


def entropy_and_variance(counts: np.ndarray) -> tuple[float, float]:
    """``(adx, variance)`` of a 1-D vector of counts per AE type, at least
    one of them nonzero.

    Zero counts are dropped. adx is ``0.0 - sum``, so a single type gives
    +0.0; the variance is exactly 0.0 when every nonzero count is equal.
    """
    h, c, n, p, lp = _terms(counts)
    if (c == c[0]).all():
        return h, 0.0
    lp += h
    return h, float((p * lp * lp).sum()) / float(n)


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fill(fn: Callable[[int], Sequence[float]], rows: np.ndarray, start: int) -> None:
    for i in range(len(rows)):
        rows[i] = fn(start + i)


def replicates(fn: Callable[[int], Sequence[float]], count: int, width: int) -> np.ndarray:
    """The ``(count, width)`` float64 array whose row r is ``fn(r)``.

    ``range(count)`` is split into contiguous shares, one per worker: a
    worker per CPU this process may run on, but none with a share below
    ``MIN_SHARE``. The process computes the first share itself; each other
    share runs in a worker made with ``os.fork``, which writes its rows to a
    pipe and leaves with ``os._exit``. With one worker nothing forks. ``fn``
    must make no BLAS-threaded call (no ``dot`` or ``@``), because a forked
    worker has only the thread that forked it.

    A worker that fails raises ``RuntimeError``. On any exception every
    worker still running is killed, and every worker is reaped.
    """
    workers = max(1, min(_cpus(), count // MIN_SHARE))
    bounds = [count * i // workers for i in range(workers + 1)]
    rows = np.empty((count, width))
    pending = []  # (pid, read end of its pipe, its rows) of each worker not yet reaped
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            share = rows[start:stop]
            read, write = os.pipe()
            with open(write, "wb") as sink:
                source = open(read, "rb")
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        _fill(fn, share, start)
                        sink.write(share)
                        sink.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pending.append((pid, source, share))
        _fill(fn, rows[:bounds[1]], 0)
        while pending:
            pid, source, share = pending[0]
            with source:
                sent = source.read()
            status = os.waitpid(pid, 0)[1]
            del pending[0]
            if status or len(sent) != share.nbytes:
                raise RuntimeError(f"replicate worker {pid} failed: wait status {status}, "
                                   f"{len(sent)} of {share.nbytes} bytes sent")
            share[...] = np.frombuffer(sent).reshape(share.shape)
    finally:
        for pid, source, _ in pending:
            source.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows

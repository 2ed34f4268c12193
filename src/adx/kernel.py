"""The numpy entropy/variance kernel of the resampling loops, and the
helper that runs those loops on every CPU the process may use.

``entropy_and_variance`` is ``entropy.adx`` and ``entropy.adx_variance``
on an integer count vector instead of a ``FrequencyProfile``, and ``adx``
is its first half alone; the pure-Python pair stays the reference they are
tested against. ``replicates`` computes one row per replicate, which the
process and forked workers write into one shared mapping; a replicate draws
from its own seeded stream, so the rows do not depend on the number of
workers. ``recode`` and ``quantile`` code a bootstrap's terms and read its
interval. Only a bootstrap or a validation imports this module, when first
called, so every other command loads no numpy and never forks.
"""
from __future__ import annotations

import mmap
import os
import signal
from collections.abc import Callable, Sequence

import numpy as np
import numpy.random  # noqa: F401  (loaded before ``replicates`` forks: workers inherit it)

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


def recode(codes: np.ndarray, label) -> tuple[np.ndarray, int]:
    """Each of ``codes`` as the number of its ``label(code)`` among the
    distinct labels in order of first appearance, and how many there are:
    ``label`` runs once per distinct code, through a remap table."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    numbers: dict = {}
    remap = np.empty(len(first), np.intp)
    remap[order] = [numbers.setdefault(label(code), len(numbers))
                    for code in codes[first[order]].tolist()]
    return remap[inverse], len(numbers)


def quantile(values, q: float) -> float:
    """``np.quantile`` of ``values``, to the bit, without the ``numpy.ma`` it
    imports: numpy's linear rule at index ``(n - 1) * q``. The two values
    read are picked by the same ``np.partition`` numpy makes, so tied signed
    zeros land where numpy puts them."""
    last = len(values) - 1
    index = last * q
    below = int(index) if index < last else -1  # numpy reads the top as index -1
    above = below + 1 if below >= 0 else -1
    ordered = np.partition(np.asarray(values, dtype=float), sorted({0, -1, below, above}))
    a, b = float(ordered[below]), float(ordered[above])
    g = index - below
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


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
    share runs in a worker made with ``os.fork``, which fills its rows of
    one shared ``mmap`` in place, sets its done byte after them and leaves
    with ``os._exit``. With one worker nothing forks. ``fn`` must make no
    BLAS-threaded call (no ``dot`` or ``@``), because a forked worker has
    only the thread that forked it.

    A reaped worker whose done byte is unset raises ``RuntimeError``. On any
    exception every worker still running is killed, and every worker is reaped.
    """
    workers = max(1, min(_cpus(), count // MIN_SHARE))
    bounds = [count * i // workers for i in range(workers + 1)]
    end = count * width * 8
    shared = mmap.mmap(-1, end + workers)  # MAP_SHARED: a worker's writes reach the process
    rows = np.frombuffer(shared, count=count * width).reshape(count, width)
    pending = []  # (pid, share) of each worker not yet reaped
    try:
        for share in range(1, workers):
            pid = os.fork()
            if pid == 0:
                try:
                    _fill(fn, rows[bounds[share]:bounds[share + 1]], bounds[share])
                    shared[end + share] = 1
                finally:
                    os._exit(0)
            pending.append((pid, share))
        _fill(fn, rows[:bounds[1]], 0)
        while pending:
            pid, share = pending[0]
            status = os.waitpid(pid, 0)[1]
            del pending[0]
            if not shared[end + share]:
                raise RuntimeError(f"replicate worker {pid} failed: wait status {status}")
    finally:
        for pid, _ in pending:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows

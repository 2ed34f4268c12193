"""The numpy entropy/variance kernel of the resampling loops.

``entropy_and_variance`` is ``entropy.adx`` and ``entropy.adx_variance``
on an integer count vector instead of a ``FrequencyProfile``, and ``adx``
is its first half alone; the pure-Python pair stays the reference they are
tested against. Only ``benefit_risk`` and ``simulate`` import this module,
so the report commands still load no numpy.
"""
from __future__ import annotations

import numpy as np


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

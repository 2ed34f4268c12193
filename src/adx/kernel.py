"""The numpy entropy/variance kernel of the resampling loops.

``entropy_and_variance`` is ``entropy.adx`` and ``entropy.adx_variance``
on an integer count vector instead of a ``FrequencyProfile``; the
pure-Python pair stays the reference it is tested against. Only
``benefit_risk`` and ``simulate`` import this module, so the report
commands still load no numpy.
"""
from __future__ import annotations

import numpy as np


def entropy_and_variance(counts: np.ndarray) -> tuple[float, float]:
    """``(adx, variance)`` of a 1-D vector of counts per AE type, at least
    one of them nonzero.

    Zero counts are dropped. adx is ``0.0 - sum``, so a single type gives
    +0.0; the variance is exactly 0.0 when every nonzero count is equal.
    """
    c = counts[counts > 0]
    n = c.sum()
    p = c / n
    lp = np.log(p)
    h = 0.0 - float((p * lp).sum())
    if (c == c[0]).all():
        return h, 0.0
    lp += h
    return h, float((p * lp * lp).sum()) / float(n)

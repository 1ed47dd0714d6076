"""Exact weighted draws without ``Generator.choice``'s per-call overhead.

``Generator.choice(a, p=p)`` with no ``size`` draws one ``random()`` ``u``
and returns ``a[cdf.searchsorted(u, side="right")]``, where ``cdf`` is
``p.cumsum()`` divided by its last element.  Converting and validating
``a`` and ``p`` costs 7-11 µs per call; the search itself costs under
one.  :func:`cumulative` builds the CDF the way numpy does, once per
distribution, and :func:`weighted_index` searches it on one ``random()``,
so a draw consumes the same generator state and yields the same index
(DESIGN §12).  Without ``p``, ``choice`` draws ``integers(0, len(a))``;
those uniform picks are written inline as
``seq[int(rng.integers(0, len(seq)))]``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

__all__ = ["cumulative", "weighted_index"]


def cumulative(p) -> tuple[float, ...]:
    """The CDF ``Generator.choice`` searches for probabilities ``p``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def weighted_index(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """The index ``rng.choice(len(cdf), p=p)`` returns, ``cdf`` being
    :func:`cumulative` of ``p``."""
    return bisect_right(cdf, rng.random())

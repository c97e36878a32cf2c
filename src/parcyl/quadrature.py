"""The Gauss-Legendre rule shared by the expansions and the oracle.

Plain numerics with no asymptotic machinery, so the oracle can use it and
stay independent of the expansions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1] (shared arrays:
    callers must not modify them)."""
    return np.polynomial.legendre.leggauss(n)

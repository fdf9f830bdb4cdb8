"""Gauss-Legendre quadrature rules.

Nodes and weights come from numpy's ``leggauss``; rules are cached per order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule1D:
    """Gauss-Legendre rule on (-1, 1): exact for degree <= 2n-1."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def mapped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights transplanted to the interval [a, b]."""
        half = 0.5 * (b - a)
        return a + half * (self.nodes + 1.0), half * self.weights


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule1D:
    """Gauss-Legendre rule with n points on (-1, 1)."""
    if not (1 <= n <= 30):
        raise QuadratureError(f"order {n} outside supported range [1, 30]")
    return QuadratureRule1D(n, *np.polynomial.legendre.leggauss(n))

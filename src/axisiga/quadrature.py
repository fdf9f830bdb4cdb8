"""Gauss-Legendre quadrature rules.

Nodes are computed as roots of the Legendre polynomial by Newton iteration
started from Chebyshev guesses; rules are cached per order.
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


def _legendre_and_deriv(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule1D:
    """Gauss-Legendre rule with n points on (-1, 1)."""
    if not (1 <= n <= 30):
        raise QuadratureError(f"order {n} outside supported range [1, 30]")
    if n == 1:
        return QuadratureRule1D(1, np.zeros(1), np.full(1, 2.0))
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_deriv(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p, dp = _legendre_and_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    x, w = x[idx], w[idx]
    # kill roundoff asymmetry
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureRule1D(n, x, w)

"""Local cost densities for arrival/service rate deviations.

``PoissonCost`` charges the relative-entropy cost of tilting independent
Poisson clocks: running a clock of nominal rate r at rate v costs
``price(r, v)`` = r * pi(v / r), with pi(alpha) = alpha*log(alpha) - alpha + 1,
summed over the streams' rates ``lam`` and the queues' rates ``mu``.  It is
the cost the rate program solves, in closed form through its convex
conjugate r * (e^theta - 1).
"""
from __future__ import annotations

import math

import numpy as np

from .topology import Topology, vector

INF = math.inf


def pi(alpha: float) -> float:
    """alpha*log(alpha) - alpha + 1 with the 0*log(0) = 0 convention, and
    pi(inf) = inf.  A negative or NaN alpha raises ValueError."""
    if not alpha >= 0:
        raise ValueError(f"pi is defined on nonnegative arguments, got alpha={alpha}")
    if alpha == 0.0 or alpha == INF:
        return alpha + 1.0
    return alpha * math.log(alpha) - alpha + 1.0


def pi_vec(alpha: np.ndarray) -> np.ndarray:
    """``pi`` at every entry of alpha, with no numpy warning: at 0, at inf,
    and where alpha * log(alpha) overflows, which gives inf as ``pi``
    does."""
    a = np.asarray(alpha, dtype=float)
    if not (a >= 0).all():
        raise ValueError("pi is defined on nonnegative arguments, got a negative or NaN alpha")
    # pi(0) = 1 and pi(inf) = inf are both alpha + 1; the log sees 1 there
    inner = (a > 0) & (a < INF)
    b = np.where(inner, a, 1.0)
    with np.errstate(over="ignore"):
        return np.where(inner, b * np.log(b) - b + 1.0, a + 1.0)


def price(rate: float, v: float) -> float:
    """rate * pi(v / rate); +inf for v < 0, and for v > 0 when rate == 0.
    Where that product overflows at a finite v, as it does at v = 1e6 and
    rate = 1e-300, the price is v (log v - log rate) - v + rate, the same
    value in terms that stay finite while the price does.  A NaN v raises
    ValueError, as in ``pi``."""
    if v != v:
        raise ValueError(f"price is defined on real rates, got v={v}")
    if v < 0:
        return INF
    if rate == 0.0:
        return 0.0 if v == 0.0 else INF
    value = rate * pi(v / rate)
    return value if value < INF or v == INF else v * (math.log(v) - math.log(rate)) - v + rate


def price_vec(rate: float, v: np.ndarray) -> np.ndarray:
    """``price`` at every entry of v, its overflowing products priced as
    ``price`` prices them, with no numpy warning."""
    v = np.asarray(v, dtype=float)
    if np.isnan(v).any():
        raise ValueError("price is defined on real rates, got v=nan")
    if rate == 0.0:
        return np.where(v == 0.0, 0.0, INF)
    with np.errstate(over="ignore"):
        value = np.where(v >= 0, rate * pi_vec(np.maximum(v, 0.0) / rate), INF)
    over = (value == INF) & (v >= 0)
    value[over] = [price(rate, w) for w in v[over].tolist()]
    return value


class PoissonCost:
    """Sum of Poisson entropy prices at the topology's nominal rates."""

    def __init__(self, topology: Topology):
        self.M = topology.M
        self.K = topology.K
        self.lam = topology.lam
        self.mu = topology.mu

    def eval(self, a: np.ndarray, b: np.ndarray) -> float:
        a = vector(a, self.M, "arrival rates a", nonnegative=False)
        b = vector(b, self.K, "service rates b", nonnegative=False)
        total = 0.0
        for rate, v in zip(self.lam.tolist() + self.mu.tolist(), a.tolist() + b.tolist()):
            total += price(rate, v)
        return total

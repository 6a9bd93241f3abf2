"""Local cost densities for arrival/service rate deviations.

The built-in model charges the relative-entropy cost of tilting independent
Poisson clocks: pi(alpha) = alpha*log(alpha) - alpha + 1 per unit of nominal
rate.  Other convex densities that split into per-stream and per-queue
scalar terms can be plugged in through ``CostModel``.
"""
from __future__ import annotations

import math

import numpy as np

from .topology import Topology

INF = math.inf


def pi(alpha: float) -> float:
    """alpha*log(alpha) - alpha + 1 with the 0*log(0) = 0 convention."""
    if alpha < 0:
        raise ValueError("pi is defined on nonnegative arguments")
    if alpha == 0.0:
        return 1.0
    return alpha * math.log(alpha) - alpha + 1.0


def pi_vec(alpha: np.ndarray) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    if np.any(a < 0):
        raise ValueError("pi is defined on nonnegative arguments")
    safe = np.maximum(a, 1e-300)
    return np.where(a > 0, a * np.log(safe) - a + 1.0, 1.0)


class ScalarCost:
    """One-dimensional convex cost term with partial-minimization helpers.

    ``reduced_value(c)`` is inf over v >= c, used for the service rate of an
    idle queue, which enters the program only through a lower bound.
    """

    def value(self, v: float) -> float:
        raise NotImplementedError

    def deriv(self, v: float) -> float:
        raise NotImplementedError

    def zero_level(self) -> float:
        """Largest v with zero cost."""
        raise NotImplementedError

    def reduced_value(self, c: float) -> float:
        if c <= self.zero_level():
            return 0.0
        return self.value(c)

    def reduced_deriv(self, c: float) -> float:
        if c <= self.zero_level():
            return 0.0
        return self.deriv(c)

    def argmin_at_least(self, c: float) -> float:
        return max(c, self.zero_level())


class PoissonTerm(ScalarCost):
    """rate * pi(v / rate); identically +inf for v > 0 when rate == 0."""

    def __init__(self, rate: float):
        self.rate = float(rate)

    def value(self, v: float) -> float:
        if v < 0:
            return INF
        if self.rate == 0.0:
            return 0.0 if v == 0.0 else INF
        return self.rate * pi(v / self.rate)

    def deriv(self, v: float) -> float:
        if self.rate == 0.0 or v < 0:
            raise ValueError("derivative undefined")
        if v == 0.0:
            return -INF
        return math.log(v / self.rate)

    def zero_level(self) -> float:
        return self.rate

    def value_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.rate == 0.0:
            return np.where(v == 0.0, 0.0, INF)
        out = self.rate * pi_vec(v / self.rate)
        return np.where(v >= 0, out, INF)


class CostModel:
    """Convex, lower-semicontinuous density over (arrival, service) rates.

    Subclasses provide ``eval`` and ``subgradient`` and split the density
    into per-stream and per-queue scalar terms, ``arrival_terms`` and
    ``service_terms``; the rate program is solved through those terms.
    """

    M: int
    K: int
    arrival_terms: list[ScalarCost]
    service_terms: list[ScalarCost]

    def eval(self, a: np.ndarray, b: np.ndarray) -> float:
        raise NotImplementedError

    def subgradient(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PoissonCost(CostModel):
    """Sum of Poisson entropy terms at the topology's nominal rates."""

    def __init__(self, topology: Topology):
        self.M = topology.M
        self.K = topology.K
        self.lam = topology.lam
        self.mu = topology.mu
        self.arrival_terms = [PoissonTerm(r) for r in self.lam]
        self.service_terms = [PoissonTerm(r) for r in self.mu]

    def eval(self, a: np.ndarray, b: np.ndarray) -> float:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (self.M,) or b.shape != (self.K,):
            raise ValueError("rate vector dimensions do not match the model")
        if np.any(a < 0) or np.any(b < 0):
            return INF
        total = 0.0
        for term, v in zip(self.arrival_terms, a):
            total += term.value(float(v))
            if total == INF:
                return INF
        for term, v in zip(self.service_terms, b):
            total += term.value(float(v))
        return total

    def subgradient(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        g = np.empty(self.M + self.K)
        for m, term in enumerate(self.arrival_terms):
            g[m] = term.deriv(float(a[m]))
        for k, term in enumerate(self.service_terms):
            g[self.M + k] = term.deriv(float(b[k]))
        return g


def psi_poisson(a, b, topology: Topology) -> float:
    """Entropy cost of running rates (a, b) against the nominal (lambda, mu)."""
    return PoissonCost(topology).eval(np.asarray(a, float), np.asarray(b, float))

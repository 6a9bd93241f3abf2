"""Local cost densities for arrival/service rate deviations.

``PoissonCost`` charges the relative-entropy cost of tilting independent
Poisson clocks: pi(alpha) = alpha*log(alpha) - alpha + 1 per unit of nominal
rate, one ``PoissonTerm`` per stream and per queue.  It is the cost the rate
program solves, in closed form through its convex conjugate
rate * (e^theta - 1).
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


class PoissonTerm:
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

    def value_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.rate == 0.0:
            return np.where(v == 0.0, 0.0, INF)
        out = self.rate * pi_vec(v / self.rate)
        return np.where(v >= 0, out, INF)


class PoissonCost:
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

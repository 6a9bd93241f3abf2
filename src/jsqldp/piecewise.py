"""Piecewise-linear time-parametrized vector paths."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiecewisePath:
    """A continuous path given by breakpoints and values, linear in between.

    Breakpoints are finite and strictly increasing, from any start t_0;
    values is a finite (N, dim) array.  Evaluation outside [t_0, t_N] is an
    error.  Raises ValueError on breakpoints or values that break these
    rules.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if t.ndim != 1 or v.ndim != 2:
            raise ValueError("breakpoints must be a vector and values a matrix")
        if v.shape[0] != t.shape[0]:
            raise ValueError("breakpoints and values length mismatch")
        if t.shape[0] < 2:
            raise ValueError("need at least two breakpoints")
        # array methods, not np.all: the variational search builds a path
        # per objective call, and np.all's dispatch showed in its time
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("breakpoints and values must be finite")
        if not (t[1:] > t[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", t)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lo, hi = self.breakpoints[0] - 1e-12, self.breakpoints[-1] + 1e-12
        # both comparisons must hold, so that a NaN time is refused too
        if not ((t >= lo) & (t <= hi)).all():
            raise ValueError("evaluation outside path domain")
        out = np.empty(t.shape + (self.dim,))
        for j in range(self.dim):
            out[..., j] = np.interp(t, self.breakpoints, self.values[:, j])
        return out

    def is_nondecreasing(self, atol: float = 0.0) -> bool:
        return bool(np.all(np.diff(self.values, axis=0) >= -atol))

    def slopes(self) -> np.ndarray:
        """Per-segment derivative vectors, shape (N-1, dim)."""
        dt = np.diff(self.breakpoints)[:, None]
        return np.diff(self.values, axis=0) / dt

    @staticmethod
    def linear(value0, value1, T: float) -> "PiecewisePath":
        """Single-segment path from value0 at t=0 to value1 at t=T."""
        v0 = np.atleast_1d(np.asarray(value0, dtype=float))
        v1 = np.atleast_1d(np.asarray(value1, dtype=float))
        return PiecewisePath(np.array([0.0, T]), np.vstack([v0, v1]))

    @staticmethod
    def cumulative_linear(rates, T: float) -> "PiecewisePath":
        """Cumulative path t -> rates * t on [0, T]."""
        r = np.atleast_1d(np.asarray(rates, dtype=float))
        return PiecewisePath.linear(np.zeros_like(r), r * T, T)

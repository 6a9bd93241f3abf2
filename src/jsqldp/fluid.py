"""Deterministic fluid dynamics of the weighted join-the-shortest-queue net.

Given cumulative arrival and service inputs, ``fluid_solve`` advances the
queue trajectory step by step: each stream's arrival mass is spread over its
currently shortest (weighted) queues by water-filling, then departures drain
each queue by at most the service increment.  Trajectorial uniqueness of the
continuum system makes any consistent discretization converge to the same
solution; ``lyapunov_check`` probes the contraction property that underlies
it.

The step runs on Python floats, because numpy's per-call overhead dominates
on vectors of K and M entries.  ``fluid_solve`` checks its arguments once,
takes every increment from one vectorized difference, runs the private
``_step`` (which water-fills with ``_fill``) once per step, and accumulates
the routed and departed mass with one cumulative sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewisePath
from .topology import Topology, positive, tie_level, vector


@dataclass(frozen=True)
class FluidSolution:
    queue: PiecewisePath          # K columns
    routed: PiecewisePath         # K*M columns, row-major (k, m), cumulative
    departed: PiecewisePath       # K columns, cumulative


def _fill(levels: list, widths: list, mass: float) -> list:
    """Allocate mass across bins so the lowest levels rise together.

    Raising bin i's level by dl consumes widths[i] * dl of mass.  Bins join
    the active set as the rising water reaches their level (up to
    ``tie_level``).  Returns the mass given to each bin; exact conservation:
    the allocation sums to mass.  A mass of at most 0 allocates nothing.
    The caller passes equally long nonempty lists of finite levels and
    positive finite widths and a finite mass: a NaN level would never
    settle, and an infinite one would give NaN mass.
    """
    n = len(levels)
    alloc = [0.0] * n
    if mass <= 0:
        return alloc
    order = sorted(range(n), key=levels.__getitem__)
    active_width = 0.0
    level = levels[order[0]]
    i = 0
    remaining = mass
    while True:
        while i < n and levels[order[i]] <= tie_level(level):
            active_width += widths[order[i]]
            i += 1
        if i >= n:
            break
        target = levels[order[i]]
        need = active_width * (target - level)
        if need >= remaining:
            break
        level = target
        remaining -= need
    level += remaining / active_width
    for k in order[:i]:
        gap = level - levels[k]
        alloc[k] = (0.0 if gap < 0.0 else gap) * widths[k]
    # exact mass conservation despite rounding
    total = alloc[0]
    for v in alloc[1:]:
        total += v
    drift = mass - total
    if total > 0:
        alloc[alloc.index(max(alloc))] += drift
    else:
        alloc[order[0]] += drift
    return alloc


def _step(q: list, da: list, db: list, routes, M: int) -> tuple[list, list, list]:
    """One discrete step: route arrival mass da, then drain by service mass db.

    Streams are processed in index order against the running queue levels,
    stream m water-filling its mass over the weighted levels of its queues in
    ``routes[m]`` (the topology's ``routes``);
    departures are min(service increment, content plus inflow), so queues
    never go negative and mass balance is exact.  Returns the routed mass
    flat in row-major (k, m) order, the departures and the next queue
    levels.  The caller passes K finite nonnegative levels q and service
    masses db and M finite nonnegative arrival masses da.  The comparisons
    break ties as numpy's ``minimum`` and ``maximum`` do, towards their second
    argument, so that the signs of zeros match too.
    """
    e = [0.0] * (len(q) * M)
    work = list(q)
    for m, (ks, ws) in enumerate(routes):
        mass = da[m]
        if mass == 0:
            continue
        alloc = _fill([work[k] / w for k, w in zip(ks, ws)], ws, mass)
        for k, v in zip(ks, alloc):
            e[k * M + m] = v
            work[k] += v
    d = [b if b < w else w for b, w in zip(db, work)]
    q_next = [w - x for w, x in zip(work, d)]
    return e, d, [x if x > 0.0 else 0.0 for x in q_next]


def fluid_solve(
    topology: Topology,
    q0: np.ndarray,
    a: PiecewisePath,
    b: PiecewisePath,
    T: float,
    h: float,
) -> FluidSolution:
    """March the fluid system to horizon T with step at most h.

    Raises ValueError unless q0 is K finite nonnegative numbers, T and h are
    positive and finite, and a (M columns) and b (K columns) are
    nondecreasing paths on [0, T].
    """
    K, M = topology.K, topology.M
    q0 = vector(q0, K, "initial state q0")
    T = positive(T, "horizon T")
    h = positive(h, "step h")
    if a.dim != M or b.dim != K:
        raise ValueError(f"inputs a and b must have {M} and {K} columns, "
                         f"got a.dim={a.dim}, b.dim={b.dim}")
    a0, b0 = float(a.breakpoints[0]), float(b.breakpoints[0])
    if max(a0, b0) > 1e-12 or min(a.horizon, b.horizon) < T - 1e-12:
        raise ValueError(f"inputs must be defined on [0, T], got T={T} and inputs a, b "
                         f"starting at {a0}, {b0} and ending at {a.horizon}, {b.horizon}")
    if not a.is_nondecreasing(atol=1e-12) or not b.is_nondecreasing(atol=1e-12):
        raise ValueError("cumulative inputs a and b must be nondecreasing")
    n_steps = max(1, int(np.ceil(T / h - 1e-12)))
    ts = np.linspace(0.0, T, n_steps + 1)
    da = np.maximum(np.diff(a(ts), axis=0), 0)
    db = np.maximum(np.diff(b(ts), axis=0), 0)
    # row j of e_hist and d_hist holds step j's increments until the
    # cumulative sums below; row 0 stays zero
    q_hist = np.empty((n_steps + 1, K))
    e_hist = np.zeros((n_steps + 1, K * M))
    d_hist = np.zeros((n_steps + 1, K))
    q_hist[0] = q0
    q = q0.tolist()
    routes = topology.routes
    for j, (da_j, db_j) in enumerate(zip(da, db), 1):
        e_hist[j], d_hist[j], q = _step(q, da_j.tolist(), db_j.tolist(), routes, M)
        q_hist[j] = q
    return FluidSolution(
        queue=PiecewisePath(ts, q_hist),
        routed=PiecewisePath(ts, np.cumsum(e_hist, axis=0)),
        departed=PiecewisePath(ts, np.cumsum(d_hist, axis=0)),
    )


def lyapunov_check(sol1: FluidSolution, sol2: FluidSolution) -> float:
    """Largest positive increment of the L1 distance between the two queues.

    Both solutions must share the same time grid (same inputs and step) and
    queue count, or a ValueError is raised; the continuum result says the
    distance is nonincreasing, so the return value should vanish with the
    step size.
    """
    q1, q2 = sol1.queue, sol2.queue
    if q1.values.shape != q2.values.shape or not np.allclose(q1.breakpoints, q2.breakpoints):
        raise ValueError("solutions have mismatched time grids or queue counts")
    V = np.abs(q1.values - q2.values).sum(axis=1)
    inc = np.diff(V)
    return float(max(inc.max(initial=0.0), 0.0))

"""Deterministic fluid dynamics of the weighted join-the-shortest-queue net.

Given cumulative arrival and service inputs, the queue trajectory is advanced
step by step: each stream's arrival mass is spread over its currently
shortest (weighted) queues by water-filling, then departures drain each queue
by at most the service increment.  Trajectorial uniqueness of the continuum
system makes any consistent discretization converge to the same solution;
``lyapunov_check`` probes the contraction property that underlies it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewisePath
from .topology import Topology, tie_level


@dataclass(frozen=True)
class FluidSolution:
    queue: PiecewisePath          # K columns
    routed: PiecewisePath         # K*M columns, row-major (k, m), cumulative
    departed: PiecewisePath       # K columns, cumulative


def water_fill(levels: np.ndarray, widths: np.ndarray, mass: float) -> np.ndarray:
    """Allocate mass across bins so the lowest levels rise together.

    Raising bin i's level by dl consumes widths[i] * dl of mass.  Bins join
    the active set as the rising water reaches their level (up to
    ``tie_level``).  Returns the mass given to each bin; exact conservation:
    allocation sums to mass.
    """
    n = len(levels)
    alloc = np.zeros(n)
    if mass <= 0:
        return alloc
    order = np.argsort(levels, kind="stable")
    lv = levels[order]
    active_width = 0.0
    level = lv[0]
    i = 0
    remaining = mass
    while True:
        while i < n and lv[i] <= tie_level(level):
            active_width += widths[order[i]]
            i += 1
        target = lv[i] if i < n else np.inf
        need = active_width * (target - level)
        if need >= remaining or i >= n:
            level += remaining / active_width
            remaining = 0.0
            break
        level = target
        remaining -= need
    for j in range(i):
        k = order[j]
        alloc[k] = max(level - levels[k], 0.0) * widths[k]
    # exact mass conservation despite rounding
    drift = mass - alloc.sum()
    if alloc.sum() > 0:
        alloc[np.argmax(alloc)] += drift
    else:
        alloc[order[0]] += drift
    return alloc


def fluid_route_step(
    q: np.ndarray,
    da: np.ndarray,
    db: np.ndarray,
    topology: Topology,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One discrete step: route arrival mass, then drain by service mass.

    Streams are processed in index order against the running queue levels;
    departures are min(service increment, content plus inflow), so queues
    never go negative and mass balance is exact.
    """
    q = np.asarray(q, dtype=float)
    da = np.asarray(da, dtype=float)
    db = np.asarray(db, dtype=float)
    # >= rather than < 0, so that NaN fails too: it would stall water_fill
    if not (np.all(da >= 0) and np.all(db >= 0) and np.all(q >= 0)):
        raise ValueError(f"inputs must be nonnegative, got q={q}, da={da}, db={db}")
    K, M = topology.K, topology.M
    e_step = np.zeros((K, M))
    work = q.copy()
    for m, (ks, ws) in enumerate(topology.routes):
        if da[m] == 0:
            continue
        widths = np.array(ws)
        alloc = water_fill(work.take(ks) / widths, widths, float(da[m]))
        for k, v in zip(ks, alloc):
            e_step[k, m] = v
            work[k] += v
    d_step = np.minimum(db, work)
    q_next = work - d_step
    return e_step, d_step, np.maximum(q_next, 0.0)


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
    positive and finite, and a and b are nondecreasing paths on [0, T].
    """
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (topology.K,) or not np.all(np.isfinite(q0) & (q0 >= 0)):
        raise ValueError(f"initial state must be {topology.K} finite nonnegative numbers, "
                         f"got q0={q0}")
    if not (0 < T < np.inf and 0 < h < np.inf):
        raise ValueError(f"horizon and step must be positive and finite, got T={T}, h={h}")
    if a.horizon < T - 1e-12 or b.horizon < T - 1e-12:
        raise ValueError(f"inputs must be defined on [0, T], got T={T} and inputs a, b "
                         f"ending at {a.horizon}, {b.horizon}")
    if not a.is_nondecreasing(atol=1e-12) or not b.is_nondecreasing(atol=1e-12):
        raise ValueError("cumulative inputs a and b must be nondecreasing")
    K, M = topology.K, topology.M
    n_steps = max(1, int(np.ceil(T / h - 1e-12)))
    ts = np.linspace(0.0, T, n_steps + 1)
    q_hist = np.empty((n_steps + 1, K))
    e_hist = np.zeros((n_steps + 1, K * M))
    d_hist = np.zeros((n_steps + 1, K))
    q_hist[0] = q0
    a_vals = a(ts)
    b_vals = b(ts)
    q = q0.copy()
    e_cum = np.zeros((K, M))
    d_cum = np.zeros(K)
    for j in range(n_steps):
        da = np.maximum(a_vals[j + 1] - a_vals[j], 0.0)
        db = np.maximum(b_vals[j + 1] - b_vals[j], 0.0)
        e_step, d_step, q = fluid_route_step(q, da, db, topology)
        e_cum += e_step
        d_cum += d_step
        q_hist[j + 1] = q
        e_hist[j + 1] = e_cum.ravel()
        d_hist[j + 1] = d_cum
    return FluidSolution(
        queue=PiecewisePath(ts, q_hist),
        routed=PiecewisePath(ts, e_hist),
        departed=PiecewisePath(ts, d_hist),
    )


def lyapunov_check(sol1: FluidSolution, sol2: FluidSolution) -> float:
    """Largest positive increment of the L1 distance between the two queues.

    Both solutions must share the same time grid (same inputs and step); the
    continuum result says the distance is nonincreasing, so the return value
    should vanish with the step size.
    """
    t1, t2 = sol1.queue.breakpoints, sol2.queue.breakpoints
    if len(t1) != len(t2) or not np.allclose(t1, t2):
        raise ValueError("solutions have mismatched time grids")
    V = np.abs(sol1.queue.values - sol2.queue.values).sum(axis=1)
    inc = np.diff(V)
    return float(max(inc.max(initial=0.0), 0.0))

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
takes every increment from one vectorized difference, and then runs a loop
that does only the float operations of the private ``_step`` and ``_fill``,
in their order, so its path is theirs bit for bit.  Per step it takes one
``tolist`` of each increment row; a stream with one queue fills in closed
form (``_fill_one``), a stream with two in straight-line code
(``_fill_two``), and a wider one calls ``_fill``.  The step keeps no
container of its own: it appends its levels and departures to flat
``array('d')`` buffers and writes its routed mass into a preallocated one,
because a list or numpy row kept per step costs more than the arithmetic,
and a growing heap of lists makes the garbage collector pause.  The buffers
become arrays once, and the routed and departed mass accumulate with one
cumulative sum.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewisePath
from .topology import TIE_RTOL, Topology, positive, tie_level, vector


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


def _fill_one(level: float, width: float, mass: float) -> float:
    """``_fill`` on one bin, in closed form: the same float operations."""
    gap = (level + mass / width) - level
    x = (0.0 if gap < 0.0 else gap) * width
    return x + (mass - x)


def _fill_two(l0: float, l1: float, w0: float, w1: float, mass: float) -> tuple:
    """``_fill`` on two bins, straight-line: the same float operations in the
    same order, so the same bits."""
    # sorted() is stable, so bin 1 goes first only when strictly lower
    swap = l1 < l0
    lo, hi, w_lo, w_hi = (l1, l0, w1, w0) if swap else (l0, l1, w0, w1)
    if hi <= lo + TIE_RTOL * abs(lo):
        both = True
        level = lo + mass / (w_lo + w_hi)
    else:
        need = w_lo * (hi - lo)
        both = need < mass
        level = hi + (mass - need) / (w_lo + w_hi) if both else lo + mass / w_lo
    gap = level - lo
    x_lo = (0.0 if gap < 0.0 else gap) * w_lo
    x_hi = 0.0
    if both:
        gap = level - hi
        x_hi = (0.0 if gap < 0.0 else gap) * w_hi
    x0, x1 = (x_hi, x_lo) if swap else (x_lo, x_hi)
    total = x0 + x1
    drift = mass - total
    # the drift goes to the first largest bin, or at a zero total to the
    # lower one
    if (x1 > x0) if total > 0 else swap:
        return x0, x1 + drift
    return x0 + drift, x1


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
    argument, so that the signs of zeros match too.  ``fluid_solve`` does
    not call it: its loop runs the same float operations on flat buffers
    (see the module docstring).  This step and ``_fill`` stay the reference
    that the tests hold that loop to.
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
    positive and finite with a finite ratio T/h, and a (M columns) and b (K
    columns) are nondecreasing paths on [0, T].
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
    if T / h == math.inf:
        raise ValueError(f"horizon T={T!r} and step h={h!r} give T/h = inf steps")
    n_steps = max(1, int(np.ceil(T / h - 1e-12)))
    ts = np.linspace(0.0, T, n_steps + 1)
    da = np.maximum(np.diff(a(ts), axis=0), 0)
    db = np.maximum(np.diff(b(ts), axis=0), 0)
    # flat buffers, row j holding step j; e and d rows are increments until
    # the cumulative sums below, and their row 0 stays zero; ``row`` is the
    # offset of step j's routed row
    q = q0.tolist()
    q_buf = array("d", q)
    e_buf = array("d", [0.0]) * (K * M * (n_steps + 1))
    d_buf = array("d", [0.0] * K)
    plan = [(m, len(ks), ks, ws, [k * M + m for k in ks])
            for m, (ks, ws) in enumerate(topology.routes)]
    row = 0
    for da_j, db_j in zip(da, db):
        da_j = da_j.tolist()
        row += K * M
        for m, width, ks, ws, cols in plan:
            mass = da_j[m]
            if mass == 0:
                continue
            if width == 1:
                k = ks[0]
                x = _fill_one(q[k] / ws[0], ws[0], mass)
                e_buf[row + cols[0]] = x
                q[k] += x
                continue
            if width == 2:
                (k0, k1), (w0, w1) = ks, ws
                alloc = _fill_two(q[k0] / w0, q[k1] / w1, w0, w1, mass)
            else:
                alloc = _fill([q[k] / w for k, w in zip(ks, ws)], ws, mass)
            for k, c, x in zip(ks, cols, alloc):
                e_buf[row + c] = x
                q[k] += x
        for k, s in enumerate(db_j.tolist()):
            v = q[k]
            x = s if s < v else v
            d_buf.append(x)
            v -= x
            q[k] = v if v > 0.0 else 0.0
        q_buf.fromlist(q)
    shape = (n_steps + 1, -1)
    return FluidSolution(
        queue=PiecewisePath(ts, np.frombuffer(q_buf).reshape(shape)),
        routed=PiecewisePath(ts, np.cumsum(np.frombuffer(e_buf).reshape(shape), axis=0)),
        departed=PiecewisePath(ts, np.cumsum(np.frombuffer(d_buf).reshape(shape), axis=0)),
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

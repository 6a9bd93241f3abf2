"""Path action functional and desk-scale large-deviation verification.

``path_action`` integrates the local rate along a piecewise-linear queue
trajectory, splitting each segment exactly where the domain of constant
dynamics changes, so the integrand is constant on every evaluated piece.
``minimize_action`` searches piecewise-linear paths into a rare-event set;
``estimate_rare_event`` measures the same events by direct Monte Carlo and
extrapolates the decay rate in 1/n.  The event, ``RareEventSpec``, is
defined in ``sim`` (and re-exported here), whose ``count_hits`` lays out,
draws and counts its replicates on every net: this module keeps only the
statistics of the hit counts.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .cost import INF, PoissonCost
from .fluid import fluid_solve
from .piecewise import PiecewisePath
from .rate import DomainLabel, local_rate
from .sim import RareEventSpec, count_hits
from .topology import Topology, count, positive, vector


class NoFiniteStartError(RuntimeError):
    """Raised when the path search does not reach the event at finite action."""


class TooFewHitsError(ValueError):
    """Raised when the smallest scale of a Monte Carlo run gets fewer than 10 hits."""


@dataclass
class ActionSegment:
    t0: float
    t1: float
    label: DomainLabel
    rate: float


@dataclass
class ActionReport:
    total: float
    segments: list[ActionSegment] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "segments": [
                {"t0": s.t0, "t1": s.t1, "L": s.rate, "domain": s.label.to_dict()}
                for s in self.segments
            ],
        }


def _segment_split_times(p: np.ndarray, v: np.ndarray, t0: float, t1: float,
                         topology: Topology) -> list[float]:
    """Interior times where q(t) = p + (t - t0) v crosses a domain boundary.

    Boundaries are zero crossings of coordinates and equalities of weighted
    levels within a stream; both are linear in t.
    """
    cuts: set[float] = set()

    def add_root(c0: float, c1: float):
        # root of c0 + (t - t0) * c1 = 0 inside (t0, t1)
        if c1 == 0.0:
            return
        t = t0 - c0 / c1
        if t0 + 1e-14 < t < t1 - 1e-14:
            cuts.add(t)

    for k in range(topology.K):
        add_root(p[k], v[k])
    for ks, ws in topology.routes:
        for i, (k, wk) in enumerate(zip(ks, ws)):
            for l, wl in zip(ks[i + 1:], ws[i + 1:]):
                add_root(p[k] / wk - p[l] / wl, v[k] / wk - v[l] / wl)
    return sorted(cuts)


def path_action(
    q: PiecewisePath,
    topology: Topology,
    cost: PoissonCost,
    tol: float = 1e-8,
) -> ActionReport:
    """Integral of the local rate along the path over its own time span.

    Within each constant-domain piece of a linear segment the rate is
    constant, so it is solved once, at the piece's midpoint: one rate
    solve per piece and none more.  What resting at the end point would
    cost is not priced; it is ``local_rate(q(T), 0)``.  Raises ValueError
    unless the path has one column per queue.
    """
    if q.dim != topology.K:
        raise ValueError(f"path q must have {topology.K} columns, one per queue, "
                         f"got {q.dim}")
    if np.any(q.values < 0):
        return ActionReport(total=INF)
    total = 0.0
    segments: list[ActionSegment] = []
    slopes = q.slopes()
    for j in range(len(q.breakpoints) - 1):
        t0, t1 = float(q.breakpoints[j]), float(q.breakpoints[j + 1])
        p = q.values[j]
        v = slopes[j]
        knots = [t0] + _segment_split_times(p, v, t0, t1, topology) + [t1]
        for a, b in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (a + b)
            x = p + (mid - t0) * v
            x = np.maximum(x, 0.0)
            w = local_rate(x, v, topology, cost, tol)
            segments.append(ActionSegment(a, b, w.label, w.value))
            if not math.isfinite(w.value):
                return ActionReport(total=INF, segments=segments)
            total += (b - a) * w.value
    return ActionReport(total=total, segments=segments)


# ---------------------------------------------------------------------------
# Rare events
# ---------------------------------------------------------------------------

def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for ``hits`` successes in ``n`` trials; (0, 1)
    when n == 0, and when z * z overflows a float, which is its limit as z
    grows.  Its lower end is exactly 0 at no hit, and its upper end
    exactly 1 when every trial hits.  Raises ValueError unless hits and n
    are integers with 0 <= hits <= n and z is positive and finite."""
    # two integers are compared as a pair; ``count`` names anything else
    if all(isinstance(v, numbers.Integral) for v in (hits, n)) and not 0 <= hits <= n:
        raise ValueError(f"hits must lie in [0, n], got hits={hits}, n={n}")
    hits, n = count(hits, "hits", least=0), count(n, "n", least=0)
    z = positive(z, "z")
    if n == 0 or z * z == math.inf:
        return 0.0, 1.0
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # the ends are 0 at no hit and 1 at n hits, which rounding misses
    lo = max(center - half, 0.0) if hits else 0.0
    hi = min(center + half, 1.0) if hits < n else 1.0
    return lo, hi


def _check_counts(scales: list[int], reps: list[int]) -> None:
    """Raise ValueError unless there is one replication count per scale, at
    least one scale, every scale and count is an integer >= 1, and no scale
    repeats (a repeated scale reruns the same replicates)."""
    if len(reps) != len(scales):
        raise ValueError(f"one replication count per scale required, got reps={reps}")
    try:
        for v in [*scales, *reps]:
            count(v, "entry")
        ok = len(scales) > 0
    except ValueError:
        ok = False
    if not ok:
        raise ValueError("scales and replication counts must be integers, at least 1, "
                         f"got scales={scales}, reps={reps}")
    if len(set(map(int, scales))) < len(scales):
        raise ValueError(f"each scale must appear once, got scales={scales}")


def estimate_rare_event(
    event: RareEventSpec,
    topology: Topology,
    scales: list[int],
    reps: list[int],
    seed: int = 0,
) -> dict:
    """Direct Monte Carlo decay-rate table plus a linear fit in 1/n.

    Zero-hit scales yield a one-sided Wilson bound and are excluded from the
    fit; the fitted intercept of rate = I + c/n is the reported empirical
    rate.  Raises ValueError unless there is one replication count per
    scale, every scale and count is an integer >= 1 and no scale repeats,
    the seed an integer >= 0 and the event's queue one of the topology's,
    and TooFewHitsError when the smallest scale gets fewer than 10 hits.
    """
    _check_counts(scales, reps)
    seed = count(seed, "seed", least=0)
    rows = []
    for n, R in zip(map(int, scales), map(int, reps)):
        hits = count_hits(topology, event, n, seed, R)
        lo, hi = wilson_interval(hits, R)
        phat = hits / R
        row = {
            "n": n,
            "reps": R,
            "hits": hits,
            "p_hat": phat,
            "ci_low": lo,
            "ci_high": hi,
        }
        if hits > 0:
            row["rate"] = -math.log(phat) / n
            # 0.0 - log(1) / n is 0.0, where -log(1) / n would be -0.0
            row["rate_ci"] = (0.0 - math.log(hi) / n, -math.log(lo) / n)
        else:
            row["rate"] = None
            row["rate_lower_bound"] = -math.log(hi) / n if hi > 0 else INF
        rows.append(row)
    # enforce the expected-hits precondition at the smallest scale
    smallest = min(rows, key=lambda r: r["n"])
    if smallest["hits"] < 10:
        raise TooFewHitsError(
            f"replication count too low: {smallest['hits']} hits at the smallest scale "
            f"n={smallest['n']}, fewer than 10"
        )
    pts = [(r["n"], r["rate"]) for r in rows if r["rate"] is not None]
    fit = None
    if len(pts) >= 2:
        ns = np.array([p[0] for p in pts], dtype=float)
        rates = np.array([p[1] for p in pts])
        A = np.vstack([np.ones_like(ns), 1.0 / ns]).T
        coef, *_ = np.linalg.lstsq(A, rates, rcond=None)
        fit = {"intercept": float(coef[0]), "slope": float(coef[1]),
               "scales_used": [int(v) for v in ns]}
    return {"event": event.__dict__ | {"queue": event.queue + 1},
            "scales": rows, "fit": fit, "seed": seed}


# ---------------------------------------------------------------------------
# Variational upper bound
# ---------------------------------------------------------------------------

def _pattern_search(f, x0: np.ndarray, step0: float, tol: float = 1e-6,
                    max_iter: int = 4000) -> tuple[np.ndarray, float]:
    """Compass pattern search: axis moves, halve the step on failure."""
    x = x0.copy()
    fx = f(x)
    step = step0
    it = 0
    while step > tol and it < max_iter:
        improved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                it += 1
                trial = x.copy()
                trial[i] += sgn * step
                ft = f(trial)
                if ft < fx - 1e-15:
                    x, fx = trial, ft
                    improved = True
        if not improved:
            step *= 0.5
    return x, fx


def minimize_action(
    event: RareEventSpec,
    topology: Topology,
    cost: PoissonCost,
    segments: int = 1,
    q0=None,
    seed: int = 0,
) -> tuple[PiecewisePath, float]:
    """Best piecewise-linear path into a terminal-threshold event.

    Searches interior breakpoint values (and non-threshold terminal
    coordinates) by one deterministic compass pattern search from the
    straight path; the returned action is an upper bound on the infimum
    over the event, not a global certificate.  ``seed`` is checked but has
    no effect.  Raises ValueError for an event that is not terminal or
    names no queue of the topology, for a q0 that is not K finite
    nonnegative numbers, and unless segments is an integer >= 1 and seed an
    integer >= 0.  Raises NoFiniteStartError when the search ends at
    infinite action, as when the only finite paths run along a weighted
    tie.
    """
    if event.kind != "terminal":
        raise ValueError(f"the path search supports only terminal events, got {event.kind!r}")
    event.check_queue(topology)
    count(segments, "segments")
    count(seed, "seed", least=0)
    K = topology.K
    q0 = np.zeros(K) if q0 is None else vector(q0, K, "initial state q0")
    ts = np.linspace(0.0, event.T, segments + 1)

    # check the zero-cost fluid path first: if it already realizes the event
    # the infimum is 0
    a_nom = PiecewisePath.cumulative_linear(topology.lam, event.T)
    b_nom = PiecewisePath.cumulative_linear(topology.mu, event.T)
    fl = fluid_solve(topology, q0, a_nom, b_nom, event.T, event.T / 1000)
    if fl.queue.values[-1][event.queue] >= event.threshold - 1e-12:
        return fl.queue, 0.0

    others = [k for k in range(K) if k != event.queue]

    def build_path(z: np.ndarray) -> PiecewisePath:
        vals = np.empty((segments + 1, K))
        vals[0] = q0
        interior = z[: (segments - 1) * K].reshape(segments - 1, K)
        vals[1:segments] = interior
        term = np.empty(K)
        term[event.queue] = event.threshold
        term[others] = z[(segments - 1) * K:]
        vals[segments] = term
        return PiecewisePath(ts, np.maximum(vals, 0.0))

    def objective(z: np.ndarray) -> float:
        return path_action(build_path(z), topology, cost).total

    frac = ts[1:segments] / event.T
    straight = q0[None, :] * (1 - frac[:, None])
    straight[:, event.queue] += frac * event.threshold
    z0 = np.concatenate([straight.ravel(), q0[others]])
    z, fz = _pattern_search(objective, z0, step0=0.25 * max(event.threshold, 1.0))
    if not math.isfinite(fz):
        raise NoFiniteStartError(
            f"the path search does not reach queue {event.queue + 1} >= "
            f"{event.threshold} at finite action"
        )
    return build_path(z), float(fz)

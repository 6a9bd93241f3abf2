"""Path action functional and desk-scale large-deviation verification.

``path_action`` integrates the local rate along a piecewise-linear queue
trajectory, splitting each segment exactly where the domain of constant
dynamics changes, so the integrand is constant on every evaluated piece.
``minimize_action`` searches piecewise-linear paths into a rare-event set;
``estimate_rare_event`` measures the same events by direct Monte Carlo and
extrapolates the decay rate in 1/n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost import CostModel, INF
from .piecewise import PiecewisePath
from .rate import DomainLabel, classify_domain, local_rate
from .sim import _replicate_statistics
from .topology import Topology


@dataclass
class ActionSegment:
    t0: float
    t1: float
    label: DomainLabel
    rate: float


@dataclass
class ActionReport:
    total: float
    initial: float
    running: float
    segments: list[ActionSegment] = field(default_factory=list)
    tail_open: bool = False

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "initial": self.initial,
            "running": self.running,
            "tail_open": self.tail_open,
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
    for m in range(topology.M):
        ks = sorted(topology.admissible[m])
        for i, k in enumerate(ks):
            wk = topology.weight(k, m)
            for l in ks[i + 1:]:
                wl = topology.weight(l, m)
                add_root(p[k] / wk - p[l] / wl, v[k] / wk - v[l] / wl)
    return sorted(cuts)


def path_action(
    q: PiecewisePath,
    topology: Topology,
    cost: CostModel,
    i_q0=None,
    tol: float = 1e-8,
) -> ActionReport:
    """Initial cost plus the integral of the local rate along the path.

    ``i_q0`` maps the initial state to its cost (default 0).  Within each
    constant-domain piece of a linear segment the rate is constant and
    evaluated once at the midpoint.
    """
    initial = 0.0 if i_q0 is None else float(i_q0(q.values[0]))
    if np.any(q.values < 0):
        return ActionReport(total=INF, initial=initial, running=INF)
    if not math.isfinite(initial):
        return ActionReport(total=INF, initial=initial, running=0.0)
    running = 0.0
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
                return ActionReport(
                    total=INF, initial=initial, running=INF, segments=segments
                )
            running += (b - a) * w.value
    tail = local_rate(np.maximum(q.values[-1], 0.0), np.zeros(topology.K),
                      topology, cost, tol)
    tail_open = not (math.isfinite(tail.value) and tail.value <= 1e-9)
    return ActionReport(
        total=initial + running,
        initial=initial,
        running=running,
        segments=segments,
        tail_open=tail_open,
    )


# ---------------------------------------------------------------------------
# Rare events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RareEventSpec:
    """Threshold event on the scaled queue path over [0, T].

    kind 'terminal': scaled queue ``queue`` at time T is >= threshold;
    kind 'running_max': its running maximum over [0, T] is >= threshold.
    ``queue`` is 0-based internally.
    """

    kind: str
    queue: int
    threshold: float
    T: float

    def __post_init__(self):
        if self.kind not in ("terminal", "running_max"):
            raise ValueError("event kind must be 'terminal' or 'running_max'")

    @staticmethod
    def parse(text: str) -> "RareEventSpec":
        """Parse 'terminal:k=1,c=1,T=1' style event descriptions."""
        kind, _, rest = text.partition(":")
        try:
            fields = dict(part.split("=") for part in rest.split(",") if part)
            return RareEventSpec(
                kind=kind.strip(),
                queue=int(fields.get("k", 1)) - 1,
                threshold=float(fields["c"]),
                T=float(fields.get("T", 1)),
            )
        except KeyError as exc:
            raise ValueError(f"event {text!r} lacks the field {exc}") from None
        except ValueError as exc:
            raise ValueError(f"invalid event {text!r}: {exc}") from exc


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _reflected_queue(counts: np.ndarray, jumps: np.ndarray, kind: str) -> np.ndarray:
    """Per-replicate queue statistic from jumps laid end to end.

    Replicate ``r`` owns the next ``counts[r]`` entries of the +/-1 array
    ``jumps``.  The walk is their cumulative sum with a leading 0, so the
    replicate owns the slice ``walk[start:end+1]`` and shares its last entry
    with the next replicate's first.  The queue is the Lindley reflection of
    that slice: its terminal value is ``walk[end] - min(slice)`` and its
    running maximum is the largest rise within the slice.  ``kind`` is
    'terminal' or 'running_max'.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    bound = int(counts.max(initial=0)) + 1
    # int32 holds walk - r*bound below: a batch of _count_hits_mm1 keeps it
    # under ~2**25 unless one replicate makes ~2**30 jumps (8 GB of uniforms)
    walk = np.zeros(len(jumps) + 1, dtype=np.int32)
    np.cumsum(jumps, dtype=np.int32, out=walk[1:])
    last = walk[ends]
    # reduceat over [start, next start) omits the shared end entry
    q_end = last - np.minimum(np.minimum.reduceat(walk, starts), last)
    if kind == "terminal":
        return q_end
    # Subtracting r*bound on replicate r's entries puts each start below
    # everything before it (the walk climbs at most max(counts) within one
    # replicate), so one running minimum restarts at every replicate.
    lengths = counts.copy()
    lengths[-1] += 1
    shifted = walk - np.repeat(np.arange(len(counts), dtype=np.int32) * np.int32(bound), lengths)
    rise = shifted - np.minimum.accumulate(shifted)
    return np.maximum(np.maximum.reduceat(rise, starts), q_end)


def _count_hits_mm1(event: RareEventSpec, lam: float, mu: float, n: int,
                    reps: int, seed: int) -> int:
    """Vectorized replication counting for the single-queue empty-start case.

    The queue is a Lindley reflection of the +/-1 jump walk.  A batch draws
    a Poisson jump count per replicate, then exactly that many jumps in one
    flat array (float64 uniforms against lam/(lam+mu)), with no padding; see
    ``_reflected_queue``.  Batches hold about 2**20 expected jumps, so memory
    does not grow with n, and batch ``b`` draws from its own PCG64 stream
    seeded with ``SeedSequence([seed, b])``.
    """
    total_rate = lam + mu
    tau = n * event.T
    level = int(math.ceil(n * event.threshold - 1e-9))
    batch = max(1, int(2**20 // max(1.0, total_rate * tau)))
    hits = 0
    for batch_id, done in enumerate(range(0, reps, batch)):
        size = min(batch, reps - done)
        rng = np.random.default_rng([seed, batch_id])
        counts = rng.poisson(total_rate * tau, size)
        # +/-1 in place on the comparison's bytes: np.where costs ~10x more
        jumps = (rng.random(int(counts.sum())) < lam / total_rate).view(np.int8)
        jumps *= 2
        jumps -= 1
        hits += int((_reflected_queue(counts, jumps, event.kind) >= level).sum())
    return hits


def _count_hits_generic(event: RareEventSpec, topology: Topology, n: int,
                        reps: int, seed: int) -> int:
    """Replication counting through the simulator's batched observer.

    Batches hold about 2**20 expected events, as in ``_count_hits_mm1``, and
    batch ``b`` is batch ``b`` of the simulator's stream at ``seed``.
    """
    rate = float(topology.lam.sum() + topology.mu.sum())
    batch = max(1, int(2**20 // max(1.0, rate * n * event.T)))
    hits = 0
    for batch_id, done in enumerate(range(0, reps, batch)):
        q_end, q_max = _replicate_statistics(topology, n, event.T, seed, batch_id,
                                             min(batch, reps - done))
        value = (q_end if event.kind == "terminal" else q_max)[:, event.queue]
        hits += int((value >= n * event.threshold - 1e-9).sum())
    return hits


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
    rate.  Requires the expected hit count at the smallest scale to be >= 10.
    """
    if len(reps) != len(scales):
        raise ValueError("one replication count per scale required")
    if not 0 <= event.queue < topology.K:
        raise ValueError(f"event queue {event.queue + 1} is not one of the {topology.K} queues")
    fast = (
        topology.K == 1
        and topology.M == 1
        and topology.lam[0] > 0
    )
    rows = []
    for n, R in zip(scales, reps):
        if fast:
            hits = _count_hits_mm1(event, float(topology.lam[0]), float(topology.mu[0]), n, R, seed)
        else:
            hits = _count_hits_generic(event, topology, n, R, seed)
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
            row["rate_ci"] = (-math.log(hi) / n, -math.log(lo) / n)
        else:
            row["rate"] = None
            row["rate_lower_bound"] = -math.log(hi) / n if hi > 0 else INF
        rows.append(row)
    # enforce the expected-hits precondition at the smallest scale
    smallest = min(rows, key=lambda r: r["n"])
    if smallest["hits"] < 10:
        raise ValueError(
            "replication count too low: fewer than 10 hits at the smallest scale"
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
    cost: CostModel,
    segments: int = 1,
    q0=None,
    starts: int = 8,
    seed: int = 0,
    tol: float = 1e-8,
) -> tuple[PiecewisePath, float]:
    """Best piecewise-linear path into a terminal-threshold event.

    Searches interior breakpoint values (and non-threshold terminal
    coordinates) by seeded multistart pattern search; the returned action is
    an upper bound on the infimum over the event, not a global certificate.
    """
    if event.kind != "terminal":
        raise ValueError("only terminal-threshold events are supported")
    if segments < 1:
        raise ValueError("need at least one segment")
    K = topology.K
    q0 = np.zeros(K) if q0 is None else np.asarray(q0, dtype=float)
    ts = np.linspace(0.0, event.T, segments + 1)

    # check the zero-cost fluid path first: if it already realizes the event
    # the infimum is 0
    from .fluid import fluid_solve

    a_nom = PiecewisePath.cumulative_linear(topology.lam, event.T)
    b_nom = PiecewisePath.cumulative_linear(topology.mu, event.T)
    fl = fluid_solve(topology, q0, a_nom, b_nom, event.T, event.T / 1000)
    if fl.queue.values[-1][event.queue] >= event.threshold - 1e-12:
        return fl.queue, 0.0

    n_free = (segments - 1) * K + (K - 1)

    def build_path(z: np.ndarray) -> PiecewisePath:
        vals = np.empty((segments + 1, K))
        vals[0] = q0
        interior = z[: (segments - 1) * K].reshape(segments - 1, K)
        vals[1:segments] = interior
        term = np.empty(K)
        term[event.queue] = event.threshold
        others = [k for k in range(K) if k != event.queue]
        term[others] = z[(segments - 1) * K:]
        vals[segments] = term
        return PiecewisePath(ts, np.maximum(vals, 0.0))

    def objective(z: np.ndarray) -> float:
        return path_action(build_path(z), topology, cost, tol=tol).total

    rng = np.random.default_rng(seed)
    best_z, best_f = None, INF
    for s in range(max(starts, 1)):
        z0 = np.empty(n_free)
        frac = ts[1:segments] / event.T
        straight = q0[None, :] * (1 - frac[:, None])
        straight[:, event.queue] += frac * event.threshold
        z0[: (segments - 1) * K] = straight.ravel()
        others = [k for k in range(K) if k != event.queue]
        z0[(segments - 1) * K:] = q0[others]
        if s > 0:
            z0 = np.maximum(z0 + rng.normal(0, 0.3 * max(event.threshold, 1.0), n_free), 0.0)
        if n_free == 0:
            f0 = objective(z0)
            if f0 < best_f:
                best_z, best_f = z0, f0
            continue
        z, fz = _pattern_search(objective, z0, step0=0.25 * max(event.threshold, 1.0))
        if fz < best_f:
            best_z, best_f = z, fz
    return build_path(best_z), float(best_f)

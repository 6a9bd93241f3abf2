"""Exact discrete-event simulation of the weighted JSQ network.

Arrival streams and autonomous per-server service clocks are independent
Poisson processes; a service tick removes a customer only when one is
present, but is always counted.  By superposition the clocks are sampled as
one uniformized stream, in place of one stream per clock: a run has
Poisson(Λ n T) events with Λ = Σλ + Σμ, and each event belongs to clock c
with probability rate_c / Λ.  The draws come from PCG64 streams seeded with
``SeedSequence([seed, batch])``, batch 0 for ``simulate`` and
``terminal_statistics``, so runs are reproducible bit-for-bit.  One scalar
loop routes the events of any number of replicates laid end to end; numpy
observers turn its output into full paths (``simulate``) or per-replicate
terminal values and running maxima (``terminal_statistics`` and the
rare-event estimator).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .piecewise import PiecewisePath
from .topology import Topology


class TieRule(enum.Enum):
    LOWEST_INDEX = "lowest"
    UNIFORM_RANDOM = "uniform"


@dataclass
class SamplePath:
    """Unscaled event history of one run at scale n.

    Row j of each array is the state just after the j-th event (row 0 is the
    initial state).  ``queues`` is the queue-length vector; ``arrivals``,
    ``services``, ``departures`` and ``routed`` are the cumulative counters
    per stream, per server, per server and per (server, stream) pair.
    """

    n: int
    seed: int
    times: np.ndarray
    queues: np.ndarray       # (E+1, K)
    arrivals: np.ndarray     # (E+1, M)
    services: np.ndarray     # (E+1, K)
    departures: np.ndarray   # (E+1, K)
    routed: np.ndarray       # (E+1, K, M)
    horizon: float           # unscaled

    @property
    def K(self) -> int:
        return self.queues.shape[1]

    @property
    def M(self) -> int:
        return self.arrivals.shape[1]


def _initial_queues(topology: Topology, n: int, T: float, q0_scaled) -> np.ndarray:
    """floor(n * q0_scaled), after checking the arguments of a run."""
    if n < 1:
        raise ValueError("scale must be >= 1")
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"horizon must be finite and nonnegative, got {T!r}")
    if q0_scaled is None:
        return np.zeros(topology.K, dtype=np.int64)
    q0 = np.asarray(q0_scaled, dtype=float)
    if q0.shape != (topology.K,):
        raise ValueError(f"initial state must have {topology.K} entries, got shape {q0.shape}")
    if not (np.all(np.isfinite(q0)) and np.all(q0 >= 0)):
        raise ValueError(f"initial state must be finite and nonnegative, got {q0}")
    return np.floor(n * q0).astype(np.int64)


def _draw(topology: Topology, n: int, T: float, seed: int, batch: int, reps: int,
          tie_rule: TieRule):
    """Event counts, clocks and tie uniforms of ``reps`` replicates on [0, nT].

    Clocks 0..M-1 are the arrival streams and M..M+K-1 the servers; an event
    takes the clock whose share of the cumulative rates its uniform falls in,
    so a clock of rate 0 is never chosen.  Tie uniforms (``UNIFORM_RANDOM``
    only) are interleaved with the clock uniforms.  Counts and events come
    from two streams spawned from ``SeedSequence([seed, batch])``, so a
    replicate's events do not depend on how many replicates follow it.  The
    event stream is returned for callers that draw more from it.
    """
    rates = np.concatenate([topology.lam, topology.mu])
    count_rng, event_rng = map(np.random.default_rng,
                               np.random.SeedSequence([seed, batch]).spawn(2))
    counts = count_rng.poisson(rates.sum() * n * T, reps)
    width = 2 if tie_rule is TieRule.UNIFORM_RANDOM else 1
    u = event_rng.random((int(counts.sum()), width))
    shares = np.cumsum(rates)
    clocks = np.searchsorted(shares / shares[-1], u[:, 0], side="right")
    return counts, clocks, (u[:, 1] if width == 2 else None), event_rng


def _route(topology: Topology, q0: np.ndarray, counts: np.ndarray, clocks: np.ndarray,
           ties: np.ndarray | None) -> np.ndarray:
    """The queue each event joins or leaves; -1 for a tick at an empty server.

    Replicate r owns the next ``counts[r]`` events and starts from ``q0``.
    An arrival of stream m joins a queue of least weighted level in S_m,
    compared exactly as Q_k * level_multiplier; among the tied queues, in
    index order, it takes position floor(u * #tied) for the event's tie
    uniform u, which is 0 (the lowest index) when ``ties`` is None.
    """
    M = topology.M
    choices = [sorted(topology.level_multipliers(m).items()) for m in range(M)]
    moves: list[int] = []
    emit = moves.append
    events = iter(clocks.tolist())
    draws = repeat(0.0) if ties is None else iter(ties.tolist())
    start = q0.tolist()
    for count in counts.tolist():
        q = start.copy()
        for c, u in zip(islice(events, count), islice(draws, count)):
            if c >= M:
                k = c - M
                if q[k]:
                    q[k] -= 1
                    emit(k)
                else:
                    emit(-1)
                continue
            k = -1
            for j, mult in choices[c]:
                v = q[j] * mult
                if k < 0 or v < best:
                    k, best = j, v
            if u:  # position 0 is the lowest index, found above
                tied = [j for j, mult in choices[c] if q[j] * mult == best]
                k = tied[int(u * len(tied))]
            q[k] += 1
            emit(k)
    return np.array(moves, dtype=np.intp)


def _walk(topology: Topology, clocks: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """Running sum of the events' queue changes, with a leading zero row.

    Row j is the change of the queue vector over the first j events: an
    arrival adds one customer to the queue it joined and a departure removes
    one.
    """
    changed = np.flatnonzero(moves >= 0)
    step = np.zeros((len(moves) + 1, topology.K), dtype=np.int32)
    step[changed + 1, moves[changed]] = np.where(clocks[changed] < topology.M, 1, -1)
    return np.cumsum(step, axis=0, out=step)


def simulate(
    topology: Topology,
    n: int,
    T: float,
    seed: int,
    tie_rule: TieRule = TieRule.LOWEST_INDEX,
    q0_scaled=None,
) -> SamplePath:
    """Run the n-th system on unscaled time [0, n*T].

    The initial queue vector is floor(n * q0_scaled).  Identical arguments
    reproduce identical paths.  Given its event count, a Poisson process's
    event times are sorted uniforms, so the times are drawn last, after the
    events that ``terminal_statistics`` shares.  Raises ``ValueError`` for
    n < 1, a negative or non-finite T, or a q0 that is negative, non-finite
    or not one entry per queue.
    """
    K, M = topology.K, topology.M
    q0 = _initial_queues(topology, n, T, q0_scaled)
    counts, clocks, ties, rng = _draw(topology, n, T, seed, 0, 1, tie_rule)
    moves = _route(topology, q0, counts, clocks, ties)
    # one column per clock, per (server, stream) pair and per server: the
    # cumulative sums of one-hot event rows are A and B, E and D
    rows = np.arange(1, len(moves) + 1)
    arrival = clocks < M
    departure = ~arrival & (moves >= 0)
    ticks = np.zeros((len(rows) + 1, M + K + K * M + K), dtype=np.int64)
    ticks[rows, clocks] = 1
    ticks[rows[arrival], M + K + moves[arrival] * M + clocks[arrival]] = 1
    ticks[rows[departure], M + K + K * M + moves[departure]] = 1
    totals = np.cumsum(ticks, axis=0)
    routed = totals[:, M + K:M + K + K * M].reshape(-1, K, M)
    departures = totals[:, M + K + K * M:]
    return SamplePath(
        n=n,
        seed=seed,
        times=np.concatenate([[0.0], np.sort(rng.random(len(moves))) * (n * T)]),
        queues=q0 + _walk(topology, clocks, moves),
        arrivals=totals[:, :M],
        services=totals[:, M:M + K],
        departures=departures,
        routed=routed,
        horizon=n * T,
    )


def audit(path: SamplePath, topology: Topology) -> None:
    """Check the exact balance identities at every event; raises on failure."""
    K = path.K
    q0 = path.queues[0]
    routed_in = path.routed.sum(axis=2)  # incidence sums: off-support entries are 0
    recon = q0[None, :] + routed_in - path.departures
    if not np.array_equal(recon, path.queues):
        raise AssertionError("queue balance identity violated")
    per_stream = path.routed.sum(axis=1)
    if not np.array_equal(per_stream, path.arrivals):
        raise AssertionError("arrival routing identity violated")
    for arr in (path.arrivals, path.services, path.departures):
        if np.any(np.diff(arr, axis=0) < 0):
            raise AssertionError("counters must be nondecreasing")
    if np.any(path.queues < 0):
        raise AssertionError("queues must be nonnegative")
    # departures only at service jumps with a customer present
    dB = np.diff(path.services, axis=0)
    dD = np.diff(path.departures, axis=0)
    if np.any(dD > dB):
        raise AssertionError("departure without a service jump")
    pre = path.queues[:-1]
    if np.any((dD == 1) & (pre <= 0)):
        raise AssertionError("departure from an empty queue")
    if np.any((dB == 1) & (pre > 0) & (dD == 0)):
        raise AssertionError("service jump with customer present must depart")


def scale_path(path: SamplePath, grid_step: float = 1e-3) -> PiecewisePath:
    """Scaled queue path Q(n t)/n sampled on a uniform grid of scaled time.

    The underlying step path is right-continuous; sampling keeps the value
    in force at each grid time.
    """
    T = path.horizon / path.n
    ts = np.arange(0.0, T + grid_step / 2, grid_step)
    idx = np.searchsorted(path.times, ts * path.n, side="right") - 1
    vals = path.queues[idx] / path.n
    if len(ts) < 2:
        ts = np.array([0.0, T if T > 0 else 1.0])
        vals = np.vstack([vals, vals])
    return PiecewisePath(ts, vals)


def scale_counters(path: SamplePath, grid_step: float = 1e-3) -> dict[str, np.ndarray]:
    """All scaled processes sampled on a uniform grid, for CSV export."""
    T = path.horizon / path.n
    ts = np.arange(0.0, T + grid_step / 2, grid_step)
    idx = np.searchsorted(path.times, ts * path.n, side="right") - 1
    return {
        "t": ts,
        "Q": path.queues[idx] / path.n,
        "A": path.arrivals[idx] / path.n,
        "B": path.services[idx] / path.n,
        "D": path.departures[idx] / path.n,
        "E": path.routed[idx] / path.n,
    }


def terminal_statistics(
    topology: Topology,
    n: int,
    T: float,
    seed: int,
    tie_rule: TieRule = TieRule.LOWEST_INDEX,
    q0_scaled=None,
) -> tuple[np.ndarray, np.ndarray]:
    """(terminal queue vector, running max per queue), without recording.

    The run is the one ``simulate`` makes with the same arguments, and also
    replicate 0 of the first batch the rare-event estimator draws at
    ``seed``.  Raises ``ValueError`` on the arguments ``simulate`` rejects.
    """
    q_end, q_max = _replicate_statistics(topology, n, T, seed, 0, 1, tie_rule, q0_scaled)
    return q_end[0], q_max[0]


def _replicate_statistics(
    topology: Topology,
    n: int,
    T: float,
    seed: int,
    batch: int,
    reps: int,
    tie_rule: TieRule = TieRule.LOWEST_INDEX,
    q0_scaled=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal queue vectors and running maxima of ``reps`` independent runs.

    Both arrays have shape (reps, K).  The runs are batch ``batch`` of the
    stream seeded by ``seed``.  Replicate r's queue path is ``q0`` plus the
    slice ``walk[start:end+1]`` of the batch's ``_walk`` minus the slice's
    first entry.
    """
    q0 = _initial_queues(topology, n, T, q0_scaled)
    counts, clocks, ties, _ = _draw(topology, n, T, seed, batch, reps, tie_rule)
    moves = _route(topology, q0, counts, clocks, ties)
    walk = _walk(topology, clocks, moves)
    ends = np.cumsum(counts)
    starts = ends - counts
    first, last = walk[starts], walk[ends]
    # reduceat over [start, next start) omits the end entry a replicate shares
    # with the next one, and gives walk[start] for an empty replicate
    top = np.maximum(np.maximum.reduceat(walk, starts, axis=0), last)
    return q0 + (last - first), q0 + (top - first)

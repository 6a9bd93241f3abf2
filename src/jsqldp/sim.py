"""Exact discrete-event simulation of the weighted JSQ network.

Arrival streams and autonomous per-server service clocks are independent
Poisson processes; a service tick removes a customer only when one is
present, but is always counted.  By superposition the clocks are sampled as
one uniformized stream, in place of one stream per clock: a run has
Poisson(Λ n T) events with Λ = Σλ + Σμ, and each event belongs to clock c
with probability rate_c / Λ.  One random byte picks an event's clock; only
an event whose byte straddles a boundary between two clocks' shares (about
1 in 256 per boundary) also draws a float64, so the law stays exact to
2**-53.  The draws come from four PCG64 streams spawned from
``SeedSequence([seed, batch])`` (``_draw``), so runs are reproducible
bit-for-bit.

This module draws every run, including each replicate of the rare-event
estimator, and owns their layout and the threshold event they are counted
against (``RareEventSpec``): ``simulate`` and ``terminal_statistics`` are
replicate 0 of batch 0, and ``count_hits`` splits its replicates into
batches of about 2**20 expected events, numbered 0, 1, ... from the seed.
The events of the replicates are laid end to end, and routing gives each
one a queue: the queue an arrival joins, or the server of a service tick.
The scalar loop ``_route`` routes one run (``simulate`` and
``terminal_statistics``).  A batch of replicates is routed in lock step by
``_route_batch``: one event of every replicate per step, looked up in a
destination table over the grid of queue vectors the batch can reach; a
batch whose table would pass ``TABLE_ENTRIES`` goes to ``_route``, and on a
net where no stream has a choice of queue the clocks alone fix the moves.
Both give the same moves.  Every queue then follows one rule: its raw walk
(``_walk``) is +1 for each arrival it receives and -1 for each tick of its
server, and the queue is that walk from its initial content reflected at
0.  The reflection counts the ticks at an empty server, which depart no
one.  ``simulate`` records full paths from it, and ``_reflected_queue``
reduces it to per-replicate terminal values or running maxima
(``terminal_statistics`` and ``count_hits``).
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .piecewise import PiecewisePath
from .topology import Topology, count, finite, positive, vector


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


def _initial_queues(topology: Topology, n: int, T: float, seed: int,
                    tie_rule: TieRule, q0_scaled) -> np.ndarray:
    """floor(n * q0_scaled), after checking the arguments of a run."""
    count(n, "scale n")
    count(seed, "seed", least=0)
    finite(T, "horizon T", least=0)
    if not isinstance(tie_rule, TieRule):
        raise ValueError(f"tie rule must be a TieRule, got tie_rule={tie_rule!r}")
    if q0_scaled is None:
        return np.zeros(topology.K, dtype=np.int64)
    q0 = vector(q0_scaled, topology.K, "initial state q0_scaled")
    if np.any(n * q0 >= 2.0**63):
        raise ValueError(f"n * q0_scaled must fit an int64, got n={n}, q0_scaled={q0.tolist()}")
    return np.floor(n * q0).astype(np.int64)


def _draw(topology: Topology, n: int, T: float, seed: int, batch: int, reps: int,
          tie_rule: TieRule):
    """Event counts, clocks and tie uniforms of ``reps`` replicates on [0, nT].

    Clocks 0..M-1 are the arrival streams and M..M+K-1 the servers.  An
    event's clock is the number of normalized cumulative shares c_i (all but
    the last, which is 1) at or below its uniform U = (b + v) / 256, so a
    clock of rate 0 is never chosen.  The byte b alone decides cut i unless
    256 c_i is not an integer and b is its floor (about 1 in 256 events per
    cut): the cut counts when 256 c_i <= b and not when 256 c_i >= b + 1.
    Only an undecided event draws its float64 v, one for all the cuts in its
    byte, and counts cut i when v >= 256 c_i - b.  Both 256 c_i and that
    difference are exact, so the law is exact to 2**-53.  Clocks are stored
    in the smallest unsigned dtype.

    ``SeedSequence([seed, batch])`` spawns four streams: the Poisson counts;
    the bytes, raw 64-bit words read as 8 bytes each; the v of the undecided
    events, in event order; and one tie uniform per event (``UNIFORM_RANDOM``
    only).  So a replicate's events do not depend on how many follow it.
    The byte stream is returned for callers that draw more (the event times).
    """
    rates = np.concatenate([topology.lam, topology.mu])
    count_rng, event_rng, split_rng, tie_rng = map(
        np.random.default_rng, np.random.SeedSequence([seed, batch]).spawn(4))
    counts = count_rng.poisson(rates.sum() * n * T, reps)
    events = int(counts.sum())
    b = event_rng.bit_generator.random_raw(-(-events // 8)).view(np.uint8)[:events]
    shares = np.cumsum(rates)
    cuts = (shares[:-1] / shares[-1] * 256).tolist()
    # the first comparison's array becomes the clocks: one more 1 MB
    # temporary per batch made the allocator trim and re-fault its heap on
    # every batch of count_hits
    clocks = (b >= math.ceil(cuts[0])).view(np.uint8).astype(
        np.min_scalar_type(len(rates)), copy=False)
    for cut in cuts[1:]:
        clocks += b >= math.ceil(cut)
    # (byte, 256 c_i - byte) of each cut that splits its byte
    parts = [(math.floor(cut), cut % 1) for cut in cuts if cut % 1]
    if parts:
        hit = b == parts[0][0]
        for byte, _ in parts[1:]:
            hit |= b == byte
        at = np.flatnonzero(hit)
        v, at_byte = split_rng.random(len(at)), b[at]
        for byte, frac in parts:
            clocks[at] += (at_byte == byte) & (v >= frac)
    ties = tie_rng.random(events) if tie_rule is TieRule.UNIFORM_RANDOM else None
    return counts, clocks, ties, event_rng


def _route(topology: Topology, q0: np.ndarray, counts: np.ndarray, clocks: np.ndarray,
           ties: np.ndarray | None) -> np.ndarray:
    """The queue of each event: the one an arrival joins, the server that ticks.

    Replicate r owns the next ``counts[r]`` events and starts from ``q0``.
    The queue vector is tracked, because arrivals compare its levels; a tick
    at an empty server leaves it as it is.
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


# Most entries a destination table may hold: 6 bytes each (a uint8 move,
# an int32 next state and a uint8 tie count), so at most 12.6 MB.  A batch
# whose queue grid needs a larger table is routed by ``_route``.
TABLE_ENTRIES = 2**21


def _destinations(topology: Topology, side: int, width: int):
    """Destination table of every clock at every queue vector of [0, side)^K.

    States are the queue vectors in C order, ``np.ravel_multi_index``'s.
    Entry ``(s * C + c) * width + p``, for the C = M + K clocks c and the
    tie positions p < ``width``, holds the event's queue (``_route``'s move)
    and the next state's first entry ``s' * C * width``; a tick at an empty
    server keeps the state.  An arrival joins the p-th of the queues of least
    weighted level (``Topology.least_levels``) in index order; ``tied``
    holds their number, 1 for a service tick.  Entries past the last tied
    queue are never read.  An arrival at the grid's edge keeps the state: no
    run of at most ``side - 1 - max(q0)`` events gets there.
    """
    K, M = topology.K, topology.M
    C = M + K
    queues = np.indices((side,) * K, dtype=np.int32).reshape(K, -1)
    states = np.arange(queues.shape[1], dtype=np.int32)
    move = np.zeros((len(states), C, width), dtype=np.min_scalar_type(K - 1))
    to = np.zeros((len(states), C, width), dtype=np.int32)
    tied = np.ones((len(states), C, width), dtype=np.min_scalar_type(width))
    stride = [side ** (K - 1 - k) for k in range(K)]
    for k in range(K):
        move[:, M + k] = k
        to[:, M + k] = (states - (queues[k] > 0) * np.int32(stride[k]))[:, None]
    up = [np.where(queues[k] < side - 1, states + np.int32(stride[k]), states) for k in range(K)]
    for m, (ks, _) in enumerate(topology.routes):
        least = topology.least_levels(m, queues.T)
        for p in range(width):
            # the p-th tied queue: the one with p tied queues before it
            k_p, to_p = np.zeros_like(states), np.zeros_like(states)
            before = np.zeros(len(states), dtype=tied.dtype)
            for j, k in enumerate(ks):
                at = least[:, j] & (before == p)
                k_p, to_p = np.where(at, k, k_p), np.where(at, up[k], to_p)
                before += least[:, j]
            move[:, m, p], to[:, m, p] = k_p, to_p
        tied[:, m, 0] = before  # by now, every tied queue
    to *= C * width
    return move.ravel(), to.ravel(), tied.ravel()


def _route_batch(topology: Topology, q0: np.ndarray, counts: np.ndarray, clocks: np.ndarray,
                 ties: np.ndarray | None) -> np.ndarray:
    """``_route``'s moves, found by advancing every replicate in lock step.

    Only an arrival of a stream with a choice of queues needs the state: on
    a net with no such stream (one queue, say) each event's clock fixes its
    move, and no replicate is stepped.  Otherwise replicate r's t-th event
    is looked up in the destination table at its current state: entry
    ``state + clock * width``, plus the tie position floor(u * #tied) under
    ``UNIFORM_RANDOM``, the IEEE product ``_route`` takes.  The replicates
    run in decreasing order of their event counts, so the ones still running
    at step t are a prefix.  A batch of one replicate, or one whose table
    would pass ``TABLE_ENTRIES``, goes to ``_route``.
    """
    K, C = topology.K, topology.M + topology.K
    if all(len(ks) == 1 for ks, _ in topology.routes):
        # moves start at queue 0: on one queue none is written, and _walk
        # reads none
        moves = np.zeros(len(clocks), dtype=np.min_scalar_type(K - 1))
        for c, k in enumerate([ks[0] for ks, _ in topology.routes] + list(range(K))):
            if k:
                moves[clocks == c] = k
        return moves
    reps, steps = len(counts), int(counts.max(initial=0))
    side = int(q0.max()) + steps + 1
    width = 1 if ties is None else max(len(ks) for ks, _ in topology.routes)
    if reps < 2 or side**K * C * width > TABLE_ENTRIES:
        return _route(topology, q0, counts, clocks, ties)
    move, to, tied = _destinations(topology, side, width)
    order = np.argsort(-counts, kind="stable")
    active = reps - np.searchsorted(np.sort(counts), np.arange(steps), side="right")
    own = np.arange(steps) < counts[:, None]

    def lay(flat: np.ndarray, dtype) -> np.ndarray:
        """(step, replicate) array of one value per event, replicates in ``order``."""
        padded = np.zeros((reps, steps), dtype=dtype)
        padded[own] = flat
        return np.take(padded.T, order, axis=1)

    # each event's clock offset in the table
    events = lay(clocks, np.min_scalar_type((C - 1) * width))
    if width > 1:
        events *= np.asarray(width, dtype=events.dtype)
        draws, share = lay(ties, ties.dtype), np.empty(reps)
        count = np.empty(reps, dtype=tied.dtype)
    out = np.empty((steps, reps), dtype=move.dtype)
    state = np.full(reps, np.ravel_multi_index(q0, (side,) * K) * C * width, dtype=np.int32)
    entry = np.empty(reps, dtype=np.int32)
    for t, a in enumerate(active.tolist()):
        i, s = entry[:a], state[:a]
        np.add(s, events[t, :a], out=i)
        if width > 1:
            u = tied.take(i, out=count[:a], mode="clip")
            u = np.multiply(draws[t, :a], u, out=share[:a])
            np.add(i, np.trunc(u, out=u), out=i, casting="unsafe")
        move.take(i, out=out[t, :a], mode="clip")
        to.take(i, out=s, mode="clip")
    moves = np.empty((reps, steps), dtype=move.dtype)
    moves[order] = out.T
    return moves[own]


def _walk(topology: Topology, clocks: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """Each queue's raw walk: a running sum with a leading zero row.

    Row j counts, for each queue, the arrivals it received over the first j
    events minus the ticks of its server, busy or not.  The queue vector is
    this walk from the initial content reflected at 0 (``simulate`` and
    ``_reflected_queue``).
    """
    # +1 for an arrival, -1 for a service tick, written one queue's column
    # at a time: a scatter by (event, queue) cost 5-8 times as much.  Every
    # event is one queue's, so queue 0's column is the signs less the other
    # columns.  On one queue that reads no moves and builds no mask: one
    # more array the size of the events per batch made count_hits re-fault
    # its heap.
    sign = (clocks < topology.M).view(np.int8)
    sign *= 2
    sign -= 1
    step = np.zeros((len(moves) + 1, topology.K), dtype=np.int32)
    rest = step[1:, 0]
    rest[:] = sign
    for k in range(1, topology.K):
        rest -= np.multiply(moves == k, sign, out=step[1:, k])
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
    events that ``terminal_statistics`` shares.  Raises ``ValueError``
    unless n is an integer >= 1, seed an integer >= 0, T a finite real
    number >= 0, tie_rule a ``TieRule``, and q0 one finite nonnegative entry
    per queue.
    """
    K, M = topology.K, topology.M
    q0 = _initial_queues(topology, n, T, seed, tie_rule, q0_scaled)
    counts, clocks, ties, rng = _draw(topology, n, T, seed, 0, 1, tie_rule)
    moves = _route(topology, q0, counts, clocks, ties)
    # one column per clock and per (server, stream) pair: the cumulative
    # sums of one-hot event rows are A and B, and E
    rows = np.arange(1, len(moves) + 1)
    arrival = clocks < M
    ticks = np.zeros((len(rows) + 1, M + K + K * M), dtype=np.int64)
    ticks[rows, clocks] = 1
    ticks[rows[arrival], M + K + moves[arrival] * M + clocks[arrival]] = 1
    totals = np.cumsum(ticks, axis=0)
    services = totals[:, M:M + K]
    # the queues are the raw walk q0 + W reflected at 0: the regulator
    # Y = max(0, -(running min of q0 + W)) counts the ticks at an empty
    # server, Q = q0 + W + Y and D = B - Y; -Y is kept, and Q and D are
    # written in place over q0 + W and -Y
    queues = q0 + _walk(topology, clocks, moves)
    idle = np.minimum.accumulate(queues, axis=0)
    np.minimum(idle, 0, out=idle)
    return SamplePath(
        n=n,
        seed=seed,
        times=np.concatenate([[0.0], np.sort(rng.random(len(moves))) * (n * T)]),
        queues=np.subtract(queues, idle, out=queues),
        arrivals=totals[:, :M],
        services=services,
        departures=np.add(services, idle, out=idle),
        routed=totals[:, M + K:].reshape(-1, K, M),
        horizon=n * T,
    )


def audit(path: SamplePath, topology: Topology) -> None:
    """Check the exact balance identities at every event, and that each
    arrival joined a queue of least weighted level in its stream's
    admissible set, compared exactly by ``Topology.least_levels``; raises
    AssertionError on failure."""
    if (path.K, path.M) != (topology.K, topology.M):
        raise AssertionError(f"path has K={path.K}, M={path.M}, the net "
                             f"K={topology.K}, M={topology.M}")
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
    for m in range(topology.M):
        S = list(topology.routes[m][0])
        routed = path.routed[:, :, m]
        if np.any(np.delete(routed, S, axis=1)):
            raise AssertionError(f"stream {m + 1} routed outside its admissible set")
        # the (event, position in S) of each arrival
        event, j = np.nonzero(np.diff(routed[:, S], axis=0))
        if not topology.least_levels(m, pre[event])[np.arange(len(event)), j].all():
            raise AssertionError(f"stream {m + 1} joined a queue above its least level")


def _grid(path: SamplePath, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid of scaled time over the run, ending at its horizon T, and
    the index of the event row in force at each grid time.

    The grid is 0, step, 2 step, ...; when the step does not divide T, its
    multiples below T are followed by T itself.
    """
    grid_step = positive(grid_step, "grid_step")
    T = path.horizon / path.n
    ts = np.arange(0.0, T + grid_step / 2, grid_step)
    if not math.isclose(ts[-1], T, rel_tol=1e-9):
        ts = np.append(ts[ts < T], T)
    return ts, np.searchsorted(path.times, ts * path.n, side="right") - 1


def scale_path(path: SamplePath, grid_step: float = 1e-3) -> PiecewisePath:
    """Scaled queue path Q(n t)/n sampled on a uniform grid of scaled time.

    The underlying step path is right-continuous; sampling keeps the value
    in force at each grid time.  Raises ValueError unless ``grid_step`` is
    positive and finite.
    """
    ts, idx = _grid(path, grid_step)
    vals = path.queues[idx] / path.n
    if len(ts) < 2:  # a zero horizon: the initial state, held to t = 1
        ts, vals = np.array([0.0, 1.0]), np.vstack([vals, vals])
    return PiecewisePath(ts, vals)


def scale_counters(path: SamplePath, grid_step: float = 1e-3) -> dict[str, np.ndarray]:
    """All scaled processes sampled on a uniform grid, for CSV export.

    Raises ValueError unless ``grid_step`` is positive and finite.
    """
    ts, idx = _grid(path, grid_step)
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
    replicate 0 of batch 0 of ``count_hits`` at ``seed``.  Raises
    ``ValueError`` on the arguments ``simulate`` rejects.
    """
    q_end, q_max = _replicate_statistics(topology, n, T, seed, 0, 1,
                                         ("terminal", "running_max"), tie_rule, q0_scaled)
    return q_end[0], q_max[0]


@dataclass(frozen=True)
class RareEventSpec:
    """Threshold event on the scaled queue path over [0, T].

    kind 'terminal': scaled queue ``queue`` at time T is >= threshold;
    kind 'running_max': its running maximum over [0, T] is >= threshold.
    ``queue`` is 0-based internally and k = queue + 1 in messages and in
    ``parse``.  Raises ValueError for any other kind, a queue that is not an
    integer >= 0 (bools and floats included), a threshold that is not a
    finite real number and a horizon T that is not positive and finite.
    The checked values are stored, so an int queue and float threshold and
    T (numpy scalars included) come back as Python numbers.
    """

    kind: str
    queue: int
    threshold: float
    T: float

    def __post_init__(self):
        if self.kind not in ("terminal", "running_max"):
            raise ValueError(
                f"event kind must be 'terminal' or 'running_max', got kind={self.kind!r}")
        real = isinstance(self.queue, numbers.Real) and not isinstance(self.queue, bool)
        k = count(self.queue + 1 if real else self.queue, "event queue k")
        object.__setattr__(self, "queue", k - 1)
        object.__setattr__(self, "threshold", finite(self.threshold, "event threshold c"))
        object.__setattr__(self, "T", positive(self.T, "event horizon T"))

    def check_queue(self, topology: Topology) -> None:
        """Raise ValueError unless the event's queue is one of the topology's."""
        if self.queue >= topology.K:
            raise ValueError(f"event queue {self.queue + 1} is not one of the {topology.K} queues")

    @staticmethod
    def parse(text: str) -> "RareEventSpec":
        """Parse 'terminal:k=1,c=1,T=1' style event descriptions; k and T
        may be left out, and any other field is an error."""
        kind, _, rest = text.partition(":")
        try:
            fields = dict(part.split("=") for part in rest.split(",") if part)
            unknown = sorted(fields.keys() - {"k", "c", "T"})
            if unknown:
                raise ValueError(f"unknown field {unknown[0]!r}; the fields are k, c and T")
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


def count_hits(topology: Topology, event: RareEventSpec, n: int, seed: int, reps: int) -> int:
    """How many of ``reps`` runs at scale n from an empty net hit ``event``.

    A run hits when the statistic of the event's kind, on its queue over
    [0, n*T], is at least ``n * threshold - 1e-9`` (so a scaled level met
    exactly counts despite rounding).  Batches hold about 2**20 expected
    events, so memory does not grow with n; batch b is drawn from
    ``SeedSequence([seed, b])``, and replicate 0 of batch 0 is the run of
    ``terminal_statistics``.  Raises ``ValueError`` on the arguments
    ``simulate`` rejects, unless reps is an integer >= 1, and when the
    event's queue is not one of the topology's.
    """
    event.check_queue(topology)
    count(reps, "reps")
    level = count(n, "scale n") * event.threshold - 1e-9
    rate = float(topology.lam.sum() + topology.mu.sum())
    batch = max(1, int(2**20 // max(1.0, rate * (n * event.T))))
    hits = 0
    for batch_id, done in enumerate(range(0, reps, batch)):
        (value,) = _replicate_statistics(topology, n, event.T, seed, batch_id,
                                         min(batch, reps - done), (event.kind,))
        hits += int((value[:, event.queue] >= level).sum())
    return hits


def _replicate_statistics(
    topology: Topology,
    n: int,
    T: float,
    seed: int,
    batch: int,
    reps: int,
    kinds: tuple[str, ...],
    tie_rule: TieRule = TieRule.LOWEST_INDEX,
    q0_scaled=None,
) -> list[np.ndarray]:
    """Per-replicate statistics of ``reps`` independent runs.

    One array of shape (reps, K) for each entry of ``kinds``, in order:
    'terminal' gives the terminal queue vectors and 'running_max' the
    running maxima, so a caller pays only for what it names.  The runs are
    batch ``batch`` of the stream seeded by ``seed``.  Each queue's
    statistics are ``_reflected_queue`` of its column of the batch's
    ``_walk``.
    """
    q0 = _initial_queues(topology, n, T, seed, tie_rule, q0_scaled)
    counts, clocks, ties, _ = _draw(topology, n, T, seed, batch, reps, tie_rule)
    walk = _walk(topology, clocks, _route_batch(topology, q0, counts, clocks, ties))
    return [np.column_stack([_reflected_queue(counts, walk[:, k], q0[k], kind)
                             for k in range(topology.K)]) for kind in kinds]


def _reflected_queue(counts: np.ndarray, walk: np.ndarray, q0: int, kind: str) -> np.ndarray:
    """Per-replicate statistic of a queue that starts at ``q0`` and follows
    ``walk``, held at 0 from below.

    ``walk`` is the running sum, with a leading 0, of steps of -1, 0 or +1
    laid end to end: replicate ``r`` owns the next ``counts[r]`` steps, so
    it owns the slice ``walk[start:end+1]`` and shares its last entry with
    the next replicate's first.  The queue is the Lindley reflection of that
    slice: at entry j it is ``walk[j] - min(floor, min(walk[start:j+1]))``
    with ``floor = walk[start] - q0``.  ``kind`` is 'terminal' (its value at
    the slice's end) or 'running_max' (its largest value over the slice).
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    first, last = walk[starts], walk[ends]
    floor = first - np.int64(q0)
    # reduceat over [start, next start) omits the shared end entry
    q_end = last - np.minimum(np.minimum(np.minimum.reduceat(walk, starts), last), floor)
    if kind == "terminal":
        return q_end
    # Subtracting r*bound on replicate r's entries puts each start below
    # everything before it (the walk climbs at most max(counts) within one
    # replicate), so one running minimum restarts at every replicate.
    # int32 holds it: a batch of 2**20 expected events keeps it under ~2**25
    # unless one replicate makes ~2**30 steps (7 GB: a random byte, a clock
    # and a step per event, and the walk itself).  The temporaries are
    # written in place: two more arrays the size of the walk per batch
    # pushed the heap over glibc's trim threshold, to be trimmed and faulted
    # in again on every batch.
    bound = int(counts.max(initial=0)) + 1
    lengths = counts.copy()
    lengths[-1] += 1
    shifted = np.repeat(np.arange(len(counts), dtype=np.int32) * np.int32(bound), lengths)
    np.subtract(walk, shifted, out=shifted)
    low = np.minimum.accumulate(shifted)
    rise = np.subtract(shifted, low, out=low)
    # entry j's queue is the larger of walk[j] - floor and its rise above
    # the running minimum; the end entry's rise belongs to the next replicate
    top = np.maximum(np.maximum.reduceat(walk, starts), last)
    return np.maximum(np.maximum(np.maximum.reduceat(rise, starts), q_end), top - floor)

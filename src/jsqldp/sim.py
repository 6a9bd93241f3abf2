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
One scalar loop routes the events of any number of replicates laid end to
end; numpy observers turn its output into full paths (``simulate``) or
per-replicate terminal values or running maxima (``terminal_statistics``
and ``count_hits``).  Those statistics come from one reduction of each
queue's walk, ``_reflected_queue``.  A one-queue net needs no routing: every
arrival joins the queue, so its walk is one of +/-1 jumps, which the
reflection holds at 0.  A routed queue's walk never falls below its floor,
so the reflection leaves it unchanged.
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
    events that ``terminal_statistics`` shares.  Raises ``ValueError``
    unless n is an integer >= 1, seed an integer >= 0, T a finite real
    number >= 0, tie_rule a ``TieRule``, and q0 one finite nonnegative entry
    per queue.
    """
    K, M = topology.K, topology.M
    q0 = _initial_queues(topology, n, T, seed, tie_rule, q0_scaled)
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
    """Check the exact balance identities at every event, and that each
    arrival joined a queue of least weighted level in its stream's
    admissible set, compared exactly as ``Q_k * level_multipliers(m)[k]``;
    raises AssertionError on failure."""
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
        mults = topology.level_multipliers(m)
        S = sorted(mults)
        routed = path.routed[:, :, m]
        if np.any(np.delete(routed, S, axis=1)):
            raise AssertionError(f"stream {m + 1} routed outside its admissible set")
        # the (event, position in S) of each arrival, and the levels before it
        event, j = np.nonzero(np.diff(routed[:, S], axis=0))
        levels = pre[event[:, None], S] * np.array([mults[k] for k in S])
        if np.any(levels[np.arange(len(event)), j] != levels.min(axis=1)):
            raise AssertionError(f"stream {m + 1} joined a queue above its least level")


def _grid(path: SamplePath, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid of scaled time over the run, and the index of the event
    row in force at each grid time."""
    grid_step = positive(grid_step, "grid_step")
    ts = np.arange(0.0, path.horizon / path.n + grid_step / 2, grid_step)
    return ts, np.searchsorted(path.times, ts * path.n, side="right") - 1


def scale_path(path: SamplePath, grid_step: float = 1e-3) -> PiecewisePath:
    """Scaled queue path Q(n t)/n sampled on a uniform grid of scaled time.

    The underlying step path is right-continuous; sampling keeps the value
    in force at each grid time.  Raises ValueError unless ``grid_step`` is
    positive and finite.
    """
    T = path.horizon / path.n
    ts, idx = _grid(path, grid_step)
    vals = path.queues[idx] / path.n
    if len(ts) < 2:  # a step beyond T: the states at 0 and at T
        ts = np.array([0.0, T if T > 0 else 1.0])
        vals = np.vstack([vals, path.queues[-1] / path.n])
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
    statistics are ``_reflected_queue`` of its walk: a column of the
    batch's ``_walk`` on a net of two or more queues, the +/-1 walk of every
    event on one queue.
    """
    q0 = _initial_queues(topology, n, T, seed, tie_rule, q0_scaled)
    counts, clocks, ties, _ = _draw(topology, n, T, seed, batch, reps, tie_rule)
    if topology.K == 1:
        # every arrival joins the one queue, so no event needs routing: the
        # walk is the running sum of +1 arrivals and -1 service ticks
        jumps = (clocks < topology.M).view(np.int8)
        jumps *= 2
        jumps -= 1
        walk = np.zeros(len(jumps) + 1, dtype=np.int32)
        np.cumsum(jumps, dtype=np.int32, out=walk[1:])
        return [_reflected_queue(counts, walk, q0[0], kind)[:, None] for kind in kinds]
    walk = _walk(topology, clocks, _route(topology, q0, counts, clocks, ties))
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
    with ``floor = walk[start] - q0``.  A routed queue's walk never falls
    below its floor, so there the reflection is ``q0`` plus the walk's rise
    since ``start``.  ``kind`` is 'terminal' (its value at the slice's end)
    or 'running_max' (its largest value over the slice).
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

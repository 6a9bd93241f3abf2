"""Exact discrete-event simulation of the weighted JSQ network.

Arrival streams and autonomous per-server service clocks are independent
Poisson processes; a service tick removes a customer only when one is
present, but is always counted.  By superposition the clocks are sampled as
one uniformized stream, in place of one stream per clock: a run has
Poisson(Λ n T) events with Λ = Σλ + Σμ, and each event belongs to clock c
with probability rate_c / Λ.  One random byte picks an event's clock; only
an event whose byte straddles a boundary between two clocks' shares (about
1 in 256 per boundary) also draws a float64, so the law stays exact to
2**-53.  Every batch, one replicate included, draws its event counts as
one histogram, multinomial over the counts that hold all but less than
2**-53 of the Poisson mass.  The draws come from four PCG64 streams
spawned from ``SeedSequence([seed, batch])`` (``_draw``), so runs are
reproducible bit-for-bit.

This module draws every run, including each replicate of the rare-event
estimator, and owns their layout and the threshold event they are counted
against (``RareEventSpec``): ``simulate`` is the one replicate of batch 0,
and ``count_hits`` splits its replicates into batches of about 2**20
expected events, numbered 0, 1, ... from the seed.  A batch is read step
by step: its replicates are ranked by decreasing event count, so the ones
still running at step t are a prefix, and their t-th events are one
contiguous slice of the draw (``_offsets``).  A batch of one replicate
reads its events in draw order.

Routing gives each event a queue: the queue an arrival joins, or the
server of a service tick.  Every queue follows one rule: its raw walk is
+1 for each arrival it receives and -1 for each tick of its server, and
the queue is that walk from its initial content reflected at 0.  The
reflection counts the ticks at an empty server, which depart no one.  One
run (``simulate``) is routed by ``_route``, which reads the moves from the
clocks on a net where no stream has a choice of queue and otherwise runs a
scalar loop; ``_walk`` gives its raw walk and ``_reflect`` the queues.
``count_hits`` reduces each batch of runs, all from the empty net under
lowest-index ties, to one value per replicate: the statistic its event
asks for, on the event's queue alone.  One of two engines, chosen by a
rough cost of each for the batch's shape, computes it.  The lock step
(``_lock_step``) looks up, at each step, the events of every running
replicate in a destination table over a grid of queue vectors that holds
all the batch can reach, whose state is the reflected queue vector
itself, and reads the queue's level off the state.  Each topology keeps
its largest table (``_TABLES``), so a table is built only when a batch
needs a larger grid than any before it on that topology.  The lock step
pays a fixed cost and one per step, so it serves batches of many
replicates.  ``_by_replicate`` runs each replicate on the path of
``simulate``, with no record kept, and reads the queue's column of its
walk; it pays per replicate, and per event where arrivals compare
levels, and takes any batch whose table would pass ``TABLE_ENTRIES``.
Both give the same statistics.
"""
from __future__ import annotations

import enum
import math
import numbers
import weakref
from dataclasses import dataclass
from itertools import repeat

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

    ``SeedSequence([seed, batch])`` spawns four streams: the counts'
    histogram; the bytes, raw 64-bit words read as 8 bytes each; the v of
    the undecided events, in event order; and one tie uniform per event
    (``UNIFORM_RANDOM`` only).  The counts are returned in decreasing order, and replicate r's
    t-th event is event ``_offsets(counts)[t] + r``, so a batch is laid out
    step by step; one replicate owns the events in draw order.  The byte
    stream is returned for callers that draw more (the event times).

    Only the counts' histogram is used, and that of ``reps`` iid Poisson
    counts is multinomial over the values.  So every batch, one replicate
    included, draws its histogram in one call, over the values of its
    window (``_window``), whose Poisson mass is all but less than 2**-53;
    its cost does not grow with ``reps``.
    """
    rates = np.concatenate([topology.lam, topology.mu])
    count_rng, event_rng, split_rng, tie_rng = map(
        np.random.default_rng, np.random.SeedSequence([seed, batch]).spawn(4))
    mean = rates.sum() * n * T
    window = _window(mean)
    values = np.arange(window.start, window.stop)
    counts = np.repeat(values[::-1], count_rng.multinomial(reps, _window_pmf(mean, window))[::-1])
    events = int(counts.sum())
    b = event_rng.bit_generator.random_raw(-(-events // 8)).view(np.uint8)[:events]
    shares = np.cumsum(rates)
    cuts = (shares[:-1] / shares[-1] * 256).tolist()
    # (byte, 256 c_i - byte) of each cut that splits its byte
    parts = [(math.floor(cut), cut % 1) for cut in cuts if cut % 1]
    # The clocks overwrite the bytes a chunk at a time, each chunk finished,
    # its undecided events included, before the next.  Temporaries the size
    # of the batch made the allocator trim and re-fault its heap on every
    # batch of count_hits.
    dtype = np.min_scalar_type(len(rates))
    clocks = b if dtype == np.uint8 else np.empty(events, dtype)
    for start in range(0, events, 2**16):
        chunk = b[start:start + 2**16]
        # counted in the clocks' dtype: a byte can be at or above more than
        # 255 cuts
        clock = (chunk >= math.ceil(cuts[0])).view(np.uint8).astype(dtype, copy=False)
        for cut in cuts[1:]:
            clock += chunk >= math.ceil(cut)
        if parts:
            hit = chunk == parts[0][0]
            for byte, _ in parts[1:]:
                hit |= chunk == byte
            at = np.flatnonzero(hit)
            at_byte, v = chunk[at], split_rng.random(len(at))
            for byte, frac in parts:
                clock[at] += (at_byte == byte) & (v >= frac)
        clocks[start:start + len(chunk)] = clock
    ties = tie_rng.random(events) if tie_rule is TieRule.UNIFORM_RANDOM else None
    return counts, clocks, ties, event_rng


def _window(mean: float) -> range:
    """The counts within 13 sqrt(mean) + 30 of a Poisson mean.  Less than
    2**-53 of the Poisson law's mass lies outside (at most about 1e-38 over
    means from 1e-6 to 1e9)."""
    half = 13 * math.sqrt(mean) + 30
    return range(max(0, math.ceil(mean - half)), math.floor(mean + half) + 1)


def _window_pmf(mean: float, window: range) -> np.ndarray:
    """The Poisson(mean) pmf over ``window``, normalized to sum to 1.

    p_k / p_lo, for the window's first count lo, is the running product of
    mean / j over j = lo+1..k: no log, so a mean of 0 is the law at 0.  The
    product stays below e**230 on any window, and the far tail it
    underflows to 0 holds far less than 2**-53 of the mass.
    """
    ratio = np.empty(len(window))
    ratio[0] = 1.0
    np.divide(mean, np.arange(window.start + 1, window.stop), out=ratio[1:])
    np.cumprod(ratio, out=ratio)
    return ratio / ratio.sum()


def _route(topology: Topology, q0: np.ndarray, clocks: np.ndarray,
           ties: np.ndarray | None) -> np.ndarray:
    """The queue of each event of one run: the one an arrival joins, the
    server that ticks.

    On a net where no stream has a choice of queue (one queue, say) each
    event's clock fixes its queue.  Otherwise the queue vector is tracked
    from ``q0``, because arrivals compare its levels; a tick at an empty
    server leaves it as it is.  An arrival of stream m joins a queue of
    least weighted level in S_m, compared exactly as Q_k * level_multiplier;
    among the tied queues, in index order, it takes position
    floor(u * #tied) for the event's tie uniform u, which is 0 (the lowest
    index) when ``ties`` is None.
    """
    K, M = topology.K, topology.M
    dtype = np.min_scalar_type(K - 1)
    if all(len(ks) == 1 for ks, _ in topology.routes):
        return np.array([ks[0] for ks, _ in topology.routes] + list(range(K)),
                        dtype=dtype).take(clocks)
    choices = [sorted(topology.level_multipliers(m).items()) for m in range(M)]
    moves: list[int] = []
    emit = moves.append
    q = q0.tolist()
    for c, u in zip(clocks.tolist(), repeat(0.0) if ties is None else ties.tolist()):
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
    return np.array(moves, dtype=dtype)


def _walk(topology: Topology, clocks: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """Each queue's raw walk: a running sum with a leading zero row.

    Row j counts, for each queue, the arrivals it received over the first j
    events minus the ticks of its server, busy or not.  The queue vector is
    this walk from the initial content reflected at 0 (``_reflect``).
    """
    # +1 for an arrival, -1 for a service tick, written one queue's column
    # at a time: a scatter by (event, queue) cost 5-8 times as much.  Every
    # event is one queue's, so queue 0's column is the signs less the other
    # columns, and on one queue no move is read.
    sign = (clocks < topology.M).view(np.int8)
    sign *= 2
    sign -= 1
    step = np.zeros((len(moves) + 1, topology.K), dtype=np.int32)
    rest = step[1:, 0]
    rest[:] = sign
    for k in range(1, topology.K):
        rest -= np.multiply(moves == k, sign, out=step[1:, k])
    return np.cumsum(step, axis=0, out=step)


def _reflect(q0: np.ndarray, walk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The queues: the raw walk ``q0 + walk`` reflected at 0, and -Y.

    The regulator Y = max(0, -(running min of q0 + W)) counts the ticks at
    an empty server, so Q = q0 + W + Y.  Q is written over q0 + W.
    """
    queues = q0 + walk
    idle = np.minimum.accumulate(queues, axis=0)
    np.minimum(idle, 0, out=idle)
    return np.subtract(queues, idle, out=queues), idle


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
    events that ``count_hits`` at ``reps=1`` shares.  Raises ``ValueError``
    unless n is an integer >= 1, seed an integer >= 0, T a finite real
    number >= 0, tie_rule a ``TieRule``, and q0 one finite nonnegative entry
    per queue.
    """
    K, M = topology.K, topology.M
    q0 = _initial_queues(topology, n, T, seed, tie_rule, q0_scaled)
    _, clocks, ties, rng = _draw(topology, n, T, seed, 0, 1, tie_rule)
    moves = _route(topology, q0, clocks, ties)
    # one column per clock and per (server, stream) pair: the cumulative
    # sums of one-hot event rows are A and B, and E
    rows = np.arange(1, len(moves) + 1)
    arrival = clocks < M
    ticks = np.zeros((len(rows) + 1, M + K + K * M), dtype=np.int64)
    ticks[rows, clocks] = 1
    ticks[rows[arrival], M + K + moves[arrival].astype(np.intp) * M + clocks[arrival]] = 1
    totals = np.cumsum(ticks, axis=0)
    services = totals[:, M:M + K]
    # D = B - Y, written over -Y
    queues, idle = _reflect(q0, _walk(topology, clocks, moves))
    return SamplePath(
        n=n,
        seed=seed,
        times=np.concatenate([[0.0], np.sort(rng.random(len(moves))) * (n * T)]),
        queues=queues,
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
            parts = [part for part in rest.split(",") if part]
            if bad := [part for part in parts if part.count("=") != 1]:
                raise ValueError(f"field {bad[0]!r} must be written name=value")
            fields = dict(part.split("=") for part in parts)
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
    events, so memory does not grow with n until one replicate expects more
    than that; then a batch is one replicate and memory grows with n.
    Batch b is drawn from ``SeedSequence([seed, b])``, its event counts as
    one histogram, and laid out step by step (``_draw``).  A batch is
    reduced to one statistic per replicate, of the event's queue, in lock
    step or replicate by replicate, whichever its shape makes cheaper
    (``_replicate_statistics``).  At ``reps=1`` the one run is the one
    ``simulate`` makes at ``seed`` from the empty net under lowest-index
    ties.  Raises ``ValueError`` unless n and reps are integers >= 1 and
    seed an integer >= 0, and when the event's queue is not one of the
    topology's.
    """
    event.check_queue(topology)
    count(reps, "reps")
    count(seed, "seed", least=0)
    level = count(n, "scale n") * event.threshold - 1e-9
    rate = float(topology.lam.sum() + topology.mu.sum())
    batch = max(1, int(2**20 // max(1.0, rate * (n * event.T))))
    hits = 0
    for batch_id, done in enumerate(range(0, reps, batch)):
        value = _replicate_statistics(topology, n, event, seed, batch_id, min(batch, reps - done))
        hits += int((value >= level).sum())
    return hits


def _replicate_statistics(topology: Topology, n: int, event: RareEventSpec, seed: int,
                          batch: int, reps: int) -> np.ndarray:
    """The statistic ``event`` asks for, on its queue, of ``reps``
    independent runs from an empty net under lowest-index ties: one int64
    per replicate, the queue's terminal level or its running maximum.

    The runs are batch ``batch`` of the stream seeded by ``seed``, in
    decreasing order of their event counts.  A batch whose destination
    table fits ``TABLE_ENTRIES`` runs in lock step when that costs less than
    going replicate by replicate, by the rough costs below.  It reads the
    topology's cached table when that is large enough, and otherwise builds
    one at its own side, which replaces the cached one.  Any other batch
    goes replicate by replicate.  The arguments are ``count_hits``'s,
    already checked.
    """
    counts, clocks, _, _ = _draw(topology, n, event.T, seed, batch, reps, TieRule.LOWEST_INDEX)
    steps = int(counts[0])
    side = steps + 1
    entries = side**topology.K * (topology.M + topology.K)
    to, built = _TABLES.get(topology, (None, 0))
    # Rough costs in ns, measured on a 2-core x86: the lock step pays a
    # fixed cost (its numpy calls around the steps, 40-90 us on batches of
    # one to four steps), builds a table only when the topology's cached one
    # is missing or too small, and makes a few numpy calls at each step, on
    # the event's queue alone, so a step costs the same on any K; one
    # replicate's path pays a fixed cost, and per event the scalar router's
    # loop where an arrival compares levels, or numpy's passes where none
    # does.
    choice = any(len(ks) > 1 for ks, _ in topology.routes)
    lock = 50000 + (0 if built >= side else 10 * entries) + 2500 * steps
    alone = 16000 * reps + (300 if choice else 12) * len(clocks)
    running_max = event.kind == "running_max"
    if entries <= TABLE_ENTRIES and lock <= alone:
        if built < side:
            to, built = _destinations(topology, side), side
            to.flags.writeable = False
            _TABLES[topology] = to, built
        return _lock_step(topology, counts, clocks, to, built, event.queue, running_max)
    return _by_replicate(topology, counts, clocks, event.queue, running_max)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Where each step's events start in a batch laid out step by step.

    ``counts`` is in decreasing order, so the replicates still running at
    step t are a prefix, and replicate r's t-th event is event
    ``offset[t] + r``: ``offset[t]`` is the number of events the replicates
    still running at steps before t own.  The last entry is the batch's
    event total.
    """
    running = len(counts) - np.searchsorted(counts[::-1], np.arange(counts[0]), side="right")
    return np.concatenate([[0], np.cumsum(running)])


def _by_replicate(topology: Topology, counts: np.ndarray, clocks: np.ndarray, queue: int,
                  running_max: bool) -> np.ndarray:
    """Queue ``queue``'s terminal level, or its running maximum when
    ``running_max``, in each replicate of a batch from the empty net under
    lowest-index ties, one replicate at a time.

    Replicate r gathers its events at ``offset[:counts[r]] + r``; a lone
    replicate's offsets are 0, 1, ..., so it reads the draw in order.  Each
    runs the path of ``simulate``, ``_route`` and ``_walk``, and reads the
    queue's column of the walk.  From the empty net a queue is its walk W
    less the running minimum of W (``_reflect``), and row 0 of W is 0, so
    the terminal level is W's last entry less its minimum.
    """
    empty = np.zeros(topology.K, dtype=np.int64)
    offset = _offsets(counts)[:-1]
    value = np.empty(len(counts), dtype=np.int64)
    for r, events in enumerate(counts.tolist()):
        own = clocks[offset[:events] + r]
        walk = _walk(topology, own, _route(topology, empty, own, None))[:, queue]
        value[r] = ((walk - np.minimum.accumulate(walk)).max() if running_max
                    else walk[-1] - walk.min())
    return value


# Most entries a destination table may hold: an int32 next state each, so
# at most 8.4 MB.  A batch whose queue grid needs a larger table goes
# replicate by replicate.  Each live topology keeps at most one table, the
# largest built for it so far, and it is freed with the topology.
TABLE_ENTRIES = 2**21

# topology -> (its destination table, read-only, and the table's side),
# stored as one tuple, so a reader never pairs a table with another's side
_TABLES: weakref.WeakKeyDictionary[Topology, tuple[np.ndarray, int]] = weakref.WeakKeyDictionary()


def _destinations(topology: Topology, side: int) -> np.ndarray:
    """Destination table of every clock at every queue vector of [0, side)^K.

    States are the queue vectors in C order, ``np.ravel_multi_index``'s.
    Entry ``s * C + c``, for the C = M + K clocks c, holds the next state's
    first entry ``s' * C``: an arrival joins the lowest-index queue of least
    weighted level (``Topology.least_levels``), and a tick leaves its
    server's queue one lower unless it is empty.  An arrival at the grid's
    edge keeps the state: no run of at most ``side - 1`` events from the
    empty net gets there.
    """
    K, M = topology.K, topology.M
    queues = np.indices((side,) * K, dtype=np.int32).reshape(K, -1)
    states = np.arange(queues.shape[1], dtype=np.int32)
    stride = [np.int32(side ** (K - 1 - k)) for k in range(K)]
    to = np.empty((len(states), M + K), dtype=np.int32)
    for k in range(K):
        to[:, M + k] = states - (queues[k] > 0) * stride[k]
    up = [np.where(queues[k] < side - 1, states + stride[k], states) for k in range(K)]
    for m, (ks, _) in enumerate(topology.routes):
        least = topology.least_levels(m, queues.T)
        # the first queue of least level, found from the last one back
        to[:, m] = up[ks[-1]]
        for j in range(len(ks) - 2, -1, -1):
            to[:, m] = np.where(least[:, j], up[ks[j]], to[:, m])
    to *= M + K
    return to.ravel()


def _lock_step(topology: Topology, counts: np.ndarray, clocks: np.ndarray, to: np.ndarray,
               side: int, queue: int, running_max: bool) -> np.ndarray:
    """Queue ``queue``'s terminal level, or its running maximum when
    ``running_max``, in each replicate of a batch from the empty net,
    advanced in lock step.

    ``to`` is the destination table over [0, side)^K (``_destinations``),
    of any side above the batch's longest run: such a run never reaches
    the grid's edge, so a larger table gives the same statistics.  Step t
    takes the t-th event of every replicate still running, one slice of
    the draw, at entry ``state + clock`` of the table.  The state is the
    queue vector itself, reflected at 0, so the last state holds the
    terminal level.  A state modulo the span of queues k, k+1, ... of the
    table grows with queue k, so its largest value over the steps gives
    queue k's running maximum; for queue 0 it is the state.
    """
    span = side ** (topology.K - queue) * (topology.M + topology.K)
    state = np.zeros(len(counts), dtype=np.int32)
    # the terminal kind reads the last state
    peak = np.zeros_like(state) if running_max else state
    scratch = np.empty_like(state)
    offset = _offsets(counts).tolist()
    for start, stop in zip(offset, offset[1:]):
        # the state becomes its table entry, and then the next state
        s = state[:stop - start]
        np.add(s, clocks[start:stop], out=s)
        to.take(s, out=s, mode="clip")
        if running_max:
            level = np.remainder(s, span, out=scratch[:len(s)]) if queue else s
            np.maximum(peak[:len(s)], level, out=peak[:len(s)])
    # the queue's level read off the table entry
    return (peak % span // (span // side)).astype(np.int64)

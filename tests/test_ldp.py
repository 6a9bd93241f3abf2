import itertools
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import expm_multiply

from jsqldp import (
    PiecewisePath,
    PoissonCost,
    RareEventSpec,
    estimate_rare_event,
    minimize_action,
    path_action,
    wilson_interval,
)
from jsqldp.ldp import _reflected_queue

LOG2 = math.log(2.0)


def exact_mm1_probability(topology, event, n: int) -> float:
    """P(event) for the M/M/1 queue started empty, from the matrix exponential
    of the birth-death generator over [0, nT].  For 'running_max' the
    threshold level absorbs; for 'terminal' the chain is cut 60 levels above
    it, far beyond any reachable mass at the sizes used here."""
    lam, mu = float(topology.lam[0]), float(topology.mu[0])
    level = math.ceil(n * event.threshold - 1e-9)
    top = level if event.kind == "running_max" else level + 60
    up = np.full(top, lam)
    down = np.full(top, mu)
    if event.kind == "running_max":
        down[-1] = 0.0
    gen = diags([up, down], [1, -1], shape=(top + 1, top + 1)).tocsr()
    gen = gen - diags(np.asarray(gen.sum(axis=1)).ravel())
    p0 = np.zeros(top + 1)
    p0[0] = 1.0
    return float(expm_multiply(gen.T * (n * event.T), p0)[level:].sum())


def exact_two_queue_probability(topology, event, n: int, cap: int = 60) -> float:
    """P(event) for a K=2 network started empty, from the matrix exponential
    of its generator truncated at ``cap`` customers per queue (arrivals into
    a full queue are dropped).  An arrival of stream m joins the lowest-index
    queue of least weighted level; for 'running_max' the states at or above
    the threshold level absorb.  At n=4 the mass near the cap is negligible."""
    level = math.ceil(n * event.threshold - 1e-9)
    shape = (cap + 1, cap + 1)
    streams = [(float(topology.lam[m]), sorted(topology.level_multipliers(m).items()))
               for m in range(topology.M)]
    rows, cols, vals = [], [], []
    for state in itertools.product(range(cap + 1), repeat=2):
        if event.kind == "running_max" and state[event.queue] >= level:
            continue
        moves = []
        for lam, mults in streams:
            best = min(state[k] * c for k, c in mults)
            k = next(k for k, c in mults if state[k] * c == best)
            if state[k] < cap:
                moves.append((k, 1, lam))
        moves += [(k, -1, float(topology.mu[k])) for k in range(2) if state[k] > 0]
        s = np.ravel_multi_index(state, shape)
        for k, step, rate in moves:
            nxt = list(state)
            nxt[k] += step
            rows += [s, s]
            cols += [np.ravel_multi_index(nxt, shape), s]
            vals += [rate, -rate]
    size = (cap + 1) ** 2
    gen = coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    p0 = np.zeros(size)
    p0[0] = 1.0
    pt = expm_multiply(gen.T * (n * event.T), p0)
    return float(pt[np.indices(shape).reshape(2, -1)[event.queue] >= level].sum())


class TestPathAction:
    def test_fluid_path_costs_nothing(self, mm1_stable):
        # drift -1 from q0 = 1 reaches 0 at t = 1 and stays there
        q = PiecewisePath(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [0.0], [0.0]]))
        report = path_action(q, mm1_stable, PoissonCost(mm1_stable))
        assert report.total <= 1e-9
        assert not report.tail_open

    def test_unit_climb_matches_local_rate(self, mm1):
        q = PiecewisePath.linear([0.0], [1.0], 1.0)
        report = path_action(q, mm1, PoissonCost(mm1))
        assert report.total == pytest.approx(0.24514384755981367, abs=1e-6)
        # with lambda = mu the path can rest at 1 for free afterwards
        assert not report.tail_open

    def test_tail_flagged_when_holding_costs(self, mm1_stable):
        q = PiecewisePath.linear([0.0], [1.0], 1.0)
        report = path_action(q, mm1_stable, PoissonCost(mm1_stable))
        assert report.tail_open

    def test_segments_split_at_weighted_ties(self, two_queue):
        q = PiecewisePath.linear([1.0, 0.0], [0.0, 1.0], 1.0)
        report = path_action(q, two_queue, PoissonCost(two_queue))
        knots = [s.t0 for s in report.segments] + [report.segments[-1].t1]
        assert any(abs(k - 0.5) < 1e-12 for k in knots)  # levels cross at t = 1/2

    def test_infinite_when_domain_forbids_velocity(self, two_queue):
        # both queues climb from an untied state: impossible
        q = PiecewisePath.linear([2.0, 1.0], [2.5, 1.5], 1.0)
        report = path_action(q, two_queue, PoissonCost(two_queue))
        assert math.isinf(report.total)

    def test_initial_cost_hook(self, mm1):
        q = PiecewisePath.linear([1.0], [0.0], 1.0)
        report = path_action(q, mm1, PoissonCost(mm1), i_q0=lambda v: 2.0 * v[0])
        assert report.initial == pytest.approx(2.0)
        assert report.total == pytest.approx(report.initial + report.running)


class TestEventSpec:
    def test_parse_round_trip(self):
        e = RareEventSpec.parse("terminal:k=2,c=1.5,T=3")
        assert e.kind == "terminal"
        assert e.queue == 1
        assert e.threshold == 1.5
        assert e.T == 3.0

    def test_parse_defaults(self):
        e = RareEventSpec.parse("running_max:c=1")
        assert e.kind == "running_max"
        assert e.queue == 0
        assert e.T == 1.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            RareEventSpec("sojourn", 0, 1.0, 1.0)


class TestWilson:
    def test_zero_hits(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05

    def test_contains_the_point_estimate(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 10_000))
            hits = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(hits, n)
            assert lo <= hits / n <= hi


class TestEstimate:
    def test_precondition_on_hit_count(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="replication count too low"):
            estimate_rare_event(event, mm1_stable, [10], [100], seed=0)

    def test_decay_rate_extrapolates_to_variational_value(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        report = estimate_rare_event(
            event, mm1_stable, [5, 10], [100_000, 1_000_000], seed=7
        )
        fit = report["fit"]
        assert fit is not None
        assert abs(fit["intercept"] - LOG2) / LOG2 <= 0.15

    def test_common_events_estimated_directly(self, two_queue):
        # growth at rate 1/2 per queue makes this a likely event
        event = RareEventSpec("terminal", 0, 0.2, 1.0)
        report = estimate_rare_event(event, two_queue, [5], [200], seed=1)
        row = report["scales"][0]
        assert row["hits"] >= 10
        assert row["ci_low"] <= row["p_hat"] <= row["ci_high"]

    def test_running_max_dominates_terminal(self, mm1_stable):
        term = RareEventSpec("terminal", 0, 0.4, 1.0)
        runm = RareEventSpec("running_max", 0, 0.4, 1.0)
        p_term = estimate_rare_event(term, mm1_stable, [5], [50_000], seed=3)
        p_runm = estimate_rare_event(runm, mm1_stable, [5], [50_000], seed=3)
        assert p_runm["scales"][0]["p_hat"] >= p_term["scales"][0]["p_hat"]

    @pytest.mark.parametrize("queue", [1, -1])
    def test_event_queue_must_exist(self, mm1_stable, queue):
        # the one-queue counter would otherwise count queue 1 for any index
        event = RareEventSpec("terminal", queue, 0.2, 1.0)
        with pytest.raises(ValueError, match="not one of the 1 queues"):
            estimate_rare_event(event, mm1_stable, [5], [1000], seed=0)

    def test_reps_must_match_scales(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_rare_event(event, mm1_stable, [5, 10], [100], seed=0)


class TestMM1Counter:
    """The flat-layout M/M/1 hit counter behind ``estimate_rare_event``."""

    def test_reflection_matches_lindley_loop(self, rng):
        for _ in range(200):
            counts = rng.poisson(rng.uniform(0.0, 6.0), int(rng.integers(1, 30)))
            jumps = rng.choice(np.array([-1, 1], dtype=np.int8), int(counts.sum()))
            q_end = _reflected_queue(counts, jumps, "terminal")
            q_max = _reflected_queue(counts, jumps, "running_max")
            start = 0
            for r, c in enumerate(counts):
                q = top = 0
                for j in jumps[start:start + c]:
                    q = max(q + int(j), 0)
                    top = max(top, q)
                start += c
                assert (q_end[r], q_max[r]) == (q, top)

    # 200k replicates span three batches at n=5, T=1, the last one partial;
    # at T=0.01 most replicates have no jump at all.
    @pytest.mark.parametrize("kind,c,T", [
        ("terminal", 1.0, 1.0),
        ("running_max", 0.6, 1.0),
        ("terminal", 0.2, 0.01),
        ("running_max", 0.2, 0.01),
    ])
    def test_matches_exact_law(self, mm1_stable, kind, c, T):
        event = RareEventSpec(kind, 0, c, T)
        reps = 200_000
        row = estimate_rare_event(event, mm1_stable, [5], [reps], seed=11)["scales"][0]
        lo, hi = wilson_interval(row["hits"], reps, z=4.5)
        assert lo <= exact_mm1_probability(mm1_stable, event, 5) <= hi

    @pytest.mark.parametrize("kind", ["terminal", "running_max"])
    @pytest.mark.parametrize("T,reps", [(1e-3, 50_001), (1.0, 150_001)])
    def test_level_zero_counts_every_replicate(self, mm1_stable, kind, T, reps):
        event = RareEventSpec(kind, 0, 0.0, T)
        row = estimate_rare_event(event, mm1_stable, [5], [reps], seed=2)["scales"][0]
        assert row["hits"] == reps

    def test_seed_fixes_the_stream(self, mm1_stable):
        event = RareEventSpec("running_max", 0, 0.6, 1.0)

        def hits(seed):
            report = estimate_rare_event(event, mm1_stable, [5, 10], [30_000, 30_000],
                                         seed=seed)
            return [row["hits"] for row in report["scales"]]

        assert hits(4) == hits(4)
        assert hits(4) != hits(5)


class TestMinimizeAction:
    def test_trivial_event_costs_nothing(self, two_queue):
        # the fluid path itself exceeds the threshold
        event = RareEventSpec("terminal", 0, 0.2, 1.0)
        path, value = minimize_action(event, two_queue, PoissonCost(two_queue),
                                      segments=1, seed=0)
        assert value == 0.0
        assert path(event.T)[0] >= 0.2 - 1e-9

    def test_drift_reversal_value(self, mm1_stable):
        # climbing against drift -1 to level 1 in unit time costs log 2
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        _, value = minimize_action(event, mm1_stable, PoissonCost(mm1_stable),
                                   segments=1, seed=0)
        assert value == pytest.approx(LOG2, abs=5e-3)

    def test_more_segments_never_hurt(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        _, v1 = minimize_action(event, mm1_stable, PoissonCost(mm1_stable),
                                segments=1, seed=0)
        _, v2 = minimize_action(event, mm1_stable, PoissonCost(mm1_stable),
                                segments=2, starts=4, seed=0)
        assert v2 <= v1 + 1e-6

    def test_terminal_constraint_respected(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        path, _ = minimize_action(event, mm1_stable, PoissonCost(mm1_stable),
                                  segments=2, starts=2, seed=0)
        assert path(event.T)[0] >= event.threshold - 1e-9

    def test_running_max_not_supported(self, mm1_stable):
        event = RareEventSpec("running_max", 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            minimize_action(event, mm1_stable, PoissonCost(mm1_stable))


class TestGenericCounter:
    """Batched hit counting on networks with more than one queue."""

    # 60k replicates make two batches at n=4, the second partial; the cases
    # cover both queues, so an arrival routed to a queue outside its
    # stream's admissible set or past its weighted argmin shows
    @pytest.mark.parametrize("net,kind,queue,c", [
        ("weighted_net", "terminal", 0, 1.0),
        ("weighted_net", "running_max", 1, 0.75),
        ("two_queue", "terminal", 1, 1.0),
        ("two_queue", "running_max", 0, 1.5),
    ])
    def test_matches_exact_law(self, request, net, kind, queue, c):
        topo = request.getfixturevalue(net)
        event = RareEventSpec(kind, queue, c, 1.0)
        reps = 60_000
        row = estimate_rare_event(event, topo, [4], [reps], seed=5)["scales"][0]
        lo, hi = wilson_interval(row["hits"], reps, z=4.5)
        assert lo <= exact_two_queue_probability(topo, event, 4) <= hi

    def test_seed_fixes_the_stream(self, weighted_net):
        event = RareEventSpec("running_max", 1, 0.75, 1.0)

        def hits(seed):
            report = estimate_rare_event(event, weighted_net, [4, 5], [500, 500], seed=seed)
            return [row["hits"] for row in report["scales"]]

        assert hits(4) == hits(4)
        assert hits(4) != hits(5)

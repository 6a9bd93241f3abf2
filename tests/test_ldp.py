import itertools
import math
import re

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import expm_multiply

from jsqldp import (
    NoFiniteStartError,
    PiecewisePath,
    PoissonCost,
    RareEventSpec,
    TooFewHitsError,
    estimate_rare_event,
    minimize_action,
    path_action,
    wilson_interval,
)
from jsqldp import rate

LOG2 = math.log(2.0)


def exact_probability(topology, event, n: int, cap: int = 60) -> float:
    """P(event) for a net of one or two queues started empty, from the matrix
    exponential of its generator over [0, nT], truncated at ``cap``
    customers per queue (arrivals into a full queue are dropped).  An
    arrival of stream m joins the lowest-index queue of least weighted level;
    for 'running_max' the states at or above the threshold level absorb.  At
    the sizes used here the mass near the cap is negligible."""
    K = topology.K
    level = math.ceil(n * event.threshold - 1e-9)
    shape = (cap + 1,) * K
    streams = [(float(topology.lam[m]), sorted(topology.level_multipliers(m).items()))
               for m in range(topology.M)]
    rows, cols, vals = [], [], []
    for state in itertools.product(range(cap + 1), repeat=K):
        if event.kind == "running_max" and state[event.queue] >= level:
            continue
        moves = []
        for lam, mults in streams:
            best = min(state[k] * c for k, c in mults)
            k = next(k for k, c in mults if state[k] * c == best)
            if state[k] < cap:
                moves.append((k, 1, lam))
        moves += [(k, -1, float(topology.mu[k])) for k in range(K) if state[k] > 0]
        s = np.ravel_multi_index(state, shape)
        for k, step, rate in moves:
            nxt = list(state)
            nxt[k] += step
            rows += [s, s]
            cols += [np.ravel_multi_index(nxt, shape), s]
            vals += [rate, -rate]
    size = (cap + 1) ** K
    gen = coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    p0 = np.zeros(size)
    p0[0] = 1.0
    pt = expm_multiply(gen.T * (n * event.T), p0)
    return float(pt[np.indices(shape).reshape(K, -1)[event.queue] >= level].sum())


class TestPathAction:
    def test_fluid_path_costs_nothing(self, mm1_stable):
        # drift -1 from q0 = 1 reaches 0 at t = 1 and stays there
        q = PiecewisePath(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [0.0], [0.0]]))
        report = path_action(q, mm1_stable, PoissonCost(mm1_stable))
        assert report.total <= 1e-9

    def test_unit_climb_matches_local_rate(self, mm1):
        q = PiecewisePath.linear([0.0], [1.0], 1.0)
        report = path_action(q, mm1, PoissonCost(mm1))
        assert report.total == pytest.approx(0.24514384755981367, abs=1e-6)

    @pytest.mark.parametrize("net,q", [
        ("mm1_stable", PiecewisePath(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [0.0], [0.0]]))),
        # queue 1 drains past queue 2, crossing the tie at t = 1/2
        ("two_queue", PiecewisePath.linear([1.0, 0.5], [0.0, 0.5], 1.0)),
        ("weighted_net", PiecewisePath(np.array([0.0, 1.0, 2.0]),
                                       np.array([[0.0, 0.0], [1.0, 0.5], [1.0, 0.5]]))),
    ], ids=["drain", "pair-tie-crossing", "readme"])
    def test_one_rate_solve_per_constant_domain_piece(self, request, monkeypatch, net, q):
        # the action is the integral over the path's own span: resting at
        # the end point is not priced, so no rate program is solved there
        topo = request.getfixturevalue(net)
        solve, labels = rate._rate_on_domain, []

        def counted(label, *args):
            labels.append(label)
            return solve(label, *args)

        monkeypatch.setattr(rate, "_rate_on_domain", counted)
        report = path_action(q, topo, PoissonCost(topo))
        assert math.isfinite(report.total)
        assert labels == [s.label for s in report.segments]
        assert len(report.segments) >= 2

    def test_segments_split_at_weighted_ties(self, two_queue):
        q = PiecewisePath.linear([1.0, 0.0], [0.0, 1.0], 1.0)
        report = path_action(q, two_queue, PoissonCost(two_queue))
        knots = [s.t0 for s in report.segments] + [report.segments[-1].t1]
        assert any(abs(k - 0.5) < 1e-12 for k in knots)  # levels cross at t = 1/2

    @pytest.mark.parametrize("width", [1, 3])
    def test_path_needs_one_column_per_queue(self, two_queue, width):
        q = PiecewisePath.linear([0.0] * width, [1.0] * width, 1.0)
        with pytest.raises(ValueError, match=f"path q must have 2 columns, one per queue, "
                                             f"got {width}"):
            path_action(q, two_queue, PoissonCost(two_queue))

    def test_infinite_when_the_path_dips_below_zero(self, mm1):
        q = PiecewisePath(np.array([0.0, 0.5, 1.0]), np.array([[0.5], [-0.1], [0.5]]))
        assert path_action(q, mm1, PoissonCost(mm1)).total == math.inf

    def test_infinite_when_domain_forbids_velocity(self, two_queue):
        # both queues climb from an untied state: impossible
        q = PiecewisePath.linear([2.0, 1.0], [2.5, 1.5], 1.0)
        report = path_action(q, two_queue, PoissonCost(two_queue))
        assert math.isinf(report.total)


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

    @pytest.mark.parametrize("T", [-1.0, 0.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="event horizon T"):
            RareEventSpec("terminal", 0, 1.0, T)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_threshold_must_be_finite(self, c):
        with pytest.raises(ValueError, match="event threshold c"):
            RareEventSpec("terminal", 0, c, 1.0)

    def test_unknown_field_rejected(self):
        # a lower-case t used to be ignored, leaving T at its default 1
        with pytest.raises(ValueError, match="unknown field 't'"):
            RareEventSpec.parse("terminal:k=1,c=1,t=5")

    def test_negative_queue_rejected(self):
        # k is 1-based, so k=0 is queue -1; no counter or search may see it
        with pytest.raises(ValueError, match="got k=0"):
            RareEventSpec("terminal", -1, 0.2, 1.0)
        with pytest.raises(ValueError, match="got k=0"):
            RareEventSpec.parse("terminal:k=0,c=1")

    def test_fractional_queue_rejected(self):
        # queue 0.5 used to reach the hit counter and fail there with an IndexError
        with pytest.raises(ValueError, match="got k=1.5"):
            RareEventSpec("terminal", 0.5, 0.2, 1.0)

    @pytest.mark.parametrize("text,field", [
        ("terminal:c", "c"), ("terminal:k=1,c=1=2", "c=1=2"), ("terminal:c=1,T", "T")])
    def test_field_without_one_equals_sign_is_named(self, text, field):
        # dict() of the split fields failed with "dictionary update sequence
        # element #0 has length 1; 2 is required", naming no field
        with pytest.raises(ValueError, match=f"field '{field}' must be written name=value"):
            RareEventSpec.parse(text)


class TestWilson:
    def test_zero_hits(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05

    @pytest.mark.parametrize("z", [1.96, 4.5])
    def test_the_ends_are_exact_at_no_hit_and_at_every_hit(self, z):
        # at 0 hits lo read 5.55e-17 at n = 15, z = 4.5, and at n hits hi
        # read 0.9999999999999999 at n = 19
        for n in range(1, 3000):
            assert wilson_interval(0, n, z=z)[0] == 0.0
            assert wilson_interval(n, n, z=z)[1] == 1.0

    def test_no_trials_say_nothing(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @pytest.mark.parametrize("hits,n,z", [(5, 10, 1e300), (0, 10, 1e300), (10, 10, 1e300),
                                          (5, 10, 1.4e154)])
    def test_a_z_whose_square_overflows_gives_the_limit(self, hits, n, z):
        # z * z overflowed to inf and (5, 10, z=1e300) returned (nan, nan)
        assert wilson_interval(hits, n, z=z) == (0.0, 1.0)

    @pytest.mark.parametrize("hits,n", [(-1, 10), (11, 10), (1, 0), (0, -1)])
    def test_hits_must_lie_in_0_n(self, hits, n):
        with pytest.raises(ValueError, match=f"hits={hits}, n={n}"):
            wilson_interval(hits, n)

    @pytest.mark.parametrize("hits,n,z,shown", [
        (3.5, 10, 1.96, "hits=3.5"), (3, 10.0, 1.96, "n=10.0"), (True, 10, 1.96, "hits=True"),
        (3, 10, -1.0, "z=-1.0"), (3, 10, 0.0, "z=0.0"), (3, 10, math.nan, "z=nan")])
    def test_arguments_must_be_counts_and_positive_z(self, hits, n, z, shown):
        # z=-1 returned (0.458, 0.179), a lower bound above the upper one
        with pytest.raises(ValueError, match=shown):
            wilson_interval(hits, n, z=z)

    @pytest.mark.parametrize("hits,n,shown", [
        ("3", 10, "hits='3'"), (None, 10, "hits=None"), (3, "10", "n='10'")])
    def test_non_integers_are_named_before_the_range_test(self, hits, n, shown):
        # each raised a TypeError from the comparison 0 <= hits <= n
        with pytest.raises(ValueError, match=shown):
            wilson_interval(hits, n)

    def test_contains_the_point_estimate(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 10_000))
            hits = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(hits, n)
            assert lo <= hits / n <= hi


class TestEstimate:
    def test_precondition_on_hit_count(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        with pytest.raises(TooFewHitsError, match="replication count too low"):
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

    def test_an_event_every_run_hits_has_a_rate_interval_from_zero(self, mm1_stable):
        # every queue is at least 0, so every run hits; the interval's lower
        # end read -0.0 from -log(1) / n
        event = RareEventSpec("terminal", 0, 0.0, 1.0)
        row = estimate_rare_event(event, mm1_stable, [5], [50], seed=2)["scales"][0]
        assert row["hits"] == 50 and row["ci_high"] == 1.0
        low = row["rate_ci"][0]
        assert low == 0.0 and math.copysign(1.0, low) == 1.0

    def test_running_max_dominates_terminal(self, mm1_stable):
        term = RareEventSpec("terminal", 0, 0.4, 1.0)
        runm = RareEventSpec("running_max", 0, 0.4, 1.0)
        p_term = estimate_rare_event(term, mm1_stable, [5], [50_000], seed=3)
        p_runm = estimate_rare_event(runm, mm1_stable, [5], [50_000], seed=3)
        assert p_runm["scales"][0]["p_hat"] >= p_term["scales"][0]["p_hat"]

    @pytest.mark.parametrize("queue", [1, 4])
    def test_event_queue_must_exist(self, mm1_stable, queue):
        # the one-queue counter would otherwise count queue 1 for any index
        event = RareEventSpec("terminal", queue, 0.2, 1.0)
        with pytest.raises(ValueError, match="not one of the 1 queues"):
            estimate_rare_event(event, mm1_stable, [5], [1000], seed=0)

    def test_reps_must_match_scales(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_rare_event(event, mm1_stable, [5, 10], [100], seed=0)

    @pytest.mark.parametrize("scales,reps", [([0], [100]), ([-3], [100]), ([5], [0]),
                                             ([5, 10], [100, -1]), ([], [])])
    @pytest.mark.parametrize("net", ["mm1_stable", "two_queue"])
    def test_scales_and_reps_must_be_positive(self, request, net, scales, reps):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="at least 1"):
            estimate_rare_event(event, request.getfixturevalue(net), scales, reps, seed=0)


    @pytest.mark.parametrize("scales,shown", [([5, 5], "[5, 5]"), ([10, 5, 10], "[10, 5, 10]"),
                                              (np.array([5, 5]), "[5 5]")],
                             ids=["pair", "triple", "array"])
    def test_a_repeated_scale_is_refused(self, mm1_stable, scales, shown):
        # two rows of the same replicates gave a rank-deficient fit:
        # intercept 0.434 on the drain net with scales_used [5, 5]
        event = RareEventSpec("terminal", 0, 0.6, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"scales={shown}")):
            estimate_rare_event(event, mm1_stable, scales, [100_000] * len(scales), seed=1)

    @pytest.mark.parametrize("scales,reps", [([2.5], [100]), ([5], [2.5]), ([5], [True]),
                                             ([5.0], [100])])
    def test_scales_and_reps_must_be_integers(self, mm1_stable, scales, reps):
        # scales=[2.5] used to return hits; reps=[2.5] raised a TypeError
        event = RareEventSpec("terminal", 0, 0.2, 1.0)
        with pytest.raises(ValueError, match="must be integers"):
            estimate_rare_event(event, mm1_stable, scales, reps, seed=0)


class TestHitCounts:
    """Per-seed hits of the one batch loop, pinned; each batch draws its
    event counts as one histogram and runs in lock step.  Each pin is also
    checked against the exact law at z = 4.5, so a pin is a sample of it
    and not only what the code printed."""

    # two batches each: 69905 replicates per batch on the drain net at n=5
    # and 43690 on the weighted net at n=4
    @pytest.mark.parametrize("net,kind,queue,c,n,reps,hits", [
        ("mm1_stable", "terminal", 0, 0.6, 5, 75_000, 7822),
        ("mm1_stable", "running_max", 0, 0.6, 5, 75_000, 25604),
        ("weighted_net", "terminal", 0, 0.75, 4, 45_000, 19593),
        ("weighted_net", "running_max", 1, 0.75, 4, 45_000, 11814),
    ], ids=["mm1-terminal", "mm1-running_max", "weighted-terminal", "weighted-running_max"])
    def test_hits_per_seed(self, request, net, kind, queue, c, n, reps, hits):
        topology = request.getfixturevalue(net)
        event = RareEventSpec(kind, queue, c, 1.0)
        lo, hi = wilson_interval(hits, reps, z=4.5)
        assert lo <= exact_probability(topology, event, n) <= hi
        report = estimate_rare_event(event, topology, [n], [reps], seed=9)
        assert report["scales"][0]["hits"] == hits


class TestMM1Counter:
    """One-queue hit counting behind ``estimate_rare_event``, against the
    exact law."""

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
        assert lo <= exact_probability(mm1_stable, event, 5) <= hi

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
        path, value = minimize_action(event, two_queue, PoissonCost(two_queue), segments=1)
        assert value == 0.0
        assert path(event.T)[0] >= 0.2 - 1e-9

    def test_drift_reversal_value(self, mm1_stable):
        # climbing against drift -1 to level 1 in unit time costs log 2
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        _, value = minimize_action(event, mm1_stable, PoissonCost(mm1_stable), segments=1)
        assert value == pytest.approx(0.6931471805599454, abs=1e-12)

    # the other values the search finds on the benchmark's nets (drain,
    # README, single), pinned: the search from the straight path is
    # deterministic
    @pytest.mark.parametrize("net,segments,value", [
        ("mm1_stable", 2, 0.6931471805599454),
        ("weighted_net", 1, 0.7118806658913985),
        ("weighted_net", 2, 0.5055756351197367),
        ("mm1", 1, 0.24514384755981378),
    ], ids=["drain-seg2", "readme-seg1", "readme-seg2", "single-seg1"])
    def test_pinned_values(self, request, net, segments, value):
        topology = request.getfixturevalue(net)
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        _, found = minimize_action(event, topology, PoissonCost(topology), segments=segments)
        assert found == pytest.approx(value, abs=1e-12)

    def test_seed_has_no_effect(self, weighted_net):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        cost = PoissonCost(weighted_net)
        p0, v0 = minimize_action(event, weighted_net, cost, segments=2, seed=0)
        p7, v7 = minimize_action(event, weighted_net, cost, segments=2, seed=7)
        assert v0 == v7
        assert np.array_equal(p0.values, p7.values)
        assert np.array_equal(p0.breakpoints, p7.breakpoints)

    def test_more_segments_never_hurt(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        _, v1 = minimize_action(event, mm1_stable, PoissonCost(mm1_stable), segments=1)
        _, v2 = minimize_action(event, mm1_stable, PoissonCost(mm1_stable), segments=2)
        assert v2 <= v1 + 1e-6

    def test_terminal_constraint_respected(self, mm1_stable):
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        path, _ = minimize_action(event, mm1_stable, PoissonCost(mm1_stable), segments=2)
        assert path(event.T)[0] >= event.threshold - 1e-9

    def test_running_max_not_supported(self, mm1_stable):
        event = RareEventSpec("running_max", 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            minimize_action(event, mm1_stable, PoissonCost(mm1_stable))

    @pytest.mark.parametrize("kwargs,shown", [
        ({"segments": 1.5}, "segments=1.5"), ({"segments": True}, "segments=True"),
        ({"seed": -1}, "seed=-1"), ({"seed": 1.5}, "seed=1.5"),
        ({"q0": [-1.0]}, "q0=[-1.0]"), ({"q0": [0.0, 0.0]}, "q0=[0.0, 0.0]")])
    def test_arguments_checked(self, mm1_stable, kwargs, shown):
        # segments=1.5 used to raise a TypeError
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        with pytest.raises(ValueError, match=re.escape(shown)):
            minimize_action(event, mm1_stable, PoissonCost(mm1_stable), **kwargs)

    def test_event_queue_must_exist(self, two_queue):
        # queue 3 of a two-queue net; estimate_rare_event rejects it alike
        event = RareEventSpec("terminal", 2, 1.0, 1.0)
        with pytest.raises(ValueError, match="queue 3 is not one of the 2 queues"):
            minimize_action(event, two_queue, PoissonCost(two_queue))

    def test_no_finite_start_is_a_typed_error(self, two_queue):
        # every straight path off the tie grows a queue that is not the
        # shorter one, and the queue-space search never lands on the tie
        event = RareEventSpec("terminal", 0, 1.0, 1.0)
        with pytest.raises(NoFiniteStartError, match="finite action"):
            minimize_action(event, two_queue, PoissonCost(two_queue))

    def test_no_finite_start_on_the_second_readme_queue(self, weighted_net):
        event = RareEventSpec("terminal", 1, 1.0, 1.0)
        with pytest.raises(NoFiniteStartError, match="finite action"):
            minimize_action(event, weighted_net, PoissonCost(weighted_net))


class TestGenericCounter:
    """Batched hit counting on networks other than the M/M/1 queue."""

    # 60k replicates make two batches at n=4, the second partial; the
    # two-queue cases cover both queues, so an arrival routed to a queue
    # outside its stream's admissible set or past its weighted argmin shows,
    # and the one-queue net with two streams checks that every stream feeds
    # the reflected walk
    @pytest.mark.parametrize("net,kind,queue,c", [
        ("weighted_net", "terminal", 0, 1.0),
        ("weighted_net", "running_max", 1, 0.75),
        ("two_queue", "terminal", 1, 1.0),
        ("two_queue", "running_max", 0, 1.5),
        ("two_stream_queue", "terminal", 0, 1.0),
        ("two_stream_queue", "running_max", 0, 0.75),
    ])
    def test_matches_exact_law(self, request, net, kind, queue, c):
        topo = request.getfixturevalue(net)
        event = RareEventSpec(kind, queue, c, 1.0)
        reps = 60_000
        row = estimate_rare_event(event, topo, [4], [reps], seed=5)["scales"][0]
        lo, hi = wilson_interval(row["hits"], reps, z=4.5)
        assert lo <= exact_probability(topo, event, 4) <= hi

    def test_seed_fixes_the_stream(self, weighted_net):
        event = RareEventSpec("running_max", 1, 0.75, 1.0)

        def hits(seed):
            report = estimate_rare_event(event, weighted_net, [4, 5], [500, 500], seed=seed)
            return [row["hits"] for row in report["scales"]]

        assert hits(4) == hits(4)
        assert hits(4) != hits(5)

import hashlib
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest

from jsqldp import (
    SamplePath,
    TieRule,
    audit,
    scale_counters,
    scale_path,
    simulate,
    terminal_statistics,
    validate,
    wilson_interval,
)
from jsqldp.sim import RareEventSpec, _draw, _replicate_statistics, _route, count_hits


class TestReproducibility:
    def test_identical_arguments_identical_paths(self, two_queue):
        p1 = simulate(two_queue, 50, 2.0, seed=3, q0_scaled=[1.0, 0.0])
        p2 = simulate(two_queue, 50, 2.0, seed=3, q0_scaled=[1.0, 0.0])
        assert np.array_equal(p1.times, p2.times)
        assert np.array_equal(p1.queues, p2.queues)
        assert np.array_equal(p1.routed, p2.routed)

    def test_different_seeds_differ(self, two_queue):
        p1 = simulate(two_queue, 50, 2.0, seed=3)
        p2 = simulate(two_queue, 50, 2.0, seed=4)
        assert not np.array_equal(p1.times, p2.times)

    def test_terminal_statistics_match_full_history(self, two_queue):
        p = simulate(two_queue, 30, 2.0, seed=9, q0_scaled=[0.5, 0.5])
        q_end, q_max = terminal_statistics(two_queue, 30, 2.0, seed=9,
                                           q0_scaled=[0.5, 0.5])
        assert np.array_equal(q_end, p.queues[-1])
        assert np.array_equal(q_max, p.queues.max(axis=0))

    @pytest.mark.parametrize("tie,q0", [
        (TieRule.UNIFORM_RANDOM, [1.0, 0.3]),
        (TieRule.LOWEST_INDEX, [0.0, 0.7]),
    ])
    @pytest.mark.parametrize("seed", [9, 10])
    def test_terminal_statistics_match_weighted_history(self, weighted_net, tie, q0, seed):
        p = simulate(weighted_net, 30, 2.0, seed=seed, tie_rule=tie, q0_scaled=q0)
        q_end, q_max = terminal_statistics(weighted_net, 30, 2.0, seed=seed, tie_rule=tie,
                                           q0_scaled=q0)
        assert np.array_equal(q_end, p.queues[-1])
        assert np.array_equal(q_max, p.queues.max(axis=0))

    def test_pinned_path_digest(self, weighted_net):
        # guards the stream layout: counts, clock bytes then event times,
        # split uniforms and tie uniforms, each from its own stream
        p = simulate(weighted_net, 20, 2.0, seed=7, tie_rule=TieRule.UNIFORM_RANDOM,
                     q0_scaled=[1.0, 0.3])
        h = hashlib.sha256()
        for arr in (p.times, p.queues, p.arrivals, p.services, p.departures, p.routed):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == (
            "ac46fe2579f3971618258345a76f1a3b95f2c560fad4246986743a3b0ac165e7")


class TestAudit:
    @pytest.mark.parametrize("seed", range(10))
    def test_balance_identities_hold(self, weighted_net, seed):
        p = simulate(weighted_net, 20, 2.0, seed=seed,
                     tie_rule=TieRule.UNIFORM_RANDOM, q0_scaled=[1.0, 0.3])
        audit(p, weighted_net)

    def test_audit_detects_tampering(self, mm1):
        p = simulate(mm1, 10, 2.0, seed=0)
        p.queues[-1, 0] += 1
        with pytest.raises(AssertionError):
            audit(p, mm1)

    @staticmethod
    def _one_arrival(q0, queue, stream, M):
        """A one-event path from ``q0``: an arrival of ``stream`` joins ``queue``."""
        K = len(q0)
        queues = np.array([q0, q0])
        queues[1, queue] += 1
        arrivals = np.zeros((2, M), dtype=np.int64)
        arrivals[1, stream] = 1
        routed = np.zeros((2, K, M), dtype=np.int64)
        routed[1, queue, stream] = 1
        zeros = np.zeros((2, K), dtype=np.int64)
        return SamplePath(n=1, seed=0, times=np.array([0.0, 0.5]), queues=queues,
                          arrivals=arrivals, services=zeros, departures=zeros.copy(),
                          routed=routed, horizon=1.0)

    def test_audit_accepts_a_least_level_arrival(self, two_queue, weighted_net):
        audit(self._one_arrival([0, 1], 0, 0, 1), two_queue)
        # stream 2 compares Q_1 / (1/2) = 2 with Q_2 / (1/3) = 3 and joins queue 1
        audit(self._one_arrival([1, 1], 0, 1, 2), weighted_net)

    def test_audit_detects_an_arrival_above_the_least_level(self, two_queue, weighted_net):
        # at (0, 1) queue 2 is not the shortest; used to pass
        with pytest.raises(AssertionError, match="least level"):
            audit(self._one_arrival([0, 1], 1, 0, 1), two_queue)
        with pytest.raises(AssertionError, match="least level"):
            audit(self._one_arrival([1, 1], 1, 1, 2), weighted_net)

    def test_audit_detects_routing_outside_the_admissible_set(self, weighted_net):
        # stream 1 may use only queue 1; used to pass
        with pytest.raises(AssertionError, match="admissible"):
            audit(self._one_arrival([0, 0], 1, 0, 2), weighted_net)

    def test_audit_detects_a_path_of_another_net(self, two_queue, weighted_net):
        with pytest.raises(AssertionError, match="M=1"):
            audit(simulate(two_queue, 5, 1.0, seed=0), weighted_net)

    def test_initial_state_is_floor_of_scaled(self, two_queue):
        p = simulate(two_queue, 7, 0.1, seed=0, q0_scaled=[0.5, 0.99])
        assert np.array_equal(p.queues[0], [3, 6])


class TestRouting:
    def test_ties_go_to_lowest_index(self, two_queue):
        p = simulate(two_queue, 1, 5.0, seed=0, tie_rule=TieRule.LOWEST_INDEX)
        arr = np.flatnonzero(np.diff(p.arrivals[:, 0]) == 1)
        first = arr[0]
        # queues start equal at (0, 0), so the tie sends it to queue 1
        assert p.routed[first + 1, 0, 0] - p.routed[first, 0, 0] == 1

    def test_arrivals_join_weighted_shortest(self, weighted_net):
        p = simulate(weighted_net, 10, 2.0, seed=1)
        for j in range(len(p.times) - 1):
            dE = p.routed[j + 1] - p.routed[j]
            if dE.sum() == 0:
                continue
            k, m = map(int, np.argwhere(dE == 1)[0])
            q = p.queues[j]
            levels = {l: int(q[l]) / weighted_net.weights[(l, m)]
                      for l in weighted_net.admissible[m]}
            assert levels[k] == min(levels.values())

    def test_tie_rules_agree_in_the_large(self, two_queue):
        qa = simulate(two_queue, 1000, 1.0, seed=5,
                      tie_rule=TieRule.LOWEST_INDEX).queues[-1] / 1000
        qb = simulate(two_queue, 1000, 1.0, seed=5,
                      tie_rule=TieRule.UNIFORM_RANDOM).queues[-1] / 1000
        assert np.abs(qa - qb).max() <= 0.05


class TestStatistics:
    def test_arrival_counts_are_poisson_like(self, mm1):
        # A(50) ~ Poisson(50): the mean over 100 seeds sits within 3 sigma
        totals = [simulate(mm1, 1, 50.0, seed=s).arrivals[-1, 0] for s in range(100)]
        mean = np.mean(totals)
        assert abs(mean - 50.0) <= 3 * np.sqrt(50.0 / 100)

    def test_service_ticks_counted_when_empty(self, mm1_stable):
        # starting empty with mu = 2: service clock keeps ticking
        p = simulate(mm1_stable, 1, 50.0, seed=2)
        assert p.services[-1, 0] > p.departures[-1, 0]


class TestScaling:
    def test_scale_path_is_right_continuous_sampling(self, mm1):
        p = simulate(mm1, 10, 1.0, seed=0, q0_scaled=[1.0])
        sp = scale_path(p, 1e-3)
        assert sp(0.0) == pytest.approx([1.0])
        # grid values match the raw path at the sampled instants
        for t in (0.25, 0.5, 1.0):
            j = np.searchsorted(p.times, t * p.n, side="right") - 1
            assert sp(t) == pytest.approx(p.queues[j] / p.n)

    def test_scale_counters_shapes(self, weighted_net):
        p = simulate(weighted_net, 10, 1.0, seed=0)
        sc = scale_counters(p, 1e-2)
        n_t = len(sc["t"])
        assert sc["Q"].shape == (n_t, 2)
        assert sc["A"].shape == (n_t, 2)
        assert sc["E"].shape == (n_t, 2, 2)

    def test_invalid_scale_rejected(self, mm1):
        with pytest.raises(ValueError):
            simulate(mm1, 0, 1.0, seed=0)


class TestEngine:
    """The uniformized event stream and its batched observer."""

    def test_zero_rate_stream_never_arrives(self):
        topo = validate({"K": 2, "M": 2, "admissible": [[1, 2], [2]],
                         "lambda": [0, 2], "mu": [1, 1]})
        for seed in range(20):
            p = simulate(topo, 10, 2.0, seed=seed, tie_rule=TieRule.UNIFORM_RANDOM)
            assert p.arrivals[-1, 0] == 0
            assert p.routed[-1, :, 0].sum() == 0
            assert p.arrivals[-1, 1] > 0

    def test_uniform_ties_split_the_first_arrival(self, two_queue):
        # both queues start empty, so the first arrival always meets a tie
        seeds = 400
        first = 0
        for seed in range(seeds):
            p = simulate(two_queue, 1, 5.0, seed=seed, tie_rule=TieRule.UNIFORM_RANDOM)
            j = np.flatnonzero(np.diff(p.arrivals[:, 0]))[0]
            first += int(p.routed[j + 1, 0, 0] - p.routed[j, 0, 0])
        assert abs(first - seeds / 2) <= 4.5 * np.sqrt(seeds / 4)

    # a cut on each of bytes 64 and 128 and none inside a byte; two cuts
    # inside byte 85 and a share of 1/1000, below 1/256; a zero-rate stream,
    # whose cut repeats the one before it
    CLOCK_NETS = [
        {"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [1], "mu": [1, 2]},
        {"K": 2, "M": 2, "admissible": [[1, 2], [2]], "lambda": [1, 0.003],
         "mu": [1, 0.997]},
        {"K": 2, "M": 3, "admissible": [[1, 2], [2], [1]], "lambda": [0.3, 0, 2.2],
         "mu": [1, 0.7]},
    ]

    def test_clocks_match_an_exact_reference(self):
        # each clock is #{i : c_i <= (b + v) / 256} in exact arithmetic, with
        # b and v re-drawn from the spawned streams and v drawn only by an
        # event whose byte interval holds a non-integer 256 c_i
        for spec, tie in product(self.CLOCK_NETS, TieRule):
            topo = validate(spec)
            counts, clocks, ties, _ = _draw(topo, 50, 3.0, 8, 1, 20, tie)
            events = int(counts.sum())
            _, byte_rng, split_rng, tie_rng = map(
                np.random.default_rng, np.random.SeedSequence([8, 1]).spawn(4))
            raw = byte_rng.bit_generator.random_raw(-(-events // 8)).tobytes()[:events]
            v_stream = iter(split_rng.random(events).tolist())
            rates = list(map(Fraction, [*topo.lam.tolist(), *topo.mu.tolist()]))
            cuts = [share / sum(rates) for share in accumulate(rates[:-1])]
            expected, splits = [], 0
            for b in raw:
                v = Fraction(0)
                if any(b < 256 * c < b + 1 for c in cuts):
                    v, splits = Fraction(next(v_stream)), splits + 1
                expected.append(sum(c <= (b + v) / 256 for c in cuts))
            assert clocks.dtype == np.uint8
            assert clocks.tolist() == expected
            assert (splits > 0) == (spec["lambda"] != [1])
            if tie is TieRule.UNIFORM_RANDOM:
                assert np.array_equal(ties, tie_rng.random(events))
            else:
                assert ties is None

    @pytest.mark.parametrize("spec", CLOCK_NETS[1:], ids=["one-byte", "zero-rate"])
    def test_clock_frequencies_match_the_rate_shares(self, spec):
        topo = validate(spec)
        counts, clocks, _, _ = _draw(topo, 1000, 1.0, 5, 0, 400, TieRule.LOWEST_INDEX)
        rates = np.concatenate([topo.lam, topo.mu])
        events = int(counts.sum())
        assert events >= 10**6
        for hits, share in zip(np.bincount(clocks, minlength=len(rates)).tolist(),
                               (rates / rates.sum()).tolist()):
            lo, hi = wilson_interval(hits, events, z=4.5)
            assert lo <= share <= hi

    # the weighted net runs the scalar router, the one-queue nets (one and two
    # streams) the reflected walk
    NETS = [("weighted_net", [0.3, 0.1]), ("mm1_stable", [0.3]), ("two_stream_queue", [0.7])]

    @pytest.mark.parametrize("reps", [1, 7, 50])
    @pytest.mark.parametrize("tie", list(TieRule))
    def test_batch_replicate_zero_is_terminal_statistics(self, request, reps, tie):
        for net, q0 in self.NETS:
            topo = request.getfixturevalue(net)
            for seed in range(5):
                q_end, q_max = _replicate_statistics(topo, 10, 1.5, seed, 0, reps,
                                                     ("terminal", "running_max"), tie, q0)
                assert q_end.shape == q_max.shape == (reps, topo.K)
                (only_max,) = _replicate_statistics(topo, 10, 1.5, seed, 0, reps,
                                                    ("running_max",), tie, q0)
                assert np.array_equal(only_max, q_max)
                one_end, one_max = terminal_statistics(topo, 10, 1.5, seed, tie, q0)
                assert np.array_equal(q_end[0], one_end)
                assert np.array_equal(q_max[0], one_max)
                p = simulate(topo, 10, 1.5, seed, tie, q0)
                assert np.array_equal(one_end, p.queues[-1])
                assert np.array_equal(one_max, p.queues.max(axis=0))

    def test_count_hits_replicate_zero_is_terminal_statistics(self, weighted_net):
        # the event's level is n * c - 1e-9: met at c = value / n, missed
        # half a customer above it
        for seed in range(5):
            q_end, q_max = terminal_statistics(weighted_net, 10, 1.5, seed)
            for kind, value in (("terminal", q_end), ("running_max", q_max)):
                for k in range(weighted_net.K):
                    for top, hits in ((value[k], 1), (value[k] + 0.5, 0)):
                        event = RareEventSpec(kind, k, top / 10, 1.5)
                        assert count_hits(weighted_net, event, 10, seed, 1) == hits

    def test_count_hits_numbers_its_batches_from_the_seed(self, mm1):
        # 2**19 expected events per replicate make batches of two, so five
        # replicates are batches 0, 1 and 2 of the stream at seed 3
        T = 2.0**18
        tops = np.concatenate([
            _replicate_statistics(mm1, 1, T, 3, batch, reps, ("running_max",))[0][:, 0]
            for batch, reps in [(0, 2), (1, 2), (2, 1)]])
        for level in tops.tolist():
            event = RareEventSpec("running_max", 0, level, T)
            assert count_hits(mm1, event, 1, 3, 5) == (tops >= level).sum()

    @pytest.mark.parametrize("T", [0.05, 2.0])
    def test_batch_observer_matches_replicate_loop(self, request, T):
        # at T=0.05 (n=10) most replicates have no event at all; the scalar
        # router is the reference for every net
        for net, q0_scaled in self.NETS:
            topo = request.getfixturevalue(net)
            q0 = np.floor(10 * np.array(q0_scaled)).astype(np.int64)
            for tie in TieRule:
                counts, clocks, ties, _ = _draw(topo, 10, T, 4, 2, 300, tie)
                moves = _route(topo, q0, counts, clocks, ties)
                q_end, q_max = _replicate_statistics(topo, 10, T, 4, 2, 300,
                                                     ("terminal", "running_max"), tie, q0_scaled)
                events = iter(zip(clocks.tolist(), moves.tolist()))
                for r, count in enumerate(counts):
                    q, top = q0.copy(), q0.copy()
                    for _ in range(count):
                        c, k = next(events)
                        if k >= 0:
                            q[k] += 1 if c < topo.M else -1
                            assert q[k] >= 0
                        top = np.maximum(top, q)
                    assert np.array_equal(q_end[r], q) and np.array_equal(q_max[r], top)


class TestValidation:
    @pytest.mark.parametrize("fn", [simulate, terminal_statistics])
    @pytest.mark.parametrize("n,T,q0,message", [
        (0, 1.0, None, "scale"),
        (5, -1.0, None, "horizon"),
        (5, float("inf"), None, "horizon"),
        (5, float("nan"), None, "horizon"),
        (5, 1.0, [-1.0, 0.0], "nonnegative"),
        (5, 1.0, [float("nan"), 0.0], "finite"),
        (5, 1.0, [1.0], "2 entries"),
    ], ids=["n0", "T-negative", "T-inf", "T-nan", "q0-negative", "q0-nan", "q0-length"])
    def test_bad_arguments_raise(self, two_queue, fn, n, T, q0, message):
        with pytest.raises(ValueError, match=message):
            fn(two_queue, n, T, seed=0, q0_scaled=q0)

    @pytest.mark.parametrize("fn", [simulate, terminal_statistics])
    @pytest.mark.parametrize("n,seed,shown", [
        (2.5, 0, "n=2.5"), (True, 0, "n=True"), (5, -1, "seed=-1"), (5, 1.5, "seed=1.5"),
        (5, True, "seed=True")])
    def test_counts_must_be_integers(self, two_queue, fn, n, seed, shown):
        # n=2.5 used to run at a fractional scale; seed=1.5 raised a TypeError
        with pytest.raises(ValueError, match=shown):
            fn(two_queue, n, 1.0, seed=seed)

    @pytest.mark.parametrize("fn", [simulate, terminal_statistics])
    @pytest.mark.parametrize("tie_rule", ["uniform", "bogus"])
    def test_tie_rule_must_be_a_tie_rule(self, two_queue, fn, tie_rule):
        # 'uniform' used to run lowest-index ties without a word
        with pytest.raises(ValueError, match=f"tie_rule='{tie_rule}'"):
            fn(two_queue, 5, 1.0, seed=0, tie_rule=tie_rule)

    @pytest.mark.parametrize("fn", [scale_path, scale_counters])
    @pytest.mark.parametrize("grid_step", [0.0, -1.0, float("nan")])
    def test_grid_step_must_be_positive_and_finite(self, two_queue, fn, grid_step):
        path = simulate(two_queue, 5, 1.0, seed=0)
        with pytest.raises(ValueError, match="grid_step"):
            fn(path, grid_step)

    def test_a_step_beyond_the_horizon_keeps_the_final_state(self, two_queue):
        # the one-point grid was padded with the t = 0 state: (0, 0) at t = 1
        p = simulate(two_queue, 20, 1.0, seed=3)
        sp = scale_path(p, 2.0)
        assert sp.breakpoints.tolist() == [0.0, 1.0]
        assert sp.values.tolist() == [[0.0, 0.0], (p.queues[-1] / 20).tolist()]
        assert sp(1.0).tolist() == [0.85, 0.7]

    def test_zero_horizon_is_the_initial_state(self, two_queue):
        p = simulate(two_queue, 5, 0.0, seed=0, q0_scaled=[1.0, 0.4])
        assert p.times.tolist() == [0.0]
        assert p.queues.tolist() == [[5, 2]]
        # one grid time, repeated at scaled time 1 to make a path
        assert scale_path(p).breakpoints.tolist() == [0.0, 1.0]
        assert scale_path(p).values.tolist() == [[1.0, 0.4], [1.0, 0.4]]

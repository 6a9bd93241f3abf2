import hashlib

import numpy as np
import pytest

from jsqldp import (
    TieRule,
    audit,
    scale_counters,
    scale_path,
    simulate,
    terminal_statistics,
    validate,
)
from jsqldp.sim import _draw, _replicate_statistics, _route


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
        # guards the stream layout: counts, interleaved clock and tie
        # uniforms, then the event times
        p = simulate(weighted_net, 20, 2.0, seed=7, tie_rule=TieRule.UNIFORM_RANDOM,
                     q0_scaled=[1.0, 0.3])
        h = hashlib.sha256()
        for arr in (p.times, p.queues, p.arrivals, p.services, p.departures, p.routed):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == (
            "c03679f2822ea55d11917abcb150dfd63e07c9e106f3cf304f9d8a3cb6ad8f66")


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
            levels = weighted_net.weighted_levels(q.astype(float), m)
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

    @pytest.mark.parametrize("reps", [1, 7, 50])
    @pytest.mark.parametrize("tie", list(TieRule))
    def test_batch_replicate_zero_is_terminal_statistics(self, weighted_net, reps, tie):
        for seed in range(5):
            q_end, q_max = _replicate_statistics(weighted_net, 10, 1.5, seed, 0, reps, tie,
                                                 [0.4, 0.2])
            assert q_end.shape == q_max.shape == (reps, 2)
            one_end, one_max = terminal_statistics(weighted_net, 10, 1.5, seed, tie,
                                                   [0.4, 0.2])
            assert np.array_equal(q_end[0], one_end)
            assert np.array_equal(q_max[0], one_max)

    @pytest.mark.parametrize("T", [0.05, 2.0])
    def test_batch_observer_matches_replicate_loop(self, weighted_net, T):
        # at T=0.05 (n=10) most replicates have no event at all
        q0 = np.array([3, 1])
        counts, clocks, ties, _ = _draw(weighted_net, 10, T, 4, 2, 300, TieRule.UNIFORM_RANDOM)
        moves = _route(weighted_net, q0, counts, clocks, ties)
        q_end, q_max = _replicate_statistics(weighted_net, 10, T, 4, 2, 300,
                                             TieRule.UNIFORM_RANDOM, [0.3, 0.1])
        events = iter(zip(clocks.tolist(), moves.tolist()))
        for r, count in enumerate(counts):
            q, top = q0.copy(), q0.copy()
            for _ in range(count):
                c, k = next(events)
                if k >= 0:
                    q[k] += 1 if c < weighted_net.M else -1
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

    def test_zero_horizon_is_the_initial_state(self, two_queue):
        p = simulate(two_queue, 5, 0.0, seed=0, q0_scaled=[1.0, 0.4])
        assert p.times.tolist() == [0.0]
        assert p.queues.tolist() == [[5, 2]]

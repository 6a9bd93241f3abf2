import gc
import hashlib
import math
import weakref
from fractions import Fraction
from itertools import accumulate, product
from unittest import mock

import numpy as np
import pytest
from conftest import HIT_PINS, NET_SETTINGS, small_nets
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import poisson

from jsqldp import (
    SamplePath,
    TieRule,
    audit,
    scale_counters,
    scale_path,
    simulate,
    validate,
    wilson_interval,
)
from jsqldp import sim
from jsqldp.sim import (
    RareEventSpec,
    _by_replicate,
    _destinations,
    _draw,
    _lock_step,
    _replicate_statistics,
    _route,
    _window,
    _window_pmf,
    count_hits,
)


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

    def test_pinned_path_digest(self, weighted_net):
        # guards the stream layout: counts, clock bytes then event times,
        # split uniforms and tie uniforms, each from its own stream
        p = simulate(weighted_net, 20, 2.0, seed=7, tie_rule=TieRule.UNIFORM_RANDOM,
                     q0_scaled=[1.0, 0.3])
        h = hashlib.sha256()
        for arr in (p.times, p.queues, p.arrivals, p.services, p.departures, p.routed):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == (
            "5bbb0654e73a28dc3f067228d2832027e030b3973ba19e1ff3317460a8d7e823")


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

    def test_audit_compares_levels_past_int64_exactly(self):
        # the level multipliers are 10**16 and 10**16 + 1 and the queues pass
        # 922, so Q_k * c_k passes 2**63; int64 levels wrapped and this path
        # of the router failed the least-level check
        net = validate({"K": 2, "M": 1, "admissible": [[1, 2]],
                        "weights": [{"1": "1/10000000000000000", "2": "1/10000000000000001"}],
                        "lambda": [3], "mu": [1, 1]})
        p = simulate(net, 2000, 1.0, seed=1)
        assert int(p.queues.max()) * 10**16 >= 2**63
        audit(p, net)
        with pytest.raises(AssertionError, match="least level"):
            audit(self._one_arrival([943, 944], 1, 0, 1), net)

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


def _every_queue(topo, statistic):
    """``statistic(k)``, one value per replicate, of every queue k as the
    columns of one table."""
    return np.stack([statistic(k) for k in range(topo.K)], axis=1)


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

    def test_a_byte_can_count_more_than_255_cuts(self):
        # 299 streams of rate 1 into one queue served at rate 1: 300 clocks of
        # equal share, so an event's clock is floor(300 (b + v) / 256) for its
        # byte b and v (0 unless drawn), up to 299; a byte of 255 is at or
        # above 298 cuts.  The cuts 256 i / 300 = 64 i / 75 are whole bytes at
        # i = 75, 150 and 225, and every other one splits its byte
        M = 299
        topo = validate({"K": 1, "M": M, "admissible": [[1]] * M, "lambda": [1] * M, "mu": [1]})
        counts, clocks, _, _ = _draw(topo, 1, 1.0, 3, 0, 20, TieRule.LOWEST_INDEX)
        events = int(counts.sum())
        _, byte_rng, split_rng, _ = map(
            np.random.default_rng, np.random.SeedSequence([3, 0]).spawn(4))
        raw = byte_rng.bit_generator.random_raw(-(-events // 8)).tobytes()[:events]
        v_stream = iter(split_rng.random(events).tolist())
        split = {64 * i // 75 for i in range(1, 300) if i % 75}
        expected = [math.floor(300 * (b + (Fraction(next(v_stream)) if b in split else 0)) / 256)
                    for b in raw]
        assert clocks.dtype == np.uint16
        assert clocks.tolist() == expected
        assert max(expected) >= 298

    # wide batches at each mean (Λ = 2 on mm1, n = 1, T = mean / 2): about
    # 1.5e4 to 5e6 events each; and, at reps = 1, the one-replicate batches
    # 0 to 19 999 of the seed, pooled
    @pytest.mark.parametrize("mean,reps", [
        (0.015, 1_000_000), (1.0, 200_000), (30.0, 100_000), (1000.0, 5_000), (30.0, 1)])
    def test_a_wide_batch_draws_poisson_counts(self, mm1, mean, reps):
        batches = [_draw(mm1, 1, mean / 2, 6, batch, reps, TieRule.LOWEST_INDEX)[0]
                   for batch in range(20_000 if reps == 1 else 1)]
        assert all(np.all(np.diff(counts) <= 0) for counts in batches)
        counts = np.concatenate(batches)
        window = _window(mean)
        assert counts.dtype == np.int64 and len(counts) == reps * len(batches)
        # every count from 0 to one past the window, bin by bin
        found = np.bincount(counts, minlength=window.stop + 1)
        for k, hits in enumerate(found.tolist()):
            lo, hi = wilson_interval(hits, len(counts), z=4.5)
            assert lo <= poisson.pmf(k, mean) <= hi, (k, hits)

    @pytest.mark.parametrize("mean", [0.0, 1e-9, 0.015, 1.0, 30.0, 225.0, 1000.0, 1e6, 1e9])
    def test_the_window_omits_less_than_2_to_the_minus_53(self, mean):
        window = _window(mean)
        left = poisson.cdf(window.start - 1, mean) if window.start else 0.0
        assert left + poisson.sf(window.stop - 1, mean) < 2.0**-53
        if mean <= 1000:
            pmf = _window_pmf(mean, window)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(pmf, poisson.pmf(np.arange(window.start, window.stop), mean),
                               rtol=1e-11, atol=0)

    def test_a_batch_at_mean_zero_is_all_zeros(self, mm1):
        for reps in (1, 1000):
            counts, clocks, _, _ = _draw(mm1, 5, 0.0, 1, 0, reps, TieRule.LOWEST_INDEX)
            assert counts.tolist() == [0] * reps and len(clocks) == 0

    # every batch, one replicate included, draws its counts as one
    # histogram over the window (132 counts at mean 30) from the first
    # spawned stream
    @pytest.mark.parametrize("reps", [1, 2, 443, 444])
    def test_every_batch_draws_one_histogram(self, mm1, reps):
        counts = _draw(mm1, 3, 5.0, 7, 2, reps, TieRule.LOWEST_INDEX)[0]
        first = np.random.default_rng(np.random.SeedSequence([7, 2]).spawn(4)[0])
        window = _window(30.0)
        hist = first.multinomial(reps, _window_pmf(30.0, window))
        expected = np.repeat(np.arange(window.start, window.stop)[::-1], hist[::-1])
        assert counts.dtype == np.int64
        assert counts.tolist() == expected.tolist()

    # two queues and two streams, whose arrivals compare queue levels, and
    # one queue fed by one or by two streams, whose clocks fix every move;
    # every queue is its walk reflected at 0
    NETS = ["weighted_net", "mm1_stable", "two_stream_queue"]

    @pytest.mark.parametrize("reps", [1, 7, 50])
    def test_batch_replicate_zero_is_simulate_run(self, request, monkeypatch, reps):
        # replicate 0 of a batch of count_hits, from the empty net under
        # lowest-index ties, is the run simulate makes of replicate 0's
        # events handed to it as a one-replicate draw: at reps = 1 the
        # draw's events in order, the run simulate makes at the seed; at
        # reps >= 2 the events at offset[t].  Each queue's terminal level
        # and running maximum are that run's last row and running maximum;
        # the batch runs in lock step at 50 replicates and replicate by
        # replicate at 1 and 7
        for net, T, seed in product(self.NETS, (1.5, 0.3), range(5)):
            topo = request.getfixturevalue(net)
            counts, clocks, _, rng = _draw(topo, 10, T, seed, 0, reps, TieRule.LOWEST_INDEX)
            at = np.cumsum([0] + [int((counts > t).sum()) for t in range(int(counts[0]) - 1)])

            def first_replicate(topology, n, T, seed, batch, reps, tie_rule):
                assert reps == 1
                return counts[:1], clocks[at], None, rng

            with monkeypatch.context() as patch:
                patch.setattr(sim, "_draw", first_replicate)
                p = simulate(topo, 10, T, seed)
            if reps == 1:
                assert np.array_equal(p.queues, simulate(topo, 10, T, seed).queues)
            for k in range(topo.K):
                for q_end, q_max in (
                        [_by_replicate(topo, counts, clocks, k, peak) for peak in (False, True)],
                        [_replicate_statistics(topo, 10, RareEventSpec(kind, k, 0, T), seed, 0,
                                               reps) for kind in ("terminal", "running_max")]):
                    assert q_end.shape == q_max.shape == (reps,)
                    assert q_end[0] == p.queues[-1, k]
                    assert q_max[0] == p.queues[:, k].max()

    @staticmethod
    def _check_one_replicate_count(topo, n, T, seed):
        """``count_hits`` at reps = 1 against the run ``simulate`` makes at
        ``seed``: the event's level is n * c - 1e-9, met at c = value / n and
        missed half a customer above it.  Returns the run's event count."""
        p = simulate(topo, n, T, seed)
        for kind, value in (("terminal", p.queues[-1]), ("running_max", p.queues.max(axis=0))):
            for k, top in enumerate(value.tolist()):
                for c, hits in ((top / n, 1), ((top + 0.5) / n, 0)):
                    assert count_hits(topo, RareEventSpec(kind, k, c, T), n, seed, 1) == hits
        return len(p.times) - 1

    def test_a_short_run_is_counted_replicate_by_replicate(self, monkeypatch, weighted_net):
        # runs of 0 to 5 events, where the lock step's fixed cost would
        # outweigh the run, are never reached by it
        monkeypatch.setattr(sim, "_lock_step",
                            mock.Mock(side_effect=AssertionError("_lock_step called")))
        events = {self._check_one_replicate_count(weighted_net, 1, T, seed)
                  for T, seed in product((0.1, 0.3, 0.6), range(10))}
        assert set(range(6)) <= events

    def test_count_hits_replicate_zero_is_simulate_run(self, weighted_net):
        for seed in range(5):
            self._check_one_replicate_count(weighted_net, 10, 1.5, seed)

    def test_count_hits_numbers_its_batches_from_the_seed(self, mm1):
        # 2**19 expected events per replicate make batches of two, so five
        # replicates are batches 0, 1 and 2 of the stream at seed 3
        T = 2.0**18
        for kind in ("terminal", "running_max"):
            tops = np.concatenate([
                _replicate_statistics(mm1, 1, RareEventSpec(kind, 0, 0, T), 3, batch, reps)
                for batch, reps in [(0, 2), (1, 2), (2, 1)]])
            for level in tops.tolist():
                event = RareEventSpec(kind, 0, level, T)
                assert count_hits(mm1, event, 1, 3, 5) == (tops >= level).sum()

    @staticmethod
    def _check_replicate_loop(topo, n, T, reps):
        """``_by_replicate`` and ``_replicate_statistics``, both kinds, every
        queue, on a batch of ``count_hits`` (from an empty net under
        lowest-index ties) against a loop over each replicate's events,
        replicate r's t-th event read at offset[t] + r, routed by the scalar
        router, each queue held at 0."""
        counts, clocks, _, _ = _draw(topo, n, T, 4, 2, reps, TieRule.LOWEST_INDEX)
        assert counts.tolist() == sorted(counts.tolist(), reverse=True)
        # offset[t] counts the events of the replicates still running at
        # the steps before t
        offset = np.cumsum([0] + [int((counts > t).sum()) for t in range(int(counts[0]))])
        found = [[_every_queue(topo, lambda k: _by_replicate(topo, counts, clocks, k, peak))
                  for peak in (False, True)],
                 [_every_queue(topo, lambda k: _replicate_statistics(
                     topo, n, RareEventSpec(kind, k, 0, T), 4, 2, reps))
                  for kind in ("terminal", "running_max")]]
        empty = np.zeros(topo.K, dtype=np.int64)
        for r, count in enumerate(counts.tolist()):
            at = offset[:count] + r
            q, top = empty.copy(), empty.copy()
            for c, k in zip(clocks[at].tolist(), _route(topo, empty, clocks[at], None).tolist()):
                q[k] = max(q[k] + (1 if c < topo.M else -1), 0)
                top = np.maximum(top, q)
            for q_end, q_max in found:
                assert np.array_equal(q_end[r], q) and np.array_equal(q_max[r], top)

    @pytest.mark.parametrize("T", [0.05, 2.0])
    def test_batch_observer_matches_replicate_loop(self, request, T):
        # at T=0.05 (n=10) most replicates have no event at all; batches of
        # 300 replicates from the empty net run in lock step
        for net in self.NETS:
            self._check_replicate_loop(request.getfixturevalue(net), 10, T, 300)

    def test_a_net_without_choice_is_routed_by_its_clocks(self, monkeypatch, two_stream_queue):
        # each stream has one queue (stream 1 queue 2, stream 2 queue 1, or
        # both queue 1), so a clock fixes its event's queue and no level is
        # compared, under either tie rule and from a nonempty start
        dedicated = validate({"K": 2, "M": 2, "admissible": [[2], [1]], "lambda": [1, 0.5],
                              "mu": [2, 1]})
        for topo in (dedicated, two_stream_queue):
            only = [ks[0] for ks, _ in topo.routes]
            for tie in TieRule:
                _, clocks, ties, _ = _draw(topo, 10, 3.0, 5, 0, 1, tie)
                with monkeypatch.context() as patch:
                    patch.setattr(type(topo), "level_multipliers",
                                  mock.Mock(side_effect=AssertionError("levels compared")))
                    moves = _route(topo, np.array([1] * topo.K), clocks, ties)
                assert moves.tolist() == [only[c] if c < topo.M else c - topo.M
                                          for c in clocks.tolist()]
            self._check_replicate_loop(topo, 10, 1.0, 5)

    @NET_SETTINGS
    @given(net=small_nets(), seed=st.integers(0, 2**16), tie=st.sampled_from(TieRule))
    def test_a_service_tick_moves_its_server(self, net, seed, tie):
        # at an empty server too: the router emits no sentinel, and the
        # reflection of the walk keeps the queue at 0
        topo, q0 = net
        _, clocks, ties, _ = _draw(topo, 2, 5.0, seed, 0, 1, tie)
        ticks = clocks >= topo.M
        moves = _route(topo, q0, clocks, ties)
        assert moves.dtype.kind in "ui" and moves.min(initial=0) >= 0
        assert moves[ticks].tolist() == (clocks[ticks] - topo.M).tolist()

    @staticmethod
    def _only(monkeypatch, engine):
        """Make the other engine of ``_replicate_statistics`` fail."""
        other = {"_lock_step": "_by_replicate", "_by_replicate": "_lock_step"}[engine]
        monkeypatch.setattr(sim, other, mock.Mock(side_effect=AssertionError(f"{other} called")))

    @pytest.mark.parametrize("net,reps,engine", [
        ("three_queue", 100, "_by_replicate"), ("weighted_net", 300, "_lock_step")],
        ids=["over-budget", "under-budget"])
    def test_a_batch_over_the_table_budget_takes_the_scalar_router(
            self, request, monkeypatch, net, reps, engine):
        # both batches have more replicates than steps; three queues with
        # about 90 steps need a grid of over 90**3 states, far past
        # TABLE_ENTRIES, so they go replicate by replicate
        topo = request.getfixturevalue(net)
        self._only(monkeypatch, engine)
        assert _draw(topo, 10, 1.0, 4, 2, reps, TieRule.LOWEST_INDEX)[0][0] <= reps
        self._check_replicate_loop(topo, 10, 1.0, reps)

    @pytest.mark.parametrize("net,n,T,reps,engine", [
        ("weighted_net", 10, 2.0, 5, "_by_replicate"), ("mm1_stable", 10, 2.0, 5, "_by_replicate"),
        ("mm1_stable", 100, 2.0, 100, "_lock_step"), ("mm1_stable", 1, 1.0, 1, "_by_replicate")],
        ids=["few-choosing", "few-one-queue", "many-one-queue", "one-short-run"])
    def test_a_narrow_batch_takes_the_cheaper_engine(self, request, monkeypatch, net, n, T,
                                                     reps, engine):
        # fewer replicates than steps, and every table fits: five replicates
        # of about 120 or 60 events cost less one by one than a table and a
        # step each, and so does one replicate of 3 events, against the lock
        # step's fixed cost; on one queue 100 replicates of about 300 events
        # cost less in lock step
        topo = request.getfixturevalue(net)
        self._only(monkeypatch, engine)
        assert _draw(topo, n, T, 4, 2, reps, TieRule.LOWEST_INDEX)[0][0] > reps
        self._check_replicate_loop(topo, n, T, reps)

    @NET_SETTINGS
    @given(net=small_nets(), seed=st.integers(0, 2**16))
    def test_batch_router_matches_the_scalar_router(self, net, seed):
        # lock-step statistics of both kinds and every queue against
        # replicate-by-replicate ones, on a batch of forty replicates from
        # the empty net under lowest-index ties at n=2, T=0.5; on the
        # batch's own table and on a larger one, as a cached table may be
        topo, _ = net
        counts, clocks, _, _ = _draw(topo, 2, 0.5, seed, 0, 40, TieRule.LOWEST_INDEX)
        side = int(counts[0]) + 1
        for peak, width in product((False, True), (side, side + 3)):
            to = _destinations(topo, width)
            lock = _every_queue(
                topo, lambda k: _lock_step(topo, counts, clocks, to, width, k, peak))
            alone = _every_queue(topo, lambda k: _by_replicate(topo, counts, clocks, k, peak))
            assert lock.tolist() == alone.tolist()


class TestTableCache:
    """Each live topology keeps one destination table, the largest built for
    it so far, and every lock-step batch that fits in it reads it."""

    EVENT = RareEventSpec("terminal", 0, 0.5, 1.0)

    def test_a_topology_builds_its_table_once(self, monkeypatch, weighted_net):
        spy = mock.Mock(wraps=_destinations)
        monkeypatch.setattr(sim, "_destinations", spy)
        for _ in range(3):
            count_hits(weighted_net, self.EVENT, 5, 0, 400)
        assert spy.call_count == 1
        # a batch at a larger scale grows the table once, and the smaller
        # scale then reads the larger table
        for n in (10, 10, 5):
            count_hits(weighted_net, self.EVENT, n, 0, 400)
        (_, small), (_, large) = (args for args, _ in spy.call_args_list)
        assert small < large == sim._TABLES[weighted_net][1]
        assert large**weighted_net.K * (weighted_net.M + weighted_net.K) <= sim.TABLE_ENTRIES

    @HIT_PINS
    def test_the_pins_hold_on_a_cold_and_a_warm_table(self, request, net, kind, queue, c, n,
                                                      reps, hits):
        # cold; warm, on the table the first call left; and on a table five
        # wider than any batch of the call needs
        topology = request.getfixturevalue(net)
        event = RareEventSpec(kind, queue, c, 1.0)
        assert topology not in sim._TABLES
        assert count_hits(topology, event, n, 9, reps) == hits
        assert count_hits(topology, event, n, 9, reps) == hits
        side = sim._TABLES[topology][1] + 5
        sim._TABLES[topology] = _destinations(topology, side), side
        assert count_hits(topology, event, n, 9, reps) == hits
        assert sim._TABLES[topology][1] == side

    def test_a_table_is_freed_with_its_topology(self, monkeypatch):
        monkeypatch.setattr(sim, "_TABLES", weakref.WeakKeyDictionary())
        topo = validate({"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [3], "mu": [1, 1]})
        count_hits(topo, self.EVENT, 5, 0, 400)
        assert len(sim._TABLES) == 1
        del topo
        gc.collect()
        assert len(sim._TABLES) == 0

    def test_the_cached_table_is_read_only(self, weighted_net):
        count_hits(weighted_net, self.EVENT, 5, 0, 400)
        to, _ = sim._TABLES[weighted_net]
        with pytest.raises(ValueError, match="read-only"):
            to[0] = 0


class TestValidation:
    @pytest.mark.parametrize("fn", [simulate])
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

    @pytest.mark.parametrize("fn", [simulate])
    @pytest.mark.parametrize("n,seed,shown", [
        (2.5, 0, "n=2.5"), (True, 0, "n=True"), (5, -1, "seed=-1"), (5, 1.5, "seed=1.5"),
        (5, True, "seed=True")])
    def test_counts_must_be_integers(self, two_queue, fn, n, seed, shown):
        # n=2.5 used to run at a fractional scale; seed=1.5 raised a TypeError
        with pytest.raises(ValueError, match=shown):
            fn(two_queue, n, 1.0, seed=seed)

    @pytest.mark.parametrize("fn", [simulate])
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

    @pytest.mark.parametrize("grid_step,ends", [(0.3, 0.9), (0.6, 0.6)])
    def test_a_step_that_does_not_divide_the_horizon_ends_at_it(
            self, two_queue, grid_step, ends):
        # the grid ended at 0.9, short of T = 1, or at 1.2, past it; the
        # path reads (0.6, 0.55) at 0.9 and (0.35, 0.2) at 0.6, against a
        # final state of (0.85, 0.8)
        p = simulate(two_queue, 20, 1.0, seed=3)
        sp = scale_path(p, grid_step)
        assert sp.breakpoints[-2:].tolist() == [pytest.approx(ends), 1.0]
        assert sp.values[-2].tolist() != sp.values[-1].tolist()
        assert sp(1.0).tolist() == (p.queues[-1] / 20).tolist() == [0.85, 0.8]
        counters = scale_counters(p, grid_step)
        assert counters["t"].tolist() == sp.breakpoints.tolist()
        assert counters["A"][-1].tolist() == (p.arrivals[-1] / 20).tolist()

    def test_a_step_beyond_the_horizon_keeps_the_final_state(self, two_queue):
        # the one-point grid was padded with the t = 0 state: (0, 0) at t = 1
        p = simulate(two_queue, 20, 1.0, seed=3)
        sp = scale_path(p, 2.0)
        assert sp.breakpoints.tolist() == [0.0, 1.0]
        assert sp.values.tolist() == [[0.0, 0.0], (p.queues[-1] / 20).tolist()]
        assert sp(1.0).tolist() == [0.85, 0.8]

    def test_zero_horizon_is_the_initial_state(self, two_queue):
        p = simulate(two_queue, 5, 0.0, seed=0, q0_scaled=[1.0, 0.4])
        assert p.times.tolist() == [0.0]
        assert p.queues.tolist() == [[5, 2]]
        # one grid time, repeated at scaled time 1 to make a path
        assert scale_path(p).breakpoints.tolist() == [0.0, 1.0]
        assert scale_path(p).values.tolist() == [[1.0, 0.4], [1.0, 0.4]]

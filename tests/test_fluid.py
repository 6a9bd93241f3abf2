import numpy as np
import pytest

from jsqldp import (
    PiecewisePath,
    fluid_route_step,
    fluid_solve,
    lyapunov_check,
    water_fill,
)


class TestWaterFill:
    def test_mass_stays_in_lowest_bin(self):
        alloc = water_fill(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 0.3)
        assert alloc == pytest.approx([0.3, 0.0])

    def test_levels_equalize_then_rise_together(self):
        # fill bin 1 up to level 1 (mass 1), then split the remaining 0.2
        alloc = water_fill(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.2)
        assert alloc == pytest.approx([1.1, 0.1])

    def test_widths_scale_consumption(self):
        alloc = water_fill(np.array([0.0, 0.0]), np.array([2.0, 1.0]), 3.0)
        assert alloc == pytest.approx([2.0, 1.0])

    def test_exact_conservation(self, rng):
        for _ in range(200):
            n = rng.integers(1, 5)
            levels = rng.uniform(0, 2, n)
            widths = rng.uniform(0.1, 3, n)
            mass = rng.uniform(0, 4)
            alloc = water_fill(levels, widths, mass)
            # conservation to the last representable bit
            assert alloc.sum() == pytest.approx(mass, rel=1e-15, abs=1e-15)
            assert np.all(alloc >= 0)

    def test_zero_mass(self):
        assert np.array_equal(
            water_fill(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.0), [0.0, 0.0]
        )


class TestRouteStep:
    def test_departures_capped_by_content(self, mm1):
        e, d, q = fluid_route_step(
            np.array([0.1]), np.array([0.2]), np.array([1.0]), mm1
        )
        assert d == pytest.approx([0.3])
        assert q == pytest.approx([0.0])
        assert e[0, 0] == pytest.approx(0.2)

    def test_mass_balance(self, two_queue, rng):
        for _ in range(100):
            q = rng.uniform(0, 2, 2)
            da = rng.uniform(0, 0.1, 1)
            db = rng.uniform(0, 0.1, 2)
            e, d, q_next = fluid_route_step(q, da, db, two_queue)
            assert q_next == pytest.approx(q + e.sum(axis=1) - d, abs=1e-14)
            assert np.all(q_next >= 0)
            assert e.sum() == pytest.approx(da.sum(), abs=1e-14)

    def test_negative_inputs_rejected(self, mm1):
        with pytest.raises(ValueError):
            fluid_route_step(np.array([1.0]), np.array([-0.1]), np.array([0.0]), mm1)
        # a NaN queue level never settles in water_fill
        with pytest.raises(ValueError):
            fluid_route_step(np.array([np.nan]), np.array([1.0]), np.array([0.0]), mm1)


class TestSolve:
    def test_two_queue_catch_up(self, two_queue):
        """Queue 2 catches queue 1 at t = 1/3, then both rise at rate 1/2."""
        T = 1.0
        a = PiecewisePath.cumulative_linear(two_queue.lam, T)
        b = PiecewisePath.cumulative_linear(two_queue.mu, T)
        sol = fluid_solve(two_queue, [1.0, 0.0], a, b, T, 1e-3)
        grid = np.linspace(0, T, 501)
        hand = np.where(
            grid[:, None] < 1.0 / 3.0,
            np.stack([1.0 - grid, 2.0 * grid], axis=1),
            (2.0 / 3.0 + (grid[:, None] - 1.0 / 3.0) / 2.0),
        )
        assert np.abs(sol.queue(grid) - hand).max() <= 3e-3

    def test_first_order_convergence(self):
        from jsqldp import validate

        topo = validate(
            {"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [1], "mu": [2, 1]}
        )
        grid = np.linspace(0, 0.4, 201)
        sols = []
        for h in (1e-2, 5e-3, 2.5e-3):
            a = PiecewisePath.cumulative_linear(topo.lam, 0.4)
            b = PiecewisePath.cumulative_linear(topo.mu, 0.4)
            sols.append(fluid_solve(topo, [0.5, 0.5], a, b, 0.4, h).queue(grid))
        e1 = np.abs(sols[0] - sols[2]).max()
        e2 = np.abs(sols[1] - sols[2]).max()
        assert e1 / e2 >= 1.8

    def test_queues_stay_nonnegative(self, mm1_stable):
        a = PiecewisePath.cumulative_linear(mm1_stable.lam, 3.0)
        b = PiecewisePath.cumulative_linear(mm1_stable.mu, 3.0)
        sol = fluid_solve(mm1_stable, [1.0], a, b, 3.0, 1e-3)
        assert np.all(sol.queue.values >= 0)
        # cumulative outputs are monotone
        assert sol.routed.is_nondecreasing()
        assert sol.departed.is_nondecreasing()

    def test_decreasing_input_rejected(self, mm1):
        bad = PiecewisePath(np.array([0.0, 1.0]), np.array([[1.0], [0.0]]))
        good = PiecewisePath.cumulative_linear(mm1.mu, 1.0)
        with pytest.raises(ValueError, match="nondecreasing"):
            fluid_solve(mm1, [0.0], bad, good, 1.0, 1e-2)

    def test_short_input_rejected(self, mm1):
        a = PiecewisePath.cumulative_linear(mm1.lam, 0.5)
        b = PiecewisePath.cumulative_linear(mm1.mu, 1.0)
        with pytest.raises(ValueError, match="defined on"):
            fluid_solve(mm1, [0.0], a, b, 1.0, 1e-2)


    @pytest.mark.parametrize("T,h", [(float("nan"), 1e-2), (1.0, float("nan")),
                                     (float("inf"), 1e-2), (1.0, 0.0)])
    def test_horizon_and_step_must_be_positive_and_finite(self, mm1, T, h):
        a = PiecewisePath.cumulative_linear(mm1.lam, 1.0)
        b = PiecewisePath.cumulative_linear(mm1.mu, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            fluid_solve(mm1, [0.0], a, b, T, h)

    @pytest.mark.parametrize("q0", [[0.0, 0.0], [-1.0], [float("nan")]])
    def test_initial_state_must_fit_the_net(self, mm1, q0):
        a = PiecewisePath.cumulative_linear(mm1.lam, 1.0)
        b = PiecewisePath.cumulative_linear(mm1.mu, 1.0)
        with pytest.raises(ValueError, match="q0="):
            fluid_solve(mm1, q0, a, b, 1.0, 1e-2)


class TestLyapunov:
    def test_distance_between_solutions_contracts(self, two_queue, rng):
        h = 1e-3
        a = PiecewisePath.cumulative_linear(two_queue.lam, 1.0)
        b = PiecewisePath.cumulative_linear(two_queue.mu, 1.0)
        for _ in range(10):
            s1 = fluid_solve(two_queue, rng.uniform(0, 2, 2), a, b, 1.0, h)
            s2 = fluid_solve(two_queue, rng.uniform(0, 2, 2), a, b, 1.0, h)
            assert lyapunov_check(s1, s2) <= 5 * h

    def test_mismatched_grids_rejected(self, two_queue):
        a = PiecewisePath.cumulative_linear(two_queue.lam, 1.0)
        b = PiecewisePath.cumulative_linear(two_queue.mu, 1.0)
        s1 = fluid_solve(two_queue, [1.0, 0.0], a, b, 1.0, 1e-2)
        s2 = fluid_solve(two_queue, [1.0, 0.0], a, b, 1.0, 1e-3)
        with pytest.raises(ValueError, match="grids"):
            lyapunov_check(s1, s2)

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jsqldp import PiecewisePath, fluid_solve, lyapunov_check
from jsqldp.fluid import _fill, _fill_one, _fill_two, _step
from jsqldp.topology import TIE_RTOL


class TestWaterFill:
    def test_mass_stays_in_lowest_bin(self):
        alloc = _fill([0.0, 1.0], [1.0, 1.0], 0.3)
        assert alloc == pytest.approx([0.3, 0.0])

    def test_levels_equalize_then_rise_together(self):
        # fill bin 1 up to level 1 (mass 1), then split the remaining 0.2
        alloc = _fill([0.0, 1.0], [1.0, 1.0], 1.2)
        assert alloc == pytest.approx([1.1, 0.1])

    def test_widths_scale_consumption(self):
        alloc = _fill([0.0, 0.0], [2.0, 1.0], 3.0)
        assert alloc == pytest.approx([2.0, 1.0])

    def test_exact_conservation(self, rng):
        for _ in range(200):
            n = rng.integers(1, 5)
            levels = rng.uniform(0, 2, n)
            widths = rng.uniform(0.1, 3, n)
            mass = rng.uniform(0, 4)
            alloc = np.array(_fill(levels.tolist(), widths.tolist(), mass))
            # conservation to the last representable bit
            assert alloc.sum() == pytest.approx(mass, rel=1e-15, abs=1e-15)
            assert np.all(alloc >= 0)

    def test_zero_mass(self):
        assert _fill([1.0, 2.0], [1.0, 1.0], 0.0) == [0.0, 0.0]

    def test_ties_split_by_width_and_wide_bins_conserve(self, rng):
        # nine bins: the rounding correction sums more terms than the short case
        levels = np.repeat([0.5, 1.0, 1.5], 3)
        widths = rng.uniform(0.1, 3, 9)
        alloc = np.array(_fill(levels.tolist(), widths.tolist(), 2.0))
        assert alloc.sum() == pytest.approx(2.0, rel=1e-15)
        assert alloc[3:] == pytest.approx(np.zeros(6))
        assert alloc[:3] / widths[:3] == pytest.approx(np.full(3, alloc[0] / widths[0]))


# the weight set of the random nets, and random widths
WIDTHS = st.sampled_from([1.0, 0.5, 2.0, 1 / 3, 1.5]) | st.floats(1e-3, 1e3)
MASSES = st.just(0.0) | st.floats(1e-300, 1e3)
LEVELS = st.just(0.0) | st.floats(0.0, 1e3)


@st.composite
def two_levels(draw):
    """Two levels in either order: one drawn, and the other random, zero, or
    tied with it exactly, at the edge of the TIE_RTOL band or near it on
    either side."""
    first = draw(LEVELS)
    kind = draw(st.sampled_from(["random", "zero", "exact", "edge", "near"]))
    if kind == "random":
        other = draw(LEVELS)
    elif kind == "zero":
        other = 0.0
    elif kind == "exact":
        other = first
    elif kind == "edge":
        other = first + TIE_RTOL * abs(first)
    else:
        other = first * (1 + draw(st.floats(-2.0, 2.0)) * TIE_RTOL)
    return draw(st.permutations([first, other]))


def hexes(values) -> list:
    """Each float's hex, so that the sign of a zero counts."""
    return [float(v).hex() for v in values]


class TestFillShortcuts:
    """The one- and two-bin fills that fluid_solve runs are _fill, bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(level=LEVELS, width=WIDTHS, mass=MASSES)
    def test_one_bin_equals_fill_bitwise(self, level, width, mass):
        assert hexes([_fill_one(level, width, mass)]) == hexes(_fill([level], [width], mass))

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(levels=two_levels(), widths=st.lists(WIDTHS, min_size=2, max_size=2),
           mass=MASSES)
    def test_two_bins_equal_fill_bitwise(self, levels, widths, mass):
        assert hexes(_fill_two(*levels, *widths, mass)) == hexes(_fill(levels, widths, mass))


class TestRouteStep:
    def test_departures_capped_by_content(self, mm1):
        e, d, q = _step([0.1], [0.2], [1.0], mm1.routes, mm1.M)
        assert d == pytest.approx([0.3])
        assert q == pytest.approx([0.0])
        assert e == pytest.approx([0.2])

    def test_mass_balance(self, two_queue, rng):
        for _ in range(100):
            q = rng.uniform(0, 2, 2)
            da = rng.uniform(0, 0.1, 1)
            db = rng.uniform(0, 0.1, 2)
            e, d, q_next = map(np.array, _step(q.tolist(), da.tolist(), db.tolist(),
                                               two_queue.routes, two_queue.M))
            # one stream, so the flat routed mass is each queue's inflow
            assert q_next == pytest.approx(q + e - d, abs=1e-14)
            assert np.all(q_next >= 0)
            assert e.sum() == pytest.approx(da.sum(), abs=1e-14)


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

    def test_late_input_rejected(self, mm1):
        # an input starting after 0 used to fail inside the path's own
        # evaluation, with a message that named no argument
        a = PiecewisePath(np.array([0.5, 1.0]), np.array([[0.0], [0.5]]))
        b = PiecewisePath.cumulative_linear(mm1.mu, 1.0)
        with pytest.raises(ValueError, match=re.escape("starting at 0.5, 0.0 and ending at "
                                                       "1.0, 1.0")):
            fluid_solve(mm1, [0.0], a, b, 1.0, 1e-2)

    @pytest.mark.parametrize("t", [np.nan, [0.5, np.nan], -0.5, 1.5],
                             ids=["nan", "nan-in-array", "before", "after"])
    def test_path_evaluated_only_on_its_domain(self, t):
        # a NaN time used to give NaN values
        path = PiecewisePath.cumulative_linear([1.0], 1.0)
        with pytest.raises(ValueError, match="outside path domain"):
            path(t)

    @pytest.mark.parametrize("T,h", [(float("nan"), 1e-2), (1.0, float("nan")),
                                     (float("inf"), 1e-2), (1.0, 0.0)])
    def test_horizon_and_step_must_be_positive_and_finite(self, mm1, T, h):
        a = PiecewisePath.cumulative_linear(mm1.lam, 1.0)
        b = PiecewisePath.cumulative_linear(mm1.mu, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            fluid_solve(mm1, [0.0], a, b, T, h)

    def test_step_count_must_be_finite(self, mm1_stable):
        # T/h overflows to inf; int() of its ceiling used to raise a bare
        # OverflowError
        a = PiecewisePath.cumulative_linear(mm1_stable.lam, 1e300)
        b = PiecewisePath.cumulative_linear(mm1_stable.mu, 1e300)
        with pytest.raises(ValueError, match=re.escape("T=1e+300 and step h=1e-10")):
            fluid_solve(mm1_stable, [0.0], a, b, 1e300, 1e-10)

    @pytest.mark.parametrize("a_dim,b_dim", [(2, 2), (1, 1), (2, 1)])
    def test_input_widths_must_fit_the_net(self, two_queue, a_dim, b_dim):
        # on the pair net (M=1, K=2) a wrong width used to be ignored or broadcast
        a = PiecewisePath.cumulative_linear(np.full(a_dim, 3.0), 1.0)
        b = PiecewisePath.cumulative_linear(np.ones(b_dim), 1.0)
        with pytest.raises(ValueError, match="columns"):
            fluid_solve(two_queue, [1.0, 0.0], a, b, 1.0, 1e-2)

    def test_infinite_input_rejected(self):
        # a path is finite from the start, so fluid_solve never sees one
        with pytest.raises(ValueError, match="must be finite"):
            PiecewisePath(np.array([0.0, 1.0]), np.array([[0.0], [np.inf]]))

    def test_pinned_solution_digest(self, two_queue):
        # the pair net from q0 = (1, 0) on nominal inputs, as the benchmark
        # runs it; guards every bit of the stepper's arithmetic
        a = PiecewisePath.cumulative_linear(two_queue.lam, 1.0)
        b = PiecewisePath.cumulative_linear(two_queue.mu, 1.0)
        sol = fluid_solve(two_queue, [1.0, 0.0], a, b, 1.0, 1e-3)
        h = hashlib.sha256()
        for arr in (sol.queue.breakpoints, sol.queue.values, sol.routed.values,
                    sol.departed.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == (
            "99ac8f0263a233e59b9fbb6a5b3cac6362da65ac5faa7f148d5f29fe11888189")

    @pytest.mark.parametrize("q0", [[0.0, 0.0], [-1.0], [float("nan")]])
    def test_initial_state_must_fit_the_net(self, mm1, q0):
        a = PiecewisePath.cumulative_linear(mm1.lam, 1.0)
        b = PiecewisePath.cumulative_linear(mm1.mu, 1.0)
        with pytest.raises(ValueError, match="q0="):
            fluid_solve(mm1, q0, a, b, 1.0, 1e-2)


@st.composite
def fluid_case(draw, topo):
    """An empty, tied or random start; nondecreasing piecewise-linear inputs
    with flat stretches; and a step that need not divide the horizon."""
    K, M = topo.K, topo.M
    where = draw(st.sampled_from(["empty", "tie", "random"]))
    q0 = np.zeros(K)
    if where == "tie":
        # every queue of the widest stream on one weighted level
        ks, ws = max(topo.routes, key=lambda r: len(r[0]))
        level = draw(st.floats(0.0, 2.0))
        for k, w in zip(ks, ws):
            q0[k] = level * w
    elif where == "random":
        q0 = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=K, max_size=K)))
    T = draw(st.sampled_from([0.5, 1.0]))
    knots = draw(st.integers(2, 5))
    rates = st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 4.0),
                     min_size=(knots - 1) * (M + K), max_size=(knots - 1) * (M + K))
    slopes = np.array(draw(rates)).reshape(knots - 1, M + K)
    t = np.linspace(0.0, T, knots)
    values = np.vstack([np.zeros(M + K), np.cumsum(slopes * np.diff(t)[:, None], axis=0)])
    a = PiecewisePath(t, values[:, :M])
    b = PiecewisePath(t, values[:, M:])
    h = draw(st.sampled_from([0.1, 0.03, 1 / 64, 0.01]))
    return q0, a, b, T, h


FLUID_NETS = {"single": "mm1", "drain": "mm1_stable", "pair": "two_queue",
              "readme": "weighted_net", "three": "three_queue",
              "shared": "shared_queues"}


def reference_step(q: list, da: list, db: list, routes, M: int) -> tuple[list, list, list]:
    """One step with ``_fill`` on every stream, whatever its width, so that
    fluid_solve's one- and two-queue fills are checked against it and not
    against themselves."""
    e = [0.0] * (len(q) * M)
    work = list(q)
    for m, (ks, ws) in enumerate(routes):
        if da[m] == 0:
            continue
        for k, v in zip(ks, _fill([work[k] / w for k, w in zip(ks, ws)], ws, da[m])):
            e[k * M + m] = v
            work[k] += v
    d = [b if b < w else w for b, w in zip(db, work)]
    return e, d, [w - x if w - x > 0.0 else 0.0 for w, x in zip(work, d)]


class TestSolveMatchesSteps:
    @pytest.mark.parametrize("net", FLUID_NETS)
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_rows_equal_repeated_steps_bitwise(self, request, net, data):
        topo = request.getfixturevalue(FLUID_NETS[net])
        q0, a, b, T, h = data.draw(fluid_case(topo))
        sol = fluid_solve(topo, q0, a, b, T, h)
        ts = sol.queue.breakpoints
        da = np.maximum(np.diff(a(ts), axis=0), 0.0)
        db = np.maximum(np.diff(b(ts), axis=0), 0.0)
        q = np.asarray(q0, dtype=float)
        e_cum = np.zeros((topo.K, topo.M))
        d_cum = np.zeros(topo.K)
        rows = [(q, e_cum.ravel(), d_cum)]
        for j in range(len(ts) - 1):
            e, d, q = map(np.array, reference_step(q.tolist(), da[j].tolist(),
                                                   db[j].tolist(), topo.routes, topo.M))
            e = e.reshape(topo.K, topo.M)
            e_cum = e_cum + e
            d_cum = d_cum + d
            rows.append((q, e_cum.ravel(), d_cum))
        for j, (q, e, d) in enumerate(rows):
            assert sol.queue.values[j].tobytes() == q.tobytes(), j
            assert sol.routed.values[j].tobytes() == e.tobytes(), j
            assert sol.departed.values[j].tobytes() == d.tobytes(), j


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

    def test_mismatched_queue_counts_rejected(self, two_queue, mm1):
        # a K=2 and a K=1 solution on one grid used to broadcast to a number
        s1, s2 = (fluid_solve(net, [1.0] * net.K, PiecewisePath.cumulative_linear(net.lam, 1.0),
                              PiecewisePath.cumulative_linear(net.mu, 1.0), 1.0, 1e-2)
                  for net in (two_queue, mm1))
        with pytest.raises(ValueError, match="queue counts"):
            lyapunov_check(s1, s2)

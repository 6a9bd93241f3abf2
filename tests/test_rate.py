import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from jsqldp import (
    DomainLabel,
    PoissonCost,
    classify_domain,
    label_matches,
    local_rate,
    local_rate_bruteforce,
    psi_ij,
    validate,
)
from jsqldp.rate import check_label, domain_labels

GOLDEN_L11 = 0.24514384755981367  # frozen solver value, oracle-confirmed
# drain net (lambda = 1, mu = 2) at y = -2: a = sqrt(3) - 1, b = a + 2, ab = 2
DRAIN_L_MINUS_2 = 3 - 2 * math.sqrt(3) - 2 * math.log(math.sqrt(3) - 1)


def _check_witness(wit, x, topo, tol=1e-9):
    """Replay the constraint system on the returned optimizer."""
    assert wit.e.shape == (topo.K, topo.M)
    assert np.all(wit.e >= -tol)
    assert np.all(wit.d >= -tol)
    assert np.all(wit.a >= -tol)
    assert np.all(wit.b >= -tol)
    # routed mass only on currently shortest admissible queues
    label = classify_domain(x, topo)
    for k in range(topo.K):
        for m in range(topo.M):
            if k not in label.argmin_sets[m]:
                assert wit.e[k, m] == 0.0
    # every arrival joins a queue: the per-stream routed total is the arrival rate
    assert np.allclose(wit.e.sum(axis=0), wit.a, rtol=0.0, atol=tol)
    # departures bounded by service, equal on busy queues
    assert np.all(wit.d <= wit.b + tol)
    busy = np.asarray(x) > 0
    assert np.allclose(wit.d[busy], wit.b[busy], atol=tol)


class TestGoldenValue:
    def test_frozen_value(self, mm1):
        wit = local_rate([1.0], [1.0], mm1, PoissonCost(mm1))
        assert wit.value == pytest.approx(GOLDEN_L11, abs=1e-9)

    def test_witness_is_feasible_and_consistent(self, mm1):
        cost = PoissonCost(mm1)
        wit = local_rate([1.0], [1.0], mm1, cost)
        _check_witness(wit, np.array([1.0]), mm1)
        # objective recomputed from the witness matches the reported value
        assert cost.eval(wit.a, wit.b) == pytest.approx(wit.value, abs=1e-8)
        # velocity reproduced: y = e 1 - d
        assert wit.e.sum(axis=1) - wit.d == pytest.approx([1.0], abs=1e-8)

    def test_stationarity_reported(self, mm1):
        wit = local_rate([1.0], [1.0], mm1, PoissonCost(mm1))
        assert wit.stationarity <= 1e-6
        assert wit.iterations >= 1

    def test_solver_counters_in_dict(self, two_queue):
        # an interior state with a singleton argmin set is one closed-form step
        out = local_rate([2.0, 1.0], [-0.5, 1.0], two_queue, PoissonCost(two_queue)).to_dict()
        assert out["iterations"] == 1
        assert 0.0 <= out["stationarity"] <= 1e-12
        infeasible = local_rate([2.0, 1.0], [1.0, 0.0], two_queue, PoissonCost(two_queue))
        assert "iterations" not in infeasible.to_dict()


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "x,y",
        [
            ([1.0], [1.0]),
            ([1.0], [-0.7]),
            ([0.0], [0.5]),
            ([2.5], [0.0]),
        ],
    )
    def test_single_queue(self, mm1, x, y):
        cost = PoissonCost(mm1)
        wit = local_rate(x, y, mm1, cost)
        bf = local_rate_bruteforce(x, y, mm1, cost, grid_step=1e-3)
        assert wit.value == pytest.approx(bf, abs=1e-2)
        # the grid search can only overshoot
        assert bf >= wit.value - 1e-9

    @pytest.mark.parametrize(
        "x,y",
        [
            ([2.0, 1.0], [-0.5, 1.0]),
            ([1.0, 1.0], [0.5, 0.5]),
            ([0.0, 1.5], [1.0, -1.0]),
        ],
    )
    def test_two_queue(self, two_queue, x, y):
        cost = PoissonCost(two_queue)
        wit = local_rate(x, y, two_queue, cost)
        bf = local_rate_bruteforce(x, y, two_queue, cost, grid_step=2e-3)
        if math.isinf(wit.value):
            assert math.isinf(bf)
        else:
            assert wit.value == pytest.approx(bf, abs=1e-2)

    def test_oracle_rejects_large_topologies(self, weighted_net):
        big = weighted_net
        # K*M + M + 2K budget: 4 + 2 + 4 = 10 > 8
        with pytest.raises(ValueError, match="budget"):
            local_rate_bruteforce([1.0, 1.0], [0.0, 0.0], big, PoissonCost(big))


class TestInfeasibility:
    def test_growth_off_the_shortest_queue(self, two_queue):
        # stream only feeds queue 2 at x = (2, 1); queue 1 cannot grow
        wit = local_rate([2.0, 1.0], [0.5, 0.5], two_queue, PoissonCost(two_queue))
        assert math.isinf(wit.value)
        assert not wit.feasible
        assert wit.certificate
        assert wit.a is None

    def test_growth_only_a_zero_rate_stream_could_feed(self):
        # stream 2 alone reaches queue 2 and has rate 0: the domain allows
        # the growth, but no arrivals can pay for it
        topo = validate({"K": 2, "M": 2, "admissible": [[1], [2]], "lambda": [1, 0],
                         "mu": [1, 1]})
        wit = local_rate([1.0, 1.0], [0.0, 0.5], topo, PoissonCost(topo))
        assert wit.value == math.inf
        assert wit.feasible is True
        assert wit.certificate.endswith("zero-rate stream")

    def test_shrinking_is_always_feasible(self, two_queue):
        wit = local_rate([2.0, 1.0], [-0.5, -0.5], two_queue, PoissonCost(two_queue))
        assert math.isfinite(wit.value)

    def test_empty_queue_cannot_shrink(self, mm1, two_queue):
        cost = PoissonCost(mm1)
        wit = local_rate([0.0], [-1.0], mm1, cost)
        assert wit.value == math.inf
        assert wit.feasible is False
        assert wit.certificate == "queue 1 cannot shrink: it is empty"
        label = classify_domain(np.array([0.0]), mm1)
        assert psi_ij(label, [-1.0], mm1, cost) == math.inf
        assert local_rate_bruteforce([0.0], [-1.0], mm1, cost) == math.inf
        # a busy queue beside the empty one may still shrink
        wit = local_rate([0.0, 1.0], [-1e-9, -1.0], two_queue, PoissonCost(two_queue))
        assert wit.certificate == "queue 1 cannot shrink: it is empty"
        assert math.isfinite(local_rate([0.0, 1.0], [0.0, -1.0], two_queue,
                                        PoissonCost(two_queue)).value)


class TestZeroCost:
    def test_nominal_drift_costs_nothing(self, mm1_stable):
        # lambda = 1, mu = 2: the fluid drift at x > 0 is -1
        wit = local_rate([1.0], [-1.0], mm1_stable, PoissonCost(mm1_stable))
        assert wit.value == pytest.approx(0.0, abs=1e-9)

    def test_resting_at_zero_costs_nothing(self, mm1_stable):
        wit = local_rate([0.0], [0.0], mm1_stable, PoissonCost(mm1_stable))
        assert wit.value == pytest.approx(0.0, abs=1e-9)

    def test_resting_above_zero_costs_something(self, mm1_stable):
        wit = local_rate([1.0], [0.0], mm1_stable, PoissonCost(mm1_stable))
        assert wit.value > 0.01


class TestDomains:
    def test_classify_interior_point(self, two_queue):
        lab = classify_domain(np.array([2.0, 1.0]), two_queue)
        assert lab.zero_set == frozenset()
        assert lab.argmin_sets == (frozenset({1}),)

    def test_classify_tie_and_zero(self, two_queue):
        lab = classify_domain(np.array([0.0, 0.0]), two_queue)
        assert lab.zero_set == frozenset({0, 1})
        assert lab.argmin_sets == (frozenset({0, 1}),)

    def test_classify_rejects_bad_state(self, two_queue):
        with pytest.raises(ValueError):
            classify_domain(np.array([-1.0, 0.0]), two_queue)
        with pytest.raises(ValueError):
            classify_domain(np.array([1.0]), two_queue)

    def test_invalid_labels_rejected(self, two_queue):
        with pytest.raises(ValueError, match="^invalid label: wrong number of argmin sets"):
            check_label(DomainLabel(frozenset(), ()), two_queue)
        with pytest.raises(ValueError, match="^invalid label: empty argmin set"):
            check_label(DomainLabel(frozenset(), (frozenset(),)), two_queue)
        with pytest.raises(ValueError, match="^invalid label: zero-set index out of range"):
            check_label(DomainLabel(frozenset({2}), (frozenset({0}),)), two_queue)
        with pytest.raises(ValueError, match="^invalid label: argmin set outside admissible"):
            check_label(DomainLabel(frozenset(), (frozenset({2}),)), two_queue)
        with pytest.raises(ValueError, match="^invalid label: argmin set must lie inside"):
            # argmin set straddles the zero set
            check_label(
                DomainLabel(frozenset({0}), (frozenset({0, 1}),)), two_queue
            )

    @pytest.mark.parametrize("net,size", [("mm1", 2), ("two_queue", 10), ("weighted_net", 10),
                                          ("three_queue", 98)])
    def test_domain_labels_are_the_labels_check_label_accepts(self, request, net, size):
        topo = request.getfixturevalue(net)
        labels = domain_labels(topo)
        assert len(labels) == size == len(set(labels))
        # the rule written out: each argmin set nonempty, inside its
        # stream's admissible set, and inside the zero set or disjoint from it
        queues = range(topo.K)
        subsets = [frozenset(k for k in queues if bits >> k & 1) for bits in range(2 ** topo.K)]
        valid = set()
        for I in subsets:
            for J in itertools.product(subsets, repeat=topo.M):
                label = DomainLabel(I, J)
                if all(j and j <= a and (j <= I or not j & I)
                       for j, a in zip(J, topo.admissible)):
                    valid.add(label)
                    check_label(label, topo)
                else:
                    with pytest.raises(ValueError, match="^invalid label"):
                        check_label(label, topo)
        assert set(labels) == valid

    def test_psi_ij_does_not_enumerate_the_net(self):
        # 32 zero sets times 31^5 argmin candidates: enumerating the labels
        # of this net to check one would not finish
        topo = validate({"K": 5, "M": 5, "admissible": [[1, 2, 3, 4, 5]] * 5,
                         "lambda": [1] * 5, "mu": [2] * 5})
        label = classify_domain(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), topo)
        start = time.perf_counter()
        value = psi_ij(label, [0.5, -0.5, -0.5, -0.5, -0.5], topo, PoissonCost(topo))
        assert time.perf_counter() - start < 1.0
        assert value == local_rate([0.0, 1.0, 1.0, 2.0, 3.0], [0.5, -0.5, -0.5, -0.5, -0.5],
                                   topo, PoissonCost(topo)).value

    def test_every_state_has_an_enumerated_label(self, three_queue, rng):
        labels = domain_labels(three_queue)
        for _ in range(200):
            x = rng.uniform(0, 3, 3)
            if rng.random() < 0.5:
                x[rng.integers(3)] = 0.0
            if rng.random() < 0.5:
                x[2] = x[1]
            assert classify_domain(x, three_queue) in labels

    @pytest.mark.parametrize("label", [
        DomainLabel([0], (frozenset({0, 1}),)),
        DomainLabel(frozenset(), [frozenset({0})]),
        DomainLabel(frozenset(), ({0},)),
        DomainLabel(frozenset(), ((0,),)),
        DomainLabel(frozenset({2}), (frozenset({0}),)),
        (frozenset(), (frozenset({0}),)),
    ], ids=["list-zero-set", "list-argmin-sets", "set-argmin-set", "tuple-argmin-set",
            "queue-out-of-range", "plain-tuple"])
    def test_malformed_labels_are_invalid(self, two_queue, label):
        # a field of the wrong type raised a TypeError, or passed as a set
        with pytest.raises(ValueError, match="^invalid label"):
            check_label(label, two_queue)
        with pytest.raises(ValueError, match="^invalid label"):
            psi_ij(label, [0.0, 0.0], two_queue, PoissonCost(two_queue))

    def test_a_label_that_is_no_label_is_rejected(self, two_queue):
        # used to raise an AttributeError
        with pytest.raises(ValueError, match="label=None"):
            psi_ij(None, [0.0, 0.0], two_queue, PoissonCost(two_queue))

    def test_label_matches_own_domain(self, two_queue, rng):
        for _ in range(200):
            x = rng.uniform(0, 3, 2)
            if rng.random() < 0.3:
                x[rng.integers(2)] = 0.0
            lab = classify_domain(x, two_queue)
            assert label_matches(lab, x, two_queue)

    def test_label_does_not_match_other_domain(self, two_queue):
        lab = classify_domain(np.array([2.0, 1.0]), two_queue)
        assert not label_matches(lab, np.array([1.0, 2.0]), two_queue)

    def test_psi_matches_local_rate_in_domain(self, two_queue):
        cost = PoissonCost(two_queue)
        for x, y in [
            (np.array([2.0, 1.0]), np.array([-0.5, 1.0])),
            (np.array([1.0, 1.0]), np.array([0.5, 0.5])),
            (np.array([0.0, 1.0]), np.array([0.5, -0.5])),
        ]:
            wit = local_rate(x, y, two_queue, cost)
            val = psi_ij(classify_domain(x, two_queue), y, two_queue, cost)
            if math.isinf(wit.value):
                assert math.isinf(val)
            else:
                assert val == pytest.approx(wit.value, abs=2e-8)


class TestLowerSemicontinuity:
    def test_value_drops_at_the_tie(self, two_queue):
        # moving both queues up is impossible off the tie but possible on it
        cost = PoissonCost(two_queue)
        y = np.array([0.5, 0.5])
        on_tie = local_rate([1.0, 1.0], y, two_queue, cost).value
        off_tie = local_rate([1.0 + 1e-6, 1.0], y, two_queue, cost).value
        assert math.isfinite(on_tie)
        assert math.isinf(off_tie)

    def test_no_upward_jump_at_the_tie(self, two_queue):
        cost = PoissonCost(two_queue)
        y = np.array([-0.5, 0.5])
        on_tie = local_rate([1.0, 1.0], y, two_queue, cost).value
        near = local_rate([1.0 + 1e-7, 1.0], y, two_queue, cost).value
        assert on_tie <= near + 1e-6


class TestValidation:
    def test_bad_tolerance(self, mm1):
        with pytest.raises(ValueError):
            local_rate([1.0], [1.0], mm1, PoissonCost(mm1), tol=0.0)

    def test_negative_state(self, mm1):
        with pytest.raises(ValueError):
            local_rate([-1.0], [1.0], mm1, PoissonCost(mm1))

    def test_bad_velocity(self, two_queue):
        cost = PoissonCost(two_queue)
        for y in ([1.0], [[1.0, 0.0]], [math.nan, 0.0], [0.0, math.inf]):
            with pytest.raises(ValueError, match="velocity"):
                local_rate([1.0, 1.0], y, two_queue, cost)
            with pytest.raises(ValueError, match="velocity"):
                local_rate_bruteforce([1.0, 1.0], y, two_queue, cost)

    def test_bad_oracle_grid(self, mm1):
        cost = PoissonCost(mm1)
        for step, radius in [(0.0, 5.0), (-1e-3, 5.0), (1e-3, -1.0), (math.nan, 5.0)]:
            with pytest.raises(ValueError, match="grid_step=|box_radius="):
                local_rate_bruteforce([1.0], [1.0], mm1, cost, grid_step=step, box_radius=radius)

    def test_cost_other_than_poisson(self, mm1):
        class Opaque:
            M = K = 1
            lam = mu = np.ones(1)

            def eval(self, a, b):
                return 0.0

        label = classify_domain(np.array([1.0]), mm1)
        for call in (
            lambda: local_rate([1.0], [1.0], mm1, Opaque()),
            lambda: psi_ij(label, [1.0], mm1, Opaque()),
            lambda: local_rate_bruteforce([1.0], [1.0], mm1, Opaque()),
        ):
            with pytest.raises(ValueError, match="PoissonCost"):
                call()

    def test_cost_built_for_another_net(self, two_queue):
        # at the parent this read 2.389 against the correct 1.297
        other = validate({"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [1], "mu": [2, 2]})
        assert local_rate([1.0, 0.5], [0.0, 0.5], two_queue,
                          PoissonCost(two_queue)).value == pytest.approx(1.297, abs=1e-3)
        label = classify_domain(np.array([1.0, 0.5]), two_queue)
        for cost in (PoissonCost(other), PoissonCost(validate(
                {"K": 1, "M": 1, "admissible": [[1]], "lambda": [3], "mu": [1]}))):
            for call in (
                lambda: local_rate([1.0, 0.5], [0.0, 0.5], two_queue, cost),
                lambda: psi_ij(label, [0.0, 0.5], two_queue, cost),
                lambda: local_rate_bruteforce([1.0, 0.5], [0.0, 0.5], two_queue, cost),
            ):
                with pytest.raises(ValueError, match="cost must be built for this net"):
                    call()


# ---------------------------------------------------------------------------
# Legendre-transform oracle
# ---------------------------------------------------------------------------

def _set_partitions(items):
    """Every partition of the list ``items`` into blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[first], *blocks]
        for b in range(len(blocks)):
            yield blocks[:b] + [[first, *blocks[b]]] + blocks[b + 1:]


def legendre_rate(x, y, topo) -> float:
    """L(x, y) as the Legendre transform of the Hamiltonian of x's domain.

    sup over theta of  theta.y - sum_m lam_m (exp(max_{k in J_m} theta_k) - 1)
    - sum_{busy k} mu_k (exp(-theta_k) - 1) - sum_{idle k} mu_k (exp((-theta_k)^+) - 1),
    maximized by Nelder-Mead.  The argmin sets J_m come straight from the
    weighted levels x_k / w_km.  Only for points where the program is
    feasible: elsewhere the supremum is +inf.

    A busy queue k in no J_m enters no max term, so its theta_k separates:
    sup of theta y_k - mu_k (exp(-theta) - 1) is mu_k pi(-y_k / mu_k), with
    pi(u) = u log u - u + 1, and reads mu_k at y_k = 0, where it is reached
    only as theta_k -> inf and a simplex stops short of it.  Those queues
    are priced in closed form and left out of the search.

    The max over J_m has kinks where coordinates are equal, and the maximizer
    often sits on one, where a simplex stalls.  So the search also runs with
    theta held constant on the blocks of every partition of the queues: on
    the partition of the maximizer's equal coordinates the objective is
    smooth near it.  Every theta gives a lower bound, so the best one wins.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    J = []
    for m in range(topo.M):
        levels = {k: x[k] / float(topo.weights[(k, m)]) for k in topo.admissible[m]}
        lo = min(levels.values())
        J.append(sorted(k for k, v in levels.items() if v <= lo + 1e-12 * max(1.0, lo)))
    busy = x > 0
    lone = busy & ~np.isin(np.arange(topo.K), sum(J, []))
    assert np.all(y[lone] <= 0), "a busy queue in no argmin set cannot grow"
    closed = sum(mu if v == 0 else mu + v - v * math.log(-v / mu)
                 for mu, v in zip(topo.mu[lone], y[lone]))

    def hamiltonian_gap(theta):
        s = np.array([theta[j].max() for j in J])
        t = np.where(busy, -theta, np.maximum(-theta, 0.0))[~lone]
        with np.errstate(over="ignore"):
            return topo.lam @ np.expm1(s) + topo.mu[~lone] @ np.expm1(t) - theta[~lone] @ y[~lone]

    best = -math.inf
    for blocks in _set_partitions([k for k in range(topo.K) if not lone[k]]):
        block_of = np.zeros(topo.K, dtype=int)  # a lone queue's theta is unused
        for b, ks in enumerate(blocks):
            block_of[ks] = b
        z = np.zeros(len(blocks))
        for scale in (1.0, 0.1, 1e-2, 1e-3):
            res = minimize(
                lambda z: hamiltonian_gap(z[block_of]), z, method="Nelder-Mead",
                options={"initial_simplex": z + scale * np.vstack([np.zeros(len(z)), np.eye(len(z))]),
                         "xatol": 1e-13, "fatol": 1e-15, "maxiter": 20_000, "maxfev": 40_000},
            )
            z = res.x
        best = max(best, -float(res.fun))
    return best + closed


@st.composite
def feasible_point(draw, topo):
    """A state in the interior, on a weighted tie, in a zero set or at the
    origin, and a velocity that shrinks no empty queue and grows no queue
    outside every argmin set."""
    K = topo.K
    x = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=K, max_size=K)))
    where = draw(st.sampled_from(["interior", "zero", "tie", "origin"] if K > 1
                                 else ["interior", "zero"]))
    if where == "zero":
        x[draw(st.integers(0, K - 1))] = 0.0
    elif where == "origin":
        x[:] = 0.0
    elif where == "tie":
        # every queue of the stream on one weighted level
        m = next(m for m in range(topo.M) if len(topo.admissible[m]) > 1)
        k, *rest = sorted(topo.admissible[m])
        for l in rest:
            x[l] = x[k] * float(topo.weights[(l, m)]) / float(topo.weights[(k, m)])
    y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=K, max_size=K)))
    reachable = frozenset().union(*classify_domain(x, topo).argmin_sets)
    for k in range(K):
        if x[k] == 0.0:
            y[k] = abs(y[k])
        elif k not in reachable:
            y[k] = -abs(y[k])
    return x, y


NETS = {"single": "mm1", "drain": "mm1_stable", "pair": "two_queue", "readme": "weighted_net",
        "shared": "shared_queues", "three": "three_queue"}
# the topology fixtures are immutable, so sharing one across examples is safe
LEGENDRE_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestLegendreOracle:
    def test_slowdown_costs_as_much_as_speedup(self, mm1):
        # lambda = mu: reversing time swaps arrivals and services
        cost = PoissonCost(mm1)
        wit = local_rate([1.0], [-1.0], mm1, cost)
        assert wit.value == pytest.approx(GOLDEN_L11, abs=1e-9)
        assert legendre_rate([1.0], [-1.0], mm1) == pytest.approx(GOLDEN_L11, abs=1e-9)
        bf = local_rate_bruteforce([1.0], [-1.0], mm1, cost)
        assert GOLDEN_L11 - 1e-9 <= bf <= GOLDEN_L11 + 1e-5
        _check_witness(wit, np.array([1.0]), mm1)

    def test_drain_faster_than_nominal(self, mm1_stable):
        cost = PoissonCost(mm1_stable)
        wit = local_rate([1.0], [-2.0], mm1_stable, cost)
        assert wit.value == pytest.approx(DRAIN_L_MINUS_2, abs=1e-9)
        assert legendre_rate([1.0], [-2.0], mm1_stable) == pytest.approx(DRAIN_L_MINUS_2, abs=1e-9)
        bf = local_rate_bruteforce([1.0], [-2.0], mm1_stable, cost)
        assert DRAIN_L_MINUS_2 - 1e-9 <= bf <= DRAIN_L_MINUS_2 + 1e-5
        assert wit.a == pytest.approx([math.sqrt(3) - 1], abs=1e-6)

    def test_busy_queue_outside_every_argmin_set(self, three_queue):
        # Queue 1 is empty and grows for free: arrivals 2 less departures
        # 0.984 < mu_1.  Queue 2 adds theta y_2 - 2 cosh(theta) + 2 at
        # theta = asinh(y_2 / 2).  Queue 3 is busy, in no argmin set and
        # still, so it adds mu_3 = 2, a supremum reached only as theta_3 ->
        # inf: a simplex over theta_3 stopped 1.9e-9 short of it.
        x, y = [0.0, 1.0, 2.0], [1.01607468, 0.64648438, -0.0]
        theta = math.asinh(y[1] / 2)
        closed = 2.0 + theta * y[1] - 2 * math.cosh(theta) + 2
        wit = local_rate(x, y, three_queue, PoissonCost(three_queue))
        assert wit.value == pytest.approx(closed, abs=1e-12)
        assert legendre_rate(x, y, three_queue) == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("net", NETS)
    @LEGENDRE_SETTINGS
    @given(data=st.data())
    def test_local_rate_matches_legendre(self, request, net, data):
        topo = request.getfixturevalue(NETS[net])
        x, y = data.draw(feasible_point(topo))
        cost = PoissonCost(topo)
        wit = local_rate(x, y, topo, cost)
        assert wit.value == pytest.approx(legendre_rate(x, y, topo), abs=1e-9)
        _check_witness(wit, x, topo)
        assert cost.eval(wit.a, wit.b) == pytest.approx(wit.value, abs=1e-9)
        assert wit.e.sum(axis=1) - wit.d == pytest.approx(y, abs=1e-9)

    @pytest.mark.parametrize("net", ["single", "drain", "pair"])
    @LEGENDRE_SETTINGS
    @given(data=st.data())
    def test_grid_oracle_brackets_legendre(self, request, net, data):
        # The grid search is an upper bound.  A grid point lies within one
        # step of the optimum, and the cost's slope there is about
        # log(rate / step) at most, so it overshoots by less than 3e-2.
        topo = request.getfixturevalue(NETS[net])
        x, y = data.draw(feasible_point(topo))
        bf = local_rate_bruteforce(x, y, topo, PoissonCost(topo), grid_step=5e-3)
        exact = legendre_rate(x, y, topo)
        assert exact - 1e-9 <= bf <= exact + 3e-2

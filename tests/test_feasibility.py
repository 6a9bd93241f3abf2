"""The support test of the rate program against a phase-1 LP oracle.

The program over (a, b, d, e) is infeasible exactly when a growing queue
lies in no stream's argmin set or an empty queue shrinks.  ``phase1_feasible`` decides the same
question by linear programming, independently of the rate module.
"""
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from jsqldp import DomainLabel, PoissonCost, local_rate
from jsqldp.rate import _rate_on_domain


def phase1_feasible(support, busy, y, topology) -> bool:
    """Phase-1 LP over (a, b, d, e) >= 0 with the rate program's constraints."""
    K, M = topology.K, topology.M
    entries = [(k, m) for m in range(M) for k in sorted(support[m])]
    nvar = M + K + K + len(entries)  # a, b, d, e

    def e_col(j):
        return M + K + K + j

    A_eq, b_eq = [], []
    for k in range(K):
        row = np.zeros(nvar)
        row[M + K + k] = -1.0  # sum_m e_km - d_k = y_k
        for j, (kk, _) in enumerate(entries):
            if kk == k:
                row[e_col(j)] = 1.0
        A_eq.append(row)
        b_eq.append(y[k])
        if busy[k]:  # d_k = b_k on busy queues
            row = np.zeros(nvar)
            row[M + K + k] = 1.0
            row[M + k] = -1.0
            A_eq.append(row)
            b_eq.append(0.0)
    for m in range(M):  # sum_k e_km = a_m: every arrival joins a queue
        row = np.zeros(nvar)
        row[m] = -1.0
        for j, (_, mm) in enumerate(entries):
            if mm == m:
                row[e_col(j)] = 1.0
        A_eq.append(row)
        b_eq.append(0.0)
    A_ub = []
    for k in range(K):  # d_k <= b_k
        row = np.zeros(nvar)
        row[M + K + k] = 1.0
        row[M + k] = -1.0
        A_ub.append(row)
        if not busy[k]:  # an empty queue sends out no more than it receives
            row = np.zeros(nvar)
            row[M + K + k] = 1.0
            for j, (kk, _) in enumerate(entries):
                if kk == k:
                    row[e_col(j)] = -1.0
            A_ub.append(row)
    res = linprog(
        c=np.zeros(nvar),
        A_eq=np.array(A_eq),
        b_eq=np.array(b_eq),
        A_ub=np.array(A_ub),
        b_ub=np.zeros(len(A_ub)),
        bounds=[(0, None)] * nvar,
        method="highs",
    )
    return res.status == 0


# Velocities avoid (0, 1e-6] and [-1e-6, 0): there HiGHS's primal tolerance
# accepts a tiny unsupported growth or a tiny shrinking of an empty queue that
# the exact support test rejects.
velocity = st.one_of(
    st.floats(-2.0, -1e-6, exclude_max=True),
    st.just(0.0),
    st.floats(1e-6, 2.0, exclude_min=True),
)


@st.composite
def domain_case(draw, topology):
    busy = draw(st.lists(st.booleans(), min_size=topology.K, max_size=topology.K))
    argmins = tuple(
        frozenset(draw(st.sets(st.sampled_from(sorted(adm)), min_size=1)))
        for adm in topology.admissible
    )
    y = draw(st.lists(velocity, min_size=topology.K, max_size=topology.K))
    zero = frozenset(k for k in range(topology.K) if not busy[k])
    return DomainLabel(zero, argmins), np.array(busy), np.array(y)


def _agrees_with_oracle(topology, case):
    label, busy, y = case
    wit = _rate_on_domain(label, y, topology, PoissonCost(topology), 1e-8)
    assert wit.feasible == phase1_feasible(label.argmin_sets, busy, y, topology)
    if not wit.feasible:
        assert math.isinf(wit.value)
        assert wit.certificate


# the topology fixtures are immutable, so sharing one across examples is safe
ORACLE_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@ORACLE_SETTINGS
@given(data=st.data())
def test_support_test_matches_lp_two_queue(two_queue, data):
    _agrees_with_oracle(two_queue, data.draw(domain_case(two_queue)))


@ORACLE_SETTINGS
@given(data=st.data())
def test_support_test_matches_lp_weighted(weighted_net, data):
    _agrees_with_oracle(weighted_net, data.draw(domain_case(weighted_net)))


def test_tiny_unsupported_growth_is_infeasible(two_queue):
    # queue 1 is off the argmin at x = (2, 1); the LP's tolerance would accept
    # y_1 = 1e-9, the support test does not
    wit = local_rate([2.0, 1.0], [1e-9, 0.0], two_queue, PoissonCost(two_queue))
    assert wit.value == math.inf
    assert wit.feasible is False
    assert wit.certificate == "queue 1 cannot grow: it is in no stream's argmin set"


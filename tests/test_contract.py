"""The argument contract: every public entry point rejects a bad vector, count
or positive scalar with a ValueError whose message names the parameter and
its value (``x=[...]``, ``n=2.5``); a topology file's fields raise the
TopologyError subclass."""
import json
import math

import numpy as np
import pytest

import jsqldp as J
from jsqldp.sim import count_hits

NET = J.validate({"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [3], "mu": [1, 1]})
COST = J.PoissonCost(NET)
EVENT = J.RareEventSpec("terminal", 0, 1.0, 1.0)
A = J.PiecewisePath.cumulative_linear(NET.lam, 1.0)
B = J.PiecewisePath.cumulative_linear(NET.mu, 1.0)
LABEL = J.classify_domain([1.0, 0.5], NET)
PATH = J.simulate(NET, 5, 1.0, 0)
X, Y = [1.0, 0.5], [0.0, 0.0]

# (entry point, parameter, length, entries must be nonnegative)
VECTORS = [
    (lambda v: J.simulate(NET, 5, 1.0, 0, q0_scaled=v), "q0_scaled", 2, True),
    None,  # terminal_statistics, deleted; the rows below keep their ids
    (lambda v: J.classify_domain(v, NET), "x", 2, True),
    (lambda v: J.label_matches(LABEL, v, NET), "x", 2, True),
    (lambda v: J.local_rate(v, Y, NET, COST), "x", 2, True),
    (lambda v: J.local_rate(X, v, NET, COST), "y", 2, False),
    (lambda v: J.psi_ij(LABEL, v, NET, COST), "y", 2, False),
    (lambda v: J.local_rate_bruteforce(v, Y, NET, COST, grid_step=0.5), "x", 2, True),
    (lambda v: J.local_rate_bruteforce(X, v, NET, COST, grid_step=0.5), "y", 2, False),
    None,  # fluid_route_step's q, da and db, deleted; the rows below keep their ids
    None,
    None,
    (lambda v: J.fluid_solve(NET, v, A, B, 1.0, 0.1), "q0", 2, True),
    (lambda v: J.minimize_action(EVENT, NET, COST, q0=v), "q0", 2, True),
    (lambda v: COST.eval(v, [1.0, 1.0]), "a", 1, False),
    (lambda v: COST.eval([1.0], v), "b", 2, False),
]

# (entry point, parameter, least valid value)
COUNTS = [
    (lambda v: J.simulate(NET, v, 1.0, 0), "n", 1),
    (lambda v: J.simulate(NET, 5, 1.0, v), "seed", 0),
    None,  # terminal_statistics's n and seed, deleted; the rows below keep their ids
    None,
    (lambda v: J.estimate_rare_event(EVENT, NET, [v], [100]), "scales", 1),
    (lambda v: J.estimate_rare_event(EVENT, NET, [5], [v]), "reps", 1),
    (lambda v: J.estimate_rare_event(EVENT, NET, [5], [100], seed=v), "seed", 0),
    (lambda v: J.minimize_action(EVENT, NET, COST, segments=v), "segments", 1),
    None,  # the path search's start count, deleted; the rows below keep their ids
    (lambda v: J.minimize_action(EVENT, NET, COST, seed=v), "seed", 0),
    (lambda v: J.wilson_interval(v, 10), "hits", 0),
    (lambda v: J.wilson_interval(0, v), "n", 0),
    (lambda v: J.validate(NET.to_dict() | {"K": v}), "K", 1),
    (lambda v: J.validate(NET.to_dict() | {"M": v}), "M", 1),
    (lambda v: J.validate(NET.to_dict() | {"admissible": [[v, 2]]}), "server", 1),
    (lambda v: count_hits(NET, EVENT, v, 0, 100), "n", 1),
    (lambda v: count_hits(NET, EVENT, 5, v, 100), "seed", 0),
    (lambda v: count_hits(NET, EVENT, 5, 0, v), "reps", 1),
    # the queue is 0-based and named by its 1-based k, so queue -1 shows k=0
    (lambda v: J.RareEventSpec("terminal", v, 1.0, 1.0), "k", 0),
]

# (entry point, parameter): finite and > 0
POSITIVES = [
    (lambda v: J.fluid_solve(NET, X, A, B, v, 0.1), "T"),
    (lambda v: J.fluid_solve(NET, X, A, B, 1.0, v), "h"),
    (lambda v: J.local_rate(X, Y, NET, COST, tol=v), "tol"),
    (lambda v: J.psi_ij(LABEL, Y, NET, COST, tol=v), "tol"),
    (lambda v: J.local_rate_bruteforce(X, Y, NET, COST, grid_step=v), "grid_step"),
    (lambda v: J.local_rate_bruteforce(X, Y, NET, COST, box_radius=v), "box_radius"),
    (lambda v: J.scale_path(PATH, v), "grid_step"),
    (lambda v: J.scale_counters(PATH, v), "grid_step"),
    (lambda v: J.RareEventSpec("terminal", 0, 1.0, v), "T"),
    (lambda v: J.wilson_interval(3, 10, z=v), "z"),
]

# (entry point, parameter): a domain label of the net
LABELS = [
    (lambda v: J.label_matches(v, X, NET), "label"),
]

# (entry point, parameter): finite and >= 0
NONNEGATIVES = [
    (lambda v: J.simulate(NET, 5, v, 0), "T"),
]

# (entry point, parameter): a finite real number, of any sign
REALS = [
    (lambda v: J.RareEventSpec("terminal", 0, v, 1.0), "c"),
]


def _cases():
    for i, row in enumerate(VECTORS):
        if row is None:
            continue
        call, name, length, nonnegative = row
        bad = {"length": [0.5] * (length + 1), "nan": [math.nan] + [0.5] * (length - 1),
               "inf": [0.5] * (length - 1) + [math.inf]}
        if nonnegative:
            bad["negative"] = [-0.5] + [0.5] * (length - 1)
        if name == "q0_scaled":
            # n * q0 beyond int64 was cast to -2**63
            bad["huge"] = [1e30] + [0.5] * (length - 1)
        for kind, value in bad.items():
            yield pytest.param(call, value, name, id=f"vector{i}-{name}-{kind}")
    for i, row in enumerate(COUNTS):
        if row is None:
            continue
        call, name, least = row
        # count_hits(n='x') raised a TypeError
        for value in (least - 1, 2.5, True, "x"):
            yield pytest.param(call, value, name, id=f"count{i}-{name}-{value}")
    for i, (call, name) in enumerate(POSITIVES):
        for value in (0.0, -1.0, math.nan, math.inf, True):
            yield pytest.param(call, value, name, id=f"positive{i}-{name}-{value}")
    for i, (call, name) in enumerate(LABELS):
        # label_matches('x') raised an AttributeError
        for value in ("x", None):
            yield pytest.param(call, value, name, id=f"label{i}-{name}-{value}")
    for i, (call, name) in enumerate(NONNEGATIVES):
        # T='x' and T=None raised a TypeError, and T=True ran with T=1
        for value in (-1.0, math.nan, math.inf, "x", None, True):
            yield pytest.param(call, value, name, id=f"nonnegative{i}-{name}-{value}")
    for i, (call, name) in enumerate(REALS):
        # c=True was taken for 1, and c='1' raised a TypeError
        for value in (math.nan, math.inf, -math.inf, "x", None, True):
            yield pytest.param(call, value, name, id=f"real{i}-{name}-{value}")


@pytest.mark.parametrize("call,value,name", _cases())
def test_bad_argument_raises_value_error_naming_it(call, value, name):
    with pytest.raises(ValueError, match=rf"\b{name}="):
        call(value)


def test_array_scales_give_the_list_report():
    # an array of scales was refused: bool() of it raised inside the count check
    event = J.RareEventSpec("terminal", 0, 0.2, 1.0)
    as_list = J.estimate_rare_event(event, NET, [2, 3], [1000, 1000], seed=3)
    as_array = J.estimate_rare_event(event, NET, np.array([2, 3]), np.array([1000, 1000]),
                                     seed=3)
    assert json.dumps(as_array) == json.dumps(as_list)
    # numpy scalars in the event and the seed gave reports json.dumps refused
    # with "int64 is not JSON serializable"
    numpy_event = J.RareEventSpec("terminal", np.int64(0), np.float64(0.2), np.float32(1.0))
    assert numpy_event == event
    assert [type(v) for v in (numpy_event.queue, numpy_event.threshold, numpy_event.T)] == [
        int, float, float]
    as_numpy = J.estimate_rare_event(numpy_event, NET, np.array([2, 3]),
                                     np.array([1000, 1000]), seed=np.int64(3))
    assert json.dumps(as_numpy) == json.dumps(as_list)


@pytest.mark.parametrize("kind,queue,shown", [
    ("bogus", 0, "kind='bogus'"),
    ("Terminal", 0, "kind='Terminal'"),
    ("terminal", 2, "event queue 3 is not one of the 2 queues"),
])
def test_count_hits_names_the_event_it_rejects(kind, queue, shown):
    # any kind but 'terminal' used to be reduced as a running maximum; the
    # event rejects a kind, and count_hits a queue the net lacks, in the
    # wording minimize_action uses
    with pytest.raises(ValueError, match=shown):
        count_hits(NET, J.RareEventSpec(kind, queue, 1.0, 1.0), 5, 0, 100)

import json
from fractions import Fraction

import numpy as np
import pytest

from jsqldp import Topology, TopologyError, dump, load, simulate, validate


def test_roundtrip_through_dict(weighted_net):
    again = validate(weighted_net.to_dict())
    assert again.K == weighted_net.K
    assert again.M == weighted_net.M
    assert again.admissible == weighted_net.admissible
    assert again.weights == weighted_net.weights
    assert np.array_equal(again.lam, weighted_net.lam)
    assert np.array_equal(again.mu, weighted_net.mu)


def test_roundtrip_through_file(tmp_path, weighted_net):
    path = tmp_path / "net.json"
    dump(weighted_net, str(path))
    again = load(str(path))
    assert again.to_dict() == weighted_net.to_dict()
    # the file itself is plain JSON
    json.loads(path.read_text())


def test_weights_default_to_one(two_queue):
    assert two_queue.weights[(0, 0)] == Fraction(1)
    assert two_queue.weights[(1, 0)] == Fraction(1)


def test_fractional_weight_parsing(weighted_net):
    assert weighted_net.weights[(0, 1)] == Fraction(1, 2)
    assert weighted_net.weights[(1, 1)] == Fraction(1, 3)


def test_decimal_weight_parsing():
    topo = validate({"K": 2, "M": 1, "admissible": [[1, 2]], "weights": [{"1": 0.5, "2": 0.1}],
                     "lambda": [1], "mu": [1, 1]})
    assert topo.weights[(0, 0)] == Fraction(1, 2)
    assert topo.weights[(1, 0)] == Fraction(1, 10)


@pytest.mark.parametrize("fixture", ["mm1", "mm1_stable", "two_queue", "weighted_net",
                                     "shared_queues", "three_queue"])
def test_routing_table(request, fixture):
    topo = request.getfixturevalue(fixture)
    assert len(topo.routes) == topo.M
    for m, (ks, ws) in enumerate(topo.routes):
        assert ks == tuple(sorted(topo.admissible[m]))
        assert ws == tuple(float(topo.weights[(k, m)]) for k in ks)
        assert all(type(w) is float for w in ws)


def test_level_multipliers_exact(weighted_net):
    # Q_k / w_km ordering must match Q_k * c_k ordering exactly
    mults = weighted_net.level_multipliers(1)
    q = np.array([3, 2])
    ratio0 = Fraction(int(q[0])) / weighted_net.weights[(0, 1)]
    ratio1 = Fraction(int(q[1])) / weighted_net.weights[(1, 1)]
    assert (ratio0 < ratio1) == (q[0] * mults[0] < q[1] * mults[1])
    assert (ratio0 == ratio1) == (q[0] * mults[0] == q[1] * mults[1])


def test_weighted_levels(weighted_net):
    # x_k / w_km from stream 2's routing table
    ks, ws = weighted_net.routes[1]
    levels = [1.0 / w for w in ws]
    assert ks == (0, 1)
    assert levels[0] == pytest.approx(2.0)
    assert levels[1] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "raw",
    [
        {"K": 1, "M": 1, "admissible": [[]], "lambda": [1], "mu": [1]},
        {"K": 1, "M": 1, "admissible": [[2]], "lambda": [1], "mu": [1]},
        {"K": 1, "M": 1, "admissible": [[1]], "lambda": [-1], "mu": [1]},
        {"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [0]},
        {"K": 1, "M": 1, "admissible": [[1]], "lambda": [1, 2], "mu": [1]},
        {"K": 1, "M": 2, "admissible": [[1]], "lambda": [1, 1], "mu": [1]},
        {"K": 1, "M": 1, "admissible": [[1]],
         "weights": [{"1": 0}], "lambda": [1], "mu": [1]},
        {"K": 2, "M": 1, "admissible": [[1]],
         "weights": [{"2": 1}], "lambda": [1], "mu": [1, 1]},
        [{"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [1]}],
        {"K": 1, "M": 1, "admissible": 5, "lambda": [1], "mu": [1]},
        {"K": 1, "M": 1, "admissible": [[1]], "weights": [[1]], "lambda": [1], "mu": [1]},
        {"K": None, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [1]},
        # int() truncated these to a one-queue net
        {"K": 1.7, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [1]},
        {"K": 1, "M": True, "admissible": [[1]], "lambda": [1], "mu": [1]},
        {"K": 1, "M": 1, "admissible": [[1.9]], "lambda": [1], "mu": [1]},
        # a bool weight loaded as 1
        {"K": 2, "M": 1, "admissible": [[1, 2]],
         "weights": [{"1": True, "2": 1}], "lambda": [1], "mu": [1, 1]},
    ],
)
def test_invalid_descriptions_rejected(raw):
    with pytest.raises(TopologyError):
        validate(raw)


def test_missing_field_rejected():
    with pytest.raises(TopologyError, match="missing required field"):
        validate({"K": 1, "M": 1, "admissible": [[1]], "lambda": [1]})


def test_direct_constructor_requires_all_weights():
    with pytest.raises(TopologyError, match="missing weight"):
        Topology(
            K=2,
            M=1,
            admissible=(frozenset({0, 1}),),
            weights={(0, 0): Fraction(1)},
            lam=np.array([1.0]),
            mu=np.array([1.0, 1.0]),
        )


def test_compares_and_hashes_by_identity(tmp_path, weighted_net):
    # the generated __eq__ compared the numpy rate vectors inside a tuple and
    # raised; two topologies are equal only when they are one object
    path = str(tmp_path / "net.json")
    dump(weighted_net, path)
    a, b = load(path), load(path)
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1
    assert hash(a) == hash(a)


def _pair_net(weights):
    return Topology(K=2, M=1, admissible=(frozenset({0, 1}),), weights=weights,
                    lam=np.array([1.0]), mu=np.array([1.0, 1.0]))


def test_direct_constructor_reads_weights_as_validate_does():
    # float weights were kept as floats, and simulate, least_levels and
    # to_dict raised "'float' object has no attribute 'numerator'"
    topo = _pair_net({(0, 0): 0.5, (1, 0): 1.0})
    assert topo.weights == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1)}
    assert topo.to_dict()["weights"] == [{"1": "1/2", "2": "1"}]
    assert topo.least_levels(0, np.array([[1, 1], [1, 2]])).tolist() == [
        [False, True], [True, True]]
    simulate(topo, 5, 1.0, seed=0)
    mixed = _pair_net({(0, 0): "1/3", (1, 0): Fraction(2, 7)})
    assert mixed.weights == {(0, 0): Fraction(1, 3), (1, 0): Fraction(2, 7)}


@pytest.mark.parametrize("weight", ["abc", "1/0", None, True, float("nan")])
def test_direct_constructor_rejects_a_weight_it_cannot_read(weight):
    # a str weight raised a TypeError from the sign test
    with pytest.raises(TopologyError, match="cannot parse weight"):
        _pair_net({(0, 0): weight, (1, 0): 1})

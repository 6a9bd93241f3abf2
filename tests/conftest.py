import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from jsqldp import validate

# a property over random nets runs the same examples on every run
NET_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

# Per-seed hits of estimate_rare_event at seed 9 and T = 1, pinned, each
# from two batches of count_hits: 69905 replicates per batch on the drain
# net at n=5 and 43690 on the weighted net at n=4
HIT_PINS = pytest.mark.parametrize("net,kind,queue,c,n,reps,hits", [
    ("mm1_stable", "terminal", 0, 0.6, 5, 75_000, 7822),
    ("mm1_stable", "running_max", 0, 0.6, 5, 75_000, 25604),
    ("weighted_net", "terminal", 0, 0.75, 4, 45_000, 19593),
    ("weighted_net", "running_max", 1, 0.75, 4, 45_000, 11814),
], ids=["mm1-terminal", "mm1-running_max", "weighted-terminal", "weighted-running_max"])


@st.composite
def small_nets(draw):
    """(net, q0): K, M <= 3, each stream's admissible set a nonempty subset
    of the queues, weights from {1, 1/2, 2, 1/3, 3/2}, arrival rates that
    may be 0, positive service rates, and an initial queue vector of
    integers below 4."""
    K, M = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    admissible = [draw(st.lists(st.integers(1, K), min_size=1, max_size=K, unique=True))
                  for _ in range(M)]
    net = validate({
        "K": K,
        "M": M,
        "admissible": admissible,
        "weights": [{str(k): draw(st.sampled_from(["1", "1/2", "2", "1/3", "3/2"]))
                     for k in s} for s in admissible],
        "lambda": draw(st.lists(st.sampled_from([0, 0.5, 1, 2]), min_size=M, max_size=M)),
        "mu": draw(st.lists(st.sampled_from([0.5, 1, 2]), min_size=K, max_size=K)),
    })
    return net, np.array(draw(st.lists(st.integers(0, 3), min_size=K, max_size=K)))


@pytest.fixture
def mm1():
    """Single queue, single stream, lambda = mu = 1."""
    return validate({"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [1]})


@pytest.fixture
def mm1_stable():
    """Single queue with drift -1: lambda = 1, mu = 2."""
    return validate({"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [2]})


@pytest.fixture
def two_stream_queue():
    """Single queue fed by two streams: lambda = (1, 1/2), mu = 2."""
    return validate({"K": 1, "M": 2, "admissible": [[1], [1]], "lambda": [1, 0.5], "mu": [2]})


@pytest.fixture
def two_queue():
    """Two symmetric queues fed by one stream at rate 3."""
    return validate(
        {"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [3], "mu": [1, 1]}
    )


@pytest.fixture
def weighted_net():
    """Two queues, two streams, fractional weights."""
    return validate(
        {
            "K": 2,
            "M": 2,
            "admissible": [[1], [1, 2]],
            "weights": [{"1": 1}, {"1": "1/2", "2": "1/3"}],
            "lambda": [1, 2],
            "mu": [2, 1],
        }
    )


@pytest.fixture
def shared_queues():
    """Two streams that share both queues, with proportional weights, so at a
    tie both streams route to both queues."""
    return validate(
        {
            "K": 2,
            "M": 2,
            "admissible": [[1, 2], [1, 2]],
            "weights": [{"1": 1, "2": 2}, {"1": "1/2", "2": 1}],
            "lambda": [1, 2],
            "mu": [1.5, 2],
        }
    )


@pytest.fixture
def three_queue():
    """Three queues; stream 1 can tie on all three."""
    return validate(
        {"K": 3, "M": 2, "admissible": [[1, 2, 3], [2, 3]], "lambda": [2, 1], "mu": [1, 1, 2]}
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

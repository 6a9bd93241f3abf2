import numpy as np
import pytest

from jsqldp import validate


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

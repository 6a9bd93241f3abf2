import math

import numpy as np
import pytest

from jsqldp import PoissonCost, pi, pi_vec
from jsqldp.cost import price, price_vec


def test_pi_endpoint_values():
    assert pi(1.0) == 0.0
    assert pi(0.0) == 1.0


def test_pi_known_value():
    # 2 log 2 - 1
    assert pi(2.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-15)


def test_pi_negative_rejected():
    with pytest.raises(ValueError):
        pi(-0.1)
    with pytest.raises(ValueError):
        pi_vec(np.array([0.5, -0.1]))


def test_pi_nan_rejected():
    # pi(nan) returned nan and pi_vec([nan]) returned 1.0, which is pi(0)
    with pytest.raises(ValueError, match="nonnegative"):
        pi(math.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        pi_vec(np.array([0.5, math.nan]))
    for rate in (0.0, 2.0):
        with pytest.raises(ValueError, match="v=nan"):
            price(rate, math.nan)
        with pytest.raises(ValueError, match="v=nan"):
            price_vec(rate, np.array([1.0, math.nan]))


def test_pi_at_infinity_is_infinite():
    # pi(inf) returned nan, and pi_vec([inf]) warned of an invalid value,
    # which the suite's filter makes an error
    assert pi(math.inf) == math.inf
    assert pi_vec(np.array([math.inf, 0.0, 1.0])).tolist() == [math.inf, 1.0, 0.0]
    for rate in (0.0, 2.0):
        assert price(rate, math.inf) == math.inf
        assert price_vec(rate, np.array([math.inf, -math.inf])).tolist() == [math.inf] * 2


def test_overflow_is_infinite_without_a_warning():
    # pi_vec([1e308]) warned of an overflow in multiply and
    # price_vec(1e-10, [1e300]) of one in divide, which the suite's filter
    # makes errors; the scalar pi and price return inf where the value
    # passes the largest float, and price its closed form where only
    # rate * pi(v / rate) does (v / rate = 1e310 here)
    assert pi(1e308) == pi_vec(np.array([1e308]))[0] == math.inf
    assert price(1e-300, 1e306) == price_vec(1e-300, np.array([1e306]))[0] == math.inf
    assert price(1e-10, 1e300) == price_vec(1e-10, np.array([1e300]))[0] == pytest.approx(
        1e300 * (math.log(1e300) - math.log(1e-10)) - 1e300, rel=1e-12)
    assert price_vec(1e-10, np.array([1e300, 1.0, 0.0])).tolist() == [
        price(1e-10, 1e300), price(1e-10, 1.0), price(1e-10, 0.0)]


def test_pi_vec_matches_scalar(rng):
    a = rng.uniform(0, 5, 50)
    a[0] = 0.0
    assert np.allclose(pi_vec(a), [pi(v) for v in a], atol=1e-15)


def test_pi_convexity(rng):
    for _ in range(1000):
        al, be = rng.uniform(0, 10, 2)
        th = rng.random()
        assert pi(th * al + (1 - th) * be) <= th * pi(al) + (1 - th) * pi(be) + 1e-12


def test_price_zero_rate():
    assert price(0.0, 0.0) == 0.0
    assert math.isinf(price(0.0, 1e-9))
    assert np.array_equal(price_vec(0.0, np.array([0.0, 1e-9])), [0.0, math.inf])


def test_price_vec_matches_scalar(rng):
    for rate in (0.5, 2.0):
        v = rng.uniform(-1, 5, 50)
        v[:2] = [0.0, -1e-12]
        assert np.array_equal(price_vec(rate, v), [price(rate, x) for x in v])


def test_poisson_cost_eval_matches_term_sum(two_queue, rng):
    cost = PoissonCost(two_queue)
    a = rng.uniform(0, 5, two_queue.M)
    b = rng.uniform(0, 5, two_queue.K)
    manual = sum(
        lam * pi(v / lam) for lam, v in zip(two_queue.lam, a)
    ) + sum(mu * pi(v / mu) for mu, v in zip(two_queue.mu, b))
    assert cost.eval(a, b) == pytest.approx(manual, rel=1e-14)


def test_poisson_cost_negative_is_infinite(mm1):
    cost = PoissonCost(mm1)
    assert math.isinf(cost.eval(np.array([-0.1]), np.array([1.0])))

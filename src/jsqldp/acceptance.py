"""Acceptance criteria: quantitative desk-scale checks of the whole stack.

Each criterion returns (passed, detail).  ``run_acceptance`` times them and
is used both by the CLI subcommand and by the test suite.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .cost import PoissonCost, pi
from .fluid import FluidSolution, fluid_solve, lyapunov_check
from .ldp import RareEventSpec, estimate_rare_event, minimize_action, path_action
from .piecewise import PiecewisePath
from .rate import (
    classify_domain,
    domain_labels,
    label_matches,
    local_rate,
    local_rate_bruteforce,
    psi_ij,
)
from .sim import TieRule, audit, scale_path, simulate
from .topology import validate

GOLDEN_L = 0.245122

# the reference nets: one queue with lambda = mu = 1, two symmetric queues fed
# at rate 3, and one queue drained at mu = 2 against lambda = 1
SINGLE = validate({"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [1]})
PAIR = validate({"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [3], "mu": [1, 1]})
DRAIN = validate({"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [2]})

# worked pair-net fluid solution from (1, 0): queue 2 catches up at t = 1/3,
# then both rise at slope 1/2
HAND_FLUID = PiecewisePath(np.array([0.0, 1.0 / 3.0, 1.0]),
                           np.array([[1.0, 0.0], [2.0 / 3.0, 2.0 / 3.0], [1.0, 1.0]]))


def _pair_fluid(h: float) -> FluidSolution:
    """The pair net's nominal fluid path from (1, 0) over [0, 1] at step h."""
    a = PiecewisePath.cumulative_linear(PAIR.lam, 1.0)
    b = PiecewisePath.cumulative_linear(PAIR.mu, 1.0)
    return fluid_solve(PAIR, [1.0, 0.0], a, b, 1.0, h)


def criterion_oracle_equivalence():
    rng = np.random.default_rng(42)
    step = 1e-3
    count = 25
    worst = 0.0
    for topo in (SINGLE, PAIR):
        cost = PoissonCost(topo)
        for _ in range(count):
            x = rng.uniform(0, 3, topo.K)
            y = rng.uniform(-2, 2, topo.K)
            wit = local_rate(x, y, topo, cost, tol=1e-8)
            bf = local_rate_bruteforce(x, y, topo, cost, grid_step=step, box_radius=5.0)
            if math.isfinite(wit.value) != math.isfinite(bf):
                return False, f"finiteness disagrees at x={x}, y={y}"
            if math.isfinite(wit.value):
                worst = max(worst, abs(wit.value - bf))
                if abs(wit.value - bf) > 1e-2:
                    return False, f"|solver-oracle|={abs(wit.value - bf):.3g} at x={x}, y={y}"
    return True, f"max |solver - oracle| = {worst:.2e} over {2 * count} points"


def criterion_golden_value():
    wit = local_rate([1.0], [1.0], SINGLE, PoissonCost(SINGLE), tol=1e-8)
    err = abs(wit.value - GOLDEN_L)
    return err <= 1e-4, f"L(1,1) = {wit.value:.6f}, |err| = {err:.2e}"


def criterion_domain_consistency():
    # the states of {0, 1, 2}^2 take every label a pair-net state can have:
    # each queue empty or busy, and each order of the two levels
    states = {}
    for x in itertools.product([0.0, 1.0, 2.0], repeat=PAIR.K):
        states.setdefault(classify_domain(x, PAIR), np.array(x))
    labels = domain_labels(PAIR)
    if not states.keys() <= set(labels):
        return False, "a state's label is not among the domain labels"
    rng = np.random.default_rng(7)
    cost, per_label, worst = PoissonCost(PAIR), 4, 0.0
    for label, x in states.items():
        finite = 0
        for _ in range(100):
            y = rng.uniform(-2, 2, PAIR.K)
            value = psi_ij(label, y, PAIR, cost, tol=1e-8)
            bf = local_rate_bruteforce(x, y, PAIR, cost, grid_step=5e-3, box_radius=5.0)
            if math.isfinite(value) != math.isfinite(bf):
                return False, f"finiteness disagrees on {label.to_dict()} at x={x}, y={y}"
            if not math.isfinite(value):
                continue
            worst = max(worst, abs(value - bf))
            if abs(value - bf) > 1e-2:
                return False, f"|psi_ij - oracle|={abs(value - bf):.3g} at x={x}, y={y}"
            finite += 1
            if finite == per_label:
                break
        if finite < per_label:
            return False, f"only {finite} finite values on {label.to_dict()} at x={x}"
    return True, (f"max |psi_ij - oracle| = {worst:.2e} over {per_label} velocities on each "
                  f"of the {len(states)} attained labels (of {len(labels)})")


def criterion_domain_partition():
    rng = np.random.default_rng(3)
    labels = domain_labels(PAIR)
    n = 10_000
    for _ in range(n):
        x = rng.uniform(0, 3, PAIR.K)
        u = rng.random()
        if u < 0.2:
            x[rng.integers(PAIR.K)] = 0.0
        elif u < 0.4:
            x[1] = x[0]  # weighted tie (weights are 1)
        if not label_matches(classify_domain(x, PAIR), x, PAIR):
            return False, f"classification disagrees with domain definition at x={x}"
        matches = sum(1 for cand in labels if label_matches(cand, x, PAIR))
        if matches != 1:
            return False, f"x={x} lies in {matches} domains"
    return True, f"{n} states each in exactly one domain"


def criterion_fluid_worked_example():
    details = []
    grid = np.linspace(0, 1.0, 1001)
    hand = HAND_FLUID(grid)
    for h in (1e-2, 1e-3):
        err = float(np.abs(_pair_fluid(h).queue(grid) - hand).max())
        details.append(f"h={h:g}: sup err {err:.2e}")
        if err > 3 * h:
            return False, f"sup error {err:.3g} > 3h at h={h}"
    # step-halving order probe: successive differences fall by ~2 per halving
    grid = np.linspace(0, 1.0, 401)
    sols = [_pair_fluid(h).queue(grid) for h in (1e-2, 5e-3, 2.5e-3)]
    errs = [float(np.abs(s0 - s1).max()) for s0, s1 in zip(sols, sols[1:])]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:]) if e1 > 0]
    if ratios and min(ratios) < 1.8:
        return False, f"halving ratio {min(ratios):.2f} < 1.8"
    details.append(f"halving ratios {[f'{r:.2f}' for r in ratios]}")
    return True, "; ".join(details)


def criterion_lyapunov():
    rng = np.random.default_rng(11)
    h = 1e-3
    pairs = 20
    worst = 0.0
    for _ in range(pairs):
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 4)), [1.0]])
        a_vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0, 1, 5))])[:, None] * 3
        b_vals = np.cumsum(
            np.vstack([np.zeros(2), rng.uniform(0, 0.5, (5, 2))]), axis=0
        )
        a = PiecewisePath(knots, a_vals)
        b = PiecewisePath(knots, b_vals)
        s1 = fluid_solve(PAIR, rng.uniform(0, 2, 2), a, b, 1.0, h)
        s2 = fluid_solve(PAIR, rng.uniform(0, 2, 2), a, b, 1.0, h)
        worst = max(worst, lyapunov_check(s1, s2))
    return worst <= 5 * h, f"max positive L1 increment {worst:.2e} (bound {5 * h:g})"


def criterion_fluid_limit():
    grid = np.linspace(0, 1.0, 1001)
    fl_vals = _pair_fluid(1e-3).queue(grid)
    seeds = 20
    good = 0
    for s in range(seeds):
        p = simulate(PAIR, 10_000, 1.0, seed=s, q0_scaled=[1.0, 0.0])
        good += float(np.abs(scale_path(p, 1e-3)(grid) - fl_vals).max()) <= 0.05
    if good < seeds - 2:
        return False, f"only {good} seeds within 0.05"
    report = path_action(HAND_FLUID, PAIR, PoissonCost(PAIR), tol=1e-9)
    if report.total > 1e-6:
        return False, f"fluid-path action {report.total:.2e} > 1e-6"
    return True, f"{good} seeds within 0.05; fluid-path action {report.total:.2e}"


def criterion_ldp_sanity():
    event = RareEventSpec("terminal", 0, 1.0, 1.0)
    _, value = minimize_action(event, DRAIN, PoissonCost(DRAIN), segments=1)
    scales, reps = [10, 20, 40], [2_000_000, 100_000_000, 2_000_000]
    report = estimate_rare_event(event, DRAIN, scales, reps, seed=7)
    fit = report["fit"]
    if fit is None:
        return False, "fewer than two scales produced point estimates"
    rel = abs(fit["intercept"] - value) / value
    hits = {r["n"]: r["hits"] for r in report["scales"]}
    return (
        rel <= 0.15,
        f"variational {value:.4f}, extrapolated {fit['intercept']:.4f} "
        f"(rel err {rel:.1%}), hits {hits}",
    )


def criterion_simulator_audit():
    rng = np.random.default_rng(5)
    runs = 100
    topos = [SINGLE, PAIR,
             validate({"K": 2, "M": 2, "admissible": [[1], [1, 2]],
                       "weights": [{"1": 1}, {"1": 2, "2": 1}],
                       "lambda": [1, 2], "mu": [2, 1]})]
    for i in range(runs):
        topo = topos[i % len(topos)]
        n = int(rng.integers(1, 50))
        tie = TieRule.LOWEST_INDEX if i % 2 == 0 else TieRule.UNIFORM_RANDOM
        p = simulate(topo, n, 2.0, seed=1000 + i, tie_rule=tie,
                     q0_scaled=rng.uniform(0, 2, topo.K))
        audit(p, topo)
    for s in (0, 1, 2):
        p1 = simulate(PAIR, 50, 2.0, seed=s, q0_scaled=[1.0, 0.0])
        p2 = simulate(PAIR, 50, 2.0, seed=s, q0_scaled=[1.0, 0.0])
        same = (np.array_equal(p1.times, p2.times)
                and np.array_equal(p1.queues, p2.queues)
                and np.array_equal(p1.routed, p2.routed))
        if not same:
            return False, f"seed {s} not reproducible"
    return True, f"{runs} runs audited; reruns identical"


def criterion_cost_properties():
    if pi(1.0) != 0.0 or pi(0.0) != 1.0:
        return False, "pi endpoint values wrong"
    rng = np.random.default_rng(9)
    for _ in range(1000):
        al, be = rng.uniform(0, 10, 2)
        th = rng.random()
        lhs = pi(th * al + (1 - th) * be)
        rhs = th * pi(al) + (1 - th) * pi(be)
        if lhs > rhs + 1e-12:
            return False, f"convexity violated at ({al}, {be}, {th})"
    return True, "pi values, 1000 convexity triples"


CRITERIA = [
    ("1-oracle-equivalence", criterion_oracle_equivalence),
    ("2-golden-value", criterion_golden_value),
    ("3-domain-consistency", criterion_domain_consistency),
    ("4-domain-partition", criterion_domain_partition),
    ("5-fluid-worked-example", criterion_fluid_worked_example),
    ("6-lyapunov", criterion_lyapunov),
    ("7-fluid-limit", criterion_fluid_limit),
    ("8-ldp-sanity", criterion_ldp_sanity),
    ("9-simulator-audit", criterion_simulator_audit),
    ("10-cost-properties", criterion_cost_properties),
]


def run_acceptance(only: str | None = None) -> list[dict]:
    results = []
    for name, fn in CRITERIA:
        if only and only not in name:
            continue
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            {"name": name, "passed": bool(passed), "detail": detail,
             "seconds": time.time() - t0}
        )
    return results

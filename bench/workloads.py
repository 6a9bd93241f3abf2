"""The benchmark's four workloads.

A workload loads its networks and warms up in ``setup``; ``ops(r)`` returns
round r, the fixed list of public calls the runner times, as
``(name, call, check)`` triples.  The runner calls ``check(result)`` after
the timer stops, so correctness checks never sit inside a timed region;
``finish`` runs the checks that need the whole run.  Every call reaches
jsqldp through its module attribute (``ldp.minimize_action``), so a tracer
that patches those attributes sees it.

Inputs come from the run seed: round r, call i of a sampling workload uses
the seed ``SeedSequence([seed, r, i])``, so one run seed gives one stream of
inputs and round 0 gives the exact counts recorded in ``counts``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from jsqldp import fluid, ldp, rate, sim
from jsqldp.cost import PoissonCost
from jsqldp.piecewise import PiecewisePath
from jsqldp.topology import load

HERE = os.path.dirname(os.path.abspath(__file__))
EVENT = "terminal:k=1,c=1,T=1"
GOLDEN_L = 0.245122
# Pooled Wilson intervals are compared with the exact reference at this z,
# so the few hundred interval checks a set of runs makes all pass with
# overwhelming probability unless the sampling law itself changed.
WILSON_Z = 4.5
# Wilson half-width target for mc_s_to_10pct, and the pooled hits a scale
# needs before its hit rate is trusted for that extrapolation.
TARGET_Z, TARGET_REL, MIN_HITS = 1.96, 0.10, 100


def net(name: str):
    return load(os.path.join(HERE, "nets", name))


def call_seed(seed: int, r: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, r, i]).generate_state(1)[0])


def worked_path() -> PiecewisePath:
    """Worked fluid solution on the pair net from (1, 0): queue 2 catches up
    at t = 1/3, then both rise at slope 1/2."""
    return PiecewisePath(
        np.array([0.0, 1.0 / 3.0, 1.0]),
        np.array([[1.0, 0.0], [2.0 / 3.0, 2.0 / 3.0], [1.0, 1.0]]),
    )


class Workload:
    name = ""
    why = ""
    # the parts of the speed probe (speed.PARTS) that drift like this
    # workload's calls
    probe_parts: tuple[str, ...] = ("interpreter",)

    def __init__(self, seed: int):
        self.seed = seed
        self.checks: list[tuple[str, bool, str]] = []
        self.counts: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, r: int) -> list:
        raise NotImplementedError

    def finish(self, records: list[dict]) -> dict:
        """Run-wide checks; returns extra figures as {name: (value, unit)}."""
        return {}


class RareEvent(Workload):
    """``estimate_rare_event`` calls on one network at two scales."""

    net_file = ""
    scales: tuple[int, int] = (5, 10)
    reps: tuple[int, int] = (0, 0)
    calls = 0
    warm = (5, 200)

    def setup(self) -> None:
        self.topo = net(self.net_file)
        self.event = ldp.RareEventSpec.parse(EVENT)
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)[self.name]
        self.reference = {int(n): row["p"] for n, row in ref["scales"].items()}
        self.pooled = {n: [0, 0] for n in self.scales}
        n, reps = self.warm
        ldp.estimate_rare_event(self.event, self.topo, [n], [reps], seed=0)

    def ops(self, r: int) -> list:
        out = []
        for i in range(self.calls):
            s = call_seed(self.seed, r, i)
            out.append((
                "estimate_rare_event",
                lambda s=s: ldp.estimate_rare_event(
                    self.event, self.topo, list(self.scales), list(self.reps), seed=s),
                lambda res, r=r: self._tally(res, r),
            ))
        return out

    def _tally(self, res: dict, r: int) -> None:
        rows = res["scales"]
        ok = [row["n"] for row in rows] == list(self.scales) and all(
            0 <= row["hits"] <= row["reps"] for row in rows)
        self.check("rare.rows", ok, f"rows {rows}")
        for row in rows:
            pool = self.pooled[row["n"]]
            pool[0] += row["hits"]
            pool[1] += row["reps"]
            if r == 0:
                key = f"hits_round0_n{row['n']}"
                self.counts[key] = self.counts.get(key, 0) + row["hits"]

    def finish(self, records: list[dict]) -> dict:
        for n, (hits, reps) in self.pooled.items():
            lo, hi = ldp.wilson_interval(hits, reps, z=WILSON_Z)
            p = self.reference[n]
            self.check(f"rare.wilson_overlaps_reference.n{n}", lo <= p <= hi,
                       f"{hits}/{reps} hits, interval [{lo:.4g}, {hi:.4g}], exact {p:.4g}")
        self.counts["pooled"] = {str(n): v for n, v in self.pooled.items()}
        seconds = sum(rec["seconds"] for rec in records)
        return {"mc_s_to_10pct": (mc_seconds_to_target(self.pooled, seconds), "s")}


def mc_seconds_to_target(pooled: dict, seconds: float) -> float:
    """Seconds of the same estimator calls that would bring the largest scale
    with at least MIN_HITS pooled hits to a TARGET_REL Wilson half-width."""
    trusted = [n for n, (hits, _) in pooled.items() if hits >= MIN_HITS]
    if not trusted:
        return math.inf
    hits, reps = pooled[max(trusted)]
    p = hits / reps
    need = TARGET_Z ** 2 * (1 - p) / (TARGET_REL ** 2 * p)
    return seconds * need / reps


class RareMM1(RareEvent):
    name = "rare-mm1"
    why = "M/M/1 drain net: only the vectorised M/M/1 hit counter runs"
    net_file = "drain.json"
    probe_parts = ("interpreter", "memory")
    reps = (20_000, 100_000)
    calls = 8
    warm = (5, 2_000)


class RareJSQ(RareEvent):
    name = "rare-jsq"
    why = "weighted two-queue net: one replicate at a time through terminal_statistics"
    net_file = "readme.json"
    reps = (400, 400)
    calls = 6


class Variational(Workload):
    """``minimize_action`` as ``jsqldp optimize`` runs it, plus ``path_action``.

    The inputs are the CLI defaults (8 starts, seed 0), the same for every
    run seed.  Two cases raise ``TypeError`` at this version; they stay in
    the list and count as failed operations.
    """

    name = "variational"
    why = "local_rate dominates: optimize cases and one path action, no simulation"
    probe_parts = ("interpreter", "solver")

    def setup(self) -> None:
        self.drain = net("drain.json")
        self.readme = net("readme.json")
        self.pair = net("pair.json")
        self.single = net("single.json")
        self.event = ldp.RareEventSpec.parse(EVENT)
        self.event_q2 = ldp.RareEventSpec.parse("terminal:k=2,c=1,T=1")
        self.worked = worked_path()
        ldp.path_action(PiecewisePath.linear([0.0], [0.5], 1.0), self.drain,
                        PoissonCost(self.drain))

    def _optimize(self, topo, event, segments):
        return lambda: ldp.minimize_action(event, topo, PoissonCost(topo),
                                           segments=segments, seed=0)

    def _is_ln2(self, case):
        def check(res):
            value = res[1]
            self.check(f"variational.{case}_is_ln2", abs(value - math.log(2)) <= 1e-4,
                       f"value {value!r}")
            self.counts[f"{case}_value"] = value
        return check

    def ops(self, r: int) -> list:
        return [
            ("optimize drain seg=1", self._optimize(self.drain, self.event, 1),
             self._is_ln2("drain1")),
            ("optimize drain seg=2", self._optimize(self.drain, self.event, 2),
             self._is_ln2("drain2")),
            ("optimize readme seg=1", self._optimize(self.readme, self.event, 1), None),
            ("optimize readme k=2", self._optimize(self.readme, self.event_q2, 1), None),
            ("optimize pair", self._optimize(self.pair, self.event, 1), None),
            ("path_action worked", lambda: ldp.path_action(
                self.worked, self.pair, PoissonCost(self.pair), tol=1e-9),
             lambda rep: self.check("variational.worked_path_action", rep.total <= 1e-6,
                                    f"action {rep.total!r}")),
        ]

    def finish(self, records: list[dict]) -> dict:
        wit = rate.local_rate([1.0], [1.0], self.single, PoissonCost(self.single), tol=1e-8)
        self.check("variational.golden_L11", abs(wit.value - GOLDEN_L) <= 1e-4,
                   f"L(1,1) = {wit.value!r}")
        return {}


class FluidLimit(Workload):
    """Full simulated paths against the fluid solution on the pair net."""

    name = "fluid-limit"
    why = "records full paths at n=1e4 and runs the fluid solver at size"
    n = 10_000
    paths = 3
    readme_n = 2_000

    def setup(self) -> None:
        self.pair = net("pair.json")
        self.readme = net("readme.json")
        self.a = PiecewisePath.cumulative_linear(self.pair.lam, 1.0)
        self.b = PiecewisePath.cumulative_linear(self.pair.mu, 1.0)
        self.grid = np.linspace(0.0, 1.0, 1001)
        self.worked = worked_path()(self.grid)
        self.fluid_vals = None
        self.sup_errors: list[float] = []
        self.first = None
        warm = sim.simulate(self.pair, 10, 1.0, seed=0, q0_scaled=[1.0, 0.0])
        sim.audit(warm, self.pair)
        sim.scale_path(warm, 1e-3)(self.grid)
        fluid.fluid_solve(self.pair, [1.0, 0.0], self.a, self.b, 1.0, 0.1)

    def _fluid(self, h, keep):
        def check(sol):
            vals = sol.queue(self.grid)
            err = float(np.abs(vals - self.worked).max())
            self.check(f"fluid.worked_example_h{h:g}", err <= 3 * h, f"sup err {err:.3g}")
            if keep:
                self.fluid_vals = vals
        return (f"fluid_solve h={h:g}",
                lambda: fluid.fluid_solve(self.pair, [1.0, 0.0], self.a, self.b, 1.0, h),
                check)

    def _pair_path(self, s, r, i):
        def check(path):
            sim.audit(path, self.pair)
            err = float(np.abs(sim.scale_path(path, 1e-3)(self.grid) - self.fluid_vals).max())
            self.sup_errors.append(err)
            if r == 0:
                self.counts[f"events_round0_path{i}"] = len(path.times) - 1
                if i == 0:
                    self.first = (s, path_digest(path))
                    self.counts["digest_round0_path0"] = self.first[1]
        return ("simulate pair n=1e4",
                lambda: sim.simulate(self.pair, self.n, 1.0, seed=s, q0_scaled=[1.0, 0.0]),
                check)

    def _readme_path(self, s, r):
        def check(path):
            sim.audit(path, self.readme)
            if r == 0:
                self.counts["events_round0_readme"] = len(path.times) - 1
        return ("simulate readme uniform ties",
                lambda: sim.simulate(self.readme, self.readme_n, 1.0, seed=s,
                                     tie_rule=sim.TieRule.UNIFORM_RANDOM),
                check)

    def ops(self, r: int) -> list:
        out = [self._fluid(1e-3, keep=True), self._fluid(1e-4, keep=False)]
        out += [self._pair_path(call_seed(self.seed, r, i), r, i) for i in range(self.paths)]
        out.append(self._readme_path(call_seed(self.seed, r, self.paths), r))
        return out

    def finish(self, records: list[dict]) -> dict:
        # an audit failure raises inside a check; the runner counts it there
        bad = sum(err > 0.05 for err in self.sup_errors)
        self.check("fluid.sup_error_within_0.05", len(self.sup_errors) > 0 and bad <= 2,
                   f"{bad} of {len(self.sup_errors)} paths beyond 0.05, "
                   f"max {max(self.sup_errors, default=math.nan):.3g}")
        if self.first is not None:
            s, digest = self.first
            again = sim.simulate(self.pair, self.n, 1.0, seed=s, q0_scaled=[1.0, 0.0])
            self.check("fluid.rerun_bit_identical", path_digest(again) == digest,
                       f"seed {s}")
        return {}


def path_digest(path) -> str:
    h = hashlib.sha256()
    for arr in (path.times, path.queues, path.arrivals, path.services,
                path.departures, path.routed):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (RareMM1, RareJSQ, Variational, FluidLimit)}

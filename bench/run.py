"""jsqldp benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload rare-mm1 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports jsqldp from ``src/``.
Set-up (imports, network files, first-call warm-up) is timed in this process
and in ``SETUP_PROBES`` fresh child processes.  The workload's round, a
fixed list of public calls, then repeats until ``--seconds`` have passed;
every call is timed on its own, in calibrated seconds (see ``speed.py``),
and its result checked after the timer stops.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1``
alternates traced and untraced rounds and reports the per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name each metric with its unit, then give machine facts,
exact per-seed counts and check results as JSON.  The exit code is 1 when a
correctness check fails, 2 when the package cannot be imported.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from speed import PARTS, Probe, SpeedSampler  # noqa: E402
from tracing import Tracer, check_spans, self_test, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
SAMPLE_PERIOD_S = 0.25


def import_package():
    if not os.path.isfile(os.path.join(SRC, "jsqldp", "__init__.py")):
        raise ImportError(f"no jsqldp package under {SRC}")
    sys.path.insert(0, SRC)
    import jsqldp

    if os.path.dirname(os.path.abspath(jsqldp.__file__)) != os.path.join(SRC, "jsqldp"):
        raise ImportError(f"imported jsqldp from {jsqldp.__file__}, not {SRC}")
    return jsqldp


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(xs, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty sample."""
    s = sorted(xs)
    pos = q / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(xs) -> tuple[float, float]:
    """(value, percentile) of the highest whole percentile with at least ten
    samples beyond it; the maximum (percentile 100) below 20 samples."""
    if len(xs) < 20:
        return max(xs), 100.0
    q = math.floor(100 * (1 - 10 / len(xs)))
    return percentile(xs, q), float(q)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Per-layer accounting of traced rounds
# ---------------------------------------------------------------------------

def _rare_info(res, args, kwargs):
    event, topo = args[0], args[1]
    rate_sum = float(topo.lam.sum() + topo.mu.sum())
    rows = res["scales"]
    return {
        "reps": sum(r["reps"] for r in rows),
        "events": sum(r["reps"] * rate_sum * r["n"] * event.T for r in rows),
        "hits": sum(r["hits"] for r in rows),
    }


ANNOTATE = {
    "ldp.estimate_rare_event": _rare_info,
    "ldp.path_action": lambda res, a, k: len(res.segments),
    "sim.simulate": lambda res, a, k: len(res.times) - 1,
    "fluid.fluid_solve": lambda res, a, k: len(res.queue.breakpoints) - 1,
    "rate.local_rate": lambda res, a, k: (res.iterations, math.isfinite(res.value)),
}


class LayerStats:
    """Durations, self times and annotations of traced spans, by name."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        self.info = defaultdict(list)
        self.round0 = Counter()
        self.layer_self = Counter()

    def add(self, spans, round_index: int, speed: float) -> None:
        selfs = [t * speed for t in self_times(spans)]
        root = [0] * len(spans)
        for i, (name, start, end, parent, info) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            under_op = spans[root[i]][0].startswith("op:")
            if parent < 0:
                continue
            self.durations[name].append((end - start) * speed)
            self.self_s[name] += selfs[i]
            if info is not None:
                self.info[name].append(info)
            if under_op:
                self.layer_self[name.split(".")[0]] += selfs[i]
            if round_index == 0:
                self.round0[name] += 1
                if name == "ldp.path_action" and self._inside(spans, i, "ldp.minimize_action"):
                    self.round0["ldp.minimize_action/path_action"] += 1

    @staticmethod
    def _inside(spans, i, name) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def total(self, name) -> float:
        return sum(self.durations[name])

    def p50(self, name, scale: float) -> float:
        d = self.durations[name]
        return percentile(d, 50) * scale if d else 0.0

    def per_call(self, name, scale: float) -> float:
        d = self.durations[name]
        return sum(d) / len(d) * scale if d else 0.0

    def self_frac(self, name) -> float:
        return ratio(self.self_s[name], self.total(name))

    def round0_sum(self, name) -> int:
        """Sum of the round-0 calls' annotations (round 0 is traced first)."""
        return int(sum(self.info[name][: self.round0[name]]))

    def metrics(self, overhead: float, rounds: int, hits: int, s_to_10pct: float) -> dict:
        rare = self.info["ldp.estimate_rare_event"]
        lr_info = self.info["rate.local_rate"]
        lr = self.durations["rate.local_rate"]
        m = {
            "ldp.estimate_rare_event.reps_per_s": (
                ratio(sum(i["reps"] for i in rare), self.total("ldp.estimate_rare_event")), "1/s"),
            "ldp.estimate_rare_event.ns_per_rep_event": (
                ratio(self.total("ldp.estimate_rare_event") * 1e9,
                      sum(i["events"] for i in rare)), "ns"),
            "ldp.estimate_rare_event.hits": (hits, "count"),
            "ldp.estimate_rare_event.self_frac": (self.self_frac("ldp.estimate_rare_event"), "frac"),
            "ldp.estimate_rare_event.s_to_10pct": (s_to_10pct, "s"),
            "sim.terminal_statistics.us_per_rep": (self.per_call("sim.terminal_statistics", 1e6), "us"),
            "sim.terminal_statistics.calls": (self.round0["sim.terminal_statistics"], "count"),
            "sim.simulate.us_per_event": (
                ratio(self.total("sim.simulate") * 1e6, sum(self.info["sim.simulate"])), "us"),
            "sim.simulate.events": (self.round0_sum("sim.simulate"), "count"),
            "sim.audit.ms_per_path": (self.per_call("sim.audit", 1e3), "ms"),
            "fluid.fluid_solve.us_per_step": (
                ratio(self.total("fluid.fluid_solve") * 1e6, sum(self.info["fluid.fluid_solve"])),
                "us"),
            "fluid.fluid_route_step.calls": (self.round0["fluid.fluid_route_step"], "count"),
            "rate.local_rate.calls": (self.round0["rate.local_rate"], "count"),
            "rate.local_rate.ms_p50": (self.p50("rate.local_rate", 1e3), "ms"),
            "rate.local_rate.ms_tail": ((tail(lr)[0] * 1e3) if lr else 0.0, "ms"),
            "rate.local_rate.iterations_p50": (
                percentile([i[0] for i in lr_info], 50) if lr_info else 0.0, "count"),
            "rate.local_rate.infeasible_frac": (
                ratio(sum(not i[1] for i in lr_info), len(lr_info)), "frac"),
            "rate.feasibility_certificate.calls": (
                self.round0["rate.feasibility_certificate"], "count"),
            "rate.feasibility_certificate.ms_p50": (
                self.p50("rate.feasibility_certificate", 1e3), "ms"),
            "rate.feasibility_certificate.frac_of_local_rate": (
                ratio(self.total("rate.feasibility_certificate"), self.total("rate.local_rate")),
                "frac"),
            "rate.classify_domain.us_p50": (self.p50("rate.classify_domain", 1e6), "us"),
            "rate.solve.self_frac": (self.self_frac("rate.local_rate"), "frac"),
            "ldp.minimize_action.s_per_call": (self.per_call("ldp.minimize_action", 1.0), "s"),
            "ldp.minimize_action.path_action_calls": (
                self.round0["ldp.minimize_action/path_action"], "count"),
            "ldp.path_action.ms_per_segment": (
                ratio(self.total("ldp.path_action") * 1e3, sum(self.info["ldp.path_action"])),
                "ms"),
            "ldp.path_action.self_frac": (self.self_frac("ldp.path_action"), "frac"),
        }
        for layer in ("sim", "ldp", "rate", "fluid"):
            m[f"{layer}.busy_s"] = (self.layer_self[layer] / rounds, "s")
        m["trace.overhead_frac"] = (overhead, "frac")
        return m


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def facts(jsqldp) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsqldp": jsqldp.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
    }


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(calibrated, raw) set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    calibrated, raw = proc.stdout.strip().splitlines()[-1].split()
    return float(calibrated), float(raw)


class Run:
    def __init__(self, workload, trace: bool):
        self.wl = workload
        self.records: list[dict] = []
        self.round_walls = {True: [], False: []}
        self.failures = Counter()
        self.trace_problems: list[str] = []
        self.stats = LayerStats()
        self.speed = SpeedSampler(Probe(workload.probe_parts))
        if trace:
            self.tracer = Tracer(ANNOTATE)

    def _checked(self, name, check, result) -> None:
        try:
            check(result)
        except Exception as exc:  # noqa: BLE001 - a raising check is a failed check
            self.wl.check(f"{name}: check raised", False, f"{type(exc).__name__}: {exc}")

    def _span(self, name: str, traced: bool):
        return self.tracer.span(name) if traced else contextlib.nullcontext()

    def round(self, r: int, traced: bool) -> None:
        """Time round r.  Each call's time is calibrated by the probes taken
        just before it, during it (untraced rounds only, so probes never
        land inside a span) and just after it."""
        if traced:
            self.tracer.install()
        wall = 0.0
        clock = self.speed
        clock.sample()
        try:
            with contextlib.nullcontext() if traced else clock.periodic(SAMPLE_PERIOD_S):
                for name, call, check in self.wl.ops(r):
                    first, spent = len(clock.probes) - 1, clock.spent
                    t_outer = time.perf_counter()
                    ok, result = True, None
                    with self._span(f"op:{name}", traced):
                        t0 = time.perf_counter()
                        try:
                            result = call()
                        except Exception as exc:  # noqa: BLE001 - counted as a failed op
                            ok = False
                            self.failures[f"{name}: {type(exc).__name__}"] += 1
                        raw = time.perf_counter() - t0 - (clock.spent - spent)
                    clock.sample()
                    dt = clock.probe.calibrate(raw, clock.probes[first:])
                    wall += dt
                    self.records.append({"round": r, "name": name, "seconds": dt,
                                         "raw_seconds": raw, "ok": ok, "traced": traced})
                    if ok and check is not None:
                        with self._span("check", traced):
                            self._checked(name, check, result)
                    del result
                    if traced:
                        spans = self.tracer.drain()
                        self.trace_problems += check_spans(spans, time.perf_counter() - t_outer)
                        self.stats.add(spans, r, dt / raw if raw > 0 else 1.0)
        finally:
            if traced:
                self.tracer.uninstall()
        self.round_walls[traced].append(wall)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        jsqldp = import_package()
    except ImportError as exc:
        print(f"cannot import jsqldp: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    raw_setup = time.perf_counter() - _T0
    probe = Probe(tuple(PARTS))  # set-up mixes every kind of work
    setup_main = (probe.calibrate(raw_setup, [probe.settled()]), raw_setup)
    if args.setup_probe:
        print(*map(repr, setup_main))
        return 0
    setup_samples = [setup_main]
    if not args.trace:
        setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    run = Run(wl, bool(args.trace))
    problems = []
    if args.trace:
        problems = self_test()
    start = time.perf_counter()
    r = 0
    while r == 0 or (args.trace and r == 1) or time.perf_counter() - start < args.seconds:
        run.round(r, traced=bool(args.trace) and r % 2 == 0)
        r += 1
    extra = wl.finish([rec for rec in run.records if rec["ok"]])
    if args.trace:
        problems += run.trace_problems

    seconds = [rec["seconds"] for rec in run.records]
    attempted = len(run.records)
    failed = sum(not rec["ok"] for rec in run.records)
    if args.trace:
        plain = statistics.median(run.round_walls[False])
        traced = statistics.median(run.round_walls[True])
        hits = sum(v for k, v in wl.counts.items() if k.startswith("hits_round0"))
        metrics = run.stats.metrics(traced / plain - 1, len(run.round_walls[True]), hits,
                                    extra.get("mc_s_to_10pct", (0.0, "s"))[0])
    else:
        tail_s, tail_q = tail(seconds)
        raw_walls, by_round = Counter(), defaultdict(list)
        for rec in run.records:
            raw_walls[rec["round"]] += rec["raw_seconds"]
            by_round[rec["round"]].append(rec["seconds"])
        extra["op_s_tail_percentile"] = (tail_q, "pct")
        extra["uncalibrated_wall_s"] = (statistics.median(raw_walls.values()), "s")
        extra["ops_failed_frac"] = (failed / attempted, "frac")
        metrics = {
            "setup_s": (statistics.median(c for c, _ in setup_samples), "s"),
            "wall_s": (statistics.median(run.round_walls[False]), "s"),
            "op_s_p50": (statistics.median(statistics.median(v) for v in by_round.values()), "s"),
            "op_s_tail": (tail_s, "s"),
            "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed_checks = [c for c in wl.checks if not c[1]]
    correct = not failed_checks and not problems
    extra["checks_failed"] = (len(failed_checks) + len(problems), "count")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for name, (value, unit) in extra.items():
        print(f"# {name} {value!r} {unit}")
    detail = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": r,
        "op_samples": attempted,
        "setup_samples_s": setup_samples,
        "failures": dict(run.failures),
        "checks": {"run": len(wl.checks), "failed": len(failed_checks),
                   "failed_detail": failed_checks[:20]},
        "trace_problems": problems[:20],
        "counts": wl.counts,
        "facts": facts(jsqldp),
    }
    print(json.dumps(detail, default=float))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

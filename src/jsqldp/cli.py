"""Command-line interface: one binary, subcommand style.

Every subcommand takes ``--topology`` (JSON network description) and writes a
run manifest beside each output file.  The CLI parses text; the library
checks every value.  Exit codes: 0 success, 2 bad input or missing file (any
library ``ValueError``), 3 violated precondition (``NoFiniteStartError``,
``TooFewHitsError``), 4 the rate solver failed (``SolverError``), 1 internal
failure.  Failures past argument parsing print a JSON error to stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import topology as topo_mod
from .cost import PoissonCost
from .fluid import fluid_solve
from .ldp import (NoFiniteStartError, RareEventSpec, TooFewHitsError, _check_counts,
                  estimate_rare_event, minimize_action, path_action)
from .manifest import RunManifest
from .piecewise import PiecewisePath
from .rate import SolverError, local_rate, local_rate_bruteforce
from .sim import TieRule, scale_counters, simulate


def _load_topology(path: str):
    if not os.path.exists(path):
        raise ValueError(f"topology not found: {path}")
    try:
        return topo_mod.load(path)
    except ValueError as exc:  # a TopologyError or a JSONDecodeError
        raise ValueError(f"invalid topology: {exc}") from exc


def _vector(text: str, what: str) -> list[float]:
    """The numbers in ``text``, separated by commas or spaces."""
    try:
        return [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"cannot parse {what}: {text!r}") from exc


def _counts(text: str, what: str) -> list[int | float]:
    """Comma-separated numbers, whole ones ('1e6') as ints, so that the
    library sees and refuses a fractional count."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse {what}: {text!r}") from exc
    return [int(v) if v.is_integer() else v for v in values]


def _read_paths(path: str, what: str, keys: list[str]):
    """(raw JSON, paths) from a file holding breakpoints "t" and a value
    array under each of ``keys``."""
    if not os.path.exists(path):
        raise ValueError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from exc
    missing = [k for k in ["t", *keys] if not isinstance(raw, dict) or k not in raw]
    if missing:
        raise ValueError(f"{what} file {path} lacks {', '.join(map(repr, missing))}")
    paths = []
    for key in keys:
        try:
            paths.append(PiecewisePath(np.asarray(raw["t"], dtype=float),
                                       np.asarray(raw[key], dtype=float)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} file {path}: {key!r}: {exc}") from exc
    return raw, paths


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def cmd_simulate(args) -> int:
    topo = _load_topology(args.topology)
    q0 = _vector(args.q0, "--q0") if args.q0 else [0.0] * topo.K
    path = simulate(topo, args.n, args.T, args.seed, TieRule(args.tie), q0)
    sc = scale_counters(path, args.grid)
    header = (["t"]
              + [f"Q_{k+1}" for k in range(topo.K)]
              + [f"A_{m+1}" for m in range(topo.M)]
              + [f"B_{k+1}" for k in range(topo.K)]
              + [f"D_{k+1}" for k in range(topo.K)]
              + [f"E_{k+1}{m+1}" for k in range(topo.K) for m in range(topo.M)])
    rows = []
    for i, t in enumerate(sc["t"]):
        rows.append([t, *sc["Q"][i], *sc["A"][i], *sc["B"][i], *sc["D"][i],
                     *sc["E"][i].ravel()])
    _write_csv(args.out, header, rows)
    man = RunManifest("simulate", {
        "topology": topo.to_dict(), "n": args.n, "T": args.T,
        "tie": args.tie, "q0": q0, "grid": args.grid,
    }, seeds=[args.seed])
    man.record_output(args.out)
    man.write(args.out)
    return 0


def cmd_rate(args) -> int:
    topo = _load_topology(args.topology)
    x = _vector(args.x, "--x")
    y = _vector(args.y, "--y")
    cost = PoissonCost(topo)
    out = local_rate(x, y, topo, cost, tol=args.tol).to_dict()
    if args.oracle:
        out["oracle"] = local_rate_bruteforce(
            x, y, topo, cost, grid_step=args.oracle_step, box_radius=args.oracle_radius
        )
    _print_json(out)
    return 0


def cmd_fluid(args) -> int:
    topo = _load_topology(args.topology)
    q0 = _vector(args.q0, "--q0")
    raw, (a, b) = _read_paths(args.inputs, "inputs", ["a", "b"])
    sol = fluid_solve(topo, q0, a, b, args.T, args.h)
    header = (["t"] + [f"q_{k+1}" for k in range(topo.K)]
              + [f"d_{k+1}" for k in range(topo.K)]
              + [f"e_{k+1}{m+1}" for k in range(topo.K) for m in range(topo.M)])
    rows = []
    for i, t in enumerate(sol.queue.breakpoints):
        rows.append([t, *sol.queue.values[i], *sol.departed.values[i],
                     *sol.routed.values[i]])
    _write_csv(args.out, header, rows)
    man = RunManifest("fluid", {
        "topology": topo.to_dict(), "q0": q0,
        "T": args.T, "h": args.h, "inputs": raw,
    })
    man.record_output(args.out)
    man.write(args.out)
    return 0


def cmd_action(args) -> int:
    topo = _load_topology(args.topology)
    _, (q,) = _read_paths(args.path, "path", ["q"])
    report = path_action(q, topo, PoissonCost(topo), tol=args.tol)
    _print_json(report.to_dict())
    return 0


def cmd_optimize(args) -> int:
    topo = _load_topology(args.topology)
    q0 = _vector(args.q0, "--q0") if args.q0 else None
    path, value = minimize_action(RareEventSpec.parse(args.event), topo, PoissonCost(topo),
                                  segments=args.segments, q0=q0, starts=args.starts,
                                  seed=args.seed)
    _print_json({
        "value": value,
        "path": {"t": list(map(float, path.breakpoints)),
                 "q": [list(map(float, row)) for row in path.values]},
    })
    return 0


def cmd_verify(args) -> int:
    topo = _load_topology(args.topology)
    event = RareEventSpec.parse(args.event)
    scales = _counts(args.scales, "--scales")
    reps = _counts(args.reps, "--reps")
    if len(reps) == 1:
        reps = reps * len(scales)
    elif len(reps) != len(scales):
        raise ValueError(f"--reps needs one count, or one per scale, got {args.reps!r}")
    _check_counts(scales, reps)
    # the path search is the cheap half, so its failures come first
    _, value = minimize_action(event, topo, PoissonCost(topo), segments=args.segments,
                               seed=args.seed)
    report = estimate_rare_event(event, topo, scales, reps, seed=args.seed)
    report["variational_value"] = value
    out = args.out
    _write_csv(out, ["inv_n", "n", "reps", "hits", "p_hat", "rate"],
               [[1.0 / r["n"], r["n"], r["reps"], r["hits"], r["p_hat"],
                 r["rate"] if r["rate"] is not None else float("nan")]
                for r in report["scales"]])
    with open(out + ".json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    man = RunManifest("verify", {
        "topology": topo.to_dict(), "event": args.event,
        "scales": scales, "reps": reps, "segments": args.segments,
    }, seeds=[args.seed])
    man.record_output(out)
    man.record_output(out + ".json")
    man.write(out)
    _print_json({"fit": report["fit"], "variational_value": value})
    return 0


def cmd_acceptance(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(only=args.only)
    width = max(len(r["name"]) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        ok &= r["passed"]
        print(f"{r['name']:<{width}}  {status}  ({r['seconds']:.1f}s)  {r['detail']}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jsqldp")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="discrete-event simulation at scale n")
    s.add_argument("--topology", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--T", type=float, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tie", choices=["lowest", "uniform"], default="lowest")
    s.add_argument("--q0", default="")
    s.add_argument("--grid", type=float, default=1e-3)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("rate", help="local rate function L(x, y)")
    s.add_argument("--topology", required=True)
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--oracle", action="store_true")
    s.add_argument("--oracle-step", type=float, default=1e-3)
    s.add_argument("--oracle-radius", type=float, default=5.0)
    s.set_defaults(func=cmd_rate)

    s = sub.add_parser("fluid", help="fluid-model solve")
    s.add_argument("--topology", required=True)
    s.add_argument("--q0", required=True)
    s.add_argument("--inputs", required=True)
    s.add_argument("--T", type=float, required=True)
    s.add_argument("--h", type=float, default=1e-3)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_fluid)

    s = sub.add_parser("action", help="action of a piecewise-linear path")
    s.add_argument("--topology", required=True)
    s.add_argument("--path", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=cmd_action)

    s = sub.add_parser("optimize", help="variational path search")
    s.add_argument("--topology", required=True)
    s.add_argument("--event", required=True)
    s.add_argument("--segments", type=int, default=1)
    s.add_argument("--starts", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--q0", default="")
    s.set_defaults(func=cmd_optimize)

    s = sub.add_parser("verify", help="Monte Carlo decay rate vs variational value")
    s.add_argument("--topology", required=True)
    s.add_argument("--event", required=True)
    s.add_argument("--scales", default="10,20,40")
    s.add_argument("--reps", default="1e6")
    s.add_argument("--segments", type=int, default=1)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("acceptance", help="run the acceptance criteria suite")
    s.add_argument("--only", default=None,
                   help="run only criteria whose name contains this substring")
    s.set_defaults(func=cmd_acceptance)
    return p


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (NoFiniteStartError, TooFewHitsError)):
        return 3
    if isinstance(exc, SolverError):
        return 4
    return 2 if isinstance(exc, ValueError) else 1


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoFiniteStartError, SolverError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return _exit_code(exc)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

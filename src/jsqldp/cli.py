"""Command-line interface: one binary, subcommand style.

Every subcommand but ``acceptance`` takes ``--topology`` (JSON network
description), which ``run`` loads once before dispatch, and each output file
gets a run manifest beside it.  The CLI parses text; the library checks
every value.  Exit codes: 0 success, 2 bad input, or a file that cannot be
read or written (any library ``ValueError`` or ``OSError``), 3 violated
precondition (``NoFiniteStartError``, ``TooFewHitsError``), 4 the rate
solver failed (``SolverError``), 1 internal failure.  Failures past argument
parsing print a JSON error to stderr.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from itertools import chain

import numpy as np

from . import __version__
from . import topology as topo_mod
from .cost import PoissonCost
from .fluid import fluid_solve
from .ldp import (NoFiniteStartError, RareEventSpec, TooFewHitsError, _check_counts,
                  estimate_rare_event, minimize_action, path_action)
from .piecewise import PiecewisePath
from .rate import SolverError, local_rate, local_rate_bruteforce
from .sim import TieRule, scale_counters, simulate


def _load_topology(path: str):
    try:
        return topo_mod.load(path)
    except FileNotFoundError as exc:
        raise ValueError(f"topology not found: {path}") from exc
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
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ValueError(f"{what} file not found: {path}") from exc
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


def _write_table(path: str, columns: dict) -> None:
    """A CSV with one column per entry of each array: ``t`` for a vector,
    ``Q_1``, ``Q_2``, ... for a matrix, ``E_11``, ``E_12``, ... for a stack
    of them, in row-major order."""
    header, blocks = [], []
    for name, values in columns.items():
        a = np.asarray(values)
        header += [name] if a.ndim == 1 else [
            f"{name}_{''.join(str(i + 1) for i in ix)}" for ix in np.ndindex(a.shape[1:])]
        blocks.append(a.reshape(len(a), -1).tolist())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(list(chain(*row)) for row in zip(*blocks))


def _write_manifest(args, config: dict, outputs: list[str]) -> None:
    """``<first output>.manifest.json``: the subcommand, its configuration
    with the net, the seed, the package version and each output's SHA-256,
    enough to reproduce the run exactly."""
    digests = {}
    for path in outputs:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
        digests[os.path.basename(path)] = h.hexdigest()
    body = {"subcommand": args.command, "config": {"topology": args.topology.to_dict(), **config},
            "seeds": [args.seed] if "seed" in args else [], "version": __version__,
            "outputs": digests}
    with open(outputs[0] + ".manifest.json", "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    topo = args.topology
    q0 = _vector(args.q0, "--q0") if args.q0 else [0.0] * topo.K
    path = simulate(topo, args.n, args.T, args.seed, TieRule(args.tie), q0)
    _write_table(args.out, scale_counters(path, args.grid))
    _write_manifest(args, {"n": args.n, "T": args.T, "tie": args.tie, "q0": q0,
                           "grid": args.grid}, [args.out])
    return 0


def cmd_rate(args) -> int:
    topo = args.topology
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
    topo = args.topology
    q0 = _vector(args.q0, "--q0")
    raw, (a, b) = _read_paths(args.inputs, "inputs", ["a", "b"])
    sol = fluid_solve(topo, q0, a, b, args.T, args.h)
    _write_table(args.out, {"t": sol.queue.breakpoints, "q": sol.queue.values,
                            "d": sol.departed.values,
                            "e": sol.routed.values.reshape(-1, topo.K, topo.M)})
    _write_manifest(args, {"q0": q0, "T": args.T, "h": args.h, "inputs": raw}, [args.out])
    return 0


def cmd_action(args) -> int:
    topo = args.topology
    _, (q,) = _read_paths(args.path, "path", ["q"])
    report = path_action(q, topo, PoissonCost(topo), tol=args.tol)
    _print_json(report.to_dict())
    return 0


def cmd_optimize(args) -> int:
    topo = args.topology
    q0 = _vector(args.q0, "--q0") if args.q0 else None
    path, value = minimize_action(RareEventSpec.parse(args.event), topo, PoissonCost(topo),
                                  segments=args.segments, q0=q0)
    _print_json({
        "value": value,
        "path": {"t": list(map(float, path.breakpoints)),
                 "q": [list(map(float, row)) for row in path.values]},
    })
    return 0


def cmd_verify(args) -> int:
    topo = args.topology
    event = RareEventSpec.parse(args.event)
    scales = _counts(args.scales, "--scales")
    reps = _counts(args.reps, "--reps")
    if len(reps) == 1:
        reps = reps * len(scales)
    elif len(reps) != len(scales):
        raise ValueError(f"--reps needs one count, or one per scale, got {args.reps!r}")
    _check_counts(scales, reps)
    # the path search is the cheap half, so its failures come first
    _, value = minimize_action(event, topo, PoissonCost(topo), segments=args.segments)
    report = estimate_rare_event(event, topo, scales, reps, seed=args.seed)
    report["variational_value"] = value
    out = args.out
    table = {key: [r[key] for r in report["scales"]]
             for key in ("n", "reps", "hits", "p_hat", "rate")}
    table["rate"] = np.array(table["rate"], dtype=float)  # no hits: None, written nan
    _write_table(out, {"inv_n": 1.0 / np.array(table["n"])} | table)
    with open(out + ".json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(args, {"event": args.event, "scales": scales, "reps": reps,
                           "segments": args.segments}, [out, out + ".json"])
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
    net = argparse.ArgumentParser(add_help=False)
    net.add_argument("--topology", required=True)

    s = sub.add_parser("simulate", help="discrete-event simulation at scale n", parents=[net])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--T", type=float, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tie", choices=["lowest", "uniform"], default="lowest")
    s.add_argument("--q0", default="")
    s.add_argument("--grid", type=float, default=1e-3)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("rate", help="local rate function L(x, y)", parents=[net])
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--oracle", action="store_true")
    s.add_argument("--oracle-step", type=float, default=1e-3)
    s.add_argument("--oracle-radius", type=float, default=5.0)
    s.set_defaults(func=cmd_rate)

    s = sub.add_parser("fluid", help="fluid-model solve", parents=[net])
    s.add_argument("--q0", required=True)
    s.add_argument("--inputs", required=True)
    s.add_argument("--T", type=float, required=True)
    s.add_argument("--h", type=float, default=1e-3)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_fluid)

    s = sub.add_parser("action", help="action of a piecewise-linear path", parents=[net])
    s.add_argument("--path", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=cmd_action)

    s = sub.add_parser("optimize", help="variational path search", parents=[net])
    s.add_argument("--event", required=True)
    s.add_argument("--segments", type=int, default=1)
    s.add_argument("--q0", default="")
    s.set_defaults(func=cmd_optimize)

    s = sub.add_parser("verify", help="Monte Carlo decay rate vs variational value", parents=[net])
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
    return 4 if isinstance(exc, SolverError) else 2


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "topology" in args:
            args.topology = _load_topology(args.topology)
        return args.func(args)
    except (NoFiniteStartError, SolverError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return _exit_code(exc)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

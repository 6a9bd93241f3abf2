"""Network description: servers, arrival streams, admissible sets, weights, rates.

External formats use 1-based server/stream indices; everything internal is
0-based.  Weights are kept as exact rationals so that tie detection in the
simulator can use integer arithmetic; the float layers read them once, from
``Topology.routes``.

This module also holds the argument contract every layer shares: ``vector``,
``count``, ``positive`` and ``finite`` decide what a valid vector, integer
count, positive number or finite number is, and raise a ValueError that
names the parameter and its value.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np


# relative tolerance under which two float weighted levels count as tied
TIE_RTOL = 1e-12


def tie_level(lo: float) -> float:
    """Highest level that still ties with the lowest level ``lo``.

    The band is relative, so only 0 ties with an empty queue's level 0: an
    absolute floor there tied a tiny positive level with it, and put an
    empty and a busy queue in one argmin set, which no domain label allows.
    """
    return lo + TIE_RTOL * abs(lo)


class TopologyError(ValueError):
    pass


def _quoted(name: str, value) -> str:
    """``param=value`` for a ``name`` that may lead with a description, as in
    'velocity y'; the parameter is its last word."""
    return f"{name.rpartition(' ')[2]}={value}"


def vector(v, length: int, name: str, nonnegative: bool = True) -> np.ndarray:
    """``v`` as a float array of ``length`` finite entries, each nonnegative
    unless ``nonnegative`` is False; otherwise a ValueError naming ``name``.

    The entries are tested as Python floats: on vectors of K entries that is
    several times faster than numpy reductions, and the rate program checks
    a state and a velocity on every call.
    """
    try:
        a = np.asarray(v, dtype=float)
        xs = a.tolist()
    except (TypeError, ValueError):
        a, xs = None, repr(v)
    if a is None or a.shape != (length,) or not all(
            abs(x) < math.inf and (x >= 0.0 or not nonnegative) for x in xs):
        sign = " and nonnegative" if nonnegative else ""
        raise ValueError(f"{name} must have {length} entries, each finite{sign}, "
                         f"got {_quoted(name, xs)}")
    return a


def count(v, name: str, least: int = 1) -> int:
    """``v`` as an int of at least ``least``; a bool, a float (2.0 too) or
    a smaller value raises a ValueError naming ``name``."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least:
        return int(v)
    raise ValueError(f"{name} must be an integer >= {least}, got {_quoted(name, repr(v))}")


def positive(v, name: str) -> float:
    """``v`` as a float, finite and > 0; a bool, a non-number or any other
    value raises a ValueError naming ``name``."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v < math.inf:
        return float(v)
    raise ValueError(f"{name} must be positive and finite, got {_quoted(name, repr(v))}")


def finite(v, name: str, least: float = -math.inf) -> float:
    """``v`` as a float, finite and >= ``least``; a bool, a non-number or any
    other value raises a ValueError naming ``name``."""
    if (isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
            and v >= least):
        return float(v)
    bound = "" if least == -math.inf else f" >= {least:g}"
    raise ValueError(f"{name} must be a finite real number{bound}, "
                     f"got {_quoted(name, repr(v))}")


@dataclass(frozen=True, eq=False)
class Topology:
    """Validated, immutable network description.

    K single-server queues, M arrival streams.  Stream m may join any queue
    in ``admissible[m]``; queue k carries weight ``weights[(k, m)]`` for that
    stream, given as a Fraction, string, int or float and stored as a
    Fraction (``_parse_weight``).  ``lam`` and ``mu`` are the nominal arrival
    and service rates.
    ``routes[m]`` is stream m's routing table, built once: its queues in
    index order and their float weights.  Topologies compare and hash by
    identity, so two loads of one file are two distinct keys.
    """

    K: int
    M: int
    admissible: tuple[frozenset[int], ...]
    weights: dict[tuple[int, int], Fraction]
    lam: np.ndarray
    mu: np.ndarray
    routes: tuple[tuple[tuple[int, ...], tuple[float, ...]], ...] = field(init=False)

    def __post_init__(self):
        if self.K < 1 or self.M < 1:
            raise TopologyError("K and M must be positive")
        if len(self.admissible) != self.M:
            raise TopologyError("admissible must have one entry per stream")
        for m, s in enumerate(self.admissible):
            if not s:
                raise TopologyError(f"empty admissible set for stream {m + 1}")
            if any(k < 0 or k >= self.K for k in s):
                raise TopologyError(f"server index out of range in S_{m + 1}")
        weights = {key: _parse_weight(w) for key, w in self.weights.items()}
        for (k, m), w in weights.items():
            if k not in self.admissible[m]:
                raise TopologyError(
                    f"weight given for pair (server {k + 1}, stream {m + 1}) "
                    "outside the admissible set"
                )
            if w <= 0:
                raise TopologyError("weights must be positive")
        for m, s in enumerate(self.admissible):
            for k in s:
                if (k, m) not in weights:
                    raise TopologyError(
                        f"missing weight for (server {k + 1}, stream {m + 1})"
                    )
        try:
            lam = vector(self.lam, self.M, "arrival rates lambda")
            mu = vector(self.mu, self.K, "service rates mu")
        except ValueError as exc:
            raise TopologyError(str(exc)) from None
        if 0.0 in mu.tolist():
            raise TopologyError(f"service rates must be positive, got mu={mu.tolist()}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        routes = []
        for m, s in enumerate(self.admissible):
            ks = tuple(sorted(s))
            routes.append((ks, tuple(float(weights[(k, m)]) for k in ks)))
        object.__setattr__(self, "routes", tuple(routes))

    def level_multipliers(self, m: int) -> dict[int, int]:
        """Integer c_k with Q_k / w_km proportional to Q_k * c_k across S_m.

        Used for exact weighted-queue comparisons on integer queue lengths.
        """
        numerators = [self.weights[(k, m)].numerator for k in self.admissible[m]]
        common = lcm(*numerators)
        return {
            k: common // self.weights[(k, m)].numerator * self.weights[(k, m)].denominator
            for k in self.admissible[m]
        }

    def least_levels(self, m: int, queues: np.ndarray) -> np.ndarray:
        """Which queues of S_m hold the least weighted level in each row of
        ``queues``, an (N, K) array of nonnegative integer queue lengths.

        Returns an (N, |S_m|) boolean array whose columns are S_m in index
        order.  Levels are compared exactly as ``Q_k * level_multipliers(m)[k]``:
        in int64 while ``max(Q) * max(c) < 2**63``, in Python integers past
        that, where int64 would wrap.
        """
        mults = self.level_multipliers(m)
        q = np.asarray(queues)
        exact = np.int64 if max(int(q.max(initial=0)), 1) * max(mults.values()) < 2**63 else object
        levels = [q[:, k].astype(exact) * mults[k] for k in self.routes[m][0]]
        low = np.minimum.reduce(levels)
        return np.column_stack([level == low for level in levels])

    def to_dict(self) -> dict:
        """External (1-based) representation."""
        return {
            "K": self.K,
            "M": self.M,
            "admissible": [sorted(k + 1 for k in s) for s in self.admissible],
            "weights": [
                {str(k + 1): _frac_str(self.weights[(k, m)]) for k in sorted(s)}
                for m, s in enumerate(self.admissible)
            ],
            "lambda": list(map(float, self.lam)),
            "mu": list(map(float, self.mu)),
        }


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_weight(v) -> Fraction:
    """A weight given as a Fraction, string, int or float (not a bool), as an
    exact rational: a float is read by its shortest repr, so 0.1 is 1/10.
    Anything else, or a string that is no rational, raises TopologyError."""
    if isinstance(v, (Fraction, str, int, float)) and not isinstance(v, bool):
        try:
            return Fraction(str(v))
        except (ValueError, ZeroDivisionError):
            pass
    raise TopologyError(f"cannot parse weight {v!r}")


def _list_of(kind: type, raw) -> list:
    """``raw``, checked to be a list of ``kind`` values."""
    if not (isinstance(raw, list) and all(isinstance(entry, kind) for entry in raw)):
        raise TypeError(f"expected a list of {kind.__name__}s, got {raw!r}")
    return raw


def _weight_maps(raw, M: int) -> dict[tuple[int, int], Fraction]:
    """Weights by 0-based (server, stream) from one {server: weight} map per stream."""
    if len(_list_of(dict, raw)) != M:
        raise TopologyError("weights must have one entry per stream")
    return {(int(key) - 1, m): _parse_weight(w)
            for m, table in enumerate(raw) for key, w in table.items()}


def _field(raw: dict, name: str, parse):
    """``parse(raw[name])``, any failure raised as a TopologyError naming the field."""
    try:
        return parse(raw[name])
    except KeyError as exc:
        raise TopologyError(f"missing required field {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise TopologyError(f"invalid field {name!r}: {exc}") from exc


def validate(raw: dict) -> Topology:
    """Build a Topology from an external (1-based) dict description.

    Expected fields: K, M, admissible (list of server-index lists, one per
    stream), weights (list of {server: weight} maps, one per stream; may be
    omitted for all-ones), lambda (list of M rates), mu (list of K rates).
    K, M and server indices must be integers of at least 1.  Raises
    TopologyError for any description that does not fit this shape.
    """
    if not isinstance(raw, dict):
        raise TopologyError(f"a topology must be an object, got {type(raw).__name__}")
    K = _field(raw, "K", lambda v: count(v, "K"))
    M = _field(raw, "M", lambda v: count(v, "M"))
    admissible = _field(raw, "admissible", lambda v: tuple(
        frozenset(count(k, "server") - 1 for k in s) for s in _list_of(list, v)))
    lam = _field(raw, "lambda", lambda v: np.asarray(v, dtype=float))
    mu = _field(raw, "mu", lambda v: np.asarray(v, dtype=float))
    if raw.get("weights") is None:
        weights = {(k, m): Fraction(1) for m, s in enumerate(admissible) for k in s}
    else:
        weights = _field(raw, "weights", lambda v: _weight_maps(v, M))
    return Topology(K=K, M=M, admissible=admissible, weights=weights, lam=lam, mu=mu)


def load(path: str) -> Topology:
    with open(path) as fh:
        return validate(json.load(fh))


def dump(topology: Topology, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(topology.to_dict(), fh, indent=2)
        fh.write("\n")

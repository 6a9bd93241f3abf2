"""Local rate function of the queue-length large deviation principle.

The instantaneous cost L(x, y) of moving at velocity y from state x is the
value of a convex program over arrival rates a, service rates b, routed-rate
matrices e and departure rates d subject to the conservation constraints of
the network.  Feasibility depends only on the domain: the program is
infeasible exactly when a growing queue lies in no stream's argmin set.
``local_rate`` solves it with a projected-gradient method after eliminating
a, b and d; ``local_rate_bruteforce`` is the independent grid oracle;
``classify_domain`` and ``psi_ij`` expose the piecewise-constant structure of
L over the domains of constant dynamics.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cost import INF, CostModel
from .topology import Topology

CLASSIFY_RTOL = 1e-12
MAX_ITER = 100_000


class SolverError(RuntimeError):
    """Raised when the convex solver fails to converge within its budget."""


@dataclass(frozen=True)
class DomainLabel:
    """Zero coordinates of x and per-stream weighted-argmin sets."""

    zero_set: frozenset[int]
    argmin_sets: tuple[frozenset[int], ...]

    def to_dict(self) -> dict:
        return {
            "I": sorted(k + 1 for k in self.zero_set),
            "J": [sorted(k + 1 for k in s) for s in self.argmin_sets],
        }


@dataclass
class RateWitness:
    """Value of the local rate program plus an optimal feasible point.

    ``feasible`` is False when the constraint polyhedron is empty; the
    witness vectors are None when the value is infinite.
    """

    value: float
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    e: np.ndarray | None = None
    d: np.ndarray | None = None
    feasible: bool = True
    certificate: str | None = None
    iterations: int = 0
    stationarity: float = float("nan")
    label: DomainLabel | None = None

    def to_dict(self) -> dict:
        out = {"L": self.value, "feasible": self.feasible}
        if self.a is not None:
            out.update(
                a=list(map(float, self.a)),
                b=list(map(float, self.b)),
                d=list(map(float, self.d)),
                e=[list(map(float, row)) for row in self.e],
            )
        if self.certificate:
            out["certificate"] = self.certificate
        if self.label is not None:
            out["domain"] = self.label.to_dict()
        return out


def _argmin_tol(levels: dict[int, float]) -> tuple[float, float]:
    lo = min(levels.values())
    return lo, CLASSIFY_RTOL * max(1.0, abs(lo))


def classify_domain(x: np.ndarray, topology: Topology) -> DomainLabel:
    """Zero set and per-stream weighted-argmin sets of a state vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (topology.K,):
        raise ValueError("state dimension does not match topology")
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("state must be finite and componentwise nonnegative")
    zero = frozenset(int(k) for k in np.flatnonzero(x == 0.0))
    argmins = []
    for m in range(topology.M):
        levels = topology.weighted_levels(x, m)
        lo, tol = _argmin_tol(levels)
        argmins.append(frozenset(k for k, v in levels.items() if v <= lo + tol))
    return DomainLabel(zero_set=zero, argmin_sets=tuple(argmins))


def check_label(label: DomainLabel, topology: Topology) -> None:
    """Validate a domain label; raises ValueError on an invalid one."""
    if len(label.argmin_sets) != topology.M:
        raise ValueError("invalid label: wrong number of argmin sets")
    if any(k < 0 or k >= topology.K for k in label.zero_set):
        raise ValueError("invalid label: zero-set index out of range")
    for m, J in enumerate(label.argmin_sets):
        if not J:
            raise ValueError("invalid label: empty argmin set")
        if not J <= topology.admissible[m]:
            raise ValueError("invalid label: argmin set outside admissible set")
        if not (J <= label.zero_set or not (J & label.zero_set)):
            raise ValueError(
                "invalid label: argmin set must lie inside or outside the zero set"
            )


def label_matches(label: DomainLabel, x: np.ndarray, topology: Topology) -> bool:
    """Re-check x against the defining conditions of the labelled domain."""
    x = np.asarray(x, dtype=float)
    for k in range(topology.K):
        if (x[k] == 0.0) != (k in label.zero_set):
            return False
    for m in range(topology.M):
        levels = topology.weighted_levels(x, m)
        lo, tol = _argmin_tol(levels)
        for k in topology.admissible[m]:
            inside = levels[k] <= lo + tol
            if inside != (k in label.argmin_sets[m]):
                return False
    return True


# ---------------------------------------------------------------------------
# Reduced projected-gradient solver
# ---------------------------------------------------------------------------

def _project_row(v: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto {v >= 0, sum(v) >= c}."""
    p = np.maximum(v, 0.0)
    if p.sum() >= c:
        return p
    # project onto {v >= 0, sum(v) = c}: v -> max(v - tau, 0)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(v) + 1)
    taus = (css - c) / j
    idx = np.max(np.flatnonzero(u - taus > 0))
    return np.maximum(v - taus[idx], 0.0)


class _Reduced:
    """Objective/gradient in the routed-rate variables after elimination.

    d_k = (row sum of e over stream entries at k) - y_k; every arrival is
    routed, so a_m is the column sum of e over stream m's entries; service
    rates on busy coordinates equal d_k, and idle ones are minimized out
    through the service terms' reduced values.
    """

    def __init__(self, support, busy, y, cost: CostModel, topology: Topology):
        self.cost = cost
        self.topo = topology
        self.busy = np.asarray(busy, dtype=bool)
        self.y = np.asarray(y, dtype=float)
        # drop streams whose arrival term is +inf for any positive rate
        self.entries = []
        for m in range(topology.M):
            if math.isinf(cost.arrival_terms[m].value(1e-300)):
                continue
            self.entries.extend((k, m) for k in sorted(support[m]))
        self.nvar = len(self.entries)
        self.row_idx = [
            [j for j, (k, _) in enumerate(self.entries) if k == kk]
            for kk in range(topology.K)
        ]
        self.col_idx = [
            [j for j, (_, m) in enumerate(self.entries) if m == mm]
            for mm in range(topology.M)
        ]

    def solvable(self) -> bool:
        """Finite value reachable: rows needing inflow have live entries."""
        return all(
            self.y[k] <= 0 or self.row_idx[k] for k in range(self.topo.K)
        )

    def rowsums(self, e: np.ndarray) -> np.ndarray:
        return np.array([e[idx].sum() for idx in self.row_idx])

    def colsums(self, e: np.ndarray) -> np.ndarray:
        return np.array([e[idx].sum() for idx in self.col_idx])

    def value(self, e: np.ndarray) -> float:
        d = self.rowsums(e) - self.y
        if np.any(d < -1e-12):
            return INF
        d = np.maximum(d, 0.0)
        total = 0.0
        for m, c in enumerate(self.colsums(e)):
            total += self.cost.arrival_terms[m].value(float(c))
        for k in range(self.topo.K):
            term = self.cost.service_terms[k]
            if self.busy[k]:
                total += term.value(float(d[k]))
            else:
                total += term.reduced_value(float(d[k]))
        return total

    def grad(self, e: np.ndarray) -> np.ndarray:
        d = np.maximum(self.rowsums(e) - self.y, 1e-300)
        # streams without entries (zero rate) never enter g
        ga = [
            term.deriv(max(float(c), 1e-12)) if idx else 0.0
            for term, c, idx in zip(self.cost.arrival_terms, self.colsums(e), self.col_idx)
        ]
        gd = np.empty(self.topo.K)
        for k in range(self.topo.K):
            term = self.cost.service_terms[k]
            if self.busy[k]:
                gd[k] = term.deriv(float(max(d[k], 1e-12)))
            else:
                gd[k] = term.reduced_deriv(float(d[k]))
        g = np.empty(self.nvar)
        for j, (k, m) in enumerate(self.entries):
            g[j] = ga[m] + gd[k]
        return g

    def project(self, e: np.ndarray) -> np.ndarray:
        out = e.copy()
        for k in range(self.topo.K):
            idx = self.row_idx[k]
            if not idx:
                continue
            out[idx] = _project_row(e[idx], float(self.y[k]))
        return np.maximum(out, 0.0)

    def initial(self) -> np.ndarray:
        e = np.empty(self.nvar)
        for m, idx in enumerate(self.col_idx):
            if idx:
                lam = self.cost.arrival_terms[m].zero_level()
                e[idx] = max(lam, 1e-3) / len(idx)
        return self.project(e)

    def witness(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        d = np.maximum(self.rowsums(e) - self.y, 0.0)
        a = self.colsums(e)
        b = np.empty(self.topo.K)
        for k in range(self.topo.K):
            if self.busy[k]:
                b[k] = d[k]
            else:
                b[k] = self.cost.service_terms[k].argmin_at_least(float(d[k]))
        e_full = np.zeros((self.topo.K, self.topo.M))
        for j, (k, m) in enumerate(self.entries):
            e_full[k, m] = e[j]
        return a, b, e_full, d


def _solve_reduced(red: _Reduced, tol: float) -> tuple[float, np.ndarray, int, float]:
    """Projected gradient with Barzilai-Borwein steps and Armijo backtracking."""
    if red.nvar == 0:
        return red.value(np.empty(0)), np.empty(0), 0, 0.0
    e = red.initial()
    f = red.value(e)
    g = red.grad(e)
    step = 1.0
    it = 0
    for it in range(1, MAX_ITER + 1):
        trial = step
        for _ in range(60):
            e_new = red.project(e - trial * g)
            delta = e_new - e
            f_new = red.value(e_new)
            if f_new <= f + g @ delta + 0.5 / trial * (delta @ delta) + 1e-15:
                break
            trial *= 0.5
        else:
            raise SolverError("line search failed")
        g_new = red.grad(e_new)
        de, dg = e_new - e, g_new - g
        denom = de @ dg
        step = float(np.clip((de @ de) / denom, 1e-10, 1e10)) if denom > 0 else trial * 2
        improve = f - f_new
        e, f, g = e_new, f_new, g_new
        stat = float(np.max(np.abs(e - red.project(e - g))))
        if improve < tol / 10 and stat < math.sqrt(tol) * 1e-2:
            break
    stat = float(np.max(np.abs(e - red.project(e - g))))
    return f, e, it, stat


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _velocity(y, topology: Topology) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (topology.K,) or not np.all(np.isfinite(y)):
        raise ValueError(f"velocity must be {topology.K} finite numbers")
    return y


def _require_scalar_terms(cost: CostModel) -> None:
    if not (hasattr(cost, "arrival_terms") and hasattr(cost, "service_terms")):
        raise ValueError(
            "the rate program needs a cost with per-stream and per-queue scalar terms"
        )


def _rate_on_domain(
    label: DomainLabel,
    y: np.ndarray,
    topology: Topology,
    cost: CostModel,
    tol: float,
) -> RateWitness:
    """Rate program on the domain ``label``: the body of local_rate and psi_ij.

    Checks ``tol``, the velocity and the cost, then decides feasibility.
    The constraint polyhedron is empty exactly when some queue must grow
    (y_k > 0) but lies in no stream's argmin set.  Arrival and service rates
    are unbounded above, so otherwise e_km = y_k on a supporting stream and
    d_k = -y_k on a shrinking queue give a feasible point.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    y = _velocity(y, topology)
    _require_scalar_terms(cost)
    support = label.argmin_sets
    reachable = frozenset().union(*support)
    for k in range(topology.K):
        if y[k] > 0 and k not in reachable:
            return RateWitness(
                value=INF,
                feasible=False,
                certificate=f"queue {k + 1} cannot grow: it is in no stream's argmin set",
                label=label,
            )
    busy = np.array([k not in label.zero_set for k in range(topology.K)])
    red = _Reduced(support, busy, y, cost, topology)
    if not red.solvable():
        return RateWitness(
            value=INF,
            feasible=True,
            certificate="finite cost requires routed mass on a zero-rate stream",
            label=label,
        )
    value, e, it, stat = _solve_reduced(red, tol)
    a, b, e_full, d = red.witness(e)
    return RateWitness(
        value=value,
        a=a,
        b=b,
        e=e_full,
        d=d,
        iterations=it,
        stationarity=stat,
        label=label,
    )


def local_rate(
    x,
    y,
    topology: Topology,
    cost: CostModel,
    tol: float = 1e-8,
) -> RateWitness:
    """Minimal deviation cost for the state to move at velocity y from x.

    Raises ValueError for a bad state, a velocity that is not K finite
    numbers, a nonpositive ``tol`` or a cost without scalar terms.
    """
    label = classify_domain(x, topology)
    return _rate_on_domain(label, y, topology, cost, tol)


def psi_ij(
    label: DomainLabel,
    y,
    topology: Topology,
    cost: CostModel,
    tol: float = 1e-8,
) -> float:
    """Domain-wise rate value; equals local_rate at any state in the domain."""
    check_label(label, topology)
    return _rate_on_domain(label, y, topology, cost, tol).value


def local_rate_bruteforce(
    x,
    y,
    topology: Topology,
    cost: CostModel,
    grid_step: float = 1e-3,
    box_radius: float = 5.0,
) -> float:
    """Exhaustive grid upper bound on the local rate; verification oracle.

    Enumerates the routed-rate entries on a uniform grid, recovers departure
    rates from the balance constraint and arrival rates from the routed
    totals exactly, and scans the idle service grids through precomputed
    suffix minima.  Intended for tiny topologies only (dimension budget
    K*M + M + 2K <= 8).
    """
    x = np.asarray(x, dtype=float)
    y = _velocity(y, topology)
    K, M = topology.K, topology.M
    if x.shape != (K,) or not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError(f"state must be {K} finite nonnegative numbers")
    if not (0 < grid_step < math.inf and 0 < box_radius < math.inf):
        raise ValueError("grid step and box radius must be positive and finite")
    if K * M + M + 2 * K > 8:
        raise ValueError("dimension budget exceeded for brute-force oracle")
    _require_scalar_terms(cost)
    # support and busy sets straight from the constraint definitions
    support = []
    for m in range(M):
        levels = topology.weighted_levels(x, m)
        lo, tolr = _argmin_tol(levels)
        support.append([k for k, v in levels.items() if v <= lo + tolr])
    busy = x > 0
    entries = [(k, m) for m in range(M) for k in support[m]]
    S = len(entries)
    grid = np.arange(0.0, box_radius + grid_step / 2, grid_step)
    n_g = len(grid)

    def suffix_min(vals):
        return np.minimum.accumulate(vals[::-1])[::-1]

    srv_sm = [suffix_min(_value_vec(cost.service_terms[k], grid)) for k in range(K)]

    def lookup(sm, c):
        # min over grid points >= c; +inf when c exceeds the search box
        idx = np.ceil(np.asarray(c) / grid_step - 1e-9).astype(int)
        out = np.full(np.shape(c), INF)
        ok = idx < n_g
        out[ok] = sm[np.minimum(idx, n_g - 1)][ok]
        return out

    best = INF
    outer_dims = S - 1
    for combo in itertools.product(range(n_g), repeat=outer_dims):
        e = np.empty((S, n_g))
        for j in range(outer_dims):
            e[j, :] = grid[combo[j]]
        e[S - 1, :] = grid
        rows = np.zeros((K, n_g))
        cols = np.zeros((M, n_g))
        for j, (k, m) in enumerate(entries):
            rows[k] += e[j]
            cols[m] += e[j]
        d = rows - y[:, None]
        ok = np.all(d >= -1e-12, axis=0)
        if not ok.any():
            continue
        d = np.maximum(d, 0.0)
        total = np.zeros(n_g)
        for m in range(M):
            total += _value_vec(cost.arrival_terms[m], cols[m])
        for k in range(K):
            if busy[k]:
                total += _value_vec(cost.service_terms[k], d[k])
            else:
                total += lookup(srv_sm[k], d[k])
        total[~ok] = INF
        cand = total.min()
        if cand < best:
            best = float(cand)
    return best


def _value_vec(term, grid: np.ndarray) -> np.ndarray:
    vec = getattr(term, "value_vec", None)
    if vec is not None:
        return vec(grid)
    return np.array([term.value(float(v)) for v in np.atleast_1d(grid)])

"""Local rate function of the queue-length large deviation principle.

The instantaneous cost L(x, y) of moving at velocity y from state x is the
value of a convex program over arrival rates a, service rates b, routed-rate
matrices e and departure rates d subject to the conservation constraints of
the network, with the Poisson cost of ``PoissonCost``.  Feasibility depends
only on the domain: the program is infeasible exactly when a growing queue
lies in no stream's argmin set or an empty queue shrinks.  ``local_rate``
solves the program exactly in its K-dimensional dual, the Legendre transform
of the domain Hamiltonian, by an active-set method whose multipliers are the
routed rates; ``local_rate_bruteforce`` is the independent grid oracle;
``classify_domain``, ``domain_labels`` and ``psi_ij`` expose the
piecewise-constant structure of L over the domains of constant dynamics.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cost import INF, PoissonCost, price, price_vec
from .topology import Topology, positive, tie_level, vector


class SolverError(RuntimeError):
    """Raised when the rate solver cannot certify the optimum."""


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
    witness vectors are None when the value is infinite.  ``iterations``
    counts active-set steps and ``stationarity`` is the duality gap between
    the witness's cost and ``value``.
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
                iterations=self.iterations,
                stationarity=self.stationarity,
            )
        if self.certificate:
            out["certificate"] = self.certificate
        if self.label is not None:
            out["domain"] = self.label.to_dict()
        return out


def classify_domain(x: np.ndarray, topology: Topology) -> DomainLabel:
    """Zero set and per-stream weighted-argmin sets of a state vector."""
    xs = vector(x, topology.K, "state x").tolist()
    zero = frozenset(k for k, v in enumerate(xs) if v == 0.0)
    argmins = []
    for ks, ws in topology.routes:
        levels = [xs[k] / w for k, w in zip(ks, ws)]
        cut = tie_level(min(levels))
        argmins.append(frozenset(k for k, v in zip(ks, levels) if v <= cut))
    return DomainLabel(zero_set=zero, argmin_sets=tuple(argmins))


def _subsets(ks, least: int) -> list[frozenset[int]]:
    return [frozenset(c) for r in range(least, len(ks) + 1) for c in itertools.combinations(ks, r)]


def _label_fault(label: DomainLabel, topology: Topology) -> str | None:
    """Why ``label`` is no domain label of the net, or None when it is one."""
    if not isinstance(label, DomainLabel):
        return f"must be a DomainLabel, got label={label!r}"
    I, Js = label.zero_set, label.argmin_sets
    if not isinstance(Js, tuple) or not all(isinstance(S, frozenset) for S in (I, *Js)):
        return f"sets must be frozensets in a tuple, got label={label!r}"
    if len(Js) != topology.M:
        return "wrong number of argmin sets"
    if not I <= frozenset(range(topology.K)):
        return "zero-set index out of range"
    for J, admissible in zip(Js, topology.admissible):
        if not J:
            return "empty argmin set"
        if not J <= admissible:
            return "argmin set outside admissible set"
        if not (J <= I or not J & I):
            return "argmin set must lie inside or outside the zero set"
    return None


def domain_labels(topology: Topology) -> list[DomainLabel]:
    """Every label ``check_label`` accepts: a zero set and, for each stream,
    a nonempty subset of its admissible set inside the zero set or outside it.

    Not every label is attained by a state: the sets may ask for levels no
    state has, such as an empty queue outside the argmin set of a stream
    that admits it.  The count grows as 2^K times a product over streams,
    so this is for small nets; ``check_label`` does not call it.
    """
    streams = [_subsets(ks, 1) for ks, _ in topology.routes]
    candidates = (DomainLabel(zero_set=I, argmin_sets=J)
                  for I in _subsets(range(topology.K), 0) for J in itertools.product(*streams))
    return [label for label in candidates if _label_fault(label, topology) is None]


def check_label(label: DomainLabel, topology: Topology) -> None:
    """Validate a domain label; raises ValueError on an invalid one."""
    if fault := _label_fault(label, topology):
        raise ValueError(f"invalid label: {fault}")


def label_matches(label: DomainLabel, x: np.ndarray, topology: Topology) -> bool:
    """Re-check x against the defining conditions of the labelled domain.

    Raises ValueError unless x is K finite nonnegative numbers.
    """
    xs = vector(x, topology.K, "state x").tolist()
    for k in range(topology.K):
        if (xs[k] == 0.0) != (k in label.zero_set):
            return False
    for (ks, ws), J in zip(topology.routes, label.argmin_sets):
        levels = {k: xs[k] / w for k, w in zip(ks, ws)}
        cut = tie_level(min(levels.values()))
        for k, v in levels.items():
            if (v <= cut) != (k in J):
                return False
    return True


# ---------------------------------------------------------------------------
# Dual active-set solver
# ---------------------------------------------------------------------------

def _blocks(n: int, edges, work) -> tuple[list[int], list[float], list[int]]:
    """Blocks of the face on which the working constraints hold with equality.

    Edge ``(i, j, sign)`` makes x_i = sign * x_j; node ``n`` is the constant
    0.  Returns the block of every node, its sign against the block's free
    value u (x_i = sign_i * u) and the working edges that joined two blocks,
    which form a spanning forest of the working set.
    """
    comp, sgn, kept = list(range(n + 1)), [1.0] * (n + 1), []
    for c in work:
        i, j, s = edges[c]
        ci, cj = comp[i], comp[j]
        if ci != cj:
            flip = s * sgn[i] * sgn[j]
            for v in range(n + 1):
                if comp[v] == cj:
                    comp[v], sgn[v] = ci, sgn[v] * flip
            kept.append(c)
    return comp, sgn, kept


def _block_argmin(A: float, B: float, Y: float, u: float) -> float:
    """Least point of A e^v + B e^{-v} - Y v over the extended line; u if flat."""
    r = math.sqrt(Y * Y + 4.0 * A * B)
    num, den = (Y + r, 2.0 * A) if Y >= 0 else (2.0 * B, r - Y)
    if den == 0.0:  # A = 0 <= Y: falls for ever unless Y = B = 0
        return math.inf if num > 0 or B > 0 else u
    q = num / den
    return math.log(q) if q > 0 else -math.inf


def _multipliers(n: int, edges, work, grad: list[float]) -> dict[int, float]:
    """Multipliers of the working forest's edges, peeled from its leaves.

    They solve grad = sum_c nu_c g_c, where g_c is the gradient of edge c's
    constraint x_i - sign * x_j >= 0; the zero node takes no equation.
    """
    grad, live, nu = list(grad), set(work), {}
    deg = [0] * (n + 1)
    for c in work:
        deg[edges[c][0]] += 1
        deg[edges[c][1]] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    while leaves:
        v = leaves.pop()
        c = next((c for c in live if v in edges[c][:2]), None)
        if c is None:  # a lone edge, already peeled from its other end
            continue
        i, j, s = edges[c]
        gv, o, go = (1.0, j, -s) if v == i else (-s, i, 1.0)
        nu[c] = grad[v] / gv
        grad[o] -= nu[c] * go
        live.discard(c)
        deg[o] -= 1
        if deg[o] == 1 and o != n:
            leaves.append(o)
    return nu


def _solve_dual(argmin_sets, busy, lone, y, lam, mu):
    """Exact active-set minimization of the dual of the rate program.

    The variables x are theta (K), s (M) and t (K), and the program is

        min  sum_m lam_m e^{s_m} + sum_busy mu_k e^{-theta_k} + sum_idle mu_k e^{t_k} - theta.y
        s.t. s_m >= theta_k for k in J_m (lam_m > 0),  t_k >= -theta_k and t_k >= 0 (idle k).

    Every constraint makes two variables equal up to sign or holds one at 0,
    so on the face of a working set the variables fall into blocks with one
    free value u each, and the objective on a block is A e^u + B e^{-u} - Y u,
    least at u = log((Y + sqrt(Y^2 + 4AB)) / 2A).  Each step goes straight to
    the face minimizer.  A constraint that blocks it joins the working set;
    at the minimizer the most negative multiplier leaves it.  The working
    set starts with every live stream routed to its whole argmin set and
    every idle queue's t at 0.  Queues in ``lone`` (busy, and in no live
    stream's argmin set) are left to the caller; their theta stays 0.

    Returns the dual value without the lone queues, x, the routed rates e
    (the multipliers of s_m >= theta_k) and the number of steps.
    """
    K, M = len(busy), len(lam)
    n = 2 * K + M
    idle = [k for k in range(K) if not busy[k]]
    edges = [(K + m, k, 1.0) for m in range(M) if lam[m] > 0 for k in sorted(argmin_sets[m])]
    edges += [(K + M + k, n, 1.0) for k in idle]
    work = list(range(len(edges)))
    edges += [(K + M + k, k, -1.0) for k in idle]
    lam, mu, y = lam.tolist(), mu.tolist(), y.tolist()
    # the objective is sum_i w_i e^{expo_i x_i} - yy_i x_i
    w = ([mu[k] if busy[k] and not lone[k] else 0.0 for k in range(K)]
         + lam + [0.0 if busy[k] else mu[k] for k in range(K)])
    expo = [-1.0] * K + [1.0] * (M + K)
    yy = [0.0 if lone[k] else y[k] for k in range(K)] + [0.0] * (M + K)
    x = [0.0] * (n + 1)
    for it in range(1, 101):
        comp, sgn, work = _blocks(n, edges, work)
        A, B, Y, u = ([0.0] * (n + 1) for _ in range(4))
        for i in range(n):
            c = comp[i]
            u[c] = sgn[i] * x[i]
            (A if expo[i] * sgn[i] > 0 else B)[c] += w[i]
            Y[c] += sgn[i] * yy[i]
        u[comp[n]] = 0.0
        target = [_block_argmin(*args) for args in zip(A, B, Y, u)]
        target[comp[n]] = 0.0
        x = [sgn[i] * u[comp[i]] for i in range(n + 1)]
        if any(math.isinf(v) for v in target):
            reach = math.inf
            p = [sgn[i] * math.copysign(1.0, target[comp[i]]) if math.isinf(target[comp[i]])
                 else 0.0 for i in range(n + 1)]
        else:
            reach = 1.0
            p = [sgn[i] * target[comp[i]] - x[i] for i in range(n + 1)]
        alpha, block = reach, None
        for c, (i, j, s) in enumerate(edges):
            slope = p[i] - s * p[j]
            if slope < 0 and c not in work:
                ratio = max(x[i] - s * x[j], 0.0) / -slope
                if ratio < alpha:
                    alpha, block = ratio, c
        if block is not None:
            x = [xi + alpha * pi for xi, pi in zip(x, p)]
            work.append(block)
            continue
        if reach == math.inf:
            raise SolverError("the dual of the rate program is unbounded")
        x = [sgn[i] * target[comp[i]] for i in range(n + 1)]
        grad = [w[i] * expo[i] * math.exp(expo[i] * x[i]) - yy[i] for i in range(n)] + [0.0]
        nu = _multipliers(n, edges, work, grad)
        worst = min(nu, key=nu.get, default=None)
        if worst is None or nu[worst] >= -1e-12 * (1.0 + max(map(abs, grad))):
            e = np.zeros((K, M))
            for c, v in nu.items():
                i, k, _ = edges[c]
                if i < K + M:
                    e[k, i - K] = max(v, 0.0)
            value = sum(w[i] * -math.expm1(expo[i] * x[i]) + yy[i] * x[i] for i in range(n))
            return value, np.array(x[:n]), e, it
        work.remove(worst)
    raise SolverError("the active set did not settle in 100 steps")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _check_cost(cost: PoissonCost, topology: Topology) -> None:
    """Raise ValueError unless ``cost`` is a PoissonCost at the topology's rates."""
    if not isinstance(cost, PoissonCost):
        raise ValueError("the rate program needs a PoissonCost")
    if cost.lam.tolist() != topology.lam.tolist() or cost.mu.tolist() != topology.mu.tolist():
        raise ValueError("cost must be built for this net: its rates are lambda="
                         f"{cost.lam.tolist()}, mu={cost.mu.tolist()}, the net's "
                         f"lambda={topology.lam.tolist()}, mu={topology.mu.tolist()}")


def _rate_on_domain(
    label: DomainLabel,
    y: np.ndarray,
    topology: Topology,
    cost: PoissonCost,
    tol: float,
) -> RateWitness:
    """Rate program on the domain ``label``: the body of local_rate and psi_ij.

    Checks ``tol``, the velocity and the cost, then decides feasibility: the
    program is infeasible exactly when a queue must grow (y_k > 0) but lies
    in no stream's argmin set, or must shrink (y_k < 0) while empty.
    Otherwise arrival and service rates are unbounded above, so e_km = y_k
    on a supporting stream and d_k = -y_k on a shrinking busy queue give a
    feasible point.  The value is the dual optimum and ``stationarity`` its
    gap to the cost of the witness.
    """
    positive(tol, "tol")
    y = vector(y, topology.K, "velocity y", nonnegative=False)
    _check_cost(cost, topology)
    K, M = topology.K, topology.M
    busy = [k not in label.zero_set for k in range(K)]
    reachable = frozenset().union(*label.argmin_sets)
    for k in range(K):
        if y[k] > 0 and k not in reachable:
            reason = "cannot grow: it is in no stream's argmin set"
        elif y[k] < 0 and not busy[k]:
            reason = "cannot shrink: it is empty"
        else:
            continue
        return RateWitness(value=INF, feasible=False,
                           certificate=f"queue {k + 1} {reason}", label=label)
    live = frozenset().union(*(J for J, lam in zip(label.argmin_sets, cost.lam) if lam > 0))
    if any(y[k] > 0 and k not in live for k in range(K)):
        return RateWitness(
            value=INF,
            certificate="finite cost requires routed mass on a zero-rate stream",
            label=label,
        )
    lone = [busy[k] and k not in live for k in range(K)]
    value, x, e, it = _solve_dual(label.argmin_sets, busy, lone, y, cost.lam, cost.mu)
    # a lone queue serves exactly its outflow -y_k
    value += sum(price(cost.mu[k], -y[k]) for k in range(K) if lone[k])
    a = e.sum(axis=0)
    d = np.maximum(e.sum(axis=1) - y, 0.0)
    b = np.where(busy, d, cost.mu * np.exp(x[K + M:]))
    gap = abs(cost.eval(a, b) - value)
    if not gap <= tol * max(1.0, abs(value)):
        raise SolverError(f"rate witness misses the dual value by {gap:.3g}")
    return RateWitness(value=value, a=a, b=b, e=e, d=d, iterations=it,
                       stationarity=gap, label=label)


def local_rate(
    x,
    y,
    topology: Topology,
    cost: PoissonCost,
    tol: float = 1e-8,
) -> RateWitness:
    """Minimal deviation cost for the state to move at velocity y from x.

    The witness's cost must match the value within ``tol`` * max(1, L), or
    SolverError is raised.  Raises ValueError for a bad state, a velocity
    that is not K finite numbers, a ``tol`` that is not positive and finite,
    or a cost other than a ``PoissonCost`` built at the topology's rates.
    """
    return _rate_on_domain(classify_domain(x, topology), y, topology, cost, tol)


def psi_ij(
    label: DomainLabel,
    y,
    topology: Topology,
    cost: PoissonCost,
    tol: float = 1e-8,
) -> float:
    """Domain-wise rate value; equals local_rate at any state in the domain."""
    check_label(label, topology)
    return _rate_on_domain(label, y, topology, cost, tol).value


def local_rate_bruteforce(
    x,
    y,
    topology: Topology,
    cost: PoissonCost,
    grid_step: float = 1e-3,
    box_radius: float = 5.0,
) -> float:
    """Exhaustive grid upper bound on the local rate; verification oracle.

    Enumerates the routed-rate entries on a uniform grid, recovers departure
    rates from the balance constraint and arrival rates from the routed
    totals exactly, and scans the idle service grids through precomputed
    suffix minima.  An empty queue that shrinks costs inf.  Intended for tiny
    topologies only (dimension budget K*M + M + 2K <= 8).
    """
    y = vector(y, topology.K, "velocity y", nonnegative=False)
    x = vector(x, topology.K, "state x")
    grid_step = positive(grid_step, "grid_step")
    box_radius = positive(box_radius, "box_radius")
    K, M = topology.K, topology.M
    if K * M + M + 2 * K > 8:
        raise ValueError("dimension budget exceeded for brute-force oracle: "
                         f"K*M + M + 2K = {K * M + M + 2 * K} > 8")
    _check_cost(cost, topology)
    busy = x > 0
    if np.any(~busy & (y < 0)):
        return INF
    # support sets straight from the constraint definitions
    support = []
    for ks, ws in topology.routes:
        levels = [float(x[k]) / w for k, w in zip(ks, ws)]
        cut = tie_level(min(levels))
        support.append([k for k, v in zip(ks, levels) if v <= cut])
    entries = [(k, m) for m in range(M) for k in support[m]]
    S = len(entries)
    grid = np.arange(0.0, box_radius + grid_step / 2, grid_step)
    n_g = len(grid)

    # suffix minima: the least idle service cost at or beyond each grid point
    srv_sm = [np.minimum.accumulate(price_vec(cost.mu[k], grid)[::-1])[::-1] for k in range(K)]

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
            total += price_vec(cost.lam[m], cols[m])
        for k in range(K):
            if busy[k]:
                total += price_vec(cost.mu[k], d[k])
            else:
                total += lookup(srv_sm[k], d[k])
        total[~ok] = INF
        cand = total.min()
        if cand < best:
            best = float(cand)
    return best


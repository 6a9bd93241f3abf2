"""Exact hit probabilities for the benchmark's rare-event workloads.

The queue vector of a JSQ network started empty is a continuous-time
Markov chain: stream m adds a customer to the lowest-index queue of least
weighted level in its admissible set, and server k removes one at rate
mu_k when its queue is non-empty.  Truncating every queue at ``L`` and
applying the matrix exponential of the generator to the initial point mass
(scipy's ``expm_multiply``) gives P(Q_k(nT) >= n c) without sampling.  The
truncated mass is reported so the truncation can be seen to be harmless.

    python3 bench/reference.py          # rewrite bench/reference.json

The benchmark reads the stored values; it does not run this script.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import expm_multiply

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from jsqldp.ldp import RareEventSpec  # noqa: E402
from jsqldp.topology import load  # noqa: E402

CASES = {
    "rare-mm1": ("drain.json", "terminal:k=1,c=1,T=1", (5, 10)),
    "rare-jsq": ("readme.json", "terminal:k=1,c=1,T=1", (5, 10)),
}


def exact_hit_probability(topology, event: RareEventSpec, n: int, cap: int):
    """(P(Q_k(nT) >= n c) from an empty start, mass lost to the cap)."""
    K = topology.K
    shape = (cap + 1,) * K
    streams = [
        (float(topology.lam[m]), sorted(topology.level_multipliers(m).items()))
        for m in range(topology.M)
    ]
    rows, cols, vals = [], [], []
    for state in itertools.product(range(cap + 1), repeat=K):
        s = np.ravel_multi_index(state, shape)
        out = 0.0
        moves = []
        for lam, mults in streams:
            best = min(state[k] * c for k, c in mults)
            k = next(k for k, c in mults if state[k] * c == best)
            if state[k] < cap:
                moves.append((k, +1, lam))
        for k in range(K):
            if state[k] > 0:
                moves.append((k, -1, float(topology.mu[k])))
        for k, step, rate in moves:
            nxt = list(state)
            nxt[k] += step
            rows.append(s)
            cols.append(np.ravel_multi_index(nxt, shape))
            vals.append(rate)
            out += rate
        rows.append(s)
        cols.append(s)
        vals.append(-out)
    size = (cap + 1) ** K
    gen = coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    p0 = np.zeros(size)
    p0[0] = 1.0
    pt = expm_multiply(gen.T, p0, start=0.0, stop=n * event.T, num=2, endpoint=True)[-1]
    levels = np.indices(shape).reshape(K, -1)
    need = int(math.ceil(n * event.threshold - 1e-9))
    hit = float(pt[levels[event.queue] >= need].sum())
    lost = float(pt[(levels >= cap).any(axis=0)].sum())
    return hit, lost


def main() -> None:
    out = {}
    for workload, (net, text, scales) in CASES.items():
        topo = load(os.path.join(HERE, "nets", net))
        event = RareEventSpec.parse(text)
        rows = {}
        for n in scales:
            cap = 10 * n + 40
            p, lost = exact_hit_probability(topo, event, n, cap)
            rows[str(n)] = {"p": p, "cap": cap, "mass_at_cap": lost}
        out[workload] = {"net": net, "event": text, "scales": rows}
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()

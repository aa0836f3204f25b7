"""Time ``compute_indices`` on one seeded dense chain in a fresh process.

    python3 bench/dense_chain.py N SEED

Rows of ``p1`` are Dirichlet(1, ..., 1) draws, so every transition is
positive; rewards are uniform on [0, 1); ``eps = 0.1``, ``beta = 0.9``.
Fitted chains are sparse, so a solver that exploits sparsity gains on
the ``fine_grid`` workload but not here. Prints one JSON line with the
solve time and whether ``G`` came out finite, one value per state.
"""

import json
import sys
import time

import numpy as np

from feedrank.indices import compute_indices
from feedrank.transitions import build_model


def main(n: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, n])
    p1 = rng.dirichlet(np.ones(n), size=n)
    reward = rng.random(n)
    model = build_model(p1, epsilon=0.1, beta=0.9)
    t0 = time.perf_counter()
    table = compute_indices(model, reward)
    seconds = time.perf_counter() - t0
    ok = bool(table.g.shape == (n,) and np.all(np.isfinite(table.g)))
    return {"n": n, "seconds": seconds, "ok": ok}


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]), int(sys.argv[2]))))

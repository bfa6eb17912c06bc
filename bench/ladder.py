"""Seeded instance ladder for the benchmark.

Family rules (fixed before any command runs; no draw is ever filtered by
how a command behaves on it):

* raw rung m: N = round(2.5 m) packets over GF(2); terminal i owns each
  packet independently with probability 1/2, and a packet nobody drew goes
  to one terminal picked uniformly, so every packet is owned.
* linear rung m: N = m packets over GF(3); every terminal observes 2
  uniformly random rows, redrawn as a whole until the stacked rows have
  rank N (the file is jointly held).
* both: users are terminals 0 .. m/2 - 1.  Weights take the values 1..4
  equally often (each value m // 4 times, the m % 4 left over drawn
  uniformly) in a seeded random order.  Stratified rather than independent
  weights keep the solver's work per instance steadier between seeds: at
  linear m=24 the distinct entropy queries of 10 iterations vary by about
  8% between instances, against 13% with independent weights.
"""

from __future__ import annotations

import random

RAW_PACKETS_PER_TERMINAL = 2.5
LINEAR_FIELD = 3
LINEAR_ROWS = 2
WEIGHTS = (1, 4)


def _rank_mod_p(rows, p):
    """Rank over GF(p), independent of the program under test."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        pr = [(a * inv) % p for a in rows[rank]]
        rows[rank] = pr
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def _common(rng, m):
    lo, hi = WEIGHTS
    span = hi - lo + 1
    weights = [lo + i % span for i in range(m - m % span)]
    weights += [rng.randint(lo, hi) for _ in range(m % span)]
    rng.shuffle(weights)
    return {"users": list(range(m // 2)), "weights": weights}


def raw_instance(rng: random.Random, m: int) -> dict:
    n = round(RAW_PACKETS_PER_TERMINAL * m)
    owned = [[j for j in range(n) if rng.random() < 0.5] for _ in range(m)]
    for j in range(n):
        if not any(j in o for o in owned):
            owned[rng.randrange(m)].append(j)
    doc = {"format_version": 1,
           "field": {"characteristic": 2, "degree": 1},
           "packet_count": n,
           "terminals": [{"name": f"t{i}", "packets": sorted(o)}
                         for i, o in enumerate(owned)]}
    doc.update(_common(rng, m))
    return doc


def linear_instance(rng: random.Random, m: int) -> dict:
    n, p = m, LINEAR_FIELD
    while True:
        rows = [[[rng.randrange(p) for _ in range(n)]
                 for _ in range(LINEAR_ROWS)] for _ in range(m)]
        if _rank_mod_p([r for t in rows for r in t], p) == n:
            break
    doc = {"format_version": 1,
           "field": {"characteristic": p, "degree": 1},
           "packet_count": n,
           "terminals": [{"name": f"t{i}", "rows": t}
                         for i, t in enumerate(rows)]}
    doc.update(_common(rng, m))
    return doc


def draw(seed: int, kind: str, m: int, index: int) -> dict:
    """Instance `index` of rung (kind, m) for a benchmark seed.  Each
    instance has its own stream, so adding rungs never shifts the others."""
    rng = random.Random(f"datex-bench/{seed}/{kind}/{m}/{index}")
    make = {"raw": raw_instance, "linear": linear_instance}[kind]
    return make(rng, m)

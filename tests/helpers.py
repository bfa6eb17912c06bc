"""Shared builders for the test suite: the worked example instances, a
random-instance generator used by the equivalence and property suites, a
renumbering of an instance's terminals, and test-side references (a
greedy chain from point queries, the single-receiver greedy optimum, weighted objective, conditional entropy,
explicit entropy tables, the all-terminal cut-set rows, the full cut-set
LP and its exact optimum, every violated cut of a receiver and the most
violated one), the one feasibility check the suites share, a
one-right-hand-side solve, a comparable form of a matrix, a scheme copy
with replaced coding matrices, and the benchmark ladder's instance
documents."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path
from typing import List

from datex.gf import Matrix, SizeLimitError, make_field, solve_linear
from datex.greedy import violated_cuts
from datex.instance import Instance
from datex.netcode import TransmissionScheme
from datex.oracle import exact_simplex
from datex.source import (LinearSource, SourceModel, TabularSource,
                          mask_to_set, raw_source)

# Six terminals observing single linear combinations of three packets; the
# first three see sums of pairs, the last three see single packets.
EXAMPLE_ROWS = (
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
)


def example_model(characteristic: int = 3) -> LinearSource:
    F = make_field(characteristic)
    mats = [Matrix.from_rows(F, [row], ncols=3) for row in EXAMPLE_ROWS]
    return LinearSource(F, 3, mats)


def example1_instance() -> Instance:
    """Single receiver (terminal 0), five potential senders, GF(3)."""
    return Instance(example_model(3), [0])


def example2_instance(characteristic: int = 3) -> Instance:
    """Three receivers (terminals 0..2) plus three helpers."""
    return Instance(example_model(characteristic), [0, 1, 2])


def example3_instance() -> Instance:
    """Two users and one helper sharing four packets outright:
    user 0 owns packets {1,2}, user 1 owns {0,1,3}, the helper owns {0,2}."""
    model = raw_source([[1, 2], [0, 1, 3], [0, 2]], 4)
    return Instance(model, [0, 1])


def random_linear_instance(rng: random.Random, multi_user: bool,
                           helpers_only: bool = False) -> Instance:
    """A random desk-scale instance: m in 3..6 terminals over GF(2)/GF(3)/
    GF(5), up to 6 packets, up to 3 observation rows per terminal, weights
    on the tenths grid in [0, 10] (never all zero)."""
    m = rng.randint(3, 6)
    p = rng.choice([2, 3, 5])
    F = make_field(p)
    N = rng.randint(1, 6)
    mats = []
    for _ in range(m):
        nrows = rng.randint(0, min(N, 3))
        rows = [[rng.randrange(p) for _ in range(N)] for _ in range(nrows)]
        mats.append(Matrix.from_rows(F, rows, ncols=N))
    model = LinearSource(F, N, mats)
    k = rng.randint(2, m) if multi_user else 1
    users = rng.sample(range(m), k)
    weights = [Fraction(rng.randint(0, 100), 10) for _ in range(m)]
    if all(w == 0 for w in weights):
        weights[0] = Fraction(1)
    transmitters = None
    if helpers_only:
        transmitters = [i for i in range(m) if i not in users]
    return Instance(model, users, weights, transmitters=transmitters)


def relabel(instance: Instance, order) -> Instance:
    """`instance` with its terminals renumbered: new terminal j is old
    terminal order[j], with its observation, weight and roles."""
    model = instance.model
    new_of = {old: new for new, old in enumerate(order)}
    return Instance(LinearSource(model.field, model.N,
                                 [model.matrices[i] for i in order]),
                    [new_of[u] for u in instance.users],
                    [instance.weights[i] for i in order],
                    transmitters=[new_of[t] for t in instance.transmitters])


def unlabel(rates, order):
    """Rates of a `relabel(instance, order)` instance in the original
    terminal numbering."""
    return tuple(r for _, r in sorted(zip(order, rates)))


def point_chain(model: SourceModel, start: int, order) -> List[int]:
    """Scaled entropy increments along the nested chain start,
    start + order[0], start + order[0] + order[1], ..., one point query
    per prefix and never stopped early: entry j of the m-long result is
    H(X_j | X_start, X_(terminals before j in order)) times
    entropy_denominator, and 0 for terminals not in order.  The witness
    of `greedy._greedy_rates_scaled`, which walks from start = the
    target's bit and lists only the nonzero increments."""
    out = [0] * model.m
    mask = start
    prev = model.joint_entropy_scaled(mask)
    for j in order:
        mask |= 1 << j
        cur = model.joint_entropy_scaled(mask)
        out[j] = cur - prev
        prev = cur
    return out


def edmonds_allocate(instance: Instance, target: int):
    """Optimal vertex of the single-receiver region for the instance's
    weights (Edmonds, 1970): visit the transmitters other than `target` in
    ascending (weight, index) order and give each the conditional entropy
    of its observation given the target's side information and every
    transmitter visited before it.  Non-transmitters and the target get
    rate zero.  The entropies come from plain point queries
    (`point_chain`), not the models' walks; this is the witness for
    `dual.solve` on one receiver."""
    if not 0 <= target < instance.m:
        raise ValueError(f"target {target} out of range")
    senders = sorted(t for t in instance.transmitters if t != target)
    senders.sort(key=instance.weights.__getitem__)
    model = instance.model
    scaled = point_chain(model, 1 << target, senders)
    return tuple(Fraction(v, model.entropy_denominator) for v in scaled)


def objective(instance: Instance, rates) -> Fraction:
    return sum((w * Fraction(r) for w, r in zip(instance.weights, rates)),
               Fraction(0))


def cond_entropy(model: SourceModel, subset: int, given: int) -> Fraction:
    """H(X_S | X_T) = H(X_(S u T)) - H(X_T), subsets as bitmasks."""
    return model.joint_entropy(subset | given) - model.joint_entropy(given)


def all_terminal_cut_rows(instance: Instance):
    """The cut-set LP's rows written over all terminals: every mask S with
    0 != S != M that leaves some user out, ascending, with right-hand side
    H(X_S | X_(M \\ S)) = H(X_M) - H(X_(M \\ S))."""
    model = instance.model
    full = model.full_mask
    users = sum(1 << u for u in instance.users)
    total = model.joint_entropy(full)
    return [(s, total - model.joint_entropy(full & ~s))
            for s in range(1, full) if s & users != users]


def full_cut_lp(instance: Instance):
    """The whole cut-set LP, every row written out: every nonempty cut of
    every user, its right-hand side from point queries (`joint_entropy`),
    one (mask, rhs) row per mask in ascending order with the largest
    right-hand side any user puts on it."""
    js = instance.model.joint_entropy
    need = {}
    for l in instance.user_list:
        tmask = instance.transmitter_mask & ~(1 << l)
        ctx = tmask | 1 << l
        total = js(ctx)
        for cut in range(1, tmask + 1):
            if not cut & ~tmask:
                rhs = total - js(ctx ^ cut)
                need[cut] = max(need.get(cut, rhs), rhs)
    return sorted(need.items())


def full_lp_optimum(instance: Instance) -> Fraction:
    """The optimum of `full_cut_lp` from one `exact_simplex` call on its
    dual: the witness for the cut loop of `oracle.solve_exact`."""
    rows = full_cut_lp(instance)
    senders = sorted(instance.transmitters)
    return exact_simplex([rhs for _, rhs in rows],
                         [[s >> t & 1 for s, _ in rows] for t in senders],
                         [instance.weights[t] for t in senders]).value


def ref_violated_cuts(rates, instance: Instance, target: int):
    """Every cut of `target` the rates fail, as (mask, required, provided)
    triples in ascending mask order: each cut's entropies from point
    queries and its sums in Fractions, after the argument checks of
    `greedy.violated_cuts`.  The witness for that query."""
    m = instance.m
    if m > 20:
        raise SizeLimitError("feasibility check limited to m <= 20")
    r = [Fraction(x) for x in rates]
    if len(r) != m:
        raise ValueError(f"expected {m} rates, got {len(r)}")
    for i, x in enumerate(r):
        if x < 0:
            raise ValueError(f"rate of terminal {i} is negative ({x})")
        if x and i not in instance.transmitters:
            raise ValueError(f"terminal {i} does not transmit but has rate {x}")
    den = instance.model.entropy_denominator
    js = instance.model.joint_entropy_scaled
    tmask = instance.transmitter_mask & ~(1 << target)
    ctx = tmask | (1 << target)
    senders = mask_to_set(tmask)
    out = []
    for bits in range(1, 1 << len(senders)):
        cut = 0
        for i, t in enumerate(senders):
            if (bits >> i) & 1:
                cut |= 1 << t
        need = Fraction(js(ctx) - js(ctx & ~cut), den)
        got = sum((r[i] for i in mask_to_set(cut)), Fraction(0))
        if got < need:
            out.append((cut, need, got))
    return out


def ref_most_violated_cut(rates, instance: Instance, target: int):
    """The triple of `ref_violated_cuts` with the largest deficit, ties to
    the smallest mask, or None when the list is empty."""
    return max(ref_violated_cuts(rates, instance, target),
               key=lambda v: v[1] - v[2], default=None)


def meets_cuts(rates, instance: Instance, *receivers: int) -> bool:
    """Whether the rates meet every cut of the given receivers (of every
    user when none is given), by the `violated_cuts` query."""
    short = violated_cuts(rates, instance)
    return not any(l in short for l in receivers or instance.user_list)


def table_values(model: SourceModel) -> List[Fraction]:
    """Every joint entropy of a model, indexed by subset mask (m <= 16
    guard)."""
    if model.m > 16:
        raise SizeLimitError("refusing to tabulate more than 2^16 subsets")
    return [model.joint_entropy(mask) for mask in range(1 << model.m)]


def tabulate(model: SourceModel) -> TabularSource:
    """Materialize any model as an explicit table (m <= 16 guard)."""
    return TabularSource(table_values(model))


def with_matrices(scheme: TransmissionScheme, matrices) -> TransmissionScheme:
    """`scheme` with its coding matrices replaced and every other field,
    the coding view included, kept."""
    return TransmissionScheme(scheme.instance, scheme.L, scheme.chunk_rates,
                              scheme.ext_degree, scheme.coding_field, matrices,
                              scheme.attempt, scheme.embed, scheme.blocks)


def matrix_key(M: Matrix):
    """A matrix as a comparable value: its field (one object per field),
    shape and entries."""
    return M.field, M.nrows, M.ncols, M.data


def solve_one(M: Matrix, b):
    """`solve_linear` for one right-hand side b, passed as a one-column
    matrix: the unique solution of M x = b, or None."""
    return solve_linear(M, Matrix(M.field, len(b), 1, list(b)))[0]


def ladder_draw(seed: int, kind: str, m: int) -> dict:
    """bench/ladder.py `draw(seed, kind, m, 0)`, an instance document; the
    file is only read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("bench_ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder.draw(seed, kind, m, 0)

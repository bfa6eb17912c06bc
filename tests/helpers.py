"""Shared builders for the test suite: the worked example instances, a
random-instance generator used by the equivalence and property suites, a
renumbering of an instance's terminals, and test-side references (weighted
objective, conditional entropy, explicit entropy tables, the all-terminal
cut-set rows, the full cut-set LP and its exact optimum), a
one-right-hand-side solve, a comparable form of a matrix, and a scheme
copy with replaced coding matrices."""

import random
from fractions import Fraction
from typing import List

from datex.gf import Matrix, SizeLimitError, make_field, solve_linear
from datex.greedy import _iter_cuts
from datex.instance import Instance
from datex.netcode import TransmissionScheme
from datex.oracle import exact_simplex
from datex.source import LinearSource, SourceModel, TabularSource, raw_source

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
    """The whole cut-set LP, every row written out: the union of the
    receivers' cuts (`greedy._iter_cuts`), one (mask, rhs) row per mask in
    ascending order with the largest right-hand side any user puts on it."""
    zero = [0] * instance.m
    need = {}
    for l in instance.user_list:
        for cut, rhs, _ in _iter_cuts(instance, l, zero):
            need[cut] = max(need.get(cut, 0), rhs)
    den = instance.model.entropy_denominator
    return [(s, Fraction(need[s], den)) for s in sorted(need)]


def full_lp_optimum(instance: Instance) -> Fraction:
    """The optimum of `full_cut_lp` from one `exact_simplex` call on its
    dual: the witness for the cut loop of `oracle.solve_exact`."""
    rows = full_cut_lp(instance)
    senders = sorted(instance.transmitters)
    return exact_simplex([rhs for _, rhs in rows],
                         [[s >> t & 1 for s, _ in rows] for t in senders],
                         [instance.weights[t] for t in senders]).value


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

"""Exact cut-set linear program for multi-receiver rate allocation.

The baseline optimum that certifies every other solver in the package.
Its rows are the receivers' cuts: for every user l and nonempty S within
the transmitters T other than l,

    sum_{i in S} R_i >= H(X_S | X_((T u {l}) \\ S)),

one row per mask S with the largest right-hand side any user puts on it.
It minimizes the weighted rate sum exactly over rationals, with
non-transmitting terminals pinned to rate zero.

`solve_exact` optimizes over those rows by separation, adding each user's
most violated cut (`greedy.violated_cuts`, one query per round that
answers every user, the query `verify` reports) until none is left; each
round visits at most 2^(|T|-1) cuts of every user, so the one size guard is
`violated_cuts`'s m <= 20.  The solver is a dense, fraction-free simplex
(integer rows, exact rational results) with Bland's anti-cycling rule, run
on the LP dual so the slack basis is immediately feasible; the primal
rates are read off the optimal reduced costs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .greedy import violated_cuts
from .instance import Instance
from .source import mask_to_set, scale_to_int

__all__ = [
    "CutSetLP",
    "OracleSolution",
    "build_lp",
    "solve_exact",
    "exact_simplex",
    "SimplexResult",
]


class CutSetLP(namedtuple("CutSetLP", "instance variables constraints")):
    """A restricted cut-set LP: one (mask, rhs) row per cut-set found so
    far, variables only for transmitting terminals, the instance's weights
    as costs."""

    __slots__ = ()


def build_lp(instance: Instance) -> CutSetLP:
    """`solve_exact`'s starting LP: the transmitters as variables, no rows."""
    return CutSetLP(instance, tuple(sorted(instance.transmitters)), ())


# ---------------------------------------------------------------------------
# Dense exact simplex: maximize c.x subject to A x <= b, x >= 0, with b >= 0
# so that the slack basis is feasible.  Bland's rule throughout.
# ---------------------------------------------------------------------------

class SimplexResult(namedtuple("SimplexResult", "value x duals pivots")):
    """`duals` holds the optimal reduced costs of the slack columns."""

    __slots__ = ()


class UnboundedLPError(ValueError):
    pass


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a positive factor)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def exact_simplex(c: Sequence, A: Sequence[Sequence], b: Sequence) -> SimplexResult:
    """Maximize c.x s.t. A x <= b, x >= 0 over exact rationals.

    Requires b >= 0.  Entering variable: lowest index with negative
    reduced cost; leaving: lowest basic index among the minimum ratios
    (Bland's rule, so termination is guaranteed).  Raises
    UnboundedLPError when the objective is unbounded.

    Fraction-free: each constraint row is held as integers equal to the
    true row times some positive factor (signs and ratios, all a pivot
    reads, do not depend on it), cleared by p * row - f * pivot_row and
    divided by the row's gcd.  The objective row keeps an explicit
    positive denominator, so its reduced costs are exact at every step.
    """
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    nrows = len(b)
    ncols = len(c)
    if any(v < 0 for v in b):
        raise ValueError("exact_simplex requires b >= 0")
    if len(A) != nrows:
        raise ValueError(f"A has {len(A)} rows, b has {nrows} entries")
    width = ncols + nrows
    rows = []
    for i, arow in enumerate(A):
        arow = [Fraction(v) for v in arow]
        arow.append(b[i])
        if len(arow) != ncols + 1:
            raise ValueError("A row length mismatch")
        scale, row = scale_to_int(arow)
        slack = [0] * nrows
        slack[i] = scale
        rows.append(_primitive(row[:ncols] + slack + row[ncols:]))
    zden, zc = scale_to_int(c)
    zrow = [-v for v in zc] + [0] * (nrows + 1)
    basis = [ncols + i for i in range(nrows)]
    pivots = 0
    while True:
        enter = next((j for j in range(width) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(nrows):
            a = rows[i][enter]
            if a > 0:
                rhs = rows[i][width]
                if leave is None:
                    leave, best_rhs, best_a = i, rhs, a
                    continue
                # ratio rhs / a against best_rhs / best_a, both a > 0
                lhs, cmp = rhs * best_a, best_rhs * a
                if lhs < cmp or (lhs == cmp and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, rhs, a
        if leave is None:
            raise UnboundedLPError("objective unbounded above")
        prow = rows[leave]
        p = prow[enter]
        for i in range(nrows):
            if i != leave:
                f = rows[i][enter]
                if f:
                    rows[i] = _primitive([p * v - f * w
                                          for v, w in zip(rows[i], prow)])
        f = zrow[enter]
        zrow = [p * v - f * w for v, w in zip(zrow, prow)]
        zden *= p
        g = math.gcd(zden, *zrow)
        if g > 1:
            zrow = [v // g for v in zrow]
            zden //= g
        basis[leave] = enter
        pivots += 1
    x = [Fraction(0)] * ncols
    for i, bj in enumerate(basis):
        if bj < ncols:
            x[bj] = Fraction(rows[i][width], rows[i][bj])
    duals = tuple(Fraction(zrow[ncols + i], zden) for i in range(nrows))
    return SimplexResult(Fraction(zrow[width], zden), tuple(x), duals, pivots)


class OracleSolution(namedtuple("OracleSolution", "value rates pivots")):
    __slots__ = ()


def solve_exact(lp: CutSetLP) -> OracleSolution:
    """Exact optimum of the cut-set LP by separation: (value, one optimal
    rate vector, simplex pivots summed over the rounds).

    Each round solves the LP restricted to the rows found so far through
    its dual (max sum rhs_S y_S s.t. per-terminal column sums <= weight),
    reads the rates off the optimal reduced costs and adds each user's
    most violated cut (ties to the smallest mask) as a row with the
    largest right-hand side any user puts on it.  The round that finds no
    violated cut certifies the rates feasible.
    """
    inst, rows, pivots = lp.instance, dict(lp.constraints), 0
    H, senders = inst.model.joint_entropy, lp.variables
    while True:
        masks = sorted(rows)
        # bounded: each column y_S has a 1 in the row of some t in S
        res = exact_simplex([rows[s] for s in masks],
                            [[s >> t & 1 for s in masks] for t in senders],
                            [inst.weights[t] for t in senders])
        pivots += res.pivots
        duals = dict(zip(senders, res.duals))
        rates = [duals.get(t, Fraction(0)) for t in range(inst.m)]
        if any(r < 0 for r in rates):
            raise ArithmeticError("simplex returned a negative rate")
        found = set()
        for l, (cut, need, _) in violated_cuts(rates, inst).items():
            if rows.get(cut, -1) >= need:
                raise ArithmeticError(f"simplex broke the row of cut "
                                      f"{mask_to_set(cut)} for user {l}")
            found.add(cut)
        if not found:
            break
        for cut in found:
            ctxs = [inst.transmitter_mask | 1 << u for u in inst.users
                    if not cut >> u & 1]
            rows[cut] = max(H(ctx) - H(ctx & ~cut) for ctx in ctxs)
    if inst.objective(rates) != res.value:
        raise ArithmeticError("rate vector does not match the optimal value")
    # the last LP's multipliers y_S bound every feasible cost from below
    ys = list(zip(masks, res.x))
    if any(y < 0 for _, y in ys):
        raise ArithmeticError("simplex returned a negative multiplier")
    for t in senders:
        if sum(y for s, y in ys if s >> t & 1) > inst.weights[t]:
            raise ArithmeticError(f"multipliers exceed terminal {t}'s weight")
    if sum(y * rows[s] for s, y in ys) != res.value:
        raise ArithmeticError("multipliers do not match the optimal value")
    return OracleSolution(res.value, tuple(rates), pivots)

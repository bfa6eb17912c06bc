"""Exact cut-set linear program for multi-receiver rate allocation.

The baseline optimum that certifies every other solver in the package.
Its rows are the receivers' cuts (`greedy._iter_cuts`, which `verify`
checks too): for every user l and nonempty S within the transmitters T
other than l,

    sum_{i in S} R_i >= H(X_S | X_((T u {l}) \\ S)),

one row per mask S with the largest right-hand side any user puts on it,
at most 2^|T| - 1 rows.  It minimizes the weighted rate sum exactly over
rationals, with non-transmitting terminals pinned to rate zero.

The solver is a dense, fraction-free simplex (integer rows, exact rational
results) with Bland's anti-cycling rule, run on the LP dual so the slack
basis is immediately feasible; the primal rates are read off the optimal
reduced costs.  Everything here is exponential in m by design -- exactness
over speed -- so building the LP, where every solve starts, takes m <= 10.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from .greedy import _iter_cuts, violated_cuts
from .instance import Instance
from .source import SizeLimitError, scale_to_int

__all__ = [
    "CutSetLP",
    "OracleSolution",
    "build_lp",
    "solve_exact",
    "exact_simplex",
    "SimplexResult",
]

_GUARD_M = 10


class CutSetLP(NamedTuple):
    """The explicit LP: one (mask, rhs) row per cut-set, variables only for
    transmitting terminals, the instance's weights as costs."""

    instance: Instance
    variables: Tuple[int, ...]
    constraints: Tuple[Tuple[int, Fraction], ...]


def build_lp(instance: Instance) -> CutSetLP:
    """Materialize the cut-set LP for an instance: the union of the users'
    cuts, one row per mask in ascending order, each with the largest
    right-hand side any user puts on it.  The size guard fires before any
    entropy is queried."""
    if instance.m > _GUARD_M:
        raise SizeLimitError(f"exact solve limited to m <= {_GUARD_M}")
    zero = [0] * instance.m
    need = {}
    for l in instance.user_list:
        for cut, rhs, _ in _iter_cuts(instance, l, zero):
            need[cut] = max(need.get(cut, 0), rhs)
    den = instance.model.entropy_denominator
    rows = tuple((s, Fraction(need[s], den)) for s in sorted(need))
    return CutSetLP(instance, tuple(sorted(instance.transmitters)), rows)


# ---------------------------------------------------------------------------
# Dense exact simplex: maximize c.x subject to A x <= b, x >= 0, with b >= 0
# so that the slack basis is feasible.  Bland's rule throughout.
# ---------------------------------------------------------------------------

class SimplexResult(NamedTuple):
    value: Fraction
    x: Tuple[Fraction, ...]
    duals: Tuple[Fraction, ...]  # optimal reduced costs of the slack columns
    pivots: int


class UnboundedLPError(ValueError):
    pass


def _primitive(row: List[int]) -> List[int]:
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
    width = ncols + nrows
    rows = []
    for i, arow in enumerate(A):
        # an int (the cut-set LP's 0/1 entries) is its own integer view,
        # so only other entries become Fractions
        arow = [v if isinstance(v, int) else Fraction(v) for v in arow]
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


class OracleSolution(NamedTuple):
    value: Fraction
    rates: Tuple[Fraction, ...]
    pivots: int


def solve_exact(lp: CutSetLP) -> OracleSolution:
    """Exact optimum of the cut-set LP: (value, one optimal rate vector).

    Internally solves the LP dual (max sum rhs_S y_S s.t. per-terminal
    column sums <= weight) whose slack basis is feasible, then reads the
    primal rates off the optimal reduced costs.  The returned vector is
    re-checked against every user's cuts (`violated_cuts`, as `verify`
    does) before returning.
    """
    inst = lp.instance
    var_index = {t: i for i, t in enumerate(lp.variables)}
    c = [row[1] for row in lp.constraints]
    b = [inst.weights[t] for t in lp.variables]
    A = []
    for t in lp.variables:
        A.append([(row[0] >> t) & 1 for row in lp.constraints])
    # bounded: each column y_S has a 1 in the row of some t in S, capped by w_t
    res = exact_simplex(c, A, b)
    rates = [Fraction(0)] * inst.m
    for t, i in var_index.items():
        rates[t] = res.duals[i]
    # certify before returning: nonnegative, every cut met, objective equal
    if any(r < 0 for r in rates):
        raise ArithmeticError("simplex returned a negative rate")
    if any(violated_cuts(rates, inst, l, limit=1) for l in inst.user_list):
        raise ArithmeticError("simplex returned an infeasible rate vector")
    if inst.objective(rates) != res.value:
        raise ArithmeticError("rate vector does not match the optimal value")
    return OracleSolution(res.value, tuple(rates), res.pivots)

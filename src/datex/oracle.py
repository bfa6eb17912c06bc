"""Exact cut-set linear program for multi-receiver rate allocation.

The baseline optimum that certifies every other solver in the package:
enumerate all cut-sets S (nonempty proper subsets of the terminals that do
not contain all users), require

    sum_{i in S, i transmitting} R_i >= H(X_S | X_(M \\ S)),

and minimize the weighted rate sum exactly over rationals.  Non-transmitting
terminals are pinned to rate zero, which (given the instance decodability
precondition) reproduces the transmitter-restricted regions.

The solver is a dense, fraction-free simplex (integer rows, exact rational
results) with Bland's anti-cycling rule, run on the LP dual so the slack
basis is immediately feasible; the primal rates are read off the optimal
reduced costs.  Everything here is exponential in m by design -- exactness
over speed -- so cut enumeration, where every LP starts, takes m <= 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .greedy import _subset_sums
from .instance import Instance
from .source import SizeLimitError

__all__ = [
    "CutSetLP",
    "OracleSolution",
    "InfeasibleLPError",
    "enumerate_cutsets",
    "build_lp",
    "solve_exact",
    "exact_simplex",
    "SimplexResult",
]

_GUARD_M = 10


class InfeasibleLPError(ValueError):
    """The cut-set constraints cannot be met (the dual is unbounded)."""


@dataclass(frozen=True)
class CutSetLP:
    """The explicit LP: one (mask, rhs) row per cut-set, variables only for
    transmitting terminals, the instance's weights as costs."""

    instance: Instance
    variables: Tuple[int, ...]
    constraints: Tuple[Tuple[int, Fraction], ...]


def enumerate_cutsets(m: int, users: Sequence[int]) -> List[int]:
    """All masks S with 0 != S != M and users not a subset of S, ascending.

    The count is 2^m - 2^(m-|users|) - 1.
    """
    if m > _GUARD_M:
        raise SizeLimitError(f"exact solve limited to m <= {_GUARD_M}")
    amask = 0
    for u in set(users):
        if not 0 <= u < m:
            raise ValueError(f"user index {u} out of range")
        amask |= 1 << u
    if amask == 0:
        raise ValueError("at least one user is required")
    full = (1 << m) - 1
    return [s for s in range(1, full) if (s & amask) != amask]


def build_lp(instance: Instance) -> CutSetLP:
    """Materialize the cut-set LP for an instance.  Right-hand sides are
    conditional entropies given the entire complement.  The size guard
    fires before any entropy is queried."""
    cuts = enumerate_cutsets(instance.m, instance.user_list)
    model = instance.model
    den = model.entropy_denominator
    js = model._joint_scaled
    full = model.full_mask
    total = js(full)
    rows = tuple((s, Fraction(total - js(full & ~s), den)) for s in cuts)
    return CutSetLP(instance, tuple(sorted(instance.transmitters)), rows)


# ---------------------------------------------------------------------------
# Dense exact simplex: maximize c.x subject to A x <= b, x >= 0, with b >= 0
# so that the slack basis is feasible.  Bland's rule throughout.
# ---------------------------------------------------------------------------

@dataclass
class SimplexResult:
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
        arow = [Fraction(v) for v in arow] + [b[i]]
        if len(arow) != ncols + 1:
            raise ValueError("A row length mismatch")
        scale = math.lcm(*(v.denominator for v in arow))
        row = [v.numerator * (scale // v.denominator) for v in arow]
        slack = [0] * nrows
        slack[i] = scale
        rows.append(_primitive(row[:ncols] + slack + row[ncols:]))
    zden = math.lcm(*(v.denominator for v in c))
    zrow = [-v.numerator * (zden // v.denominator) for v in c] + [0] * (nrows + 1)
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


@dataclass(frozen=True)
class OracleSolution:
    value: Fraction
    rates: Tuple[Fraction, ...]
    pivots: int


def solve_exact(lp: CutSetLP) -> OracleSolution:
    """Exact optimum of the cut-set LP: (value, one optimal rate vector).

    Internally solves the LP dual (max sum rhs_S y_S s.t. per-terminal
    column sums <= weight) whose slack basis is feasible, then reads the
    primal rates off the optimal reduced costs.  The returned vector is
    re-checked against every constraint before returning.
    """
    inst = lp.instance
    var_index = {t: i for i, t in enumerate(lp.variables)}
    c = [row[1] for row in lp.constraints]
    b = [inst.weights[t] for t in lp.variables]
    A = []
    for t in lp.variables:
        A.append([(row[0] >> t) & 1 for row in lp.constraints])
    try:
        res = exact_simplex(c, A, b)
    except UnboundedLPError as exc:
        raise InfeasibleLPError(
            "cut-set constraints are unsatisfiable for this instance") from exc
    rates = [Fraction(0)] * inst.m
    for t, i in var_index.items():
        rates[t] = res.duals[i]
    # certify before returning: nonnegative, every cut met, objective equal
    if any(r < 0 for r in rates):
        raise ArithmeticError("simplex returned a negative rate")
    rden = math.lcm(*(r.denominator for r in rates))
    got = _subset_sums([r.numerator * (rden // r.denominator) for r in rates])
    for mask, rhs in lp.constraints:
        if got[mask] * rhs.denominator < rhs.numerator * rden:
            raise ArithmeticError("simplex returned an infeasible rate vector")
    if inst.objective(rates) != res.value:
        raise ArithmeticError("rate vector does not match the optimal value")
    return OracleSolution(res.value, tuple(rates), res.pivots)

"""Exact cut-set linear program for multi-receiver rate allocation.

The baseline optimum that certifies every other solver in the package:
enumerate all cut-sets S (nonempty proper subsets of the terminals that do
not contain all users), require

    sum_{i in S, i transmitting} R_i >= H(X_S | X_(M \\ S)),

and minimize the weighted rate sum exactly over rationals.  Non-transmitting
terminals are pinned to rate zero, which (given the instance decodability
precondition) reproduces the transmitter-restricted regions.

The solver is a dense simplex over Fractions with Bland's anti-cycling
rule, run on the LP dual so the slack basis is immediately feasible; the
primal rates are read off the optimal reduced costs.  Everything here is
exponential in m by design -- exactness over speed -- so m is guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .instance import Instance
from .source import SizeLimitError, mask_to_set

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

_ENUM_GUARD_M = 12
_SOLVE_GUARD_M = 10


class InfeasibleLPError(ValueError):
    """The cut-set constraints cannot be met (the dual is unbounded)."""


@dataclass(frozen=True)
class CutSetLP:
    """The explicit LP: one (mask, rhs, owner) row per cut-set, variables
    only for transmitting terminals, weights as costs.  `owner` is the
    lowest-index user outside the cut (the receiver the cut starves)."""

    instance: Instance
    variables: Tuple[int, ...]
    constraints: Tuple[Tuple[int, Fraction, int], ...]

    @property
    def weights(self) -> Tuple[Fraction, ...]:
        return self.instance.weights


def enumerate_cutsets(m: int, users: Sequence[int]) -> List[int]:
    """All masks S with 0 != S != M and users not a subset of S, ascending.

    The count is 2^m - 2^(m-|users|) - 1.
    """
    if m > _ENUM_GUARD_M:
        raise SizeLimitError(
            f"cut-set enumeration limited to m <= {_ENUM_GUARD_M}")
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
    conditional entropies given the entire complement."""
    model = instance.model
    m = instance.m
    den = model.entropy_denominator
    js = model.joint_entropy_scaled
    full = model.full_mask
    total = js(full)
    users = instance.user_list
    rows = []
    for s in enumerate_cutsets(m, users):
        rhs_scaled = total - js(full & ~s)
        owner = next(u for u in users if not (s >> u) & 1)
        rows.append((s, Fraction(rhs_scaled, den), owner))
    variables = tuple(sorted(instance.transmitters))
    return CutSetLP(instance, variables, tuple(rows))


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


def exact_simplex(c: Sequence, A: Sequence[Sequence], b: Sequence) -> SimplexResult:
    """Maximize c.x s.t. A x <= b, x >= 0 over exact rationals.

    Requires b >= 0.  Entering variable: lowest index with negative
    reduced cost; leaving: lowest basic index among the minimum ratios
    (Bland's rule, so termination is guaranteed).  Raises
    UnboundedLPError when the objective is unbounded.
    """
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    nrows = len(b)
    ncols = len(c)
    if any(v < 0 for v in b):
        raise ValueError("exact_simplex requires b >= 0")
    rows = []
    for i, arow in enumerate(A):
        arow = [Fraction(v) for v in arow]
        if len(arow) != ncols:
            raise ValueError("A row length mismatch")
        slack = [Fraction(0)] * nrows
        slack[i] = Fraction(1)
        rows.append(arow + slack + [b[i]])
    zero = Fraction(0)
    zrow = [-v for v in c] + [zero] * nrows + [zero]
    basis = [ncols + i for i in range(nrows)]
    width = ncols + nrows
    pivots = 0
    while True:
        enter = next((j for j in range(width) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(nrows):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][width] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedLPError("objective unbounded above")
        piv = rows[leave][enter]
        if piv != 1:
            inv = Fraction(1) / piv
            rows[leave] = [v * inv for v in rows[leave]]
        prow = rows[leave]
        for i in range(nrows):
            if i != leave:
                f = rows[i][enter]
                if f:
                    ri = rows[i]
                    rows[i] = [ri[j] - f * prow[j] for j in range(width + 1)]
        f = zrow[enter]
        if f:
            zrow = [zrow[j] - f * prow[j] for j in range(width + 1)]
        basis[leave] = enter
        pivots += 1
    x = [zero] * ncols
    for i, bj in enumerate(basis):
        if bj < ncols:
            x[bj] = rows[i][width]
    duals = tuple(zrow[ncols + i] for i in range(nrows))
    return SimplexResult(zrow[width], tuple(x), duals, pivots)


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
    if inst.m > _SOLVE_GUARD_M:
        raise SizeLimitError(f"exact solve limited to m <= {_SOLVE_GUARD_M}")
    var_index = {t: i for i, t in enumerate(lp.variables)}
    c = [row[1] for row in lp.constraints]
    b = [inst.weights[t] for t in lp.variables]
    A = []
    for t in lp.variables:
        A.append([Fraction(1) if (row[0] >> t) & 1 else Fraction(0)
                  for row in lp.constraints])
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
    for mask, rhs, _ in lp.constraints:
        got = sum((rates[i] for i in mask_to_set(mask)), Fraction(0))
        if got < rhs:
            raise ArithmeticError("simplex returned an infeasible rate vector")
    obj = sum((w * r for w, r in zip(inst.weights, rates)), Fraction(0))
    if obj != res.value:
        raise ArithmeticError("rate vector does not match the optimal value")
    return OracleSolution(res.value, tuple(rates), res.pivots)

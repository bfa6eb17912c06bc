"""Multi-receiver rate allocation by Lagrangian dual decomposition.

The weighted-sum-rate problem couples the receivers only through the
shared per-terminal rates Z_i >= R_i^(l).  Relaxing that coupling with
multipliers splits the problem into one greedy-solvable subproblem per
receiver; the dual is maximized by projected subgradient ascent, and a
primal solution is recovered from the running average of the subproblem
vertices (max per terminal across receivers).  The result carries both
objectives and their gap, so optimality is certified, not assumed.

Multiplier layout: one row per user (sorted order), one column per
terminal.  Column i sums to weight alpha_i with the diagonal entry of a
user's own column pinned to zero.  Dual feasibility of every iterate is
maintained *exactly*: iterates live on a fixed grid of integer multiples
of _QUANTUM (1e-12, divided by the lcm of the weight denominators) with
column sums repaired exactly after each projection, so reported dual
values are true lower bounds and the gap is a genuine certificate.  With
exact weights and entropies, every quantity here is a Fraction; floats
never enter.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction

from .greedy import senders_of, _greedy_rates_scaled
from .instance import Instance
from .source import scale_to_int

__all__ = [
    "Solution",
    "dual_value",
    "duality_gap",
    "solve",
]

# Grid spacing of the multipliers per unit of weight; the solver divides it
# further by the lcm of the weight denominators so every budget is on-grid.
_QUANTUM = Fraction(1, 10 ** 12)


class Solution(namedtuple("Solution", "instance rates primal_objective "
                           "dual_objective gap iterations converged "
                           "dual_matrix")):
    """A certified outcome: primal rates plus the multiplier matrix whose
    dual value witnesses the reported gap.  The rates are a tuple of
    Fractions and the matrix a tuple of Fraction rows, one per user."""

    __slots__ = ()


def dual_value(instance: Instance, lam: Sequence[Sequence]) -> Fraction:
    """Sum of subproblem optima at the given multipliers: a lower bound on
    the optimal weighted rate sum whenever lam is dual feasible.  Each
    subproblem is re-solved greedily from scratch, in integers: each row
    is scaled by the lcm of its denominators before the senders are
    ordered by it."""
    m = instance.m
    model = instance.model
    if len(lam) != instance.k:
        raise ValueError(f"expected {instance.k} multiplier rows, "
                         f"got {len(lam)}")
    total = Fraction(0)
    for r, l in enumerate(instance.user_list):
        row = [Fraction(x) for x in lam[r]]
        if len(row) != m:
            raise ValueError(f"expected {m} multipliers, got {len(row)}")
        den, scaled = scale_to_int(row)
        order = senders_of(instance, l)
        order.sort(key=scaled.__getitem__)
        value = sum(scaled[j] * v
                    for j, v in _greedy_rates_scaled(model, l, order))
        total += Fraction(value, den * model.entropy_denominator)
    return total


def duality_gap(solution: Solution) -> Fraction:
    """Primal minus dual objective, both recomputed from the solution's
    own certificate (fresh greedy calls).  Nonnegative by weak duality."""
    p = solution.instance.objective(solution.rates)
    d = dual_value(solution.instance, solution.dual_matrix)
    gap = p - d
    if gap < 0:
        raise ArithmeticError("weak duality violated by the certificate")
    return gap


# ---------------------------------------------------------------------------
# The solver: all state held as integers on the quantum grid so 50k
# iterations stay cheap and exact.
# ---------------------------------------------------------------------------

def _project_grid(vfine: list[int], refine: int, budget_grid: int,
                  free: Sequence[int]) -> list[int]:
    """Integer-arithmetic projection of a column onto the weight simplex,
    then snap onto the grid.  `vfine` entries are in units of
    1/(grid*refine); the result is in units of 1/grid summing exactly to
    budget_grid.  Only the rows in `free` get mass: a user's own row in
    its column stays zero.

    Sort-and-threshold (Duchi et al., 2008): with the free rows sorted by
    descending entry, the prefixes whose entries all stay above their own
    threshold form a run from the top, so the scan stops at the first
    prefix that fails, and only the rows of the run get mass."""
    k = len(vfine)
    out = [0] * k
    if budget_grid == 0:
        return out
    bfine = budget_grid * refine
    desc = sorted(free, key=vfine.__getitem__, reverse=True)
    prefix = 0
    tau_num = 0
    tau_den = 0
    for r in desc:
        uj = vfine[r]
        prefix += uj
        if uj * (tau_den + 1) <= prefix - bfine:
            break
        tau_num = prefix - bfine
        tau_den += 1
    acc = 0
    rem = []
    denom = tau_den * refine
    for r in desc[:tau_den]:
        q, rr = divmod(vfine[r] * tau_den - tau_num, denom)
        out[r] = q
        acc += q
        if rr:
            rem.append((-rr, r))
    deficit = budget_grid - acc
    if not 0 <= deficit <= len(rem):
        raise ArithmeticError("grid projection lost mass")
    rem.sort()      # largest remainder first, ties by row
    for j in range(deficit):
        out[rem[j][1]] += 1
    return out


def solve(instance: Instance, *, max_iterations: int = 50_000,
          gap_tolerance: Fraction = Fraction(1, 1000),
          trace: Callable | None = None) -> Solution:
    """Minimize the weighted sum of shared rates over all receivers'
    regions by projected subgradient ascent on the dual, recovering
    primal points as uniform averages of the subproblem vertices over two
    streams -- the full history and a doubling window of recent iterates,
    which sheds the bias of early iterates -- and returns the best primal
    point and best dual certificate seen; `converged` records whether the
    gap tolerance was met within the iteration budget.  A single receiver
    is the same loop: its multipliers are the weights, its own zeroed, so
    its first greedy vertex is optimal and the gap is 0 at iteration 1.

    Step n moves the multipliers along the subgradient by the weight-scaled
    harmonic step max(1, max alpha)/(1 + n), which is 1/(1 + n) for unit
    weights; heavier weights need proportionally longer steps.  Equal
    multipliers are ordered by terminal index.

    Keywords: `max_iterations` (default 50000, at least 1) and
    `gap_tolerance` (default 1/1000, positive) bound the run; `trace`, when
    given, receives (iteration, primal value, current dual value, best gap
    so far) each iteration.  Before returning, the gap is re-derived from
    the certificate with fresh greedy calls.
    """
    gap_tolerance = Fraction(gap_tolerance)
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if gap_tolerance <= 0:
        raise ValueError("gap_tolerance must be positive")
    users = instance.user_list
    k = len(users)
    step = max(Fraction(1), max(instance.weights))

    model = instance.model
    m = instance.m
    de = model.entropy_denominator
    # a stable sort by the multipliers gives (multiplier, index) order
    senders = [senders_of(instance, l) for l in users]
    # the rows of each column that get mass: all but its own user's row
    free_of = [[r for r, u in enumerate(users) if u != i] for i in range(m)]

    d_alpha, alpha_scaled = scale_to_int(instance.weights)
    grid = _QUANTUM.denominator * d_alpha
    # a column with no free row (one receiver's own) carries no weight
    budget_grid = [a * _QUANTUM.denominator if free else 0
                   for a, free in zip(alpha_scaled, free_of)]
    # a primal value p is held as the integer p * d_alpha * de * (its count
    # of iterates); a dual value d as d * grid * de
    pden = d_alpha * de
    tol_num = gap_tolerance.numerator
    tol_den = gap_tolerance.denominator

    # multipliers column-major: lam[i] holds column i.  Start from an equal
    # split of each column over its free rows; that point is on the
    # simplex, so projecting it only snaps it to the grid.  A projection
    # returns a new list, so a shallow copy keeps a snapshot.
    lam: list[list[int]] = [
        _project_grid([budget_grid[i]] * k, len(free_of[i]), budget_grid[i],
                      free_of[i])
        for i in range(m)]

    sums = [[0] * m for _ in range(k)]
    wsums = [[0] * m for _ in range(k)]     # window since last restart
    # per-column max over the users of sums / wsums; sums only grow (wsums
    # between restarts), so the maxima are kept as the sums move
    top = [0] * m
    wtop = [0] * m
    wstart = 0
    next_restart = 1
    best_dual_num: int | None = None
    best_dual_lam: list[list[int]] | None = None
    best_primal_num = 0
    best_primal_top: list[int] | None = None
    best_primal_count = 0
    converged = False
    n = 0

    while n < max_iterations:
        n += 1
        if n == next_restart:
            wsums = [[0] * m for _ in range(k)]
            wtop = [0] * m
            wstart = n - 1
            next_restart *= 2
        # subproblem vertices and the dual value at the current multipliers;
        # grads[i] lists the (row, rate) pairs of column i's nonzero rates
        dual_num = 0
        grads: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for r, lamr in enumerate(zip(*lam)):
            order = sorted(senders[r], key=lamr.__getitem__)
            srow = sums[r]
            wrow = wsums[r]
            acc = 0
            for j, v in _greedy_rates_scaled(model, users[r], order):
                s = srow[j] = srow[j] + v
                if s > top[j]:
                    top[j] = s
                s = wrow[j] = wrow[j] + v
                if s > wtop[j]:
                    wtop[j] = s
                acc += lamr[j] * v
                grads[j].append((r, v))
            dual_num += acc

        if best_dual_num is None or dual_num > best_dual_num:
            best_dual_num = dual_num
            best_dual_lam = list(lam)

        wn = n - wstart
        primal_num = sum(map(operator.mul, alpha_scaled, top))
        wprimal_num = sum(map(operator.mul, alpha_scaled, wtop))
        if (best_primal_top is None
                or primal_num * best_primal_count < best_primal_num * n):
            best_primal_num = primal_num
            best_primal_top = list(top)
            best_primal_count = n
        if wprimal_num * best_primal_count < best_primal_num * wn:
            best_primal_num = wprimal_num
            best_primal_top = list(wtop)
            best_primal_count = wn

        gap_num = (best_primal_num * grid
                   - best_dual_num * d_alpha * best_primal_count)
        gap_den = pden * best_primal_count * grid
        if trace is not None:
            trace(n, Fraction(primal_num, pden * n),
                  Fraction(dual_num, grid * de), Fraction(gap_num, gap_den))
        if gap_num * tol_den <= tol_num * gap_den:
            converged = True
            break
        if n == max_iterations:
            break

        theta = Fraction(step.numerator, step.denominator * (n + 1))
        tn, td = theta.numerator, theta.denominator
        refine = td * de
        qmul = tn * grid
        for i, grad in enumerate(grads):
            # a column with a zero subgradient is an on-grid point of its
            # simplex, which the projection leaves fixed
            if not grad:
                continue
            vfine = [x * refine for x in lam[i]]
            for r, g in grad:
                vfine[r] += qmul * g
            lam[i] = _project_grid(vfine, refine, budget_grid[i], free_of[i])

    primal_obj = Fraction(best_primal_num, pden * best_primal_count)
    dual_obj = Fraction(best_dual_num, grid * de)
    gap = primal_obj - dual_obj
    nden = de * best_primal_count
    zvec = tuple(Fraction(t, nden) for t in best_primal_top)
    dmat = tuple(tuple(Fraction(x, grid) for x in row)
                 for row in zip(*best_dual_lam))
    solution = Solution(
        instance=instance, rates=zvec, primal_objective=primal_obj,
        dual_objective=dual_obj, gap=gap, iterations=n, converged=converged,
        dual_matrix=dmat)
    # re-derive both bounds from the certificate; raises if gap < 0
    if duality_gap(solution) != gap:
        raise ArithmeticError("the certificate does not reproduce the gap")
    return solution

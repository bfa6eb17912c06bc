"""Differential tests for the integer cut-set layer and the elimination
kernel.

`greedy.violated_cuts` is the one separation query: for one rate vector,
every receiver's most violated cut, found in integers over one lattice
walk per receiver.  Its witness, `helpers.ref_violated_cuts`, lists one
receiver's violated cuts in Fractions from point queries.  On raw, linear
and tabular sources, some restricted to helpers, the query must hold, in
user order, an entry exactly for each user whose list is nonempty: that
list's largest-deficit, smallest-mask triple, a mask within every mask
of the largest deficit.

`oracle.exact_simplex` computes in integers scaled by a common
denominator.  The Fraction version it replaced is kept below as a
reference, and every hypothesis case requires the same simplex value,
point, duals and pivot count (or the same UnboundedLPError).

`netcode.rationalize` repairs the snapped rates in rounds on each
receiver's most violated cut.  `ref_rationalize` is the per-terminal
repair it replaced: every receiver's cuts re-scanned for each transmitter
in turn, then one check of every cut; it snaps each rate by trying every
denominator in turn, where `rationalize` descends the Stern-Brocot tree.
Both must refuse the same rates as off the domain or short beyond the
snapping slack, `rationalize` naming the most violated cut; a vector it
returns must meet every cut of the witness and be at most the
reference's, coordinate by coordinate.

`gf.rank` and `gf.solve_linear` run on `gf.EchelonBasis`.  The dense
elimination they replaced (every entry through `Field.mul`/`Field.add`,
reduced row echelon form for solving, free variables pinned to zero) is
kept as `ref_rank` and `ref_solve_linear`; ranks must agree, and
`solve_linear` must return the reference's solution exactly when the
system is consistent with full column rank, and None otherwise.

`oracle.solve_exact` optimizes over the receivers' cuts by separation,
one round of `violated_cuts` at a time.  `helpers.full_lp_optimum` writes
the whole cut LP out and solves it in one `exact_simplex` call; the two
values must be equal on the shipped examples, on random instances and on
benchmark-ladder draws up to m = 10, and a float HiGHS solve of the whole
LP (scipy) must agree at m = 12, 14 and 16.

`dual.solve` holds its multipliers column-major, reads sparse vertices
from chains that stop once saturated, projects with an early-stopping
threshold scan and compares bounds in integers.  `ref_solve` is the
plain loop: row-major multipliers, dense vertices with one point query
per chain prefix (`helpers.point_chain`), the full threshold scan,
`Fraction` bounds and the averaged subproblem vertices per receiver.
Every `Solution` field and every trace call must agree, on one
receiver too.  One receiver runs the same loop, and it must return the
test-side greedy vertex (`helpers.edmonds_allocate`) at iteration 1 with
gap 0.
"""

import math
import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from datex.cli import instance_from_dict
from datex.dual import _QUANTUM, solve
from datex.gf import Matrix, make_field, mat_vec, rank, solve_linear
from datex.greedy import violated_cuts
from datex.instance import Instance, InfeasibleInstanceError
from datex.netcode import InfeasibleRatesError, _snap, rationalize
from datex.oracle import UnboundedLPError, build_lp, exact_simplex, solve_exact
from datex.source import LinearSource, TabularSource, mask_to_set, raw_source
from helpers import (edmonds_allocate, example1_instance, example2_instance,
                     example3_instance, full_cut_lp, full_lp_optimum,
                     ladder_draw, meets_cuts, point_chain,
                     random_linear_instance,
                     ref_most_violated_cut, ref_violated_cuts, solve_one,
                     table_values)


# ---------------------------------------------------------------------------
# References: the Fraction implementations
# ---------------------------------------------------------------------------

def ref_exact_simplex(c, A, b):
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
    return zrow[width], tuple(x), duals, pivots


def ref_snap(rate, max_denominator):
    """The rate if its denominator is at most max_denominator, else the
    fraction within 1/(2*max_denominator) of it with the smallest
    denominator and then the smallest absolute numerator, found by trying
    every denominator in turn."""
    rate = Fraction(rate)
    if rate.denominator <= max_denominator:
        return rate
    half = Fraction(1, 2 * max_denominator)
    for q in range(1, max_denominator + 1):
        lo, hi = math.ceil((rate - half) * q), math.floor((rate + half) * q)
        if lo <= hi:
            return Fraction(lo if lo > 0 else hi if hi < 0 else 0, q)
    raise AssertionError("an interval of width 1/D holds a multiple of 1/D")


def ref_rationalize(rates, max_denominator=64, instance=None):
    """The per-terminal repair loop: every receiver's cuts are re-scanned
    for each transmitter in turn."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    snapped = [ref_snap(r, max_denominator) for r in rates]
    if any(r < 0 for r in snapped):
        raise ValueError("rates must be nonnegative")
    if instance is not None:
        if len(snapped) != instance.m:
            raise ValueError("rate vector length mismatch")
        snap_slack = Fraction(len(snapped), 2 * max_denominator)
        for i in sorted(instance.transmitters):
            worst = Fraction(0)
            for l in instance.user_list:
                for cut, need, got in ref_violated_cuts(snapped, instance, l):
                    deficit = need - got
                    if deficit > snap_slack:
                        raise InfeasibleRatesError(
                            f"receiver {l}: cut {set(mask_to_set(cut))} is "
                            f"short by {deficit}, more than snapping to the "
                            f"1/{max_denominator} grid can explain")
                    if (cut >> i) & 1 and deficit > worst:
                        worst = deficit
            if worst > 0:
                snapped[i] += worst
        for l in instance.user_list:
            bad = ref_violated_cuts(snapped, instance, l)
            if bad:
                cut, need, got = bad[0]
                raise InfeasibleRatesError(
                    f"receiver {l}: cut {set(mask_to_set(cut))} needs rate "
                    f"{need}, rates provide {got}")
    L = 1
    for r in snapped:
        L = math.lcm(L, r.denominator)
    if L > max_denominator:
        raise InfeasibleRatesError(
            f"chunk count {L} exceeds max_denominator={max_denominator}")
    return L, tuple(int(r * L) for r in snapped)


def _ref_eliminate(M, reduced):
    """Dense Gaussian elimination on a copy: (rows, pivot columns)."""
    F = M.field
    mul, add, inv, neg = F.mul, F.add, F.inv, F.neg
    rows = [list(M.row(i)) for i in range(M.nrows)]
    pivots = []
    r = 0
    for c in range(M.ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = inv(rows[r][c])
        if pv != 1:
            rows[r] = [mul(pv, a) for a in rows[r]]
        lo = 0 if reduced else r + 1
        for i in range(lo, len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                nf = neg(f)
                ri, rr = rows[i], rows[r]
                for j in range(c, M.ncols):
                    if rr[j]:
                        ri[j] = add(ri[j], mul(nf, rr[j]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, tuple(pivots)


def ref_rank(M):
    return len(_ref_eliminate(M, reduced=False)[1])


def ref_solve_linear(M, b):
    """One solution of M x = b with free variables pinned to zero, or None
    when inconsistent."""
    aug = Matrix(M.field, M.nrows, M.ncols + 1,
                 [a for i in range(M.nrows) for a in M.row(i) + (b[i],)])
    rows, pivots = _ref_eliminate(aug, reduced=True)
    if M.ncols in pivots:
        return None
    x = [0] * M.ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][M.ncols]
    return tuple(x)


def ref_project_grid(vfine, refine, budget_grid, pinned):
    """The grid projection with a full sort and a threshold scan over
    every free row."""
    k = len(vfine)
    out = [0] * k
    if budget_grid == 0:
        return out
    free = [r for r in range(k) if r != pinned]
    bfine = budget_grid * refine
    u = sorted((vfine[r] for r in free), reverse=True)
    prefix = 0
    tau_num = 0
    tau_den = 1
    for j, uj in enumerate(u, start=1):
        prefix += uj
        if uj * j > prefix - bfine:
            tau_num = prefix - bfine
            tau_den = j
    acc = 0
    rem = []
    denom = tau_den * refine
    for r in free:
        d = vfine[r] * tau_den - tau_num
        if d > 0:
            q, rr = divmod(d, denom)
            out[r] = q
            acc += q
            if rr:
                rem.append((-rr, r))
    deficit = budget_grid - acc
    if not 0 <= deficit <= len(rem):
        raise ArithmeticError("grid projection lost mass")
    rem.sort()
    for j in range(deficit):
        out[rem[j][1]] += 1
    return out


def ref_dual_value(instance, lam):
    """Sum of the subproblem optima, each from `edmonds_allocate` on the
    instance reweighted by the Fraction multipliers."""
    total = Fraction(0)
    for r, l in enumerate(instance.user_list):
        row = [Fraction(x) for x in lam[r]]
        reweighted = Instance(instance.model, instance.users, row,
                              instance.transmitters)
        rates = edmonds_allocate(reweighted, l)
        total += sum((a * b for a, b in zip(row, rates)), Fraction(0))
    return total


def ref_solve(instance, *, max_iterations=50_000,
              gap_tolerance=Fraction(1, 1000), trace=None):
    """The dual solver with row-major multipliers, chains from one point
    query per prefix (walked to the end), Fraction primal bounds and gap,
    and the averaged subproblem vertices of the best primal point kept per
    receiver; returns the Solution fields (and averaged_matrix) as a dict.
    Step n is max(1, max weight)/(1 + n); equal multipliers go by index.
    A column whose only row is its own user's (one receiver) has budget 0."""
    users = instance.user_list
    k = len(users)
    step = max(Fraction(1), *instance.weights)
    model = instance.model
    m = instance.m
    de = model.entropy_denominator
    row_of_user = {u: r for r, u in enumerate(users)}
    senders_of = [[t for t in range(m) if t in instance.transmitters and t != l]
                  for l in users]
    columns = sorted(instance.transmitters)
    d_alpha = 1
    for w in instance.weights:
        d_alpha = math.lcm(d_alpha, w.denominator)
    alpha_scaled = [int(w * d_alpha) for w in instance.weights]
    grid = _QUANTUM.denominator * d_alpha
    budget_grid = [0 if users == (i,) else int(w * grid)
                   for i, w in enumerate(instance.weights)]
    lam = [[0] * m for _ in range(k)]
    for i in range(m):
        pin = row_of_user.get(i)
        col = ref_project_grid([budget_grid[i]] * k, k - (pin is not None),
                               budget_grid[i], pin)
        for r in range(k):
            lam[r][i] = col[r]
    sums = [[0] * m for _ in range(k)]
    wsums = [[0] * m for _ in range(k)]
    wstart = 0
    next_restart = 1
    best_dual_num = None
    best_dual_lam = None
    best_primal = None
    best_primal_sums = None
    best_primal_count = 0
    converged = False
    n = 0
    while n < max_iterations:
        n += 1
        if n == next_restart:
            wsums = [[0] * m for _ in range(k)]
            wstart = n - 1
            next_restart *= 2
        dual_num = 0
        rt = []
        for r in range(k):
            order = sorted(senders_of[r], key=lam[r].__getitem__)
            row = point_chain(model, 1 << users[r], order)
            for j in order:
                sums[r][j] += row[j]
                wsums[r][j] += row[j]
                dual_num += lam[r][j] * row[j]
            rt.append(row)
        if best_dual_num is None or dual_num > best_dual_num:
            best_dual_num = dual_num
            best_dual_lam = [list(r_) for r_ in lam]
        wn = n - wstart
        primal_num = sum(alpha_scaled[i] * max(sums[r][i] for r in range(k))
                         for i in columns)
        wprimal_num = sum(alpha_scaled[i] * max(wsums[r][i] for r in range(k))
                          for i in columns)
        primal = Fraction(primal_num, d_alpha * de * n)
        if best_primal is None or primal < best_primal:
            best_primal = primal
            best_primal_sums = [list(r_) for r_ in sums]
            best_primal_count = n
        wprimal = Fraction(wprimal_num, d_alpha * de * wn)
        if wprimal < best_primal:
            best_primal = wprimal
            best_primal_sums = [list(r_) for r_ in wsums]
            best_primal_count = wn
        gap = best_primal - Fraction(best_dual_num, grid * de)
        if trace is not None:
            trace(n, primal, Fraction(dual_num, grid * de), gap)
        if gap <= gap_tolerance:
            converged = True
            break
        if n == max_iterations:
            break
        theta = step / (1 + n)
        refine = theta.denominator * de
        qmul = theta.numerator * grid
        for i in columns:
            if not any(rt[r][i] for r in range(k)):
                continue
            vfine = [lam[r][i] * refine + qmul * rt[r][i] for r in range(k)]
            col = ref_project_grid(vfine, refine, budget_grid[i],
                                   row_of_user.get(i))
            for r in range(k):
                lam[r][i] = col[r]
    dual_obj = Fraction(best_dual_num, grid * de)
    nden = de * best_primal_count
    avg = tuple(tuple(Fraction(best_primal_sums[r][i], nden) for i in range(m))
                for r in range(k))
    rates = tuple(max(avg[r][i] for r in range(k)) for i in range(m))
    dmat = tuple(tuple(Fraction(best_dual_lam[r][i], grid) for i in range(m))
                 for r in range(k))
    gap = best_primal - dual_obj
    if instance.objective(rates) - ref_dual_value(
            instance, dmat) != gap:
        raise ArithmeticError("the certificate does not reproduce the gap")
    return {"rates": rates, "primal_objective": best_primal,
            "dual_objective": dual_obj, "gap": gap, "iterations": n,
            "converged": converged, "dual_matrix": dmat,
            "averaged_matrix": avg}


def _outcome(fn, *args, **kwargs):
    """fn's result, or its exception as (type, text)."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Instances: linear, raw and tabular, some restricted to helpers
# ---------------------------------------------------------------------------

def _tabular_instance(rng):
    """Two random linear models on the same terminals, tabulated, scaled by
    rationals and added: a polymatroid whose entropy denominator is > 1."""
    a = random_linear_instance(rng, multi_user=True)
    m = a.m
    while True:
        b = random_linear_instance(rng, multi_user=True)
        if b.m == m:
            break
    fa = Fraction(rng.randint(1, 9), rng.randint(2, 7))
    fb = Fraction(rng.randint(0, 5), rng.randint(1, 5))
    values = [fa * x + fb * y for x, y in zip(table_values(a.model),
                                              table_values(b.model))]
    transmitters = None
    if rng.random() < 0.3:
        transmitters = [i for i in range(m) if i not in a.users]
    return Instance(TabularSource(values), a.user_list, a.weights,
                    transmitters=transmitters)


def _raw_instance(rng):
    m = rng.randint(2, 11)   # past one 8-terminal block of the raw oracle
    n = rng.randint(1, 12)
    owned = [[j for j in range(n) if rng.random() < 0.4] for _ in range(m)]
    users = rng.sample(range(m), rng.randint(1, m))
    transmitters = None
    if rng.random() < 0.3:
        transmitters = [i for i in range(m) if rng.random() < 0.7]
    weights = [rng.randint(1, 4) for _ in range(m)]
    return Instance(raw_source(owned, n), users, weights,
                    transmitters=transmitters)


def _instance(rng):
    while True:
        kind = rng.choice(["linear", "raw", "tabular"])
        try:
            if kind == "linear":
                return random_linear_instance(
                    rng, multi_user=rng.random() < 0.6,
                    helpers_only=rng.random() < 0.3)
            if kind == "raw":
                return _raw_instance(rng)
            return _tabular_instance(rng)
        except InfeasibleInstanceError:
            continue


_DENOMINATORS = [1, 2, 3, 7, 64, 10 ** 9 + 7, 2 ** 61 - 1]


def _rates(rng, instance):
    """Random rates on the transmitters, some with large denominators."""
    out = []
    for i in range(instance.m):
        if i not in instance.transmitters or rng.random() < 0.2:
            out.append(Fraction(0))
            continue
        d = rng.choice(_DENOMINATORS)
        out.append(Fraction(rng.randint(0, 4 * d), d))
    return out


# ---------------------------------------------------------------------------
# violated_cuts
# ---------------------------------------------------------------------------

def _check_most_violated_cut(rates, inst):
    """The one query against each user's witness list: an entry, in user
    order, exactly for the users whose list is nonempty, holding its
    largest-deficit, smallest-mask triple, in Fractions, whose mask lies
    within every mask of the largest deficit."""
    got = violated_cuts(rates, inst)
    want = {l: ref_most_violated_cut(rates, inst, l) for l in inst.user_list}
    assert got == {l: v for l, v in want.items() if v is not None}
    assert list(got) == sorted(got)
    for l, (mask, need, have) in got.items():
        assert [type(need), type(have)] == [Fraction, Fraction]
        assert all(mask & ~cut == 0
                   for cut, n, h in ref_violated_cuts(rates, inst, l)
                   if n - h == need - have)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_violated_cuts_match_the_fraction_reference(seed):
    """Linear, raw and tabular instances (entropy denominators above 1),
    some restricted to helpers; rates with large denominators."""
    rng = random.Random(seed)
    inst = _instance(rng)
    _check_most_violated_cut(_rates(rng, inst), inst)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_violated_cuts_break_ties_to_the_smallest_cut(seed):
    """Zero and small integer rates, where many cuts share the largest
    deficit, so the tie rule decides."""
    rng = random.Random(seed)
    inst = _instance(rng)
    rates = [rng.randint(0, 1) if i in inst.transmitters else 0
             for i in range(inst.m)]
    _check_most_violated_cut(rates, inst)
    _check_most_violated_cut([0] * inst.m, inst)


def test_violated_cuts_on_tabular_sources_with_a_denominator():
    rng = random.Random(7)
    seen = 0
    while seen < 20:
        try:
            inst = _tabular_instance(rng)
        except InfeasibleInstanceError:
            continue
        if inst.model.entropy_denominator == 1:
            continue
        seen += 1
        _check_most_violated_cut(_rates(rng, inst), inst)


def test_violated_cuts_reject_the_same_rates():
    model = raw_source([[0], [0, 1], [1], [0, 1]], 2)
    inst = Instance(model, [0, 2])
    restricted = Instance(model, [0, 2], transmitters=[1, 3])
    cases = [(inst, [-1, 0, 0, 0]), (inst, [Fraction(-1, 10 ** 12), 0, 0, 0]),
             (inst, [0, 0, 0]), (inst, [0] * 5), (restricted, [1, 1, 0, 0])]
    for instance, rates in cases:
        got = _outcome(violated_cuts, rates, instance)
        for l in instance.user_list:
            assert got == _outcome(ref_violated_cuts, rates, instance, l)
        assert got[0] is ValueError
    assert _outcome(violated_cuts, [1, 1, 0, 0], restricted) == (
        ValueError, "terminal 0 does not transmit but has rate 1")


# ---------------------------------------------------------------------------
# exact_simplex
# ---------------------------------------------------------------------------

_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def _lp(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 5))
    c = [draw(_RATIONALS) for _ in range(ncols)]
    A = [[draw(_RATIONALS) for _ in range(ncols)] for _ in range(nrows)]
    # b = 0 rows make the vertex degenerate, so Bland's tie-break decides
    b = [draw(st.one_of(st.just(Fraction(0)),
                        st.fractions(0, 6, max_denominator=12)))
         for _ in range(nrows)]
    if draw(st.booleans()):   # a box row bounds the region
        A.append([Fraction(1)] * ncols)
        b.append(draw(st.fractions(0, 8, max_denominator=12)))
    return c, A, b


def _simplex(c, A, b):
    res = exact_simplex(c, A, b)
    return res.value, res.x, res.duals, res.pivots


@given(_lp())
@settings(max_examples=150, deadline=None)
def test_exact_simplex_matches_the_fraction_reference(lp):
    c, A, b = lp
    got = _outcome(_simplex, c, A, b)
    assert got == _outcome(ref_exact_simplex, c, A, b)
    if not isinstance(got[0], type):
        assert all(type(v) is Fraction for v in (got[0], *got[1], *got[2]))


@given(st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_exact_simplex_matches_on_cut_set_lps(seed):
    """The kind of LP solve_exact poses (0/1 incidence, entropy rhs), here
    the whole cut LP at once, kept to m <= 10."""
    rng = random.Random(seed)
    inst = _instance(rng)
    while inst.m > 10:
        inst = _instance(rng)
    rows = full_cut_lp(inst)
    senders = sorted(inst.transmitters)
    c = [rhs for _, rhs in rows]
    b = [inst.weights[t] for t in senders]
    A = [[(mask >> t) & 1 for mask, _ in rows] for t in senders]
    assert _outcome(_simplex, c, A, b) == _outcome(ref_exact_simplex, c, A, b)


# ---------------------------------------------------------------------------
# solve_exact's cut loop against the whole cut LP
# ---------------------------------------------------------------------------

def _ladder_instance(seed, kind, m):
    """bench/ladder.py `draw(seed, kind, m, 0)` as an Instance."""
    return instance_from_dict(ladder_draw(seed, kind, m))


def test_cut_loop_matches_the_full_lp_on_the_examples():
    for inst in (example1_instance(), example2_instance(),
                 example2_instance(characteristic=2), example3_instance()):
        assert solve_exact(build_lp(inst)).value == full_lp_optimum(inst)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_cut_loop_matches_the_full_lp(seed):
    """Linear, raw and tabular instances, some restricted to helpers."""
    rng = random.Random(seed)
    inst = _instance(rng)
    while inst.m > 10:      # the full LP stays small
        inst = _instance(rng)
    assert solve_exact(build_lp(inst)).value == full_lp_optimum(inst)


@pytest.mark.parametrize("kind", ["raw", "linear"])
@pytest.mark.parametrize("m", [6, 8, 10])
def test_cut_loop_matches_the_full_lp_on_ladder_draws(kind, m):
    for seed in range(1, 11):
        inst = _ladder_instance(seed, kind, m)
        assert solve_exact(build_lp(inst)).value == full_lp_optimum(inst), seed


@pytest.mark.parametrize("kind, m", [("raw", 12), ("raw", 14), ("raw", 16),
                                     ("linear", 12), ("linear", 14),
                                     ("linear", 16)])
def test_cut_loop_matches_highs_on_larger_ladder_draws(kind, m):
    """An independent float solver on the whole cut LP, past the sizes the
    exact witness is run at."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    inst = _ladder_instance(1, kind, m)
    rows = full_cut_lp(inst)
    senders = sorted(inst.transmitters)
    res = scipy_optimize.linprog(
        [float(inst.weights[t]) for t in senders],
        A_ub=[[-float(mask >> t & 1) for t in senders] for mask, _ in rows],
        b_ub=[-float(rhs) for _, rhs in rows], bounds=(0, None),
        method="highs")
    assert res.status == 0
    value = solve_exact(build_lp(inst)).value
    assert abs(res.fun - float(value)) <= 1e-9


# ---------------------------------------------------------------------------
# rationalize
# ---------------------------------------------------------------------------

def _raised(outcome):
    return isinstance(outcome[0], type)


def _check_rationalize(rates, inst, D):
    """`rationalize` against the per-terminal repair `ref_rationalize`.
    Both refuse the same rates as off the domain or short beyond the
    snapping slack (the same class), and such an error names the first
    receiver's most violated cut of the snapped vector.  A returned vector
    meets the witness's every cut, lies on the 1/D grid and is at most the
    reference's, coordinate by coordinate, when that returns too.  Only
    the chunk-count refusal may differ: the rounds raise rates by other
    amounts, so L can fall on either side of D.  Returns both outcomes."""
    got = _outcome(rationalize, rates, inst, D)
    ref = _outcome(ref_rationalize, rates, D, inst)
    beyond = [_raised(o) and "short by" in o[1] for o in (got, ref)]
    domain = [_raised(o) and o[0] is ValueError for o in (got, ref)]
    assert beyond[0] == beyond[1] and domain[0] == domain[1]
    if domain[0]:
        assert got == ref
        return got, ref
    snapped = [ref_snap(r, D) for r in rates]
    slack = Fraction(inst.m, 2 * D)
    worst = [(l, ref_most_violated_cut(snapped, inst, l))
             for l in inst.user_list]
    short = [(l, v) for l, v in worst if v and v[1] - v[2] > slack]
    assert bool(short) == beyond[0]
    if short:
        l, (cut, need, have) = short[0]
        assert got == (InfeasibleRatesError,
                       f"receiver {l}: cut {set(mask_to_set(cut))} is short "
                       f"by {need - have}, more than snapping to the 1/{D} "
                       f"grid can explain")
    elif _raised(got):
        assert got[0] is InfeasibleRatesError
        assert got[1].startswith("chunk count ")
    else:
        L, chunks = got
        new = [Fraction(c, L) for c in chunks]
        assert L <= D and all(a >= b for a, b in zip(new, snapped))
        assert not any(ref_violated_cuts(new, inst, l) for l in inst.user_list)
        if not _raised(ref):
            old = [Fraction(c, ref[0]) for c in ref[1]]
            assert all(a <= b for a, b in zip(new, old))
    return got, ref


@given(st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_rationalize_matches_the_per_terminal_loop(seed):
    """Optimal rates moved by noise up to twice the snapping slack: some
    snap cleanly, some need repairs, some are too short to repair."""
    rng = random.Random(seed)
    inst = _instance(rng)
    opt = solve_exact(build_lp(inst)).rates
    D = rng.choice([1, 2, 3, 4, 8, 64])
    slack = Fraction(inst.m, 2 * D)
    rates = []
    for i, r in enumerate(opt):
        if i in inst.transmitters:
            noise = slack * Fraction(rng.randint(-200, 200), 100)
            r = max(r + noise, Fraction(0))
        rates.append(r)
    _check_rationalize(rates, inst, D)


@given(st.fractions(min_value=0), st.integers(1, 100))
@settings(max_examples=300, deadline=None)
def test_snap_takes_the_simplest_fraction_nearby(rate, D):
    # rationalize snaps only rates that passed check_rate_domain
    assert _snap(rate, D) == ref_snap(rate, D)
    assert _snap(rate, D).denominator <= D
    assert abs(_snap(rate, D) - rate) <= Fraction(1, 2 * D)


def test_rationalize_matches_with_several_repairs():
    inst = example2_instance()
    rates = [Fraction(2, 5)] * 6
    got = rationalize(rates, max_denominator=1, instance=inst)
    assert got == ref_rationalize(rates, max_denominator=1, instance=inst)
    assert got == (1, (2, 2, 1, 0, 0, 0))   # three terminals raised from 0


@pytest.mark.parametrize("rates, D", [
    ([0] * 6, 64),                                     # short beyond the slack
    ([Fraction(1, 4), 0, 0, Fraction(1, 2), 0, Fraction(1, 2)], 64),
    ([Fraction(1, 3), Fraction(1, 64)] + [0] * 4, 64),  # a deficit, not L
    ([Fraction(1, 3)] * 6, 2),                          # repaired, then L = 2
])
def test_rationalize_raises_the_same_errors(rates, D):
    got, ref = _check_rationalize(rates, example2_instance(), D)
    assert _raised(got) == _raised(ref)


# ---------------------------------------------------------------------------
# rank and solve_linear
# ---------------------------------------------------------------------------

_FIELDS = [make_field(2), make_field(3), make_field(5), make_field(2, 2),
           make_field(3, 2), make_field(2, 8)]


@st.composite
def _system(draw):
    """(M, bs) over one of the fields: no rows, no columns, tall, wide, or
    rank-deficient (a product through a narrower inner dimension); each of
    the zero to four right-hand sides in bs is planted (consistent) or
    drawn at random (often inconsistent)."""
    F = draw(st.sampled_from(_FIELDS))
    shape = draw(st.sampled_from(["no rows", "no columns", "tall", "wide",
                                  "deficient"]))
    small, large = st.integers(1, 3), st.integers(4, 7)
    if shape == "no rows":
        n, m = 0, draw(st.integers(0, 5))
    elif shape == "no columns":
        n, m = draw(st.integers(0, 5)), 0
    elif shape == "tall":
        n, m = draw(large), draw(small)
    elif shape == "wide":
        n, m = draw(small), draw(large)
    else:
        n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def entries(count):
        return draw(st.lists(st.integers(0, F.q - 1), min_size=count,
                             max_size=count))

    if shape == "deficient":
        r = draw(st.integers(0, min(n, m) - 1))
        M = Matrix(F, n, r, entries(n * r)) @ Matrix(F, r, m, entries(r * m))
    else:
        M = Matrix(F, n, m, entries(n * m))
    bs = [mat_vec(M, entries(m)) if draw(st.booleans()) else tuple(entries(n))
          for _ in range(draw(st.integers(0, 4)))]
    return M, bs


@given(_system())
@settings(max_examples=300, deadline=None)
def test_rank_matches_the_dense_reference(system):
    M, _ = system
    assert rank(M) == ref_rank(M)


@given(_system())
@settings(max_examples=300, deadline=None)
def test_solve_linear_matches_the_dense_reference(system):
    """One right-hand side at a time, as a one-column matrix, and all of
    them as the columns of one matrix, solved with one elimination."""
    M, bs = system
    expected = [None if ref_rank(M) < M.ncols   # no unique solution
                else ref_solve_linear(M, b) for b in bs]
    assert [solve_one(M, b) for b in bs] == expected
    B = Matrix(M.field, M.nrows, len(bs),
               [v for row in zip(*bs) for v in row] if bs else [])
    assert solve_linear(M, B) == expected


# ---------------------------------------------------------------------------
# dual.solve
# ---------------------------------------------------------------------------

def _solve_case(rng):
    """An instance and solver settings: one receiver or several; a raw,
    GF(3), GF(2^2) or tabular source; integer weights of 1 to 4, which
    scale the step, or fractional ones; sometimes restricted transmitters;
    1 to 60 iterations.  Sometimes one terminal sees the whole file, so every
    chain that visits it saturates there; given weight 0, its multipliers
    stay 0, so it leads every chain in which each sender of lower index
    has a positive multiplier, and such a chain saturates at its first
    sender."""
    while True:
        kind = rng.choice(["raw", "GF(3)", "GF(2^2)", "tabular"])
        m = rng.randint(3, 8)
        n = rng.randint(2, 3 * m if kind == "raw" else m)
        whole = rng.randrange(m) if rng.random() < 0.3 else None
        if kind == "raw":
            owned = [[j for j in range(n) if rng.random() < 0.5]
                     for _ in range(m)]
            if whole is not None:
                owned[whole] = list(range(n))
            model = raw_source(owned, n)
        else:
            F = make_field(2, 2) if kind == "GF(2^2)" else make_field(3)
            rows = [[[rng.randrange(F.q) for _ in range(n)]
                     for _ in range(rng.randint(1, 2))] for _ in range(m)]
            if whole is not None:
                rows[whole] = [[int(a == b) for a in range(n)]
                               for b in range(n)]
            model = LinearSource(F, n, [Matrix.from_rows(F, r, ncols=n)
                                        for r in rows])
            if kind == "tabular":
                scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
                model = TabularSource([scale * v
                                       for v in table_values(model)])
        users = rng.sample(range(m), rng.randint(1, m // 2 + 1))
        if rng.random() < 0.5:
            weights = [rng.randint(1, 4) for _ in range(m)]
        else:
            dens = [rng.randint(1, 7) for _ in range(m)]
            weights = [Fraction(rng.randint(d, 4 * d), d) for d in dens]
        transmitters = None
        if rng.random() < 0.3:
            transmitters = [i for i in range(m) if rng.random() < 0.7]
        if whole is not None and rng.random() < 0.5:
            if transmitters is not None and whole not in transmitters:
                transmitters.append(whole)
            weights[whole] = 0
        try:
            inst = Instance(model, users, weights, transmitters=transmitters)
        except InfeasibleInstanceError:
            continue
        config = dict(
            max_iterations=rng.randint(1, 60),
            gap_tolerance=rng.choice([Fraction(1, 10 ** 9), Fraction(1, 10 ** 9),
                                      Fraction(1, 1000), Fraction(1, 10)]))
        return inst, config


@given(st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_solve_matches_the_row_major_reference(seed):
    """Every Solution field and every trace call agree, and the reference's
    averaged vertex of each receiver meets that receiver's cuts."""
    inst, config = _solve_case(random.Random(seed))
    got_trace, ref_trace = [], []
    sol = solve(inst, **config, trace=lambda *a: got_trace.append(a))
    ref = ref_solve(inst, **config, trace=lambda *a: ref_trace.append(a))
    assert got_trace == ref_trace
    assert all(type(x) is Fraction for row in got_trace for x in row[1:])
    assert {f: getattr(sol, f) for f in ref if f != "averaged_matrix"} \
        == {f: v for f, v in ref.items() if f != "averaged_matrix"}
    for row, l in zip(ref["averaged_matrix"], inst.user_list):
        assert meets_cuts(row, inst, l)


def _one_receiver_instance(rng):
    """One receiver of a raw, linear or tabular instance, some restricted
    to helpers, with about a third of the weights set to 0."""
    while True:
        inst = _instance(rng)
        weights = [0 if rng.random() < 0.3 else w for w in inst.weights]
        try:
            return Instance(inst.model, [rng.choice(inst.user_list)],
                            weights, transmitters=inst.transmitters)
        except InfeasibleInstanceError:
            continue


@given(st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_one_receiver_solve_is_the_greedy_vertex(seed):
    """One receiver runs the general loop: its multipliers are the weights
    with its own zeroed, so iteration 1 returns the greedy vertex with
    both bounds equal and one trace call."""
    inst = _one_receiver_instance(random.Random(seed))
    (l,) = inst.user_list
    calls = []
    sol = solve(inst, trace=lambda *a: calls.append(a))
    rates = edmonds_allocate(inst, l)
    value = inst.objective(rates)
    assert sol.rates == rates
    assert (sol.iterations, sol.converged, sol.gap) == (1, True, 0)
    assert sol.primal_objective == sol.dual_objective == value
    assert sol.dual_matrix == (tuple(0 if i == l else w
                                     for i, w in enumerate(inst.weights)),)
    assert calls == [(1, value, value, 0)]

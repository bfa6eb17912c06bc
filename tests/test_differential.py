"""Differential tests for the integer cut-set layer and the elimination
kernel.

`greedy.violated_cuts`, `oracle.exact_simplex` and `netcode.rationalize`
compute in integers scaled by a common denominator.  The Fraction versions
they replaced are kept below as references, in the same arithmetic and
order (the cut enumeration and the final feasibility check inlined), and
every hypothesis case requires identical results from both:
the same violation triples in the same order, the same simplex value,
point, duals and pivot count (or the same UnboundedLPError), and the same
(L, chunks) or the same error text from rationalize.  The reference
rationalize snaps each rate by trying every denominator in turn, where
`rationalize` descends the Stern-Brocot tree.

`gf.rank` and `gf.solve_linear` run on `gf.EchelonBasis`.  The dense
elimination they replaced (every entry through `Field.mul`/`Field.add`,
reduced row echelon form for solving, free variables pinned to zero) is
kept as `ref_rank` and `ref_solve_linear`; ranks must agree, and
`solve_linear` must return the reference's solution exactly when the
system is consistent with full column rank, and None otherwise.

`dual.solve` holds its multipliers column-major, stops chains and their
accumulation once saturated, projects with an early-stopping threshold
scan and compares bounds in integers.  `ref_solve` is the plain loop:
row-major multipliers, one point query per chain prefix, the full
threshold scan, `Fraction` bounds and the averaged subproblem vertices per
receiver.  Every `Solution` field and every trace call must agree.
"""

import math
import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from datex.dual import _QUANTUM, solve
from datex.gf import Matrix, make_field, mat_vec, rank, solve_linear
from datex.greedy import edmonds_allocate, violated_cuts
from datex.instance import Instance, InfeasibleInstanceError
from datex.netcode import InfeasibleRatesError, _snap, rationalize
from datex.oracle import UnboundedLPError, build_lp, exact_simplex, solve_exact
from datex.source import (LinearSource, SizeLimitError, SourceModel,
                          TabularSource, mask_to_set, raw_source)
from helpers import (example2_instance, random_linear_instance, solve_one,
                     table_values)


# ---------------------------------------------------------------------------
# References: the Fraction implementations
# ---------------------------------------------------------------------------

def ref_violated_cuts(rates, instance, target, limit=None):
    m = instance.m
    if m > 20:
        raise SizeLimitError("feasibility check limited to m <= 20")
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range")
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
            if limit is not None and len(out) >= limit:
                break
    return out


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
            bad = ref_violated_cuts(snapped, instance, l, limit=1)
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
    Multi-receiver instances only."""
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
    budget_grid = [int(w * grid) for w in instance.weights]
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
            row = SourceModel.chain_scaled(model, 1 << users[r], order)
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

@given(st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_violated_cuts_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    inst = _instance(rng)
    rates = _rates(rng, inst)
    limit = rng.choice([None, None, 1, 2, 5])
    for target in range(inst.m):
        got = violated_cuts(rates, inst, target, limit=limit)
        assert got == ref_violated_cuts(rates, inst, target, limit=limit)
        assert [type(v) for t in got for v in t[1:]] == [Fraction] * (2 * len(got))


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
        rates = _rates(rng, inst)
        for target in inst.user_list:
            assert (violated_cuts(rates, inst, target)
                    == ref_violated_cuts(rates, inst, target))


def test_violated_cuts_reject_the_same_rates():
    model = raw_source([[0], [0, 1], [1], [0, 1]], 2)
    inst = Instance(model, [0, 2])
    restricted = Instance(model, [0, 2], transmitters=[1, 3])
    cases = [(inst, [-1, 0, 0, 0], 0), (inst, [Fraction(-1, 10 ** 12), 0, 0, 0], 0),
             (inst, [0, 0, 0], 0), (inst, [0] * 5, 0), (inst, [0] * 4, 4),
             (restricted, [1, 1, 0, 0], 2)]
    for instance, rates, target in cases:
        got = _outcome(violated_cuts, rates, instance, target)
        assert got == _outcome(ref_violated_cuts, rates, instance, target)
        assert got[0] is ValueError
    assert _outcome(violated_cuts, [1, 1, 0, 0], restricted, 2) == (
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
    """The LPs solve_exact actually poses: 0/1 incidence, entropy rhs."""
    rng = random.Random(seed)
    inst = _instance(rng)
    while inst.m > 10:
        inst = _instance(rng)
    lp = build_lp(inst)
    c = [row[1] for row in lp.constraints]
    b = [inst.weights[t] for t in lp.variables]
    A = [[(row[0] >> t) & 1 for row in lp.constraints] for t in lp.variables]
    assert _outcome(_simplex, c, A, b) == _outcome(ref_exact_simplex, c, A, b)


# ---------------------------------------------------------------------------
# rationalize
# ---------------------------------------------------------------------------

@given(st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_rationalize_matches_the_per_terminal_loop(seed):
    """Optimal rates moved by noise up to twice the snapping slack: some
    snap cleanly, some need repairs, some are too short to repair."""
    rng = random.Random(seed)
    inst = _instance(rng)
    while inst.m > 10:        # the exact LP's guard
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
    assert (_outcome(rationalize, rates, inst, D)
            == _outcome(ref_rationalize, rates, D, inst))


@given(st.fractions(), st.integers(1, 100))
@settings(max_examples=300, deadline=None)
def test_snap_takes_the_simplest_fraction_nearby(rate, D):
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
    inst = example2_instance()
    assert (_outcome(rationalize, rates, inst, D)
            == _outcome(ref_rationalize, rates, D, inst))


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
    """A multi-receiver instance and solver settings: a raw, GF(3),
    GF(2^2) or tabular source; integer weights of 1 to 4, which scale the
    step, or fractional ones; sometimes restricted transmitters; 1 to 60
    iterations.  Sometimes one terminal sees the whole file, so every
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
        users = rng.sample(range(m), rng.randint(2, m // 2 + 1))
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
        assert not violated_cuts(row, inst, l, limit=1)

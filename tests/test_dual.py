"""Tests for the dual-decomposition solver: its keywords, the starting
multipliers, the grid projection against an exact test-side reference,
weak/strong duality against the LP oracle, and the solver's certificates
on the worked examples."""

import inspect
import random
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import datex.dual as dual_module
from datex.dual import _QUANTUM, _project_grid, dual_value, duality_gap, solve
from datex.instance import Instance
from datex.oracle import build_lp, exact_simplex, solve_exact
from helpers import (edmonds_allocate, example2_instance, example3_instance,
                     meets_cuts, random_linear_instance)

F0 = Fraction(0)
F1 = Fraction(1)
GRID = _QUANTUM.denominator  # grid units per unit weight (integer weights)


# ---------------------------------------------------------------------------
# Test-side reference: the exact projection and the snap onto the grid
# ---------------------------------------------------------------------------

def project_column(values: Sequence, budget, pinned: Optional[int] = None
                   ) -> Tuple[Fraction, ...]:
    """Exact Euclidean projection onto {x >= 0, sum x = budget}, with one
    optional coordinate removed beforehand and reinserted as zero.

    Sort-and-threshold: with entries sorted descending, the largest j
    with u_j > (sum of the top j - budget)/j fixes the threshold tau and
    x = max(v - tau, 0).
    """
    v = [Fraction(x) for x in values]
    budget = Fraction(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if pinned is not None and not 0 <= pinned < len(v):
        raise ValueError("pinned index out of range")
    free = [i for i in range(len(v)) if i != pinned]
    out = [F0] * len(v)
    if not free:
        if budget != 0:
            raise ValueError("cannot meet a positive budget with no free coordinates")
        return tuple(out)
    if budget == 0:
        return tuple(out)
    u = sorted((v[i] for i in free), reverse=True)
    tau = None
    prefix = F0
    for j, uj in enumerate(u, start=1):
        prefix += uj
        t = (prefix - budget) / j
        if uj > t:
            tau = t
    for i in free:
        d = v[i] - tau
        if d > 0:
            out[i] = d
    return tuple(out)


def snap_to_grid(vals: Sequence[Fraction], budget_grid: int) -> Tuple[int, ...]:
    """Largest-remainder rounding of nonnegative values (in grid units)
    that sum to the integer budget_grid: floor everything, then hand the
    missing units to the largest remainders, ties to the lower index."""
    out = [int(x) for x in vals]  # floor, as every value is >= 0
    order = sorted(range(len(vals)), key=lambda r: (-(vals[r] - out[r]), r))
    for r in order[:budget_grid - sum(out)]:
        out[r] += 1
    return tuple(out)


def _initial(instance):
    """The solver's starting multipliers: one iteration never steps."""
    return solve(instance, max_iterations=1).dual_matrix


def _grid_column(lam, i):
    return [int(row[i] * GRID) for row in lam]


def _free_rows(k, pinned):
    """The rows of a k-row column other than `pinned` (None pins none)."""
    return [r for r in range(k) if r != pinned]


# ---------------------------------------------------------------------------
# Solver configuration
# ---------------------------------------------------------------------------

def test_config_validation(example2):
    params = inspect.signature(solve).parameters
    assert {name: p.default for name, p in params.items()
            if p.kind is p.KEYWORD_ONLY} == {
        "max_iterations": 50_000, "gap_tolerance": Fraction(1, 1000),
        "trace": None}
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        solve(example2, max_iterations=0)
    with pytest.raises(ValueError, match="gap_tolerance must be positive"):
        solve(example2, gap_tolerance=0)
    with pytest.raises(ValueError, match="gap_tolerance must be positive"):
        solve(example2, gap_tolerance="-1/2")


# ---------------------------------------------------------------------------
# Initial multipliers
# ---------------------------------------------------------------------------

def _assert_equal_split(inst, lam):
    """Each column sums exactly to its weight, a user's own entry is zero,
    and every other entry is within one quantum of the equal split."""
    users = inst.user_list
    for i in range(inst.m):
        col = [row[i] for row in lam]
        assert sum(col) == inst.weights[i]
        free = [r for r, l in enumerate(users) if l != i]
        for r, x in enumerate(col):
            if r in free:
                assert abs(x - inst.weights[i] / len(free)) <= _QUANTUM
            else:
                assert x == F0


def test_init_dual_unit_weights(example2):
    lam = _initial(example2)
    assert len(lam) == 3
    _assert_equal_split(example2, lam)
    half = Fraction(1, 2)
    assert [row[:3] for row in lam] == [(F0, half, half), (half, F0, half),
                                        (half, half, F0)]


def test_init_dual_weighted():
    model = example2_instance().model
    w = [2, 1, 1, 3, 1, 1]
    inst = Instance(model, [0, 1, 2], weights=w)
    lam = _initial(inst)
    _assert_equal_split(inst, lam)
    assert lam[0][0] == F0
    assert lam[1][0] == lam[2][0] == F1  # 2 split over the other two users
    assert lam[0][3] == F1               # 3 split over all three rows


# ---------------------------------------------------------------------------
# Simplex projection: the exact reference, and the grid projection that
# the solver runs checked against it
# ---------------------------------------------------------------------------

def test_project_column_interior():
    assert project_column([Fraction(7, 10), Fraction(1, 2)], 1) \
        == (Fraction(3, 5), Fraction(2, 5))


def test_project_column_clips_negative():
    assert project_column([Fraction(3, 2), Fraction(-3, 10)], 1) == (F1, F0)


def test_project_column_pinned():
    assert project_column([9, 9, 9], 2, pinned=1) == (F1, F0, F1)
    out = project_column([5, 7, 5], 3, pinned=0)
    assert out[0] == F0 and sum(out) == 3


def test_project_column_edge_cases():
    assert project_column([4, 4], 0) == (F0, F0)
    with pytest.raises(ValueError):
        project_column([1, 2], -1)
    with pytest.raises(ValueError):
        project_column([1, 2], 1, pinned=5)
    with pytest.raises(ValueError):
        project_column([5], 1, pinned=0)  # nothing left to carry the budget
    assert project_column([5], 0, pinned=0) == (F0,)


@st.composite
def _column_and_budget(draw):
    n = draw(st.integers(1, 6))
    vals = [Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 8)))
            for _ in range(n)]
    budget = Fraction(draw(st.integers(0, 30)), draw(st.integers(1, 4)))
    pinned = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if pinned is not None and n == 1 and budget > 0:
        pinned = None
    return vals, budget, pinned


@given(_column_and_budget())
@settings(max_examples=120, deadline=None)
def test_project_column_kkt_certificate(case):
    """The output is THE Euclidean projection: nonnegative, exact budget,
    pinned coordinate zero, and a single threshold tau explains every
    coordinate (positive ones sit at v - tau, zero ones have v <= tau)."""
    vals, budget, pinned = case
    out = project_column(vals, budget, pinned=pinned)
    assert len(out) == len(vals)
    assert all(x >= 0 for x in out)
    assert sum(out) == budget
    if pinned is not None:
        assert out[pinned] == F0
    free = [i for i in range(len(vals)) if i != pinned]
    taus = {vals[i] - out[i] for i in free if out[i] > 0}
    assert len(taus) <= 1
    if taus:
        (tau,) = taus
        assert all(vals[i] <= tau for i in free if out[i] == 0)
    # idempotence: projecting a projected point changes nothing
    assert project_column(out, budget, pinned=pinned) == out


@st.composite
def _grid_column_case(draw):
    """A column in fine units (1/refine of a grid unit), its budget in grid
    units and an optional pinned row; sometimes the solver's equal-split
    start, which is every free entry at the budget with refine = #free."""
    n = draw(st.integers(1, 6))
    budget = draw(st.integers(0, 300))
    pinned = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if pinned is not None and n == 1 and budget > 0:
        pinned = None
    if draw(st.booleans()) and (n > 1 or pinned is None):
        return [budget] * n, n - (pinned is not None), budget, pinned
    refine = draw(st.integers(1, 60))
    vfine = [draw(st.integers(-500, 500)) for _ in range(n)]
    return vfine, refine, budget, pinned


@given(_grid_column_case())
@settings(max_examples=300, deadline=None)
def test_grid_projection_matches_exact_reference(case):
    """The solver's integer projection is the exact projection rounded onto
    the grid by largest remainder (ties to the lower row)."""
    vfine, refine, budget, pinned = case
    exact = project_column([Fraction(v, refine) for v in vfine], budget,
                           pinned=pinned)
    free = _free_rows(len(vfine), pinned)
    assert tuple(_project_grid(vfine, refine, budget, free)) \
        == snap_to_grid(exact, budget)


# ---------------------------------------------------------------------------
# The ascent step's projection on the solver's own multipliers
# ---------------------------------------------------------------------------

def test_step_with_zero_theta_is_identity(example2):
    # an on-grid point of the simplex projects to itself at any refinement
    lam = _initial(example2)
    for i in range(6):
        col = _grid_column(lam, i)
        budget = int(example2.weights[i] * GRID)
        pin = i if i < 3 else None
        for refine in (1, 7):
            assert _project_grid([x * refine for x in col], refine, budget,
                                 _free_rows(3, pin)) == col


def test_step_ignores_uniform_shift(example2):
    # equal movement in every row of a column is projected straight out:
    # theta = 1/3 and a unit subgradient in every row
    lam = _initial(example2)
    for i in range(6):
        col = _grid_column(lam, i)
        budget = int(example2.weights[i] * GRID)
        pin = i if i < 3 else None
        assert _project_grid([3 * x + GRID for x in col], 3, budget,
                             _free_rows(3, pin)) == col


def test_step_keeps_columns_lawful(example2):
    # one step of theta = 1/2 along the subproblem rates, as solve takes it
    lam = _initial(example2)
    users = example2.user_list
    rates = [edmonds_allocate(Instance(example2.model, example2.users, lam[r],
                                       example2.transmitters), l)
             for r, l in enumerate(users)]
    moved = False
    for i in range(6):
        col = _grid_column(lam, i)
        budget = int(example2.weights[i] * GRID)
        pin = users.index(i) if i in users else None
        vfine = [2 * col[r] + int(GRID * rates[r][i]) for r in range(3)]
        nxt = _project_grid(vfine, 2, budget, _free_rows(3, pin))
        if pin is not None:
            assert nxt[pin] == 0  # own entry stays pinned
        assert all(x >= 0 for x in nxt)
        assert sum(nxt) == budget
        moved = moved or nxt != col
    assert moved  # the step actually moved


# ---------------------------------------------------------------------------
# Duality: bounds around the LP oracle
# ---------------------------------------------------------------------------

def test_initial_multipliers_give_lower_bound():
    rng = random.Random(4242)
    for _ in range(10):
        inst = random_linear_instance(rng, multi_user=True)
        opt = solve_exact(build_lp(inst)).value
        lam = _initial(inst)
        _assert_equal_split(inst, lam)
        assert dual_value(inst, lam) <= opt


def test_iterates_keep_weak_duality(example2):
    opt = Fraction(9, 4)
    duals = []
    solve(example2, max_iterations=6, gap_tolerance=Fraction(1, 10 ** 9),
          trace=lambda n, p, d, g: duals.append(d))
    assert len(duals) == 6 and all(d <= opt for d in duals)
    for n in range(1, 7):  # each certificate re-verified with fresh greedies
        sol = solve(example2, max_iterations=n,
                    gap_tolerance=Fraction(1, 10 ** 9))
        assert dual_value(example2, sol.dual_matrix) == sol.dual_objective <= opt


def _coupled_lp_value_and_multipliers(inst):
    """Independent route to the optimum: the one-shot LP over per-receiver
    rate plans coupled through a shared vector, solved via its dual.
    Returns (optimal value, coupling multipliers padded onto the weight
    simplexes) -- the multipliers certify a zero decomposition gap."""
    users = inst.user_list
    k = len(users)
    m = inst.m
    model = inst.model
    js = model.joint_entropy_scaled
    de = model.entropy_denominator
    full = model.full_mask
    total = js(full)
    senders = {l: sorted(t for t in inst.transmitters if t != l)
               for l in users}
    # primal variables: shared Z_i (transmitters), then R^(l)_i per user
    zvars = sorted(inst.transmitters)
    rvars = [(l, i) for l in users for i in senders[l]]
    # dual variable per primal constraint: cut rows then coupling rows
    cuts = []
    for l in users:
        smask_all = sum(1 << i for i in senders[l])
        s = smask_all
        while s:  # enumerate nonempty submasks of the sender set
            rhs = Fraction(total - js(full & ~s), de)
            cuts.append((l, s, rhs))
            s = (s - 1) & smask_all
    couplings = rvars
    ncols = len(cuts) + len(couplings)
    c = [rhs for _, _, rhs in cuts] + [F0] * len(couplings)
    A, b = [], []
    for z in zvars:  # Z_i column: sum of its coupling multipliers <= alpha_i
        row = [F0] * ncols
        for j, (l, i) in enumerate(couplings):
            if i == z:
                row[len(cuts) + j] = F1
        A.append(row)
        b.append(inst.weights[z])
    for l, i in rvars:  # R^(l)_i column: cut mass <= its coupling multiplier
        row = [F0] * ncols
        for j, (lc, s, _) in enumerate(cuts):
            if lc == l and (s >> i) & 1:
                row[j] = F1
        for j, (lc, ic) in enumerate(couplings):
            if lc == l and ic == i:
                row[len(cuts) + j] = -F1
        A.append(row)
        b.append(F0)
    res = exact_simplex(c, A, b)
    lam = [[F0] * m for _ in range(k)]
    row_of_user = {u: r for r, u in enumerate(users)}
    for j, (l, i) in enumerate(couplings):
        lam[row_of_user[l]][i] = res.x[len(cuts) + j]
    # pad each column up to the full weight: larger multipliers only raise
    # the subproblem minima, so the certificate value cannot drop
    for i in sorted(inst.transmitters):
        rows = [r for r, u in enumerate(users) if u != i]
        slack = inst.weights[i] - sum(lam[r][i] for r in rows)
        assert slack >= 0
        if slack and rows:
            share = slack / len(rows)
            for r in rows:
                lam[r][i] += share
    return res.value, tuple(tuple(row) for row in lam)


def test_coupled_lp_agrees_with_cutset_oracle(example2):
    value, lam = _coupled_lp_value_and_multipliers(example2)
    assert value == Fraction(9, 4)
    # optimal coupling multipliers close the decomposition gap exactly
    assert dual_value(example2, lam) == Fraction(9, 4)


def test_dual_value_takes_one_full_row_per_user(example2):
    """A multiplier matrix has one row per user, each with m entries: a
    short or long matrix is refused, not read in part or past its end."""
    lam = [[Fraction(1, 3)] * 6 for _ in range(3)]
    assert dual_value(example2, lam) >= 0
    for rows in (lam[:2], lam + lam[:1]):
        with pytest.raises(ValueError,
                           match=f"expected 3 multiplier rows, got "
                                 f"{len(rows)}"):
            dual_value(example2, rows)
    with pytest.raises(ValueError, match="expected 6 multipliers, got 5"):
        dual_value(example2, [row[:5] for row in lam])


def test_coupled_lp_agrees_on_random_instances():
    rng = random.Random(31415)
    checked = 0
    while checked < 6:
        inst = random_linear_instance(rng, multi_user=True)
        if inst.m > 4:  # keep the one-shot LP small
            continue
        opt = solve_exact(build_lp(inst)).value
        value, lam = _coupled_lp_value_and_multipliers(inst)
        assert value == opt
        lower = dual_value(inst, lam)
        assert lower == opt  # zero gap at the optimal multipliers
        checked += 1


# ---------------------------------------------------------------------------
# The solver end to end
# ---------------------------------------------------------------------------

def test_solve_three_user_example(example2):
    sol = solve(example2)
    assert sol.converged
    assert sol.gap <= Fraction(1, 1000)
    assert sol.dual_objective <= Fraction(9, 4) <= sol.primal_objective
    assert sol.gap == sol.primal_objective - sol.dual_objective
    # the shared rates meet every receiver's cuts
    assert meets_cuts(sol.rates, example2)
    assert sol.iterations <= 1000
    # the certificate re-verifies from scratch
    assert duality_gap(sol) == sol.gap


def test_solve_binary_field_variant(example2_gf2):
    sol = solve(example2_gf2)
    assert sol.converged
    opt = solve_exact(build_lp(example2_gf2)).value
    assert opt == Fraction(9, 4)
    assert sol.dual_objective <= opt <= sol.primal_objective
    assert sol.gap <= Fraction(1, 1000)


def test_solve_single_user_short_circuit():
    rng = random.Random(99)
    inst = random_linear_instance(rng, multi_user=False)
    (target,) = inst.user_list
    sol = solve(inst)
    assert sol.converged and sol.iterations == 1
    assert sol.gap == F0
    assert sol.rates == edmonds_allocate(inst, target)
    assert sol.primal_objective == sol.dual_objective
    assert meets_cuts(sol.rates, inst)
    assert duality_gap(sol) == F0


def test_solve_iteration_budget(example2):
    sol = solve(example2, max_iterations=5, gap_tolerance=Fraction(1, 10 ** 6))
    assert sol.iterations == 5
    assert not sol.converged
    assert sol.gap >= F0
    assert sol.dual_objective <= Fraction(9, 4) <= sol.primal_objective


def test_solve_trace_callback(example2):
    rows = []
    sol = solve(example2, max_iterations=40,
                gap_tolerance=Fraction(1, 10 ** 9),
                trace=lambda n, p, d, g: rows.append((n, p, d, g)))
    assert len(rows) == sol.iterations == 40
    assert [r[0] for r in rows] == list(range(1, 41))
    for _, p, d, g in rows:
        assert isinstance(p, Fraction) and isinstance(d, Fraction)
        assert isinstance(g, Fraction)
    gaps = [r[3] for r in rows]
    assert all(x >= y for x, y in zip(gaps, gaps[1:]))  # best gap so far
    assert gaps[-1] == sol.gap


def test_solve_dual_certificate_is_lawful(example2):
    sol = solve(example2, max_iterations=200, gap_tolerance=Fraction(1, 100))
    # lawfulness of the reported dual certificate on the grid
    for r, l in enumerate(example2.user_list):
        assert sol.dual_matrix[r][l] == F0
    for i in range(6):
        col = [sol.dual_matrix[r][i] for r in range(3)]
        assert sum(col) == example2.weights[i]
        assert all(x >= 0 and (x * GRID).denominator == 1 for x in col)
    assert sol.dual_objective <= Fraction(9, 4) <= sol.primal_objective


def test_solve_brackets_oracle_on_random_instances():
    rng = random.Random(60221023)
    for _ in range(8):
        inst = random_linear_instance(rng, multi_user=True)
        opt = solve_exact(build_lp(inst)).value
        sol = solve(inst, max_iterations=300)
        assert sol.dual_objective <= opt <= sol.primal_objective
        assert sol.gap == sol.primal_objective - sol.dual_objective
        assert meets_cuts(sol.rates, inst)


def test_duality_gap_reproduces_the_gap(example2):
    sol = solve(example2, max_iterations=50, gap_tolerance=Fraction(1, 10 ** 9))
    assert not sol.converged
    assert sol.dual_objective <= Fraction(9, 4) <= sol.primal_objective
    # both bounds are re-derived from the certificate with fresh greedy calls
    assert example2.objective(sol.rates) == sol.primal_objective
    assert dual_value(example2, sol.dual_matrix) == sol.dual_objective
    assert duality_gap(sol) == sol.gap
    # rates below the dual bound break weak duality
    with pytest.raises(ArithmeticError, match="weak duality violated"):
        duality_gap(sol._replace(rates=(F0,) * example2.m))


def test_solve_refuses_a_certificate_that_does_not_reproduce_the_gap(
        monkeypatch, example2):
    """`solve` re-derives its gap from the certificate before returning;
    a re-derivation that disagrees is refused, as the oracle refuses a
    wrong simplex answer."""
    monkeypatch.setattr(dual_module, "duality_gap", lambda sol: sol.gap + 1)
    with pytest.raises(ArithmeticError,
                       match="^the certificate does not reproduce the gap$"):
        solve(example2, max_iterations=5)


@pytest.mark.parametrize("make, config", [
    (example2_instance, dict(max_iterations=25,
                             gap_tolerance=Fraction(1, 10 ** 9))),
    (example2_instance, {}),
    (example3_instance, {}),
], ids=["budget", "converged", "raw"])
def test_solve_calls_the_traced_greedy_once_per_receiver(monkeypatch, make,
                                                         config):
    # the benchmark's tracer counts chains at datex.dual._greedy_rates_scaled:
    # k per iteration, however early the chains saturate, plus k for the
    # certificate's re-check
    inst = make()
    calls = []
    real = dual_module._greedy_rates_scaled

    def counted(model, target, order):
        calls.append(target)
        return real(model, target, order)

    monkeypatch.setattr(dual_module, "_greedy_rates_scaled", counted)
    sol = solve(inst, **config)
    k = len(inst.user_list)
    assert len(calls) == k * sol.iterations + k
    assert calls[-k:] == list(inst.user_list)

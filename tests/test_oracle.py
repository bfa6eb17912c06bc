"""Tests for the exact cut-set LP oracle: cut enumeration, LP assembly,
the dense rational simplex, and full solves cross-checked against the
greedy allocator and hand-verified optima."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from datex.greedy import edmonds_allocate, violated_cuts
from datex.instance import Instance, InfeasibleInstanceError
from datex.oracle import (InfeasibleLPError, UnboundedLPError, build_lp,
                          enumerate_cutsets, exact_simplex, solve_exact)
from datex.source import SizeLimitError, raw_source
from helpers import (example1_instance, example2_instance, example3_instance,
                     objective, random_linear_instance)

F0 = Fraction(0)


def _assert_feasible_for_all_users(instance, rates):
    for target in instance.user_list:
        assert violated_cuts(rates, instance, target) == []


# ---------------------------------------------------------------------------
# Cut-set enumeration
# ---------------------------------------------------------------------------

def test_enumerate_counts_match_closed_form():
    assert len(enumerate_cutsets(6, [0])) == 2 ** 6 - 2 ** 5 - 1  # 31
    assert len(enumerate_cutsets(6, [0, 1, 2])) == 2 ** 6 - 2 ** 3 - 1  # 55
    assert len(enumerate_cutsets(4, [0, 1, 2, 3])) == 2 ** 4 - 2  # all proper


def test_enumerate_small_exact_masks():
    # m=3, users {0,1}: every nonempty proper subset that misses a user
    assert enumerate_cutsets(3, [0, 1]) == [1, 2, 4, 5, 6]
    # ascending order in general
    masks = enumerate_cutsets(5, [2])
    assert masks == sorted(masks)
    assert all(0 < s < 31 for s in masks)
    # none may contain the lone user, terminal 2
    assert all(not (s >> 2) & 1 for s in masks)


def test_enumerate_validation():
    with pytest.raises(SizeLimitError):
        enumerate_cutsets(11, [0])  # the exact LP's one size guard
    with pytest.raises(ValueError):
        enumerate_cutsets(4, [])
    with pytest.raises(ValueError):
        enumerate_cutsets(4, [4])


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------

def test_build_lp_single_user_shape(example1):
    lp = build_lp(example1)
    assert lp.variables == (0, 1, 2, 3, 4, 5)
    assert len(lp.constraints) == 31
    rows = dict(lp.constraints)
    # the everything-but-the-receiver cut needs the file minus what the
    # receiver already holds: 3 - 1 = 2 packets' worth
    assert rows[0b111110] == Fraction(2)
    # a single helper that the rest of the room can reconstruct adds nothing
    assert rows[0b001000] == F0
    # with one user every cut leaves that user out
    assert all(not mask & 1 for mask in rows)


def test_build_lp_rhs_values(example2):
    lp = build_lp(example2)
    assert len(lp.constraints) == 55
    rows = dict(lp.constraints)
    # complement {0} sees one combination: 3 - 1 = 2
    assert rows[0b111110] == Fraction(2)
    # complement {2,5} spans two dimensions: 3 - 2 = 1
    assert rows[0b011011] == Fraction(1)
    # complement {0,1,2} already spans everything: nothing is required
    assert rows[0b111000] == F0


# ---------------------------------------------------------------------------
# Exact simplex
# ---------------------------------------------------------------------------

def test_simplex_small_lp():
    res = exact_simplex([1, 1],
                        [[1, 0], [0, 1], [1, 1]],
                        [1, 2, Fraction(5, 2)])
    assert res.value == Fraction(5, 2)
    x = res.x
    assert x[0] <= 1 and x[1] <= 2 and x[0] + x[1] <= Fraction(5, 2)
    assert x[0] + x[1] == res.value
    # strong duality against the slack prices
    assert sum(b * y for b, y in zip([1, 2, Fraction(5, 2)], res.duals)) \
        == res.value
    assert all(y >= 0 for y in res.duals)


def test_simplex_degenerate_duplicate_rows_terminate():
    res = exact_simplex([2, 3], [[1, 1], [1, 1]], [1, 1])
    assert res.value == 3
    assert res.x == (F0, Fraction(1))


def test_simplex_zero_objective_no_pivots():
    res = exact_simplex([0, 0], [[1, 1]], [5])
    assert res.value == F0
    assert res.pivots == 0
    assert res.x == (F0, F0)


def test_simplex_rejects_negative_rhs():
    with pytest.raises(ValueError):
        exact_simplex([1], [[1]], [-1])


def test_simplex_rejects_ragged_rows():
    with pytest.raises(ValueError):
        exact_simplex([1, 1], [[1]], [1])


def test_simplex_unbounded():
    with pytest.raises(UnboundedLPError):
        exact_simplex([1], [[-1]], [0])
    with pytest.raises(UnboundedLPError):
        exact_simplex([1, 1], [[1, -1]], [2])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_simplex_certificate_random(data):
    """Optimality certificate on random bounded LPs: the returned point is
    feasible, the slack prices are dual-feasible, and the two objectives
    agree (strong duality), which pins the optimum exactly."""
    ncols = data.draw(st.integers(1, 4))
    nrows = data.draw(st.integers(1, 4))
    c = [data.draw(st.integers(-3, 3)) for _ in range(ncols)]
    A = [[data.draw(st.integers(0, 3)) for _ in range(ncols)]
         for _ in range(nrows)]
    b = [data.draw(st.integers(0, 5)) for _ in range(nrows)]
    # a box row keeps the region bounded whatever was drawn above
    A.append([1] * ncols)
    b.append(data.draw(st.integers(0, 8)))
    res = exact_simplex(c, A, b)
    x, y = res.x, res.duals
    assert all(v >= 0 for v in x)
    for row, cap in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) <= cap
    assert sum(ci * v for ci, v in zip(c, x)) == res.value
    assert all(v >= 0 for v in y)
    for j in range(ncols):  # dual feasibility: A^T y >= c
        assert sum(A[i][j] * y[i] for i in range(len(b))) >= c[j]
    assert sum(bi * v for bi, v in zip(b, y)) == res.value


# ---------------------------------------------------------------------------
# Full solves on the worked examples
# ---------------------------------------------------------------------------

def test_solve_single_user_example(example1):
    sol = solve_exact(build_lp(example1))
    assert sol.value == Fraction(2)
    assert all(r >= 0 for r in sol.rates)
    assert objective(example1, sol.rates) == sol.value
    _assert_feasible_for_all_users(example1, sol.rates)
    # single receiver: the greedy allocator attains the LP optimum
    greedy = edmonds_allocate(example1, 0)
    assert objective(example1, greedy) == sol.value


def test_solve_three_user_example(example2):
    sol = solve_exact(build_lp(example2))
    assert sol.value == Fraction(9, 4)
    assert objective(example2, sol.rates) == sol.value
    _assert_feasible_for_all_users(example2, sol.rates)
    # the balanced point attains the optimum, corroborating the value
    # from the achievability side as well
    balanced = (Fraction(1, 4),) * 3 + (Fraction(1, 2),) * 3
    _assert_feasible_for_all_users(example2, balanced)
    assert objective(example2, balanced) == Fraction(9, 4)


def test_solve_three_user_example_binary_field(example2_gf2):
    """Over the two-element field the first three terminals' combinations
    are linearly dependent, shrinking the rate region; the optimum is
    nevertheless the same because the balanced point stays feasible."""
    sol = solve_exact(build_lp(example2_gf2))
    assert sol.value == Fraction(9, 4)
    _assert_feasible_for_all_users(example2_gf2, sol.rates)
    assert objective(example2_gf2, sol.rates) == sol.value
    # the cheaper-looking helpers-only point is NOT feasible: receiver 0
    # is starved by the cut {1, 2, 5}, which must carry one packet's worth
    helpers_only = (F0,) * 3 + (Fraction(2, 3),) * 3
    bad = violated_cuts(helpers_only, example2_gf2, 0)
    masks = {mask for mask, _, _ in bad}
    assert 0b100110 in masks
    need = dict((mask, need) for mask, need, _ in bad)[0b100110]
    assert need == Fraction(1)


def test_solve_two_user_packet_example(example3):
    sol = solve_exact(build_lp(example3))
    assert sol.value == Fraction(2)
    # the optimal vertex is unique here, so it can be pinned exactly
    assert sol.rates == (F0, Fraction(1), Fraction(1))
    _assert_feasible_for_all_users(example3, sol.rates)


def test_solve_with_transmitter_restriction():
    # two packets; terminal 0 sees the first, 1 the second, 2 their sum;
    # only terminals 1 and 2 may speak
    from datex.gf import Matrix, make_field
    from datex.source import LinearSource
    F = make_field(2)
    model = LinearSource(F, 2, [Matrix.from_rows(F, [[1, 0]], ncols=2),
                                Matrix.from_rows(F, [[0, 1]], ncols=2),
                                Matrix.from_rows(F, [[1, 1]], ncols=2)])
    inst = Instance(model, [0], transmitters=[1, 2])
    lp = build_lp(inst)
    assert lp.variables == (1, 2)
    sol = solve_exact(lp)
    assert sol.value == Fraction(1)
    assert len(sol.rates) == 3 and sol.rates[0] == F0
    _assert_feasible_for_all_users(inst, sol.rates)
    assert objective(inst, edmonds_allocate(inst, 0)) == sol.value


# ---------------------------------------------------------------------------
# Oracle vs greedy on random single-receiver instances
# ---------------------------------------------------------------------------

def test_oracle_matches_greedy_random():
    rng = random.Random(20260821)
    for _ in range(25):
        inst = random_linear_instance(rng, multi_user=False)
        (target,) = inst.user_list
        greedy = edmonds_allocate(inst, target)
        sol = solve_exact(build_lp(inst))
        assert objective(inst, greedy) == sol.value
        _assert_feasible_for_all_users(inst, sol.rates)


def test_oracle_matches_greedy_helpers_only():
    rng = random.Random(77)
    done = 0
    while done < 10:
        try:
            inst = random_linear_instance(rng, multi_user=False,
                                          helpers_only=True)
        except InfeasibleInstanceError:
            continue
        (target,) = inst.user_list
        greedy = edmonds_allocate(inst, target)
        sol = solve_exact(build_lp(inst))
        assert objective(inst, greedy) == sol.value
        done += 1


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def test_solve_guard_rejects_large_instances():
    # one guard, m <= 10, where enumeration starts: m = 10 builds and
    # solves, m = 11 stops before the first LP row
    for m, ok in ((10, True), (11, False)):
        inst = Instance(raw_source([[0] for _ in range(m)], 1), [0])
        if ok:
            lp = build_lp(inst)
            assert len(lp.constraints) == 2 ** 10 - 2 ** 9 - 1
            assert solve_exact(lp).value == 0
        else:
            with pytest.raises(SizeLimitError, match="m <= 10"):
                build_lp(inst)


def test_build_lp_guard_fires_before_any_entropy_query(monkeypatch):
    inst = Instance(raw_source([[i] for i in range(11)], 11), [0])
    calls = []
    monkeypatch.setattr(inst.model, "_joint_scaled",
                        lambda mask: calls.append(mask))
    with pytest.raises(SizeLimitError):
        build_lp(inst)
    assert calls == []


def test_infeasible_error_is_value_error():
    assert issubclass(InfeasibleLPError, ValueError)

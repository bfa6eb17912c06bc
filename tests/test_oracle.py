"""Tests for the exact cut-set LP oracle: the full LP written out from the
receivers' cuts (the test-side witness), the dense rational simplex, and
cut-loop solves cross-checked against that witness, the greedy allocator
and hand-verified optima."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from datex.instance import Instance, InfeasibleInstanceError
from datex import oracle
from datex.oracle import (SimplexResult, UnboundedLPError, build_lp,
                          exact_simplex, solve_exact)
from datex.source import SizeLimitError, raw_source
from helpers import (all_terminal_cut_rows, edmonds_allocate,
                     example1_instance, example2_instance, example3_instance,
                     full_cut_lp, full_lp_optimum, meets_cuts, objective,
                     random_linear_instance, ref_violated_cuts)

F0 = Fraction(0)


# ---------------------------------------------------------------------------
# The full LP (test-side witness) and the loop's starting LP
# ---------------------------------------------------------------------------

def test_build_lp_single_user_shape(example1):
    lp = build_lp(example1)
    assert lp.variables == (0, 1, 2, 3, 4, 5)
    # the loop starts from no row and separates every row it needs
    assert lp.constraints == ()
    rows = dict(full_cut_lp(example1))
    assert len(rows) == 31
    # the everything-but-the-receiver cut needs the file minus what the
    # receiver already holds: 3 - 1 = 2 packets' worth
    assert rows[0b111110] == Fraction(2)
    # a single helper that the rest of the room can reconstruct adds nothing
    assert rows[0b001000] == F0
    # with one user every cut leaves that user out
    assert all(not mask & 1 for mask in rows)


def test_build_lp_rhs_values(example2):
    rows = dict(full_cut_lp(example2))
    assert len(rows) == 55
    # complement {0} sees one combination: 3 - 1 = 2
    assert rows[0b111110] == Fraction(2)
    # complement {2,5} spans two dimensions: 3 - 2 = 1
    assert rows[0b011011] == Fraction(1)
    # complement {0,1,2} already spans everything: nothing is required
    assert rows[0b111000] == F0


def _packet_instance(m, users):
    """m terminals, each owning a packet of its own; all of them transmit."""
    return Instance(raw_source([[i] for i in range(m)], m), users)


def test_build_lp_count_matches_closed_form():
    # 2^m - 2^(m-k) - 1 rows when every terminal transmits
    for m, users in ((6, [0]), (6, [0, 1, 2]), (4, [0, 1, 2, 3])):
        rows = full_cut_lp(_packet_instance(m, users))
        assert len(rows) == 2 ** m - 2 ** (m - len(users)) - 1
    # m=3, users {0,1}: every nonempty proper subset that misses a user
    rows = full_cut_lp(_packet_instance(3, [0, 1]))
    assert [mask for mask, _ in rows] == [1, 2, 4, 5, 6]


def _unrestricted_instances():
    yield example1_instance()
    yield example2_instance()
    yield example2_instance(characteristic=2)
    yield example3_instance()
    rng = random.Random(20261018)
    for n in range(30):
        yield random_linear_instance(rng, multi_user=n % 3 != 0)


def test_build_lp_rows_equal_the_all_terminal_rows():
    """With every terminal transmitting, the union of the receivers' cuts
    is exactly the all-terminal enumeration: same masks, same right-hand
    sides, same (ascending) order."""
    for inst in _unrestricted_instances():
        rows = full_cut_lp(inst)
        assert rows == all_terminal_cut_rows(inst)
        assert len(rows) == 2 ** inst.m - 2 ** (inst.m - inst.k) - 1


def _restricted_instances(count):
    rng = random.Random(5)
    while count:
        base = random_linear_instance(rng, multi_user=rng.random() < 0.7)
        senders = [t for t in range(base.m) if rng.random() < 0.6]
        try:
            inst = Instance(base.model, base.users, base.weights, senders)
        except InfeasibleInstanceError:
            continue
        if len(inst.transmitters) == inst.m:
            continue
        count -= 1
        yield inst


def test_build_lp_restricted_rows_stay_within_the_transmitters():
    """With a transmitters list, every row is a receiver's cut, so it lies
    within the transmitters; the optimum equals that of the all-terminal
    LP (whose extra rows hold silent terminals), solved here directly,
    and so does the cut loop's."""
    for inst in _restricted_instances(40):
        tmask = inst.transmitter_mask
        masks = [mask for mask, _ in full_cut_lp(inst)]
        assert masks == sorted(masks)
        assert all(mask and mask & ~tmask == 0 for mask in masks)
        assert len(masks) <= 2 ** len(inst.transmitters) - 1
        rows = all_terminal_cut_rows(inst)
        senders = sorted(inst.transmitters)
        reference = exact_simplex(
            [rhs for _, rhs in rows],
            [[(mask >> t) & 1 for mask, _ in rows] for t in senders],
            [inst.weights[t] for t in senders])
        assert full_lp_optimum(inst) == reference.value
        sol = solve_exact(build_lp(inst))
        assert sol.value == reference.value
        assert meets_cuts(sol.rates, inst)


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
    # one row of A per entry of b, neither fewer nor more
    with pytest.raises(ValueError, match="A has 0 rows, b has 1 entries"):
        exact_simplex([1], [], [1])
    with pytest.raises(ValueError, match="A has 2 rows, b has 1 entries"):
        exact_simplex([1], [[1], [1]], [1])


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
    assert meets_cuts(sol.rates, example1)
    # single receiver: the greedy allocator attains the LP optimum
    greedy = edmonds_allocate(example1, 0)
    assert objective(example1, greedy) == sol.value


def test_solve_three_user_example(example2):
    sol = solve_exact(build_lp(example2))
    assert sol.value == Fraction(9, 4)
    assert objective(example2, sol.rates) == sol.value
    assert meets_cuts(sol.rates, example2)
    # the balanced point attains the optimum, corroborating the value
    # from the achievability side as well
    balanced = (Fraction(1, 4),) * 3 + (Fraction(1, 2),) * 3
    assert meets_cuts(balanced, example2)
    assert objective(example2, balanced) == Fraction(9, 4)


def test_solve_three_user_example_binary_field(example2_gf2):
    """Over the two-element field the first three terminals' combinations
    are linearly dependent, shrinking the rate region; the optimum is
    nevertheless the same because the balanced point stays feasible."""
    sol = solve_exact(build_lp(example2_gf2))
    assert sol.value == Fraction(9, 4)
    assert meets_cuts(sol.rates, example2_gf2)
    assert objective(example2_gf2, sol.rates) == sol.value
    # the cheaper-looking helpers-only point is NOT feasible: receiver 0
    # is starved by the cut {1, 2, 5}, which must carry one packet's worth
    helpers_only = (F0,) * 3 + (Fraction(2, 3),) * 3
    bad = ref_violated_cuts(helpers_only, example2_gf2, 0)
    masks = {mask for mask, _, _ in bad}
    assert 0b100110 in masks
    need = dict((mask, need) for mask, need, _ in bad)[0b100110]
    assert need == Fraction(1)


def test_solve_two_user_packet_example(example3):
    sol = solve_exact(build_lp(example3))
    assert sol.value == Fraction(2)
    # the optimal vertex is unique here, so it can be pinned exactly
    assert sol.rates == (F0, Fraction(1), Fraction(1))
    assert meets_cuts(sol.rates, example3)


def _answer(rates, value):
    """A simplex that returns these rates and value in every round."""
    wrong = SimplexResult(Fraction(value), (), tuple(map(Fraction, rates)), 0)
    return lambda c, A, b: wrong


def _perturbed(change):
    """The real simplex with `change` applied to its multipliers x."""
    def simplex(c, A, b):
        res = exact_simplex(c, A, b)
        return res._replace(x=tuple(change(list(res.x))))
    return simplex


@pytest.mark.parametrize("simplex, message", [
    (_answer((0, -1, 3), 2), "negative rate"),
    # no one sends packet 3, in both rounds: the second round finds the
    # row the first one added still broken
    (_answer((0, 0, 1), 1), r"broke the row of cut \(1,\) for user 0"),
    (_answer((0, 1, 1), 3), "rate vector does not match the optimal value"),
    (_perturbed(lambda x: [Fraction(-1)] + x[1:]), "negative multiplier"),
    (_perturbed(lambda x: [v + 5 for v in x[:1]] + x[1:]),
     "multipliers exceed terminal 1's weight"),
    (_perturbed(lambda x: [v / 2 for v in x]),
     "multipliers do not match the optimal value"),
], ids=["negative", "infeasible", "objective-mismatch",
        "negative-multiplier", "multiplier-over-weight",
        "multiplier-sum-mismatch"])
def test_solve_exact_certificate_rejects_a_wrong_simplex_answer(
        monkeypatch, example3, simplex, message):
    monkeypatch.setattr(oracle, "exact_simplex", simplex)
    with pytest.raises(ArithmeticError, match=message):
        solve_exact(build_lp(example3))


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
    assert meets_cuts(sol.rates, inst)
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
        assert meets_cuts(sol.rates, inst)


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
    # one guard, violated_cuts's m <= 20, in the loop's first separation
    # round: m = 20 solves, m = 21 stops before the first LP row
    for m, ok in ((20, True), (21, False)):
        inst = Instance(raw_source([[0] for _ in range(m)], 1), [0])
        lp = build_lp(inst)
        assert lp.constraints == ()
        if ok:
            assert solve_exact(lp).value == 0
        else:
            with pytest.raises(SizeLimitError,
                               match="feasibility check limited to m <= 20"):
                solve_exact(lp)


def test_build_lp_guard_fires_before_any_entropy_query(monkeypatch):
    inst = Instance(raw_source([[i] for i in range(21)], 21), [0])
    calls = []
    for query in ("_joint_scaled", "joint_entropy_scaled", "joint_entropy",
                  "_cut_grow"):
        monkeypatch.setattr(inst.model, query,
                            lambda *args, query=query: calls.append(query))
    with pytest.raises(SizeLimitError,
                       match="feasibility check limited to m <= 20"):
        solve_exact(build_lp(inst))
    assert calls == []


def test_enumerate_validation():
    # the receivers' cuts are enumerated inside solve_exact's loop: m = 21
    # trips the one size guard, and a user set that names no terminal or
    # one outside 0..m-1 is refused before any cut can be built
    with pytest.raises(SizeLimitError):
        solve_exact(build_lp(
            Instance(raw_source([[0] for _ in range(21)], 1), [0])))
    model = raw_source([[0] for _ in range(4)], 1)
    with pytest.raises(ValueError):
        build_lp(Instance(model, []))
    with pytest.raises(ValueError):
        build_lp(Instance(model, [4]))

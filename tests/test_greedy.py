import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from datex import greedy
from datex.greedy import violated_cuts
from datex.instance import Instance, InfeasibleInstanceError
from datex.oracle import build_lp, solve_exact
from datex.source import SizeLimitError, mask_to_set, raw_source
from helpers import (edmonds_allocate, example_model, example1_instance,
                     meets_cuts, objective, random_linear_instance,
                     ref_violated_cuts, relabel, tabulate, unlabel)

# example 1 with the single-packet holders 3, 4 and 5 numbered right after
# the receiver, so index order prefers them
HELPERS_FIRST = (0, 3, 4, 5, 1, 2)


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------

def test_instance_defaults(example1):
    assert example1.m == 6 and example1.k == 1
    assert example1.user_list == (0,)
    assert example1.weights == tuple([Fraction(1)] * 6)
    assert example1.transmitter_mask == 0b111111


def test_instance_rejects_bad_users():
    model = example_model(3)
    with pytest.raises(ValueError):
        Instance(model, [])
    with pytest.raises(ValueError):
        Instance(model, [6])
    with pytest.raises(ValueError):
        Instance(model, [0, 0])


def test_instance_rejects_bad_weights():
    model = example_model(3)
    with pytest.raises(ValueError):
        Instance(model, [0], weights=[1] * 5)
    with pytest.raises(ValueError):
        Instance(model, [0], weights=[-1, 1, 1, 1, 1, 1])


def test_instance_rejects_bad_transmitters():
    model = example_model(3)
    with pytest.raises(ValueError):
        Instance(model, [0], transmitters=[7])


def test_instance_decodability_precondition():
    # terminals 0 and 2 both hold packet 0 only; packet 1 lives at
    # terminal 1.  If only terminal 2 may transmit, the user can never
    # learn packet 1.
    model = raw_source([[0], [1], [0]], 2)
    with pytest.raises(InfeasibleInstanceError):
        Instance(model, [0], transmitters=[2])
    # letting terminal 1 transmit repairs it
    Instance(model, [0], transmitters=[1, 2])


# ---------------------------------------------------------------------------
# The six-terminal single-receiver example
# ---------------------------------------------------------------------------

def test_example1_preferred_helper_vertex(example1):
    # visiting the single-packet holders (3,4,5) first yields two unit
    # rates: terminal 3 covers one unknown packet, terminal 5 the other
    moved = edmonds_allocate(relabel(example1, HELPERS_FIRST), 0)
    rates = unlabel(moved, HELPERS_FIRST)
    assert rates == (0, 0, 0, 1, 0, 1)
    assert objective(example1, rates) == 2


def test_example1_default_order_vertex(example1):
    # ascending-index ties: terminals 1 and 2 each contribute one symbol
    rates = edmonds_allocate(example1, 0)
    assert rates == (0, 1, 1, 0, 0, 0)
    assert objective(example1, rates) == 2


def test_example1_all_relabelings_same_objective(example1):
    rng = random.Random(1)
    perms = set()
    for _ in range(20):
        perm = list(range(6))
        rng.shuffle(perm)
        perms.add(tuple(perm))
    for perm in perms:
        moved = relabel(example1, perm)
        (target,) = moved.user_list
        rates = unlabel(edmonds_allocate(moved, target), perm)
        assert objective(example1, rates) == 2
        assert meets_cuts(rates, example1)


def test_example1_greedy_output_feasible(example1):
    rates = unlabel(edmonds_allocate(relabel(example1, HELPERS_FIRST), 0),
                    HELPERS_FIRST)
    assert meets_cuts(rates, example1)
    assert not meets_cuts([0] * 6, example1)


def test_weight_override_changes_vertex(example1):
    # make the pair-sum terminals cheap and the basis terminals expensive
    w = [1, 1, 1, 5, 5, 5]
    rates = edmonds_allocate(Instance(example1.model, [0], w), 0)
    assert rates == (0, 1, 1, 0, 0, 0)
    assert sum(q * r for q, r in zip(w, rates)) == 2


def test_identical_observations_need_nothing():
    model = raw_source([[0], [0], [0]], 1)
    inst = Instance(model, [0])
    assert edmonds_allocate(inst, 0) == (0, 0, 0)
    assert meets_cuts((0, 0, 0), inst)


def test_greedy_on_tabular_model(example1):
    # the allocation must only depend on the entropy oracle
    for order in (range(6), HELPERS_FIRST, (0, 5, 4, 3, 2, 1)):
        inst = relabel(example1, order)
        table_inst = Instance(tabulate(inst.model), [0])
        assert edmonds_allocate(table_inst, 0) == edmonds_allocate(inst, 0)


# ---------------------------------------------------------------------------
# Cut inspection
# ---------------------------------------------------------------------------

def test_violated_cuts_reports_worst_offenders(example1):
    # zero rates cannot satisfy the region; the full complement cut needs
    # the two missing packets, and every smaller cut needs less
    assert violated_cuts([0] * 6, example1)[0] == (0b111110, 2, 0)
    assert [cut for cut, need, _ in ref_violated_cuts([0] * 6, example1, 0)
            if need == 2] == [0b111110]
    # with a unit rate on terminal 3 the largest deficit is 1, and its
    # smallest cut is {1, 2, 5}: {0, 3, 4} spans only packets 0 and 1
    assert violated_cuts([0, 0, 0, 1, 0, 0], example1)[0] == (
        0b100110, 1, 0)


def test_violated_cuts_respects_transmitter_restriction():
    model = example_model(3)
    inst = Instance(model, [0], transmitters=[1, 2, 3])
    mask, _, _ = violated_cuts([0] * 6, inst)[0]
    assert set(mask_to_set(mask)) == {1, 2, 3}
    for mask, _, _ in ref_violated_cuts([0] * 6, inst, 0):
        assert set(mask_to_set(mask)) <= {1, 2, 3}


def test_violated_cuts_rejects_rates_off_the_domain(example1):
    # a negative rate must not pay for another terminal's deficit
    with pytest.raises(ValueError, match="negative"):
        violated_cuts([-5, 0, 1, 1, 0, 0], example1)
    inst = Instance(example_model(3), [0], transmitters=[1, 2, 3])
    assert violated_cuts([0, 1, 1, 0, 0, 0], inst).get(0) is None
    with pytest.raises(ValueError, match="terminal 4 does not transmit"):
        violated_cuts([0, 1, 1, 0, 1, 0], inst)


def test_one_query_checks_the_rates_once(example2, monkeypatch):
    """Every receiver of a three-receiver instance from one query, which
    checks and scales the rate vector once, not once per receiver."""
    calls = []
    check = greedy.check_rate_domain
    monkeypatch.setattr(greedy, "check_rate_domain",
                        lambda *a: calls.append(a) or check(*a))
    assert example2.user_list == (0, 1, 2)
    short = violated_cuts([0] * example2.m, example2)
    assert list(short) == [0, 1, 2]
    assert len(calls) == 1
    assert violated_cuts([1] * example2.m, example2) == {}
    assert len(calls) == 2


def test_size_guards_raise_one_typed_error():
    big = raw_source([[i] for i in range(21)], 21)
    with pytest.raises(SizeLimitError):
        violated_cuts([1] * 21, Instance(big, [0]))
    with pytest.raises(SizeLimitError):
        tabulate(big)


# ---------------------------------------------------------------------------
# Properties on random instances
# ---------------------------------------------------------------------------

def _suffix_cuts_tight(instance, target, rates, order):
    """The greedy vertex makes every suffix of its visiting order tight."""
    model = instance.model
    den = model.entropy_denominator
    ctx = instance.transmitter_mask | (1 << target)
    for i in range(len(order)):
        suffix = 0
        for j in order[i:]:
            suffix |= 1 << j
        need = Fraction(model.joint_entropy_scaled(ctx)
                        - model.joint_entropy_scaled(ctx & ~suffix), den)
        got = sum((rates[j] for j in order[i:]), Fraction(0))
        if got != need:
            return False
    return True


@given(st.integers(0, 10 ** 9))
@settings(max_examples=120, deadline=None)
def test_greedy_vertex_properties(seed):
    rng = random.Random(seed)
    inst = random_linear_instance(rng, multi_user=False)
    order = list(range(inst.m))
    rng.shuffle(order)
    inst = relabel(inst, order)
    (target,) = inst.user_list
    rates = edmonds_allocate(inst, target)
    # nonnegative, zero for non-senders
    assert all(r >= 0 for r in rates)
    assert rates[target] == 0
    # feasible in the receiver's cut region
    assert meets_cuts(rates, inst)
    # the visiting order, (weight, index), has all its suffix cuts tight
    senders = sorted((t for t in inst.transmitters if t != target),
                     key=lambda j: (inst.weights[j], j))
    assert _suffix_cuts_tight(inst, target, rates, senders)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_relabeling_never_changes_objective(seed):
    # renumbering the terminals changes the greedy's tie order, and with it
    # possibly the vertex, but not the optimum it reaches
    rng = random.Random(seed)
    inst = random_linear_instance(rng, multi_user=False)
    (target,) = inst.user_list
    base = objective(inst, edmonds_allocate(inst, target))
    assert solve_exact(build_lp(inst)).value == base
    for _ in range(5):
        order = list(range(inst.m))
        rng.shuffle(order)
        moved = relabel(inst, order)
        (moved_target,) = moved.user_list
        rates = edmonds_allocate(moved, moved_target)
        assert objective(moved, rates) == base
        assert solve_exact(build_lp(moved)).value == base
        assert meets_cuts(rates, moved)
        assert meets_cuts(unlabel(rates, order), inst)

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from datex.greedy import (edmonds_allocate, feasible_in_region, tie_order,
                          violated_cuts)
from datex.instance import Instance, InfeasibleInstanceError
from datex.source import SizeLimitError, mask_to_set, raw_source
from helpers import (example_model, example1_instance, objective,
                     random_linear_instance, tabulate)


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
# Tie ordering
# ---------------------------------------------------------------------------

def test_tie_order_default_is_ascending():
    assert tie_order(4, None) == [0, 1, 2, 3]


def test_tie_order_partial_priority():
    # listed terminals first, in the listed order; the rest ascending
    assert tie_order(6, (3, 4, 5, 1, 2)) == [5, 3, 4, 0, 1, 2]


def test_tie_order_rejects_bad_lists():
    with pytest.raises(ValueError):
        tie_order(3, (0, 0))
    with pytest.raises(ValueError):
        tie_order(3, (5,))


# ---------------------------------------------------------------------------
# The six-terminal single-receiver example
# ---------------------------------------------------------------------------

def test_example1_tie_break_vertex(example1):
    # preferring the single-packet holders (3,4,5) yields two unit rates:
    # terminal 3 covers one unknown packet, terminal 5 the other
    rates = edmonds_allocate(example1, 0, tie_break=(3, 4, 5, 1, 2))
    assert rates == (0, 0, 0, 1, 0, 1)
    assert objective(example1, rates) == 2


def test_example1_default_order_vertex(example1):
    # ascending-index ties: terminals 1 and 2 each contribute one symbol
    rates = edmonds_allocate(example1, 0)
    assert rates == (0, 1, 1, 0, 0, 0)
    assert objective(example1, rates) == 2


def test_example1_all_tie_breaks_same_objective(example1):
    rng = random.Random(1)
    perms = set()
    for _ in range(20):
        perm = list(range(6))
        rng.shuffle(perm)
        perms.add(tuple(perm))
    for perm in perms:
        rates = edmonds_allocate(example1, 0, tie_break=perm)
        assert objective(example1, rates) == 2
        assert feasible_in_region(rates, example1, 0)


def test_example1_greedy_output_feasible(example1):
    rates = edmonds_allocate(example1, 0, tie_break=(3, 4, 5, 1, 2))
    assert feasible_in_region(rates, example1, 0)
    assert not feasible_in_region([0] * 6, example1, 0)


def test_weight_override_changes_vertex(example1):
    # make the pair-sum terminals cheap and the basis terminals expensive
    w = [1, 1, 1, 5, 5, 5]
    rates = edmonds_allocate(example1, 0, weights=w)
    assert rates == (0, 1, 1, 0, 0, 0)
    assert sum(q * r for q, r in zip(w, rates)) == 2


def test_identical_observations_need_nothing():
    model = raw_source([[0], [0], [0]], 1)
    inst = Instance(model, [0])
    assert edmonds_allocate(inst, 0) == (0, 0, 0)
    assert feasible_in_region((0, 0, 0), inst, 0)


def test_greedy_on_tabular_model(example1):
    # the allocation must only depend on the entropy oracle
    table_inst = Instance(tabulate(example1.model), [0])
    for tb in (None, (3, 4, 5, 1, 2), (5, 4, 3, 2, 1, 0)):
        assert (edmonds_allocate(table_inst, 0, tie_break=tb)
                == edmonds_allocate(example1, 0, tie_break=tb))


# ---------------------------------------------------------------------------
# Cut inspection
# ---------------------------------------------------------------------------

def test_violated_cuts_reports_worst_offenders(example1):
    bad = violated_cuts([0] * 6, example1, 0)
    assert bad  # zero rates cannot satisfy the region
    masks = [m for m, _, _ in bad]
    # the full complement cut needs the two missing packets
    full = 0b111110
    assert full in masks
    need = dict((m, n) for m, n, _ in bad)[full]
    assert need == 2
    assert all(got == 0 for _, _, got in bad)
    assert len(violated_cuts([0] * 6, example1, 0, limit=1)) == 1


def test_violated_cuts_respects_transmitter_restriction():
    model = example_model(3)
    inst = Instance(model, [0], transmitters=[1, 2, 3])
    cuts = violated_cuts([0] * 6, inst, 0)
    for mask, _, _ in cuts:
        assert set(mask_to_set(mask)) <= {1, 2, 3}


def test_violated_cuts_rejects_rates_off_the_domain(example1):
    # a negative rate must not pay for another terminal's deficit
    with pytest.raises(ValueError, match="negative"):
        violated_cuts([-5, 0, 1, 1, 0, 0], example1, 0)
    with pytest.raises(ValueError, match="negative"):
        feasible_in_region([-5, 0, 1, 1, 0, 0], example1, 0)
    inst = Instance(example_model(3), [0], transmitters=[1, 2, 3])
    assert feasible_in_region([0, 1, 1, 0, 0, 0], inst, 0)
    with pytest.raises(ValueError, match="terminal 4 does not transmit"):
        feasible_in_region([0, 1, 1, 0, 1, 0], inst, 0)


def test_size_guards_raise_one_typed_error():
    big = raw_source([[i] for i in range(21)], 21)
    with pytest.raises(SizeLimitError):
        violated_cuts([1] * 21, Instance(big, [0]), 0)
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
    (target,) = inst.user_list
    tb = list(range(inst.m))
    rng.shuffle(tb)
    rates = edmonds_allocate(inst, target, tie_break=tb)
    # nonnegative, zero for non-senders
    assert all(r >= 0 for r in rates)
    assert rates[target] == 0
    # feasible in the receiver's cut region
    assert feasible_in_region(rates, inst, target)
    # the visiting order's suffix cuts are all tight
    ranks = tie_order(inst.m, tb)
    senders = sorted((t for t in inst.transmitters if t != target),
                     key=lambda j: (inst.weights[j], ranks[j]))
    assert _suffix_cuts_tight(inst, target, rates, senders)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_tie_break_never_changes_objective(seed):
    rng = random.Random(seed)
    inst = random_linear_instance(rng, multi_user=False)
    (target,) = inst.user_list
    base = objective(inst, edmonds_allocate(inst, target))
    for _ in range(5):
        tb = list(range(inst.m))
        rng.shuffle(tb)
        rates = edmonds_allocate(inst, target, tie_break=tb)
        assert objective(inst, rates) == base

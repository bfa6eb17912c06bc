"""Single-receiver rate allocation by the greedy vertex rule.

For one receiving terminal t, the achievable rate region is the
contra-polymatroid

    { R >= 0 : sum_{i in S} R_i >= H(X_S | X_((T u {t}) \\ S))
      for every nonempty S subseteq T \\ {t} }

where T is the transmitter set.  Minimizing a nonnegative weighted sum
over it admits a greedy optimum: visit transmitters in ascending weight
order (ties broken by an explicit permutation) and give each the
conditional entropy of its observation given the receiver's side
information plus everything visited earlier.  Equivalently, the suffix
sets of the visiting order are exactly the tight constraints of the
returned vertex.

`_iter_cuts` is the package's one enumeration of a receiver's cuts and
their right-hand sides: `violated_cuts` checks a rate vector against them,
and the exact LP (`oracle.build_lp`) takes its rows from them.  The check
is exhaustive and runs in integers: the rates are scaled to one common
denominator and compared with the integer-scaled entropies, read from the
source's lattice query (`SourceModel.lattice_scaled`).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .instance import Instance
from .source import (SizeLimitError, SourceModel, mask_to_set, scale_to_int,
                     subset_table)

__all__ = [
    "edmonds_allocate",
    "check_rate_domain",
    "violated_cuts",
    "tie_order",
    "senders_of",
]

RateVector = Tuple[Fraction, ...]

# Exhaustive cut enumeration is 2^|T|; keep it to desk scale.
_FEASIBILITY_GUARD_M = 20


def tie_order(m: int, tie_break: Optional[Sequence[int]]) -> List[int]:
    """Per-terminal rank used to break equal-weight ties.  tie_break lists
    terminal indices in priority order; unlisted terminals follow in
    ascending index order."""
    rank_of = [0] * m
    if tie_break is None:
        for i in range(m):
            rank_of[i] = i
        return rank_of
    seen = set()
    pos = 0
    for t in tie_break:
        if not 0 <= t < m:
            raise ValueError(f"tie_break index {t} out of range")
        if t in seen:
            raise ValueError(f"tie_break repeats terminal {t}")
        seen.add(t)
        rank_of[t] = pos
        pos += 1
    for i in range(m):
        if i not in seen:
            rank_of[i] = pos
            pos += 1
    return rank_of


def senders_of(instance: Instance, target: int) -> List[int]:
    """The transmitters other than `target` in ascending index order, so a
    stable sort by a key then orders them by (key, index)."""
    return sorted(t for t in instance.transmitters if t != target)


def _greedy_rates_scaled(model: SourceModel, target: int,
                         order: Sequence[int]) -> List[int]:
    """Scaled rates for the given visiting order: entry for order[i] is
    H(X_{order[i]} | X_target, X_{order[:i]}) * entropy_denominator.  One
    chain query, so the model walks the nested prefixes in one pass."""
    return model.chain_scaled(1 << target, order)


def edmonds_allocate(instance: Instance, target: int,
                     tie_break: Optional[Sequence[int]] = None) -> RateVector:
    """Optimal vertex of the single-receiver region for the instance's
    weights.

    Visits the transmitters other than `target` in ascending weight order
    (ties by `tie_break`, default ascending index) and allocates each the
    conditional entropy of its observation given the target's side
    information and all earlier transmitters.  Non-transmitters and the
    target itself get rate zero.
    """
    m = instance.m
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range")
    senders = senders_of(instance, target)
    senders.sort(key=tie_order(m, tie_break).__getitem__)
    senders.sort(key=instance.weights.__getitem__)
    scaled = _greedy_rates_scaled(instance.model, target, senders)
    den = instance.model.entropy_denominator
    return tuple(Fraction(v, den) for v in scaled)


def _iter_cuts(instance: Instance, target: int, rates: Sequence[int]):
    """All nonempty cuts S subseteq transmitters \\ {target}, ascending, as
    (mask, need, got): need is the scaled H(X_S | X_(ctx \\ S)), with ctx
    the receiver plus the transmitters, and got the sum of the integer
    `rates` over S.  Masks and sums come from two half-size subset tables
    (low senders inner; summing distinct powers of two gives the subset
    masks themselves).  The entropies come from the model's lattice query
    for the receiver plus any subset of its senders: a linear source
    memoizes that whole lattice in one walk the first time, so every
    later enumeration of the receiver's cuts, by `violated_cuts` or
    `oracle.build_lp`, reads only memo hits."""
    tmask = instance.transmitter_mask & ~(1 << target)
    ctx = tmask | (1 << target)
    senders = mask_to_set(tmask)
    half = len(senders) // 2
    lo, hi = senders[:half], senders[half:]
    add = operator.add
    lo_cuts = list(zip(subset_table([1 << t for t in lo], add),
                       subset_table([rates[t] for t in lo], add)))
    js = instance.model.lattice_scaled(1 << target, tmask)
    total = js(ctx)
    for hi_cut, hi_got in zip(subset_table([1 << t for t in hi], add),
                              subset_table([rates[t] for t in hi], add)):
        for lo_cut, lo_got in lo_cuts:
            cut = hi_cut | lo_cut
            if cut:
                yield cut, total - js(ctx ^ cut), hi_got + lo_got


def check_rate_domain(instance: Instance, rates: Sequence) -> List[Fraction]:
    """The rate vector as Fractions, after checking that it has m entries,
    none negative, and none nonzero off the transmitters (ValueError)."""
    m = instance.m
    r = [Fraction(x) for x in rates]
    if len(r) != m:
        raise ValueError(f"expected {m} rates, got {len(r)}")
    for i, x in enumerate(r):
        if x < 0:
            raise ValueError(f"rate of terminal {i} is negative ({x})")
        if x and i not in instance.transmitters:
            raise ValueError(f"terminal {i} does not transmit but has rate {x}")
    return r


def violated_cuts(rates: Sequence, instance: Instance, target: int,
                  limit: Optional[int] = None) -> List[Tuple[int, Fraction, Fraction]]:
    """Cuts the rate vector fails, as (mask, required, provided) triples in
    ascending mask order.  Exact: the rates are scaled to one common
    denominator and every cut is compared in integers.  Exhaustive over
    subsets of the transmitters.  Rates must pass check_rate_domain."""
    m = instance.m
    if m > _FEASIBILITY_GUARD_M:
        raise SizeLimitError(
            f"feasibility check limited to m <= {_FEASIBILITY_GUARD_M}")
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range")
    rden, scaled = scale_to_int(check_rate_domain(instance, rates))
    den = instance.model.entropy_denominator
    out = []
    for cut, need, got in _iter_cuts(instance, target, scaled):
        if got * den < need * rden:
            out.append((cut, Fraction(need, den), Fraction(got, rden)))
            if limit is not None and len(out) >= limit:
                break
    return out


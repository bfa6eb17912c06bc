"""One receiver's greedy vertex and its cuts.

For one receiving terminal t, the achievable rate region is the
contra-polymatroid

    { R >= 0 : sum_{i in S} R_i >= H(X_S | X_((T u {t}) \\ S))
      for every nonempty S subseteq T \\ {t} }

where T is the transmitter set.  Minimizing a nonnegative weighted sum
over it admits a greedy optimum: visit transmitters in ascending weight
order (ties by terminal index) and give each the conditional entropy of
its observation given the receiver's side information plus everything
visited earlier.  Equivalently, the suffix sets of the visiting order are
exactly the tight constraints of that vertex.  `_greedy_rates_scaled`
gives the vertex of any visiting order; `dual.solve` asks it once per
receiver and iteration, ordering the senders by that receiver's
multipliers, which for a single receiver are the weights.

`_iter_cuts` is the package's one enumeration of a receiver's cuts and
their right-hand sides.  `violated_cuts` is the one separation query on
it: for one rate vector, every receiver's most violated cut, keyed by
the receivers whose cuts the rates miss.  `verify`, the exact oracle's
cut loop, the design's feasibility check after a failed first draw and
`rationalize`'s repair each ask it once per rate vector.  The scan is
exhaustive and runs in integers: the rates are checked and scaled to one
common denominator once and compared with the integer-scaled entropies,
read from the source's lattice query (`SourceModel.lattice_scaled`).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .instance import Instance
from .source import (SizeLimitError, SourceModel, mask_to_set, scale_to_int,
                     subset_table)

__all__ = [
    "check_rate_domain",
    "violated_cuts",
    "senders_of",
]

RateVector = Tuple[Fraction, ...]

# Exhaustive cut enumeration is 2^|T|; keep it to desk scale.
_FEASIBILITY_GUARD_M = 20


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


def _iter_cuts(instance: Instance, target: int, rates: Sequence[int]):
    """All nonempty cuts S subseteq transmitters \\ {target}, ascending, as
    (mask, need, got): need is the scaled H(X_S | X_(ctx \\ S)), with ctx
    the receiver plus the transmitters, and got the sum of the integer
    `rates` over S.  Masks and sums come from two half-size subset tables
    (low senders inner; summing distinct powers of two gives the subset
    masks themselves).  The entropies come from the model's lattice query
    for the receiver plus any subset of its senders: a linear source
    memoizes that whole lattice in one walk the first time, so every
    later enumeration of the receiver's cuts reads only memo hits."""
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


def violated_cuts(rates: Sequence, instance: Instance
                  ) -> Dict[int, Tuple[int, Fraction, Fraction]]:
    """Each receiver's most violated cut as {receiver: (mask, required,
    provided)}, in receiver order, for the receivers whose cuts the rates
    miss: the largest required - provided, ties to the smallest mask,
    which is the unique inclusion-minimal one (the deficit is
    supermodular).  Exact: the rates are checked (check_rate_domain) and
    scaled to one common denominator once, and every cut is compared in
    integers.  Exhaustive over subsets of the transmitters."""
    if instance.m > _FEASIBILITY_GUARD_M:
        raise SizeLimitError(
            f"feasibility check limited to m <= {_FEASIBILITY_GUARD_M}")
    rden, scaled = scale_to_int(check_rate_domain(instance, rates))
    den = instance.model.entropy_denominator
    out = {}
    for l in instance.user_list:
        worst = 0
        for cut, need, got in _iter_cuts(instance, l, scaled):
            deficit = need * rden - got * den
            if deficit > worst:   # masks ascend, so a tie keeps the smaller
                worst = deficit
                out[l] = cut, Fraction(need, den), Fraction(got, rden)
    return out

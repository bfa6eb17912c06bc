"""Side-information models and their entropy oracles.

Every model answers joint/conditional entropy queries for subsets of the
m terminals.  Subsets are integer bitmasks: terminal i (0-indexed) is bit
i, so the first terminal is the least significant bit.  That convention is
shared with the instance file format.  Entropies are reported in symbols
(one symbol = log q bits for a field of size q) and are exact: integers
for linear/raw models, Fractions for tabular ones.

Three model kinds:

* LinearSource -- terminal i observes A_i . W for a matrix A_i over a
  finite field, W uniform; joint entropy of a subset is the rank of the
  stacked matrices.
* RawSource -- terminals own subsets of N packets outright; entropy is the
  count of distinct owned packets (a LinearSource over basis rows, with a
  faster oracle).
* TabularSource -- an explicit table of 2^m subset entropies for sources
  that do not arise from any matrix description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .gf import Field, Matrix, make_field, rank, stack

__all__ = [
    "SizeLimitError",
    "SourceModel",
    "LinearSource",
    "RawSource",
    "TabularSource",
    "TableReport",
    "raw_source",
    "validate_table",
    "tabulate",
    "as_mask",
    "mask_to_set",
]

SubsetLike = Union[int, Iterable[int]]


class SizeLimitError(ValueError):
    """The input is larger than an exhaustive (2^m) routine accepts."""


def as_mask(m: int, subset: SubsetLike) -> int:
    """Normalize a subset given as a bitmask or an iterable of terminal
    indices.  Bit i is terminal i."""
    if isinstance(subset, int):
        if subset < 0 or subset >= (1 << m):
            raise ValueError(f"mask {subset} out of range for m={m}")
        return subset
    mask = 0
    for i in subset:
        if not 0 <= i < m:
            raise ValueError(f"terminal index {i} out of range for m={m}")
        mask |= 1 << i
    return mask


def mask_to_set(mask: int) -> Tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class SourceModel:
    """Base entropy oracle.  Subclasses fill in _joint_scaled."""

    kind = "abstract"
    m: int

    # Every entropy equals an integer multiple of 1/entropy_denominator.
    # Linear models have denominator 1; tabular models use the lcm of the
    # table denominators.  Integer-scaled entropies keep downstream
    # arithmetic exact and fast.
    entropy_denominator: int = 1

    def _joint_scaled(self, mask: int) -> int:
        raise NotImplementedError

    def joint_entropy_scaled(self, subset: SubsetLike) -> int:
        return self._joint_scaled(as_mask(self.m, subset))

    def joint_entropy(self, subset: SubsetLike) -> Fraction:
        v = self.joint_entropy_scaled(subset)
        d = self.entropy_denominator
        return Fraction(v) if d == 1 else Fraction(v, d)

    def cond_entropy(self, subset: SubsetLike, given: SubsetLike) -> Fraction:
        """H(X_S | X_T) = H(X_{S u T}) - H(X_T)."""
        s = as_mask(self.m, subset)
        t = as_mask(self.m, given)
        v = self._joint_scaled(s | t) - self._joint_scaled(t)
        if v < 0:
            raise ArithmeticError("conditional entropy must be nonnegative")
        d = self.entropy_denominator
        return Fraction(v) if d == 1 else Fraction(v, d)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1


class LinearSource(SourceModel):
    """Observations X_i = A_i . W over a finite field; W uniform over
    field^N.  Joint entropy of a subset is the rank of the stacked rows,
    in symbols."""

    kind = "linear"

    def __init__(self, field: Field, packet_count: int,
                 matrices: Sequence[Matrix]):
        if packet_count < 0:
            raise ValueError("packet_count must be >= 0")
        for M in matrices:
            if M.field != field:
                raise ValueError("all observation matrices must share the field")
            if M.ncols != packet_count:
                raise ValueError(
                    f"observation matrix has {M.ncols} columns, expected {packet_count}")
        self.field = field
        self.N = packet_count
        self.matrices = tuple(matrices)
        self.m = len(self.matrices)
        self._memo: Dict[int, int] = {0: 0}

    def stacked(self, subset: SubsetLike) -> Matrix:
        mask = as_mask(self.m, subset)
        blocks = [self.matrices[i] for i in mask_to_set(mask)]
        if not blocks:
            return Matrix.zeros(self.field, 0, self.N)
        return stack(*blocks)

    def _joint_scaled(self, mask: int) -> int:
        hit = self._memo.get(mask)
        if hit is None:
            hit = rank(self.stacked(mask))
            self._memo[mask] = hit
        return hit


class RawSource(LinearSource):
    """Terminals own packets outright.  Equivalent to a LinearSource whose
    rows are standard basis vectors, but the entropy oracle just counts
    distinct owned packets."""

    kind = "raw"

    def __init__(self, ownership: Sequence[Iterable[int]], packet_count: int,
                 field: Optional[Field] = None):
        field = field if field is not None else make_field(2)
        own_sets = []
        mats = []
        for owned in ownership:
            idx = sorted(set(owned))
            if idx and not (0 <= idx[0] and idx[-1] < packet_count):
                raise ValueError(f"packet index out of range in {idx}")
            own_sets.append(frozenset(idx))
            rows = [[1 if j == k else 0 for j in range(packet_count)] for k in idx]
            mats.append(Matrix.from_rows(field, rows, ncols=packet_count))
        super().__init__(field, packet_count, mats)
        self.ownership = tuple(own_sets)

    def _joint_scaled(self, mask: int) -> int:
        hit = self._memo.get(mask)
        if hit is None:
            owned = set()
            for i in mask_to_set(mask):
                owned |= self.ownership[i]
            hit = len(owned)
            self._memo[mask] = hit
        return hit


def raw_source(ownership: Sequence[Iterable[int]], packet_count: int,
               field: Optional[Field] = None) -> RawSource:
    """Build the packet-ownership model (terminal i owns ownership[i])."""
    return RawSource(ownership, packet_count, field)


@dataclass
class TableReport:
    """Outcome of entropy-table validation.  Hard errors make the table
    unusable; submodularity violations only void optimality guarantees."""

    ok: bool
    errors: List[str] = dc_field(default_factory=list)
    submodularity_violations: List[Tuple[int, int, int]] = dc_field(default_factory=list)

    @property
    def submodular(self) -> bool:
        return not self.submodularity_violations


def validate_table(values: Sequence[Fraction]) -> TableReport:
    """Check an entropy table: length 2^m, zero at the empty set,
    monotone (hard errors); submodularity violations are reported as
    (mask, i, j) triples where H(S+i) + H(S+j) < H(S+i+j) + H(S)."""
    n = len(values)
    m = n.bit_length() - 1
    errors: List[str] = []
    if n == 0 or n != (1 << m):
        return TableReport(False, [f"table length {n} is not a power of two"])
    if values[0] != 0:
        errors.append(f"entropy of the empty set is {values[0]}, expected 0")
    for v in values:
        if v < 0:
            errors.append(f"negative entropy {v}")
            break
    for mask in range(n):
        for i in range(m):
            if mask & (1 << i):
                continue
            if values[mask | (1 << i)] < values[mask]:
                errors.append(
                    f"monotonicity violated: H({mask | (1 << i):#x}) < H({mask:#x})")
    violations: List[Tuple[int, int, int]] = []
    for mask in range(n):
        for i in range(m):
            if mask & (1 << i):
                continue
            for j in range(i + 1, m):
                if mask & (1 << j):
                    continue
                lhs = values[mask | (1 << i)] + values[mask | (1 << j)]
                rhs = values[mask | (1 << i) | (1 << j)] + values[mask]
                if lhs < rhs:
                    violations.append((mask, i, j))
    return TableReport(not errors, errors, violations)


class TabularSource(SourceModel):
    """Entropy oracle backed by an explicit 2^m table of rationals."""

    kind = "tabular"

    def __init__(self, values: Sequence[Union[Fraction, int, str]]):
        vals = [Fraction(v) for v in values]
        report = validate_table(vals)
        if not report.ok:
            raise ValueError("invalid entropy table: " + "; ".join(report.errors))
        self.m = len(vals).bit_length() - 1
        self.report = report
        den = 1
        for v in vals:
            den = den * v.denominator // math.gcd(den, v.denominator)
        self.entropy_denominator = den
        self._scaled = tuple(int(v * den) for v in vals)
        self.values = tuple(vals)

    def _joint_scaled(self, mask: int) -> int:
        return self._scaled[mask]


def tabulate(model: SourceModel) -> TabularSource:
    """Materialize any model as an explicit table (m <= 16 guard)."""
    if model.m > 16:
        raise SizeLimitError("refusing to tabulate more than 2^16 subsets")
    vals = [model.joint_entropy(mask) for mask in range(1 << model.m)]
    return TabularSource(vals)

"""Side-information models and their entropy oracles.

Every model answers joint entropy queries for subsets of the m
terminals.  Subsets are integer bitmasks: terminal i (0-indexed) is bit
i, so the first terminal is the least significant bit.  That convention is
shared with the instance file format.  Entropies are reported in symbols
(one symbol = log q bits for a field of size q) and are exact: integers
for linear/raw models, Fractions for tabular ones.

Three model kinds:

* LinearSource -- terminal i observes A_i . W for a matrix A_i over a
  finite field, W uniform; joint entropy of a subset is the rank of the
  stacked matrices.
* RawSource -- terminals own subsets of N packets outright; entropy is the
  count of distinct owned packets (the entropies of a LinearSource over
  basis rows, from bit counts).
* TabularSource -- an explicit table of 2^m subset entropies for sources
  that do not arise from any matrix description.  The table must be an
  entropy function: zero at the empty set, monotone and submodular (the
  greedy is exact only for submodular tables).

Every model is its walk step: `_cut_grow(state, t)` is the walk state
and scaled entropy of a subset plus terminal t, and `_cut_empty` the
state of the empty set.  A point query folds the step over the subset;
`greedy._iter_cuts` walks each receiver's cut complements with it, and a
greedy chain (`greedy._greedy_rates_scaled`) is one path of it.  A raw
state is the int of owned packets (a step is one OR and a `bit_count`),
a tabular state the mask.  A linear state carries the nearest echelon
basis (`gf.EchelonBasis`) built on the way, and a memo miss absorbs only
the rows of the terminals that basis lacks, so a chain walks the rank
memo and then eliminates once.  A linear point query alone is not a
fold of the step: it is the memoized rank of the stacked matrices.

The module also holds `scale_to_int`, the integer view of a rational
vector that every layer shares.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .gf import (EchelonBasis, Field, Matrix, SizeLimitError, make_field, rank,
                 stack)

__all__ = [
    "SizeLimitError",
    "SourceModel",
    "LinearSource",
    "RawSource",
    "TabularSource",
    "raw_source",
    "validate_table",
    "mask_to_set",
    "scale_to_int",
]

def mask_to_set(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def scale_to_int(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The integer view of a rational vector: the lcm `den` of its
    denominators and every value times `den`."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


class SourceModel:
    """Base entropy oracle.  Subclasses fill in the walk step
    `_cut_grow(state, t)`, the state and scaled entropy of that state's
    subset plus terminal t; `_cut_empty` is the empty set's state."""

    m: int

    # Every entropy equals an integer multiple of 1/entropy_denominator.
    # Linear models have denominator 1; tabular models use the lcm of the
    # table denominators.  Integer-scaled entropies keep downstream
    # arithmetic exact and fast.
    entropy_denominator: int = 1

    _cut_empty = 0   # raw: no owned packets; tabular: the empty mask

    def _joint_scaled(self, mask: int) -> int:
        state, h = self._cut_empty, 0
        for t in mask_to_set(mask):
            state, h = self._cut_grow(state, t)
        return h

    def joint_entropy_scaled(self, mask: int) -> int:
        if not 0 <= mask < 1 << self.m:
            raise ValueError(f"mask {mask} out of range for m={self.m}")
        return self._joint_scaled(mask)

    def joint_entropy(self, mask: int) -> Fraction:
        return Fraction(self.joint_entropy_scaled(mask),
                        self.entropy_denominator)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def _full_rank(self) -> int:
        return self._joint_scaled(self.full_mask)


class LinearSource(SourceModel):
    """Observations X_i = A_i . W over a finite field; W uniform over
    field^N.  Joint entropy of a subset is the rank of the stacked rows,
    in symbols."""

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
        # each terminal's observation row count; size checks read these
        self.row_counts = tuple(M.nrows for M in self.matrices)
        self._memo: dict[int, int] = {0: 0}
        self._rows = tuple(M.rows() for M in self.matrices)
        # [mask, nearest basis built on the way, the mask it spans]
        self._cut_empty = [0, EchelonBasis(field, packet_count), 0]

    def _joint_scaled(self, mask: int) -> int:
        # the memo holds mask 0, so every stacked subset is nonempty
        hit = self._memo.get(mask)
        if hit is None:
            hit = rank(stack(*(self.matrices[i] for i in mask_to_set(mask))))
            self._memo[mask] = hit
        return hit

    def _cut_grow(self, state, t: int):
        """A memo hit carries the parent's basis along.  A miss first
        brings the parent's basis up to the parent's mask, once (it is
        kept in the parent's state for its other children, so only a
        state whose basis lags its mask is written to, never
        `_cut_empty`), then copies it and absorbs t's rows."""
        mask, basis, held = state
        child = mask | 1 << t
        hit = self._memo.get(child)
        if hit is not None:
            return [child, basis, held], hit
        rows = self._rows
        if held != mask:
            basis = basis.copy()
            for i in mask_to_set(mask & ~held):
                for row in rows[i]:
                    basis.absorb(row)
            state[1:] = basis, mask
        basis = basis.copy()
        for row in rows[t]:
            basis.absorb(row)
        self._memo[child] = basis.rank
        return [child, basis, child], basis.rank


class RawSource(SourceModel):
    """Terminals own packets outright.  Equivalent to a LinearSource whose
    rows are standard basis vectors, but each terminal is held as one int
    bitmask of its packets and the entropy oracle counts the bits of their
    union.  Bit b is packet b, unless the largest index is at least the
    number of indices given: then bit b is the b-th packet some terminal
    holds, so a mask costs O(packets held) bits, not O(largest index).
    The one-hot observation matrices are built on first use (code design,
    simulation, scheme files); entropy queries and size checks never need
    them."""

    def __init__(self, ownership: Sequence[Sequence[int]], packet_count: int,
                 field: Field | None = None):
        if packet_count < 0:
            raise ValueError("packet_count must be >= 0")
        held_lists = [idx for idx in ownership if idx]
        low = min(map(min, held_lists), default=0)
        top = max(map(max, held_lists), default=-1)
        if low < 0 or top >= packet_count:
            i = next(i for i, idx in enumerate(ownership)
                     if not all(0 <= k < packet_count for k in idx))
            raise ValueError(f"terminals[{i}].packets: index out of "
                             f"range 0..{packet_count - 1}")
        # bit b of a mask is packet held[b]: b itself while the index range
        # is no larger than the input; past that, the b-th packet some
        # terminal holds, so a few large indices cost a few bits
        held = range(top + 1)
        if top >= sum(map(len, held_lists)):
            held = sorted(set().union(*held_lists))
            bit_of = {k: b for b, k in enumerate(held)}.__getitem__
            ownership = [list(map(bit_of, idx)) for idx in ownership]
        bits = []
        digits = bytes.maketrans(b"\0\1", b"01")
        for idx in ownership:
            # one byte per held packet, read once as a binary numeral
            # (bit 0 last); "0" when no terminal holds a packet
            flags = bytearray(len(held))
            for b in idx:
                flags[b] = 1
            bits.append(int(flags.translate(digits)[::-1] or b"0", 2))
        self.field = field if field is not None else make_field(2)
        self.N = packet_count
        self.m = len(bits)
        self.row_counts = tuple(b.bit_count() for b in bits)
        self._held = held
        self._bits = tuple(bits)

    def packets(self, i: int) -> list[int]:
        """Terminal i's packets, ascending."""
        held = self._held
        bits = bin(self._bits[i])[:1:-1]   # character b is bit b
        return [held[b] for b, c in enumerate(bits) if c == "1"]

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        N = self.N
        return tuple(
            Matrix(self.field, self.row_counts[i], N,
                   [1 if j == k else 0 for k in self.packets(i)
                    for j in range(N)])
            for i in range(self.m))

    def _cut_grow(self, owned: int, t: int):
        owned |= self._bits[t]
        return owned, owned.bit_count()


def raw_source(ownership: Sequence[Sequence[int]], packet_count: int,
               field: Field | None = None) -> RawSource:
    """Build the packet-ownership model (terminal i owns ownership[i])."""
    return RawSource(ownership, packet_count, field)


def validate_table(values: Sequence[Fraction]) -> list[str]:
    """The problems of an entropy table, empty when it is valid: length
    2^m, zero at the empty set, no negative entry, monotone, and -- when
    all that holds -- submodular.  The last two checks each report only
    their first violation in ascending order: the pair (S, i) with
    H(S+i) < H(S), or the triple (S, i, j) with
    H(S+i) + H(S+j) < H(S+i+j) + H(S)."""
    scaled = scale_to_int(values)[1]
    n = len(scaled)
    m = n.bit_length() - 1
    errors: list[str] = []
    if n == 0 or n != (1 << m):
        return [f"table length {n} is not a power of two"]
    if scaled[0] != 0:
        errors.append(f"entropy of the empty set is {values[0]}, expected 0")
    for v, h in zip(values, scaled):
        if h < 0:
            errors.append(f"negative entropy {v}")
            break
    drop = next(((mask, mask | (1 << i)) for mask in range(n) for i in range(m)
                 if not mask & (1 << i) and scaled[mask | (1 << i)] < scaled[mask]),
                None)
    if drop is not None:
        errors.append(f"monotonicity violated: H({drop[1]:#x}) < H({drop[0]:#x})")
    return errors or _first_submodularity_violation(scaled, m)


def _first_submodularity_violation(scaled: Sequence[int],
                                   m: int) -> list[str]:
    bits = [1 << i for i in range(m)]
    for mask, h in enumerate(scaled):
        free = [b for b in bits if not mask & b]
        for x, bi in enumerate(free):
            si = mask | bi
            hi = scaled[si] - h
            for bj in free[x + 1:]:
                sj = mask | bj
                if hi + scaled[sj] < scaled[si | bj]:
                    return [f"submodularity violated: H({si:#x}) + H({sj:#x}) "
                            f"< H({si | sj:#x}) + H({mask:#x})"]
    return []


class TabularSource(SourceModel):
    """Entropy oracle backed by an explicit 2^m table of rationals."""

    def __init__(self, values: Sequence[Fraction | int | str]):
        vals = [Fraction(v) for v in values]
        errors = validate_table(vals)
        if errors:
            raise ValueError("invalid entropy table: " + "; ".join(errors))
        self.m = len(vals).bit_length() - 1
        den, scaled = scale_to_int(vals)
        self.entropy_denominator = den
        self._scaled = tuple(scaled)

    def _cut_grow(self, mask: int, t: int):
        mask |= 1 << t
        return mask, self._scaled[mask]

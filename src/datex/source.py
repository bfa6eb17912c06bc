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
  count of distinct owned packets (a LinearSource over basis rows, with a
  faster oracle).
* TabularSource -- an explicit table of 2^m subset entropies for sources
  that do not arise from any matrix description.  The table must be an
  entropy function: zero at the empty set, monotone and submodular (the
  greedy is exact only for submodular tables).

Besides point queries, every model answers two structured queries.

* A chain query: `chain_scaled` returns the entropy increments along the
  nested subsets start, start + j1, start + j1 + j2, ... of one visiting
  order, which is all the greedy ever asks for.
* A lattice query: `lattice_scaled(base, free)` returns a point query
  trusted on the masks base | T for every T within `free`, which are the
  subsets one receiver's cuts read (`greedy._iter_cuts`).

A raw source keeps one int bitmask of owned packets per terminal, so a
chain is one running OR and a `bit_count` per step, and a point query ORs
precomputed unions of 8-terminal blocks; neither needs a memo, and the
lattice query is that point query.  A linear source memoizes ranks.  A
chain walks the memo while the prefixes are known and, from the first
unknown prefix on, absorbs the remaining terminals' rows into one
incremental echelon basis (`gf.EchelonBasis`), memoizing every prefix
rank on the way -- one elimination per chain instead of one per prefix.
The first lattice query for a (base, free) pair memoizes the whole
lattice in one depth-first walk: each child copies its parent's basis
(the pivot list and rank; kept rows are never mutated, so they are
shared) and absorbs one terminal's rows, so every subset costs one
terminal's rows instead of a stack of all of them.  Later queries are
plain memo lookups.  Raw and linear chains, and the walk, stop at the
first subset that holds H(X_M), since every superset holds it too.
Tabular sources look each subset up in their table.

The module also holds two helpers every layer shares: `scale_to_int`,
the integer view of a rational vector, and `subset_table`, a table over
all subsets of a short list folded by a given operation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

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
    "subset_table",
]

def mask_to_set(mask: int) -> Tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def scale_to_int(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """The integer view of a rational vector: the lcm `den` of its
    denominators and every value times `den`."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def subset_table(values: Sequence[int],
                 op: Callable[[int, int], int]) -> List[int]:
    """table[s] = values[i] folded by `op` over the set bits i of s, and
    table[0] = 0: each entry extends the entry without its lowest bit."""
    table = [0] * (1 << len(values))
    for s in range(1, len(table)):
        low = s & -s
        table[s] = op(table[s ^ low], values[low.bit_length() - 1])
    return table


class SourceModel:
    """Base entropy oracle.  Subclasses fill in _joint_scaled."""

    m: int

    # Every entropy equals an integer multiple of 1/entropy_denominator.
    # Linear models have denominator 1; tabular models use the lcm of the
    # table denominators.  Integer-scaled entropies keep downstream
    # arithmetic exact and fast.
    entropy_denominator: int = 1

    def _joint_scaled(self, mask: int) -> int:
        raise NotImplementedError

    def chain_scaled(self, start: int, order: Sequence[int]) -> List[int]:
        """Scaled entropy increments along the nested chain start,
        start + order[0], start + order[0] + order[1], ...: entry j of the
        m-long result is H(X_j | X_start, X_(terminals before j in order))
        times entropy_denominator, and 0 for terminals not in order.  The
        start mask and order are trusted (internal calls, not validated)."""
        js = self._joint_scaled
        out = [0] * self.m
        mask = start
        prev = js(mask)
        for j in order:
            mask |= 1 << j
            cur = js(mask)
            out[j] = cur - prev
            prev = cur
        return out

    def lattice_scaled(self, base: int, free: int) -> Callable[[int], int]:
        """A scaled point query trusted on the masks base | T, T a subset
        of `free` (disjoint from base): the lattice of one receiver's cuts.
        Here it is the model's own point query."""
        return self._joint_scaled

    def joint_entropy_scaled(self, mask: int) -> int:
        if not 0 <= mask < 1 << self.m:
            raise ValueError(f"mask {mask} out of range for m={self.m}")
        return self._joint_scaled(mask)

    def joint_entropy(self, mask: int) -> Fraction:
        v = self.joint_entropy_scaled(mask)
        d = self.entropy_denominator
        return Fraction(v) if d == 1 else Fraction(v, d)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1


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
        self._memo: Dict[int, int] = {0: 0}
        self._walked: Set[Tuple[int, int]] = set()
        self._rows = tuple(M.rows() for M in self.matrices)

    def _joint_scaled(self, mask: int) -> int:
        # the memo holds mask 0, so every stacked subset is nonempty
        hit = self._memo.get(mask)
        if hit is None:
            hit = rank(stack(*(self.matrices[i] for i in mask_to_set(mask))))
            self._memo[mask] = hit
        return hit

    @cached_property
    def _full_rank(self) -> int:
        return self._joint_scaled(self.full_mask)

    def _basis(self, mask: int) -> EchelonBasis:
        """An echelon basis of the rows of the terminals in `mask`."""
        basis = EchelonBasis(self.field, self.N)
        for i in mask_to_set(mask):
            for row in self._rows[i]:
                basis.absorb(row)
        return basis

    def lattice_scaled(self, base: int, free: int) -> Callable[[int], int]:
        """The first query of a lattice memoizes all of it in one
        depth-first walk; every later one is a memo lookup."""
        if (base, free) not in self._walked:
            self._walk(base, free)
            self._walked.add((base, free))
        return self._memo.__getitem__

    def _walk(self, base: int, free: int) -> None:
        """Memoize the rank of base | T for every T within `free`.  A node
        adds only senders after its last one, so each subset is reached
        once; a child copies its parent's echelon basis and absorbs one
        terminal's rows.  A node at the full rank H(X_M) fills its whole
        subtree with that rank."""
        memo, rows, full = self._memo, self._rows, self._full_rank
        senders = mask_to_set(free)
        todo = [(base, self._basis(base), 0)]   # (mask, basis, first sender it may add)
        while todo:
            mask, basis, x = todo.pop()
            if basis.rank == full:
                for sub in subset_table([1 << t for t in senders[x:]],
                                        operator.or_):
                    memo[mask | sub] = full
                continue
            memo[mask] = basis.rank
            for y in range(x, len(senders)):
                child = basis.copy()
                for row in rows[senders[y]]:
                    child.absorb(row)
                todo.append((mask | 1 << senders[y], child, y + 1))

    def chain_scaled(self, start: int, order: Sequence[int]) -> List[int]:
        """Walk the memo while the prefixes are known; from the first
        unknown prefix on, absorb the rows into one echelon basis and
        memoize every prefix rank it yields.  Once a prefix reaches the
        full rank H(X_M) every later increment is zero, so the chain
        stops there."""
        memo = self._memo
        full = self._full_rank
        out = [0] * self.m
        mask = start
        prev = memo.get(mask)
        pos = 0
        if prev is not None:
            for j in order:
                if prev == full:
                    return out
                cur = memo.get(mask | (1 << j))
                if cur is None:
                    break
                mask |= 1 << j
                out[j] = cur - prev
                prev = cur
                pos += 1
            else:
                return out
        rows = self._rows
        basis = self._basis(mask)
        if prev is None:
            prev = memo[mask] = basis.rank
        for j in order[pos:]:
            if prev == full:
                break
            mask |= 1 << j
            for row in rows[j]:
                basis.absorb(row)
            cur = memo[mask] = basis.rank
            out[j] = cur - prev
            prev = cur
        return out


class RawSource(LinearSource):
    """Terminals own packets outright.  Equivalent to a LinearSource whose
    rows are standard basis vectors, but each terminal is held as one int
    bitmask of its packets and the entropy oracle counts the bits of their
    union.  The one-hot observation matrices are built on first use (code
    design, simulation, scheme files); entropy queries and size checks
    never need them."""

    def __init__(self, ownership: Sequence[Iterable[int]], packet_count: int,
                 field: Optional[Field] = None):
        if packet_count < 0:
            raise ValueError("packet_count must be >= 0")
        bits = []
        for i, owned in enumerate(ownership):
            idx = list(owned)
            if idx and not (0 <= min(idx) and max(idx) < packet_count):
                raise ValueError(f"terminals[{i}].packets: index out of "
                                 f"range 0..{packet_count - 1}")
            # bit k of the mask is packet k: set in bytes, converted once
            buf = bytearray(max(idx, default=0) // 8 + 1)
            for k in idx:
                buf[k >> 3] |= 1 << (k & 7)
            bits.append(int.from_bytes(buf, "little"))
        self.field = field if field is not None else make_field(2)
        self.N = packet_count
        self.m = len(bits)
        self.row_counts = tuple(b.bit_count() for b in bits)
        self._bits = tuple(bits)
        # the union of owned packets for every subset of each block of 8
        # terminals, so a point query is one lookup per block; packet sets
        # of different terminals overlap, so the fold is OR, not a sum
        self._blocks = tuple(subset_table(bits[i:i + 8], operator.or_)
                             for i in range(0, self.m, 8))

    def packets(self, i: int) -> List[int]:
        """Terminal i's packets, ascending."""
        bits = bin(self._bits[i])[:1:-1]   # character k is bit k
        return [k for k, c in enumerate(bits) if c == "1"]

    @cached_property
    def matrices(self) -> Tuple[Matrix, ...]:
        N = self.N
        return tuple(
            Matrix(self.field, self.row_counts[i], N,
                   [1 if j == k else 0 for k in self.packets(i)
                    for j in range(N)])
            for i in range(self.m))

    # the point query is a few table lookups, with no memo to fill
    lattice_scaled = SourceModel.lattice_scaled

    def _owned(self, mask: int) -> int:
        owned = 0
        for table in self._blocks:
            owned |= table[mask & 0xFF]
            mask >>= 8
        return owned

    def _joint_scaled(self, mask: int) -> int:
        return self._owned(mask).bit_count()

    def chain_scaled(self, start: int, order: Sequence[int]) -> List[int]:
        """One running OR of the owned packets; it stops once the prefix
        owns every packet any terminal owns."""
        bits = self._bits
        full = self._full_rank
        out = [0] * self.m
        owned = self._owned(start)
        prev = owned.bit_count()
        if prev == full:
            return out
        for j in order:
            owned |= bits[j]
            cur = owned.bit_count()
            out[j] = cur - prev
            if cur == full:
                break
            prev = cur
        return out


def raw_source(ownership: Sequence[Iterable[int]], packet_count: int,
               field: Optional[Field] = None) -> RawSource:
    """Build the packet-ownership model (terminal i owns ownership[i])."""
    return RawSource(ownership, packet_count, field)


def validate_table(values: Sequence[Fraction]) -> List[str]:
    """The problems of an entropy table, empty when it is valid: length
    2^m, zero at the empty set, no negative entry, monotone, and -- when
    all that holds -- submodular.  The last two checks each report only
    their first violation in ascending order: the pair (S, i) with
    H(S+i) < H(S), or the triple (S, i, j) with
    H(S+i) + H(S+j) < H(S+i+j) + H(S)."""
    scaled = scale_to_int(values)[1]
    n = len(scaled)
    m = n.bit_length() - 1
    errors: List[str] = []
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
                                   m: int) -> List[str]:
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

    def __init__(self, values: Sequence[Union[Fraction, int, str]]):
        vals = [Fraction(v) for v in values]
        errors = validate_table(vals)
        if errors:
            raise ValueError("invalid entropy table: " + "; ".join(errors))
        self.m = len(vals).bit_length() - 1
        den, scaled = scale_to_int(vals)
        self.entropy_denominator = den
        self._scaled = tuple(scaled)

    def _joint_scaled(self, mask: int) -> int:
        return self._scaled[mask]

"""Finite-field arithmetic and exact dense linear algebra.

Fields GF(p^w) are represented with elements packed into the integers
0 .. p^w - 1: the element with polynomial coordinates (c_0, ..., c_{w-1})
over GF(p) is stored as sum(c_i * p**i).  For prime fields (w = 1) this is
plain modular arithmetic.  Extension fields reduce modulo the monic
irreducible polynomial that is lowest in the packed integer order, so a
(characteristic, degree) pair always names the same field, and
`make_field` returns one object for it.  An extension field builds its
log/antilog tables (and, over odd characteristic, Zech logarithms for
addition) when it is made: in integer bit arithmetic over GF(2), else one
multiply-by-generator step on the previous antilog entry's digits.

All matrix routines are exact (no floats) and sized for desk-scale
problems: a few hundred rows/columns at most.  There is one Gaussian
elimination, `EchelonBasis`, which grows a row-echelon basis row by row
with sparse kept rows and inline mod-p row arithmetic on prime fields;
`rank`, `solve_linear` (every column of a right-hand-side matrix at
once), the source models' greedy chains and their cut walks all run
on it.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

__all__ = [
    "SizeLimitError",
    "is_int",
    "Field",
    "Matrix",
    "make_field",
    "rank",
    "solve_linear",
    "stack",
    "mat_vec",
    "embed_map",
    "EchelonBasis",
]

# Largest extension field we are willing to build log/antilog tables for.
_MAX_FIELD_SIZE = 1 << 20
# Characteristics must lie below this, where _is_prime is deterministic.
_MAX_CHARACTERISTIC = 1 << 64
# As Miller-Rabin bases, the primes up to 37 decide every n < 3.18 * 10^23
# (Sorenson and Webster, Math. Comp. 86, 2017), so every n < 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SizeLimitError(ValueError):
    """The input is larger than a size guard of the package accepts (an
    exhaustive 2^m routine, or a field too large to tabulate)."""


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases _WITNESSES: exact for n < 2^64."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  A polynomial is a sequence of coefficients
# in ascending power order, or its packed integer (`_ppack`, `_pdigits`);
# over GF(2) the packed integer's bit i is the coefficient of x^i.
# ---------------------------------------------------------------------------

def _pdigits(packed: int, p: int) -> tuple:
    """Unpack an integer into base-p coefficient digits (ascending)."""
    out = []
    while packed:
        packed, r = divmod(packed, p)
        out.append(r)
    return tuple(out)


def _ppack(f: Sequence[int], p: int) -> int:
    v = 0
    for c in reversed(f):
        v = v * p + c
    return v


def _divides(g: Sequence[int], f: Sequence[int], p: int) -> bool:
    """Whether the monic polynomial g divides f over GF(p), both given as
    ascending coefficient sequences: long division, remainder tested."""
    r = list(f)
    d = len(g) - 1
    for k in range(len(r) - 1, d - 1, -1):
        t = r[k] % p
        if t:
            for i in range(d):
                r[k - d + i] -= t * g[i]
    return not any(c % p for c in r[:d])


def _cl_rem(a: int, b: int) -> int:
    """Remainder of a by b as polynomials over GF(2) packed into ints (bit
    i is the coefficient of x^i): carry-less long division."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _is_irreducible(packed: int, p: int) -> bool:
    """Exhaustive trial division of a packed polynomial of degree >= 2 by
    every monic polynomial of degree 1 .. deg/2.  Fine for desk-scale
    degrees; over GF(2) it runs in integer bit arithmetic."""
    coeffs = _pdigits(packed, p)
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        # the packed values in [p^d, 2p^d) are the monic degree-d polynomials
        for g in range(p ** d, 2 * p ** d):
            if (not _cl_rem(packed, g) if p == 2
                    else _divides(_pdigits(g, p), coeffs, p)):
                return False
    return True


def _lowest_irreducible(p: int, w: int) -> tuple:
    """The monic irreducible of degree w over GF(p) whose packed integer
    encoding is smallest.  Deterministic by construction."""
    for packed in range(p ** w, 2 * p ** w):
        if _is_irreducible(packed, p):
            return _pdigits(packed, p)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class Field:
    """GF(characteristic ** degree) with packed-integer elements, built by
    `make_field` only: one object per field, so identity is equality.
    Prime fields (characteristic below 2**64) use plain modular
    arithmetic; an extension field (at most 2**20 elements) builds its
    tables at construction, so add, neg, mul and inv are table reads."""

    def __init__(self, characteristic: int, degree: int = 1):
        if characteristic >= _MAX_CHARACTERISTIC:
            raise SizeLimitError("characteristic must be below 2^64")
        if not _is_prime(characteristic):
            raise ValueError(f"characteristic {characteristic} is not prime")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if degree > 64:   # q >= 2^65, judged before p ** degree is computed
            raise SizeLimitError(f"a field of degree above 64 exceeds the "
                                 f"supported size bound {_MAX_FIELD_SIZE}")
        self.p = characteristic
        self.degree = degree
        self.q = characteristic ** degree
        self.modulus: tuple | None = None
        if degree > 1:
            if self.q > _MAX_FIELD_SIZE:
                raise SizeLimitError(
                    f"field size {self.q} exceeds the supported bound {_MAX_FIELD_SIZE}")
            self.modulus = _lowest_irreducible(self.p, degree)
            self._build_tables()

    # -- basic queries ----------------------------------------------------

    def check(self, a: int) -> int:
        if not is_int(a) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        # g^i + g^j = g^i (1 + g^(j - i))
        log, n = self._log, self.q - 1
        z = self._zech[(log[b] - log[a]) % n]
        return 0 if z is None else self._exp[(log[a] + z) % n]

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        # -1 is g^((q-1)/2)
        return self._exp[(self._log[a] + (self.q - 1) // 2) % (self.q - 1)]

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.degree == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    # -- extension-field internals ------------------------------------------

    def _build_tables(self) -> None:
        """Antilog (exp) and log tables over the powers of the smallest
        generator g, and for odd p the Zech table `_zech[d] = log(1 + g^d)`.
        The arithmetic read from them depends on the modulus alone.  The local `mul`, a polynomial product reduced by
        the modulus, serves the generator search and the table steps."""
        p, w, q = self.p, self.degree, self.q
        mod = self.modulus
        if p == 2:
            packed_mod = _ppack(mod, 2)

            def mul(a: int, b: int) -> int:
                # carry-less multiply, then reduce by the packed modulus
                res = 0
                while b:
                    if b & 1:
                        res ^= a
                    a <<= 1
                    b >>= 1
                return _cl_rem(res, packed_mod)
        else:
            low = mod[:w]   # the modulus is monic: x^w = -low

            def mul(a: int, b: int) -> int:
                prod = [0] * (2 * w - 1)
                db = _pdigits(b, p)
                for i, x in enumerate(_pdigits(a, p)):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] += x * y
                for k in range(2 * w - 2, w - 1, -1):
                    t = prod[k] % p
                    if t:
                        for i, c in enumerate(low):
                            prod[k - w + i] -= t * c
                return _ppack([c % p for c in prod[:w]], p)

        # factor the group order once, then scan for a generator
        n = q - 1
        factors = []
        d = 2
        while d * d <= n:
            if n % d == 0:
                factors.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            factors.append(n)

        def order_ok(g: int) -> bool:
            for f in factors:
                e = (q - 1) // f
                acc = 1
                base = g
                while e:
                    if e & 1:
                        acc = mul(acc, base)
                    base = mul(base, base)
                    e >>= 1
                if acc == 1:
                    return False
            return True

        # the constants 1 .. p-1 have orders dividing p - 1 < q - 1, so the
        # scan starts at x, packed as p
        gen = next(g for g in range(p, q) if order_ok(g))
        exp = [1] * (q - 1)
        log = [0] * q
        if p == 2:
            # gen is small, so each step is a few shifts and XORs
            acc = 1
            for i in range(1, q - 1):
                acc = mul(acc, gen)
                exp[i] = acc
                log[acc] = i
        else:
            # times gen is GF(p)-linear in the digits: digit i of an element
            # adds that digit times x^i * gen, whose nonzero digits are
            # row i
            rows = [[(k, c) for k, c in enumerate(_pdigits(mul(p ** i, gen), p))
                     if c] for i in range(w)]
            powers = [p ** i for i in range(w)]
            digits = [1] + [0] * (w - 1)
            for i in range(1, q - 1):
                nxt = [0] * w
                for x, row in zip(digits, rows):
                    if x:
                        for k, c in row:
                            nxt[k] += x * c
                digits = [c % p for c in nxt]
                acc = sum(map(operator.mul, digits, powers))
                exp[i] = acc
                log[acc] = i
        self._exp, self._log = exp, log
        if p != 2:
            # 1 + g^d changes only the constant digit of g^d; g^((q-1)/2)
            # is -1, and 1 + (-1) = 0 has no logarithm
            self._zech = [log[e + 1 - p if e % p == p - 1 else e + 1]
                          for e in exp]
            self._zech[(q - 1) // 2] = None

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"


_FIELDS: dict = {}   # (characteristic, degree) -> its one Field


def make_field(characteristic: int, degree: int = 1) -> Field:
    """GF(characteristic ** degree), the one `Field` object for it.  The
    cache is never evicted, since a second object for a field would be
    unequal to the first; the field-size cap bounds it.  An extension
    field reduces modulo the monic irreducible polynomial with the
    smallest packed base-p encoding, so the construction is
    deterministic."""
    key = (characteristic, degree)
    field = _FIELDS.get(key)
    if field is None:
        field = _FIELDS[key] = Field(characteristic, degree)
    return field


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a Field, stored row-major.  The
    constructor trusts its entries to be field elements; `from_rows`, the
    way entries from outside come in, checks each one."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: Field, nrows: int, ncols: int,
                 data: Sequence[int]):
        if nrows < 0 or ncols < 0 or len(data) != nrows * ncols:
            raise ValueError("matrix shape does not match data length")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = tuple(data)

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]],
                  ncols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = ncols if ncols is not None else 0
        if ncols is not None and rows and width != ncols:
            raise ValueError(f"rows have length {width}, expected {ncols}")
        return cls(field, len(rows), width,
                   [field.check(a) for r in rows for a in r])

    def row(self, i: int) -> tuple:
        return self.data[i * self.ncols:(i + 1) * self.ncols]

    def rows(self) -> list:
        return [self.row(i) for i in range(self.nrows)]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        F = self.field
        mul, add = F.mul, F.add
        n, m, k = self.nrows, other.ncols, self.ncols
        out = [0] * (n * m)
        for i in range(n):
            arow = self.data[i * k:(i + 1) * k]
            for t in range(k):
                a = arow[t]
                if a == 0:
                    continue
                brow = other.data[t * m:(t + 1) * m]
                base = i * m
                for j in range(m):
                    b = brow[j]
                    if b:
                        out[base + j] = add(out[base + j], mul(a, b))
        return Matrix(F, n, m, out)

    def kron_identity(self, L: int) -> "Matrix":
        """Kronecker product self x I_L: each scalar entry becomes a
        diagonal L-block.  Used to replicate an observation matrix over
        per-packet chunks."""
        if L < 1:
            raise ValueError("L must be >= 1")
        n, m = self.nrows, self.ncols
        out = [0] * (n * L * m * L)
        W = m * L
        for i in range(n):
            for j in range(m):
                a = self.data[i * m + j]
                if a:
                    for c in range(L):
                        out[(i * L + c) * W + j * L + c] = a
        return Matrix(self.field, n * L, m * L, out)

    def map_to_field(self, dst: Field, mapping: Sequence[int]) -> "Matrix":
        return Matrix(dst, self.nrows, self.ncols,
                      [mapping[a] for a in self.data])

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def stack(*mats: Matrix) -> Matrix:
    """Vertical concatenation; all blocks must share field and width."""
    if not mats:
        raise ValueError("stack of nothing")
    field = mats[0].field
    ncols = mats[0].ncols
    for m in mats[1:]:
        if m.field != field or m.ncols != ncols:
            raise ValueError("incompatible blocks")
    data = []
    for m in mats:
        data.extend(m.data)
    return Matrix(field, sum(m.nrows for m in mats), ncols, data)


class EchelonBasis:
    """Row-echelon basis grown one row at a time.

    Each absorbed row is reduced against the kept rows in ascending pivot
    column; a row that survives is scaled to a leading 1 and kept.  `rank`
    counts the kept rows, so absorbing the rows of a stack one by one
    yields rank(stack) after every row -- the ranks of all prefixes of a
    chain of row blocks cost one elimination instead of one each.
    """

    __slots__ = ("field", "ncols", "rank", "_kept")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rank = 0
        # pivot column -> the kept row's nonzero (column, entry) pairs right
        # of the pivot (its pivot entry is 1); a copy costs the rank
        self._kept: dict = {}

    def copy(self) -> "EchelonBasis":
        """A basis holding the same rows that absorbs independently of this
        one.  Kept tails are never mutated, so the twin shares them: the
        copy is the pivot map and the rank."""
        twin = EchelonBasis.__new__(EchelonBasis)
        twin.field, twin.ncols, twin.rank = self.field, self.ncols, self.rank
        twin._kept = self._kept.copy()
        return twin

    def absorb(self, row: Sequence[int]) -> bool:
        """Reduce one row against the basis; keep it (and return True) when
        it is independent of the rows kept so far."""
        if self.rank == self.ncols:
            return False
        F = self.field
        prime = F.degree == 1
        p = F.p
        mul, add, neg = F.mul, F.add, F.neg
        kept = self._kept
        v = list(row)
        for c in range(self.ncols):
            a = v[c]
            if not a:
                continue
            tail = kept.get(c)
            if tail is None:
                rest = [(j, v[j]) for j in range(c + 1, self.ncols) if v[j]]
                if a != 1:
                    ia = F.inv(a)
                    rest = [(j, mul(ia, x)) for j, x in rest]
                kept[c] = rest
                self.rank += 1
                return True
            if prime:
                for j, b in tail:
                    v[j] = (v[j] - a * b) % p
            else:
                na = neg(a)
                for j, b in tail:
                    v[j] = add(v[j], mul(na, b))
        return False


def rank(M: Matrix) -> int:
    """Rank over the matrix's field (exact)."""
    basis = EchelonBasis(M.field, M.ncols)
    for i in range(M.nrows):
        basis.absorb(M.row(i))
    return basis.rank


def solve_linear(M: Matrix, B: Matrix) -> list:
    """The unique solution of M x = b for each column b of B, or None for
    a column where the system is inconsistent or M has rank below its
    column count.  All columns are solved with one elimination of the rows
    of M augmented by B; the answer is a list with one solution tuple, or
    None, per column."""
    F = M.field
    if B.field != F:
        raise ValueError("field mismatch")
    if B.nrows != M.nrows:
        raise ValueError("right-hand side length mismatch")
    n, r = M.ncols, B.ncols
    basis = EchelonBasis(F, n + r)
    for i in range(M.nrows):
        basis.absorb(M.row(i) + B.row(i))
    kept = basis._kept
    if not all(c in kept for c in range(n)):
        return [None] * r
    # a kept row whose pivot lies among the right-hand sides is zero on M's
    # columns: a combination of equations that M cancels, so every
    # right-hand side it touches is inconsistent
    bad = set()
    for c, tail in kept.items():
        if c >= n:
            bad.add(c)
            bad.update(j for j, _ in tail)
    # every column 0..n-1 holds a pivot: back-substitute from the last,
    # x[c] = rhs_c - sum_j a_j x[j] for all right-hand sides at once
    mul, add, neg = F.mul, F.add, F.neg
    x: list = [None] * n
    for c in range(n - 1, -1, -1):
        acc = [0] * r
        for j, a in kept[c]:
            if j >= n:
                acc[j - n] = add(acc[j - n], a)
            else:
                na = neg(a)
                acc = [add(u, mul(na, v)) for u, v in zip(acc, x[j])]
        x[c] = acc
    solutions = list(zip(*x)) if n else [()] * r
    return [None if n + k in bad else solutions[k] for k in range(r)]


def mat_vec(M: Matrix, v: Sequence[int]) -> tuple:
    if len(v) != M.ncols:
        raise ValueError("vector length mismatch")
    F = M.field
    mul, add = F.mul, F.add
    out = []
    for i in range(M.nrows):
        acc = 0
        row = M.row(i)
        for a, x in zip(row, v):
            if a and x:
                acc = add(acc, mul(a, x))
        out.append(acc)
    return tuple(out)


def embed_map(src: Field, dst: Field) -> Sequence[int]:
    """Field embedding GF(p^w) -> GF(p^W) as a lookup table of length src.q
    (the identity `range(p)` for a prime source field).

    Requires equal characteristic and w | W.  The map sends the source
    generator coordinates through the smallest root of the source modulus
    in the destination field, so it is deterministic; it fixes 0 and 1 and
    preserves + and *.
    """
    if src.p != dst.p:
        raise ValueError("characteristic mismatch")
    if dst.degree % src.degree != 0:
        raise ValueError("source degree must divide destination degree")
    if src.degree == 1:
        return range(src.p)
    coeffs = src.modulus
    root = None
    for cand in range(dst.q):
        acc = 0
        for c in reversed(coeffs):
            acc = dst.add(dst.mul(acc, cand), c)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise AssertionError("no root of source modulus in destination field")
    table = []
    for e in range(src.q):
        digits = _pdigits(e, src.p)
        acc = 0
        for c in reversed(digits):
            acc = dst.add(dst.mul(acc, root), c)
        table.append(acc)
    return tuple(table)

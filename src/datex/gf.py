"""Finite-field arithmetic and exact dense linear algebra.

Fields GF(p^w) are represented with elements packed into the integers
0 .. p^w - 1: the element with polynomial coordinates (c_0, ..., c_{w-1})
over GF(p) is stored as sum(c_i * p**i).  For prime fields (w = 1) this is
plain modular arithmetic.  Extension fields reduce modulo the monic
irreducible polynomial that is lowest in the packed integer order, so a
(characteristic, degree) pair always names the same field.

All matrix routines are exact (no floats) and sized for desk-scale
problems: a few hundred rows/columns at most.  There is one Gaussian
elimination, `EchelonBasis`, which grows a row-echelon basis row by row
with sparse kept rows and inline mod-p row arithmetic on prime fields;
`rank`, `solve_linear` and the source models' greedy chains all run on it.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


class SizeLimitError(ValueError):
    """The input is larger than a size guard of the package accepts (an
    exhaustive 2^m routine, or a field too large to tabulate)."""


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  A polynomial is a tuple of coefficients in
# ascending power order with no trailing zeros (the zero polynomial is ()).
# ---------------------------------------------------------------------------

def _ptrim(f: Sequence[int]) -> tuple:
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return tuple(f[:i])


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


def _poly_divmod(f: tuple, g: tuple, p: int) -> tuple:
    """(quotient, remainder) of f by g over GF(p); g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    ginv = pow(g[-1], p - 2, p)
    q = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and any(f):
        df = len(f) - 1
        if f[-1] == 0:
            f.pop()
            continue
        coef = (f[-1] * ginv) % p
        q[df - dg] = coef
        for i, gc in enumerate(g):
            f[df - dg + i] = (f[df - dg + i] - coef * gc) % p
        f.pop()
    return _ptrim(q), _ptrim(f)


def _poly_mul(f: tuple, g: tuple, p: int) -> tuple:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _is_irreducible(coeffs: tuple, p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree
    1 .. deg/2.  Fine for desk-scale degrees."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] == 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        # the packed values in [p^d, 2p^d) are the monic degree-d polynomials
        for packed in range(p ** d, 2 * p ** d):
            _, rem = _poly_divmod(coeffs, _pdigits(packed, p), p)
            if not rem:
                return False
    return True


def _lowest_irreducible(p: int, w: int) -> tuple:
    """The monic irreducible of degree w over GF(p) whose packed integer
    encoding is smallest.  Deterministic by construction."""
    for packed in range(p ** w, 2 * p ** w):
        f = _pdigits(packed, p)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class Field:
    """GF(characteristic ** degree) with packed-integer elements.

    Arithmetic on prime fields is plain modular arithmetic.  Extension
    fields build log/antilog tables on first use (capped at 2**20
    elements), so repeated multiplications are O(1).
    """

    def __init__(self, characteristic: int, degree: int = 1):
        if not _is_prime(characteristic):
            raise ValueError(f"characteristic {characteristic} is not prime")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.p = characteristic
        self.degree = degree
        self.q = characteristic ** degree
        self.modulus: Optional[tuple] = None
        if degree > 1:
            if self.q > _MAX_FIELD_SIZE:
                raise SizeLimitError(
                    f"field size {self.q} exceeds the supported bound {_MAX_FIELD_SIZE}")
            self.modulus = _lowest_irreducible(self.p, degree)
        self._exp: Optional[list] = None
        self._log: Optional[list] = None

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
        out, mult = 0, 1
        for _ in range(self.degree):
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        out, mult = 0, 1
        for _ in range(self.degree):
            out += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is None:
            self._build_tables()
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.degree == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is None:
            self._build_tables()
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    # -- extension-field internals ------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product with modular reduction, no tables."""
        p, w = self.p, self.degree
        if p == 2:
            # carry-less multiply then reduce by the packed modulus
            res = 0
            x = a
            while b:
                if b & 1:
                    res ^= x
                x <<= 1
                b >>= 1
            modpacked = _ppack(self.modulus, 2)
            top = res.bit_length()
            while top > w:
                res ^= modpacked << (top - 1 - w)
                top = res.bit_length()
            return res
        fa = _pdigits(a, p)
        fb = _pdigits(b, p)
        prod = _poly_mul(fa, fb, p)
        _, rem = _poly_divmod(prod, self.modulus, p)
        return _ppack(rem, p)

    def _build_tables(self) -> None:
        q = self.q
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
                        acc = self._mul_raw(acc, base)
                    base = self._mul_raw(base, base)
                    e >>= 1
                if acc == 1:
                    return False
            return True

        gen = next(g for g in range(2, q) if order_ok(g))
        exp = [1] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(1, q - 1):
            acc = self._mul_raw(acc, gen)
            exp[i] = acc
            log[acc] = i
        self._exp, self._log = exp, log

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and other.p == self.p
                and other.degree == self.degree and other.modulus == self.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"


def make_field(characteristic: int, degree: int = 1) -> Field:
    """Construct GF(characteristic ** degree).  An extension field reduces
    modulo the monic irreducible polynomial with the smallest packed
    base-p encoding, so the construction is deterministic."""
    return Field(characteristic, degree)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a Field, stored row-major."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: Field, nrows: int, ncols: int,
                 data: Sequence[int], validate: bool = True):
        if nrows < 0 or ncols < 0 or len(data) != nrows * ncols:
            raise ValueError("matrix shape does not match data length")
        if validate:
            for a in data:
                field.check(a)
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = tuple(data)

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]],
                  ncols: Optional[int] = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = ncols if ncols is not None else 0
        if ncols is not None and rows and width != ncols:
            raise ValueError(f"rows have length {width}, expected {ncols}")
        flat = [a for r in rows for a in r]
        return cls(field, len(rows), width, flat)

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
        return Matrix(F, n, m, out, validate=False)

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
        return Matrix(self.field, n * L, m * L, out, validate=False)

    def map_to_field(self, dst: Field, mapping: Sequence[int]) -> "Matrix":
        return Matrix(dst, self.nrows, self.ncols,
                      [mapping[a] for a in self.data], validate=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.data == other.data)

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def stack(*mats: Matrix) -> Matrix:
    """Vertical concatenation; all blocks must share field and width."""
    mats = [m for m in mats]
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
    return Matrix(field, sum(m.nrows for m in mats), ncols, data, validate=False)


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
        # of the pivot; its pivot entry is 1
        self._kept: list = [None] * ncols

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
            tail = kept[c]
            if tail is None:
                if a != 1:
                    ia = F.inv(a)
                    v = [mul(ia, x) for x in v]
                kept[c] = [(j, v[j]) for j in range(c + 1, self.ncols) if v[j]]
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


def solve_linear(M: Matrix, b: Sequence[int]) -> Optional[tuple]:
    """The unique solution of M x = b, or None when the system is
    inconsistent or M has rank below its column count."""
    if len(b) != M.nrows:
        raise ValueError("right-hand side length mismatch")
    F = M.field
    for v in b:
        F.check(v)
    n = M.ncols
    basis = EchelonBasis(F, n + 1)
    for i in range(M.nrows):
        basis.absorb(M.row(i) + (b[i],))
    if basis.rank != n or basis._kept[n] is not None:
        return None
    # every column 0..n-1 holds a pivot: back-substitute from the last,
    # with the right-hand side as column n and x[n] = -1
    mul, add = F.mul, F.add
    x = [0] * n + [F.neg(1)]
    for c in range(n - 1, -1, -1):
        acc = 0
        for j, a in basis._kept[c]:
            acc = add(acc, mul(a, x[j]))
        x[c] = F.neg(acc)
    return tuple(x[:n])


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


def embed_map(src: Field, dst: Field) -> tuple:
    """Field embedding GF(p^w) -> GF(p^W) as a lookup table of length src.q.

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
        return tuple(range(src.p))
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

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from datex.gf import (EchelonBasis, Field, Matrix, SizeLimitError, embed_map,
                      make_field, mat_vec, rank, solve_linear, stack)
from datex.gf import _ppack  # packed encoding used for modulus ordering
from helpers import solve_one


# ---------------------------------------------------------------------------
# Independent irreducibility oracles (kept deliberately separate from the
# library's implementation: carry-less integer arithmetic for GF(2),
# root-scanning for small degrees over odd primes).
# ---------------------------------------------------------------------------

def _cl_rem(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_poly_irreducible(packed: int) -> bool:
    deg = packed.bit_length() - 1
    if deg < 1:
        return False
    return all(_cl_rem(packed, g) != 0 for g in range(2, 1 << deg))


def small_poly_has_root(coeffs, p: int) -> bool:
    return any(
        sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
        for x in range(p))


def test_gf256_modulus_is_lowest_irreducible():
    F = make_field(2, 8)
    packed = _ppack(F.modulus, 2)
    assert packed == 283  # x^8 + x^4 + x^3 + x + 1
    assert gf2_poly_irreducible(283)
    for candidate in range(256, 283):
        assert not gf2_poly_irreducible(candidate)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7, 8])
def test_gf2_extension_moduli_minimal(degree):
    F = make_field(2, degree)
    packed = _ppack(F.modulus, 2)
    assert gf2_poly_irreducible(packed)
    assert all(not gf2_poly_irreducible(c)
               for c in range(1 << degree, packed))


@pytest.mark.parametrize("p,degree", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_odd_prime_moduli_minimal(p, degree):
    # degree 2 and 3 polynomials are reducible iff they have a root
    F = make_field(p, degree)
    packed = _ppack(F.modulus, p)
    def unpack(v):
        out = []
        while v:
            v, r = divmod(v, p)
            out.append(r)
        return out
    assert not small_poly_has_root(unpack(packed), p)
    for candidate in range(p ** degree, packed):
        coeffs = unpack(candidate)
        if len(coeffs) - 1 != degree or coeffs[-1] != 1:
            continue  # not monic of the right degree
        assert small_poly_has_root(coeffs, p)


def _ref_ext_mul(F, a, b):
    """The product of two packed polynomials modulo F's modulus, by
    schoolbook multiplication and long division over GF(p)."""
    p, w = F.p, F.degree
    da = [a // p ** i % p for i in range(w)]
    db = [b // p ** i % p for i in range(w)]
    prod = [0] * (2 * w - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * w - 2, w - 1, -1):
        t, prod[k] = prod[k], 0
        for i in range(w):
            prod[k - w + i] = (prod[k - w + i] - t * F.modulus[i]) % p
    return sum(c * p ** i for i, c in enumerate(prod[:w]))


@pytest.mark.parametrize("p,degree", [(2, 7), (2, 8), (2, 9), (3, 2), (3, 4),
                                      (3, 5), (5, 3)])
def test_extension_tables_multiply_as_polynomials(p, degree):
    """The log/antilog tables give the product of the packed polynomials
    modulo the field's modulus, whichever generator they start from: x
    generates GF(2^7), GF(3^4) and GF(3^5), and not GF(2^8), GF(2^9),
    GF(3^2) or GF(5^3), whose tables start from another element."""
    F = make_field(p, degree)
    rng = random.Random(p * 100 + degree)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(3000)]
    pairs += [(p, b) for b in range(F.q)]   # x times every element
    for a, b in pairs:
        assert F.mul(a, b) == _ref_ext_mul(F, a, b)
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1


def _digits(a, F):
    return [a // F.p ** i % F.p for i in range(F.degree)]


def _undigits(digits, F):
    return sum(c * F.p ** i for i, c in enumerate(digits))


@pytest.mark.parametrize("p,degree", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                      (7, 2), (2, 4), (2, 6)])
def test_arithmetic_matches_the_digitwise_definition(p, degree):
    """add and neg (Zech-logarithm reads over odd characteristic), mul and
    inv agree on every element (pair) with coefficient-wise arithmetic on
    the packed polynomials and the schoolbook product."""
    F = make_field(p, degree)
    for a in range(F.q):
        da = _digits(a, F)
        assert F.neg(a) == _undigits([-x % p for x in da], F)
        if a:
            assert _ref_ext_mul(F, a, F.inv(a)) == 1
        for b in range(F.q):
            assert F.add(a, b) == _undigits(
                [(x + y) % p for x, y in zip(da, _digits(b, F))], F)
            assert F.mul(a, b) == _ref_ext_mul(F, a, b)


def test_field_size_guard():
    with pytest.raises(SizeLimitError):
        make_field(2, 21)
    make_field(2, 20)  # exactly at the bound is allowed


def test_bad_characteristic_rejected():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            make_field(bad)


# ---------------------------------------------------------------------------
# Field axioms
# ---------------------------------------------------------------------------

AXIOM_FIELDS = [make_field(2), make_field(3), make_field(5),
                make_field(2, 2), make_field(2, 3), make_field(3, 2)]


@pytest.mark.parametrize("F", AXIOM_FIELDS, ids=repr)
def test_field_axioms_pairwise(F):
    els = range(F.q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.add(a, F.neg(b)), b) == a
            if b != 0:
                assert F.mul(F.mul(a, F.inv(b)), b) == a


@pytest.mark.parametrize("F", AXIOM_FIELDS, ids=repr)
def test_field_axioms_triples(F):
    els = range(F.q)
    if F.q <= 8:
        triples = [(a, b, c) for a in els for b in els for c in els]
    else:
        rng = random.Random(0)
        triples = [(rng.randrange(F.q), rng.randrange(F.q), rng.randrange(F.q))
                   for _ in range(2000)]
    for a, b, c in triples:
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_inv_zero_raises():
    assert pytest.raises(ZeroDivisionError, make_field(5).inv, 0)


def test_field_equality_and_hash():
    # one object per field: identity is equality, and a field hashes by
    # identity
    assert make_field(2, 3) is make_field(2, 3)
    assert make_field(2) is make_field(2, 1)
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(2, 3) != make_field(2, 2)
    assert make_field(3) != make_field(3, 2)
    assert hash(make_field(3)) == hash(make_field(3))
    assert {make_field(5), make_field(5, 1)} == {make_field(5)}


def test_a_copied_basis_absorbs_without_touching_its_parent():
    F = make_field(3)
    parent = EchelonBasis(F, 4)
    for row in [(1, 2, 0, 1), (0, 0, 1, 2)]:
        assert parent.absorb(row)
    kept = dict(parent._kept)
    probes = [(2, 1, 0, 2), (1, 2, 1, 0), (0, 1, 0, 0), (0, 0, 2, 1)]
    verdicts = [parent.copy().absorb(row) for row in probes]
    assert verdicts == [False, False, True, False]
    child = parent.copy()
    for row in [(0, 1, 0, 0), (0, 0, 0, 1)]:
        assert child.absorb(row)
    assert child.rank == 4 and not child.absorb((1, 1, 1, 1))
    # the parent keeps its rank, its kept rows (shared with the child,
    # which never mutates them) and so every reduction against them
    assert parent.rank == 2
    assert parent._kept == kept and child._kept[0] is kept[0]
    assert [parent.copy().absorb(row) for row in probes] == verdicts


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src,dst", [
    (make_field(2), make_field(2, 4)),
    (make_field(2, 2), make_field(2, 4)),
    (make_field(2, 3), make_field(2, 6)),
    (make_field(3), make_field(3, 2)),
    (make_field(3, 2), make_field(3, 4)),
])
def test_embed_is_field_homomorphism(src, dst):
    emb = embed_map(src, dst)
    assert emb[0] == 0 and emb[1] == 1
    assert len(set(emb)) == src.q  # injective
    for a in range(src.q):
        for b in range(src.q):
            assert emb[src.add(a, b)] == dst.add(emb[a], emb[b])
            assert emb[src.mul(a, b)] == dst.mul(emb[a], emb[b])


def test_embed_rejects_mismatches():
    with pytest.raises(ValueError):
        embed_map(make_field(2), make_field(3))
    with pytest.raises(ValueError):
        embed_map(make_field(2, 3), make_field(2, 4))


# ---------------------------------------------------------------------------
# Matrices: fixed reference values
# ---------------------------------------------------------------------------

PAIR_ROWS = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


def test_rank_depends_on_field():
    # the three pairwise-sum rows are dependent over GF(2) but not GF(3)
    assert rank(Matrix.from_rows(make_field(2), PAIR_ROWS)) == 2
    assert rank(Matrix.from_rows(make_field(3), PAIR_ROWS)) == 3


def test_solve_linear_canonical_solution():
    F = make_field(2)
    M = Matrix.from_rows(F, [[1, 1, 0], [0, 1, 1]])
    # consistent, but the third column is free: no unique solution
    assert solve_one(M, (1, 1)) is None


def test_solve_linear_inconsistent():
    F = make_field(2)
    M = Matrix.from_rows(F, [[1, 1, 0], [1, 1, 0]])
    assert solve_one(M, (1, 0)) is None


def test_solve_linear_unique_system():
    F = make_field(5)
    M = Matrix.from_rows(F, [[2, 0], [1, 3]])
    x = solve_one(M, (4, 0))
    assert x is not None and mat_vec(M, x) == (4, 0)


def test_solve_linear_rejects_a_mismatched_right_hand_side():
    F = make_field(5)
    M = Matrix.from_rows(F, [[2, 0], [1, 3]])
    with pytest.raises(ValueError, match="field mismatch"):
        solve_linear(M, Matrix.from_rows(make_field(3), [[1], [1]]))
    with pytest.raises(ValueError, match="length mismatch"):
        solve_linear(M, Matrix.from_rows(F, [[1]]))


def test_hand_elimination_over_gf3():
    # normalize (2,1,1) to (1,2,2); subtracting it from (1,2,0) leaves
    # (0,0,1): pivots in columns 0 and 2, column 1 free
    F = make_field(3)
    M = Matrix.from_rows(F, [[2, 1, 1], [1, 2, 0]])
    assert rank(M) == 2
    assert solve_one(M, (1, 1)) is None
    # the pivot columns alone: (2,1|1) becomes (1,2|2), and subtracting it
    # from (1,0|2) leaves (0,1|0), so x1 = 0 and x0 = 2 - 2*0 = 2
    A = Matrix.from_rows(F, [[2, 1], [1, 0]])
    assert solve_one(A, (1, 2)) == (2, 0)


def test_matmul_and_identity():
    F = make_field(3)
    A = Matrix.from_rows(F, [[1, 2], [0, 1], [2, 2]])
    I2 = Matrix.from_rows(F, [[1, 0], [0, 1]])
    I3 = Matrix.from_rows(F, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (A @ I2) == A
    assert (I3 @ A) == A


def test_kron_identity_structure():
    F = make_field(2)
    A = Matrix.from_rows(F, [[1, 0, 1]])
    K = A.kron_identity(2)
    assert (K.nrows, K.ncols) == (2, 6)
    assert K.rows() == [(1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1)]


def test_stack_and_empty_matrices():
    F = make_field(2)
    A = Matrix.from_rows(F, [[1, 0]])
    E = Matrix.from_rows(F, [], ncols=2)
    S = stack(A, E, A)
    assert S.nrows == 2 and rank(S) == 1
    assert rank(E) == 0


def test_matrix_validation():
    F = make_field(2)
    with pytest.raises(ValueError):
        Matrix.from_rows(F, [[0, 2]])  # 2 is not a GF(2) element
    with pytest.raises(ValueError):
        Matrix.from_rows(F, [[0, True]])  # nor is a bool
    with pytest.raises(ValueError):
        Matrix.from_rows(F, [[1, 0], [1]])  # ragged
    with pytest.raises(ValueError):
        Matrix.from_rows(F, [[1, 0]], ncols=3)


# ---------------------------------------------------------------------------
# Matrix properties (randomized)
# ---------------------------------------------------------------------------

fields_st = st.sampled_from([make_field(2), make_field(3), make_field(2, 2)])


@st.composite
def matrix_st(draw, field=None, nrows=None, ncols=None):
    F = field if field is not None else draw(fields_st)
    n = nrows if nrows is not None else draw(st.integers(0, 4))
    m = ncols if ncols is not None else draw(st.integers(1, 4))
    data = draw(st.lists(st.integers(0, F.q - 1), min_size=n * m,
                         max_size=n * m))
    return Matrix(F, n, m, data)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rank_properties(data):
    F = data.draw(fields_st)
    A = data.draw(matrix_st(field=F))
    B = data.draw(matrix_st(field=F, ncols=A.ncols))
    assert 0 <= rank(A) <= min(A.nrows, A.ncols)
    assert rank(stack(A, B)) <= rank(A) + rank(B)
    assert rank(stack(A, A)) == rank(A)
    shuffled = list(A.rows())
    random.Random(0).shuffle(shuffled)
    assert rank(Matrix.from_rows(F, shuffled, ncols=A.ncols)) == rank(A)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_basis_tracks_rank_of_every_prefix(data):
    F = data.draw(st.sampled_from([make_field(2), make_field(3), make_field(5),
                                   make_field(2, 2), make_field(3, 2)]))
    A = data.draw(matrix_st(field=F, nrows=data.draw(st.integers(0, 8)),
                            ncols=data.draw(st.integers(1, 6))))
    basis = EchelonBasis(F, A.ncols)
    for i, row in enumerate(A.rows(), start=1):
        before = basis.rank
        grew = basis.absorb(row)
        assert basis.rank == rank(Matrix.from_rows(F, A.rows()[:i], ncols=A.ncols))
        assert grew == (basis.rank == before + 1)
    assert basis.rank == rank(A)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matmul_rank_bound_and_associativity(data):
    F = data.draw(fields_st)
    A = data.draw(matrix_st(field=F))
    B = data.draw(matrix_st(field=F, nrows=A.ncols))
    C = data.draw(matrix_st(field=F, nrows=B.ncols))
    assert rank(A @ B) <= min(rank(A), rank(B))
    assert (A @ B) @ C == A @ (B @ C)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_solve_linear_finds_planted_solution(data):
    F = data.draw(fields_st)
    A = data.draw(matrix_st(field=F))
    x0 = data.draw(st.lists(st.integers(0, F.q - 1), min_size=A.ncols,
                            max_size=A.ncols))
    b = mat_vec(A, x0)
    x = solve_one(A, b)
    # a planted system is consistent: unique exactly at full column rank
    assert x == (tuple(x0) if rank(A) == A.ncols else None)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kron_identity_rank_scales(data):
    A = data.draw(matrix_st())
    L = data.draw(st.integers(1, 3))
    assert rank(A.kron_identity(L)) == L * rank(A)

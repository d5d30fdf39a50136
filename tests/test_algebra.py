"""Products, multiplication operators, (hom-)associators, predicates."""

from fractions import Fraction as F
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NIL2, projection_tensor, qalg
from homalg import homstruct, kernels
from homalg.algebra import (
    Algebra,
    HomAlgebra,
    InvolutiveAlgebra,
    is_idempotent_elem,
    is_idempotent_map,
    triple_defects,
    twisted_ops,
)
from homalg.campaign import builtin_corpus
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    random_algebra,
    random_linear_map,
    truncated_poly,
    yau_criterion,
    yau_twist,
)
from homalg.errors import DimensionMismatch, FieldMismatch, InvariantViolation
from homalg.fields import GF, QQ
from homalg.linalg import (
    Matrix,
    combine,
    is_injective,
    sparse_columns,
    sparse_entries,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


def test_zero_algebra_products():
    z = qalg([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    x, y = (F(3), F(-1)), (F(2), F(5))
    assert vec_is_zero(z.multiply(x, y))
    assert z.left_op(x).is_zero()


def test_quaternion_products(quaternions):
    h = quaternions
    one, i, j, k = (h.basis(t) for t in range(4))
    neg = lambda v: tuple(-c for c in v)
    assert h.multiply(i, j) == k
    assert h.multiply(h.multiply(i, j), k) == neg(one)


def test_projection_algebra_bilinear_expansion(proj2):
    # (1,1) * e0 = 2 e0 by expanding bilinearity by hand
    assert proj2.multiply((F(1), F(1)), proj2.basis(0)) == (F(2), F(0))


def test_left_op_examples(proj2):
    assert proj2.left_op(proj2.basis(0)) == Matrix.identity(QQ, 2)
    tp = truncated_poly(QQ, 6)  # basis t^1..t^6
    lt = tp.left_op(tp.basis(0))
    # shift-by-one-degree nilpotent: column c maps t^(c+1) -> t^(c+2)
    for c in range(6):
        col = lt.column(c)
        expected = tuple(
            F(1) if (r == c + 1 and c + 2 <= 6) else F(0) for r in range(6)
        )
        assert col == expected


def test_right_op_column_convention(proj2):
    # column j of right_op(x) is e_j * x
    x = (F(2), F(3))
    r = proj2.right_op(x)
    for j in range(2):
        assert r.column(j) == proj2.multiply(proj2.basis(j), x)


def test_associator_vanishes_on_matrix_algebra(mat2):
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert vec_is_zero(
                    mat2.associator(mat2.basis(i), mat2.basis(j), mat2.basis(k))
                )
    assert mat2.is_associative()


def test_octonions_not_associative(octonions):
    assert octonions.associativity_witness() is not None


CORPUS = builtin_corpus()


def _tensor_algebras():
    """The builtin corpus, the sedenions over Q and GF(65521), and random
    algebras of dimension 1-4 over Q (one with a non-integral pool), GF(2)
    and GF(3) under every generator flag."""
    out = list(CORPUS)
    for field in (QQ, GF(65521)):
        out.append((f"sedenions_{field.label}", cayley_dickson_chain(4, field=field)[4].base))
    flags = ("none", "left_unital", "commutative", "anticommutative")
    for dim in range(1, 5):
        for field in (QQ, GF(2), GF(3)):
            flag = flags[dim - 1]
            cfg = GeneratorConfig(seed=dim, dim=dim, field=field, flag=flag)
            out.append((f"random/{field.label}-d{dim}-{flag}", random_algebra(cfg)))
    cfg = GeneratorConfig(seed=7, dim=3, field=QQ, pool=(F(1, 2), 0, F(-3, 4), 2))
    out.append(("random/Q-d3-halves", random_algebra(cfg)))
    return out


TENSOR_ALGEBRAS = _tensor_algebras()


@pytest.mark.parametrize("name,a", TENSOR_ALGEBRAS, ids=[n for n, _ in TENSOR_ALGEBRAS])
def test_associator_tensor_matches_elementwise(name, a):
    n = a.dim
    basis = a.basis_elements()
    table = a.associators
    zero = a.zero()
    first = None
    for i, j, k in iter_product(range(n), repeat=3):
        value = a.associator(basis[i], basis[j], basis[k])
        assert table.get((i, j, k), zero) == value, (name, i, j, k)
        if first is None and not vec_is_zero(value):
            first = (i, j, k)
    # only nonzero associators are stored, keyed in lexicographic order
    assert not any(vec_is_zero(v) for v in table.values())
    assert list(table) == sorted(table)
    assert a.associativity_witness() == first
    assert a.associators is table


def reference_defects(f, n, prods, left, right):
    """Every basis triple, u and v from two ``combine`` calls compared: the
    defects ``triple_defects`` must yield, in the same order."""
    out = []
    for i, j, k in iter_product(range(n), repeat=3):
        u = combine(f, n, right[k], prods[i][j])
        v = combine(f, n, left[i], prods[j][k])
        if u != v:
            out.append(((i, j, k), vec_sub(f, u, v)))
    return out


def one_product(n):
    """The algebra of dimension n whose only nonzero product is e_0 e_0 = e_1."""
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    tensor[0][0][1] = 1
    return qalg(tensor)


@pytest.mark.parametrize("name,a", TENSOR_ALGEBRAS, ids=[n for n, _ in TENSOR_ALGEBRAS])
def test_triple_defects_is_the_full_scan(name, a):
    n = a.dim
    twists = [None] + [random_linear_map(a.field, n, seed) for seed in range(2)]
    for t in twists:
        left, right = twisted_ops(a, t)
        want = reference_defects(a.field, n, a.terms, left, right)
        assert list(triple_defects(a.field, n, a.terms, left, right)) == want, name


def test_triple_defects_with_zero_and_elementary_twists():
    # sparse products whose twisted tables are empty or one column wide;
    # every map is a twist of the one-product algebra, not of t^1..t^5
    twists = [Matrix.zero(QQ, 5, 5)]
    for r, c in iter_product(range(5), repeat=2):
        rows = [[0] * 5 for _ in range(5)]
        rows[r][c] = F(1)
        twists.append(Matrix(QQ, rows))
    for a, twisted in ((one_product(5), False), (truncated_poly(QQ, 5), True)):
        found = 0
        for t in twists:
            left, right = twisted_ops(a, t)
            want = reference_defects(QQ, 5, a.terms, left, right)
            assert list(triple_defects(QQ, 5, a.terms, left, right)) == want, t.rows
            found += len(want)
        assert bool(found) == twisted


class CountedTable:
    """A view of a table (a tuple, or an on-demand ``twisted_ops`` table)
    that counts its reads."""

    def __init__(self, table):
        self.table = table
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.table[index]


@pytest.mark.parametrize("seed", [None, 0], ids=["identity", "random_twist"])
def test_triple_defects_reads_only_nonzero_products_at_the_cap(seed):
    # at n = 32 only the 2n - 1 triples (0, 0, k) and (i, 0, 0) have a
    # nonzero product, and each visited triple reads one table per side;
    # a scan without the skip reads 2 n^3 = 65,536.  Every map is a twist.
    n = 32
    a = one_product(n)
    t = None if seed is None else random_linear_map(QQ, n, seed)
    left, right = (CountedTable(table) for table in twisted_ops(a, t))
    defects = list(triple_defects(QQ, n, a.terms, left, right))
    assert left.reads + right.reads <= 2 * (2 * n - 1)
    assert defects == []


@pytest.mark.parametrize("name,a", TENSOR_ALGEBRAS, ids=[n for n, _ in TENSOR_ALGEBRAS])
def test_op_columns_are_the_sparse_operator_columns(name, a):
    # the n^2 basis products include multi-term and non-unit elements
    elems = a.basis_elements() + [
        random_linear_map(a.field, a.dim, seed).column(0) for seed in range(3)
    ]
    elems += [p for row in a.products for p in row]
    for x in elems:
        assert a.op_columns(x, "left") == sparse_columns(a.left_op(x)), name
        assert a.op_columns(x, "right") == sparse_columns(a.right_op(x)), name
    with pytest.raises(ValueError):
        a.op_columns(elems[0], "both")


@pytest.mark.parametrize("name,a", TENSOR_ALGEBRAS, ids=[n for n, _ in TENSOR_ALGEBRAS])
def test_sparse_product_ops_are_the_product_operators(name, a):
    # the twist system's rows of L_{e_i e_j} and R_{e_i e_j}, summed from the
    # basis tables of ``twisted_ops``
    basis = a.basis_elements()
    left, right = twisted_ops(a)
    for side, table, dense_op in (("left", left, a.left_op), ("right", right, a.right_op)):
        for i, j in iter_product(range(a.dim), repeat=2):
            rows = list(homstruct._product_rows(a.field, a.dim, table, a.terms[i][j], {}))
            want = [sparse_entries(r) for r in dense_op(a.multiply(basis[i], basis[j])).rows]
            assert rows == want, (name, side, i, j)
            for r in rows:
                assert [q for q, _ in r] == sorted({q for q, _ in r}), (name, side, i, j)


@pytest.mark.parametrize("name,a", TENSOR_ALGEBRAS, ids=[n for n, _ in TENSOR_ALGEBRAS])
def test_twisted_ops_are_the_twisted_operator_columns(name, a):
    n = a.dim
    left, right = twisted_ops(a)
    assert left is a.terms
    for i in range(n):
        assert list(left[i]) == sparse_columns(a.left_op(a.basis(i))), (name, i)
        assert list(right[i]) == sparse_columns(a.right_op(a.basis(i))), (name, i)
    for seed in range(2):
        tw = random_linear_map(a.field, n, seed)
        left, right = twisted_ops(a, tw)
        for i in range(n):
            assert left[i] == sparse_columns(a.left_op(tw.column(i))), (name, seed, i)
            assert right[i] == sparse_columns(a.right_op(tw.column(i))), (name, seed, i)


@pytest.mark.parametrize(
    "enter", [HomAlgebra, twisted_ops, yau_twist, yau_criterion], ids=lambda f: f.__name__
)
def test_twist_entry_points_check_the_twist(enter):
    a = qalg(NIL2)
    with pytest.raises(FieldMismatch):
        enter(a, Matrix.identity(GF(3), 2))
    for shape in ((2, 3), (3, 2)):
        with pytest.raises(DimensionMismatch):
            enter(a, Matrix.zero(QQ, *shape))


def test_tensor_algebras_have_general_products():
    # the operator oracle above must meet products with several terms and
    # with a single coefficient other than 1
    terms = [p for _, a in TENSOR_ALGEBRAS for row in a.terms for p in row]
    assert any(len(p) > 1 and any(c != 1 for _, c in p) for p in terms)
    assert any(len(p) == 1 and p[0][1] != 1 for p in terms)
    assert any(len(p) == 1 and p[0][1] == 1 for p in terms)


def test_prime_field_entries_are_reduced():
    f3 = GF(3)
    # -1 and 2 are one residue: the algebra is commutative
    a = Algebra(f3, [[[0, 0], [-1, 0]], [[2, 0], [0, 0]]])
    assert a.commutativity_witness() is None
    assert a.tensor[0][1] == (2, 0)
    b, c = Algebra(f3, [[[-1]]]), Algebra(f3, [[[2]]])
    assert b == c
    assert hash(b) == hash(c)
    # a twist is held as residues too: -1 and 2 are one map
    g, h = HomAlgebra(b, Matrix(f3, [[-1]])), HomAlgebra(b, Matrix(f3, [[2]]))
    assert g.twist == h.twist == Matrix(f3, [[2]])
    assert g == h
    assert hash(g) == hash(h)


def test_integral_rationals_are_held_as_ints():
    # qalg builds every constant as a Fraction; the integral ones are stored
    # as their numerators, a true fraction stays a Fraction
    tensor = [[[0, 1], [2, 0]], [[-3, 0], [0, 4]]]
    a, b = qalg(tensor), Algebra(QQ, tensor)
    entries = [v for row in a.tensor for col in row for v in col]
    assert {type(v) for v in entries} == {int}
    assert {type(c) for row in a.terms for pairs in row for _, c in pairs} == {int}
    assert a == b
    assert hash(a) == hash(b)
    half = Algebra(QQ, [[[F(1, 2)]]])
    assert type(half.tensor[0][0][0]) is F


@pytest.mark.parametrize("name,a", CORPUS, ids=[n for n, _ in CORPUS])
def test_hom_associativity_witness_is_first_nonzero_triple(name, a):
    basis = a.basis_elements()
    for seed in range(3):
        h = HomAlgebra(a, random_linear_map(a.field, a.dim, seed))
        first = next(
            (
                (i, j, k)
                for i, j, k in iter_product(range(a.dim), repeat=3)
                if not vec_is_zero(h.hom_associator(basis[i], basis[j], basis[k]))
            ),
            None,
        )
        assert h.hom_associativity_witness() == first, (name, seed)


def test_commutator_self_is_zero(quaternions):
    for i in range(4):
        x = quaternions.basis(i)
        assert vec_is_zero(quaternions.commutator(x, x))


def test_commutator_anticommutator_decompose_product(quaternions):
    # x y = ([x,y] + {x,y}) / 2 over Q
    h = quaternions
    x, y = (F(1), F(2), F(0), F(-1)), (F(0), F(1), F(3), F(1))
    twice = vec_add(QQ, h.commutator(x, y), h.anticommutator(x, y))
    assert vec_scale(QQ, F(1, 2), twice) == h.multiply(x, y)


@st.composite
def vec2(draw):
    return tuple(F(draw(st.integers(-5, 5))) for _ in range(2))


@given(vec2(), vec2(), vec2(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_multiply_bilinear(x, xp, y, lam, mu):
    a = qalg(projection_tensor(2))
    lhs = a.multiply(
        vec_add(QQ, vec_scale(QQ, F(lam), x), vec_scale(QQ, F(mu), xp)), y
    )
    rhs = vec_add(
        QQ,
        vec_scale(QQ, F(lam), a.multiply(x, y)),
        vec_scale(QQ, F(mu), a.multiply(xp, y)),
    )
    assert lhs == rhs
    lhs2 = a.multiply(y, vec_add(QQ, vec_scale(QQ, F(lam), x), vec_scale(QQ, F(mu), xp)))
    rhs2 = vec_add(
        QQ,
        vec_scale(QQ, F(lam), a.multiply(y, x)),
        vec_scale(QQ, F(mu), a.multiply(y, xp)),
    )
    assert lhs2 == rhs2


@given(vec2(), vec2(), vec2())
@settings(max_examples=40, deadline=None)
def test_associator_operator_identity(x, y, z):
    # associator(x, y, z) = (R_z o L_x - L_x o R_z)(y)
    a = qalg(NIL2)
    rz, lx = a.right_op(z), a.left_op(x)
    assert a.associator(x, y, z) == tuple(
        p - q for p, q in zip(rz.apply(lx.apply(y)), lx.apply(rz.apply(y)))
    )


def test_hom_associator_identity_twist_matches_associator(quaternions):
    h = HomAlgebra(quaternions, Matrix.identity(QQ, 4))
    for i in (0, 1):
        for j in (1, 2):
            for k in (2, 3):
                x, y, z = (quaternions.basis(t) for t in (i, j, k))
                assert h.hom_associator(x, y, z) == quaternions.associator(x, y, z)


def test_hom_associator_truncated_poly_shift():
    tp = truncated_poly(QQ, 6)  # t^1..t^6, truncation at t^7
    h = HomAlgebra(tp, tp.left_op(tp.basis(0)))
    assert h.is_hom_associative()


def test_hom_associator_sedenions_with_left_mult(sedenions):
    h = HomAlgebra(sedenions, sedenions.left_op(sedenions.basis(1)))
    wit = h.hom_associativity_witness()
    assert wit is not None
    i, j, k = wit
    assert not vec_is_zero(
        h.hom_associator(sedenions.basis(i), sedenions.basis(j), sedenions.basis(k))
    )


def test_is_hom_associative_examples(quaternions, nil2):
    assert HomAlgebra(quaternions, Matrix.zero(QQ, 4, 4)).is_hom_associative()
    hq = HomAlgebra(quaternions, quaternions.left_op(quaternions.basis(1)))
    assert hq.hom_associativity_witness() is not None
    # nil2: all products of products vanish, any twist works
    for mat in (Matrix.identity(QQ, 2), Matrix(QQ, [[F(1), F(2)], [F(3), F(4)]])):
        assert HomAlgebra(nil2, mat).is_hom_associative()


@given(vec2(), vec2(), vec2(), vec2(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_hom_associator_trilinear(x, xp, y, z, lam, mu):
    a = qalg(projection_tensor(2))
    h = HomAlgebra(a, Matrix(QQ, [[F(1), F(1)], [F(0), F(2)]]))
    mix = vec_add(QQ, vec_scale(QQ, F(lam), x), vec_scale(QQ, F(mu), xp))
    lhs = h.hom_associator(mix, y, z)
    rhs = vec_add(
        QQ,
        vec_scale(QQ, F(lam), h.hom_associator(x, y, z)),
        vec_scale(QQ, F(mu), h.hom_associator(xp, y, z)),
    )
    assert lhs == rhs


def test_multiplicativity_and_idempotency(proj2, nil2):
    ident = Matrix.identity(QQ, 2)
    assert HomAlgebra(proj2, ident).is_multiplicative()
    assert is_idempotent_map(ident)
    assert is_idempotent_elem(proj2, proj2.basis(0))
    assert not is_idempotent_elem(nil2, nil2.basis(0))  # e0^2 = e1
    assert HomAlgebra(proj2, proj2.left_op(proj2.basis(0))).is_multiplicative()


def test_involutive_algebra_validates():
    a = qalg(projection_tensor(2))
    with pytest.raises(InvariantViolation):
        InvolutiveAlgebra(a, Matrix(QQ, [[F(1), F(1)], [F(0), F(1)]]))
    InvolutiveAlgebra(a, Matrix.identity(QQ, 2))


def test_dimension_checks(proj2):
    with pytest.raises(DimensionMismatch):
        proj2.multiply((F(1),), (F(1), F(0)))
    with pytest.raises(InvariantViolation):
        Algebra(QQ, [[[F(0)]], [[F(0)]]])


def test_dimension_cap_env(monkeypatch):
    monkeypatch.setenv("HOMALG_MAX_DIM", "2")
    zero3 = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(DimensionMismatch):
        Algebra(QQ, zero3)
    monkeypatch.setenv("HOMALG_MAX_DIM", "3")
    Algebra(QQ, zero3)
    # a cap that is not an integer is an error, not a silent default
    monkeypatch.setenv("HOMALG_MAX_DIM", "abc")
    with pytest.raises(DimensionMismatch, match="'abc'"):
        Algebra(QQ, zero3)


def test_skew_symmetry_flag():
    lie = qalg(
        [
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
            [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        ]
    )
    assert lie.is_skew_symmetric()
    assert not qalg(projection_tensor(2)).is_skew_symmetric()


def test_op_is_injective_runs_one_packed_pass_on_a_short_q_rank(monkeypatch):
    # L_{e0} = diag(32749, 1): rank 1 mod the certificate prime 32749, so the
    # kernel decides over Q, without a second packed pass over the matrix
    a = Algebra(QQ, [[[32749, 0], [0, 1]], [[0, 0], [0, 0]]])
    calls = []
    rank = kernels.packed_rank
    monkeypatch.setattr(kernels, "packed_rank", lambda *args: calls.append(1) or rank(*args))
    assert a.op_is_injective(a.basis(0), "left")
    assert len(calls) == 1
    assert is_injective(a.left_op(a.basis(0)))
    assert not a.op_is_injective(a.basis(0), "right")  # R_{e0} e1 = 0

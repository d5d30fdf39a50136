"""The sparse structure-constant table against dense references.

Every operator and constraint row is built from ``Algebra.terms``; these
tests recompute the same objects the dense way, from ``a.tensor`` in basis
order, and require equal results: the products and multiplication operators
entry by entry, and the twist space, ``hu_t`` and the multiplier spaces as
canonical subspaces.
"""

import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from conftest import clear_memo, fpalg, matrix_algebra_tensor, permuted, qalg
from homalg import homstruct, linalg
from homalg.algebra import HomAlgebra
from homalg.campaign import builtin_corpus, generated_algebras
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    opposite,
    random_algebra,
)
from homalg.fields import GF, QQ
from homalg.linalg import Matrix, NullspaceSolver, kernel
from homalg.subspaces import find_unities


# -- dense references, computed from the structure tensor -----------------------


def dense_multiply(a, x, y):
    f, n, c = a.field, a.dim, a.tensor
    out = [f.zero] * n
    for i in range(n):
        for j in range(n):
            coef = f.mul(x[i], y[j])
            if coef:
                for k in range(n):
                    out[k] = f.add(out[k], f.mul(coef, c[i][j][k]))
    return tuple(out)


def dense_left_op(a, x):
    """Entry (k, j) = sum_i x_i c[i][j][k]: column j is x e_j."""
    f, n, c = a.field, a.dim, a.tensor
    out = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k][j] = f.add(out[k][j], f.mul(x[i], c[i][j][k]))
    return Matrix(f, out)


def dense_right_op(a, x):
    """Entry (k, i) = sum_j x_j c[i][j][k]: column i is e_i x."""
    f, n, c = a.field, a.dim, a.tensor
    out = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k][i] = f.add(out[k][i], f.mul(x[j], c[i][j][k]))
    return Matrix(f, out)


def dense_twist_space(a):
    """Hom-associativity rows on basis triples in basis order, from dense
    L_{e_i e_j} and R_{e_j e_k}, stopped at full rank."""
    n, f = a.dim, a.field
    solver = NullspaceSolver(f, n * n)
    for i in range(n):
        for j in range(n):
            lu = dense_left_op(a, a.tensor[i][j])
            for k in range(n):
                rv = dense_right_op(a, a.tensor[j][k])
                for m in range(n):
                    pairs = []
                    for q in range(n):
                        if lu.rows[m][q]:
                            pairs.append((q * n + k, lu.rows[m][q]))
                        if rv.rows[m][q]:
                            pairs.append((q * n + i, f.neg(rv.rows[m][q])))
                    if pairs:
                        solver.add_sparse(pairs)
                if solver.full_rank:
                    return solver.solve()
    return solver.solve()


def dense_commuting_space(b):
    """Kernel of the stacked blocks R_{e_i e_j} - L_{e_i} R_{e_j}."""
    n, f = b.dim, b.field
    rows = []
    for i in range(n):
        for j in range(n):
            lr = dense_left_op(b, b.basis(i)).matmul(dense_right_op(b, b.basis(j)))
            rows += dense_right_op(b, b.tensor[i][j]).sub(lr).rows
    return kernel(Matrix(f, rows))


def dense_hu_t(a, side, twist):
    """kernel(perp(twist space) @ op_of), op_of column s = flattened L_{e_s}
    (or R_{e_s})."""
    op = dense_left_op if side == "left" else dense_right_op
    op_of = Matrix.from_columns(
        a.field, [op(a, a.basis(s)).flatten() for s in range(a.dim)]
    )
    return kernel(twist.perp().basis.matmul(op_of))


# -- the algebras ---------------------------------------------------------------


def _sedenions(field):
    return cayley_dickson_chain(4, field=field)[4].base


def _small_field_configs():
    """GF(2)/GF(3) random algebras of dimension 2-4, every flag, seeds 0-11."""
    return [
        GeneratorConfig(seed=seed, dim=dim, field=GF(p), flag=flag)
        for p in (2, 3)
        for dim in (2, 3, 4)
        for flag in ("none", "left_unital", "commutative", "anticommutative")
        for seed in range(12)
    ]


OPERATOR_ALGEBRAS = [
    ("q_fraction_constants", qalg(matrix_algebra_tensor(2))),
    (
        "q_fractional_pool",
        random_algebra(
            GeneratorConfig(seed=5, dim=4, field=QQ, pool=(F(1, 2), F(-3), 0, 0, 2))
        ),
    ),
    ("gf2", random_algebra(GeneratorConfig(seed=3, dim=4, field=GF(2)))),
    ("gf3", random_algebra(GeneratorConfig(seed=4, dim=4, field=GF(3), flag="left_unital"))),
    ("gf65521", fpalg(65521, matrix_algebra_tensor(2))),
    ("sedenions_q", _sedenions(QQ)),
    ("sedenions_gf65521", _sedenions(GF(65521))),
]


def _elements(a, count=6, seed=0):
    f = a.field
    rng = random.Random(seed)
    pool = [0, 0, 1, -1, 2, F(1, 3), F(-5, 2)] if f == QQ else [0, 0, 1, 2, f.p - 1]
    out = [a.basis(i) for i in range(a.dim)]
    for _ in range(count):
        out.append(tuple(f.from_int(v) if f != QQ else v for v in (rng.choice(pool) for _ in range(a.dim))))
    return out


@pytest.mark.parametrize("name,a", OPERATOR_ALGEBRAS, ids=[n for n, _ in OPERATOR_ALGEBRAS])
def test_operators_match_dense_reference(name, a):
    elems = _elements(a)
    for x in elems:
        assert a.left_op(x) == dense_left_op(a, x)
        assert a.right_op(x) == dense_right_op(a, x)
    for x in elems[a.dim:]:
        for y in elems[a.dim:]:
            assert a.multiply(x, y) == dense_multiply(a, x, y)


@pytest.mark.parametrize("name,a", OPERATOR_ALGEBRAS, ids=[n for n, _ in OPERATOR_ALGEBRAS])
def test_terms_are_the_nonzero_products(name, a):
    n = a.dim
    for i in range(n):
        for j in range(n):
            expected = tuple((m, c) for m, c in enumerate(a.tensor[i][j]) if c)
            assert a.terms[i][j] == expected


@pytest.mark.parametrize("name,a", OPERATOR_ALGEBRAS[:5], ids=[n for n, _ in OPERATOR_ALGEBRAS[:5]])
def test_op_family_is_left_times_right(name, a):
    """Block (i, j) of the commuting system is R_{e_i e_j} - L_{e_i} R_{e_j}."""
    n = a.dim
    block = homstruct._op_family(a)
    for i in range(n):
        for j in range(n):
            lr = dense_left_op(a, a.basis(i)).matmul(dense_right_op(a, a.basis(j)))
            expected = dense_right_op(a, a.tensor[i][j]).sub(lr)
            assert Matrix(a.field, block(i, j)) == expected


def dense_hom_associativity_witness(h):
    a, tw = h.base, h.twist
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = dense_multiply(a, a.tensor[i][j], tw.column(k))
                rhs = dense_multiply(a, tw.column(i), a.tensor[j][k])
                if lhs != rhs:
                    return (i, j, k)
    return None


def test_hom_associativity_witness_matches_dense_scan():
    rng = random.Random(11)
    algebras = [a for _, a in builtin_corpus() + generated_algebras(40)]
    algebras += [random_algebra(cfg) for cfg in _small_field_configs()[::8]]
    checked = found = 0
    for a in algebras:
        f, n = a.field, a.dim
        maps = list(homstruct.twist_space(a).maps)
        maps += [a.left_op(a.basis(s)) for s in range(n)]
        for _ in range(3):
            rows = [[f.from_int(rng.choice([0, 0, 1, -1, 2])) for _ in range(n)] for _ in range(n)]
            maps.append(Matrix(f, rows))
        for m in maps:
            h = HomAlgebra(a, m)
            witness = h.hom_associativity_witness()
            assert witness == dense_hom_associativity_witness(h)
            checked += 1
            found += witness is not None
    # both outcomes occur: hom-associative twists and failing triples
    assert 0 < found < checked


# -- derived subspaces against the dense basis-order assembly -------------------


def _assert_matches_dense(a):
    twist = dense_twist_space(a)
    assert homstruct.twist_space(a).space == twist
    for side, ac, b in (
        ("left", homstruct.ac_l_subspace(a), a),
        ("right", homstruct.ac_r_subspace(a), opposite(a)),
    ):
        hu = dense_hu_t(a, side, twist)
        assert homstruct.hu_t(a, side) == hu
        assert ac == linalg.meet(hu, dense_commuting_space(b))
    return twist


@pytest.mark.parametrize("name,a", builtin_corpus(), ids=[n for n, _ in builtin_corpus()])
def test_builtin_corpus_matches_dense_assembly(name, a):
    _assert_matches_dense(a)


def test_generated_algebras_match_dense_assembly():
    for _, a in generated_algebras(40):
        _assert_matches_dense(a)


def test_small_field_algebras_match_dense_assembly():
    nonzero = []
    for cfg in _small_field_configs():
        twist = _assert_matches_dense(random_algebra(cfg))
        if twist.dim:
            nonzero.append((cfg.field.p, cfg.dim, twist.dim))
    # the comparison must cover nonzero twist spaces over both fields and
    # above dimension 2, not only the zero space
    assert {p for p, _, _ in nonzero} == {2, 3}
    assert any(dim > 2 for _, dim, _ in nonzero)
    assert len(nonzero) >= 30


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["Q", "F65521"])
def test_sedenions_match_dense_assembly(field):
    a = _sedenions(field)
    twist = _assert_matches_dense(a)
    assert twist.dim == 0


# -- row count of the twist solve on permuted bases ------------------------------


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["Q", "F65521"])
def test_twist_rows_do_not_depend_on_the_basis_order(field, monkeypatch):
    # the rows ``_twist_rows`` yields to a cold twist solve: the n-unknown
    # hu_t solve on the sedenions (a two-sided unity), the n^2-unknown solve
    # on a random algebra without a unity
    offered = []
    twist_rows = homstruct._twist_rows

    def counting(a):
        for pairs in twist_rows(a):
            offered[-1] += 1
            yield pairs

    nonunital = random_algebra(GeneratorConfig(seed=3, dim=6, field=field))
    assert find_unities(nonunital, "left").is_empty
    assert find_unities(nonunital, "right").is_empty
    monkeypatch.setattr(homstruct, "_twist_rows", counting)
    for base in (_sedenions(field), nonunital):
        for seed in range(16):
            offered.append(0)
            clear_memo()
            try:
                ts = homstruct.twist_space(permuted(base, seed))
            finally:
                clear_memo()
            assert ts.dim == 0
    # basis order offered 8,448 rows over Q on the canonical sedenion basis;
    # measured 57 to 187 on the sedenions and 42 to 49 on the random algebra
    assert min(offered) > 0 and max(offered) <= 1000, offered


# -- memory of the commuting solve ----------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_multiplier_space_solves_in_bounded_memory(field):
    # the commuting blocks are built as the solve reads them; an eager n^2
    # operator family peaks near 9 MB here (1.2 GB at dimension 32)
    a = random_algebra(GeneratorConfig(seed=1, dim=14, field=field))
    clear_memo()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        homstruct.ac_l_subspace(a)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert elapsed < 1.0, elapsed

"""Exact linear algebra: canonical forms, kernels, lattice operations."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memo
from homalg import kernels, linalg
from homalg.campaign import builtin_corpus, run_campaign
from homalg.errors import DimensionMismatch, FieldMismatch
from homalg.fields import GF, QQ
from homalg.linalg import (
    _CERT_PRIME,
    AffineSet,
    Matrix,
    NullspaceSolver,
    Subspace,
    eigenspace,
    intersect_affine,
    is_direct_sum,
    is_injective,
    join,
    kernel,
    meet,
    nullspace,
    rref,
    solve_affine,
    vec_is_zero,
)

F2 = GF(2)
F5 = GF(5)


def qmat(rows):
    return Matrix(QQ, [[F(v) for v in r] for r in rows])


def qvec(vals):
    return tuple(F(v) for v in vals)


# -- rref ---------------------------------------------------------------------


def test_rref_identity_is_fixed():
    m = Matrix.identity(QQ, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_zero_matrix():
    m = Matrix.zero(QQ, 2, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == ()


def test_rref_rank_one():
    # hand Gaussian elimination: [[2,4],[1,2]] -> [[1,2],[0,0]]
    r, pivots = rref(qmat([[2, 4], [1, 2]]))
    assert r == qmat([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_mixed_field_rejected():
    m = qmat([[1, 2]])
    other = Matrix(F5, [[1, 2]])
    with pytest.raises(FieldMismatch):
        m.add(other)


def _random_qmatrix(draw, nrows, ncols):
    ents = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return qmat(ents)


@st.composite
def small_qmatrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    return _random_qmatrix(draw, nrows, ncols)


@st.composite
def small_f5_matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    ents = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix(F5, ents)


@given(small_qmatrices())
@settings(max_examples=60, deadline=None)
def test_rref_is_projection_q(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2
    assert p1 == p2


@given(small_f5_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_is_projection_fp(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2
    assert p1 == p2


# -- kernel -------------------------------------------------------------------


def test_kernel_identity_trivial():
    assert kernel(Matrix.identity(QQ, 4)).is_zero()


def test_kernel_zero_full():
    k = kernel(Matrix.zero(QQ, 3, 4))
    assert k.is_full()


def test_kernel_f2_exhaustive():
    # oracle: try all 4 vectors of F2^2 against the map (x, y) -> x + y
    m = Matrix(F2, [[1, 1]])
    k = kernel(m)
    members = [v for v in [(0, 0), (0, 1), (1, 0), (1, 1)] if sum(v) % 2 == 0]
    for v in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert k.contains(v) == (v in members)
    assert k.dim == 1


@given(small_qmatrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_exactness_q(m):
    r, pivots = rref(m)
    k = kernel(m)
    assert len(pivots) + k.dim == m.ncols
    for v in k.basis.rows:
        assert all(x == 0 for x in m.apply(v))


@given(small_f5_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_exactness_fp(m):
    r, pivots = rref(m)
    k = kernel(m)
    assert len(pivots) + k.dim == m.ncols
    for v in k.basis.rows:
        assert all(x == 0 for x in m.apply(v))


# -- solve_affine -------------------------------------------------------------


def test_solve_affine_identity():
    b = qvec([3, -2])
    sol = solve_affine(Matrix.identity(QQ, 2), b)
    assert not sol.is_empty
    assert sol.particular == b
    assert sol.direction.is_zero()


def test_solve_affine_inconsistent():
    sol = solve_affine(Matrix.zero(QQ, 2, 2), qvec([1, 0]))
    assert sol.is_empty


def test_solve_affine_line():
    sol = solve_affine(qmat([[1, 1]]), qvec([1]))
    # canonical representative has the free coordinate zero
    assert sol.particular == qvec([1, 0])
    assert sol.direction == Subspace.from_rows(QQ, 2, [qvec([1, -1])])
    # substitution check on a couple of members
    m = qmat([[1, 1]])
    for coeffs in [(), (F(2),), (F(-7, 3),)]:
        assert m.apply(sol.member(coeffs)) == qvec([1])


def test_solve_affine_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_affine(qmat([[1, 1]]), qvec([1, 2]))


def test_intersect_affine():
    a1 = solve_affine(qmat([[1, 1, 0]]), qvec([1]))
    a2 = solve_affine(qmat([[0, 1, 1]]), qvec([1]))
    both = intersect_affine(a1, a2)
    assert not both.is_empty
    assert a1.contains(both.particular) and a2.contains(both.particular)
    assert both.direction.dim == 1


# -- subspace lattice ---------------------------------------------------------


def ss(rows, ambient=3):
    return Subspace.from_rows(QQ, ambient, [qvec(r) for r in rows])


def test_meet_join_basics():
    s = ss([[1, 0, 0], [0, 1, 0]])
    zero = Subspace.zero(QQ, 3)
    assert meet(s, s) == s
    assert join(s, zero) == s


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_zero_row_matrices_keep_their_width(field):
    # the perp of the full space has no rows but still acts on field^3
    m = Subspace.full(field, 3).perp().basis.matmul(Matrix.identity(field, 3))
    assert (m.nrows, m.ncols) == (0, 3)
    assert kernel(m).is_full()


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
def test_span_of_zero_rows_keeps_its_ambient_width(field):
    # only zero rows: the zero subspace of field^2, not one of width 0
    got = Subspace.full(field, 2).image_under(Matrix.zero(field, 2, 2))
    assert got == Subspace.zero(field, 2)
    assert got.basis.ncols == 2


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_transpose_of_a_rowless_matrix_has_rows(field):
    # the 0x3 basis of the zero subspace transposes to 3x0, which maps the
    # empty coordinate tuple to the zero vector of field^3
    t = Subspace.zero(field, 3).basis.transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    assert t.apply(()) == (field.zero,) * 3
    assert t.transpose() == Subspace.zero(field, 3).basis
    assert t.transpose().ncols == 3


def test_meet_span_overlap():
    sxy = ss([[1, 0, 0], [0, 1, 0]])
    syz = ss([[0, 1, 0], [0, 0, 1]])
    got = meet(sxy, syz)
    assert got == ss([[0, 1, 0]])
    # member-wise verification
    for v in got.basis.rows:
        assert sxy.contains(v) and syz.contains(v)


def test_is_direct_sum():
    sx = ss([[1, 0, 0]])
    sy = ss([[0, 1, 0]])
    sxy = ss([[1, 0, 0], [0, 1, 0]])
    assert is_direct_sum(sx, sy, sxy)
    # dimensions add up, but the join falls short of the whole
    assert not is_direct_sum(sx, sx, sxy)
    # the join is the whole space, but the two spaces overlap
    syz = ss([[0, 1, 0], [0, 0, 1]])
    assert not is_direct_sum(sxy, syz, Subspace.full(QQ, 3))


@st.composite
def subspace_pairs(draw):
    ambient = draw(st.integers(1, 4))
    def rows():
        k = draw(st.integers(0, ambient))
        return [
            [F(draw(st.integers(-3, 3))) for _ in range(ambient)] for _ in range(k)
        ]
    return (
        Subspace.from_rows(QQ, ambient, rows()),
        Subspace.from_rows(QQ, ambient, rows()),
    )


@given(subspace_pairs())
@settings(max_examples=60, deadline=None)
def test_modular_law_dims(pair):
    s1, s2 = pair
    assert meet(s1, s2).dim + join(s1, s2).dim == s1.dim + s2.dim


def test_eigenspace_examples():
    assert eigenspace(Matrix.identity(QQ, 3), F(1)).is_full()
    assert eigenspace(Matrix.zero(QQ, 2, 2), F(0)).is_full()
    diag = qmat([[1, 0], [0, 2]])
    e2 = eigenspace(diag, F(2))
    assert e2 == ss([[0, 1]], ambient=2)
    # direct multiplication check
    for v in e2.basis.rows:
        assert diag.apply(v) == tuple(F(2) * x for x in v)


def test_eigenspace_needs_square():
    with pytest.raises(DimensionMismatch):
        eigenspace(Matrix.zero(QQ, 2, 3), F(0))


# -- nullspace solver plumbing --------------------------------------------------


def test_nullspace_solver_sparse_and_duplicates():
    solver = NullspaceSolver(QQ, 3)
    solver.add_sparse([(0, F(1)), (1, F(1))])
    solver.add_sparse([(1, F(1)), (0, F(1))])  # duplicate after normalization
    solver.add_sparse([(0, F(2)), (1, F(2))])  # scalar multiple, same primitive row
    got = solver.solve()
    assert got == kernel(qmat([[1, 1, 0]]))


def test_nullspace_solver_full_rank_short_circuit():
    solver = NullspaceSolver(QQ, 2)
    solver.add_dense([F(1), F(0)])
    solver.add_dense([F(0), F(1)])
    assert solver.full_rank
    assert solver.solve().is_zero()


def test_nullspace_solver_falls_back_when_the_certificate_prime_divides():
    # full rank over Q (determinant _CERT_PRIME), rank 1 modulo _CERT_PRIME
    rows = [[_CERT_PRIME, 1], [0, 1]]
    solver = NullspaceSolver(QQ, 2)
    for row in rows:
        solver.add_dense(row)
    assert not solver.full_rank
    assert solver.solve().is_zero()
    assert kernel(qmat(rows)).is_zero()
    # from_rows feeds the same solver, so the exact pass decides it too
    assert Subspace.from_rows(QQ, 2, rows) == Subspace.full(QQ, 2)
    # [p, 0] is the primitive row [1, 0] at intake: certified mod p
    assert Subspace.from_rows(QQ, 2, [[_CERT_PRIME, 0], [0, 1]]).is_full()


def test_nullspace_solver_drops_raw_repeats_before_normalizing(monkeypatch):
    calls = []
    primitive = kernels.row_primitive_int

    def counting(row):
        calls.append(tuple(row))
        return primitive(row)

    monkeypatch.setattr(kernels, "row_primitive_int", counting)
    solver = NullspaceSolver(QQ, 3)
    for _ in range(50):
        solver.add_dense([F(2), F(-4), 0])
    assert calls == [(2, -4, 0)]
    assert solver.solve() == kernel(qmat([[1, -2, 0]]))


def test_nullspace_solver_pools_proportional_rows_once():
    solver = NullspaceSolver(QQ, 2)
    for row in ([2, 4], [1, 2], [-3, -6]):
        solver.add_dense(row)
    assert solver._pool == [((0, 1), (1, 2))]
    assert solver.solve() == kernel(qmat([[1, 2]]))


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["GF3", "Q"])
def test_nullspace_solver_certifies_full_rank_before_solve(field):
    # 81 columns: the 81 unit rows complete the rank; the 8 rows after them
    # are dropped at intake
    n = 81
    solver = NullspaceSolver(field, n)
    for i in range(n):
        solver.add_dense([field.one if c == i else field.zero for c in range(n)])
    for i in range(1, 9):
        solver.add_dense([field.one if c in (0, i) else field.zero for c in range(n)])
    assert solver.full_rank
    assert solver._pool == []
    assert solver.solve().is_zero()


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["GF3", "Q"])
def test_nullspace_solver_certifies_on_the_row_completing_the_rank(field):
    n = 81
    solver = NullspaceSolver(field, n)
    for i in range(n):
        assert not solver.full_rank
        solver.add_dense([field.one if c == i else field.zero for c in range(n)])
    assert solver.full_rank
    assert solver._pool == []


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["GF3", "Q"])
def test_nullspace_solver_with_kernel_matches_kernel(field):
    # rank at most 75 of 81
    n = 81
    rng = random.Random(3)
    rows = [
        [field.from_int(rng.choice([-1, 0, 0, 1, 2])) if c < 75 else field.zero for c in range(n)]
        for _ in range(100)
    ]
    solver = NullspaceSolver(field, n)
    for row in rows:
        solver.add_dense(row)
    assert not solver.full_rank
    got = solver.solve()
    m = Matrix(field, rows)
    assert got == kernel(m)
    assert got.dim == n - len(rref(m)[1]) >= 6
    assert all(vec_is_zero(m.apply(v)) for v in got.basis.rows)


@pytest.mark.parametrize(
    "field,rows,distinct,kernel_rows",
    [
        (
            QQ,
            [[F(1, 2), 0, F(3)], [0, 0, 0], [F(1, 2), 0, F(3)], [1, 0, 6], [0, F(-2, 3), 1],
             [F(0), F(0), F(0)], [1, 0, 6], [0, F(-2, 3), 1]],
            [[F(1, 2), 0, F(3)], [1, 0, 6], [0, F(-2, 3), 1]],
            2,  # [1/2, 0, 3] and [1, 0, 6] share one primitive integer row
        ),
        (
            F5,
            [[1, 2, 0], [0, 0, 0], [2, 4, 0], [1, 2, 0], [0, 0, 3], [0, 0, 0], [0, 0, 3]],
            [[1, 2, 0], [2, 4, 0], [0, 0, 3]],
            3,
        ),
    ],
    ids=["Q", "F5"],
)
def test_from_rows_drops_zero_and_repeated_rows(monkeypatch, field, rows, distinct, kernel_rows):
    # repeats, zero rows and proportional rows span what the distinct ones do
    # Q: one exact pass over the pooled rows; F_p: one echelon_add per row
    seen = []
    kernel_name = "rref_int" if field == QQ else "echelon_add"
    real = getattr(kernels, kernel_name)

    def counting(rows, *args):
        seen.append(len(rows) if field == QQ else 1)
        return real(rows, *args)

    monkeypatch.setattr(kernels, kernel_name, counting)
    got = Subspace.from_rows(field, 3, rows)
    # only distinct nonzero rows reach the kernel
    assert seen == ([kernel_rows] if field == QQ else [1] * kernel_rows)
    assert got == Subspace.from_rows(field, 3, distinct)
    assert got.dim == 2
    assert Subspace.from_rows(field, 3, [r for r in rows if not any(r)]).is_zero()


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_from_rows_checks_every_row_length(field):
    wrong = ([[1, 0, 0], [0, 0]], [[0, 0]], [[0, 0, 0], [0, 0, 0, 0]], [[1, 0, 0], [1, 0, 0], [1]])
    for rows in wrong:  # zero rows included: checked before they are dropped
        with pytest.raises(DimensionMismatch):
            Subspace.from_rows(field, 3, rows)


def _densify(ncols, pairs):
    row = [0] * ncols
    for c, v in pairs:
        row[c] += v
    return row


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_add_sparse_matches_add_dense(field):
    ncols = 5
    offers = [
        [(0, 1), (1, 2), (0, -1)],  # column 0 cancels
        [(3, F(1, 2)), (1, F(-3, 4)), (3, F(1, 2))] if field == QQ else [(3, 9), (1, -3)],
        [(1, 2)],  # a multiple of the first row
        [(4, 1), (4, -1)],  # all zero
        [(2, 14), (0, -7)] if field != QQ else [(2, F(2, 3)), (0, -1)],  # zero mod 7
        [(0, 3), (1, -5), (2, 7), (4, 10)],
        [(4, 10), (2, 7), (1, -5), (0, 3)],  # the same row, pairs reordered
        [(0, -6), (1, 10), (2, -14), (4, -20)],  # -2 times it
        [(1, 1), (3, 1)],
    ]
    values = [-8, -1, 1, 2, 7, F(1, 3) if field == QQ else 13]
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randrange(1, 6)
        offers.append([(rng.randrange(ncols), rng.choice(values)) for _ in range(k)])
    sparse, dense = NullspaceSolver(field, ncols), NullspaceSolver(field, ncols)
    for pairs in offers:
        sparse.add_sparse(pairs)
        dense.add_dense(_densify(ncols, pairs))
        assert sparse._pool == dense._pool
        assert sparse._echelon == dense._echelon
        assert sparse.full_rank == dense.full_rank
    got = sparse.solve()
    assert got == dense.solve()
    assert (sparse._pool, sparse._echelon) == (dense._pool, dense._echelon)


def test_add_sparse_normalizes_a_repeated_row_once(monkeypatch):
    calls = []
    primitive = kernels.row_primitive_int

    def counting(row):
        calls.append(tuple(row))
        return primitive(row)

    monkeypatch.setattr(kernels, "row_primitive_int", counting)
    pairs = [(1, F(-4)), (0, F(2))]
    offers = [pairs, pairs[::-1], pairs + [(2, F(1, 3)), (2, F(-1, 3))]]  # column 2 cancels
    solver = NullspaceSolver(QQ, 3)
    for k in range(51):
        solver.add_sparse(offers[k % 3])
    assert calls == [(2, -4)]  # the nonzero values, once
    assert solver.solve() == kernel(qmat([[1, -2, 0]]))


# -- one elimination driver: rref, solve_affine and perp through the solver -----


def _gauss_jordan(field, rows):
    """Reference: one-phase Gauss-Jordan in field arithmetic, clearing each
    pivot column above and below as soon as the pivot is found."""
    rows = [[field.from_int(v) for v in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank, pivots = 0, []
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.div(field.one, rows[rank][col])
        prow = rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            b = rows[r][col]
            if r != rank and b:
                rows[r] = [field.sub(x, field.mul(b, y)) for x, y in zip(rows[r], prow)]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in rows[:rank]], pivots


# raw entries: ints and Fractions over Q, non-residues over F_p (7 and -3 are
# 2 mod 5; 10 and -4 are 0 mod 2)
_RAW = {
    "Q-int": (QQ, [-3, -1, 0, 0, 1, 2, 5]),
    "Q-frac": (QQ, [F(-2, 3), F(-1), 0, 0, F(1, 2), F(5, 4), 3]),
    "GF2": (F2, [-4, -1, 0, 1, 3, 10]),
    "GF5": (F5, [-3, -1, 0, 1, 4, 7, 10, 12]),
}


def _driver_cases(rng, field, entries):
    """(label, ncols, rows) in every shape class the solver distinguishes."""
    n = rng.randint(1, 6)
    zeros = [x for x in entries if not field.from_int(x)]

    def rand(nrows, ncols):
        return [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]

    units = [[rng.choice([1, -1, 3]) if c == i else 0 for c in range(n)] for i in range(n)]
    full = rand(rng.randint(0, 3), n) + units
    rng.shuffle(full)
    yield "full_rank", n, full
    base = rand(rng.randint(1, n), n + 2)
    combos = []
    for _ in range(n + 3):
        a, b = rng.choice(base), rng.choice(base)
        ca, cb = rng.choice(entries), rng.choice(entries)
        combos.append([ca * x + cb * y for x, y in zip(a, b)])
    yield "deficient", n + 2, combos
    yield "zero", n, [[rng.choice(zeros) for _ in range(n)] for _ in range(3)]
    repeated = [list(rng.choice(base)) for _ in range(2 * n + 2)]
    for row in repeated[: n + 1]:
        lam = rng.choice([x for x in entries if x])
        row[:] = [lam * v for v in row]
    yield "repeated", n + 2, repeated


@pytest.mark.parametrize("raw", sorted(_RAW))
def test_solver_rref_matches_gauss_jordan(raw):
    field, entries = _RAW[raw]
    rng = random.Random(raw)
    certified = set()
    for _ in range(25):
        for label, ncols, rows in _driver_cases(rng, field, entries):
            want = _gauss_jordan(field, rows)
            solver = NullspaceSolver(field, ncols)
            for row in rows:
                solver.add_dense(row)
            red, pivots = solver.rref()
            assert ([tuple(r) for r in red], list(pivots)) == want, (label, rows)
            if solver.full_rank:
                certified.add(label)
            m = Matrix(field, rows)
            r, p = rref(m)
            assert r.rows[: len(want[0])] == tuple(want[0]) and list(p) == want[1]
            assert Subspace.from_rows(field, ncols, rows).basis.rows == tuple(want[0])
    # the rank certificate answers the full-rank case without the exact pass
    assert certified == {"full_rank"}


@pytest.mark.parametrize("raw", sorted(_RAW))
def test_mixed_dense_and_sparse_offers_match_gauss_jordan(raw):
    # one solver fed every other row densely, the rest as (column, value)
    # pairs with a repeated column and a cancelling pair
    field, entries = _RAW[raw]
    rng = random.Random(f"mixed-{raw}")
    for _ in range(25):
        for label, ncols, rows in _driver_cases(rng, field, entries):
            solver = NullspaceSolver(field, ncols)
            for k, row in enumerate(rows):
                if k % 2:
                    pairs = [(c, v) for c, v in enumerate(row) if v]
                    if pairs:
                        c, v = pairs[0]
                        pairs[0] = (c, v - 1)
                        pairs.append((c, 1))
                    solver.add_sparse(pairs + [(ncols - 1, 2), (ncols - 1, -2)])
                else:
                    solver.add_dense(row)
            red, pivots = solver.rref()
            assert ([tuple(r) for r in red], list(pivots)) == _gauss_jordan(field, rows), (
                label,
                rows,
            )


@pytest.mark.parametrize("raw", sorted(_RAW))
def test_solve_affine_direction_is_the_kernel(raw):
    field, entries = _RAW[raw]
    rng = random.Random(f"affine-{raw}")
    for _ in range(30):
        nrows, n = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(field, [[rng.choice(entries) for _ in range(n)] for _ in range(nrows)])
        x0 = tuple(field.from_int(rng.choice(entries)) for _ in range(n))
        b = m.apply(x0)
        sol = solve_affine(m, b)
        assert not sol.is_empty
        assert sol.direction == kernel(m)
        assert m.apply(sol.particular) == b
        assert sol.contains(x0)
        # the sum of the first and last rows, with a right side off by one
        r0, r1 = m.rows[0], m.rows[-1]
        bad = Matrix(field, list(m.rows) + [[field.add(x, y) for x, y in zip(r0, r1)]])
        off = field.add(field.add(b[0], b[-1]), field.one)
        assert solve_affine(bad, b + (off,)).is_empty


@pytest.mark.parametrize("raw", sorted(_RAW))
def test_perp_reads_the_canonical_basis(raw):
    field, entries = _RAW[raw]
    rng = random.Random(f"perp-{raw}")
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        s = Subspace.from_rows(field, n, rows)
        assert s.perp() == kernel(s.basis)
        assert s.perp().perp() == s
        assert s.perp().dim + s.dim == n


def _meet_cases(rng, field, entries):
    """1-4 subspaces of one field^n: random spans, the zero and full spaces,
    and repeats of an earlier argument."""
    n = rng.randint(1, 5)
    spaces = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["span", "span", "span", "zero", "full", "repeat"])
        if kind == "zero":
            spaces.append(Subspace.zero(field, n))
        elif kind == "full":
            spaces.append(Subspace.full(field, n))
        elif kind == "repeat" and spaces:
            spaces.append(rng.choice(spaces))
        else:
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randint(0, n))]
            spaces.append(Subspace.from_rows(field, n, rows))
    return spaces


@pytest.mark.parametrize("raw", sorted(_RAW))
def test_meet_matches_the_perp_join_perp_reference(raw):
    field, entries = _RAW[raw]
    rng = random.Random(f"meet-{raw}")
    for _ in range(40):
        spaces = _meet_cases(rng, field, entries)
        want = spaces[0]
        for s in spaces[1:]:
            want = join(want.perp(), s.perp()).perp()
        got = meet(*spaces)
        assert got == want, spaces
        for v in got.basis.rows:
            assert all(s.contains(v) for s in spaces)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_meet_of_proper_spaces_is_one_solve(field, monkeypatch):
    # the stacked system is one solver; solve() builds one more only to
    # canonicalize a nonzero kernel, exactly as kernel() of the same rows
    built = []
    init = NullspaceSolver.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    def span(*rows):
        return Subspace.from_rows(field, 5, [[field.from_int(x) for x in r] for r in rows])

    e = [[int(i == j) for j in range(5)] for i in range(5)]
    u = span(e[0], e[1], e[2], e[3])
    v = span(e[1], e[2], e[3], e[4])
    w = span(e[0], e[2], [0, 1, 0, 1, 1])
    x = span(e[0], e[1])
    for spaces in [(u, v), (u, v, w), (u, v, w, u), (v, x), (u, v, w, x)]:
        rows = [r for s in spaces for r in s.complement_rows()]
        built.clear()
        monkeypatch.setattr(NullspaceSolver, "__init__", counting)
        got = meet(*spaces)
        monkeypatch.setattr(NullspaceSolver, "__init__", init)
        assert len(built) == (1 if got.is_zero() else 2), spaces
        assert got == kernel(Matrix(field, rows))


def test_subspace_contains_checks_dimension():
    with pytest.raises(DimensionMismatch):
        ss([[1, 0, 0]]).contains(qvec([1, 0]))


# -- intersect_affine reads complement rows ---------------------------------------


def _perp_intersection(a1, a2):
    """Reference: the stacked systems perp(dir_i) x = perp(dir_i) p_i, with
    perp() an elimination of its own."""
    if a1.is_empty or a2.is_empty:
        return AffineSet.empty_set(a1.field, a1.ambient_dim)
    c1, c2 = a1.direction.perp().basis, a2.direction.perp().basis
    rows = c1.rows + c2.rows
    if not rows:
        return a1
    rhs = c1.apply(a1.particular) + c2.apply(a2.particular)
    return solve_affine(Matrix(a1.field, rows), rhs)


def _affine_cases(rng, field, entries):
    """Pairs of affine sets in one field^n: random consistent systems, the
    full space, singletons, the empty set, and parallel disjoint pairs."""
    n = rng.randint(1, 5)

    def vec():
        return tuple(field.from_int(rng.choice(entries)) for _ in range(n))

    def system():
        return Matrix(field, [vec() for _ in range(rng.randint(1, n))])

    def one():
        kind = rng.choice(["system", "system", "full", "point", "empty"])
        if kind == "full":
            return solve_affine(Matrix.zero(field, 1, n), (field.zero,))
        if kind == "point":
            return solve_affine(Matrix.identity(field, n), vec())
        if kind == "empty":
            return AffineSet.empty_set(field, n)
        m = system()
        return solve_affine(m, m.apply(vec()))

    for _ in range(6):
        yield one(), one()
    m = system()
    b = m.apply(vec())
    shifted = (field.add(b[0], field.one),) + b[1:]
    yield solve_affine(m, b), solve_affine(m, shifted)  # parallel: disjoint


@pytest.mark.parametrize("raw", sorted(_RAW))
def test_intersect_affine_matches_the_perp_reference(raw):
    field, entries = _RAW[raw]
    rng = random.Random(f"intersect-{raw}")
    seen = set()
    for _ in range(20):
        for a1, a2 in _affine_cases(rng, field, entries):
            want = _perp_intersection(a1, a2)
            got = intersect_affine(a1, a2)
            assert got == want, (a1, a2)
            assert got.ambient_dim == a1.ambient_dim
            if got.is_empty:
                seen.add("empty" if a1.is_empty or a2.is_empty else "inconsistent")
                continue
            assert a1.contains(got.particular) and a2.contains(got.particular)
            if got.direction.is_full():
                seen.add("full")
            else:
                seen.add("point" if got.direction.is_zero() else "proper")
    assert seen == {"empty", "inconsistent", "full", "point", "proper"}


def test_campaign_takes_no_perp(monkeypatch):
    calls = []
    perp = Subspace.perp

    def counting(self):
        calls.append(self)
        return perp(self)

    clear_memo()
    monkeypatch.setattr(Subspace, "perp", counting)
    assert run_campaign(builtin_corpus())["ok"]
    assert calls == []


# -- is_injective: one modular rank pass ------------------------------------------


_INJECTIVE_FIELDS = {
    "Q": (QQ, [F(-2, 3), F(-1), 0, 0, 0, F(1, 2), 1, 3]),
    "GF2": (F2, [0, 0, 1]),
    "GF3": (GF(3), [0, 0, 1, 2]),
    "GF65521": (GF(65521), [0, 0, 1, 2, 65520]),
    # the packed pass near its slot bound, and the echelon pass past it
    "GF1073741789": (GF(1073741789), [0, 0, 1, 2, 1073741788]),
    "GF18446744073709551557": (GF(18446744073709551557), [0, 0, 1, 2, 18446744073709551556]),
}


def _injectivity_cases(rng, field, entries):
    """Square, tall and wide matrices: random ones, ones with a column
    copied onto another (never injective), with the identity stacked on top
    or unit triangular with shuffled rows (always injective), and a matrix
    without columns."""
    for _ in range(12):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[field.from_int(rng.choice(entries)) for _ in range(ncols)] for _ in range(nrows)]
        eye = Matrix.identity(field, ncols).rows
        unit = [
            [field.from_int(rng.choice(entries)) if j > i else eye[i][j] for j in range(ncols)]
            for i in range(ncols)
        ]
        rng.shuffle(unit)
        yield Matrix(field, rows)
        yield Matrix(field, [list(r) for r in eye] + rows)
        yield Matrix(field, unit)
        if ncols > 1:
            i, j = rng.sample(range(ncols), 2)
            for m in (rows, unit):
                yield Matrix(field, [r[:j] + [r[i]] + r[j + 1 :] for r in m])
    yield Matrix.zero(field, 3, 0)


@pytest.mark.parametrize("name", sorted(_INJECTIVE_FIELDS))
def test_is_injective_matches_the_kernel(name):
    field, entries = _INJECTIVE_FIELDS[name]
    rng = random.Random(f"injective-{name}")
    seen = set()
    for m in _injectivity_cases(rng, field, entries):
        want = kernel(m).is_zero()
        assert is_injective(m) == want, m.rows
        seen.add((want, m.is_square()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_is_injective_falls_back_when_the_certificate_prime_divides_a_minor(monkeypatch):
    # singular mod the certificate prime, invertible over Q
    m = Matrix(QQ, [[_CERT_PRIME, 0], [0, 1]])
    assert _CERT_PRIME == 32749
    calls = []

    def counting(mat):
        calls.append(mat)
        return kernel(mat)

    monkeypatch.setattr(linalg, "kernel", counting)
    assert is_injective(m)
    assert calls == [m]
    # over F_p the pass is exact: no fallback, and the same matrix mod 7 is
    # injective while mod the certificate prime it is not
    calls.clear()
    assert not is_injective(Matrix(GF(_CERT_PRIME), [[_CERT_PRIME, 0], [0, 1]]))
    assert is_injective(Matrix(GF(7), [[_CERT_PRIME, 0], [0, 1]]))
    assert calls == []


# -- nullspace with a known part of the kernel ------------------------------------


def _counted(rows, drawn):
    for row in rows:
        drawn.append(row)
        yield row


@pytest.mark.parametrize("raw", sorted(_RAW))
def test_nullspace_stops_at_a_known_kernel(raw):
    field, entries = _RAW[raw]
    rng = random.Random(f"known-{raw}")
    stopped = 0
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [[field.from_int(rng.choice(entries)) for _ in range(n)] for _ in range(2 * n)]
        want = kernel(Matrix(field, rows))
        # a subspace of the kernel: its whole basis, part of it, or nothing
        keep = rng.randint(0, want.dim)
        known = Subspace.from_rows(field, n, want.basis.rows[:keep])
        drawn = []
        got = nullspace(field, n, _counted(rows, drawn), known)
        assert got == want
        assert (got is known) == (keep == want.dim)
        if keep == want.dim and len(drawn) < len(rows):
            stopped += 1
    assert stopped > 0


def test_nullspace_known_kernel_shapes():
    eye = [list(r) for r in Matrix.identity(QQ, 3).rows]
    with pytest.raises(DimensionMismatch):
        nullspace(QQ, 3, eye, Subspace.zero(QQ, 2))
    full = Subspace.full(QQ, 3)
    drawn = []
    assert nullspace(QQ, 3, _counted(eye, drawn), full) is full
    assert drawn == []  # nothing to learn: no row is drawn
    drawn = []
    assert nullspace(QQ, 3, _counted(eye, drawn), Subspace.zero(QQ, 3)).is_zero()
    assert len(drawn) == 3

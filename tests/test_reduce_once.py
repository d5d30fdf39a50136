"""The product loops accumulate with native ``+`` and ``*`` on raw scalars and
reduce each output entry once (``linalg.reduced``).  Each loop is checked
against a per-term reference that calls the ``Field`` methods, kept here as
the loops read before, over Q with non-integral constants and over GF(2),
GF(65521) and GF(2^61 - 1); and on the sedenions no loop calls a ``Field``
add, sub or mul."""

import random
from fractions import Fraction as F

import pytest

from homalg import homstruct
from homalg.algebra import Algebra, triple_defects, twisted_ops
from homalg.constructions import cayley_dickson_chain
from homalg.fields import GF, QQ, PrimeField, RationalField
from homalg.linalg import Matrix, combine, sparse_columns, sparse_entries

FIELDS = [QQ, GF(2), GF(65521), GF((1 << 61) - 1)]


# -- per-term references ---------------------------------------------------------


def ref_multiply(a, x, y):
    f = a.field
    acc = [f.zero] * a.dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in ys:
            coef = f.mul(xi, yj)
            for k, c in a.terms[i][j]:
                acc[k] = f.add(acc[k], f.mul(coef, c))
    return tuple(acc)


def ref_left_op(a, x):
    f, n = a.field, a.dim
    out = [[f.zero] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if xi:
            for j, p in enumerate(a.terms[i]):
                for k, c in p:
                    out[k][j] = f.add(out[k][j], f.mul(xi, c))
    return Matrix(f, out)


def ref_right_op(a, x):
    f, n = a.field, a.dim
    out = [[f.zero] * n for _ in range(n)]
    for j, xj in enumerate(x):
        if xj:
            for i, row in enumerate(a.terms):
                for k, c in row[j]:
                    out[k][i] = f.add(out[k][i], f.mul(xj, c))
    return Matrix(f, out)


def ref_op_columns(a, x, side):
    f, n = a.field, a.dim
    table = a.terms if side == "left" else tuple(zip(*a.terms))
    cols = []
    for j in range(n):
        acc = [f.zero] * n
        for i, xi in enumerate(x):
            if xi:
                for k, c in table[i][j]:
                    acc[k] = f.add(acc[k], f.mul(xi, c))
        cols.append(sparse_entries(acc))
    return cols


def ref_triple_defects(f, n, prods, left, right):
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [f.zero] * n
                for m, c in prods[i][j]:
                    for q, v in right[k][m]:
                        acc[q] = f.add(acc[q], f.mul(c, v))
                for m, c in prods[j][k]:
                    for q, v in left[i][m]:
                        acc[q] = f.sub(acc[q], f.mul(c, v))
                if any(acc):
                    out.append(((i, j, k), tuple(acc)))
    return out


def ref_combine(f, n, cols, pairs):
    acc = [f.zero] * n
    for m, c in pairs:
        for q, v in cols[m]:
            acc[q] = f.add(acc[q], f.mul(c, v))
    return tuple(acc)


def ref_apply(m, vec):
    f = m.field
    out = []
    for row in m.rows:
        s = f.zero
        for a, x in zip(row, vec):
            if a and x:
                s = f.add(s, f.mul(a, x))
        out.append(s)
    return tuple(out)


def ref_matmul(m, other):
    f = m.field
    out = []
    for row in m.rows:
        acc = [f.zero] * other.ncols
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(other.rows[k]):
                    if b:
                        acc[j] = f.add(acc[j], f.mul(a, b))
        out.append(acc)
    return Matrix(f, out)


def ref_product_rows(f, n, table, prod):
    acc = [{} for _ in range(n)]
    for q in range(n):
        for t, c in prod:
            for m, v in table[t][q]:
                row = acc[m]
                v = f.mul(c, v)
                row[q] = f.add(row[q], v) if q in row else v
    return tuple(tuple(e for e in r.items() if e[1]) for r in acc)


# -- inputs ------------------------------------------------------------------------


def _scalar(rng, f, raw=False):
    """A scalar of ``f``, zero half the time; with ``raw`` an F_p value may
    be negative or p and more, as ``Matrix`` keeps it."""
    if rng.random() < 0.5:
        return f.zero
    if f == QQ:
        return rng.choice([1, -1, 3, F(1, 2), F(-3, 7), F(5, 4)])
    p = f.p
    v = rng.choice([1, p - 1, rng.randrange(p)])
    if raw:
        v += p * rng.randint(-3, 3)
    return v


def _vector(rng, f, n, raw=False):
    return tuple(_scalar(rng, f, raw) for _ in range(n))


def _matrix(rng, f, nrows, ncols, raw=False):
    return Matrix(f, [_vector(rng, f, ncols, raw) for _ in range(nrows)])


def _algebras():
    rng = random.Random(29)
    for f in FIELDS:
        for n in (1, 2, 3, 4, 5):
            tensor = [[_vector(rng, f, n) for _ in range(n)] for _ in range(n)]
            yield pytest.param(Algebra(f, tensor), id=f"{f}-d{n}")
        yield pytest.param(cayley_dickson_chain(3, field=f)[3].base, id=f"{f}-octonions")


@pytest.mark.parametrize("a", list(_algebras()))
def test_algebra_loops_match_the_per_term_reference(a):
    f, n = a.field, a.dim
    name = repr(a)
    rng = random.Random(f"{f}-{n}")
    for _ in range(4):
        x, y = _vector(rng, f, n), _vector(rng, f, n, raw=True)
        assert a.multiply_unchecked(x, y) == ref_multiply(a, x, y), name
        for z in (x, y):
            assert a.left_op(z) == ref_left_op(a, z), name
            assert a.right_op(z) == ref_right_op(a, z), name
            for side in ("left", "right"):
                assert a.op_columns(z, side) == ref_op_columns(a, z, side), name
    for twist in (None, _matrix(rng, f, n, n)):
        ops = twisted_ops(a, twist)
        got = list(triple_defects(f, n, a.terms, *ops))
        assert got == ref_triple_defects(f, n, a.terms, *ops), name
        for table in ops:
            for line in a.terms:
                for prod in line:
                    want = ref_product_rows(f, n, table, prod)
                    assert homstruct._product_rows(f, n, table, prod, {}) == want, name


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_linalg_loops_match_the_per_term_reference(f):
    rng = random.Random(2029)
    for _ in range(30):
        r, s, t = (rng.randint(1, 6) for _ in range(3))
        m, other = _matrix(rng, f, r, s, raw=True), _matrix(rng, f, s, t, raw=True)
        vec = _vector(rng, f, s, raw=True)
        assert m.apply(vec) == ref_apply(m, vec)
        assert m.matmul(other) == ref_matmul(m, other)
        cols = sparse_columns(m)
        pairs = sparse_entries(vec)
        assert combine(f, r, cols, pairs) == ref_combine(f, r, cols, pairs)
    if f != QQ:  # unreduced and negative entries still give residues
        m = Matrix(f, [[-1, f.p], [2 * f.p + 1, -f.p - 2]])
        assert m.apply((1, 1)) == (f.p - 1, f.p - 1)
        assert all(0 <= v < f.p for row in m.matmul(m).rows for v in row)


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=str)
def test_sedenion_loops_call_no_field_arithmetic(monkeypatch, field):
    a = cayley_dickson_chain(4, field=field)[4].base
    n = a.dim
    rng = random.Random(7)
    x, y = _vector(rng, field, n), _vector(rng, field, n)
    m = a.left_op(x)
    cols, left_right = sparse_columns(m), twisted_ops(a)
    calls = []
    for cls in (RationalField, PrimeField):
        for name in ("add", "sub", "mul"):
            method = getattr(cls, name)
            monkeypatch.setattr(
                cls, name, lambda self, u, v, _m=method, _n=name: calls.append(_n) or _m(self, u, v)
            )
    a.multiply_unchecked(x, y)
    a.op_columns(x, "left")
    a.op_columns(y, "right")
    list(triple_defects(field, n, a.terms, *left_right))
    combine(field, n, cols, sparse_entries(y))
    m.apply(y)
    m.matmul(m)
    a.left_op(y)
    a.right_op(y)
    homstruct._product_rows(field, n, left_right[0], a.terms[1][2], {})
    assert calls == []
    assert field.mul(2, 3) == 6 and calls == ["mul"]  # the counter counts

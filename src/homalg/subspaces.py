"""Classical subspaces of an algebra: centralizers, nuclei, annihilators,
spans of products/commutators/associators, unity sets, idempotent search.

Every "for all x in S" condition is imposed on a basis of S only; bilinearity
or trilinearity of the defining operator makes this exact.  Nuclei and the
associator span read ``a.associators``.  The full nucleus and the two-sided
annihilator are meets of one-identity solves.  The subspace and unity solvers
are memoized per argument value in bounded lru caches, so their results must
stay immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product

from homalg.algebra import Algebra
from homalg.errors import (
    DimensionMismatch,
    SearchSpaceTooLarge,
    UnsupportedDimensionOverQ,
)
from homalg.fields import PrimeField
from homalg.linalg import (
    AffineSet,
    Matrix,
    NullspaceSolver,
    Subspace,
    intersect_affine,
    meet,
    meet_all,
    solve_affine,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


def _solve_blocks(a: Algebra, blocks) -> Subspace:
    """Nullspace of stacked n x n constraint blocks acting on one element."""
    solver = NullspaceSolver(a.field, a.dim)
    for block in blocks:
        for row in block.rows:
            solver.add_dense(list(row))
        if solver.full_rank:
            break
    return solver.solve()


def _check_subspace(a: Algebra, s: Subspace):
    if s.ambient_dim != a.dim:
        raise DimensionMismatch(f"subspace ambient {s.ambient_dim} vs dim {a.dim}")


@lru_cache(maxsize=64)
def centralizer(a: Algebra, s: Subspace) -> Subspace:
    """Elements commuting with everything in s."""
    _check_subspace(a, s)
    return _solve_blocks(
        a,
        (a.right_op(b).sub(a.left_op(b)) for b in s.basis.rows),
    )


def center(a: Algebra) -> Subspace:
    return centralizer(a, Subspace.full(a.field, a.dim))


@lru_cache(maxsize=64)
def nucleus(a: Algebra, slot: str = "full") -> Subspace:
    """Elements associating with all basis pairs in the given slot ("left",
    "middle", "right") or in all three ("full", the meet of the three slot
    nuclei).  Block (s, t) has column c the associator with e_c in the slot
    and e_s, e_t in the other two, read from ``a.associators``."""
    if slot not in ("left", "middle", "right", "full"):
        raise ValueError(f"unknown slot {slot!r}")
    if slot == "full":
        return meet_all(nucleus(a, s) for s in ("left", "middle", "right"))
    assoc = a.associators
    n = a.dim

    def columns(s, t):
        if slot == "left":
            return [assoc[c][s][t] for c in range(n)]
        if slot == "middle":
            return [assoc[s][c][t] for c in range(n)]
        return assoc[s][t]

    blocks = (Matrix.from_columns(a.field, columns(s, t)) for s in range(n) for t in range(n))
    return _solve_blocks(a, blocks)


def center_and_nucleus(a: Algebra) -> Subspace:
    return meet(center(a), nucleus(a, "full"))


@lru_cache(maxsize=64)
def annihilator(a: Algebra, s: Subspace, side: str = "left") -> Subspace:
    """left: v with v*b = 0 for all b in s; right: b*v = 0; both: the meet of
    the two."""
    _check_subspace(a, s)
    if side not in ("left", "right", "both"):
        raise ValueError(f"unknown side {side!r}")
    if side == "both":
        return meet(annihilator(a, s, "left"), annihilator(a, s, "right"))
    op = a.right_op if side == "left" else a.left_op
    return _solve_blocks(a, (op(b) for b in s.basis.rows))


@lru_cache(maxsize=64)
def span_of(a: Algebra, kind: str) -> Subspace:
    """Row space of all basis products, commutators, or associators."""
    n = a.dim
    if kind == "products":
        rows = [a.products[i][j] for i in range(n) for j in range(n)]
    elif kind == "commutators":
        p = a.products
        rows = [vec_sub(a.field, p[i][j], p[j][i]) for i in range(n) for j in range(i + 1, n)]
    elif kind == "associators":
        rows = [v for plane in a.associators for line in plane for v in line]
    else:
        raise ValueError(f"unknown span kind {kind!r}")
    return Subspace.from_rows(a.field, n, rows)


@lru_cache(maxsize=64)
def find_unities(a: Algebra, side: str = "left") -> AffineSet:
    """Solve for one-sided or two-sided unities as a linear system in the
    candidate element; empty affine set = non-unital on that side.  The
    direction of the left set is exactly the left annihilator of the algebra.
    """
    n = a.dim
    f = a.field
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"unknown side {side!r}")
    if side == "two_sided":
        return intersect_affine(find_unities(a, "left"), find_unities(a, "right"))
    rows = []
    rhs = []
    for j in range(n):
        for m in range(n):
            if side == "left":
                # sum_i e_i c[i][j][m] = delta_jm
                rows.append([a.tensor[i][j][m] for i in range(n)])
            else:
                rows.append([a.tensor[j][i][m] for i in range(n)])
            rhs.append(f.one if j == m else f.zero)
    return solve_affine(Matrix(f, rows), tuple(rhs))


# -- idempotents ------------------------------------------------------------------


def idempotents(a: Algebra, within: Subspace, cap: int = 1 << 20) -> list:
    """All x in ``within`` with x*x = x.

    Over a prime field: exhaustive enumeration in the coordinates of
    ``within`` (guarded by ``cap``).  Over Q: closed-form solution, available
    for dim(within) <= 2 only; an infinite solution family raises
    SearchSpaceTooLarge.
    """
    _check_subspace(a, within)
    field = a.field
    basis = within.basis.rows
    k = len(basis)
    if isinstance(field, PrimeField):
        p = field.p
        if p**k > cap:
            raise SearchSpaceTooLarge(f"{p}^{k} candidates exceed cap {cap}")
        found = []
        coords = within.basis.transpose()
        for coeffs in iter_product(range(p), repeat=k):
            x = coords.apply(coeffs)
            if a.multiply(x, x) == x:
                found.append(x)
        return sorted(found)
    if k > 2:
        raise UnsupportedDimensionOverQ(
            f"closed-form idempotent search over Q needs dim <= 2, got {k}"
        )
    if k == 0:
        return [a.zero()]
    if k == 1:
        return _idempotents_q_dim1(a, basis[0])
    return _idempotents_q_dim2(a, basis)


def _idempotents_q_dim1(a: Algebra, b) -> list:
    # (s b)^2 = s b  <=>  s^2 (b b) = s b; nonzero s needs b b parallel to b
    bb = a.multiply(b, b)
    out = [a.zero()]
    if vec_is_zero(bb):
        return out
    ratio = None
    for x, y in zip(bb, b):
        if y == 0:
            if x != 0:
                return out
        else:
            r = a.field.div(x, y)
            if ratio is None:
                ratio = r
            elif ratio != r:
                return out
    if ratio:  # b b = ratio * b with ratio nonzero -> s = 1/ratio
        out.append(vec_scale(a.field, a.field.div(1, ratio), b))
    return sorted(out)


def _idempotents_q_dim2(a: Algebra, basis) -> list:
    import sympy

    s, t = sympy.symbols("s t", rational=True)
    b1, b2 = basis
    q11 = a.multiply(b1, b1)
    q12 = a.multiply(b1, b2)
    q21 = a.multiply(b2, b1)
    q22 = a.multiply(b2, b2)
    equations = []
    for m in range(a.dim):
        expr = (
            sympy.Rational(q11[m]) * s**2
            + (sympy.Rational(q12[m]) + sympy.Rational(q21[m])) * s * t
            + sympy.Rational(q22[m]) * t**2
            - sympy.Rational(b1[m]) * s
            - sympy.Rational(b2[m]) * t
        )
        if expr != 0:
            equations.append(expr)
    if not equations:
        # every element idempotent is impossible over Q for a nonzero space
        raise SearchSpaceTooLarge("degenerate quadratic system")
    solutions = sympy.solve(equations, [s, t], dict=True)
    out = []
    for sol in solutions:
        vs = sol.get(s, s)
        vt = sol.get(t, t)
        if vs.free_symbols or vt.free_symbols:
            raise SearchSpaceTooLarge("infinite family of idempotents")
        try:
            rs = sympy.Rational(vs)
            rt = sympy.Rational(vt)
        except (TypeError, ValueError):
            continue  # irrational solution, not an element over Q
        cs = a.field.div(int(rs.p), int(rs.q))
        ct = a.field.div(int(rt.p), int(rt.q))
        x = vec_add(a.field, vec_scale(a.field, cs, b1), vec_scale(a.field, ct, b2))
        out.append(x)
    zero = a.zero()
    if zero not in out:
        out.append(zero)
    for x in out:
        if a.multiply(x, x) != x:
            raise SearchSpaceTooLarge("solver returned a non-idempotent")
    return sorted(set(out))

"""Classical subspaces of an algebra: centralizers, nuclei, annihilators,
spans of products/commutators/associators, unity sets, idempotent search.

Every "for all x in S" condition is imposed on a basis of S only; bilinearity
or trilinearity of the defining operator makes this exact.  Nuclei and the
associator span read the nonzero basis associators ``a.associators``, a
missing triple being a zero associator.  A one-identity solve is one
``linalg.nullspace`` over its constraint blocks, each block built only when
the solve reaches it; a slot nucleus passes the span of its unities as a
known part of the kernel, so its solve stops once nothing else can fit.  The
full nucleus and the two-sided annihilator are meets of such solves.  The
subspace and unity solvers are memoized per argument value in bounded lru
caches, so their results must stay immutable.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from itertools import chain, combinations, product as iter_product
from math import isqrt, lcm

from homalg.algebra import Algebra
from homalg.errors import (
    DimensionMismatch,
    InternalCheckFailure,
    SearchSpaceTooLarge,
    UnsupportedDimensionOverQ,
)
from homalg.fields import PrimeField
from homalg.linalg import (
    AffineSet,
    Matrix,
    Subspace,
    as_fractions,
    intersect_affine,
    meet,
    nullspace,
    solve_affine,
    vec_add,
    vec_scale,
    vec_sub,
)


def _check_subspace(a: Algebra, s: Subspace):
    if s.ambient_dim != a.dim:
        raise DimensionMismatch(f"subspace ambient {s.ambient_dim} vs dim {a.dim}")


@lru_cache(maxsize=64)
def centralizer(a: Algebra, s: Subspace) -> Subspace:
    """Elements commuting with everything in s."""
    _check_subspace(a, s)
    blocks = (a.right_op(b).sub(a.left_op(b)).rows for b in s.basis.rows)
    return nullspace(a.field, a.dim, chain.from_iterable(blocks))


def center(a: Algebra) -> Subspace:
    return centralizer(a, Subspace.full(a.field, a.dim))


_SLOT_POSITION = {"left": 0, "middle": 1, "right": 2}
_SLOT_UNITIES = {"left": "left", "middle": "two_sided", "right": "right"}


@lru_cache(maxsize=64)
def nucleus(a: Algebra, slot: str = "full") -> Subspace:
    """Elements associating with all basis pairs in the given slot ("left",
    "middle", "right") or in all three ("full", the meet of the three slot
    nuclei).  Block (s, t) has column c the associator with e_c in the slot
    and e_s, e_t in the other two, looked up in ``a.associators`` (zero
    where the key is missing).

    A slot's unities lie in its nucleus: the left unities in the left one,
    the right unities in the right one, the two-sided unities in the middle
    one.  Their span (``_slot_unity_span``, checked against the associators)
    is passed to ``nullspace`` as a known part of the kernel, so the solve
    stops once the rank leaves room for nothing else: on the sedenions each
    slot reads 293-584 of its 4,096 rows instead of all of them."""
    if slot not in ("left", "middle", "right", "full"):
        raise ValueError(f"unknown slot {slot!r}")
    if slot == "full":
        return meet(*(nucleus(a, s) for s in ("left", "middle", "right")))
    get = a.associators.get
    zero = a.zero()
    n = a.dim

    def rows(s, t):
        if slot == "left":
            return zip(*(get((c, s, t), zero) for c in range(n)))
        if slot == "middle":
            return zip(*(get((s, c, t), zero) for c in range(n)))
        return zip(*(get((s, t, c), zero) for c in range(n)))

    blocks = (rows(s, t) for s in range(n) for t in range(n))
    return nullspace(a.field, n, chain.from_iterable(blocks), _slot_unity_span(a, slot))


def _slot_unity_span(a: Algebra, slot: str) -> Subspace | None:
    """The span of the unities that lie in the slot's nucleus, None when
    there are none.  Each basis vector of the span is checked by exact
    substitution, so a wrong unity set raises instead of cutting a nucleus
    short."""
    unities = find_unities(a, _SLOT_UNITIES[slot])
    if unities.is_empty:
        return None
    rows = [unities.particular, *unities.direction.basis.rows]
    span = Subspace.from_rows(a.field, a.dim, rows)
    for u in span.basis.rows:
        if not _in_slot_nucleus(a, _SLOT_POSITION[slot], u):
            raise InternalCheckFailure(
                f"unity {as_fractions(a.field, u)} outside the {slot} nucleus"
            )
    return span


def _in_slot_nucleus(a: Algebra, pos: int, u) -> bool:
    """Exact substitution: the sum of u_c times the associator with e_c at
    position ``pos`` vanishes for every pair of the other two basis
    elements.  Only stored (nonzero) associators contribute."""
    f = a.field
    sums: dict = {}
    for key, value in a.associators.items():
        coef = u[key[pos]]
        if not coef:
            continue
        rest = key[:pos] + key[pos + 1 :]
        acc = sums.setdefault(rest, [f.zero] * a.dim)
        for m, v in enumerate(value):
            if v:
                acc[m] = f.add(acc[m], f.mul(coef, v))
    return all(not any(acc) for acc in sums.values())


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
    blocks = (op(b).rows for b in s.basis.rows)
    return nullspace(a.field, a.dim, chain.from_iterable(blocks))


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
        rows = list(dict.fromkeys(a.associators.values()))
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
    ``within`` (guarded by ``cap``).  Over Q, for dim(within) <= 2 only: a
    nonzero idempotent is v/mu for a direction v with v*v = mu v, mu != 0,
    checked exactly for each candidate: the basis vector b, or b1 and
    s b1 + b2 for each rational root s of the first nonzero 2x2 minor of
    [v*v | v], a cubic in s.  If every minor vanishes, every line is an
    eigenline: an infinite family (SearchSpaceTooLarge) unless squares
    vanish on ``within``, when only 0 is idempotent.
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
    out = {a.zero()}
    for v in _eigenline_candidates(a, basis):
        vv = a.multiply(v, v)
        c = next(i for i, x in enumerate(v) if x)
        mu = field.div(vv[c], v[c])
        if mu and vv == vec_scale(field, mu, v):
            out.add(vec_scale(field, field.div(1, mu), v))
    for x in out:
        if a.multiply(x, x) != x:
            raise SearchSpaceTooLarge("solver returned a non-idempotent")
    return sorted(out)


def _eigenline_candidates(a: Algebra, basis) -> list:
    """Directions v in span(basis) over Q that may satisfy v*v = mu v."""
    if len(basis) == 1:
        return list(basis)
    b1, b2 = basis
    cross = vec_add(a.field, a.multiply(b1, b2), a.multiply(b2, b1))
    # (s b1 + b2)^2 and s b1 + b2, coordinatewise, lowest degree in s first
    square = list(zip(a.multiply(b2, b2), cross, a.multiply(b1, b1)))
    line = list(zip(b2, b1))
    for i, j in combinations(range(a.dim), 2):
        minor = [0] * 4
        for u, w in iter_product(range(3), range(2)):
            minor[u + w] += square[i][u] * line[j][w] - square[j][u] * line[i][w]
        if any(minor):
            roots = _rational_roots(minor)
            return [b1] + [vec_add(a.field, vec_scale(a.field, s, b1), b2) for s in roots]
    if not any(any(q) for q in square):
        return []
    raise SearchSpaceTooLarge("infinite family of idempotents")


def _rational_roots(poly) -> list:
    """Ascending rational roots of a nonzero polynomial over Q of degree <= 3
    (coefficients lowest degree first), with no floats and no factoring.
    Cleared of denominators and with y = lead * x it is monic over Z, so its
    rational roots are integers; it is monotone between cuts at each integer
    within 1 of a real critical point, and bisection finds them there."""
    while not poly[-1]:
        poly = poly[:-1]
    den = lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    d, lead = len(ints) - 1, ints[-1]
    p = [c * lead ** (d - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    bound = 1 + max(map(abs, p[:-1]), default=0)  # Cauchy bound on |root|
    brackets = []  # (lo, hi, q): a critical point lies in [lo/q, hi/q]
    if d == 2:
        brackets.append((-p[1], -p[1], 2))
    elif d == 3 and p[2] ** 2 >= 3 * p[1]:
        r = isqrt(p[2] ** 2 - 3 * p[1])
        brackets += [(-p[2] - r - 1, -p[2] - r, 3), (-p[2] + r, -p[2] + r + 1, 3)]
    cuts = {-bound, bound}
    for lo, hi, q in brackets:
        cuts.update(range(lo // q, -(-hi // q) + 1))

    def value(y):
        return sum(c * y**i for i, c in enumerate(p))

    cuts = sorted(cuts)
    candidates = set(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        negative = value(lo) < 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if (value(mid) < 0) == negative else (lo, mid)
        candidates.update((lo, hi))
    return [Fraction(y, lead) for y in sorted(candidates) if value(y) == 0]

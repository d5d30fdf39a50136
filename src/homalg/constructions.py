"""Algebra builders: Cayley-Dickson doubling, unitalization, Yau twists,
opposite algebras, truncated polynomial algebras, and a deterministic
random-algebra generator for property campaigns.
"""

from __future__ import annotations

import random

from homalg.algebra import Algebra, FrozenRecord, HomAlgebra, InvolutiveAlgebra, check_dim, max_dim
from homalg.algebra import check_twist, triple_defects, twisted_ops
from homalg.errors import (
    DimensionMismatch,
    InternalCheckFailure,
    InvariantViolation,
)
from homalg.fields import QQ, Field
from homalg.linalg import (
    Matrix,
    Subspace,
    combine,
    nullspace,
    sparse_columns,
    sparse_entries,
    vec_sub,
)

# recorded in reports; changing the generator is a breaking format change
PRNG_NAME = "python-random-mt19937"


# -- Cayley-Dickson ------------------------------------------------------------


def base_field_algebra(field: Field = QQ) -> InvolutiveAlgebra:
    """The field itself as a 1-dimensional algebra with trivial conjugation."""
    one = field.one
    alg = Algebra(field, [[[one]]], labels=("1",))
    return InvolutiveAlgebra(alg, Matrix.identity(field, 1))


def cayley_dickson(base: InvolutiveAlgebra, gamma=None) -> InvolutiveAlgebra:
    """One doubling step.

    On pairs: (a, b) * (c, d) = (a c + gamma * s(d) b,  d a + b s(c)) with the
    new conjugation (a, b) -> (s(a), -b).  With gamma = -1 over Q this
    reproduces the classical chain (i^2 = -1, ij = k, ji = -k, ijk = -1).
    """
    alg = base.base
    field = alg.field
    if gamma is None:
        gamma = field.neg(field.one)
    n = alg.dim
    m = 2 * n
    zero = field.zero
    tensor = [[[zero] * m for _ in range(m)] for _ in range(m)]
    conj_cols = [base.conj.column(i) for i in range(n)]

    def emb_first(vec, i, j):
        for k, v in enumerate(vec):
            if v:
                tensor[i][j][k] = field.add(tensor[i][j][k], v)

    def emb_second(vec, i, j):
        for k, v in enumerate(vec):
            if v:
                tensor[i][j][n + k] = field.add(tensor[i][j][n + k], v)

    for i in range(n):
        ei = alg.basis(i)
        for j in range(n):
            ej = alg.basis(j)
            # (e_i, 0)(e_j, 0) = (e_i e_j, 0)
            emb_first(alg.products[i][j], i, j)
            # (e_i, 0)(0, e_j) = (0, e_j e_i)
            emb_second(alg.products[j][i], i, n + j)
            # (0, e_i)(e_j, 0) = (0, e_i s(e_j))
            emb_second(alg.multiply(ei, conj_cols[j]), n + i, j)
            # (0, e_i)(0, e_j) = (gamma s(e_j) e_i, 0)
            prod = alg.multiply(conj_cols[j], ei)
            emb_first(tuple(field.mul(gamma, v) for v in prod), n + i, n + j)

    conj_rows = [[zero] * m for _ in range(m)]
    for c in range(n):
        col = conj_cols[c]
        for r in range(n):
            conj_rows[r][c] = col[r]
    for c in range(n):
        conj_rows[n + c][n + c] = field.neg(field.one)

    labels = None
    if alg.labels:
        labels = alg.labels + tuple(f"{name}'" for name in alg.labels)
    doubled = Algebra(field, tensor, labels=labels)
    return InvolutiveAlgebra(doubled, Matrix(field, conj_rows))


_CHAIN_LABELS = {2: ("1", "i"), 4: ("1", "i", "j", "k")}


def cayley_dickson_chain(levels: int, gammas=None, field: Field = QQ):
    """Levels of doubling starting from the field; returns the list of all
    intermediate algebras (index k has dimension 2^k).  ``levels`` is checked
    against the dimension cap before anything is allocated."""
    if levels < 0:
        raise DimensionMismatch(f"levels must be non-negative, got {levels}")
    cap = max_dim()
    if levels > cap.bit_length():
        raise DimensionMismatch(f"{levels} levels exceed HOMALG_MAX_DIM={cap}")
    check_dim(1 << levels)
    if gammas is None:
        gammas = [field.neg(field.one)] * levels
    if len(gammas) != levels:
        raise DimensionMismatch(f"need {levels} gamma values, got {len(gammas)}")
    chain = [base_field_algebra(field)]
    for g in gammas:
        doubled = cayley_dickson(chain[-1], g)
        n = doubled.base.dim
        labels = _CHAIN_LABELS.get(n, tuple(f"e{t}" for t in range(n)))
        relabeled = Algebra(field, doubled.base.tensor, labels=labels)
        chain.append(InvolutiveAlgebra(relabeled, doubled.conj))
    return chain


# -- unitalization --------------------------------------------------------------


def unitalize(a: Algebra):
    """Adjoin a two-sided unity: dimension n+1, coordinates (x, lam) with the
    new scalar slot last.  Returns (algebra, embedding matrix, unity)."""
    field = a.field
    n = a.dim
    zero, one = field.zero, field.one
    tensor = [[[zero] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            prod = a.products[i][j]
            for k in range(n):
                tensor[i][j][k] = prod[k]
        tensor[i][n][i] = one  # e_i * unity = e_i
        tensor[n][i][i] = one  # unity * e_i = e_i
    tensor[n][n][n] = one
    embedding = Matrix(field, [[one if r == c else zero for c in range(n)] for r in range(n + 1)])
    unity = tuple(zero if i < n else one for i in range(n + 1))
    return Algebra(field, tensor), embedding, unity


def ac_unitalized_by_eigenspaces(a: Algebra) -> Subspace:
    """Two-sided hom-unities of the unitalization, solved in the original
    algebra: pairs (b, mu) with b central and nuclear and the associator span
    inside the (-mu)-eigenspace of left multiplication by b.

    Cross-checked against the direct computation on the unitalization; the
    kernel of the last-coordinate projection must match the hom-unity
    subspace of the base algebra.
    """
    from homalg import homstruct, subspaces

    field = a.field
    n = a.dim
    zn = subspaces.center_and_nucleus(a)
    assoc = subspaces.span_of(a, "associators")

    def rows():
        for row in zn.complement_rows():
            yield row + [field.zero]
        for x in assoc.basis.rows:
            rx = a.right_op(x)  # b * x as a function of b
            for m in range(n):
                yield rx.rows[m] + (x[m],)

    got = nullspace(field, n + 1, rows())

    tilde, embedding, unity = unitalize(a)
    direct = homstruct.ac_two_sided(tilde)
    if got != direct:
        raise InternalCheckFailure(
            "eigenspace route disagrees with the unitalization computation"
        )
    if tilde.is_associative():
        # center(tilde) is center(a) plus the unity: (b, lam) is central iff b is
        center = [r + (field.zero,) for r in subspaces.center(a).basis.rows]
        if got != Subspace.from_rows(field, n + 1, [*center, unity]):
            raise InternalCheckFailure(
                "associative unitalization must have its center as multiplier space"
            )

    # kernel of (b, mu) -> mu must be the embedded hom-unity subspace: got's
    # complement rows plus the one row mu = 0
    mu_row = [field.zero] * n + [field.one]
    ker_pi = nullspace(field, n + 1, [*got.complement_rows(), mu_row])
    hu = homstruct.hu_n(a, "two_sided")
    embedded = Subspace.from_rows(
        field, n + 1, [tuple(r) + (field.zero,) for r in hu.basis.rows]
    )
    if ker_pi != embedded:
        raise InternalCheckFailure(
            "kernel of the scalar projection is not the embedded hom-unity space"
        )

    # pairwise relation: mu' b - mu b' annihilates the associator span
    rows = got.basis.rows
    for p in range(len(rows)):
        for q in range(len(rows)):
            bp, lp = rows[p][:n], rows[p][n]
            bq, lq = rows[q][:n], rows[q][n]
            comb = vec_sub(
                field,
                tuple(field.mul(lp, v) for v in bq),
                tuple(field.mul(lq, v) for v in bp),
            )
            if not hu.contains(comb):
                raise InternalCheckFailure(
                    "pair combination escaped the hom-unity subspace"
                )
    return got


# -- Yau twist -------------------------------------------------------------------


def yau_twist(a: Algebra, alpha: Matrix) -> HomAlgebra:
    """Replace the product by alpha o product, twisted by alpha."""
    check_twist(a, alpha)
    cols = sparse_columns(alpha)
    tensor = [[combine(a.field, a.dim, cols, t) for t in row] for row in a.terms]
    return HomAlgebra(Algebra(a.field, tensor, labels=a.labels), alpha)


def yau_criterion(a: Algebra, alpha: Matrix):
    """(bool, witness): whether the twisted product is hom-associative,
    decided by the closed condition alpha(alpha(xy) alpha(z) - alpha(x)
    alpha(yz)) = 0 on basis triples, the first failing triple in
    lexicographic order as the witness.  The table alpha(e_i e_j) is the
    ``terms`` of the ``yau_twist`` algebra, scanned by ``triple_defects``
    with the ``twisted_ops`` tables of alpha on ``a``; the witness is the
    first defect that alpha does not kill.  Cross-checked against the direct
    hom-associativity scan of the twisted algebra."""
    twisted = yau_twist(a, alpha)
    left, right = twisted_ops(a, alpha)
    f = a.field
    n = a.dim
    cols = sparse_columns(alpha)
    defects = triple_defects(f, n, twisted.base.terms, left, right)
    witness = next(
        (t for t, d in defects if any(combine(f, n, cols, sparse_entries(d)))), None
    )
    holds = witness is None
    if holds != twisted.is_hom_associative():
        raise InternalCheckFailure(
            "twist criterion disagrees with the direct hom-associativity scan"
        )
    return holds, witness


# -- opposite / truncated polynomials ---------------------------------------------


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed product: c_op[i][j][k] = c[j][i][k]."""
    n = a.dim
    tensor = [[a.tensor[j][i] for j in range(n)] for i in range(n)]
    return Algebra(a.field, tensor, labels=a.labels)


def opposite_hom(h: HomAlgebra) -> HomAlgebra:
    """Opposite algebra with the same twist; hom-associativity is preserved."""
    return HomAlgebra(opposite(h.base), h.twist)


def truncated_poly(field: Field = QQ, degree_cap: int = 6, with_constants: bool = False) -> Algebra:
    """Polynomials truncated above t^degree_cap; basis t^1..t^N, or t^0..t^N
    with constants.  Commutative associative; non-unital without constants."""
    if degree_cap < 1:
        raise DimensionMismatch("degree cap must be at least 1")
    lo = 0 if with_constants else 1
    check_dim(degree_cap + 1 - lo)  # before the n^3 tensor is allocated
    exps = list(range(lo, degree_cap + 1))
    n = len(exps)
    zero, one = field.zero, field.one
    tensor = [[[zero] * n for _ in range(n)] for _ in range(n)]
    pos = {e: idx for idx, e in enumerate(exps)}
    for i, ei in enumerate(exps):
        for j, ej in enumerate(exps):
            s = ei + ej
            if s <= degree_cap:
                tensor[i][j][pos[s]] = one
    labels = tuple("1" if e == 0 else f"t^{e}" for e in exps)
    return Algebra(field, tensor, labels=labels)


# -- deterministic generator -------------------------------------------------------


class GeneratorConfig(FrozenRecord):
    """Deterministic recipe for a random structure tensor.

    Same config always yields the bit-identical algebra.  ``flag`` is one of
    "none", "left_unital", "commutative", "anticommutative" (the CLI exposes
    them as mutually exclusive options).
    """

    __slots__ = ("seed", "dim", "field", "pool", "flag")
    _defaults = (None, "none")  # pool: raw scalars; None gives (-1, 0, 0, 1)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.flag not in ("none", "left_unital", "commutative", "anticommutative"):
            raise InvariantViolation(f"unknown generator flag {self.flag!r}")
        if self.pool is None:
            f = self.field
            object.__setattr__(self, "pool", (f.neg(f.one), f.zero, f.zero, f.one))

    def to_json(self):
        return {
            "seed": self.seed,
            "dim": self.dim,
            "field": self.field.to_json(),
            "pool": [self.field.format(v) for v in self.pool],
            "flag": self.flag,
            "prng": PRNG_NAME,
        }


def random_linear_map(field: Field, dim: int, seed: int, pool=None) -> Matrix:
    """Deterministic matrix draw from the same generator family."""
    rng = random.Random(seed)
    if pool is None:
        pool = (field.neg(field.one), field.zero, field.zero, field.one)
    return Matrix(
        field, [[rng.choice(pool) for _ in range(dim)] for _ in range(dim)]
    )


def random_algebra(cfg: GeneratorConfig) -> Algebra:
    field = cfg.field
    n = cfg.dim
    if n < 1:
        raise DimensionMismatch(f"dimension must be at least 1, got {n}")
    check_dim(n)  # before the n^3 tensor is allocated
    rng = random.Random(cfg.seed)
    pool = list(cfg.pool)
    zero, one = field.zero, field.one
    tensor = [[[zero] * n for _ in range(n)] for _ in range(n)]

    def draw_vec():
        return [rng.choice(pool) for _ in range(n)]

    if cfg.flag == "commutative":
        for i in range(n):
            for j in range(i, n):
                v = draw_vec()
                tensor[i][j] = list(v)
                tensor[j][i] = list(v)
    elif cfg.flag == "anticommutative":
        for i in range(n):
            for j in range(i + 1, n):
                v = draw_vec()
                tensor[i][j] = v
                tensor[j][i] = [field.neg(x) for x in v]
    elif cfg.flag == "left_unital":
        # unity row pinned first, remaining rows drawn
        for j in range(n):
            tensor[0][j][j] = one
        for i in range(1, n):
            for j in range(n):
                tensor[i][j] = draw_vec()
    else:
        for i in range(n):
            for j in range(n):
                tensor[i][j] = draw_vec()
    return Algebra(field, tensor)

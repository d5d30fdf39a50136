"""Hom-associative structures: the twist-map space, the hom-unity subspace
families, and the one- and two-sided structure theorems with their
verification machinery.

Everything here reduces to exact kernel computations.  The twist system
(e_i e_j) alpha(e_k) = alpha(e_i)(e_j e_k) has one row family,
``_twist_rows``, sparse rows built from ``Algebra.terms`` through the tables
of ``algebra.twisted_ops`` (never from dense operator products), its basis
triples in one fixed scrambled order, so the rows read before the rank
certificate stops a solve do not depend on the basis.  ``hu_t`` on either
side solves these rows projected onto x -> L_x (or R_x) in n unknowns, with
``known=hu_n(a, side)`` once the operators of hu_n pass the direct triple
scan.  With a left unity e every twist is alpha = L_{alpha(e)}
(R_{alpha(f)} at a right unity f), so the twist space is the image of that
kernel; without a unity the rows are solved in the n^2 twist entries.  Only
``twist_space`` asks whether a unity exists.  Every meet (and two-sided
``hu_n``) is one stacked solve, and a test that an operator is injective is
one packed modular rank pass (``linalg.is_injective``; for L_x and R_x,
``Algebra.op_is_injective``, which builds no matrix).  ``ac_l_subspace`` is
defined by a(xy) = x(ay) and (ax)(yz) = a((xy)z); the first on the pair
(xy, z) gives a((xy)z) = (xy)(az), so given the first the second says that
L_a is a twist: the space is one solve over the complement rows of
``hu_t(a, "left")`` and the rows of the first identity, whose sparse blocks
``_op_family`` builds (faster than dense ``combine`` plus ``vec_sub``).
Basis-triple scans read the table of nonzero basis associators
``Algebra.associators``; that table, the hom-associativity witness and the
relation row ``m2`` all come from ``algebra.triple_defects``.  Right-sided
results are solved on the algebra itself with ``side="right"``: an algebra
and its opposite have the same twist space, since (xy)alpha(z) =
alpha(x)(yz) on (x, y, z) is the opposite's identity on (z, y, x), and R_x
is L_x of the opposite.  The solvers returning a subspace are memoized per
algebra value in bounded lru caches, so each result must stay immutable: a
Subspace or Matrix by convention, the records ``TwistSpace`` and
``AcOneSided`` (``algebra.FrozenRecord``) by a ``__setattr__`` that raises;
the relation rows as a tuple of pairs.  Nothing returning an Algebra is
cached, because Algebra equality ignores the basis labels, except
``_opposite``, whose only reader, the relation tables, reads none.  A unity
passed in by a caller is checked by membership in the memoized
``find_unities`` set of its side, on every call.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from itertools import chain, islice, product

from homalg.algebra import Algebra, FrozenRecord, HomAlgebra, Record, max_dim, triple_defects
from homalg.algebra import is_idempotent_elem, is_idempotent_map, twisted_ops
from homalg.constructions import ac_unitalized_by_eigenspaces, opposite
from homalg.errors import (
    InternalCheckFailure,
    NotTwoSidedUnital,
    NotUnitalOnSide,
    PreconditionViolated,
    SearchSpaceTooLarge,
    UnsupportedDimensionOverQ,
)
from homalg.linalg import (
    Matrix,
    NullspaceSolver,
    Subspace,
    as_fractions,
    combine,
    is_direct_sum,
    is_injective,
    meet,
    nullspace,
    projective_key,
    reduced,
    solve_affine,
    sparse_columns,
    sparse_entries,
    unflatten_matrix,
    vec_add,
    vec_is_zero,
)
from homalg import subspaces as sub

_DOMAIN_SAMPLE_SEED = 0x5EED
_DOMAIN_SAMPLES = 32
_TRIPLE_ORDER_SEED = 0x7315


# -- twist space -----------------------------------------------------------------


class TwistSpace(FrozenRecord):
    """All linear maps making the product hom-associative, as a canonical
    subspace of the flattened (row-major) map space plus unflattened basis."""

    __slots__ = ("algebra", "space", "maps")

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains_map(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())


def _triple_order(n: int):
    """The n^3 basis triples (i, j, k) in one fixed order that does not follow
    the basis: a forward Fisher-Yates shuffle seeded by a constant, drawn
    lazily, so a solve that stops early draws no further."""
    order = array("l", range(n**3))  # no int object per triple
    draw = random.Random(_TRIPLE_ORDER_SEED).randrange
    nn = n * n
    for s in range(len(order)):
        r = draw(s, len(order))
        t, order[r] = order[r], order[s]  # position s is never read again
        i, rest = divmod(t, nn)
        yield (i,) + divmod(rest, n)


def _product_rows(f, n: int, table, prod, cache: dict) -> tuple:
    """The sum c op_t over the terms (t, c) of a product, op_t the operator
    with sparse columns ``table[t]``, as sparse rows: row m the (q, v) pairs
    of its nonzero entries, ascending in q, with no n x n accumulator.  Kept
    in ``cache`` under ``prod``, so equal products are combined once."""
    rows = cache.get(prod)
    if rows is None:
        acc = [{} for _ in range(n)]
        for q in range(n):
            for t, c in prod:
                for m, v in table[t][q]:
                    row = acc[m]
                    row[q] = row[q] + c * v if q in row else c * v
        p = f.char
        if p:
            for row in acc:
                for q in row:
                    row[q] %= p
        rows = cache[prod] = tuple(tuple(e for e in r.items() if e[1]) for r in acc)
    return rows


def _twist_rows(a: Algebra):
    """The sparse rows of the twist system over the flattened alpha: for each
    basis triple in ``_triple_order``, the n rows (one per coordinate m) of
    (e_i e_j) alpha(e_k) - alpha(e_i)(e_j e_k) = 0."""
    n = a.dim
    f = a.field
    terms = a.terms
    left, right = twisted_ops(a)
    lrows, rrows = {}, {}  # L_{e_i e_j} and R_{e_j e_k}, kept for this solve
    for i, j, k in _triple_order(n):
        lu = _product_rows(f, n, left, terms[i][j], lrows)
        rv = _product_rows(f, n, right, terms[j][k], rrows)
        for m in range(n):
            pairs = [(q * n + k, v) for q, v in lu[m]]
            pairs += [(q * n + i, f.neg(w)) for q, w in rv[m]]
            if pairs:
                yield pairs


def _op_space(a: Algebra, side: str, space: Subspace) -> Subspace:
    """The span of the flattened L_b (``side`` "left") or R_b, b over the
    basis of ``space``: its image under x -> L_x (or R_x)."""
    op = a.left_op if side == "left" else a.right_op
    return Subspace.from_rows(a.field, a.dim * a.dim, [op(b).flatten() for b in space.basis.rows])


@lru_cache(maxsize=8)
def _scanned_maps(a: Algebra, space: Subspace):
    """The canonical basis maps of ``space``, or None if one fails the direct
    triple scan (the independent oracle).  Memoized, so maps that certified a
    known ``hu_t`` kernel are not scanned again as the twist space's basis or
    by the audit's hu_t member check."""
    maps = tuple(unflatten_matrix(a.field, a.dim, row) for row in space.basis.rows)
    return maps if all(HomAlgebra(a, m).is_hom_associative() for m in maps) else None


@lru_cache(maxsize=32)
def twist_space(a: Algebra) -> TwistSpace:
    """Kernel, over the n^2 twist entries, of the n^4 hom-associativity
    equations (e_i e_j) alpha(e_k) = alpha(e_i) (e_j e_k) on basis triples.
    With a left unity e every twist is L_{alpha(e)} (R_{alpha(f)} at a right
    unity f), so this is the image of ``hu_t`` on that side under x -> L_x
    (or R_x); without a unity, ``_twist_rows`` feed one solve until full
    rank.  Every basis map then passes the direct triple scan (independent
    oracle).  On 16 bases the sedenions reach full rank after 4 to 12
    triples; the quaternions stop at hu_n after 4 of their 64."""
    n = a.dim
    for side in ("left", "right"):
        if not sub.find_unities(a, side).is_empty:
            space = _op_space(a, side, hu_t(a, side))
            break
    else:
        solver = NullspaceSolver(a.field, n * n)
        for pairs in _twist_rows(a):
            solver.add_sparse(pairs)
            if solver.full_rank:
                break
        space = solver.solve()
    maps = _scanned_maps(a, space)
    if maps is None:
        raise InternalCheckFailure("twist-space basis map failed the direct scan")
    return TwistSpace(a, space, maps)


@lru_cache(maxsize=32)
def hu_t(a: Algebra, side: str = "left") -> Subspace:
    """Multipliers whose one-sided multiplication operator is a twist making
    the product hom-associative: the rows of ``_twist_rows`` on alpha = L_x
    (or R_x), solved in the n unknowns x, a row w over the flattened maps read
    as sum_s x_s <w, L_{e_s}>.  That is the defining system of hu_t, with or
    without a unity.  hu_n(a, side) is the ``known`` kernel of
    ``linalg.nullspace`` once the basis maps of its operators pass the direct
    triple scan."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    n = a.dim
    f = a.field
    left, right = twisted_ops(a)
    # op_of[q * n + t]: the (s, c) with c entry (q, t) of L_{e_s} (or R_{e_s})
    op_of = [[] for _ in range(n * n)]
    for s, cols in enumerate(left if side == "left" else right):
        for t, col in enumerate(cols):
            for q, c in col:
                op_of[q * n + t].append((s, c))
    hu = hu_n(a, side)
    known = hu if _scanned_maps(a, _op_space(a, side, hu)) is not None else None
    return nullspace(f, n, (combine(f, n, op_of, w) for w in _twist_rows(a)), known=known)


# -- operator-product families (assembly helpers) -----------------------------------


@lru_cache(maxsize=1)
def _op_family(a: Algebra):
    """``block(i, j)``: the n dense rows of x(e_i e_j) = e_i(x e_j) in x, entry
    (m, s) the e_m coefficient of e_s (e_i e_j) - e_i (e_s e_j), built from
    ``Algebra.terms`` on each call for ``_multiplier_space`` and kept by
    nobody: native sums of raw products, each entry reduced once
    (``linalg.reduced``).  Only this closure is cached; the lru_cache stays
    so that the clearable-cache contract (``perfbench/selftest.py``) still
    holds."""
    n = a.dim
    f = a.field
    terms = a.terms

    def block(i, j):
        rows = [[f.zero] * n for _ in range(n)]
        pij = terms[i][j]
        ti = terms[i]
        for s in range(n):
            ts = terms[s]
            for t, c in pij:
                for m, v in ts[t]:
                    rows[m][s] += c * v
            for t, c in ts[j]:
                for m, v in ti[t]:
                    rows[m][s] -= c * v
        return [reduced(f, row) for row in rows]

    return block


def _multiplier_space(a: Algebra, side: str) -> Subspace:
    """hu_t(a, side) cut by x(e_i e_j) = e_i(x e_j) in ``a`` (left) or its
    opposite (right): one nullspace over hu_t's complement rows and the
    ``_op_family`` blocks, each built when the solve reaches it.  A unity on
    ``side`` solves that identity, so the blocks alone never reach full rank
    and hu_t's rows go first; elsewhere the blocks go first, and hu_t is
    solved only if they leave a kernel."""
    n = a.dim
    block = _op_family(a if side == "left" else opposite(a))
    blocks = chain.from_iterable(block(i, j) for i in range(n) for j in range(n))

    def twist_rows():
        yield from hu_t(a, side).complement_rows()

    if sub.find_unities(a, side).is_empty:
        rows = chain(blocks, twist_rows())
    else:
        rows = chain(twist_rows(), blocks)
    return nullspace(a.field, n, rows)


@lru_cache(maxsize=32)
def ac_l_subspace(a: Algebra) -> Subspace:
    """Elements a with a(xy) = x(ay) (L_a commutes with every L_x) and
    (ax)(yz) = a((xy)z); defined without any unitality assumption.

    The first identity on the pair (xy, z) gives a((xy)z) = (xy)(az), so
    where it holds the second reads (ax)(yz) = (xy)(az): L_a is a twist.
    The space is therefore hu_t(a, "left") cut by the first identity, solved
    as one stacked system (``_multiplier_space``)."""
    return _multiplier_space(a, "left")


@lru_cache(maxsize=32)
def ac_r_subspace(a: Algebra) -> Subspace:
    """``ac_l_subspace(opposite(a))``, solved on ``a``: the opposite has the
    same twist space and its L_x is R_x, so its hu_t(., "left") is
    hu_t(a, "right"); only the commuting blocks are built on the opposite."""
    return _multiplier_space(a, "right")


def _fixed_part(space: Subspace, op: Matrix) -> Subspace:
    """The vectors of ``space`` that ``op`` fixes, as one nullspace over the
    complement rows of ``space`` and the rows of op - I."""
    rows = op.sub(Matrix.identity(op.field, op.nrows)).rows
    return nullspace(space.field, space.ambient_dim, chain(space.complement_rows(), rows))


class AcOneSided(FrozenRecord):
    """The Subspaces ac, ac_unit and ann of ``ac_one_sided`` on one side,
    its unity and whether ac = ac_unit + ann is direct."""

    __slots__ = ("side", "unity", "ac", "ac_unit", "ann", "split_ok")


@lru_cache(maxsize=32)
def ac_one_sided(a: Algebra, side: str = "left") -> AcOneSided:
    """The one-sided multiplier subspace, its unity-stable subalgebra (the
    image under R_u for a left unity u, under L_u for a right one), and the
    direct-sum split against the annihilator on that side.

    Raises NotUnitalOnSide without a unity on the requested side and
    InternalCheckFailure if either characterization cross-check fails.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    unities = sub.find_unities(a, side)
    if unities.is_empty:
        raise NotUnitalOnSide(f"no {side} unity")
    unity = unities.particular
    ac = (ac_l_subspace if side == "left" else ac_r_subspace)(a)
    unity_op = (a.right_op if side == "left" else a.left_op)(unity)
    ac_unit = ac.image_under(unity_op)
    if ac_unit != _fixed_part(ac, unity_op):
        raise InternalCheckFailure(
            "image under the unity differs from the unity-fixed subspace"
        )
    ann = sub.annihilator(a, Subspace.full(a.field, a.dim), side)
    split_ok = is_direct_sum(ac_unit, ann, ac)
    if not split_ok:
        raise InternalCheckFailure("split of the multiplier space failed")
    return AcOneSided(side, unity, ac, ac_unit, ann, split_ok)


@lru_cache(maxsize=32)
def hu_n(a: Algebra, variant: str = "two_sided") -> Subspace:
    """Formula-defined hom-unity subspaces (meets of center/centralizer,
    nuclei, and annihilators of the associator span).

    Two-sided: one ``nullspace``, whose kernel is the meet of its row
    families' kernels, drawn lazily until full rank: x w = 0 for the first
    associator value w, x e_b = e_b x, x w = 0 for the other values, then
    the left and middle nuclei on the blocks holding a stored associator.
    For a central x, (a, b, x) = (a, x, b) - (x, a, b) gives the right
    nucleus; so where the centralizer of the products is the center (as
    when A^2 = A) a one-sided variant is the two-sided one."""
    if variant == "two_sided":
        assoc = a.associators
        values = _first_seen(assoc.values())
        rows = chain(
            sub.operator_rows(islice(values, 1), a.right_op),
            sub.operator_rows(Subspace.full(a.field, a.dim).basis.rows, a.right_op, a.left_op),
            sub.operator_rows(values, a.right_op),
            sub.slot_rows(a, "left", _first_seen((j, k) for _, j, k in assoc)),
            sub.slot_rows(a, "middle", _first_seen((i, k) for i, _, k in assoc)),
        )
        return nullspace(a.field, a.dim, rows)
    if variant not in ("left", "right"):
        raise ValueError(f"unknown variant {variant!r}")
    products = sub.span_of(a, "products")
    if products.is_full() or sub.centralizer(a, products) == sub.center(a):
        return hu_n(a, "two_sided")
    return meet(
        sub.centralizer(a, products),
        sub.nucleus(a, variant),
        sub.nucleus(a, "middle"),
        sub.annihilator(a, sub.span_of(a, "associators"), variant),
    )


def _first_seen(items):
    """``items`` without repeats, lazily."""
    seen = set()
    return (x for x in items if not (x in seen or seen.add(x)))


def ac_two_sided(a: Algebra) -> Subspace:
    """Two-sided hom-unities inducing hom-associative structures: the meet of
    center, nucleus, and the left annihilator of the associator span.

    Cross-checked on the fly against the unity image of the twist space
    (the two must agree; disagreement raises InternalCheckFailure).
    """
    unities = sub.find_unities(a, "two_sided")
    if unities.is_empty:
        raise NotTwoSidedUnital("no two-sided unity")
    unity = unities.particular
    formula = hu_n(a, "two_sided")
    ts = twist_space(a)
    image = Subspace.from_rows(
        a.field, a.dim, [m.apply(unity) for m in ts.maps]
    )
    if image != formula:
        raise InternalCheckFailure(
            "twist-space unity image disagrees with the subspace formula"
        )
    return formula


# -- reports -------------------------------------------------------------------------


def multiplicativity_report(h: HomAlgebra, unity, side: str = "left") -> dict:
    """Evaluates the four equivalent conditions for a unital hom-associative
    algebra: twist multiplicative, twist idempotent, twist^2(1) = twist(1),
    twist(1) idempotent.  They must agree; disagreement is a bug."""
    wit = h.hom_associativity_witness()
    if wit is not None:
        raise PreconditionViolated(f"not hom-associative, witness triple {wit}")
    a = h.base
    if not sub.find_unities(a, side).contains(unity):
        raise PreconditionViolated(f"not a {side} unity: {as_fractions(a.field, unity)}")
    tw = h.twist
    al = tw.apply(unity)
    conditions = {
        "twist_multiplicative": h.is_multiplicative(),
        "twist_idempotent": is_idempotent_map(tw),
        "twist_fixes_unity_image": tw.apply(al) == al,
        "unity_image_idempotent": is_idempotent_elem(a, al),
    }
    values = set(conditions.values())
    if len(values) != 1:
        raise InternalCheckFailure(f"equivalence broke: {conditions}")
    report = {
        "side": side,
        "conditions": conditions,
        "all_hold": conditions["twist_multiplicative"],
    }
    if report["all_hold"]:
        # a multiplicative unital twist that is injective, or whose image
        # contains the unity, forces plain associativity
        injective = is_injective(tw)
        unity_in_image = not solve_affine(tw, tuple(unity)).is_empty
        report["forces_associativity"] = injective or unity_in_image
        if report["forces_associativity"] and not a.is_associative():
            raise InternalCheckFailure(
                "multiplicative twist with injectivity or a reachable unity "
                "on a non-associative product"
            )
    return report


@lru_cache(maxsize=8)
def _opposite(a: Algebra) -> Algebra:
    """``constructions.opposite``, built once per algebra value for the
    right-side relation tables, which read no basis label."""
    return opposite(a)


def relation_tables_check(h: HomAlgebra, unity, side: str = "left") -> dict:
    """Verifies every product relation of a one-sided unital hom-associative
    algebra on basis elements, the multiplier-element relations, and the
    associator transport identity.  Keys are side-relative: for the right
    side the same identities are checked on the opposite algebra, which for
    a commutative algebra is the algebra itself.  The preconditions are
    checked on every call; the rows are ``_relation_rows``, memoized."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if side == "right":
        h = HomAlgebra(_opposite(h.base), h.twist)
    wit = h.hom_associativity_witness()
    if wit is not None:
        raise PreconditionViolated(f"not hom-associative, witness triple {wit}")
    a = h.base
    if not sub.find_unities(a, "left").contains(unity):
        raise PreconditionViolated(f"not a left unity: {as_fractions(a.field, unity)}")
    two_sided, rows = _relation_rows(h, tuple(unity))
    rows = dict(rows)
    return {
        "side": side,
        "two_sided_rows_included": two_sided,
        "rows": rows,
        "all_pass": all(rows.values()),
    }


@lru_cache(maxsize=32)
def _relation_rows(h: HomAlgebra, one: tuple):
    """``(two_sided_rows_included, ((row name, holds), ...))``: the left-side
    relation rows of ``relation_tables_check`` for a hom-associative ``h``
    and a left unity ``one`` of its base, memoized per value."""
    a = h.base
    f = a.field
    n = a.dim
    tw = h.twist
    al = tw.apply(one)
    basis = a.basis_elements()
    idx = range(n)
    pairs = list(product(idx, repeat=2))
    mul = a.multiply_unchecked
    terms = a.terms
    assoc = a.associators
    zero = a.zero()
    cols = sparse_columns(tw)

    def alpha(v):
        return combine(f, n, cols, sparse_entries(v))

    timg = [alpha(x) for x in basis]
    xone = [mul(x, one) for x in basis]
    inverse_pairs = [(i, j) for i, j in pairs if mul(basis[i], basis[j]) == one]

    rows = {}
    rows["alpha_shift"] = all(
        mul(timg[i], basis[j]) == mul(xone[i], timg[j]) for i, j in pairs
    )
    rows["alpha_absorb"] = all(
        combine(f, n, cols, terms[i][j]) == mul(basis[i], timg[j]) for i, j in pairs
    )
    rows["alpha_unit_image"] = all(
        mul(timg[i], one) == mul(xone[i], al) for i in idx
    )
    rows["alpha_pointwise_left_mult"] = all(
        timg[i] == mul(al, basis[i]) for i in idx
    )
    rows["alpha_operator_left_mult"] = tw == a.left_op(al)
    rows["alpha_inverse_pairs"] = all(
        mul(basis[i], timg[j]) == al for i, j in inverse_pairs
    )
    rows["alpha_unit_commutes"] = mul(one, al) == al == mul(al, one)
    # both sides from the basis associators: (x, y, alpha(z)) is the sum of
    # alpha_{mk} (x, y, e_m), since the associator is linear in z
    assoc_cols = {
        (i, j): [sparse_entries(assoc.get((i, j, m), zero)) for m in idx]
        for i, j in pairs
    }
    rows["transport"] = all(
        combine(f, n, assoc_cols[i, j], cols[k]) == alpha(assoc.get((i, j, k), zero))
        for i, j, k in product(idx, repeat=3)
    )
    if is_injective(tw):
        # injective twists preserve the right nucleus both ways
        nr = sub.nucleus(a, "right")
        twt = tw.transpose()  # row w^T tw is twt applied to w
        pulled = (twt.apply(w) for w in nr.complement_rows())
        rows["transport_nucleus_injective"] = nullspace(f, n, pulled) == nr

    aa = al
    ax = [mul(aa, x) for x in basis]  # L_aa e_i
    aprods = [[mul(aa, p) for p in line] for line in a.products]  # aa (e_i e_j)
    rows["m1_left_ops_commute"] = all(
        aprods[i][j] == mul(basis[i], ax[j]) for i, j in pairs
    )
    # (aa e_i)(e_j e_k) from the columns of L_{aa e_i}; aa((e_i e_j) e_k)
    # as the sum of aa (e_m e_k) over the terms of e_i e_j
    ax_cols = [a.op_columns(v) for v in ax]
    aprod_cols = [[sparse_entries(aprods[m][k]) for m in idx] for k in idx]
    rows["m2_product_reassociates"] = (
        next(triple_defects(f, n, terms, ax_cols, aprod_cols), None) is None
    )
    aa1 = mul(aa, one)
    rows["m3_unit_image_multiplies_alike"] = all(
        mul(aa1, x) == ax[i] for i, x in enumerate(basis)
    )
    rows["m4_unit_image_stable"] = mul(aa1, one) == aa1
    rows["m5_right_unit_swap"] = all(
        mul(aa, xone[i]) == mul(basis[i], aa1) for i in idx
    )
    rows["m6_reassociate_via_right_ops"] = rows["m2_product_reassociates"]
    rows["m7_right_unit_commutes"] = all(
        mul(ax[i], one) == mul(aa, xone[i]) for i in idx
    )
    rows["m8_right_mult_by_image"] = all(
        mul(basis[i], aa1) == mul(xone[i], aa1) == mul(aa, xone[i]) for i in idx
    )

    b = aa1
    rows["u1_absorbs_right_unit"] = all(
        mul(b, xone[i]) == mul(basis[i], b) for i in idx
    )
    rows["u2_commutes_with_unit_image"] = all(
        mul(b, xone[i]) == mul(xone[i], b) for i in idx
    )
    rows["u3_pseudo_commutation"] = all(
        mul(mul(b, basis[i]), one) == mul(xone[i], b) for i in idx
    )
    rows["u4_right_mult_ignores_unit"] = all(
        mul(basis[i], b) == mul(xone[i], b) for i in idx
    )
    rows["u5_left_associates"] = all(
        vec_is_zero(a.associator(b, b, x)) for x in basis
    )
    rows["u6_middle_associates"] = all(
        vec_is_zero(a.associator(b, x, b)) for x in basis
    )
    rows["u7_right_associates"] = all(
        vec_is_zero(a.associator(x, b, b)) for x in basis
    )

    two_sided = not sub.find_unities(a, "two_sided").is_empty
    if two_sided:
        rows["ts_swap"] = all(
            mul(basis[i], timg[j]) == mul(timg[i], basis[j]) for i, j in pairs
        )
        rows["ts_absorb"] = all(
            mul(basis[i], timg[j])
            == combine(f, n, cols, terms[i][j])
            == mul(timg[i], basis[j])
            for i, j in pairs
        )
        rows["ts_unit"] = all(
            mul(al, basis[i]) == timg[i] == mul(basis[i], al) for i in idx
        )
        rows["ts_operator"] = a.left_op(al) == tw == a.right_op(al)
        rows["ts_inverse_pairs"] = all(
            mul(basis[i], timg[j]) == al == mul(timg[i], basis[j])
            for i, j in inverse_pairs
        )
        # quadratic identity: basis plus pairwise sums polarize it exactly
        sq_args = list(basis) + [
            vec_add(f, basis[i], basis[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        rows["ts_square"] = all(
            mul(x, alpha(x)) == alpha(mul(x, x)) == mul(alpha(x), x)
            for x in sq_args
        )
    return two_sided, tuple(rows.items())


def bijection_report(a: Algebra, side: str = "left") -> dict:
    """Verifies the correspondence between twist maps and unity-stable
    multipliers on a one-sided unital algebra, through the multiplication
    operator on that side (L_b for left, R_b for right):

    - dimension equality and the mutually inverse unit-evaluation /
      multiplication-operator maps on bases,
    - every multiplier induces a hom-associative structure,
    - idempotent multipliers correspond exactly to multiplicative twists,
    - in the associative case the center embeds into the multiplier space.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    op = a.left_op if side == "left" else a.right_op
    acs = ac_one_sided(a, side)
    ts = twist_space(a)
    unity = acs.unity
    f = a.field

    dims_equal = ts.dim == acs.ac_unit.dim
    psi_phi = all(
        acs.ac_unit.contains(m.apply(unity)) and op(m.apply(unity)) == m
        for m in ts.maps
    )
    phi_psi = all(
        ts.contains_map(op(b)) and op(b).apply(unity) == tuple(b)
        for b in acs.ac_unit.basis.rows
    )
    compat = all(
        HomAlgebra(a, op(b)).is_hom_associative()
        for b in acs.ac.basis.rows
    )

    idem: dict = {"status": "ok"}
    try:
        idems = sub.idempotents(a, acs.ac_unit)
        forward = all(
            HomAlgebra(a, op(e)).is_multiplicative() for e in idems
        )
        candidates = list(acs.ac_unit.basis.rows)
        rows = acs.ac_unit.basis.rows
        candidates += [
            vec_add(f, rows[i], rows[j])
            for i in range(len(rows))
            for j in range(i, len(rows))
        ]
        backward = all(
            HomAlgebra(a, op(c)).is_multiplicative()
            == is_idempotent_elem(a, c)
            for c in candidates
        )
        idem.update(
            idempotents=[tuple(e) for e in idems],
            forward_multiplicative=forward,
            backward_matches=backward,
            ok=forward and backward,
        )
    except (SearchSpaceTooLarge, UnsupportedDimensionOverQ) as exc:
        idem = {"status": "skipped", "reason": str(exc), "ok": True}

    assoc_case: dict = {"applicable": a.is_associative()}
    if assoc_case["applicable"]:
        assoc_case["center_in_ac"] = acs.ac.contains_subspace(sub.center(a))
    ok = (
        dims_equal
        and psi_phi
        and phi_psi
        and compat
        and idem.get("ok", True)
        and assoc_case.get("center_in_ac", True)
    )
    return {
        "side": side,
        "dim_twist": ts.dim,
        "dim_ac_unit": acs.ac_unit.dim,
        "dims_equal": dims_equal,
        "unit_evaluation_inverse": psi_phi,
        "multiplication_inverse": phi_psi,
        "all_multipliers_compatible": compat,
        "idempotent_correspondence": idem,
        "associative_case": assoc_case,
        "ok": ok,
    }


# -- the audit ---------------------------------------------------------------------


class Check(Record):
    __slots__ = ("name", "status", "detail")  # status: pass | fail | skipped | flagged

    def __init__(self, name, status, detail=""):  # plain stores: one per audit check
        self.name, self.status, self.detail = name, status, detail


class _CheckList(list):
    """The audit's check sink: appends one Check per theorem outcome."""

    def record(self, name, cond, detail=""):
        self.append(Check(name, "pass" if cond else "fail", detail))

    def skip(self, name, detail=""):
        self.append(Check(name, "skipped", detail))

    def flagged(self, name, cond, detail=""):
        self.append(Check(name, "pass" if cond else "flagged", detail))


class HomStructureReport(Record):
    """The audit of ``structure_theorem_audit``; ``ac_left`` and ``ac_right``
    are None on a side without a unity."""

    __slots__ = (
        "algebra", "flags", "unities", "spaces", "twist", "ac_left", "ac_right", "checks"
    )
    _defaults = (list,)

    def ok(self) -> bool:
        return not any(c.status == "fail" for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def check_map(self) -> dict:
        return {c.name: c.status for c in self.checks}


def domain_certificate(a: Algebra):
    """('domain (sampled)', None) when every tested nonzero element has
    injective multiplication operators on both sides; exact witness otherwise.
    Tested: all basis vectors plus seeded random nonzero combinations, each
    projective class once, at its first occurrence (L_cx = c L_x, so the
    verdict and the witness are those of the full list).  Each operator is
    decided by ``Algebra.op_is_injective``, one packed modular rank pass over
    its columns that builds no matrix; only over Q, and only when the
    certificate prime divides a minor, does a kernel solve decide instead."""
    n = a.dim
    candidates = [a.basis(i) for i in range(n)]
    rng = random.Random(_DOMAIN_SAMPLE_SEED)
    pool = [-2, -1, 1, 2, 0]
    for _ in range(_DOMAIN_SAMPLES):
        v = tuple(a.field.from_int(rng.choice(pool)) for _ in range(n))
        if not vec_is_zero(v):
            candidates.append(v)
    seen = set()
    for x in candidates:
        key = projective_key(a.field, x)
        if key in seen:
            continue
        seen.add(key)
        if not a.op_is_injective(x, "left") or not a.op_is_injective(x, "right"):
            return "not a domain (witness)", x
    return "domain (sampled)", None


def structure_theorem_audit(a: Algebra, unitalize_limit: int = 8) -> HomStructureReport:
    """Computes every subspace of the report and checks all applicable
    structure theorems; inapplicable checks are reported as skipped."""
    f = a.field
    n = a.dim
    checks = _CheckList()
    record, skip = checks.record, checks.skip

    commutative = a.is_commutative()
    associative = a.is_associative()
    skew = a.is_skew_symmetric()
    domain_status, domain_witness = domain_certificate(a)
    flags = {
        "commutative": commutative,
        "associative": associative,
        "skew_symmetric": skew,
        "zero_product": a.is_zero_algebra(),
        "domain": domain_status,
    }

    uni_l = sub.find_unities(a, "left")
    uni_r = sub.find_unities(a, "right")
    uni_2 = sub.find_unities(a, "two_sided")
    unities = {"left": uni_l, "right": uni_r, "two_sided": uni_2}

    full = Subspace.full(f, n)
    assoc_span = sub.span_of(a, "associators")
    prod_span = sub.span_of(a, "products")
    spaces = {
        "center": sub.center(a),
        "nucleus": sub.nucleus(a, "full"),
        "nucleus_left": sub.nucleus(a, "left"),
        "nucleus_middle": sub.nucleus(a, "middle"),
        "nucleus_right": sub.nucleus(a, "right"),
        "ann_left": sub.annihilator(a, full, "left"),
        "ann_right": sub.annihilator(a, full, "right"),
        "ann_both": sub.annihilator(a, full, "both"),
        "product_span": prod_span,
        "commutator_span": sub.span_of(a, "commutators"),
        "associator_span": assoc_span,
        "hu_t_left": hu_t(a, "left"),
        "hu_t_right": hu_t(a, "right"),
        "hu_n": hu_n(a, "two_sided"),
        "hu_n_left": hu_n(a, "left"),
        "hu_n_right": hu_n(a, "right"),
        "ac_l_space": ac_l_subspace(a),
        "ac_r_space": ac_r_subspace(a),
    }
    ts = twist_space(a)

    # center of the product span used by several equality conditions
    central_products = sub.centralizer(a, prod_span)

    # universal subspace containments
    record("hu_n_in_hu_t_left", spaces["hu_t_left"].contains_subspace(spaces["hu_n"]))
    record("hu_n_in_hu_t_right", spaces["hu_t_right"].contains_subspace(spaces["hu_n"]))
    record(
        "hu_n_left_in_hu_t_left",
        spaces["hu_t_left"].contains_subspace(spaces["hu_n_left"]),
    )
    record(
        "hu_n_right_in_hu_t_right",
        spaces["hu_t_right"].contains_subspace(spaces["hu_n_right"]),
    )
    both_sided = meet(spaces["hu_n_left"], spaces["hu_n_right"])
    record("hu_n_in_one_sided_meet", both_sided.contains_subspace(spaces["hu_n"]))
    if central_products == spaces["center"]:
        record("hu_n_equals_one_sided_meet", spaces["hu_n"] == both_sided)
    else:
        skip("hu_n_equals_one_sided_meet", "product centralizer exceeds the center")

    # whether the formula subspaces capture every multiplier twist is open in
    # the non-unital case; witnesses are reported, nothing is asserted
    for side_name in ("left", "right"):
        gap = [
            v
            for v in spaces[f"hu_t_{side_name}"].basis.rows
            if not spaces[f"hu_n_{side_name}"].contains(v)
        ]
        if gap:
            skip(
                f"hu_t_{side_name}_exceeds_hu_n_{side_name}",
                f"witness multiplier {as_fractions(a.field, list(gap[0]))}",
            )

    zn = sub.center_and_nucleus(a)
    hu = spaces["hu_n"]
    ideal_ok = all(
        hu.contains(a.multiply(z, h)) and hu.contains(a.multiply(h, z))
        for z in zn.basis.rows
        for h in hu.basis.rows
    )
    record("hu_n_ideal_in_center_nucleus", ideal_ok)
    record(
        "hu_n_subalgebra",
        all(
            hu.contains(a.multiply(x, y))
            for x in hu.basis.rows
            for y in hu.basis.rows
        ),
    )
    record(
        "center_in_product_centralizer",
        central_products.contains_subspace(spaces["center"]),
    )
    record(
        "hu_n_full_iff_commutative_associative",
        hu.is_full() == (commutative and associative),
    )

    # two-pass twist oracle: basis maps were re-checked at construction;
    # one ray outside the space must fail
    ray = _complement_ray(ts.space)
    if ray is None:
        skip("twist_complement_ray_fails", "twist space is the full map space")
    else:
        record(
            "twist_complement_ray_fails",
            not HomAlgebra(a, unflatten_matrix(f, n, ray)).is_hom_associative(),
        )
    for side_name, space in (("left", spaces["hu_t_left"]), ("right", spaces["hu_t_right"])):
        op = a.left_op if side_name == "left" else a.right_op
        record(
            f"hu_t_{side_name}_members_compatible",
            _scanned_maps(a, _op_space(a, side_name, space)) is not None,
        )
        ray_v = _complement_ray(space)
        if ray_v is None:
            skip(f"hu_t_{side_name}_complement_fails", "full space")
        else:
            record(
                f"hu_t_{side_name}_complement_fails",
                not HomAlgebra(a, op(ray_v)).is_hom_associative(),
            )

    # unity bookkeeping
    if not uni_l.is_empty:
        record("left_unity_direction_is_ann_left", uni_l.direction == spaces["ann_left"])
    if not uni_r.is_empty:
        record("right_unity_direction_is_ann_right", uni_r.direction == spaces["ann_right"])
    if not uni_l.is_empty and not uni_r.is_empty:
        record(
            "one_sided_unities_merge",
            uni_l.is_singleton()
            and uni_r.is_singleton()
            and uni_l.particular == uni_r.particular,
        )

    # skew-symmetric center/annihilator collapse (characteristic != 2)
    if skew and f.char != 2:
        record("skew_center_is_annihilator", spaces["center"] == spaces["ann_both"])
    elif skew:
        skip("skew_center_is_annihilator", "characteristic 2")

    # commutative algebras are flexible (basis-polarized quadratic identity)
    if commutative:
        record("commutative_flexible", _flexible_on_basis(a))

    # regular associators: scan the span basis and, at small dimension, the
    # basis-triple associator values themselves (regularity does not survive
    # row reduction, so span rows alone can miss a regular value); each side
    # is solved only where a unity reads it, R_x for a left one, L_x for a right
    assoc_candidates = list(assoc_span.basis.rows)
    if n <= 6:
        listed = set(assoc_candidates)
        values = dict.fromkeys(a.associators.values())
        assoc_candidates += [v for v in values if v not in listed]
    right_regular_assoc = not uni_l.is_empty and any(
        a.op_is_injective(x, "right") for x in assoc_candidates
    )
    left_regular_assoc = not uni_r.is_empty and any(
        a.op_is_injective(x, "left") for x in assoc_candidates
    )

    ac_left = ac_right = None
    if not uni_l.is_empty:
        ac_left = _audit_one_side(a, "left", flags, right_regular_assoc, checks)
    if not uni_r.is_empty:
        ac_right = _audit_one_side(a, "right", flags, left_regular_assoc, checks)

    if not uni_l.is_empty or not uni_r.is_empty:
        record(
            "ac_is_meet_of_one_sided",
            hu == meet(spaces["ac_l_space"], spaces["ac_r_space"]),
        )

    if not uni_2.is_empty:
        try:
            ac = ac_two_sided(a)
            record("ac_formula_matches_twist_image", True)
        except InternalCheckFailure as exc:
            ac = hu
            record("ac_formula_matches_twist_image", False, str(exc))
        record("ac_equals_hu_n_two_sided", ac == hu)
        record(
            "hu_t_collapse_two_sided",
            spaces["hu_t_left"] == hu and spaces["hu_t_right"] == hu,
        )
        if not associative:
            record(
                "no_injective_twist_on_unital_nonassociative",
                not any(is_injective(m) for m in ts.maps),
            )
            if right_regular_assoc or left_regular_assoc:
                record("regular_associator_kills_ac", ac.is_zero())

    # associative algebras with a trivial one-sided annihilator: the two-sided
    # multiplier set (meet of the one-sided ones) collapses onto the center
    if associative and (spaces["ann_left"].is_zero() or spaces["ann_right"].is_zero()):
        record(
            "associative_regular_hu_collapse",
            meet(spaces["hu_t_left"], spaces["hu_t_right"]) == spaces["center"]
            and hu == spaces["center"],
        )

    # unitalization cross-check (on the dimension n + 1 unitalization)
    if n > unitalize_limit:
        skip("unitalization_eigenspace_route", f"dim {n} above limit {unitalize_limit}")
    elif n + 1 > max_dim():
        skip(
            "unitalization_eigenspace_route",
            f"unitalization dim {n + 1} exceeds HOMALG_MAX_DIM={max_dim()}",
        )
    else:
        try:
            ac_unitalized_by_eigenspaces(a)
            record("unitalization_eigenspace_route", True)
        except InternalCheckFailure as exc:
            record("unitalization_eigenspace_route", False, str(exc))

    return HomStructureReport(
        algebra=a,
        flags=flags,
        unities=unities,
        spaces=spaces,
        twist=ts,
        ac_left=ac_left,
        ac_right=ac_right,
        checks=list(checks),
    )


def _audit_one_side(a, side, flags, regular_assoc, checks):
    """Single-side structure theorems; returns the AcOneSided result.  The
    subspaces come from the memoized solvers the audit already called."""
    record = checks.record
    try:
        acs = ac_one_sided(a, side)
        record(f"ac_{side}_consistency", True)
    except InternalCheckFailure as exc:
        record(f"ac_{side}_consistency", False, str(exc))
        return None
    center = sub.center(a)
    hu_side = hu_n(a, side)
    record(f"split_{side}", acs.split_ok)
    record(
        f"split_{side}_equality_iff_trivial_annihilator",
        (acs.ac_unit == acs.ac) == acs.ann.is_zero(),
    )
    record(f"hu_n_{side}_in_ac_unit", acs.ac_unit.contains_subspace(hu_side))

    unit_rows = acs.ac_unit.basis.rows
    mul = a.multiply
    closed = all(
        acs.ac_unit.contains(mul(x, y)) for x in unit_rows for y in unit_rows
    )
    record(f"ac_unit_{side}_closed", closed)
    record(
        f"ac_unit_{side}_commutative",
        all(mul(x, y) == mul(y, x) for x in unit_rows for y in unit_rows),
    )
    record(
        f"ac_unit_{side}_associative",
        all(
            vec_is_zero(a.associator(x, y, z))
            for x in unit_rows
            for y in unit_rows
            for z in unit_rows
        ),
    )
    ann_of_assoc = sub.annihilator(a, sub.span_of(a, "associators"), side)
    record(
        f"ac_unit_{side}_squares_annihilate_associators",
        all(
            ann_of_assoc.contains(mul(x, y))
            for x in unit_rows
            for y in unit_rows
        ),
    )
    if regular_assoc:
        record(
            f"ac_unit_{side}_two_nilpotent",
            all(
                vec_is_zero(mul(x, y)) for x in unit_rows for y in unit_rows
            ),
        )

    rep = bijection_report(a, side)
    record(f"bijection_{side}_dims", rep["dims_equal"],
           f"twist {rep['dim_twist']} vs multipliers {rep['dim_ac_unit']}")
    record(f"bijection_{side}_mutually_inverse",
           rep["unit_evaluation_inverse"] and rep["multiplication_inverse"])
    record(f"bijection_{side}_all_multipliers_compatible",
           rep["all_multipliers_compatible"])
    if rep["idempotent_correspondence"].get("status") == "ok":
        record(f"bijection_{side}_idempotent_multiplicative", rep["idempotent_correspondence"]["ok"])
    else:
        checks.skip(f"bijection_{side}_idempotent_multiplicative", rep["idempotent_correspondence"].get("reason", ""))

    uni = sub.find_unities(a, side)
    if uni.direction.dim > 0:
        # the multiplier subalgebra genuinely depends on the unity choice
        # (the projection algebra witnesses this), but every choice gives a
        # space of the twist dimension matching its own fixed-point form
        second = vec_add(a.field, uni.particular, uni.direction.basis.rows[0])
        op = a.right_op(second) if side == "left" else a.left_op(second)
        image2 = acs.ac.image_under(op)
        record(
            f"ac_unit_{side}_second_unity_consistent",
            image2 == _fixed_part(acs.ac, op) and image2.dim == twist_space(a).dim,
        )

    associative = flags["associative"]
    if associative:
        record(f"center_in_ac_{side}", acs.ac.contains_subspace(center))
        if not sub.find_unities(a, "two_sided").is_empty:
            # associative two-sided unital: the whole ladder collapses
            record(
                f"ac_{side}_associative_two_sided_collapse",
                acs.ac == center == acs.ac_unit == hu_side,
            )
    if flags["domain"] == "domain (sampled)":
        if associative:
            checks.flagged(
                f"associative_domain_ac_{side}_is_center",
                acs.ac == center,
                "hypothesis certified by sampling only",
            )
        else:
            record(f"no_hom_structures_on_{side}_unital_domain", acs.ac_unit.is_zero())
    return acs


def _complement_ray(space: Subspace):
    """First standard basis vector outside the subspace, None when full."""
    if space.is_full():
        return None
    n = space.ambient_dim
    f = space.field
    pivset = set(space.pivots)
    for i in range(n):
        if i not in pivset:
            v = tuple(f.one if j == i else f.zero for j in range(n))
            if not space.contains(v):
                return v
    # all free coordinates lie in the space only if the space is full
    raise InternalCheckFailure("no complement ray in a proper subspace")


def _flexible_on_basis(a: Algebra) -> bool:
    """Flexibility (x y) x = x (y x), polarized over the basis."""
    table = a.associators
    zero = a.zero()
    for i, j, k in table:
        if i == k:
            return False
        if not vec_is_zero(vec_add(a.field, table[i, j, k], table.get((k, j, i), zero))):
            return False
    return True

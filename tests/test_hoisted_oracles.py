"""The hoisted oracle scans against their dense references.

``constructions.yau_criterion``, ``homstruct.relation_tables_check``,
``HomAlgebra.multiplicativity_witness``, ``leibniz.leibniz_check`` and
``leibniz.hom_lie_check`` read twisted images from tables built once,
through sparse columns.  These tests keep the dense scans they replaced,
which apply the twist with ``Matrix.apply`` and multiply with
``Algebra.multiply`` inside every pair or triple, and require the same
(holds, witness) results, the same witness pairs and the same relation rows.
"""

import pytest

from conftest import left_only_leibniz
from homalg import homstruct
from homalg import subspaces as sub
from homalg.algebra import HomAlgebra
from homalg.campaign import _twist_instances, builtin_corpus, generated_algebras
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    opposite,
    opposite_hom,
    random_algebra,
    random_linear_map,
    unitalize,
    yau_criterion,
)
from homalg.fields import GF, QQ
from homalg.leibniz import hom_lie_check, leibniz_check
from homalg.linalg import Matrix, kernel, vec_add, vec_is_zero, vec_sub


# -- dense references ---------------------------------------------------------------


def dense_yau_witness(a, alpha):
    n = a.dim
    twisted = [alpha.apply(a.basis(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            uij = alpha.apply(a.products[i][j])
            for k in range(n):
                inner = vec_sub(
                    a.field,
                    a.multiply(uij, twisted[k]),
                    a.multiply(twisted[i], alpha.apply(a.products[j][k])),
                )
                if not vec_is_zero(alpha.apply(inner)):
                    return (i, j, k)
    return None


def dense_leibniz_check(a, side, twist=None):
    n = a.dim
    f = a.field
    timg = a.basis_elements() if twist is None else [twist.apply(a.basis(i)) for i in range(n)]
    mul = a.multiply
    for i in range(n):
        x = a.basis(i)
        for j in range(n):
            for k in range(n):
                z = a.basis(k)
                if side == "left":
                    lhs = mul(timg[i], a.products[j][k])
                    rhs = vec_add(f, mul(a.products[i][j], timg[k]), mul(timg[j], mul(x, z)))
                else:
                    lhs = mul(a.products[i][j], timg[k])
                    rhs = vec_add(f, mul(mul(x, z), timg[j]), mul(timg[i], a.products[j][k]))
                if lhs != rhs:
                    return False, (i, j, k)
    return True, None


def dense_hom_lie_check(h):
    a = h.base
    f = a.field
    n = a.dim
    for i in range(n):
        if not vec_is_zero(a.products[i][i]):
            return False, ("skew_symmetry", (i, i))
        for j in range(i + 1, n):
            if not vec_is_zero(vec_add(f, a.products[i][j], a.products[j][i])):
                return False, ("skew_symmetry", (i, j))
    timg = [h.twist.apply(a.basis(i)) for i in range(n)]
    mul = a.multiply
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = vec_add(
                    f,
                    vec_add(f, mul(timg[i], a.products[j][k]), mul(timg[j], a.products[k][i])),
                    mul(timg[k], a.products[i][j]),
                )
                if not vec_is_zero(total):
                    return False, ("hom_jacobi", (i, j, k))
    return True, None


def dense_multiplicativity_witness(h):
    a, tw = h.base, h.twist
    twisted = [tw.apply(a.basis(i)) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            if tw.apply(a.products[i][j]) != a.multiply(twisted[i], twisted[j]):
                return (i, j)
    return None


def dense_relation_rows(h, unity, side):
    """The rows dict of ``relation_tables_check``, without its preconditions."""
    if side == "right":
        return dense_relation_rows(opposite_hom(h), unity, "left")
    a = h.base
    f = a.field
    n = a.dim
    tw = h.twist
    one = tuple(unity)
    al = tw.apply(one)
    basis = a.basis_elements()

    def allpairs(pred):
        return all(pred(x, y) for x in basis for y in basis)

    def alltriples(pred):
        return all(pred(x, y, z) for x in basis for y in basis for z in basis)

    mul = a.multiply
    rows = {}
    rows["alpha_shift"] = allpairs(
        lambda x, y: mul(tw.apply(x), y) == mul(mul(x, one), tw.apply(y))
    )
    rows["alpha_absorb"] = allpairs(
        lambda x, y: tw.apply(mul(x, y)) == mul(x, tw.apply(y))
    )
    rows["alpha_unit_image"] = all(
        mul(tw.apply(x), one) == mul(mul(x, one), al) for x in basis
    )
    rows["alpha_pointwise_left_mult"] = all(tw.apply(x) == mul(al, x) for x in basis)
    rows["alpha_operator_left_mult"] = tw == a.left_op(al)
    rows["alpha_inverse_pairs"] = all(
        mul(x, tw.apply(y)) == al for x in basis for y in basis if mul(x, y) == one
    )
    rows["alpha_unit_commutes"] = mul(one, al) == al == mul(al, one)
    rows["transport"] = alltriples(
        lambda x, y, z: a.associator(x, y, tw.apply(z))
        == tw.apply(a.associator(x, y, z))
    )
    if kernel(tw).is_zero():
        nr = sub.nucleus(a, "right")
        rows["transport_nucleus_injective"] = kernel(nr.perp().basis.matmul(tw)) == nr

    aa = al
    rows["m1_left_ops_commute"] = allpairs(
        lambda x, y: mul(aa, mul(x, y)) == mul(x, mul(aa, y))
    )
    rows["m2_product_reassociates"] = alltriples(
        lambda x, y, z: mul(mul(aa, x), mul(y, z)) == mul(aa, mul(mul(x, y), z))
    )
    aa1 = mul(aa, one)
    rows["m3_unit_image_multiplies_alike"] = all(mul(aa1, x) == mul(aa, x) for x in basis)
    rows["m4_unit_image_stable"] = mul(aa1, one) == aa1
    rows["m5_right_unit_swap"] = all(mul(aa, mul(x, one)) == mul(x, aa1) for x in basis)
    rows["m6_reassociate_via_right_ops"] = rows["m2_product_reassociates"]
    rows["m7_right_unit_commutes"] = all(
        mul(mul(aa, x), one) == mul(aa, mul(x, one)) for x in basis
    )
    rows["m8_right_mult_by_image"] = all(
        mul(x, aa1) == mul(mul(x, one), aa1) == mul(aa, mul(x, one)) for x in basis
    )

    b = aa1
    rows["u1_absorbs_right_unit"] = all(mul(b, mul(x, one)) == mul(x, b) for x in basis)
    rows["u2_commutes_with_unit_image"] = all(
        mul(b, mul(x, one)) == mul(mul(x, one), b) for x in basis
    )
    rows["u3_pseudo_commutation"] = all(
        mul(mul(b, x), one) == mul(mul(x, one), b) for x in basis
    )
    rows["u4_right_mult_ignores_unit"] = all(
        mul(x, b) == mul(mul(x, one), b) for x in basis
    )
    rows["u5_left_associates"] = all(vec_is_zero(a.associator(b, b, x)) for x in basis)
    rows["u6_middle_associates"] = all(vec_is_zero(a.associator(b, x, b)) for x in basis)
    rows["u7_right_associates"] = all(vec_is_zero(a.associator(x, b, b)) for x in basis)

    if not sub.find_unities(a, "two_sided").is_empty:
        rows["ts_swap"] = allpairs(lambda x, y: mul(x, tw.apply(y)) == mul(tw.apply(x), y))
        rows["ts_absorb"] = allpairs(
            lambda x, y: mul(x, tw.apply(y)) == tw.apply(mul(x, y)) == mul(tw.apply(x), y)
        )
        rows["ts_unit"] = all(mul(al, x) == tw.apply(x) == mul(x, al) for x in basis)
        rows["ts_operator"] = a.left_op(al) == tw == a.right_op(al)
        rows["ts_inverse_pairs"] = all(
            mul(x, tw.apply(y)) == al == mul(tw.apply(x), y)
            for x in basis
            for y in basis
            if mul(x, y) == one
        )
        sq_args = list(basis) + [
            vec_add(f, basis[i], basis[j]) for i in range(n) for j in range(i + 1, n)
        ]
        rows["ts_square"] = all(
            mul(x, tw.apply(x)) == tw.apply(mul(x, x)) == mul(tw.apply(x), x)
            for x in sq_args
        )
    return rows


# -- inputs ---------------------------------------------------------------------------


def _unities(a):
    """(side, unity) for every side on which ``a`` has a unity."""
    out = []
    for side in ("left", "right"):
        found = sub.find_unities(a, side)
        if not found.is_empty:
            out.append((side, found.particular))
    return out


def _raw_representatives(m):
    """The same map over F_p with each nonzero entry v held as v - p, a raw
    value that is not a residue."""
    p = m.field.p
    return Matrix(m.field, [[v - p if v else v for v in row] for row in m.rows])


def _corpus_cases():
    """Every campaign algebra of the builtin corpus and the first 40 seeds,
    with the twist instances the campaign checks; over F_p also each instance
    with raw non-residue entries."""
    for name, a in builtin_corpus() + generated_algebras(40):
        maps = _twist_instances(a, homstruct.twist_space(a))
        if a.field != QQ:
            maps += [_raw_representatives(m) for m in maps]
        yield name, a, maps


def _random_configs():
    """GF(2)/GF(3) random algebras of dimension 2-4 over every flag."""
    return [
        GeneratorConfig(seed=seed, dim=dim, field=GF(p), flag=flag)
        for p in (2, 3)
        for dim in (2, 3, 4)
        for flag in ("none", "left_unital", "commutative", "anticommutative")
        for seed in range(3)
    ]


def _random_maps(a, count=3):
    """Seeded random maps; the last one holds -1 as a raw entry, which is not
    a residue over F_p, so images must be compared after field arithmetic."""
    maps = [random_linear_map(a.field, a.dim, seed=101 + s) for s in range(count - 1)]
    return maps + [random_linear_map(a.field, a.dim, seed=100, pool=(-1, 0, 0, 1))]


def _unital_random_algebras():
    """Random algebras with a unity on at least one side: left-unital draws,
    their opposites (right-unital) and unitalizations (two-sided)."""
    out = []
    for cfg in _random_configs():
        a = random_algebra(cfg)
        if cfg.flag == "left_unital":
            out += [a, opposite(a)]
        if cfg.dim < 4:
            out.append(unitalize(a)[0])
    return out


# -- yau_criterion and the multiplicativity witness -------------------------------------


def test_yau_criterion_matches_dense_scan_on_the_corpus():
    checked = found = 0
    for _, a, maps in _corpus_cases():
        for m in maps + _random_maps(a, 2):
            witness = dense_yau_witness(a, m)
            assert yau_criterion(a, m) == (witness is None, witness)
            checked += 1
            found += witness is not None
    assert 0 < found < checked


def test_yau_criterion_matches_dense_scan_on_random_maps():
    checked = found = 0
    for cfg in _random_configs():
        a = random_algebra(cfg)
        maps = _random_maps(a) + [a.left_op(a.basis(s)) for s in range(a.dim)]
        for m in maps:
            expected = dense_yau_witness(a, m)
            assert yau_criterion(a, m) == (expected is None, expected)
            witness = expected
            checked += 1
            found += witness is not None
    assert 0 < found < checked


def test_multiplicativity_witness_matches_dense_scan():
    checked = found = 0
    cases = [(a, maps) for _, a, maps in _corpus_cases()]
    cases += [(a, _random_maps(a)) for a in map(random_algebra, _random_configs())]
    for a, maps in cases:
        for m in maps:
            h = HomAlgebra(a, m)
            witness = h.multiplicativity_witness()
            assert witness == dense_multiplicativity_witness(h)
            checked += 1
            found += witness is not None
    assert 0 < found < checked


# -- relation tables --------------------------------------------------------------------


def test_relation_rows_match_dense_rows_on_the_corpus():
    checked = 0
    for name, a, maps in _corpus_cases():
        for side, unity in _unities(a):
            for m in maps:
                h = HomAlgebra(a, m)
                got = homstruct.relation_tables_check(h, unity, side)
                assert got["rows"] == dense_relation_rows(h, unity, side), (name, side)
                checked += 1
    assert checked > 50


def test_relation_rows_match_dense_rows_on_random_maps(monkeypatch):
    # Random maps are rarely twists, so the hom-associativity precondition is
    # lifted here: the rows are then compared where most identities fail.
    monkeypatch.setattr(HomAlgebra, "hom_associativity_witness", lambda self: None)
    checked = differing = two_sided = 0
    for a in _unital_random_algebras():
        maps = _random_maps(a) + [a.left_op(a.basis(s)) for s in range(a.dim)]
        for side, unity in _unities(a):
            for m in maps:
                h = HomAlgebra(a, m)
                rows = homstruct.relation_tables_check(h, unity, side)["rows"]
                assert rows == dense_relation_rows(h, unity, side)
                checked += 1
                differing += not all(rows.values())
                two_sided += "ts_square" in rows
    # failing rows and the two-sided rows are both exercised
    assert 0 < differing < checked
    assert two_sided > 0


@pytest.mark.parametrize(
    "row", ["transport", "m2_product_reassociates", "alpha_absorb", "ts_absorb"]
)
def test_hoisted_rows_hold_and_fail_on_random_maps(monkeypatch, row):
    monkeypatch.setattr(HomAlgebra, "hom_associativity_witness", lambda self: None)
    outcomes = set()
    for a in _unital_random_algebras()[:30]:
        for side, unity in _unities(a):
            for m in _random_maps(a):
                h = HomAlgebra(a, m)
                rows = homstruct.relation_tables_check(h, unity, side)["rows"]
                if row in rows:
                    outcomes.add(rows[row])
    assert outcomes == {True, False}


# -- Leibniz and hom-Jacobi scans -------------------------------------------------------


def _leibniz_cases():
    """The campaign algebras of the builtin corpus and the first 40 seeds, the
    sedenions, and a bracket that is Leibniz on the left only with its
    opposite (right only), each with no twist (None), its twist-space basis
    maps, every L_{e_s} and R_{e_s} and three seeded random maps."""
    sedenions = cayley_dickson_chain(4)[4].base
    one_sided = left_only_leibniz()
    extra = [
        ("sedenions", sedenions),
        ("left_only_leibniz", one_sided),
        ("left_only_leibniz_opposite", opposite(one_sided)),
    ]
    for name, a in builtin_corpus() + generated_algebras(40) + extra:
        maps = [None, *homstruct.twist_space(a).maps]
        maps += [a.left_op(a.basis(s)) for s in range(a.dim)]
        maps += [a.right_op(a.basis(s)) for s in range(a.dim)]
        yield name, a, maps + _random_maps(a)


def test_leibniz_check_matches_dense_scan():
    # the one scan gives each side's own witness: the cases hold on one side
    # only (either one), and fail on both at the same or at different triples
    outcomes = set()
    for name, a, maps in _leibniz_cases():
        for m in maps:
            got = leibniz_check(a, m)
            assert got == tuple(
                dense_leibniz_check(a, side, m)[1] for side in ("left", "right")
            ), name
            wit_l, wit_r = got
            if None in got:
                outcomes.add((wit_l is None, wit_r is None))
            else:
                outcomes.add("same" if wit_l == wit_r else "different")
    assert outcomes == {(True, True), (True, False), (False, True), "same", "different"}


def test_hom_lie_check_matches_dense_scan():
    # no twist here is the identity twist
    outcomes = set()
    for name, a, maps in _leibniz_cases():
        for m in maps:
            h = HomAlgebra(a, Matrix.identity(a.field, a.dim) if m is None else m)
            got = hom_lie_check(h)
            assert got == dense_hom_lie_check(h), name
            outcomes.add(got[1][0] if got[1] else got[0])
    assert outcomes == {True, "skew_symmetry", "hom_jacobi"}

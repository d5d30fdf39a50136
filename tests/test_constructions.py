"""Doubling chain, unitalization, Yau twists, opposite, truncated
polynomials, and the deterministic generator."""

import random as _random
from fractions import Fraction as F
from itertools import product as iter_product

import pytest

from conftest import NIL2, qalg
from homalg.algebra import Algebra
from homalg.constructions import (
    GeneratorConfig,
    ac_unitalized_by_eigenspaces,
    base_field_algebra,
    cayley_dickson,
    cayley_dickson_chain,
    opposite,
    random_algebra,
    random_linear_map,
    truncated_poly,
    unitalize,
    yau_criterion,
    yau_twist,
)
from homalg.errors import InvariantViolation
from homalg.fields import GF, QQ
from homalg.homstruct import ac_two_sided
from homalg.linalg import Matrix, vec_add, vec_is_zero
from homalg.subspaces import center, find_unities


# -- Cayley-Dickson chain -----------------------------------------------------------


def test_complex_square(complexes):
    i = complexes.basis(1)
    assert complexes.multiply(i, i) == (F(-1), F(0))


def test_quaternion_relations(quaternions):
    h = quaternions
    one, i, j, k = (h.basis(t) for t in range(4))
    neg = lambda v: tuple(-c for c in v)
    assert h.multiply(i, i) == neg(one)
    assert h.multiply(j, j) == neg(one)
    assert h.multiply(k, k) == neg(one)
    assert h.multiply(i, j) == k
    assert h.multiply(j, i) == neg(k)
    assert h.multiply(h.multiply(i, j), k) == neg(one)


def test_chain_property_ladder(cd_chain):
    c, h, o, s = (lvl.base for lvl in cd_chain[1:])
    assert c.is_commutative() and c.is_associative()
    assert not h.is_commutative() and h.is_associative()
    assert not o.is_associative()
    assert not s.is_associative()


def _random_vectors(a, count, seed):
    rng = _random.Random(seed)
    out = []
    for _ in range(count):
        out.append(tuple(F(rng.randint(-3, 3)) for _ in range(a.dim)))
    return out


def test_octonions_alternative(octonions):
    o = octonions
    pairs = [(o.basis(i), o.basis(j)) for i in range(8) for j in range(8)]
    pairs += list(zip(_random_vectors(o, 64, 101), _random_vectors(o, 64, 202)))
    for x, y in pairs:
        assert vec_is_zero(o.associator(x, x, y))
        assert vec_is_zero(o.associator(y, x, x))


def test_sedenions_flexible(sedenions):
    s = sedenions
    pairs = [(s.basis(i), s.basis(j)) for i in range(16) for j in range(16)]
    pairs += list(zip(_random_vectors(s, 32, 303), _random_vectors(s, 32, 404)))
    for x, y in pairs:
        assert vec_is_zero(s.associator(x, y, x))


def test_sedenions_have_zero_divisors(sedenions):
    s = sedenions
    found = None
    for i in range(1, 16):
        for j in range(i + 1, 16):
            for k in range(1, 16):
                for l in range(k + 1, 16):
                    for si, sk in iter_product((1, -1), repeat=2):
                        x = vec_add(QQ, s.basis(i), tuple(F(si) * v for v in s.basis(j)))
                        y = vec_add(QQ, s.basis(k), tuple(F(sk) * v for v in s.basis(l)))
                        if vec_is_zero(s.multiply(x, y)):
                            found = (x, y)
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None, "no zero-divisor pair among two-unit sums"


def test_conjugation_is_involution_every_level(cd_chain):
    for lvl in cd_chain:
        n = lvl.base.dim
        assert lvl.conj.matmul(lvl.conj) == Matrix.identity(QQ, n)


def test_cayley_dickson_alternate_gamma():
    # gamma = +1 at the first level gives the split complexes: (0,1)^2 = +1
    split = cayley_dickson(base_field_algebra(QQ), F(1))
    e1 = split.base.basis(1)
    assert split.base.multiply(e1, e1) == (F(1), F(0))


def test_cayley_dickson_split_quaternions():
    # gammas (1, -1): associative with zero divisors, scalar multiplier line
    chain = cayley_dickson_chain(2, gammas=[F(1), F(-1)])
    a = chain[2].base
    assert a.is_associative() and not a.is_commutative()
    assert ac_two_sided(a).dim == 1
    from homalg.homstruct import domain_certificate

    status, witness = domain_certificate(a)
    assert status == "not a domain (witness)"


def test_cayley_dickson_over_f5_splits():
    # x^2 = -1 has the root 2 in F5, so the first doubling level is a split
    # pair with exactly four idempotents and a full multiplier space
    f5 = GF(5)
    chain = cayley_dickson_chain(1, field=f5)
    a = chain[1].base
    from homalg.subspaces import idempotents
    from homalg.linalg import Subspace

    assert ac_two_sided(a).is_full()
    assert len(idempotents(a, Subspace.full(f5, 2))) == 4


def test_chain_two_sided_unital(cd_chain):
    for lvl in cd_chain[1:]:
        u = find_unities(lvl.base, "two_sided")
        assert u.is_singleton()
        assert u.particular == lvl.base.basis(0)


# -- unitalization ---------------------------------------------------------------------


def test_unitalize_zero_algebra_gives_dual_numbers():
    z = qalg([[[0]]])
    bigger, emb, unity = unitalize(z)
    assert bigger.dim == 2
    assert unity == (F(0), F(1))
    e = bigger.basis(0)
    assert vec_is_zero(bigger.multiply(e, e))  # nilpotent part
    assert bigger.multiply(unity, e) == e


def test_unitalize_unity_is_unique():
    a = qalg(NIL2)
    bigger, _, unity = unitalize(a)
    u = find_unities(bigger, "two_sided")
    assert u.is_singleton()
    assert u.particular == unity


def test_unitalize_associator_transport():
    a = random_algebra(GeneratorConfig(seed=17, dim=3, field=QQ, flag="none"))
    bigger, emb, unity = unitalize(a)
    rng = _random.Random(99)
    for _ in range(12):
        xs = [tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(3)]
        lams = [F(rng.randint(-2, 2)) for _ in range(3)]
        lifted = [
            vec_add(QQ, emb.apply(x), tuple(F(0) if i < 3 else lam for i in range(4)))
            for x, lam in zip(xs, lams)
        ]
        got = bigger.associator(*lifted)
        want = tuple(a.associator(*xs)) + (F(0),)
        assert got == want


def test_unitalize_nil2_ac_full():
    a = qalg(NIL2)
    bigger, _, _ = unitalize(a)
    assert bigger.is_commutative() and bigger.is_associative()
    assert ac_two_sided(bigger).is_full()


def test_ac_unitalized_matches_direct_and_projects(nil2):
    got = ac_unitalized_by_eigenspaces(nil2)
    assert got.is_full()  # ambient dim 3


def test_ac_unitalized_associative_is_center_plus_scalar(mat2):
    got = ac_unitalized_by_eigenspaces(mat2)
    assert got.dim == center(mat2).dim + 1


def test_ac_unitalized_trivial_for_centerless_nonassociative():
    # e0 e0 = e0, e0 e1 = e1, e1 e1 = e0: non-associative with zero center
    a = qalg([[[1, 0], [0, 1]], [[0, 0], [1, 0]]])
    assert not a.is_associative()
    assert center(a).is_zero()
    assert ac_unitalized_by_eigenspaces(a).is_zero()


def test_ac_unitalized_campaign_agreement():
    for s in range(8):
        field = QQ if s % 2 == 0 else GF(2)
        a = random_algebra(GeneratorConfig(seed=900 + s, dim=3, field=field, flag="none"))
        ac_unitalized_by_eigenspaces(a)  # internal cross-checks must not raise


# -- Yau twist -------------------------------------------------------------------------


def test_yau_identity_on_associative(mat2):
    ok, wit = yau_criterion(mat2, Matrix.identity(QQ, 4))
    assert ok and wit is None
    assert yau_twist(mat2, Matrix.identity(QQ, 4)).is_hom_associative()


def test_yau_truncated_poly_left_mult():
    tp = truncated_poly(QQ, 6, with_constants=True)
    lt = tp.left_op(tp.basis(1))  # multiplication by t
    ok, _ = yau_criterion(tp, lt)
    assert ok
    assert yau_twist(tp, lt).is_hom_associative()


def test_yau_complex_conjugation(complexes):
    conj = Matrix(QQ, [[F(1), F(0)], [F(0), F(-1)]])
    ok, _ = yau_criterion(complexes, conj)
    assert ok
    tw = yau_twist(complexes, conj)
    assert tw.is_hom_associative()
    # twisted product is the conjugated product
    i = complexes.basis(1)
    assert tw.base.multiply(i, i) == (F(-1), F(0))
    assert tw.base.multiply(complexes.basis(0), i) == (F(0), F(-1))


def test_yau_criterion_seeded_agreement():
    for s in range(40):
        field = QQ if s % 2 == 0 else GF(3)
        dim = 2 + s % 3
        a = random_algebra(GeneratorConfig(seed=s, dim=dim, field=field, flag="none"))
        alpha = random_linear_map(field, dim, seed=1000 + s)
        yau_criterion(a, alpha)  # agreement enforced internally


def test_yau_twist_constants_match_the_dense_product():
    # alpha(e_i e_j) through the sparse columns of alpha equals the dense
    # Matrix.apply, over Q with non-integral constants and over F_p with
    # unreduced and negative twist entries
    cases = [
        (QQ, (F(1, 2), F(-3), F(0), F(2, 3)), (F(-1, 3), F(0), F(5, 2))),
        (GF(7), (1, 6, 0, 0), (-1, 8, 20, 0, -13)),
    ]
    for field, pool, twist_pool in cases:
        for s in range(12):
            dim = 2 + s % 3
            a = random_algebra(GeneratorConfig(seed=s, dim=dim, field=field, pool=pool))
            alpha = random_linear_map(field, dim, seed=300 + s, pool=twist_pool)
            dense = [[alpha.apply(a.products[i][j]) for j in range(dim)] for i in range(dim)]
            assert yau_twist(a, alpha).base == Algebra(field, dense, labels=a.labels)


# -- opposite --------------------------------------------------------------------------


def test_opposite_commutative_fixed():
    a = random_algebra(GeneratorConfig(seed=2, dim=3, field=QQ, flag="commutative"))
    assert opposite(a) == a


def test_opposite_involutive(proj2):
    assert opposite(opposite(proj2)) == proj2


def test_opposite_projection_right_unital(proj2):
    op = opposite(proj2)
    assert find_unities(op, "left").is_empty
    assert not find_unities(op, "right").is_empty
    # x *op y = (sum of y coordinates) x
    assert op.multiply((F(1), F(0)), (F(2), F(3))) == (F(5), F(0))


# -- truncated polynomials ----------------------------------------------------------------


def test_truncated_poly_no_constants_non_unital():
    tp = truncated_poly(QQ, 3)
    for side in ("left", "right", "two_sided"):
        assert find_unities(tp, side).is_empty
    assert tp.is_commutative() and tp.is_associative()


def test_truncated_poly_with_constants_unital_full_ac():
    tp = truncated_poly(QQ, 4, with_constants=True)
    assert not find_unities(tp, "two_sided").is_empty
    assert ac_two_sided(tp).is_full()


def test_truncated_poly_product_rule():
    tp = truncated_poly(QQ, 5)
    t2, t3 = tp.basis(1), tp.basis(2)
    assert tp.multiply(t2, t3) == tp.basis(4)  # t^2 t^3 = t^5
    assert vec_is_zero(tp.multiply(t3, t3))  # t^6 truncated at 5


# -- generator ------------------------------------------------------------------------------


def test_random_algebra_deterministic():
    cfg = GeneratorConfig(seed=42, dim=4, field=QQ, flag="none")
    assert random_algebra(cfg) == random_algebra(cfg)


def test_random_algebra_zero_pool():
    cfg = GeneratorConfig(seed=1, dim=3, field=QQ, pool=(F(0),), flag="none")
    assert random_algebra(cfg).is_zero_algebra()


def test_random_algebra_left_unital_flag():
    cfg = GeneratorConfig(seed=3, dim=4, field=GF(5), flag="left_unital")
    a = random_algebra(cfg)
    u = find_unities(a, "left")
    assert not u.is_empty
    assert u.contains(a.basis(0))


def test_random_algebra_symmetry_flags():
    com = random_algebra(GeneratorConfig(seed=8, dim=4, field=QQ, flag="commutative"))
    assert com.is_commutative()
    anti = random_algebra(
        GeneratorConfig(seed=8, dim=4, field=QQ, flag="anticommutative")
    )
    assert anti.is_skew_symmetric()
    for i in range(4):
        assert vec_is_zero(anti.products[i][i])


def test_random_algebra_rejects_unknown_flag():
    with pytest.raises(InvariantViolation):
        GeneratorConfig(seed=0, dim=2, field=QQ, flag="unital")


def test_generator_config_is_a_value_record():
    cfg = GeneratorConfig(7, 3, GF(7))
    assert (cfg.pool, cfg.flag) == ((6, 0, 0, 1), "none")  # the default pool, in the field
    same = GeneratorConfig(seed=7, dim=3, field=GF(7), pool=(6, 0, 0, 1), flag="none")
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != GeneratorConfig(7, 3, GF(7), flag="commutative")
    assert repr(cfg) == "GeneratorConfig(seed=7, dim=3, field=F7, pool=(6, 0, 0, 1), flag='none')"
    with pytest.raises(InvariantViolation, match="unknown generator flag"):
        GeneratorConfig(7, 3, GF(7), None, "unital")
    with pytest.raises(AttributeError):
        cfg.seed = 8
    assert cfg == same
    for args, kwargs in [
        ((7, 3), {}),  # field missing
        ((7, 3, QQ, None, "none", 0), {}),  # one argument too many
        ((7, 3, QQ), {"dim": 3}),  # dim given twice
        ((7, 3, QQ), {"seeds": 1}),  # no such field
    ]:
        with pytest.raises(TypeError):
            GeneratorConfig(*args, **kwargs)


def test_generator_config_json_roundtrip_fields():
    cfg = GeneratorConfig(seed=7, dim=3, field=GF(7), flag="commutative")
    doc = cfg.to_json()
    assert doc["prng"] == "python-random-mt19937"
    assert doc["field"] == {"Fp": 7}
    assert doc["pool"] == ["6", "0", "0", "1"]


def test_commutative_random_algebras_flexible():
    # commutative implies flexible, any characteristic
    for s in range(6):
        field = GF(2) if s % 2 else QQ
        a = random_algebra(GeneratorConfig(seed=s, dim=3, field=field, flag="commutative"))
        for i in range(3):
            for j in range(3):
                x, y = a.basis(i), a.basis(j)
                assert vec_is_zero(a.associator(x, y, x))

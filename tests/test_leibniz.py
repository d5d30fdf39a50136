"""Leibniz/hom-Leibniz brackets, hom-unities inside the nilpotents, crossed
unitality, and the Yau twist to a hom-Lie algebra."""

from fractions import Fraction as F
from itertools import product as iter_product

import pytest

from conftest import LEIB2, fpalg, left_only_leibniz, qalg
from homalg.algebra import Algebra, HomAlgebra
from homalg.campaign import builtin_corpus, generated_algebras
from homalg.constructions import GeneratorConfig, random_algebra
from homalg.errors import (
    DimensionMismatch,
    FieldMismatch,
    NotLeibniz,
    PreconditionViolated,
)
from homalg.fields import GF, QQ
from homalg.homstruct import hu_t
from homalg.leibniz import (
    HOM_JACOBI_FORM,
    crossed_unitality_check,
    hom_lie_check,
    hu_n_leibniz,
    is_three_nilpotent_element,
    leibniz_check,
    leibniz_yau_to_homlie,
    unitality_collapse_check,
)
from homalg.linalg import Matrix, Subspace
from homalg.subspaces import center, span_of


def cross_product():
    t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        t[i][j][k] = 1
        t[j][i][k] = -1
    return qalg(t)


# -- the identity checks -----------------------------------------------------------


def test_lie_algebra_is_both_sided():
    lie = cross_product()
    assert leibniz_check(lie) == (None, None)


def test_leib2_right_leibniz(leib2):
    assert leibniz_check(leib2)[1] is None


def test_leib2_perturbation_fails():
    for seed in range(5):
        a = random_algebra(GeneratorConfig(seed=seed, dim=2, field=QQ, flag="none"))
        if a.is_zero_algebra():
            continue
        witl = leibniz_check(a)[0]
        if witl is not None:
            i, j, k = witl
            # witness really violates the identity
            x, y, z = a.basis(i), a.basis(j), a.basis(k)
            lhs = a.multiply(x, a.multiply(y, z))
            rhs = tuple(
                p + q
                for p, q in zip(
                    a.multiply(a.multiply(x, y), z), a.multiply(y, a.multiply(x, z))
                )
            )
            assert lhs != rhs


def test_one_sided_example_is_left_only():
    a = left_only_leibniz()
    wit_l, wit_r = leibniz_check(a)
    assert wit_l is None and wit_r is not None


def test_hom_leibniz_with_twist():
    # [a, w] = a with zero elsewhere: right hom-Leibniz for the twist L_a
    a = qalg([[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    alpha = a.left_op(a.basis(0))
    assert leibniz_check(a, alpha)[1] is None


@pytest.mark.parametrize("side", ["left", "right"])
def test_leibniz_check_rejects_a_foreign_twist(leib2, side):
    # a twist over another field or of the wrong shape is an error, not a
    # silent verdict, and an error is not cached: asking again raises again,
    # and the untwisted verdict on either side is left as it was
    index = ("left", "right").index(side)
    before = leibniz_check(leib2)[index]
    for _ in range(2):
        with pytest.raises(FieldMismatch):
            leibniz_check(leib2, Matrix.identity(GF(3), 2))
        for shape in ((2, 3), (3, 2)):
            with pytest.raises(DimensionMismatch):
                leibniz_check(leib2, Matrix.zero(QQ, *shape))
    assert leibniz_check(leib2)[index] == before


# -- associator span identities (from the Leibniz rule) ------------------------------


def _bracket_span(a, order):
    rows = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                if order == "left_nested":
                    rows.append(a.multiply(a.basis(i), a.products[j][k]))
                else:
                    rows.append(a.multiply(a.products[i][j], a.basis(k)))
    return Subspace.from_rows(a.field, a.dim, rows)


def test_leibniz_associator_span_identities():
    # left Leibniz: associators span the left-nested triple bracket space;
    # right Leibniz: the right-nested one
    cases = [cross_product(), qalg(LEIB2), left_only_leibniz()]
    for s in range(10):
        a = random_algebra(
            GeneratorConfig(seed=600 + s, dim=3, field=GF(2), flag="anticommutative")
        )
        cases.append(a)
    for a in cases:
        wit_l, wit_r = leibniz_check(a)
        assoc = span_of(a, "associators")
        if wit_l is None:
            assert assoc == _bracket_span(a, "left_nested")
        if wit_r is None:
            assert assoc == _bracket_span(a, "right_nested")


# -- hom-unities ----------------------------------------------------------------------


def test_hu_n_leibniz_abelian_full():
    a = qalg([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert hu_n_leibniz(a).is_full()


def test_hu_n_leibniz_leib2_full(leib2):
    hu = hu_n_leibniz(leib2)
    assert hu.is_full()
    # mult by the second basis vector is a compatible twist
    assert HomAlgebra(leib2, leib2.left_op(leib2.basis(1))).is_hom_associative()
    assert hu_t(leib2, "left").is_full()


def test_hu_n_leibniz_three_nilpotency(leib2):
    for v in hu_n_leibniz(leib2).basis.rows:
        assert is_three_nilpotent_element(leib2, v)


def test_hu_n_leibniz_requires_leibniz(quaternions):
    with pytest.raises(NotLeibniz):
        hu_n_leibniz(quaternions)


def test_hu_n_leibniz_campaign():
    # over seeded anticommutative F3/F5 brackets that happen to be Leibniz
    found = 0
    for s in range(30):
        field = GF(3) if s % 2 == 0 else GF(5)
        a = random_algebra(
            GeneratorConfig(seed=s, dim=3, field=field, flag="anticommutative")
        )
        if None not in leibniz_check(a):
            continue
        found += 1
        hu = hu_n_leibniz(a)  # internal assertions: 3-nilpotency + twist membership
        for v in hu.basis.rows:
            assert is_three_nilpotent_element(a, v)
    assert found > 0


def test_hu_n_leibniz_char2_nilpotency_counterexample():
    """Over F2 the 3-nilpotency conclusion genuinely fails: the symmetric
    bracket [e0,e1] = [e1,e0] = e0, [e1,e2] = [e2,e1] = e0 is Leibniz, e0 is a
    central annihilator of the derived subalgebra, yet [[e0,e1],e1] = e0."""
    a = fpalg(
        2,
        [
            [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
        ],
    )
    assert leibniz_check(a) == (None, None)
    hu = hu_n_leibniz(a)  # nilpotency assertion is gated off in char 2
    e0 = a.basis(0)
    assert hu.contains(e0)
    assert not is_three_nilpotent_element(a, e0)
    # the compatibility half of the statement still holds
    assert HomAlgebra(a, a.left_op(e0)).is_hom_associative()


def test_commutative_center_matches_manual(leib2):
    assert center(leib2).is_full()  # the bracket of leib2 is symmetric


# -- unitality collapse ------------------------------------------------------------------


def test_collapse_vacuous_for_leib2(leib2):
    rep = unitality_collapse_check(leib2)
    assert rep == {"applicable": True, "unital": False, "ok": True}


def test_collapse_inapplicable_for_non_leibniz():
    a = random_algebra(GeneratorConfig(seed=3, dim=3, field=QQ, flag="left_unital"))
    rep = unitality_collapse_check(a)
    assert not rep["applicable"]
    assert rep["ok"]


def test_collapse_dual_numbers_not_leibniz():
    # adjoining a unity to the zero algebra leaves the old product zero, but
    # the unity itself breaks the Leibniz rule; the check reports inapplicable
    from homalg.constructions import unitalize

    base = qalg([[[0]]])
    bigger, _, _ = unitalize(base)
    rep = unitality_collapse_check(bigger)
    assert rep["ok"]


# -- crossed unitality ----------------------------------------------------------------------


def test_crossed_zero_twist_all_vacuous(leib2):
    h = HomAlgebra(leib2, Matrix.zero(QQ, 2, 2))
    rep = crossed_unitality_check(h)
    assert rep["ok"]


def test_crossed_campaign_no_counterexamples():
    # left-unital hom-associative twists: if a hom-Leibniz side holds, the
    # stated conclusion must follow; campaign over seeded algebras
    from homalg.homstruct import twist_space

    checked = 0
    for s in range(60):
        field = QQ if s % 2 == 0 else GF(2)
        a = random_algebra(
            GeneratorConfig(seed=s, dim=2 + s % 3, field=field, flag="left_unital")
        )
        for m in twist_space(a).maps:
            rep = crossed_unitality_check(HomAlgebra(a, m))
            checked += 1
            assert rep["ok"], rep
    # many seeded algebras admit only the zero twist, so the count is modest
    assert checked >= 5


def test_crossed_same_side_forces_zero_twist():
    # a twist that is hom-Leibniz on the side of a unity must be zero, and a
    # twist-space basis map is not: each one fails that side's identity
    from homalg.homstruct import twist_space
    from homalg.subspaces import find_unities

    hand = ("hand/left_unit", qalg([[[1, 0], [0, 1]], [[0, 0], [0, 0]]]))
    checked = 0
    for _, a in [hand, *builtin_corpus(), *generated_algebras(80)]:
        maps = twist_space(a).maps
        for index, side in enumerate(("left", "right")):
            if find_unities(a, side).is_empty:
                continue
            for m in maps:
                assert leibniz_check(a, m)[index] is not None
                checked += 1
    assert checked >= 30


ALL_FOUR = [
    "right_leibniz_left_unity_twisted_unity_right_annihilates",
    "left_leibniz_right_unity_twisted_unity_left_annihilates",
    "right_leibniz_right_unity_zero_twist",
    "left_leibniz_left_unity_zero_twist",
]
LEFT_UNITAL_ONLY = [ALL_FOUR[0], ALL_FOUR[3]]


@pytest.mark.parametrize(
    "name,fired,right_unital",
    [
        ("quaternions", ALL_FOUR, True),
        ("poly_unital_deg4", ALL_FOUR, True),
        ("projection2", LEFT_UNITAL_ONLY, False),
        ("projection3_f2", LEFT_UNITAL_ONLY, False),
    ],
)
def test_crossed_zero_twist_fires_the_implications(name, fired, right_unital):
    # the zero twist is hom-associative and hom-Leibniz on both sides of any
    # bracket, so every implication whose unity exists fires, and holds
    a = dict(builtin_corpus())[f"builtin/{name}"]
    rep = crossed_unitality_check(HomAlgebra(a, Matrix.zero(a.field, a.dim, a.dim)))
    assert [i["name"] for i in rep["implications"]] == fired
    assert all(i["holds"] for i in rep["implications"])
    assert rep["hypotheses"] == {
        "left_unital": True,
        "right_unital": right_unital,
        "left_hom_leibniz": True,
        "right_hom_leibniz": True,
    }
    assert rep["ok"]


# -- hom-Lie ------------------------------------------------------------------------------


def test_hom_lie_lie_algebra_identity_twist():
    lie = cross_product()
    assert hom_lie_check(HomAlgebra(lie, Matrix.identity(QQ, 3))) == (True, None)


def test_hom_lie_leib2_fails_skew(leib2):
    ok, wit = hom_lie_check(HomAlgebra(leib2, Matrix.identity(QQ, 2)))
    assert not ok
    assert wit == ("skew_symmetry", (1, 1))


def test_hom_lie_char2_diagonal_still_required():
    # over F2 the pairwise condition is vacuous; the diagonal check must bite
    a = fpalg(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])  # [e0, e0] = e1
    ok, wit = hom_lie_check(HomAlgebra(a, Matrix.identity(GF(2), 2)))
    assert not ok and wit == ("skew_symmetry", (0, 0))


def test_hom_jacobi_form_recorded():
    assert "[t(x),[y,z]]" in HOM_JACOBI_FORM


# -- Yau twist to hom-Lie ----------------------------------------------------------------------


def test_yau_to_homlie_zero_mult_trivial(leib2):
    res = leibniz_yau_to_homlie(leib2, leib2.zero(), leib2.zero(), "right")
    assert res.base.is_zero_algebra()
    assert hom_lie_check(res) == (True, None)


def test_yau_to_homlie_hand_instance():
    # [a, w] = a, everything else zero: all preconditions hold with mult = a
    alg = qalg([[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    res = leibniz_yau_to_homlie(alg, alg.basis(0), alg.basis(1), "right")
    assert hom_lie_check(res) == (True, None)
    assert res.is_multiplicative()


def test_yau_to_homlie_left_variant():
    # mirror instance: [w, a] = a, left hom-Leibniz for R_a
    alg = qalg([[[0, 0], [0, 0]], [[1, 0], [0, 0]]])
    res = leibniz_yau_to_homlie(alg, alg.basis(0), alg.basis(1), "left")
    assert hom_lie_check(res) == (True, None)


def test_yau_to_homlie_precondition_names():
    lie = cross_product()
    # cross product: mult = [mult, w] forces mult in the image; pick a failing pair
    with pytest.raises(PreconditionViolated):
        leibniz_yau_to_homlie(lie, lie.basis(0), lie.basis(0), "right")


def test_yau_to_homlie_abelian_gate():
    # an abelian bracket forces mult = [mult, w] = 0: nonzero mult is rejected,
    # the zero multiplier passes trivially
    abelian = qalg([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(PreconditionViolated):
        leibniz_yau_to_homlie(abelian, abelian.basis(0), abelian.basis(1), "right")
    res = leibniz_yau_to_homlie(abelian, abelian.zero(), abelian.basis(1), "right")
    assert res.base.is_zero_algebra()


def test_yau_to_homlie_exhaustive_small_field_search():
    """Exhaustive (mult, w) search over seeded F2/F3 brackets: every triple
    satisfying the preconditions must produce a hom-Lie algebra."""
    produced = 0
    for s in range(24):
        field = GF(2) if s % 2 == 0 else GF(3)
        dim = 2 + s % 2
        a = random_algebra(GeneratorConfig(seed=s, dim=dim, field=field, flag="none"))
        p = field.p
        vecs = list(iter_product(range(p), repeat=dim))
        for side in ("left", "right"):
            for mult in vecs:
                for w in vecs:
                    mv = tuple(field.from_int(v) for v in mult)
                    wv = tuple(field.from_int(v) for v in w)
                    try:
                        res = leibniz_yau_to_homlie(a, mv, wv, side)
                    except PreconditionViolated:
                        continue
                    produced += 1
                    assert hom_lie_check(res)[0]
    assert produced > 0

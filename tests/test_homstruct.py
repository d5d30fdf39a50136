"""Twist spaces, hom-unity subspaces, structure theorems, reports."""

import importlib
import pkgutil
import random
from fractions import Fraction as F
from itertools import product as iter_product

import pytest

import homalg
from conftest import (
    MEMOIZED,
    NIL2,
    clear_memo,
    fpalg,
    permuted,
    projection_tensor,
    qalg,
    reference_twist_space,
)
from homalg import homstruct, linalg, subspaces
from homalg.algebra import Algebra, HomAlgebra
from homalg.campaign import (
    _twist_instances,
    algebra_checks,
    builtin_corpus,
    generated_algebras,
)
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    opposite,
    random_algebra,
    random_linear_map,
    truncated_poly,
)
from homalg.errors import (
    DimensionMismatch,
    HomalgError,
    InternalCheckFailure,
    NotTwoSidedUnital,
    NotUnitalOnSide,
    PreconditionViolated,
)
from homalg.fields import GF, QQ
from homalg.homstruct import (
    ac_l_subspace,
    ac_one_sided,
    ac_r_subspace,
    ac_two_sided,
    bijection_report,
    domain_certificate,
    hu_n,
    hu_t,
    multiplicativity_report,
    relation_tables_check,
    structure_theorem_audit,
    twist_space,
)
from homalg.leibniz import crossed_unitality_check
from homalg.linalg import Matrix, Subspace, kernel, meet, vec_add
from homalg.reports import audit_json, render
from homalg.subspaces import center, find_unities, span_of


# -- twist space ------------------------------------------------------------------


def test_twist_space_complexes_is_left_multiplications(complexes):
    ts = twist_space(complexes)
    assert ts.dim == 2
    # every left multiplication is a valid twist and spans the space
    for v in [(F(1), F(0)), (F(0), F(1)), (F(2), F(-3))]:
        assert ts.contains_map(complexes.left_op(v))


def test_twist_space_quaternions_is_scalars(quaternions):
    ts = twist_space(quaternions)
    assert ts.dim == 1
    assert ts.contains_map(Matrix.identity(QQ, 4))


def test_twist_space_nil2_full():
    a = qalg(NIL2)
    assert twist_space(a).dim == 4


def test_twist_space_contains_identity_for_associative_unital(mat2):
    ts = twist_space(mat2)
    assert ts.contains_map(Matrix.identity(QQ, 4))
    # the zero map belongs to every twist space
    assert ts.contains_map(Matrix.zero(QQ, 4, 4))


def test_twist_space_nil2_f2_exhaustive_oracle():
    # enumerate all 16 maps over F2 and compare membership with a direct scan
    a = fpalg(2, NIL2)
    ts = twist_space(a)
    for entries in iter_product(range(2), repeat=4):
        m = Matrix(GF(2), [entries[:2], entries[2:]])
        direct = HomAlgebra(a, m).is_hom_associative()
        assert ts.contains_map(m) == direct
        assert direct  # nil2: every map is compatible


def test_twist_space_two_pass_per_triple_meet():
    # independent route: the kernel of every basis-triple row of the
    # flattened maps in all n^2 unknowns, with no early stop
    a = qalg(projection_tensor(2))
    assert reference_twist_space(a) == twist_space(a).space


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 16])
def test_triple_order_visits_every_triple_once(n):
    # a rank-deficient twist solve reads the whole order, so it must be a
    # permutation of the n^3 triples, and the same one on every call
    order = list(homstruct._triple_order(n))
    assert sorted(order) == list(iter_product(range(n), repeat=3))
    assert list(homstruct._triple_order(n)) == order
    if n > 2:
        assert order != sorted(order)


def test_twist_membership_matches_direct_scan():
    a = random_algebra(GeneratorConfig(seed=3, dim=3, field=QQ, flag="left_unital"))
    ts = twist_space(a)
    for seed in range(6):
        m = random_linear_map(QQ, 3, seed=seed)
        assert ts.contains_map(m) == HomAlgebra(a, m).is_hom_associative()


def test_twist_space_scale_invariance():
    a = random_algebra(GeneratorConfig(seed=11, dim=3, field=QQ, flag="none"))
    scaled = a.__class__(
        QQ,
        [
            [[F(5) * v for v in col] for col in row]
            for row in a.tensor
        ],
    )
    assert twist_space(a).space == twist_space(scaled).space


# -- hu_t / hu_n -------------------------------------------------------------------


def test_hu_t_commutative_associative_contains_center(mat2):
    # associative: center members work on both sides
    z = center(mat2)
    for side in ("left", "right"):
        assert hu_t(mat2, side).contains_subspace(z)


def test_hu_t_nil2_full(nil2):
    assert hu_t(nil2, "left").is_full()
    assert hu_t(nil2, "right").is_full()


def test_hu_t_truncated_poly_contains_t():
    tp = truncated_poly(QQ, 6)
    assert hu_t(tp, "left").contains(tp.basis(0))


def test_hu_n_associative_equals_center(mat2):
    assert hu_n(mat2, "two_sided") == center(mat2)


def test_hu_n_octonions_zero(octonions):
    assert hu_n(octonions, "two_sided").is_zero()


def test_hu_n_nil2_full(nil2):
    assert hu_n(nil2, "two_sided").is_full()


def test_hu_n_one_sided_variants(proj2):
    left = hu_n(proj2, "left")
    right = hu_n(proj2, "right")
    two = hu_n(proj2, "two_sided")
    assert meet(left, right).contains_subspace(two)


# -- ac --------------------------------------------------------------------------------


def test_ac_two_sided_cayley_dickson(complexes, quaternions, octonions):
    assert ac_two_sided(complexes).dim == 2
    assert ac_two_sided(quaternions).dim == 1
    assert ac_two_sided(octonions).dim == 0


def test_ac_two_sided_matrix_algebra(mat2):
    got = ac_two_sided(mat2)
    assert got.dim == 1
    assert got.contains(tuple(Matrix.identity(QQ, 2).flatten()))


def test_ac_two_sided_needs_unity(nil2):
    with pytest.raises(NotTwoSidedUnital):
        ac_two_sided(nil2)


def test_ac_one_sided_projection(proj2):
    acs = ac_one_sided(proj2, "left")
    assert acs.ac.dim == 2
    assert acs.ac_unit.dim == 1
    assert acs.ann.dim == 1
    assert acs.split_ok
    with pytest.raises(NotUnitalOnSide):
        ac_one_sided(proj2, "right")


def test_cached_records_compare_by_value_and_refuse_assignment(quaternions):
    ts = twist_space(quaternions)
    acs = ac_one_sided(quaternions, "left")
    fresh_ts = homstruct.TwistSpace(ts.algebra, ts.space, ts.maps)
    fresh_acs = homstruct.AcOneSided(
        acs.side, acs.unity, ac=acs.ac, ac_unit=acs.ac_unit, ann=acs.ann, split_ok=acs.split_ok
    )
    for cached, fresh in ((ts, fresh_ts), (acs, fresh_acs)):
        assert fresh is not cached and fresh == cached and hash(fresh) == hash(cached)
    assert fresh_acs != homstruct.AcOneSided("right", *fresh_acs._values()[1:])
    assert fresh_ts != fresh_acs
    for record, name in ((ts, "space"), (acs, "ac")):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    assert twist_space(quaternions) is ts and ac_one_sided(quaternions, "left") is acs


def test_check_and_report_records(quaternions):
    assert homstruct.Check("a", "pass") == homstruct.Check(name="a", status="pass", detail="")
    assert homstruct.Check("a", "pass") != homstruct.Check("a", "fail")
    assert homstruct.Check("a", "pass") != ("a", "pass", "")  # records equal their own class only
    ts = twist_space(quaternions)
    first, second = (
        homstruct.HomStructureReport(quaternions, {}, {}, {}, ts, None, None) for _ in range(2)
    )
    assert first.checks == [] and first.checks is not second.checks  # a fresh list each
    assert first == second


def test_ac_one_sided_two_sided_unital_collapse(quaternions):
    acs = ac_one_sided(quaternions, "left")
    assert acs.ac == acs.ac_unit == ac_two_sided(quaternions)
    assert acs.ac == Subspace.from_rows(QQ, 4, [quaternions.basis(0)])


def test_ac_right_is_left_of_opposite(proj2):
    assert ac_r_subspace(proj2) == ac_l_subspace(opposite(proj2))
    op = opposite(proj2)  # right-unital projection algebra
    acs = ac_one_sided(op, "right")
    assert acs.ac.dim == 2
    assert acs.ac_unit.dim == 1


def _transport_inputs():
    """Small algebras of every flag, each together with its opposite (so
    that left- and right-unital inputs both occur).  e0 e1 = e0 has
    hu_n(a, "left") != hu_n(a, "right"), which none of the others has."""
    base = builtin_corpus() + generated_algebras(40)
    base.append(("e0e1=e0", fpalg(2, [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])))
    for p in (2, 3):
        for dim in (1, 2, 3):
            for flag in ("none", "left_unital", "commutative", "anticommutative"):
                cfg = GeneratorConfig(seed=10 * p + dim, dim=dim, field=GF(p), flag=flag)
                base.append((f"random/F{p}-d{dim}-{flag}", random_algebra(cfg)))
    return [
        (label, b)
        for name, a in base
        for label, b in ((name, a), (f"{name}/opposite", opposite(a)))
    ]


def test_right_side_matches_opposite_transport():
    # reference: each right-sided result as the left-sided one of the
    # opposite algebra, relabelled "right"
    right_unital = 0
    for name, a in _transport_inputs():
        op = opposite(a)
        assert twist_space(op).space == twist_space(a).space, name
        assert hu_t(op, "left") == hu_t(a, "right"), name
        assert hu_n(a, "right") == hu_n(op, "left"), name
        assert ac_r_subspace(a) == ac_l_subspace(op), name
        if find_unities(a, "right").is_empty:
            with pytest.raises(NotUnitalOnSide, match="no right unity"):
                ac_one_sided(a, "right")
            continue
        right_unital += 1
        got, ref = ac_one_sided(a, "right"), ac_one_sided(op, "left")
        assert got.side == "right" and ref.side == "left", name
        assert got.unity == ref.unity and got.split_ok == ref.split_ok, name
        assert (got.ac, got.ac_unit, got.ann) == (ref.ac, ref.ac_unit, ref.ann), name
        reference = {**bijection_report(op, "left"), "side": "right"}
        assert bijection_report(a, "right") == reference, name
    assert right_unital >= 20


def test_ac_meet_of_one_sided_on_unital(quaternions, mat2):
    for a in (quaternions, mat2):
        assert hu_n(a, "two_sided") == meet(ac_l_subspace(a), ac_r_subspace(a))


# -- bijection -----------------------------------------------------------------------


def test_bijection_projection(proj2):
    rep = bijection_report(proj2, "left")
    assert rep["ok"]
    assert rep["dim_twist"] == rep["dim_ac_unit"] == 1
    # the unique ray of the twist space is spanned by the identity
    ts = twist_space(proj2)
    assert ts.contains_map(Matrix.identity(QQ, 2))


def test_bijection_complexes(complexes):
    rep = bijection_report(complexes, "left")
    assert rep["ok"]
    assert rep["idempotent_correspondence"]["status"] == "ok"
    assert rep["idempotent_correspondence"]["idempotents"] == [
        (F(0), F(0)),
        (F(1), F(0)),
    ]


def test_bijection_quaternions_multiplicative_maps(quaternions):
    rep = bijection_report(quaternions, "left")
    assert rep["ok"]
    idems = rep["idempotent_correspondence"]["idempotents"]
    assert idems == [tuple(quaternions.zero()), quaternions.basis(0)]
    # induced maps: the zero map and the identity
    for e in idems:
        m = quaternions.left_op(e)
        assert m.is_zero() or m == Matrix.identity(QQ, 4)


def test_bijection_skips_large_idempotent_search_over_q():
    # dim(AC unit) = 3 over Q: closed form out of range, B3 skipped
    a = qalg(
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ]
    )  # commutative associative unital (F[x,y]/(x,y)^2)
    rep = bijection_report(a, "left")
    assert rep["idempotent_correspondence"]["status"] == "skipped"
    assert rep["ok"]


# -- multiplicativity ------------------------------------------------------------------


def test_multiplicativity_identity_all_true(quaternions):
    unity = quaternions.basis(0)
    h = HomAlgebra(quaternions, Matrix.identity(QQ, 4))
    rep = multiplicativity_report(h, unity, "two_sided")
    assert rep["all_hold"]


def test_multiplicativity_mult_by_i_all_false(complexes):
    unity = complexes.basis(0)
    h = HomAlgebra(complexes, complexes.left_op(complexes.basis(1)))
    rep = multiplicativity_report(h, unity, "two_sided")
    assert not rep["all_hold"]
    assert set(rep["conditions"].values()) == {False}


def test_multiplicativity_zero_map_all_true(complexes):
    h = HomAlgebra(complexes, Matrix.zero(QQ, 2, 2))
    rep = multiplicativity_report(h, complexes.basis(0), "left")
    assert rep["all_hold"]


def test_multiplicativity_injective_forces_associativity(quaternions):
    # identity twist: multiplicative and injective, so the report must note
    # that the product is forced associative (and the quaternions are)
    h = HomAlgebra(quaternions, Matrix.identity(QQ, 4))
    rep = multiplicativity_report(h, quaternions.basis(0), "two_sided")
    assert rep["all_hold"]
    assert rep["forces_associativity"]


def test_multiplicativity_preconditions(complexes, quaternions):
    bad = HomAlgebra(quaternions, quaternions.left_op(quaternions.basis(1)))
    with pytest.raises(PreconditionViolated):
        multiplicativity_report(bad, quaternions.basis(0), "left")
    good = HomAlgebra(complexes, Matrix.identity(QQ, 2))
    with pytest.raises(PreconditionViolated):
        multiplicativity_report(good, complexes.basis(1), "left")


@pytest.mark.parametrize("check", [multiplicativity_report, relation_tables_check])
def test_unity_checks_reject_caller_errors(check, quaternions):
    # a caller's mistake is a caller error, never an internal one
    h = HomAlgebra(quaternions, Matrix.identity(QQ, 4))
    unity = quaternions.basis(0)
    with pytest.raises(ValueError, match="unknown side"):
        check(h, unity, "bogus")
    with pytest.raises(DimensionMismatch):
        check(h, unity + (F(5),), "left")
    with pytest.raises(PreconditionViolated, match="not a left unity"):
        check(h, quaternions.basis(1), "left")


def _raw(m):
    """``m`` over F_p written with the raw representatives v - p."""
    p = m.field.p
    return Matrix(m.field, [[v - p for v in row] for row in m.rows])


def test_raw_and_residue_twists_give_equal_reports():
    # over F_p a twist written with raw values is the same map as its
    # residues, so every report on it must be the same
    pairs = 0
    for name, a in builtin_corpus() + generated_algebras(40):
        if a.field == QQ:
            continue
        sides = [(s, find_unities(a, s)) for s in ("left", "right")]
        for m in _twist_instances(a, twist_space(a)):
            for side, unities in sides:
                if unities.is_empty:
                    continue
                pairs += 1
                for check in (multiplicativity_report, relation_tables_check):
                    raw = _outcome(check, (HomAlgebra(a, _raw(m)), unities.particular, side))
                    want = _outcome(check, (HomAlgebra(a, m), unities.particular, side))
                    assert raw == want, (name, side, check.__name__)
    assert pairs == 13
    a = dict(builtin_corpus())["builtin/projection3_f2"]
    zero = Matrix.zero(a.field, 3, 3)
    written = Matrix(a.field, [[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert crossed_unitality_check(HomAlgebra(a, written)) == crossed_unitality_check(
        HomAlgebra(a, zero)
    )


# -- relation tables --------------------------------------------------------------------


def test_relation_tables_central_multiplication(mat2):
    unity = find_unities(mat2, "two_sided").particular
    # twist by multiplication with a central element (a scalar)
    h = HomAlgebra(mat2, mat2.left_op(tuple(F(2) * v for v in unity)))
    rep = relation_tables_check(h, unity, "left")
    assert rep["all_pass"]
    assert rep["two_sided_rows_included"]


def test_relation_tables_projection_identity(proj2):
    unity = find_unities(proj2, "left").particular
    h = HomAlgebra(proj2, Matrix.identity(QQ, 2))
    rep = relation_tables_check(h, unity, "left")
    assert rep["all_pass"]
    assert not rep["two_sided_rows_included"]


def test_relation_tables_right_side_via_opposite(proj2):
    op = opposite(proj2)
    unity = find_unities(op, "right").particular
    h = HomAlgebra(op, Matrix.identity(QQ, 2))
    rep = relation_tables_check(h, unity, "right")
    assert rep["all_pass"]
    assert rep["side"] == "right"


def test_relation_tables_campaign(seeds=20):
    # seeded left-unital instances: every row passes for every twist basis map
    for s in range(seeds):
        field = QQ if s % 2 == 0 else GF(2)
        a = random_algebra(
            GeneratorConfig(seed=100 + s, dim=2 + s % 3, field=field, flag="left_unital")
        )
        unity = find_unities(a, "left").particular
        for m in twist_space(a).maps:
            rep = relation_tables_check(HomAlgebra(a, m), unity, "left")
            assert rep["all_pass"], (s, rep)


def test_relation_tables_right_inverse_pair_row(complexes):
    """On the right side the inverse-pair row closes on the twisted unity:
    with the multiplication-by-i twist on the complexes, x y = 1 gives
    twist(x) y = twist(1), which differs from 1 itself."""
    i = complexes.basis(1)
    tw = complexes.left_op(i)  # = right_op(i): commutative
    h = HomAlgebra(complexes, tw)
    unity = complexes.basis(0)
    rep = relation_tables_check(h, unity, "right")
    assert rep["all_pass"]
    x, y = i, (F(0), F(-1))  # x y = 1
    assert complexes.multiply(x, y) == unity
    got = complexes.multiply(tw.apply(x), y)
    assert got == tw.apply(unity)
    assert got != unity


def test_relation_tables_transport(proj2):
    # alpha-transport of associators, checked directly on a hom-associative twist
    unity = find_unities(proj2, "left").particular
    for m in twist_space(proj2).maps:
        h = HomAlgebra(proj2, m)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    x, y, z = proj2.basis(i), proj2.basis(j), proj2.basis(k)
                    assert proj2.associator(x, y, m.apply(z)) == m.apply(
                        proj2.associator(x, y, z)
                    )


# -- audit --------------------------------------------------------------------------------


def _reference_domain_certificate(a):
    """domain_certificate's candidates, each operator decided by a full
    kernel solve."""
    n = a.dim
    candidates = [a.basis(i) for i in range(n)]
    rng = random.Random(homstruct._DOMAIN_SAMPLE_SEED)
    for _ in range(homstruct._DOMAIN_SAMPLES):
        v = tuple(a.field.from_int(rng.choice([-2, -1, 1, 2, 0])) for _ in range(n))
        if any(v):
            candidates.append(v)
    for x in candidates:
        if not kernel(a.left_op(x)).is_zero() or not kernel(a.right_op(x)).is_zero():
            return "not a domain (witness)", x
    return "domain (sampled)", None


def test_domain_certificate_matches_the_kernel_reference(cd_chain):
    sedenions = cd_chain[4].base
    fp_sedenions = cayley_dickson_chain(4, field=GF(65521))[4].base
    octonions_f3 = cayley_dickson_chain(3, field=GF(3))[3].base
    corpus = [a for _, a in builtin_corpus() + generated_algebras(40)]
    corpus += [cd_chain[3].base, octonions_f3]
    # the certificate prime divides a structure constant's denominator; and
    # a modulus past the packed-word bound
    corpus.append(cayley_dickson_chain(4, [F(-1, 32749), -1, -1, -1])[4].base)
    corpus.append(cayley_dickson_chain(3, field=GF(18446744073709551557))[3].base)
    # seed 520073127 permutes the sedenion basis so that a sample hits a
    # zero divisor; the canonical basis (seed 0) finds none
    for seed in (0, 1, 2, 3, 520073127):
        corpus += [permuted(sedenions, seed), permuted(fp_sedenions, seed)]
    statuses = set()
    for a in corpus:
        got = domain_certificate(a)
        assert got == _reference_domain_certificate(a), a
        statuses.add(got[0])
    assert statuses == {"domain (sampled)", "not a domain (witness)"}
    assert domain_certificate(sedenions)[1] is None
    assert domain_certificate(permuted(sedenions, 520073127))[1] is not None
    assert domain_certificate(octonions_f3)[1] is not None


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["Q", "GF65521"])
def test_domain_certificate_builds_no_operator_matrix(monkeypatch, field):
    calls = []
    for name in ("left_op", "right_op"):
        build = getattr(Algebra, name)
        monkeypatch.setattr(
            Algebra, name, lambda a, x, _n=name, _b=build: calls.append(_n) or _b(a, x)
        )
    solve = linalg.kernel
    for module in (linalg, homalg.algebra):  # is_injective's and op_is_injective's
        monkeypatch.setattr(module, "kernel", lambda m: calls.append("kernel") or solve(m))
    sedenions = cayley_dickson_chain(4, field=field)[4].base
    assert domain_certificate(sedenions) == ("domain (sampled)", None)
    assert calls == []
    if field == QQ:  # the counters see the exact fallback where it runs
        gamma = cayley_dickson_chain(4, [F(-1, 32749), -1, -1, -1])[4].base
        domain_certificate(gamma)
        assert {"left_op", "kernel"} <= set(calls)


def test_audit_octonions_no_hom_structures(octonions):
    rep = structure_theorem_audit(octonions)
    assert rep.ok()
    assert rep.flags["domain"] == "domain (sampled)"
    assert rep.twist.dim == 0
    assert rep.ac_left is not None and rep.ac_left.ac_unit.is_zero()
    assert rep.check_map()["no_hom_structures_on_left_unital_domain"] == "pass"


def test_audit_sedenion_annihilator_logic(sedenions):
    # the real line meets the left annihilator of the associator span trivially
    from homalg.subspaces import annihilator, span_of

    ann = annihilator(sedenions, span_of(sedenions, "associators"), "left")
    reals = Subspace.from_rows(QQ, 16, [sedenions.basis(0)])
    assert meet(ann, reals).is_zero()
    assert hu_n(sedenions, "two_sided").is_zero()


def test_audit_associative_regular_collapse(mat2):
    rep = structure_theorem_audit(mat2)
    assert rep.ok()
    assert rep.check_map().get("associative_regular_hu_collapse") == "pass"


def test_audit_projection_second_unity(proj2):
    rep = structure_theorem_audit(proj2)
    assert rep.ok()
    assert rep.check_map()["ac_unit_left_second_unity_consistent"] == "pass"


def test_audit_sedenions_full(sedenions):
    rep = structure_theorem_audit(sedenions)
    assert rep.ok(), [c.name for c in rep.failed()]
    dims = {k: v.dim for k, v in rep.spaces.items()}
    assert dims["center"] == dims["nucleus"] == 1
    assert dims["hu_n"] == dims["hu_t_left"] == dims["hu_t_right"] == 0
    assert dims["ac_l_space"] == dims["ac_r_space"] == 0
    assert rep.twist.dim == 0
    assert rep.ac_left.ac_unit.is_zero()


def test_audit_reports_formula_gap_witness():
    # nil square algebra: multiplier and formula spaces are both the whole
    # plane, no gap; the projection algebra has a full multiplier space over a
    # trivial formula space, so a witness must be reported (asserting nothing)
    rep = structure_theorem_audit(qalg(NIL2))
    assert "hu_t_left_exceeds_hu_n_left" not in rep.check_map()
    rep2 = structure_theorem_audit(qalg(projection_tensor(2)))
    assert rep2.check_map().get("hu_t_left_exceeds_hu_n_left") == "skipped"


def test_audit_random_left_unital_all_pass():
    for s in range(6):
        field = QQ if s % 2 == 0 else GF(3)
        a = random_algebra(
            GeneratorConfig(seed=500 + s, dim=4, field=field, flag="left_unital")
        )
        rep = structure_theorem_audit(a)
        assert rep.ok(), [c.name for c in rep.failed()]


# -- memoized solvers -----------------------------------------------------------------


def test_audit_computes_each_subspace_once(octonions):
    clear_memo()
    structure_theorem_audit(octonions, unitalize_limit=0)
    misses = {
        fn.__name__: fn.cache_info().misses
        for fn in (
            ac_l_subspace,
            ac_r_subspace,
            hu_t,
            hu_n,
            subspaces.nucleus,
            span_of,
            twist_space,
        )
    }
    # distinct inputs: one multiplier space per side; hu_t on both sides;
    # three hu_n variants; four nucleus slots; three span kinds; one twist
    # space, shared by both sides (none for the opposite algebra)
    assert misses == {
        "ac_l_subspace": 1,
        "ac_r_subspace": 1,
        "hu_t": 2,
        "hu_n": 3,
        "nucleus": 4,
        "span_of": 3,
        "twist_space": 1,
    }
    assert all(fn.cache_info().maxsize is not None for fn in MEMOIZED)


@pytest.mark.parametrize(
    "name,scans",
    [
        ("builtin/quaternions", 8),
        ("builtin/poly_t_deg6", 29),
        ("builtin/nil2", 8),
        ("builtin/projection2", 6),
    ],
)
def test_audit_scans_the_certifying_maps_once(name, scans, monkeypatch):
    # the hu_t member check reads the memoized scan of the maps that
    # certified hu_n as hu_t's kernel (10, 36, 11 and 8 scans when the audit
    # scanned them again)
    a = dict(builtin_corpus())[name]
    calls = []
    scan = HomAlgebra.is_hom_associative

    def counting(self):
        calls.append(self)
        return scan(self)

    clear_memo()
    monkeypatch.setattr(HomAlgebra, "is_hom_associative", counting)
    try:
        structure_theorem_audit(a)
    finally:
        monkeypatch.undo()
        clear_memo()
    assert len(calls) == scans


def test_memo_list_names_every_cache():
    # clear_memo() must reach every cache, or a "cold" timing runs warm
    found = {}
    for info in pkgutil.iter_modules(homalg.__path__):
        module = importlib.import_module(f"homalg.{info.name}")
        owners = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__
        ]
        for owner in owners:
            for name, value in vars(owner).items():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = f"{module.__name__}.{name}"
    listed = {id(fn) for fn in MEMOIZED}
    assert sorted(found[k] for k in found.keys() - listed) == []
    assert listed <= found.keys()


def test_zero_commuting_space_skips_the_twist_solve():
    # x(e_i e_j) = e_i(x e_j) has only x = 0 for the cross product, so the
    # multiplier space is zero without hu_t and its n^4-row twist space
    a = dict(builtin_corpus())["builtin/cross_product"]
    clear_memo()
    assert ac_l_subspace(a).is_zero()
    assert twist_space.cache_info().misses == 0
    assert hu_t.cache_info().misses == 0


def test_commutative_algebra_has_equal_one_sided_multiplier_spaces():
    # a commutative algebra equals its opposite, so both sides solve the
    # same identities
    a = random_algebra(GeneratorConfig(seed=7, dim=3, field=QQ, flag="commutative"))
    assert opposite(a) == a
    clear_memo()
    assert ac_l_subspace(a) == ac_r_subspace(a)


def test_unital_sides_with_zero_hu_t_build_no_commuting_block(octonions, monkeypatch):
    # the octonions are unital on both sides and hu_t is zero there, so the
    # complement rows of hu_t, read first, complete the rank on their own
    built = []
    op_family = homstruct._op_family

    def counting(b):
        block = op_family(b)

        def counted(i, j):
            built.append((i, j))
            return block(i, j)

        return counted

    monkeypatch.setattr(homstruct, "_op_family", counting)
    clear_memo()
    assert hu_t(octonions, "left").is_zero() and hu_t(octonions, "right").is_zero()
    assert ac_l_subspace(octonions).is_zero()
    assert ac_r_subspace(octonions).is_zero()
    assert built == []


def _unity_operators(a, side):
    """The unity's operator on ``side`` (R_u for a left unity, L_u for a
    right one), plus a second unity's where the unity set is not a point."""
    uni = find_unities(a, side)
    if uni.is_empty:
        return []
    op = a.right_op if side == "left" else a.left_op
    units = [uni.particular]
    if uni.direction.dim:
        units.append(vec_add(a.field, uni.particular, uni.direction.basis.rows[0]))
    return [op(u) for u in units]


def test_fixed_part_matches_meet_with_eigenspace():
    counts = []
    for _, a in builtin_corpus() + generated_algebras(40):
        ident = Matrix.identity(a.field, a.dim)
        for side, ac in (("left", ac_l_subspace(a)), ("right", ac_r_subspace(a))):
            ops = _unity_operators(a, side)
            for op in ops:
                reference = meet(ac, kernel(op.sub(ident)))
                assert homstruct._fixed_part(ac, op) == reference
            counts.append(len(ops))
    # 37 unital sides, two of them (the projection algebras) with a second unity
    assert (counts.count(1), counts.count(2)) == (35, 2)


def _memo_calls(a):
    full = Subspace.full(a.field, a.dim)
    prods = span_of(a, "products")
    assoc = span_of(a, "associators")
    sides = ("left", "right")
    return (
        [(subspaces.centralizer, (a, s)) for s in (full, prods)]
        + [(subspaces.nucleus, (a, slot)) for slot in ("full", "left", "middle", "right")]
        + [
            (subspaces.annihilator, (a, s, side))
            for s in (full, assoc)
            for side in ("left", "right", "both")
        ]
        + [(span_of, (a, kind)) for kind in ("products", "commutators", "associators")]
        + [(find_unities, (a, side)) for side in ("left", "right", "two_sided")]
        + [(hu_t, (a, side)) for side in sides]
        + [(ac_l_subspace, (a,)), (ac_l_subspace, (opposite(a),))]
        + [(hu_n, (a, v)) for v in ("two_sided", "left", "right")]
        + [(ac_one_sided, (a, side)) for side in sides]
    )


def _outcome(fn, args):
    try:
        return fn(*args)
    except HomalgError as exc:  # not cached: the type must match a fresh call
        return type(exc)


def test_memoized_results_equal_fresh_recomputation():
    for name, a in builtin_corpus():
        calls = _memo_calls(a)
        clear_memo()
        memo = [_outcome(fn, args) for fn, args in calls]
        hits = [_outcome(fn, args) for fn, args in calls]
        assert all(x is y for x, y in zip(memo, hits)), name
        for (fn, args), m in zip(calls, memo):
            clear_memo()
            assert _outcome(fn.__wrapped__, args) == m, (name, fn.__name__, args[1:])


# -- scalar convention: integral rationals are ints ------------------------------


@pytest.mark.parametrize("name", ["builtin/projection2", "builtin/quaternions"])
def test_fraction_and_int_entries_give_the_same_algebra(name):
    base = dict(builtin_corpus())[name]
    as_int = Algebra(QQ, [[[int(v) for v in col] for col in row] for row in base.tensor])
    as_frac = Algebra(QQ, [[[F(v) for v in col] for col in row] for row in base.tensor])
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    texts = []
    for a in (as_int, as_frac):
        clear_memo()  # otherwise the second audit reads the first one's cache
        texts.append(render(audit_json(structure_theorem_audit(a))))
    assert texts[0] == texts[1]


def test_campaign_witness_multiplier_text():
    # the detail embeds the repr of a raw vector; over Q it has always read
    # as Fractions, whichever type now holds the integral entries
    corpus = dict(builtin_corpus())
    expected = {
        "builtin/projection2": "witness multiplier [Fraction(1, 1), Fraction(0, 1)]",
        "builtin/projection3_f2": "witness multiplier [1, 0, 0]",
    }
    for name, text in expected.items():
        details = {e["check"]: e.get("detail") for e in algebra_checks(name, corpus[name])}
        assert details["audit/hu_t_left_exceeds_hu_n_left"] == text


def test_not_a_unity_message_reads_fractions(proj2):
    # left unities of proj2 have coordinate sum 1; (2, 0) is none
    h = HomAlgebra(proj2, Matrix.identity(QQ, 2))
    with pytest.raises(PreconditionViolated, match=r"\(Fraction\(2, 1\), Fraction\(0, 1\)\)$"):
        multiplicativity_report(h, (2, 0), "left")
    with pytest.raises(PreconditionViolated, match=r"\[Fraction\(2, 1\), Fraction\(0, 1\)\]$"):
        relation_tables_check(h, [2, 0], "left")


# -- exhaustive oracle over small prime fields --------------------------------------


# dimension 2 over GF(2), each with a full nucleus strictly inside the meet
# of two slot nuclei, so that every slot of the full nucleus is needed
SLOT_SEPARATING = (
    ("e1e0=e1", [[[0, 0], [0, 0]], [[0, 1], [0, 0]]]),  # not left
    ("e1e0=e0", [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]),  # not right
    ("e0e0=e1,e0e1=e1,e1e0=e0,e1e1=e1", [[[0, 1], [0, 1]], [[1, 0], [0, 1]]]),  # not middle
)


def _oracle_algebras():
    """Small algebras over GF(2)/GF(3) whose every element can be listed:
    nil2_f2 has the full twist space, the random ones (but the rigid
    left-unital one) a proper nonzero hu_t, nucleus or annihilator."""
    corpus = dict(builtin_corpus())
    out = [(name, corpus[name]) for name in ("builtin/projection3_f2", "builtin/nil2_f2")]
    out += [(f"slots/{name}", fpalg(2, tensor)) for name, tensor in SLOT_SEPARATING]
    for seed, dim, p, flag in (
        (2, 2, 2, "none"),
        (5, 3, 2, "commutative"),
        (5, 4, 2, "anticommutative"),
        (1, 2, 3, "none"),
        (0, 3, 3, "left_unital"),
    ):
        cfg = GeneratorConfig(seed=seed, dim=dim, field=GF(p), flag=flag)
        out.append((f"random/{seed}-F{p}-d{dim}-{flag}", random_algebra(cfg)))
    return out


ORACLE_ALGEBRAS = _oracle_algebras()


@pytest.mark.parametrize("name,a", ORACLE_ALGEBRAS, ids=[name for name, _ in ORACLE_ALGEBRAS])
def test_derived_subspaces_match_element_enumeration(name, a):
    # membership of every element, decided by direct products only, never
    # by a solver: hu_t by the hom-associativity scan of its operator, each
    # slot nucleus by basis associators with x in that slot and the full
    # nucleus by all three, the annihilator by products,
    # the multiplier space of a and of its opposite (ac_r) by its two identities
    n = a.dim
    basis = a.basis_elements()
    full = Subspace.full(a.field, n)
    spaces = {
        "hu_t_left": hu_t(a, "left"),
        "hu_t_right": hu_t(a, "right"),
        "nucleus": subspaces.nucleus(a, "full"),
        "nucleus_left": subspaces.nucleus(a, "left"),
        "nucleus_middle": subspaces.nucleus(a, "middle"),
        "nucleus_right": subspaces.nucleus(a, "right"),
        "ann_both": subspaces.annihilator(a, full, "both"),
    }
    multiplier_spaces = [(b, ac_l_subspace(b)) for b in (a, opposite(a))]
    zero = a.zero()
    for x in iter_product(range(a.field.p), repeat=n):
        pairs = [(y, z) for y in basis for z in basis]
        slots = {
            "nucleus_left": all(a.associator(x, y, z) == zero for y, z in pairs),
            "nucleus_middle": all(a.associator(y, x, z) == zero for y, z in pairs),
            "nucleus_right": all(a.associator(y, z, x) == zero for y, z in pairs),
        }
        oracle = {
            "hu_t_left": HomAlgebra(a, a.left_op(x)).is_hom_associative(),
            "hu_t_right": HomAlgebra(a, a.right_op(x)).is_hom_associative(),
            "nucleus": all(slots.values()),
            **slots,
            "ann_both": all(
                a.multiply(x, y) == a.multiply(y, x) == zero for y in basis
            ),
        }
        for key, space in spaces.items():
            assert space.contains(x) == oracle[key], (name, key, x)
        for b, space in multiplier_spaces:
            mul = b.multiply
            # x(yz) = y(xz) and (xy)(zw) = x((yz)w)
            assert space.contains(x) == (
                all(mul(x, mul(y, z)) == mul(y, mul(x, z)) for y in basis for z in basis)
                and all(
                    mul(mul(x, y), mul(z, w)) == mul(x, mul(mul(y, z), w))
                    for y in basis
                    for z in basis
                    for w in basis
                )
            ), (name, b is a, x)

"""Acceptance suite: every criterion as one test, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`.

The campaign fixture pins 200 seeded left-unital algebras (even seeds over Q,
odd seeds over F2, dimensions cycling 2..5); the doubling-chain fixture pins
the classical dimension ladder.  All tolerances are exact: every assertion is
integer or subspace equality.
"""

import time
from fractions import Fraction as F
from itertools import product as iter_product
from types import SimpleNamespace

import pytest

from conftest import clear_memo, qalg
from homalg.algebra import HomAlgebra
from homalg.constructions import (
    GeneratorConfig,
    ac_unitalized_by_eigenspaces,
    cayley_dickson_chain,
    random_algebra,
    random_linear_map,
    truncated_poly,
    unitalize,
    yau_criterion,
    yau_twist,
)
from homalg.campaign import (
    cross_product_algebra,
    leib2_algebra,
    nil2_algebra,
    projection_algebra,
)
from homalg.errors import InternalCheckFailure
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
from homalg.leibniz import (
    hu_n_leibniz,
    is_three_nilpotent_element,
    leibniz_check,
    unitality_collapse_check,
)
from homalg.linalg import Matrix, meet, unflatten_matrix
from homalg.subspaces import find_unities


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def campaign():
    """200 seeded left-unital algebras with the per-algebra solves shared by
    several criteria."""
    bundles = []
    for s in range(200):
        field = QQ if s % 2 == 0 else GF(2)
        dim = 2 + (s // 2) % 4
        a = random_algebra(
            GeneratorConfig(seed=s, dim=dim, field=field, flag="left_unital")
        )
        acs = ac_one_sided(a, "left")
        ts = twist_space(a)
        bij = bijection_report(a, "left")
        instances = list(ts.maps)
        for i in range(len(ts.maps)):
            for j in range(i + 1, len(ts.maps)):
                instances.append(ts.maps[i].add(ts.maps[j]))
        bundles.append(
            SimpleNamespace(
                seed=s, algebra=a, field=field, acs=acs, ts=ts, bij=bij,
                instances=instances,
            )
        )
    return bundles


def test_criterion_01_cayley_dickson_pinned_dims():
    """ac and twist dimensions along the doubling chain, under 60 seconds."""
    clear_memo()
    t0 = time.monotonic()
    chain = cayley_dickson_chain(4)
    algebras = [lvl.base for lvl in chain[1:]]
    ac_dims = tuple(ac_two_sided(a).dim for a in algebras)
    twist_dims = tuple(twist_space(a).dim for a in algebras)
    elapsed = time.monotonic() - t0
    ok = ac_dims == (2, 1, 0, 0) and twist_dims == (2, 1, 0, 0) and elapsed < 60
    print(f"  [dims ac={ac_dims} twist={twist_dims} in {elapsed:.1f}s]")
    _verdict(1, "cayley-dickson pinned dimensions", ok)


def test_criterion_02_quaternion_table(quaternions):
    h = quaternions
    one, i, j, k = (h.basis(t) for t in range(4))
    neg = lambda v: tuple(-c for c in v)
    ok = (
        h.multiply(i, i) == neg(one)
        and h.multiply(j, j) == neg(one)
        and h.multiply(k, k) == neg(one)
        and h.multiply(i, j) == k
        and h.multiply(h.multiply(i, j), k) == neg(one)
        and h.multiply(j, i) == neg(k)
    )
    _verdict(2, "quaternion multiplication table", ok)


def test_criterion_03_split_theorem(campaign):
    ok = len(campaign) == 200
    for b in campaign:
        ok = ok and b.acs.split_ok
        ok = ok and ((b.acs.ac_unit == b.acs.ac) == b.acs.ann.is_zero())
    _verdict(3, "split of the multiplier space (200 seeds)", ok)


def test_criterion_04_bijection_theorem(campaign):
    ok = True
    for b in campaign:
        ok = ok and b.bij["dims_equal"]
        ok = ok and b.bij["unit_evaluation_inverse"]
        ok = ok and b.bij["multiplication_inverse"]
        ok = ok and b.bij["all_multipliers_compatible"]
    _verdict(4, "twist/multiplier bijection (200 seeds)", ok)


def test_criterion_05_multiplicativity_equivalence(campaign):
    violations = 0
    instances = 0
    for b in campaign:
        unity = b.acs.unity
        for m in b.instances:
            instances += 1
            try:
                multiplicativity_report(HomAlgebra(b.algebra, m), unity, "left")
            except InternalCheckFailure:
                violations += 1
    print(f"  [{instances} unital hom-associative instances]")
    _verdict(5, "multiplicativity four-way equivalence", violations == 0)


def test_criterion_06_twist_oracle_two_pass(campaign):
    ok = True
    exhaustive_checked = 0
    for b in campaign:
        a = b.algebra
        n = a.dim
        for m in b.ts.maps:
            ok = ok and HomAlgebra(a, m).is_hom_associative()
        if not b.ts.space.is_full():
            pivset = set(b.ts.space.pivots)
            ray = next(i for i in range(n * n) if i not in pivset)
            mat = unflatten_matrix(
                a.field, n, tuple(a.field.one if t == ray else a.field.zero
                                  for t in range(n * n))
            )
            ok = ok and not HomAlgebra(a, mat).is_hom_associative()
        if b.field == GF(2) and n <= 3:
            exhaustive_checked += 1
            space = hu_t(a, "left")
            for coords in iter_product(range(2), repeat=n):
                v = tuple(coords)
                direct = HomAlgebra(a, a.left_op(v)).is_hom_associative()
                ok = ok and (space.contains(v) == direct)
    print(f"  [{exhaustive_checked} exhaustive F2 multiplier scans]")
    _verdict(6, "two-pass twist oracle", ok and exhaustive_checked > 0)


def test_criterion_07_unitalization(campaign):
    failures = 0
    for b in campaign:
        try:
            # internally verified against ac_two_sided(unitalize(a)) and the
            # embedded hom-unity subspace
            ac_unitalized_by_eigenspaces(b.algebra)
        except InternalCheckFailure:
            failures += 1
    _verdict(7, "unitalization eigenspace route (200 seeds)", failures == 0)


def test_criterion_08_ac_is_meet_of_one_sided(campaign, quaternions, complexes, mat2):
    pinned = [quaternions, complexes, mat2,
              truncated_poly(QQ, 4, with_constants=True),
              unitalize(nil2_algebra())[0]]
    two_sided = list(pinned)
    for b in campaign:
        if not find_unities(b.algebra, "two_sided").is_empty:
            two_sided.append(b.algebra)
    ok = True
    for a in two_sided:
        ok = ok and hu_n(a, "two_sided") == meet(ac_l_subspace(a), ac_r_subspace(a))
    print(f"  [{len(two_sided)} two-sided unital instances]")
    _verdict(8, "ac equals the meet of one-sided multiplier spaces", ok)


def test_criterion_09_no_domains(campaign, octonions):
    rep = structure_theorem_audit(octonions)
    ok = rep.flags["domain"] == "domain (sampled)"
    ok = ok and rep.ac_left is not None and rep.ac_left.ac_unit.is_zero()
    ok = ok and rep.check_map()["no_hom_structures_on_left_unital_domain"] == "pass"
    sampled_domains = 0
    for b in campaign:
        status, _ = domain_certificate(b.algebra)
        if status == "domain (sampled)" and not b.algebra.is_associative():
            sampled_domains += 1
            ok = ok and b.acs.ac_unit.is_zero()
    print(f"  [octonions exact-by-audit; {sampled_domains} sampled campaign domains]")
    _verdict(9, "no hom structures on unital non-associative domains", ok)


def test_criterion_10_leibniz_suite(leib2):
    ok = leibniz_check(leib2)[1] is None
    hu = hu_n_leibniz(leib2)
    ok = ok and hu.is_full()
    ok = ok and HomAlgebra(leib2, leib2.left_op(leib2.basis(1))).is_hom_associative()
    # a characteristic != 2 Leibniz corpus: pinned + seeded brackets
    corpus = [leib2, cross_product_algebra(QQ), qalg([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])]
    for s in range(60):
        field = QQ if s % 3 == 0 else (GF(3) if s % 3 == 1 else GF(5))
        flag = "anticommutative" if s % 2 == 0 else "none"
        a = random_algebra(GeneratorConfig(seed=s, dim=3, field=field, flag=flag))
        if None in leibniz_check(a):
            corpus.append(a)
    nontrivial = 0
    for a in corpus:
        hu = hu_n_leibniz(a)
        nontrivial += 1 if hu.dim else 0
        for v in hu.basis.rows:
            ok = ok and is_three_nilpotent_element(a, v)
        collapse = unitality_collapse_check(a)
        ok = ok and collapse["ok"]
    print(f"  [{len(corpus)} Leibniz instances, {nontrivial} with hom-unities]")
    _verdict(10, "Leibniz suite", ok and len(corpus) > 3)


def test_criterion_11_yau_criterion_agreement(complexes):
    agreements = 0
    for s in range(500):
        field = (QQ, GF(2), GF(3))[s % 3]
        dim = 2 + s % 3
        flag = ("none", "left_unital", "commutative")[(s // 3) % 3]
        a = random_algebra(GeneratorConfig(seed=s, dim=dim, field=field, flag=flag))
        alpha = random_linear_map(field, dim, seed=10_000 + s)
        yau_criterion(a, alpha)  # raises InternalCheckFailure on disagreement
        agreements += 1
    conj = Matrix(QQ, [[F(1), F(0)], [F(0), F(-1)]])
    ok_conj, _ = yau_criterion(complexes, conj)
    tp = truncated_poly(QQ, 6, with_constants=True)
    ok_poly, _ = yau_criterion(tp, tp.left_op(tp.basis(1)))
    ok = agreements == 500 and ok_conj and ok_poly
    ok = ok and yau_twist(complexes, conj).is_hom_associative()
    _verdict(11, "twist criterion agreement (500 pairs)", ok)


def test_criterion_12_relation_tables(campaign, complexes, quaternions):
    violations = 0
    instances = 0

    def run(a, m, unity, side):
        nonlocal violations, instances
        instances += 1
        rep = relation_tables_check(HomAlgebra(a, m), unity, side)
        if not rep["all_pass"]:
            violations += 1

    for b in campaign:
        right = find_unities(b.algebra, "right")
        for m in b.instances:
            run(b.algebra, m, b.acs.unity, "left")
            if not right.is_empty:
                run(b.algebra, m, right.particular, "right")
    # pinned instances
    unity_c = complexes.basis(0)
    for v in [(F(1), F(0)), (F(0), F(1)), (F(2), F(-1))]:
        run(complexes, complexes.left_op(v), unity_c, "left")
    unity_h = quaternions.basis(0)
    run(quaternions, Matrix.identity(QQ, 4), unity_h, "left")
    run(quaternions, Matrix.zero(QQ, 4, 4), unity_h, "right")
    p2 = projection_algebra()
    run(p2, Matrix.identity(QQ, 2), find_unities(p2, "left").particular, "left")
    tp = truncated_poly(QQ, 4, with_constants=True)
    run(tp, tp.left_op(tp.basis(1)), tp.basis(0), "left")
    print(f"  [{instances} unital hom-associative instances]")
    _verdict(12, "relation tables and transport identity", violations == 0)

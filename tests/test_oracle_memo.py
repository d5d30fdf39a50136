"""The per-twist oracle memos and the on-demand operator tables.

``homstruct.relation_tables_check`` keeps its rows in ``_relation_rows``
(keyed by the hom-algebra and the unity), ``HomAlgebra.hom_associativity_witness``
keeps its triple in ``algebra._hom_associativity_witness`` (keyed by the
algebra and the twist), and ``algebra.twisted_ops`` builds the operator
tables of a twist as they are read.  These tests require every memoized
result to equal a cold computation, the right side not to be served from
the left side's entry, and the on-demand tables to give the scans the same
witnesses as tables built in full, while building only what a scan reads.
"""

import pytest

from conftest import clear_memo
from homalg import algebra, constructions, homstruct, leibniz
from homalg import subspaces as sub
from homalg.algebra import HomAlgebra, triple_defects, twisted_ops
from homalg.campaign import _twist_instances, builtin_corpus, generated_algebras
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    random_algebra,
    random_linear_map,
    yau_criterion,
)
from homalg.errors import HomalgError, PreconditionViolated
from homalg.fields import GF
from homalg.linalg import Matrix, unflatten_matrix


def _campaign_algebras():
    return builtin_corpus() + generated_algebras(80)


def _sides(a):
    return [
        (side, u.particular)
        for side in ("left", "right")
        if not (u := sub.find_unities(a, side)).is_empty
    ]


def _outcome(fn):
    """``fn()``, or the type and text of the HomalgError it raises."""
    try:
        return fn()
    except HomalgError as exc:
        return type(exc).__name__, str(exc)


def _oracles(a, m, sides):
    """Every memo-backed oracle result of one twist instance, in the order
    the campaign asks for them, plus the witness of the Yau twist."""
    h = HomAlgebra(a, m)
    out = [h.hom_associativity_witness()]
    for side, unity in sides:
        out.append(_outcome(lambda: homstruct.multiplicativity_report(h, unity, side)))
        out.append(_outcome(lambda: homstruct.relation_tables_check(h, unity, side)))
    out.append(constructions.yau_twist(a, m).hom_associativity_witness())
    return out


def test_memoized_oracles_equal_a_cold_computation():
    # warm: every instance in campaign order, the memos shared across the
    # corpus; cold: each instance alone after clear_memo().  Non-twists (two
    # random maps per algebra) give the witness memo values that differ
    # between maps of one algebra.
    cases = []
    clear_memo()
    for name, a in _campaign_algebras():
        sides = _sides(a)
        maps = _twist_instances(a, homstruct.twist_space(a))
        maps += [random_linear_map(a.field, a.dim, seed=7919 + s) for s in range(2)]
        cases += [(name, a, m, sides, _oracles(a, m, sides)) for m in maps]
    row_sets = {}
    witnesses = {}
    for name, a, m, sides, warm in cases:
        clear_memo()
        assert _oracles(a, m, sides) == warm, name
        witnesses.setdefault(name, set()).add(warm[0])
        for result in warm[2 : 2 * len(sides) + 1 : 2]:
            if isinstance(result, dict):
                row_sets.setdefault(name, set()).add(tuple(result["rows"]))
    clear_memo()
    # the comparison can tell twists of one algebra apart: a memo keyed on
    # the algebra alone would hand one map's rows or witness to another
    assert any(len(s) > 1 for s in row_sets.values())
    assert any(len(s) > 1 for s in witnesses.values())
    assert len(cases) > 400


def test_commutative_right_side_reuses_the_left_rows():
    # a commutative algebra is its own opposite
    a = dict(builtin_corpus())["builtin/poly_unital_deg4"]
    clear_memo()
    for m in homstruct.twist_space(a).maps:
        h = HomAlgebra(a, m)
        unity = sub.find_unities(a, "left").particular
        left = homstruct.relation_tables_check(h, unity, "left")
        right = homstruct.relation_tables_check(h, unity, "right")
        assert right == {**left, "side": "right"}
    info = homstruct._relation_rows.cache_info()
    assert (info.misses, info.hits) == (len(homstruct.twist_space(a).maps),) * 2
    clear_memo()


def test_noncommutative_right_side_is_not_the_left_entry():
    # the quaternions are unital on both sides and not commutative: the
    # right rows are solved on the opposite algebra, a separate entry
    a = dict(builtin_corpus())["builtin/quaternions"]
    unity = sub.find_unities(a, "two_sided").particular
    ts = homstruct.twist_space(a)
    for m in ts.maps:
        h = HomAlgebra(a, m)
        clear_memo()
        homstruct.relation_tables_check(h, unity, "left")
        right = homstruct.relation_tables_check(h, unity, "right")
        assert homstruct._relation_rows.cache_info().misses == 2
        clear_memo()
        assert homstruct.relation_tables_check(h, unity, "right") == right
    clear_memo()


def test_left_only_unity_fails_the_right_side_after_the_left():
    # projection2 has left unities and no right one; the precondition is
    # checked outside the memo, so a computed left side lets nothing through
    a = dict(builtin_corpus())["builtin/projection2"]
    unity = sub.find_unities(a, "left").particular
    h = HomAlgebra(a, homstruct.twist_space(a).maps[0])
    clear_memo()
    assert homstruct.relation_tables_check(h, unity, "left")["all_pass"]
    with pytest.raises(PreconditionViolated, match="not a left unity"):
        homstruct.relation_tables_check(h, unity, "right")


def test_relation_tables_hand_out_fresh_dicts():
    a = dict(builtin_corpus())["builtin/complex"]
    unity = sub.find_unities(a, "left").particular
    h = HomAlgebra(a, homstruct.twist_space(a).maps[0])
    first = homstruct.relation_tables_check(h, unity, "left")
    first["rows"].clear()
    second = homstruct.relation_tables_check(h, unity, "left")
    assert second["rows"] and second["all_pass"]


# -- on-demand operator tables ------------------------------------------------------


def _eager_ops(a, twist=None):
    """The tables of ``twisted_ops`` built in full, as lists."""
    left, right = twisted_ops(a, twist)
    if twist is None:
        return left, right
    return [left[i] for i in range(a.dim)], [right[i] for i in range(a.dim)]


def _table_cases():
    fields = (GF(2), GF(3), GF(65521))
    algebras = [a for _, a in builtin_corpus()]
    algebras += [
        random_algebra(GeneratorConfig(seed=s, dim=2 + s % 3, field=f, flag=flag))
        for f in fields
        for s, flag in enumerate(("none", "left_unital", "commutative", "anticommutative"))
    ]
    for a in algebras:
        maps = [random_linear_map(a.field, a.dim, seed) for seed in range(3)]
        maps += list(homstruct.twist_space(a).maps)
        yield a, maps


def _scans(a, m):
    return (
        list(triple_defects(a.field, a.dim, a.terms, *algebra.twisted_ops(a, m))),
        HomAlgebra(a, m).hom_associativity_witness(),
        yau_criterion(a, m),
        leibniz.leibniz_check(a, m),
    )


def test_on_demand_tables_give_the_eager_witnesses(monkeypatch):
    on_demand = []
    cases = list(_table_cases())
    clear_memo()
    for a, maps in cases:
        on_demand += [_scans(a, m) for m in maps]
    for module in (algebra, constructions, leibniz):
        monkeypatch.setattr(module, "twisted_ops", _eager_ops)
    clear_memo()
    eager = [_scans(a, m) for a, maps in cases for m in maps]
    clear_memo()
    assert on_demand == eager
    # failing and holding scans are both covered, over every field
    assert {w is None for _, w, _, _ in eager} == {True, False}
    assert {holds for _, _, (holds, _), _ in eager} == {True, False}
    assert {a.field for a, _ in cases} >= {GF(2), GF(3), GF(65521)}


def test_on_demand_tables_are_the_operator_columns():
    a = dict(builtin_corpus())["builtin/quaternions"]
    tw = random_linear_map(a.field, a.dim, 5)
    left, right = twisted_ops(a, tw)
    assert len(left) == len(right) == 0
    for i in reversed(range(a.dim)):
        assert left[i] == a.op_columns(tw.column(i), "left")
        assert right[i] == a.op_columns(tw.column(i), "right")
        assert left[i] is left[i]
    assert len(left) == len(right) == a.dim


def test_failing_sedenion_ray_builds_only_the_tables_it_reads(monkeypatch):
    # the audit's twist_complement_ray_fails check scans a map outside the
    # twist space; its first witness comes long before every t(e_i) is read
    sed = cayley_dickson_chain(4)[4].base
    n = sed.dim
    clear_memo()
    space = homstruct.twist_space(sed).space
    ray = unflatten_matrix(sed.field, n, homstruct._complement_ray(space))
    built, read = [], set()
    op_columns = algebra.Algebra.op_columns
    getitem = dict.__getitem__

    def counting_op_columns(self, x, side="left"):
        built.append(side)
        return op_columns(self, x, side)

    def counting_getitem(self, i):
        read.add((self._side, i))
        return getitem(self, i)

    monkeypatch.setattr(algebra.Algebra, "op_columns", counting_op_columns)
    monkeypatch.setattr(algebra._OpTable, "__getitem__", counting_getitem)
    clear_memo()
    assert HomAlgebra(sed, ray).hom_associativity_witness() is not None
    monkeypatch.undo()
    clear_memo()
    assert 0 < len(built) == len(read) < 2 * n


def test_identity_matrix_twist_scans_like_no_twist():
    # the identity as a Matrix goes through the on-demand tables, no twist
    # through terms and transposed_terms
    for _, a in builtin_corpus():
        eye = Matrix.identity(a.field, a.dim)
        with_eye = list(triple_defects(a.field, a.dim, a.terms, *twisted_ops(a, eye)))
        assert dict(with_eye) == a.associators
        assert a.transposed_terms == tuple(zip(*a.terms))

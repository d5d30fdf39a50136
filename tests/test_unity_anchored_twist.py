"""The unity-anchored twist solve: exact on every unity kind, not fooled by a
wrong hom-unity formula, bounded in the basis triples it draws, and solved in
n unknowns on the side of a unity; ``hu_t`` on a side without a unity solves
no twist space either."""

import pytest

from conftest import clear_memo, permuted, reference_twist_space
from homalg import homstruct
from homalg.algebra import HomAlgebra
from homalg.campaign import builtin_corpus, generated_algebras
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    opposite,
    random_algebra,
    unitalize,
)
from homalg.errors import InternalCheckFailure
from homalg.fields import GF, QQ
from homalg.homstruct import ac_two_sided, hu_t, twist_space
from homalg.leibniz import hu_n_leibniz
from homalg.linalg import Matrix, NullspaceSolver, Subspace, kernel
from homalg.subspaces import find_unities


_CORPUS = builtin_corpus() + generated_algebras(40)


def _assert_exact(a):
    assert twist_space(a).space == reference_twist_space(a)


def _reference_hu_t(a, side, twist):
    """The preimage of ``twist`` under x -> L_x (or R_x), densely: the kernel
    of perp(twist) times the matrix whose column s is the flattened L_{e_s}."""
    if twist.is_full():
        return Subspace.full(a.field, a.dim)
    op = a.left_op if side == "left" else a.right_op
    op_of = Matrix.from_columns(a.field, [op(a.basis(s)).flatten() for s in range(a.dim)])
    return kernel(twist.perp().basis.matmul(op_of))


def _kinds(a):
    """The algebra, its opposite (a right unity where ``a`` has a left one)
    and its unitalization (two-sided unital)."""
    return (a, opposite(a), unitalize(a)[0])


@pytest.mark.parametrize("a", [a for _, a in _CORPUS], ids=[name for name, _ in _CORPUS])
def test_twist_space_matches_reference_on_every_unity_kind(a):
    for b in _kinds(a):
        _assert_exact(b)
        reference = reference_twist_space(b)
        for side in ("left", "right"):
            assert hu_t(b, side) == _reference_hu_t(b, side, reference)


def test_unity_kinds_are_all_exercised():
    # the corpus reaches every branch: left-only, right-only, two-sided, none
    kinds = set()
    for _, a in _CORPUS:
        for b in _kinds(a):
            kinds.add(tuple(not find_unities(b, s).is_empty for s in ("left", "right")))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(65521)], ids=str)
def test_twist_space_matches_reference_on_cayley_dickson(field):
    for level in cayley_dickson_chain(3, field=field)[1:]:
        _assert_exact(level.base)
        _assert_exact(permuted(level.base, 1))


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_twist_space_matches_reference_on_random_left_unital(field):
    for dim in range(1, 6):
        for seed in range(3):
            a = random_algebra(GeneratorConfig(seed=seed, dim=dim, field=field, flag="left_unital"))
            _assert_exact(a)
            _assert_exact(permuted(a, seed + 1))


# -- a wrong hom-unity formula --------------------------------------------------------


def _two_sided_cases():
    quaternions = cayley_dickson_chain(2)[2].base
    projection_tilde = unitalize(builtin_corpus()[0][1])[0]
    return [quaternions, unitalize(quaternions)[0], projection_tilde]


def _wrong_formulas(a, variant="two_sided"):
    """The full space, the zero space, a line outside the true hu_n (of
    ``variant``) and, where hu_n has dimension 2 or more, a proper subspace
    of it."""
    f, n = a.field, a.dim
    true = homstruct.hu_n(a, variant)
    wrong = [Subspace.full(f, n), Subspace.zero(f, n)]
    wrong += [
        Subspace.from_rows(f, n, [a.basis(i)])
        for i in range(n)
        if not true.contains(a.basis(i))
    ][:1]
    if true.dim >= 2:
        wrong.append(Subspace.from_rows(f, n, true.basis.rows[:1]))
    return [w for w in wrong if w != true]


def test_wrong_formula_cases_cover_nonzero_and_larger_hu_n():
    dims = [homstruct.hu_n(a, "two_sided").dim for a in _two_sided_cases()]
    assert dims[0] == 1 and max(dims) >= 2
    assert all(not find_unities(a, "two_sided").is_empty for a in _two_sided_cases())


@pytest.mark.parametrize("case", range(3))
def test_wrong_hu_n_cannot_fool_the_certified_stop(case, monkeypatch):
    a = _two_sided_cases()[case]
    reference = reference_twist_space(a)
    wrong = _wrong_formulas(a)
    assert len(wrong) >= 3
    try:
        for w in wrong:
            clear_memo()
            monkeypatch.setattr(homstruct, "hu_n", lambda a, variant="two_sided", w=w: w)
            assert twist_space(a).space == reference
            with pytest.raises(InternalCheckFailure):
                ac_two_sided(a)
            monkeypatch.undo()
    finally:
        clear_memo()
    assert twist_space(a).space == reference
    assert ac_two_sided(a) == homstruct.hu_n(a, "two_sided")


# -- the work bound -------------------------------------------------------------------


def _triples_drawn(a, monkeypatch):
    """Solves the twist space of ``a`` cold and counts the basis triples drawn."""
    drawn = []
    order = homstruct._triple_order

    def counting(n):
        for t in order(n):
            drawn.append(t)
            yield t

    clear_memo()
    monkeypatch.setattr(homstruct, "_triple_order", counting)
    try:
        ts = twist_space(a)
    finally:
        monkeypatch.undo()
        clear_memo()
    return ts, len(drawn)


def test_quaternions_and_their_unitalization_stop_at_the_formula(monkeypatch):
    # measured: 4 of 64 and 4 of 125 triples; without the n-unknown solve and
    # its certified stop at hu_n both read every triple
    quaternions = cayley_dickson_chain(2)[2].base
    for a, limit in ((quaternions, 6), (unitalize(quaternions)[0], 6)):
        ts, drawn = _triples_drawn(a, monkeypatch)
        assert ts.space == reference_twist_space(a)
        assert ts.dim >= 1
        assert drawn <= limit < a.dim**3


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sedenions_draw_few_triples_past_the_unity_rows(field, seed, monkeypatch):
    # measured: 5, 5 and 6 triples on seeds 0, 1, 2 over both fields, down
    # from 29, 32 and 23 in the n^2 unknowns of a twist solve without a unity
    sedenions = permuted(cayley_dickson_chain(4, field=field)[4].base, seed)
    ts, drawn = _triples_drawn(sedenions, monkeypatch)
    assert ts.dim == 0
    assert drawn <= 8


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=str)
def test_sedenion_draws_stay_bounded_on_16_bases(field, monkeypatch):
    # the n-unknown solve sees the triples in the fixed scrambled order, so
    # the work does not follow the basis: measured 4 to 12 triples
    base = cayley_dickson_chain(4, field=field)[4].base
    drawn = [_triples_drawn(permuted(base, seed), monkeypatch)[1] for seed in range(16)]
    assert max(drawn) <= 12, drawn


# -- one row family: n unknowns on the side of a unity ---------------------------------


def _one_sided_cases():
    """``(algebra, side of its unity)``: two-sided, left-only and right-only
    unital algebras, the sedenions over Q and GF(65521)."""
    quaternions = cayley_dickson_chain(2)[2].base
    left_only = random_algebra(GeneratorConfig(seed=13, dim=2, field=QQ, flag="left_unital"))
    projection = builtin_corpus()[0][1]  # every e_i is a left unity
    cases = [(quaternions, "left"), (left_only, "left"), (opposite(left_only), "right")]
    cases += [(projection, "left"), (opposite(projection), "right")]
    cases += [(cayley_dickson_chain(4, field=f)[4].base, "left") for f in (QQ, GF(65521))]
    return cases


def test_one_sided_cases_cover_each_unity_kind():
    kinds = set()
    for a, side in _one_sided_cases():
        assert not find_unities(a, side).is_empty
        kinds.add(tuple(not find_unities(a, s).is_empty for s in ("left", "right")))
    assert kinds == {(True, True), (True, False), (False, True)}


@pytest.mark.parametrize("case", range(7))
def test_hu_t_on_the_unity_side_solves_no_twist_space(case):
    a, side = _one_sided_cases()[case]
    clear_memo()
    try:
        hu = hu_t(a, side)
        assert homstruct.twist_space.cache_info().misses == 0
    finally:
        clear_memo()
    assert hu == _reference_hu_t(a, side, reference_twist_space(a))


def _sides_without_a_unity():
    """``(algebra, side)`` with no unity on ``side``: the projection algebra
    on the right and its opposite on the left, then both sides of the
    algebras without any unity."""
    corpus = dict(builtin_corpus() + generated_algebras(5))
    projection = corpus["builtin/projection2"]
    cases = [(projection, "right"), (opposite(projection), "left")]
    for name in ("nil2", "cross_product", "leib2", "poly_t_deg6"):
        cases += [(corpus[f"builtin/{name}"], side) for side in ("left", "right")]
    cases += [(corpus["generated/0004-Q-d4-none"], side) for side in ("left", "right")]
    return cases


def test_sides_without_a_unity_have_none():
    assert len(_sides_without_a_unity()) == 12
    assert len(_one_sided_stop_cases()) == 16
    assert all(find_unities(a, side).is_empty for a, side in _sides_without_a_unity())


@pytest.mark.parametrize("case", range(12))
def test_hu_t_on_a_side_without_a_unity_solves_no_twist_space(case):
    a, side = _sides_without_a_unity()[case]
    clear_memo()
    try:
        hu = hu_t(a, side)
        assert homstruct.twist_space.cache_info().misses == 0
    finally:
        clear_memo()
    assert hu == _reference_hu_t(a, side, reference_twist_space(a))


def test_leibniz_hom_unities_solve_no_twist_space():
    leib2 = dict(builtin_corpus())["builtin/leib2"]
    clear_memo()
    try:
        hu_n_leibniz(leib2)
        assert homstruct.twist_space.cache_info().misses == 0
    finally:
        clear_memo()


def _one_sided_stop_cases():
    """``(algebra, side)``: the left-only algebra and its opposite on both
    sides, and the sides without a unity."""
    left_only = random_algebra(GeneratorConfig(seed=13, dim=2, field=QQ, flag="left_unital"))
    cases = [(b, side) for b in (left_only, opposite(left_only)) for side in ("left", "right")]
    return cases + _sides_without_a_unity()


@pytest.mark.parametrize("case", range(16))
def test_wrong_one_sided_hu_n_cannot_fool_the_certified_stop(case, monkeypatch):
    a, side = _one_sided_stop_cases()[case]
    reference = _reference_hu_t(a, side, reference_twist_space(a))
    clear_memo()
    wrong = _wrong_formulas(a, side)
    assert len(wrong) >= 2
    try:
        for w in wrong:
            clear_memo()
            monkeypatch.setattr(homstruct, "hu_n", lambda a, variant="two_sided", w=w: w)
            assert hu_t(a, side) == reference
            monkeypatch.undo()
    finally:
        clear_memo()
    assert hu_t(a, side) == reference


@pytest.mark.parametrize("case", range(7))
def test_twist_space_builds_no_twist_system_in_n_squared_unknowns(case, monkeypatch):
    # an n^2-column solver holds only the flattened L_b (or R_b), b in the
    # basis of hu_t on the unity side: the span whose canonical basis is the
    # twist space's
    a, side = _one_sided_cases()[case]
    nn = a.dim**2
    offered = []
    add_dense, add_sparse = NullspaceSolver.add_dense, NullspaceSolver.add_sparse

    def dense(self, row):
        if self.ncols == nn:
            offered.append(tuple(row))
        return add_dense(self, row)

    def sparse(self, pairs):
        pairs = list(pairs)
        if self.ncols == nn:
            offered.append(("sparse", tuple(pairs)))
        return add_sparse(self, pairs)

    clear_memo()
    monkeypatch.setattr(NullspaceSolver, "add_dense", dense)
    monkeypatch.setattr(NullspaceSolver, "add_sparse", sparse)
    try:
        ts = twist_space(a)
    finally:
        monkeypatch.undo()
        clear_memo()
    op = a.left_op if side == "left" else a.right_op
    maps = {op(b).flatten() for b in hu_t(a, side).basis.rows}
    assert set(offered) <= maps
    assert ts.space == reference_twist_space(a)


def test_twist_space_scans_each_basis_map_once(monkeypatch):
    # the maps that certify hu_n as hu_t's kernel are the twist space's basis
    # maps, scanned once for both; with one unity the scan is the only oracle
    quaternions = cayley_dickson_chain(2)[2].base
    left_only = random_algebra(GeneratorConfig(seed=13, dim=2, field=QQ, flag="left_unital"))
    cases = [(quaternions, 1), (unitalize(quaternions)[0], 2)]
    cases += [(left_only, 1), (opposite(left_only), 1)]
    cases += [(cayley_dickson_chain(4, field=f)[4].base, 0) for f in (QQ, GF(65521))]
    scan = HomAlgebra.is_hom_associative
    for a, dim in cases:
        calls = []

        def counting(self):
            calls.append(self)
            return scan(self)

        clear_memo()
        monkeypatch.setattr(HomAlgebra, "is_hom_associative", counting)
        try:
            ts = twist_space(a)
        finally:
            monkeypatch.undo()
            clear_memo()
        assert ts.dim == dim
        assert len(calls) == dim

"""hu_n as one stacked solve, and the unitalization cross-check that relies on it.

``homstruct.hu_n(a, "two_sided")`` solves the rows of x w = 0 (w over the
associator values), x e_b = e_b x and the slot rows of the left and middle
nuclei in one ``nullspace``.  These tests compare it with the meet of the separately solved
spaces, and count the subspace solves that the unitalization cross-check
``ac_unitalized_by_eigenspaces`` runs on the unitalization.
"""

import random

from conftest import clear_memo
from homalg import homstruct, subspaces
from homalg.algebra import Algebra
from homalg.campaign import builtin_corpus, generated_algebras
from homalg.constructions import (
    GeneratorConfig,
    ac_unitalized_by_eigenspaces,
    opposite,
    random_algebra,
    unitalize,
)
from homalg.fields import GF
from homalg.linalg import Subspace, meet


def _two_sided_meet(a):
    return meet(
        subspaces.center(a),
        subspaces.nucleus(a, "full"),
        subspaces.annihilator(a, subspaces.span_of(a, "associators"), "left"),
    )


def _one_sided_meet(a, side):
    return meet(
        subspaces.centralizer(a, subspaces.span_of(a, "products")),
        subspaces.nucleus(a, side),
        subspaces.nucleus(a, "middle"),
        subspaces.annihilator(a, subspaces.span_of(a, "associators"), side),
    )


def _central_algebras(count):
    """Sparse GF(2)/GF(3) algebras, most with e_0 commuting with every basis
    element and some unitalized: centers that are often nonzero, so that the
    slot rows of the nuclei decide the result."""
    rng = random.Random(1)
    out = []
    for _ in range(count):
        p, n, density = rng.choice((2, 3)), rng.choice((2, 3, 3, 4)), rng.choice((0.1, 0.2, 0.3))
        t = [[[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.7:
            for j in range(n):
                t[j][0] = list(t[0][j])
        a = Algebra(GF(p), t)
        out.append(unitalize(a)[0] if rng.random() < 0.3 else a)
    return out


def _direct_sum(b, c):
    """B x C on the basis of B followed by that of C."""
    m, n = b.dim, c.dim
    t = [[[b.field.zero] * (m + n) for _ in range(m + n)] for _ in range(m + n)]
    for i in range(m):
        for j in range(m):
            t[i][j][:m] = b.products[i][j]
    for i in range(n):
        for j in range(n):
            t[m + i][m + j][m:] = c.products[i][j]
    return Algebra(b.field, t)


def _unital_sums():
    """B x C for unitalized non-associative B and C over one field.  The unity
    of C is central and nuclear and kills every associator of B, among them
    the first associator value, so only the R_w rows of the later values
    (those of C) cut it out of hu_n."""
    unital = [unitalize(a)[0] for _, a in generated_algebras(16) if not a.is_associative()]
    return [
        (f"sum/{i}-{j}", _direct_sum(b, c))
        for i, b in enumerate(unital[:6])
        for j, c in enumerate(unital[:6])
        if b.field == c.field
    ]


def test_the_later_associator_values_count():
    for name, a in _unital_sums():
        first = Subspace.from_rows(a.field, a.dim, [next(iter(a.associators.values()))])
        only_first = meet(
            subspaces.center(a), subspaces.nucleus(a, "full"), subspaces.annihilator(a, first, "left")
        )
        assert homstruct.hu_n(a, "two_sided").is_zero() and not only_first.is_zero(), name


# numbers 1229 and 2513 of _central_algebras(2514): hu_n changes on the first
# if the middle slot rows are read for the blocks (t, s) instead of (s, t), on
# the second if the left ones are
BLOCK_SENSITIVE = (
    (GF(2), (((0, 1, 0), (0, 0, 0), (0, 0, 0)), ((0,) * 3,) * 3, ((0, 0, 0), (0, 1, 1), (0, 0, 1)))),
    (
        GF(3),
        (
            ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),
            ((0, 0, 0, 0), (0, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ),
    ),
)


def test_one_slot_nucleus_does_not_suffice():
    # for a central x, (x, a, b) - (a, x, b) + (a, b, x) = 0, so hu_n stacks
    # the rows of two slot nuclei; neither one alone gives the third
    short = {"left": 0, "middle": 0}
    for a in _central_algebras(600):
        ann = subspaces.annihilator(a, subspaces.span_of(a, "associators"), "left")
        for slot in short:
            short[slot] += meet(subspaces.center(a), subspaces.nucleus(a, slot), ann) != _two_sided_meet(a)
    assert short["left"] > 0 and short["middle"] > 0, short


def _corpus():
    """``builtin_corpus()`` and ``generated_algebras(200)`` with their
    unitalizations and their opposites (630 algebras), then GF(2)/GF(3)
    ``random_algebra``s of every flag with their opposites, the associative
    ones among a further draw, the zero algebras, ``_central_algebras``,
    ``BLOCK_SENSITIVE`` and ``_unital_sums``."""
    base = builtin_corpus() + generated_algebras(200)
    corpus = list(base)
    corpus += [(f"{name}/unitalized", unitalize(a)[0]) for name, a in base]
    corpus += [(f"{name}/opposite", opposite(a)) for name, a in base]
    assert len(corpus) == 630
    associative = 0
    for p in (2, 3):
        field = GF(p)
        for flag in ("none", "left_unital", "commutative", "anticommutative"):
            for seed in range(12):
                cfg = GeneratorConfig(seed=seed, dim=2 + seed % 3, field=field, flag=flag)
                a = random_algebra(cfg)
                corpus += [(f"random/F{p}-{seed}-{flag}", a), (f"random/F{p}-{seed}-{flag}/op", opposite(a))]
        for seed in range(400):
            cfg = GeneratorConfig(seed=seed, dim=2 + seed % 2, field=field, pool=(0, 0, 0, 1))
            a = random_algebra(cfg)
            if a.is_associative() and not a.is_zero_algebra():
                corpus.append((f"random/F{p}-{seed}-associative", a))
                associative += 1
        for n in (1, 3):
            corpus.append((f"zero/F{p}-d{n}", Algebra(field, [[[0] * n] * n] * n)))
    assert associative >= 10
    corpus += [(f"central/{i}", a) for i, a in enumerate(_central_algebras(600))]
    corpus += [(f"block_sensitive/{f}", Algebra(f, t)) for f, t in BLOCK_SENSITIVE]
    return corpus + _unital_sums()


def test_stacked_hu_n_matches_the_meet():
    corpus = _corpus()
    empty_tables = 0
    for name, a in corpus:
        empty_tables += not a.associators
        assert homstruct.hu_n(a, "two_sided") == _two_sided_meet(a), name
        for side in ("left", "right"):
            assert homstruct.hu_n(a, side) == _one_sided_meet(a, side), (name, side)
    assert empty_tables > 50


def test_stacked_hu_n_of_a_zero_algebra_is_everything():
    a = Algebra(GF(3), [[[0] * 3] * 3] * 3)
    for variant in ("two_sided", "left", "right"):
        assert homstruct.hu_n(a, variant).is_full()


def _record_solves(monkeypatch):
    """Record (name, algebra) for every call of the subspace solvers that the
    separate-space hu_n used, reached through any module."""
    calls = []
    for name in ("nucleus", "annihilator", "centralizer", "center", "span_of", "_slot_unity_span"):
        solver = getattr(subspaces, name)

        def recording(a, *args, _solver=solver, _name=name):
            calls.append((_name, a) if _name != "span_of" else ((_name, args[0]), a))
            return _solver(a, *args)

        monkeypatch.setattr(subspaces, name, recording)
    return calls


def test_unitalization_cross_check_solves_no_separate_space(monkeypatch, quaternions):
    nonassociative = next(a for _, a in generated_algebras(8) if not a.is_associative())
    for a in (nonassociative, quaternions):
        clear_memo()
        calls = _record_solves(monkeypatch)
        ac_unitalized_by_eigenspaces(a)
        monkeypatch.undo()
        tilde = unitalize(a)[0]
        on_tilde = {name for name, b in calls if b == tilde}
        # the one-sided hu_n reads the product span, A^2 = A on a unital algebra
        assert on_tilde == {("span_of", "products")}, on_tilde
        # the base algebra's own spaces are still solved for the eigenspace route
        assert ("nucleus", a) in calls and ("centralizer", a) in calls


def test_stacked_hu_n_stops_before_the_nucleus_rows(monkeypatch, sedenions):
    drawn = {}
    operator_rows, slot_rows = subspaces.operator_rows, subspaces.slot_rows

    def counting(rows, key):
        for row in rows:
            drawn[key] = drawn.get(key, 0) + 1
            yield row

    def operators(vectors, op, minus=None):
        return counting(operator_rows(vectors, op, minus), "commuting" if minus else "R_w")

    monkeypatch.setattr(subspaces, "operator_rows", operators)
    monkeypatch.setattr(subspaces, "slot_rows", lambda *args: counting(slot_rows(*args), "slot"))
    clear_memo()
    # R_w of the first associator value is injective: its 16 rows end the solve
    assert homstruct.hu_n(sedenions, "two_sided").is_zero()
    assert drawn == {"R_w": 16}
    # the unitalization needs the commuting rows, and no nucleus row
    drawn.clear()
    a = dict(generated_algebras(8))["generated/0002-Q-d3-commutative"]
    assert homstruct.hu_n(unitalize(a)[0], "two_sided").is_zero()
    assert drawn["R_w"] > 0 and drawn["commuting"] > 0 and "slot" not in drawn

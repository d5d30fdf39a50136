"""Centralizers, nuclei, annihilators, spans, unity sets, idempotents."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import product as iter_product
from pathlib import Path

import pytest

from conftest import clear_memo, fpalg, permuted, projection_tensor, qalg
from homalg import subspaces
from homalg.campaign import builtin_corpus, generated_algebras
from homalg.constructions import GeneratorConfig, cayley_dickson_chain, random_algebra
from homalg.errors import (
    DimensionMismatch,
    InternalCheckFailure,
    SearchSpaceTooLarge,
    UnsupportedDimensionOverQ,
)
from homalg.fields import GF, QQ
from homalg.linalg import AffineSet, Matrix, Subspace, kernel, meet
from homalg.subspaces import (
    annihilator,
    center,
    centralizer,
    find_unities,
    idempotents,
    nucleus,
    span_of,
)
from homalg.subspaces import _rational_roots


def full(a):
    return Subspace.full(a.field, a.dim)


def span1(a):
    return Subspace.from_rows(a.field, a.dim, [a.basis(0)])


# -- centralizer / center -------------------------------------------------------


def test_center_of_commutative_is_full():
    a = random_algebra(GeneratorConfig(seed=5, dim=3, field=QQ, flag="commutative"))
    assert center(a).is_full()


def test_center_quaternions_is_reals(quaternions):
    assert center(quaternions) == span1(quaternions)


def test_center_sedenions_is_reals(sedenions):
    assert center(sedenions) == span1(sedenions)


def test_centralizer_relative(quaternions):
    # the centralizer of span{1, i} inside the quaternions is span{1, i}
    s = Subspace.from_rows(QQ, 4, [quaternions.basis(0), quaternions.basis(1)])
    assert centralizer(quaternions, s) == s


# -- nucleus ---------------------------------------------------------------------


def test_nucleus_associative_full(mat2):
    for slot in ("left", "middle", "right", "full"):
        assert nucleus(mat2, slot).is_full()


def test_nucleus_octonions_is_reals(octonions):
    assert nucleus(octonions, "full") == span1(octonions)


def test_nucleus_sedenions_is_reals(sedenions):
    assert nucleus(sedenions, "full") == span1(sedenions)


SLOTS = ("left", "middle", "right")


def _reference_nucleus(a, slot):
    """The slot nucleus from general associators of basis elements, one
    kernel of every block with no known part."""
    n = a.dim
    e = a.basis_elements()
    rows = []
    for s, t in iter_product(range(n), repeat=2):
        if slot == "left":
            cols = [a.associator(e[c], e[s], e[t]) for c in range(n)]
        elif slot == "middle":
            cols = [a.associator(e[s], e[c], e[t]) for c in range(n)]
        else:
            cols = [a.associator(e[s], e[t], e[c]) for c in range(n)]
        rows += zip(*cols)
    return kernel(Matrix(a.field, rows))


def test_slot_nuclei_match_the_solve_without_a_known_part(cd_chain):
    sedenions = cd_chain[4].base
    corpus = [a for _, a in builtin_corpus() + generated_algebras(40)] + [
        cd_chain[3].base,
        sedenions,
        permuted(sedenions, 1),
        cayley_dickson_chain(4, field=GF(65521))[4].base,
    ]
    clear_memo()
    with_unity = 0
    for a in corpus:
        for slot in SLOTS:
            assert nucleus(a, slot) == _reference_nucleus(a, slot), (a, slot)
            with_unity += subspaces._slot_unity_span(a, slot) is not None
    assert with_unity >= 40


def _count_nucleus_rows(monkeypatch, a):
    """Rows each slot's nucleus solve draws from its iterable."""
    drawn = []
    solve = subspaces.nullspace

    def counting(field, ncols, rows, known=None):
        seen = []

        def counted():
            for row in rows:
                seen.append(row)
                yield row

        out = solve(field, ncols, counted(), known)
        drawn.append(len(seen))
        return out

    clear_memo()
    monkeypatch.setattr(subspaces, "nullspace", counting)
    for slot in SLOTS:
        assert nucleus(a, slot) == span1(a)
    return drawn


def test_slot_nuclei_stop_at_the_unity_span(sedenions, monkeypatch):
    # the unity spans each slot nucleus, so the solve stops at rank 15: on
    # the canonical basis at most a quarter of the 4,096 rows
    drawn = _count_nucleus_rows(monkeypatch, sedenions)
    assert len(drawn) == 3 and max(drawn) <= 1024
    # without the known part no solve reaches full rank and all rows are read
    monkeypatch.setattr(subspaces, "_slot_unity_span", lambda a, slot: None)
    assert _count_nucleus_rows(monkeypatch, sedenions) == [4096] * 3


def test_nucleus_rejects_a_unity_outside_its_slot(sedenions, monkeypatch):
    f, n = sedenions.field, sedenions.dim
    unity, e1 = sedenions.basis(0), sedenions.basis(1)
    bogus = [
        AffineSet(f, n, e1, Subspace.zero(f, n)),
        AffineSet(f, n, unity, Subspace.from_rows(f, n, [e1])),
    ]
    for unities in bogus:
        clear_memo()
        monkeypatch.setattr(subspaces, "find_unities", lambda a, side="left": unities)
        for slot in SLOTS:
            with pytest.raises(InternalCheckFailure, match=f"outside the {slot} nucleus"):
                nucleus(sedenions, slot)
    clear_memo()


# -- annihilators ------------------------------------------------------------------


def test_annihilator_of_zero_subspace_is_full(proj2):
    z = Subspace.zero(QQ, 2)
    for side in ("left", "right", "both"):
        assert annihilator(proj2, z, side).is_full()


def test_annihilators_nil2(nil2):
    expected = Subspace.from_rows(QQ, 2, [nil2.basis(1)])
    assert annihilator(nil2, full(nil2), "left") == expected
    assert annihilator(nil2, full(nil2), "right") == expected


def test_annihilator_projection(proj2):
    got = annihilator(proj2, full(proj2), "left")
    assert got == Subspace.from_rows(QQ, 2, [(F(1), F(-1))])
    assert annihilator(proj2, full(proj2), "right").is_zero()


# -- spans ----------------------------------------------------------------------------


def test_associator_span_zero_for_associative(mat2):
    assert span_of(mat2, "associators").is_zero()


def test_associator_span_nonzero_sedenions(sedenions):
    assert span_of(sedenions, "associators").dim > 0


def test_product_span_nil2(nil2):
    assert span_of(nil2, "products") == Subspace.from_rows(QQ, 2, [nil2.basis(1)])


def test_commutator_span_commutative_zero():
    a = random_algebra(GeneratorConfig(seed=9, dim=3, field=QQ, flag="commutative"))
    assert span_of(a, "commutators").is_zero()


# -- unities ---------------------------------------------------------------------------


def test_quaternion_unity(quaternions):
    u = find_unities(quaternions, "two_sided")
    assert u.is_singleton()
    assert u.particular == quaternions.basis(0)


def test_projection_unities(proj2):
    left = find_unities(proj2, "left")
    assert not left.is_empty
    assert left.particular == (F(1), F(0))
    assert left.direction.dim == 1
    assert find_unities(proj2, "right").is_empty
    assert find_unities(proj2, "two_sided").is_empty


def test_nil2_has_no_unities(nil2):
    for side in ("left", "right", "two_sided"):
        assert find_unities(nil2, side).is_empty


def test_unity_membership_checks_the_length(quaternions, nil2):
    unity = quaternions.basis(0)
    assert find_unities(quaternions, "left").contains(unity)
    with pytest.raises(DimensionMismatch):
        find_unities(quaternions, "left").contains(unity + (F(5),))
    with pytest.raises(DimensionMismatch):
        find_unities(nil2, "left").contains((F(0),) * 3)


def test_left_unity_direction_is_left_annihilator(proj2):
    left = find_unities(proj2, "left")
    assert left.direction == annihilator(proj2, full(proj2), "left")


def test_both_sides_unital_implies_unique(quaternions):
    left = find_unities(quaternions, "left")
    right = find_unities(quaternions, "right")
    assert left.is_singleton() and right.is_singleton()
    assert left.particular == right.particular


def test_f2_field_algebra_unital_and_skew():
    a = fpalg(2, [[[1]]])
    assert not find_unities(a, "two_sided").is_empty
    assert a.is_skew_symmetric()


def test_skew_symmetric_center_is_annihilator_over_q():
    a = random_algebra(
        GeneratorConfig(seed=12, dim=4, field=QQ, flag="anticommutative")
    )
    assert a.is_skew_symmetric()
    assert center(a) == annihilator(a, full(a), "both")


# -- idempotents -----------------------------------------------------------------------


def test_idempotents_zero_always_included(nil2):
    assert nil2.zero() in idempotents(nil2, full(nil2))


def test_idempotents_projection_ray(proj2):
    # within span{(1,0)}: the only solutions of (s e0)^2 = s e0 are s in {0, 1}
    got = idempotents(proj2, span1(proj2))
    assert got == [(F(0), F(0)), (F(1), F(0))]


def test_idempotents_projection_full_space_is_infinite(proj2):
    # the whole affine line (sum of coordinates = 1) is idempotent
    with pytest.raises(SearchSpaceTooLarge):
        idempotents(proj2, full(proj2))


def test_idempotents_f2_exhaustive_oracle():
    a = fpalg(2, projection_tensor(2))
    got = idempotents(a, full(a))
    brute = [
        v
        for v in iter_product(range(2), repeat=2)
        if a.multiply(v, v) == tuple(v)
    ]
    assert got == sorted(brute)


def test_idempotents_f3_within_subspace():
    a = fpalg(3, projection_tensor(3))
    within = Subspace.from_rows(GF(3), 3, [a.basis(0)])
    got = idempotents(a, within)
    assert got == [(0, 0, 0), (1, 0, 0)]


def test_idempotents_complexes(complexes):
    # z^2 = z in the complex numbers: 0 and 1 only
    got = idempotents(complexes, full(complexes))
    assert got == [(F(0), F(0)), (F(1), F(0))]


def test_idempotents_split_pair():
    # Q x Q componentwise: four idempotents
    a = qalg([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    got = idempotents(a, full(a))
    assert got == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]


def test_idempotents_three_rational_directions_one_of_them_b1():
    # Q x Q in the basis c0 = 2u, c1 = u + 3w (u, w the componentwise
    # idempotents): u = c0/2 lies on the line of b1 = c0, and w = (c1 - u)/3
    # and u + w are fractional
    a = qalg([[[2, 0], [1, 0]], [[1, 0], [-1, 3]]])
    got = idempotents(a, full(a))
    assert got == [
        (F(-1, 6), F(1, 3)),
        (F(0), F(0)),
        (F(1, 3), F(1, 3)),
        (F(1, 2), F(0)),
    ]


def test_idempotents_irrational_square_root_gives_only_0_and_1():
    # Q(r) with r^2 = 2: (s + r)^2 is parallel to s + r only for s^2 = 2
    a = qalg([[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    assert idempotents(a, full(a)) == [(F(0), F(0)), (F(1), F(0))]


def test_idempotents_with_huge_coefficients_finish_exactly():
    # Q x Q in the basis c0 = N u, c1 = u + M w with N, M near 10^60
    n, m = 10**60 + 7, 3 * 10**59 + 1
    a = qalg([[[n, 0], [1, 0]], [[1, 0], [F(1 - m, n), m]]])
    got = idempotents(a, full(a))
    assert got == sorted(
        [(F(0), F(0)), (F(1, n), F(0)), (F(-1, n * m), F(1, m)), (F(m - 1, n * m), F(1, m))]
    )


def test_idempotents_grid_oracle_over_q():
    # every small-height s b1 + t b2 that is idempotent is found, and
    # everything found is idempotent
    heights = sorted({F(p, q) for p in range(-4, 5) for q in range(1, 4)})
    nonzero = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        entry = lambda: rng.choice([0, 0, 1, -1, 2])
        tensor = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        if seed % 2:
            tensor[0][0] = [1] + [0] * (n - 1)  # plant the idempotent e0
        a = qalg(tensor)
        b2 = tuple(rng.randint(-2, 2) for _ in range(n))
        within = Subspace.from_rows(QQ, n, [a.basis(0), b2])
        if within.dim < 2:
            continue
        try:
            got = idempotents(a, within)
        except SearchSpaceTooLarge:
            continue
        assert all(a.multiply(x, x) == x for x in got)
        b1, b2 = within.basis.rows
        for s, t in iter_product(heights, repeat=2):
            x = tuple(s * u + t * v for u, v in zip(b1, b2))
            if a.multiply(x, x) == x:
                assert x in got
        nonzero += len(got) > 1
    assert nonzero >= 10


def test_rational_roots_of_products_of_linear_factors():
    rng = random.Random(3)
    for _ in range(50):
        roots = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, 3))]
        poly = [F(rng.randint(1, 9), rng.randint(1, 5))]  # lowest degree first
        for r in roots:
            poly = [c - r * d for c, d in zip([F(0)] + poly, poly + [F(0)])]
        assert _rational_roots(poly + [F(0)]) == sorted(set(roots))
    assert _rational_roots([-2, 0, 0, 1]) == []  # x^3 = 2
    assert _rational_roots([-1, 2, -1, 2]) == [F(1, 2)]  # (2x - 1)(x^2 + 1)


def test_q_idempotent_search_does_not_import_sympy():
    code = (
        "import sys\n"
        "from homalg.fields import QQ\n"
        "from homalg.algebra import Algebra\n"
        "from homalg.linalg import Subspace\n"
        "from homalg.subspaces import idempotents\n"
        "a = Algebra(QQ, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])\n"
        "assert len(idempotents(a, Subspace.full(QQ, 2))) == 4\n"
        "print('sympy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_idempotents_dim_cap_over_q(quaternions):
    with pytest.raises(UnsupportedDimensionOverQ):
        idempotents(quaternions, full(quaternions))


def test_idempotents_fp_cap():
    a = fpalg(2, projection_tensor(3))
    with pytest.raises(SearchSpaceTooLarge):
        idempotents(a, full(a), cap=4)


# -- cross-subspace invariants ---------------------------------------------------------


def test_center_contained_in_product_centralizer(octonions):
    prod = span_of(octonions, "products")
    assert centralizer(octonions, prod).contains_subspace(center(octonions))


def test_quaternion_center_nucleus_annihilator_meet(quaternions):
    got = meet(
        meet(center(quaternions), nucleus(quaternions, "full")),
        annihilator(quaternions, Subspace.zero(QQ, 4), "left"),
    )
    assert got == span1(quaternions)

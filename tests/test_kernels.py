"""Row-reduction kernel contracts: ascending pivots, fully reduced rows,
normalized pivot entries, and every input row in the span of the output;
the packed-word rank against the rank of ``rref_fp``."""

import random
from fractions import Fraction
from math import gcd

from homalg import kernels, linalg
from homalg.fields import GF
from homalg.linalg import Matrix, is_injective, kernel


def _random_int_rows(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def _check_echelon(rows, pivots):
    """Pivots ascend, each row is zero left of its pivot, and every pivot
    column is zero in every other row."""
    assert len(rows) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, (row, c) in enumerate(zip(rows, pivots)):
        assert row[c] != 0
        assert not any(row[:c])
        for j, other in enumerate(rows):
            if j != i:
                assert other[c] == 0


def _reduces_to_zero(row, red, pivots, div, sub):
    r = list(row)
    for prow, c in zip(red, pivots):
        coef = div(r[c], prow[c])
        if coef:
            r = [sub(x, coef * y) for x, y in zip(r, prow)]
    return not any(r)


def _check_fp(rows, p):
    red, pivots = kernels.rref_fp([list(r) for r in rows], p)
    _check_echelon(red, pivots)
    for row, c in zip(red, pivots):
        assert row[c] == 1
        assert all(0 <= v < p for v in row)
    for row in rows:
        assert _reduces_to_zero(
            row, red, pivots, lambda a, b: a * pow(b, -1, p) % p, lambda a, b: (a - b) % p
        )
    return red, pivots


def _check_int(rows):
    red, pivots = kernels.rref_int([list(r) for r in rows])
    _check_echelon(red, pivots)
    for row, c in zip(red, pivots):
        assert row[c] > 0
        content = 0
        for v in row:
            content = gcd(content, v)
        assert content == 1
    for row in rows:
        assert _reduces_to_zero(row, red, pivots, Fraction, lambda a, b: a - b)
    return red, pivots


def test_backend_reported():
    assert kernels.BACKEND == "pure-python"


def test_rref_fp_contract():
    rng = random.Random(1234)
    for trial in range(150):
        p = rng.choice([2, 3, 5, 7, 65521])
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [[v % p for v in r] for r in _random_int_rows(rng, nrows, ncols)]
        _check_fp(rows, p)


def _gauss_jordan_fp(rows, p):
    """Reference: one-phase Gauss-Jordan mod p, clearing each pivot column
    above and below as soon as the pivot is found."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    if nrows == 0:
        return [], []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][col]), -1)
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], p - 2, p)
        prow[:] = [v * inv % p for v in prow]
        for r in range(nrows):
            b = rows[r][col]
            if r != rank and b:
                rows[r] = [(x - b * y) % p for x, y in zip(rows[r], prow)]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _reference_cases(rng, p):
    """(label, rows) over F_p: every shape class the two phases distinguish."""
    def rand(nrows, ncols):
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]

    n = rng.randint(1, 7)
    yield "tall", rand(n + rng.randint(1, 6), n)
    yield "square", rand(n, n)
    base = rand(rng.randint(1, n), n + 2)
    deficient = [list(rng.choice(base)) for _ in range(n + 4)]
    for row in deficient[: len(deficient) // 2]:  # scalar multiples too
        lam = rng.randrange(1, p) if p > 2 else 1
        row[:] = [v * lam % p for v in row]
    rng.shuffle(deficient)
    yield "repeated", deficient
    yield "wide", rand(n, n + rng.randint(1, 6))
    yield "zero", [[0] * (n + 1) for _ in range(rng.randint(1, 4))]


def test_rref_fp_matches_one_phase_reference():
    rng = random.Random(2024)
    full_rank = set()
    for p in (2, 3, 32749, 65521, (1 << 31) + 11):
        for _ in range(40):
            for label, rows in _reference_cases(rng, p):
                got = kernels.rref_fp([list(r) for r in rows], p)
                assert got == _gauss_jordan_fp(rows, p), (p, label, rows)
                if len(got[1]) == len(rows[0]):
                    full_rank.add(label)
    # the other three classes are rank deficient by construction
    assert full_rank == {"tall", "square"}


def test_rref_int_contract():
    rng = random.Random(99)
    for trial in range(150):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        _check_int(_random_int_rows(rng, nrows, ncols, -30, 30))


def test_rref_int_big_entries():
    rng = random.Random(7)
    rows = [[rng.randint(-(10**25), 10**25) for _ in range(5)] for _ in range(6)]
    red, pivots = _check_int(rows)
    assert pivots == [0, 1, 2, 3, 4]


def test_rref_int_primitive_rows():
    got, pivots = kernels.rref_int([[4, 8], [2, 4]])
    assert got == [[1, 2]]
    assert pivots == [0]


def test_rref_fp_large_modulus():
    # residues above 2**31: products no longer fit a signed 64-bit word
    p = (1 << 31) + 11  # prime
    got = _check_fp([[1, p - 1], [2, 3]], p)
    assert got == ([[1, 0], [0, 1]], [0, 1])
    got = _check_fp([[3, 6], [p - 1, p - 2]], p)
    assert got == ([[1, 2]], [0])


def test_row_primitive_int():
    row = [6, -9, 12]
    assert kernels.row_primitive_int(list(row)) == [2, -3, 4]
    assert kernels.row_primitive_int([-6, 9]) == [2, -3]  # leading entry positive
    assert kernels.row_primitive_int([0, 0]) == [0, 0]


def _lifted_words(rng, rows, p):
    """``rows`` as packed words, each entry raised by a random multiple of p
    to at most nslots·(p−1)², the largest entry the contract allows."""
    top = len(rows[0]) * (p - 1) ** 2
    return [kernels.pack([v + p * rng.randint(0, (top - v) // p) for v in row]) for row in rows]


def test_packed_rank_matches_rref_fp():
    rng = random.Random(2406)
    for p in (2, 3, 32749, 65521):
        for _ in range(40):
            # tall, square, repeated multiples, wide (fewer vectors than
            # slots) and all-zero vectors
            for label, rows in _reference_cases(rng, p):
                nslots = len(rows[0])
                want = len(kernels.rref_fp(rows, p)[1])
                got = kernels.packed_rank(map(kernels.pack, rows), nslots, p)
                assert got == want, (p, label, rows)
                assert kernels.packed_rank(_lifted_words(rng, rows, p), nslots, p) == want
    assert kernels.packed_rank([], 3, 5) == 0
    assert kernels.packed_rank([0, 0], 0, 5) == 0


def _benchmark_shapes(rng, nslots, p):
    """(label, rows) over F_p with exactly ``nslots`` columns: tall, square,
    rank deficient (scalar multiples of a few rows) and wide."""
    def rand(nrows):
        return [[rng.randrange(p) for _ in range(nslots)] for _ in range(nrows)]

    yield "tall", rand(nslots + 3)
    yield "square", rand(nslots)
    base = rand(nslots // 3)
    yield "deficient", [[v * rng.randrange(1, p) % p for v in rng.choice(base)] for _ in range(nslots)]
    yield "wide", rand(nslots // 2)


def _top_words(rows, p):
    """``rows`` as packed words, each entry raised by a multiple of p to the
    largest value the contract allows, nslots·(p−1)² or just below."""
    top = len(rows[0]) * (p - 1) ** 2
    return [kernels.pack([v + p * ((top - v) // p) for v in row]) for row in rows]


def test_packed_rank_at_the_benchmark_shapes():
    # the sedenion operators are 16 slots; 32 doubles them
    rng = random.Random(1629)
    for nslots in (16, 32):
        for p in (2, 3, 32749, 65521):
            for _ in range(3):
                for label, rows in _benchmark_shapes(rng, nslots, p):
                    want = len(kernels.rref_fp(rows, p)[1])
                    for words in (
                        [kernels.pack(r) for r in rows],
                        _lifted_words(rng, rows, p),
                        _top_words(rows, p),
                    ):
                        assert kernels.packed_rank(words, nslots, p) == want, (nslots, p, label)


def test_packed_rank_on_each_side_of_the_in_place_bound(monkeypatch):
    # at 16 slots a slot is reduced in place for p below 2**18 and by the
    # array round trip (one more ``pack`` per reduced vector) above it
    rng = random.Random(18)
    packs = []
    pack = kernels.pack
    monkeypatch.setattr(kernels, "pack", lambda values: packs.append(1) or pack(values))
    for p, round_trips in ((262139, False), (262147, True)):  # primes around 2**18
        assert kernels.packed_fits(16, p)
        for label, rows in _benchmark_shapes(rng, 16, p):
            want = len(kernels.rref_fp(rows, p)[1])
            for words in (_lifted_words(rng, rows, p), _top_words(rows, p)):
                packs.clear()
                assert kernels.packed_rank(words, 16, p) == want, (p, label)
                assert (len(packs) > 1) == round_trips, (p, label)


def test_packed_rank_at_the_slot_bound(monkeypatch):
    p = 1073741789  # the largest prime below 2**30
    assert kernels.packed_fits(8, p) and not kernels.packed_fits(9, p)
    # every entry p − 1: each update adds the most a pivot row can, (p − 1)²
    assert kernels.packed_rank([kernels.pack([p - 1] * 8)] * 8, 8, p) == 1
    # every entry at most 8 (p − 1)², the contract's limit: 8J − I mod p,
    # full rank, reached only if the first, untouched vector is reduced
    top = 8 * (p - 1) ** 2
    rows = [[top - (i == j) * (p + 1) for j in range(8)] for i in range(8)]
    assert kernels.packed_rank(map(kernels.pack, rows), 8, p) == 8
    assert len(kernels.rref_fp([[v % p for v in r] for r in rows], p)[1]) == 8

    calls = []
    packed_rank = kernels.packed_rank
    monkeypatch.setattr(
        kernels, "packed_rank", lambda *args: calls.append(args[1]) or packed_rank(*args)
    )
    for n in (8, 9):
        f = GF(p)
        for m in (
            Matrix(f, [[p - 1] * n for _ in range(n)]),
            Matrix(f, [[p - 1 - (i == j) for j in range(n)] for i in range(n)]),
        ):
            assert is_injective(m) == kernel(m).is_zero()
    # past the bound at 9 columns only the echelon path runs
    assert calls == [8, 8]


def test_packed_rank_computes_its_constants_once_per_shape():
    # in place mod 65521 and by the array round trip mod 1000003 at 16 slots
    rng = random.Random(116)
    kernels._packed_constants.cache_clear()
    for p in (65521, 1000003):
        for label, rows in _benchmark_shapes(rng, 16, p):
            want = len(kernels.rref_fp(rows, p)[1])
            assert kernels.packed_rank(_lifted_words(rng, rows, p), 16, p) == want, (p, label)
    info = kernels._packed_constants.cache_info()
    assert (info.misses, info.hits) == (2, 6)
    assert kernels._packed_constants(16, 65521)[2] and not kernels._packed_constants(16, 1000003)[2]

from fractions import Fraction as F
from time import perf_counter

import pytest

from homalg.fields import GF, QQ, _is_prime, field_from_json


def test_rational_parse_and_format():
    assert QQ.parse("3") == F(3)
    assert QQ.parse("-2/5") == F(-2, 5)
    assert QQ.parse("4/6") == F(2, 3)
    assert QQ.format(F(2, 3)) == "2/3"
    assert QQ.format(F(-7)) == "-7"
    assert QQ.format(F(3, -9)) == "-1/3"  # sign moves to the numerator


def test_integral_rationals_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-7)) is int
    half = QQ.div(1, 2)
    assert half == F(1, 2) and type(half) is F  # never the float 0.5
    two = QQ.div(4, 2)
    assert two == 2 and type(two) is int
    assert type(QQ.div(F(3, 2), F(3, 4))) is int
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert type(QQ.parse(5)) is int
    assert type(QQ.parse("2/3")) is F
    assert QQ.format(2) == QQ.format(F(2)) == "2"
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_rational_bad_literal():
    with pytest.raises(ValueError):
        QQ.parse("2/0")
    with pytest.raises(ValueError):
        QQ.parse("abc")


def test_rational_exponent_is_bounded():
    assert QQ.parse("1e3") == 1000 and type(QQ.parse("1e3")) is int
    assert QQ.parse("-2.5E-2") == F(-1, 40)
    assert QQ.parse("1e4300") == 10**4300
    assert QQ.parse("1e-4300") == F(1, 10**4300)
    for text in ("1e4301", "1E-4301", "1e+999999999", "1e" + "9" * 5000):
        start = perf_counter()
        with pytest.raises(ValueError):
            QQ.parse(text)
        assert perf_counter() - start < 1.0


def test_prime_field_arithmetic():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.div(1, 3) == 2  # 3 * 2 = 6 = 1
    assert f5.neg(2) == 3
    with pytest.raises(ZeroDivisionError):
        f5.div(1, 0)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**4) if _is_prime(n)] == [
        n for n in range(10**4) if _trial_division(n)
    ]


def test_is_prime_rejects_pseudoprimes():
    assert not _is_prime(561)  # Carmichael number
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(ValueError):
        GF(3215031751)


def test_large_prime_modulus_is_fast():
    start = perf_counter()
    f = GF(2**61 - 1)
    assert perf_counter() - start < 0.5
    assert f.mul(2**60, 2) == 1


def test_modulus_at_or_above_2_64_rejected():
    for p in (2**64, 2**64 + 13, 2**89 - 1):  # 2**64 + 13 and 2**89 - 1 are prime
        with pytest.raises(ValueError, match=r"2\*\*64"):
            GF(p)


def test_field_equality_and_json():
    assert GF(7) == GF(7)
    assert GF(7) != GF(5)
    assert QQ == QQ
    assert field_from_json("Q") == QQ
    assert field_from_json({"Fp": 3}) == GF(3)
    assert GF(3).to_json() == {"Fp": 3}
    with pytest.raises(ValueError):
        field_from_json({"GF": 3})


def test_modulus_must_be_an_integer():
    # a float or a string must not be truncated or coerced into a modulus
    for bad in (7.9, "7", True):
        with pytest.raises(ValueError, match="integer"):
            field_from_json({"Fp": bad})
    assert field_from_json({"Fp": 7}) == GF(7)


def test_char_two_normalization():
    f2 = GF(2)
    assert f2.from_int(-3) == 1
    assert f2.parse("5") == 1

"""Exact coefficient fields: the rationals and prime fields.

Scalars are stored as raw values; the field object carries the tag and
supplies arithmetic, parsing and canonical formatting.  Keeping raw values out
of wrapper objects keeps the elimination loops fast.

- Over Q an integral rational is a plain ``int``; ``fractions.Fraction`` is
  kept for values whose denominator is not 1.  ``zero``, ``one`` and
  ``from_int`` give ints, and ``div`` and ``parse`` turn a result with
  denominator 1 into its numerator, so integer-constant algebras never pay
  for ``Fraction`` arithmetic.  Sums and products of fractions may still be
  a ``Fraction`` with denominator 1; since ``Fraction(3) == 3`` and
  ``hash(Fraction(3)) == hash(3)``, equality, hashing and ``format`` do not
  depend on which type holds a value.
- Over F_p a scalar is an ``int`` residue in ``[0, p)``.

The methods act on one pair of scalars.  The product loops of ``algebra``,
``linalg`` and ``homstruct`` do not call them per term: they accumulate raw
scalars with native ``+`` and ``*`` and reduce each result entry once, with
``% p`` where ``char`` is nonzero (``linalg.reduced``; per term in the sparse
``algebra.triple_defects``).  That is exact, since Z -> Z/p is a ring map,
and over Q ``add`` and ``mul`` already are ``+`` and ``*``.
"""

from __future__ import annotations

from fractions import Fraction

from homalg.errors import InvariantViolation


# Deterministic Miller-Rabin bases: these twelve primes decide primality
# exactly for every integer below 2**64 (moduli are capped there).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_MODULUS = 1 << 64
# Largest decimal exponent a Q literal may carry, CPython's limit on the digits
# of an integer literal: Fraction("1e10000000") alone takes seconds.
_MAX_EXPONENT = 4300


def _is_prime(p: int) -> bool:
    """Exact primality test for ``p < 2**64``."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two exact fields."""

    label: str

    def __repr__(self):
        return self.label

    def parse(self, text):
        raise NotImplementedError

    def format(self, value) -> str:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


def _integral(q: Fraction):
    """``q`` as an ``int`` when its denominator is 1, else ``q`` itself."""
    return q.numerator if q.denominator == 1 else q


class RationalField(Field):
    """The field of arbitrary-precision rationals.  Singleton ``QQ``."""

    label = "Q"
    char = 0

    zero = 0
    one = 1

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("homalg.Q")

    def from_int(self, k):
        return k

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        # Fraction(a, b), never a / b: the quotient of two ints is a float
        return _integral(Fraction(a, b))

    def parse(self, text):
        if isinstance(text, int):
            return int(text)
        s = str(text).strip()
        try:
            exp = s.lower().partition("e")[2]
            if exp and abs(int(exp)) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
            return _integral(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {text!r}") from exc

    def format(self, value) -> str:
        try:
            return str(Fraction(value))  # "n" or "n/d", sign on the numerator
        except ValueError as exc:  # past CPython's limit on printed digits
            raise InvariantViolation("a value has too many digits to print") from exc

    def to_json(self):
        return "Q"


class PrimeField(Field):
    """Integers modulo a prime ``p``; residues normalized into ``[0, p)``."""

    char: int

    def __init__(self, p: int):
        if p >= _MAX_MODULUS:
            raise ValueError(f"modulus {p} is not below 2**64")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.label = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("homalg.Fp", self.p))

    def from_int(self, k):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F{self.p}")
        return a * pow(b, -1, self.p) % self.p

    def parse(self, text):
        try:
            return int(str(text).strip()) % self.p
        except ValueError as exc:
            raise ValueError(f"bad F{self.p} literal {text!r}") from exc

    def format(self, value) -> str:
        return str(value % self.p)

    def to_json(self):
        return {"Fp": self.p}


QQ = RationalField()

_FP_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _FP_CACHE:
        _FP_CACHE[p] = PrimeField(p)
    return _FP_CACHE[p]


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        p = obj["Fp"]
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"modulus must be an integer, got {p!r}")
        return GF(p)
    raise ValueError(f"unrecognized field descriptor {obj!r}")

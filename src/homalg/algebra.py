"""Structure-constant algebras and the elementary (hom-)operators.

An algebra of dimension n over an exact field is a tensor c[i][j][k] with
e_i * e_j = sum_k c[i][j][k] e_k.  Elements are coordinate tuples; linear maps
are matrices with column j the image of e_j (one convention everywhere,
including serialized files).
"""

from __future__ import annotations

import os
from array import array
from fractions import Fraction
from math import lcm

from homalg import kernels
from homalg.errors import DimensionMismatch, InvariantViolation
from homalg.fields import QQ, Field, PrimeField, _integral
from homalg.linalg import (
    Matrix,
    basis_vector,
    cert_modulus,
    cert_residues,
    check_same_field,
    combine,
    is_injective,
    kernel,
    sparse_columns,
    sparse_entries,
    vec_is_zero,
    vec_sub,
    zero_vector,
)


def max_dim() -> int:
    """Dimension guard for accidental huge solves (twist systems are n^4 x n^2)."""
    text = os.environ.get("HOMALG_MAX_DIM", "32")
    try:
        return int(text)
    except ValueError as exc:
        raise DimensionMismatch(
            f"HOMALG_MAX_DIM must be an integer, got {text!r}"
        ) from exc


def check_dim(n: int):
    """Raise DimensionMismatch when ``n`` exceeds ``max_dim()``."""
    if n > max_dim():
        raise DimensionMismatch(f"dimension {n} exceeds HOMALG_MAX_DIM={max_dim()}")


def _packed_ops(a) -> dict:
    """For each side, ``n`` packed words of ``n * n`` slots, word i holding
    the columns of L_{e_i} (left) or R_{e_i} (right), column j in slots
    [jn, jn + n); over Q every structure constant scaled by the lcm of their
    denominators, then all taken mod ``cert_modulus``.  Empty past
    ``kernels.packed_fits``."""
    n = a.dim
    p = cert_modulus(a.field)
    if not kernels.packed_fits(n, p):
        return {"left": (), "right": ()}
    scale = 1
    if a.field == QQ:
        for row in a.terms:
            for entries in row:
                for _, c in entries:
                    scale = lcm(scale, c.denominator)
    left = [array("Q", bytes(8 * n * n)) for _ in range(n)]
    right = [array("Q", bytes(8 * n * n)) for _ in range(n)]
    for i, row in enumerate(a.terms):
        for j, entries in enumerate(row):
            for k, c in entries:
                # e_i e_j: column j of L_{e_i}, column i of R_{e_j}
                left[i][j * n + k] = right[j][i * n + k] = int(c * scale) % p
    return {
        "left": [int.from_bytes(w, "little") for w in left],
        "right": [int.from_bytes(w, "little") for w in right],
    }


class Algebra:
    """Finite-dimensional algebra given by its structure tensor."""

    __slots__ = (
        "field",
        "dim",
        "tensor",
        "labels",
        "_terms",
        "_associators",
        "_packed",
        "_hash",
    )

    def __init__(self, field: Field, tensor, labels=None):
        if isinstance(field, PrimeField):
            # residues in [0, p), so equal algebras have equal tensors
            p = field.p
            tensor = [[[v % p for v in col] for col in row] for row in tensor]
        elif field == QQ:
            # an integral Fraction as its int numerator (the ``fields``
            # convention), so integer-constant products stay in int arithmetic
            tensor = [
                [[_integral(v) if type(v) is Fraction else v for v in col] for col in row]
                for row in tensor
            ]
        tensor = tuple(tuple(tuple(col) for col in row) for row in tensor)
        n = len(tensor)
        check_dim(n)
        for row in tensor:
            if len(row) != n or any(len(col) != n for col in row):
                raise InvariantViolation(f"structure tensor is not {n}x{n}x{n}")
        self.field = field
        self.dim = n
        self.tensor = tensor
        self.labels = tuple(labels) if labels else None
        if self.labels and len(self.labels) != n:
            raise InvariantViolation("label list length != dim")
        self._terms = None
        self._associators = None
        self._packed = None
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.tensor == other.tensor
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.tensor))
        return self._hash

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field})"

    # -- basics ----------------------------------------------------------------

    def zero(self) -> tuple:
        return zero_vector(self.field, self.dim)

    def basis(self, i: int) -> tuple:
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} out of range for dim {self.dim}")
        return basis_vector(self.field, self.dim, i)

    def basis_elements(self):
        return [self.basis(i) for i in range(self.dim)]

    @property
    def products(self):
        """products[i][j] = e_i * e_j as a coordinate tuple: the tensor itself."""
        return self.tensor

    @property
    def terms(self):
        """terms[i][j] = the nonzero coefficients of e_i e_j as ``(m, c)``
        pairs, ascending in m, with c a raw scalar: the sparse structure
        constant table that every operator and constraint row is built from.
        Built once per algebra."""
        if self._terms is None:
            self._terms = tuple(
                tuple(sparse_entries(p) for p in row) for row in self.tensor
            )
        return self._terms

    @property
    def associators(self):
        """``{(i, j, k): (e_i e_j) e_k - e_i (e_j e_k)}`` over the basis
        triples whose associator is nonzero, keys in lexicographic order; a
        missing key is a zero associator.  Built once from ``terms``."""
        if self._associators is None:
            self._associators = dict(
                triple_defects(self.field, self.dim, self.terms, *twisted_ops(self))
            )
        return self._associators

    def _check_elem(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch(f"element length {len(x)} vs dim {self.dim}")

    def multiply(self, x, y) -> tuple:
        self._check_elem(x)
        self._check_elem(y)
        return self.multiply_unchecked(x, y)

    def multiply_unchecked(self, x, y) -> tuple:
        """``multiply`` without the length checks, for package-internal
        callers whose operands are known to have length ``dim``."""
        f = self.field
        acc = [f.zero] * self.dim
        terms = self.terms
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            ti = terms[i]
            for j, yj in ys:
                coef = f.mul(xi, yj)
                for k, c in ti[j]:
                    acc[k] = f.add(acc[k], f.mul(coef, c))
        return tuple(acc)

    def left_op(self, x) -> Matrix:
        """Matrix of y -> x * y (column j = x * e_j)."""
        self._check_elem(x)
        f = self.field
        n = self.dim
        out = [[f.zero] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, p in enumerate(self.terms[i]):
                for k, c in p:
                    out[k][j] = f.add(out[k][j], f.mul(xi, c))
        return Matrix(f, out)

    def right_op(self, x) -> Matrix:
        """Matrix of y -> y * x (column j = e_j * x)."""
        self._check_elem(x)
        f = self.field
        n = self.dim
        out = [[f.zero] * n for _ in range(n)]
        for j, xj in enumerate(x):
            if not xj:
                continue
            for i, row in enumerate(self.terms):
                for k, c in row[j]:
                    out[k][i] = f.add(out[k][i], f.mul(xj, c))
        return Matrix(f, out)

    def op_columns(self, x, side: str = "left") -> list:
        """The sparse columns of L_x (side "left", column j = x e_j) or R_x
        (side "right", column j = e_j x), read from ``terms``: equal to
        ``sparse_columns(left_op(x))`` or ``sparse_columns(right_op(x))``
        without building either matrix."""
        if side not in ("left", "right"):
            raise ValueError(f"unknown side {side!r}")
        self._check_elem(x)
        f = self.field
        n = self.dim
        # table[i][j]: the terms of e_i e_j (left) or of e_j e_i (right)
        table = self.terms if side == "left" else tuple(zip(*self.terms))
        xs = [(i, xi) for i, xi in enumerate(x) if xi]
        if not xs:
            return [()] * n  # a zero image: no accumulator to build
        cols = []
        for j in range(n):
            acc = [f.zero] * n
            for i, xi in xs:
                for k, c in table[i][j]:
                    acc[k] = f.add(acc[k], f.mul(xi, c))
            cols.append(sparse_entries(acc))
        return cols

    def op_is_injective(self, x, side: str = "left") -> bool:
        """Whether L_x (side "left") or R_x (side "right") is injective, the
        answer of ``is_injective(left_op(x))`` or ``is_injective(right_op(x))``.
        Column j is the packed word sum_i x_i T[i][j] (left) or sum_i x_i
        T[j][i] (right), T[i][j] the packed residues of e_i e_j mod
        ``cert_modulus``: one ``kernels.packed_rank`` pass over the columns,
        no matrix.  Over Q, T is scaled by the lcm of the structure
        constants' denominators and x by its own (``cert_residues``); a
        nonzero scale changes no rank, and a square operator's column rank
        is its row rank.  A short rank is exact over F_p; over Q ``kernel`` of
        the matrix decides (``is_injective`` would repeat this pass first), and
        past ``kernels.packed_fits`` ``is_injective`` of the matrix does."""
        if side not in ("left", "right"):
            raise ValueError(f"unknown side {side!r}")
        self._check_elem(x)
        f = self.field
        n = self.dim
        if self._packed is None:
            self._packed = _packed_ops(self)
        op = self.left_op if side == "left" else self.right_op
        if self._packed[side]:
            p = cert_modulus(f)
            # every slot of the sum is at most n (p - 1)**2: no carries
            word = sum(v * w for v, w in zip(cert_residues(f, x), self._packed[side]) if v)
            step = 8 * n
            raw = word.to_bytes(n * step, "little")
            cols = [int.from_bytes(raw[k : k + step], "little") for k in range(0, n * step, step)]
            if kernels.packed_rank(cols, n, p) == n:
                return True
            return f == QQ and kernel(op(x)).is_zero()
        return is_injective(op(x))

    # -- derived operators -------------------------------------------------------

    def commutator(self, x, y) -> tuple:
        return vec_sub(self.field, self.multiply(x, y), self.multiply(y, x))

    def anticommutator(self, x, y) -> tuple:
        f = self.field
        xy = self.multiply(x, y)
        yx = self.multiply(y, x)
        return tuple(f.add(a, b) for a, b in zip(xy, yx))

    def associator(self, x, y, z) -> tuple:
        return vec_sub(
            self.field,
            self.multiply(self.multiply(x, y), z),
            self.multiply(x, self.multiply(y, z)),
        )

    # -- predicates ---------------------------------------------------------------

    def commutativity_witness(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.products[i][j] != self.products[j][i]:
                    return (i, j)
        return None

    def is_commutative(self) -> bool:
        return self.commutativity_witness() is None

    def is_skew_symmetric(self) -> bool:
        """c[i][j] = -c[j][i] on all pairs (the identity [x,y] = -[y,x];
        in characteristic 2 this does not force the diagonal to vanish)."""
        f = self.field
        for i in range(self.dim):
            for j in range(i, self.dim):
                pij = self.products[i][j]
                pji = self.products[j][i]
                if any(f.add(a, b) for a, b in zip(pij, pji)):
                    return False
        return True

    def associativity_witness(self):
        """Lexicographically first basis triple with nonzero associator."""
        return next(iter(self.associators), None)

    def is_associative(self) -> bool:
        return self.associativity_witness() is None

    def is_zero_algebra(self) -> bool:
        return all(
            vec_is_zero(self.products[i][j])
            for i in range(self.dim)
            for j in range(self.dim)
        )


def check_twist(a: Algebra, twist: Matrix):
    """Raise FieldMismatch or DimensionMismatch unless ``twist`` is an n x n
    map over the field of ``a``."""
    check_same_field(a.field, twist.field)
    if twist.nrows != a.dim or twist.ncols != a.dim:
        raise DimensionMismatch(
            f"twist is {twist.nrows}x{twist.ncols}, algebra dim {a.dim}"
        )


def twisted_ops(a: Algebra, twist: Matrix | None = None):
    """``(left, right)``: left[i][j] and right[i][j] are the sparse column j
    of L_{t(e_i)} and R_{t(e_i)}, ``(m, c)`` pairs as in ``terms``, so
    ``combine(f, n, left[i], terms[j][k])`` is t(e_i)(e_j e_k).  With no
    twist (t the identity) they are ``terms`` and its transpose; a twist is
    checked, then its images are read through ``op_columns``."""
    if twist is None:
        return a.terms, tuple(zip(*a.terms))
    check_twist(a, twist)
    images = [twist.column(i) for i in range(a.dim)]
    return (
        [a.op_columns(t, "left") for t in images],
        [a.op_columns(t, "right") for t in images],
    )


def triple_defects(field: Field, n: int, prods, left, right):
    """Yield ``((i, j, k), u - v)`` for the basis triples, in lexicographic
    order, where u - v is nonzero.  u sums c * right[k][m] over the ``(m, c)``
    of prods[i][j], v sums c * left[i][m] over those of prods[j][k]; with the
    ``twisted_ops`` tables of t and ``prods = terms``, u - v is
    (e_i e_j) t(e_k) - t(e_i) (e_j e_k).  A triple whose two products are
    empty is never visited (u = v = 0).  One sparse accumulator measured
    faster than two ``combine`` calls and a ``vec_sub``."""
    every = range(n)
    nonempty = [[k for k in every if prods[j][k]] for j in every]
    for i in every:
        for j in every:
            pij = prods[i][j]
            for k in every if pij else nonempty[j]:
                acc = [field.zero] * n
                cols = right[k]
                for m, c in pij:
                    for q, v in cols[m]:
                        acc[q] = field.add(acc[q], field.mul(c, v))
                cols = left[i]
                for m, c in prods[j][k]:
                    for q, v in cols[m]:
                        acc[q] = field.sub(acc[q], field.mul(c, v))
                if any(acc):
                    yield (i, j, k), tuple(acc)


class HomAlgebra:
    """An algebra with a twisting linear map."""

    __slots__ = ("base", "twist", "_hash")

    def __init__(self, base: Algebra, twist: Matrix):
        check_twist(base, twist)
        if isinstance(base.field, PrimeField):  # residues: equal maps compare equal
            p = base.field.p
            twist = Matrix(base.field, [[v % p for v in row] for row in twist.rows])
        self.base = base
        self.twist = twist
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, HomAlgebra)
            and self.base == other.base
            and self.twist == other.twist
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.base, self.twist))
        return self._hash

    def __repr__(self):
        return f"HomAlgebra(dim {self.base.dim} over {self.base.field})"

    def hom_associator(self, x, y, z) -> tuple:
        """(x*y) * twist(z) - twist(x) * (y*z)."""
        a = self.base
        return vec_sub(
            a.field,
            a.multiply(a.multiply(x, y), self.twist.apply(z)),
            a.multiply(self.twist.apply(x), a.multiply(y, z)),
        )

    def hom_associativity_witness(self):
        """Lexicographically first basis triple with nonzero hom-associator:
        the first key of ``triple_defects`` over ``terms`` and the twist's
        ``twisted_ops`` tables."""
        a = self.base
        defects = triple_defects(a.field, a.dim, a.terms, *twisted_ops(a, self.twist))
        return next((t for t, _ in defects), None)

    def is_hom_associative(self) -> bool:
        return self.hom_associativity_witness() is None

    def multiplicativity_witness(self):
        """First basis pair with twist(x*y) != twist(x)*twist(y).  The twist
        is applied to the n^2 basis products through its sparse columns, and
        the twisted basis images are computed once."""
        a = self.base
        f = a.field
        n = a.dim
        terms = a.terms
        cols = sparse_columns(self.twist)
        twisted = [self.twist.column(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if combine(f, n, cols, terms[i][j]) != a.multiply_unchecked(
                    twisted[i], twisted[j]
                ):
                    return (i, j)
        return None

    def is_multiplicative(self) -> bool:
        return self.multiplicativity_witness() is None


class InvolutiveAlgebra:
    """An algebra with an involutive conjugation (checked at construction)."""

    __slots__ = ("base", "conj")

    def __init__(self, base: Algebra, conj: Matrix):
        check_same_field(base.field, conj.field)
        if conj.nrows != base.dim or conj.ncols != base.dim:
            raise DimensionMismatch("conjugation shape does not match the algebra")
        if conj.matmul(conj) != Matrix.identity(base.field, base.dim):
            raise InvariantViolation("conjugation is not an involution")
        self.base = base
        self.conj = conj

    def __eq__(self, other):
        return (
            isinstance(other, InvolutiveAlgebra)
            and self.base == other.base
            and self.conj == other.conj
        )

    def __hash__(self):
        return hash((self.base, self.conj))

    def __repr__(self):
        return f"InvolutiveAlgebra(dim {self.base.dim} over {self.base.field})"


def is_idempotent_map(f: Matrix) -> bool:
    if not f.is_square():
        raise DimensionMismatch("idempotency needs a square matrix")
    return f.matmul(f) == f


def is_idempotent_elem(a: Algebra, x) -> bool:
    return a.multiply(x, x) == tuple(x)


class Record:
    """Base of the package's small value records, whose ``__slots__`` name
    their fields: ``__init__`` takes them positionally or by keyword, the
    last ``len(_defaults)`` optional (a default that is a type, like
    ``list``, is called for a fresh value).  A record is equal to a record
    of its class with equal fields; like a list, it is mutable and has no
    hash."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _complete(self, args, kwargs) -> list:
        """Every field's value from ``__init__``'s arguments and the defaults."""
        fields = self.__slots__
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args) :]):
            raise TypeError(f"{type(self).__name__}: too many, repeated or unknown fields")
        optional = fields[len(fields) - len(self._defaults) :]
        values = {n: d() if isinstance(d, type) else d for n, d in zip(optional, self._defaults)}
        values.update(zip(fields, args), **kwargs)
        if len(values) < len(fields):
            raise TypeError(f"{type(self).__name__}: missing {set(fields) - set(values)}")
        return [values[n] for n in fields]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A ``Record`` that refuses assignment and hashes as the tuple of its
    fields, for values that caches hand out or key on."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())

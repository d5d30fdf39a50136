"""Exact linear algebra over Q and prime fields.

Matrices are dense and immutable; subspaces are kept in a canonical form
(reduced row-echelon basis, ascending pivots) so that subspace equality is
entry-wise equality of the canonical bases.  All arithmetic is exact; there is
no floating point anywhere in this package.

Vectors are plain tuples of raw scalars: over Q an ``int`` for an integral
rational and a ``Fraction`` otherwise, over F_p an ``int`` residue; see
``fields`` for the scalar conventions.  Products reduce once per result:
``Matrix.apply``, ``Matrix.matmul`` and ``combine`` sum native products of
raw scalars and hand each output vector to ``reduced`` (or its sparse form
``reduced_entries``), which takes every entry mod p over F_p.  A ``Matrix``
keeps F_p entries as given, so its products are residues even where its
entries are not.

Q rows are eliminated as integer rows, and the canonical RREF turns back into
rationals only where a pivot does not divide an entry.  ``NullspaceSolver``
is the one elimination driver: every RREF, span and nullspace here is read
off one.  ``nullspace`` is the one loop that feeds it a constraint family:
rows are drawn from an iterable until full rank, or until the rank leaves room
only for a kernel part the caller already knows, so a lazy family never builds
the rows past that point.
Caller input (``rref``, ``solve_affine``, ``Subspace.from_rows``) is read
whole and checked row by row instead.  ``is_injective`` is the one other
caller of ``kernels``: a yes/no rank question needs only a modular rank, for
which each row is one packed word (``kernels.packed_rank``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from homalg import kernels
from homalg.errors import DimensionMismatch, FieldMismatch
from homalg.fields import Field, QQ

# modulus for the rank certificate used to short-circuit rational elimination:
# the largest prime below 2**15, so residues fit 15 bits and every product of
# two fits one 30-bit CPython digit.  Rank mod any prime is at most the rank
# over Q, so a small prime can only send more solves to the exact pass.
_CERT_PRIME = 32749
_INT_ONLY = {int}


def check_same_field(f1: Field, f2: Field):
    if f1 != f2:
        raise FieldMismatch(f"{f1} vs {f2}")


def zero_vector(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def basis_vector(field: Field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_add(field: Field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_sub(field: Field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_scale(field: Field, lam, u):
    return tuple(field.mul(lam, a) for a in u)


def reduced(field: Field, acc) -> tuple:
    """``acc``, native sums of products of raw scalars, as a vector over
    ``field``: over F_p each entry reduced mod p, once (none if all are
    zero); over Q as it is."""
    p = field.char
    return tuple([v % p for v in acc]) if p and any(acc) else tuple(acc)


def reduced_entries(field: Field, acc) -> tuple:
    """The nonzero entries of ``reduced(field, acc)`` as ``(index, value)``
    pairs, in one pass."""
    p = field.char
    if p:
        return tuple([(m, v % p) for m, v in enumerate(acc) if v % p])
    return tuple([(m, v) for m, v in enumerate(acc) if v])


def vec_is_zero(u) -> bool:
    return all(not a for a in u)


def as_fractions(field: Field, u):
    """``u`` in its own container type with each Q scalar as a ``Fraction``.
    Report and error text that embeds the repr of a raw vector goes through
    this, so it reads ``Fraction(1, 1)`` whether a value is held as an int or
    as a Fraction."""
    if field == QQ:
        return type(u)(Fraction(a) for a in u)
    return u


class Matrix:
    """Immutable dense matrix over an exact field.

    The column convention used across the package: for a linear map, column
    ``j`` is the image of the j-th basis vector.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_hash")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimensionMismatch("ragged rows")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self._hash = None

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        m = cls(field, [[field.zero] * ncols for _ in range(nrows)])
        m.ncols = ncols  # a matrix without rows cannot infer its width
        return m

    @classmethod
    def from_columns(cls, field: Field, cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        n = len(cols[0]) if cols else 0
        return cls(field, [[c[i] for c in cols] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.rows))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        if not (self.nrows and self.ncols):
            return Matrix.zero(self.field, self.ncols, self.nrows)
        return Matrix(self.field, zip(*self.rows))

    def add(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        f = self.field
        return Matrix(f, [vec_add(f, a, b) for a, b in zip(self.rows, other.rows)])

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        f = self.field
        return Matrix(f, [vec_sub(f, a, b) for a, b in zip(self.rows, other.rows)])

    def scale(self, lam) -> "Matrix":
        f = self.field
        return Matrix(f, [vec_scale(f, lam, r) for r in self.rows])

    def matmul(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} vs {other.nrows}")
        f = self.field
        ocols = other.ncols
        if not self.rows:
            return Matrix.zero(f, 0, ocols)
        out = []
        for row in self.rows:
            acc = [f.zero] * ocols
            for k, a in enumerate(row):
                if not a:
                    continue
                orow = other.rows[k]
                for j in range(ocols):
                    b = orow[j]
                    if b:
                        acc[j] += a * b
            out.append(reduced(f, acc))
        return Matrix(f, out)

    __matmul__ = matmul

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"{self.ncols} vs {len(vec)}")
        f = self.field
        out = []
        for row in self.rows:
            s = f.zero
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out.append(s)
        return reduced(f, out)

    def flatten(self) -> tuple:
        """Row-major flattening, used to view n x n maps as n^2 vectors."""
        return tuple(v for row in self.rows for v in row)

    def _check_shape(self, other: "Matrix"):
        check_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )


def sparse_entries(v) -> tuple:
    """The nonzero coordinates of a vector as ``(index, value)`` pairs."""
    return tuple((m, c) for m, c in enumerate(v) if c)


def sparse_columns(m: Matrix) -> list:
    """Column j of ``m`` as its ``sparse_entries``: the map in the form
    ``combine`` applies."""
    return [sparse_entries(col) for col in m.transpose().rows]


def combine(field: Field, n: int, cols, pairs) -> tuple:
    """The sum of c * cols[m] over the ``(m, c)`` pairs, as a length-n vector:
    the map with sparse columns ``cols`` applied to the vector whose sparse
    entries are ``pairs``."""
    acc = [field.zero] * n
    for m, c in pairs:
        for q, v in cols[m]:
            acc[q] += c * v
    return reduced(field, acc)


def unflatten_matrix(field: Field, n: int, vec) -> Matrix:
    if len(vec) != n * n:
        raise DimensionMismatch(f"expected {n * n} entries, got {len(vec)}")
    return Matrix(field, [vec[i * n : (i + 1) * n] for i in range(n)])


# -- elimination: Q rows as integer rows, the kernel choice, nullspaces ------


def _q_row_to_int(row) -> list:
    """Clear denominators of a Q row.  Scaling a row by a positive integer
    changes neither row space nor nullspace."""
    if set(map(type, row)) <= _INT_ONLY:
        return list(row)
    mult = 1
    for v in row:
        d = v.denominator
        if d != 1:
            mult = lcm(mult, d)
    if mult == 1:
        return [v.numerator for v in row]
    return [int(v * mult) for v in row]


def _int_rref_to_q(rows, pivots):
    """Primitive integer RREF rows -> Q rows with pivot entries 1: an entry
    stays an ``int`` where the pivot divides it."""
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        if p == 1:
            out.append(tuple(row))
        else:
            out.append(tuple(v // p if v % p == 0 else Fraction(v, p) for v in row))
    return out


def _nullspace_from_rref(field: Field, rows, pivots, ncols):
    """One nullspace vector per free column f of RREF rows with pivot
    entries 1, yielded lazily: e_f minus row[f] at each pivot column."""
    pivset = set(pivots)
    for f in range(ncols):
        if f in pivset:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, c in zip(rows, pivots):
            if row[f]:
                v[c] = field.neg(row[f])
        yield v


class NullspaceSolver:
    """Accumulates constraint rows and reads off their exact canonical RREF
    (``rref``) or right nullspace (``solve``).

    Rows may be fed densely or sparsely and in any order; exact duplicates
    are dropped, first as offered (a sparse row on its merged ``(column,
    value)`` key) and then after normalization (primitive integer rows over
    Q, nonzero residues over F_p).  Each new row is reduced mod p into a
    sparse echelon as it arrives (``kernels.echelon_add``), so ``full_rank``
    is set on the row that completes the rank and a zero-kernel solve reads
    no row past it.  Over Q the echelon is a rank certificate taken mod
    ``_CERT_PRIME``: rank mod p never exceeds the rational rank, so full rank
    mod p proves the rational nullspace is zero.  The exact elimination only
    runs when the certificate leaves room for a kernel: one ``rref_int`` call
    on the pooled primitive rows.
    """

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rational = field == QQ
        self._p = _CERT_PRIME if self._rational else field.p
        self._seen: set = set()
        self._echelon: dict = {}  # pivot column -> tail pairs, pivot entry 1
        self._pool: list = []  # Q only: the keys of the new rows, for the exact pass
        self.full_rank = ncols == 0

    @property
    def rank(self) -> int:
        """The rank of the rows offered so far, mod p: over F_p their rank,
        over Q a lower bound on it."""
        return len(self._echelon)

    def add_dense(self, row):
        if self.full_rank or not any(row):
            return
        raw = tuple(row)
        if raw in self._seen:
            return
        if self._rational:
            vals = kernels.row_primitive_int(_q_row_to_int(row))
            self._push(tuple([e for e in enumerate(vals) if e[1]]))
        else:
            p = self._p
            self._push(tuple([(c, v % p) for c, v in enumerate(row) if v % p]))
        self._seen.add(raw)

    def add_sparse(self, pairs):
        """pairs: iterable of (column, raw value); columns may repeat."""
        if self.full_rank:
            return
        acc: dict = {}
        for c, v in pairs:
            acc[c] = acc[c] + v if c in acc else v
        if not self._rational:
            p = self._p
            acc = {c: v % p for c, v in acc.items()}
        key = tuple(sorted(acc.items()))
        if not all(acc.values()):
            key = tuple([e for e in key if e[1]])
        if not key or key in self._seen:
            return
        if self._rational:
            cols, vals = zip(*key)
            self._push(tuple(zip(cols, kernels.row_primitive_int(_q_row_to_int(vals)))))
        else:
            self._push(key)  # residue pairs: already the normal form
        # after _push: a row offered in normal form would otherwise meet its
        # own key there and be dropped
        self._seen.add(key)

    def _push(self, key):
        """Reduce one row into the echelon unless its normal form ``key``
        repeats one: the ``(column, value)`` pairs of its nonzero entries,
        residues over F_p, over Q of its primitive integer row, pooled for the
        exact pass and made dense only if that pass runs."""
        if not key or key in self._seen:
            return
        self._seen.add(key)
        if self._rational:
            self._pool.append(key)  # shares the tuple held in _seen
        p = self._p
        row = {c: v % p for c, v in key if v % p}
        if kernels.echelon_add(self._echelon, row, p) and len(self._echelon) == self.ncols:
            self.full_rank = True
            self._pool = []

    def rref(self):
        """Canonical RREF of the rows offered: ``(nonzero_rows, pivots)``, pivot
        entries 1.  One ``rref_int`` pass over the pool over Q, unless full
        rank emptied it; else the echelon's back phase (the identity at full
        rank)."""
        if self._pool:
            rows = [[0] * self.ncols for _ in self._pool]
            for row, key in zip(rows, self._pool):
                for c, v in key:
                    row[c] = v
            red, pivots = kernels.rref_int(rows)
            return _int_rref_to_q(red, pivots), pivots
        return kernels.echelon_rref(self._echelon, self.ncols, self._p)

    def solve(self) -> "Subspace":
        if self.full_rank:
            return Subspace.zero(self.field, self.ncols)
        red, pivots = self.rref()
        basis = _nullspace_from_rref(self.field, red, pivots, self.ncols)
        return Subspace.from_rows(self.field, self.ncols, basis)


def _solver_for(field: Field, ncols: int, rows) -> NullspaceSolver:
    """A solver fed every one of ``rows``, each checked to have ``ncols``
    entries: for caller input, whose RREF needs all of it."""
    solver = NullspaceSolver(field, ncols)
    for row in rows:
        if len(row) != ncols:
            raise DimensionMismatch(f"row length {len(row)} vs ambient {ncols}")
        solver.add_dense(row)
    return solver


def nullspace(field: Field, ncols: int, rows, known: "Subspace | None" = None) -> "Subspace":
    """The right nullspace of ``rows``, dense rows of length ``ncols`` drawn
    from an iterable into one solver until it reaches full rank: a lazy
    iterable never builds the rows past that point.

    ``known``, when given, is a subspace the caller has already checked lies
    in the nullspace.  The draw then stops once the rank reaches
    ``ncols - known.dim`` and returns ``known``: the rank mod p is at most
    the rank over the field, which is at most ``ncols - known.dim``, so the
    nullspace is exactly ``known``.  If the rows run out first, the solve
    reads the nullspace off as usual."""
    if known is not None and known.ambient_dim != ncols:
        raise DimensionMismatch(f"known ambient {known.ambient_dim} vs {ncols}")
    stop = ncols - known.dim if known is not None else ncols
    solver = NullspaceSolver(field, ncols)
    if solver.rank < stop:
        for row in rows:
            solver.add_dense(row)
            if solver.rank == stop:
                break
    if known is not None and solver.rank == stop:
        return known
    return solver.solve()


def is_injective(m: Matrix) -> bool:
    """Whether ``m`` has a zero right nullspace, from one modular rank pass
    over its rows, taken as ``cert_residues``, that returns True on the row
    that makes the rank full.  While ``kernels.packed_fits(ncols, p)`` (below
    2^33 columns mod 32749, below 2^31 over GF(65521)) each row is one packed
    word of ``kernels.packed_rank``; past it, as over
    GF(18446744073709551557), each row is a dict of residues for
    ``kernels.echelon_add``.  Over F_p a rank that stays short is exact; over
    Q it only means the certificate prime may divide a minor, so
    ``kernel(m)`` decides."""
    field = m.field
    n = m.ncols
    p = cert_modulus(field)
    rows = (cert_residues(field, row) for row in m.rows)
    if kernels.packed_fits(n, p):
        if kernels.packed_rank(map(kernels.pack, rows), n, p) == n:
            return True
    else:
        echelon: dict = {}
        for row in rows:
            residues = {c: v for c, v in enumerate(row) if v}
            if residues and kernels.echelon_add(echelon, residues, p) and len(echelon) == n:
                return True
    return field == QQ and kernel(m).is_zero()


def cert_modulus(field: Field) -> int:
    """The prime of the modular rank certificates: ``_CERT_PRIME`` over Q,
    the field's own p over F_p."""
    return _CERT_PRIME if field == QQ else field.p


def cert_residues(field: Field, u) -> list:
    """``u`` mod ``cert_modulus(field)``, over Q cleared of denominators
    first: residues of a nonzero multiple of ``u``, so no rank changes."""
    if field == QQ:
        return [v % _CERT_PRIME for v in _q_row_to_int(u)]
    p = field.p
    return [v % p for v in u]


def projective_key(field: Field, u) -> tuple:
    """One tuple for a nonzero ``u`` and all its nonzero multiples: over Q
    the primitive integer multiple with leading entry positive, over F_p
    ``u`` divided by its leading entry."""
    if field == QQ:
        return tuple(kernels.row_primitive_int(_q_row_to_int(u)))
    p = field.p
    inv = pow(next(v for v in u if v % p), -1, p)
    return tuple(v * inv % p for v in u)


# -- public operations ---------------------------------------------------------


def rref(m: Matrix):
    """Unique reduced row-echelon form, preserving the input shape.

    Returns ``(Matrix, pivots)``.  Idempotent: ``rref(rref(m)[0])`` equals
    ``rref(m)[0]``.
    """
    field = m.field
    if m.nrows == 0 or m.ncols == 0:
        return m, ()
    red, pivots = _solver_for(field, m.ncols, m.rows).rref()
    pad = [[field.zero] * m.ncols for _ in range(m.nrows - len(red))]
    return Matrix(field, [list(r) for r in red] + pad), tuple(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right nullspace ``{v : m v = 0}``."""
    return nullspace(m.field, m.ncols, m.rows)


def solve_affine(m: Matrix, b) -> "AffineSet":
    """All solutions of ``m x = b`` as particular + direction subspace.

    The particular solution is canonical: free coordinates are zero.  Both
    parts come from one RREF of ``[m | b]``, whose first n columns are the
    RREF of m when no pivot lies in the last.
    """
    if len(b) != m.nrows:
        raise DimensionMismatch(f"{m.nrows} rows vs rhs of length {len(b)}")
    field = m.field
    n = m.ncols
    red, pivots = _solver_for(field, n + 1, [r + (bv,) for r, bv in zip(m.rows, b)]).rref()
    if n in pivots:
        return AffineSet.empty_set(field, n)
    particular = [field.zero] * n
    for row, c in zip(red, pivots):
        particular[c] = row[n]
    direction = Subspace.from_rows(field, n, _nullspace_from_rref(field, red, pivots, n))
    return AffineSet(field, n, tuple(particular), direction)


def eigenspace(m: Matrix, lam) -> "Subspace":
    if not m.is_square():
        raise DimensionMismatch("eigenspace needs a square matrix")
    shifted = m.sub(Matrix.identity(m.field, m.nrows).scale(lam))
    return kernel(shifted)


class Subspace:
    """A linear subspace in canonical form.

    ``basis`` is a Matrix in reduced row-echelon form whose rows span the
    subspace; ``pivots`` are the ascending pivot columns.  Two subspaces are
    equal iff their canonical bases are entry-wise equal.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_hash")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)
        self._hash = None

    @classmethod
    def from_rows(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        """The span of ``rows``; the solver drops zero rows and repeats."""
        red, pivots = _solver_for(field, ambient_dim, rows).rref()
        if not pivots:
            return cls.zero(field, ambient_dim)
        return cls(field, ambient_dim, Matrix(field, red), pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.zero(field, 0, ambient_dim), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(
            field,
            ambient_dim,
            Matrix.identity(field, ambient_dim),
            range(ambient_dim),
        )

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.rows == other.basis.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.ambient_dim, self.basis.rows))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim})"

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} vs ambient {self.ambient_dim}"
            )
        f = self.field
        r = list(v)
        for row, c in zip(self.basis.rows, self.pivots):
            coef = r[c]
            if coef:
                for i in range(c, self.ambient_dim):
                    if row[i]:
                        r[i] = f.sub(r[i], f.mul(coef, row[i]))
        return vec_is_zero(r)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(r) for r in other.basis.rows)

    def image_under(self, m: Matrix) -> "Subspace":
        """Span of the images of the basis vectors under the map ``m``."""
        return Subspace.from_rows(
            self.field, m.nrows, [m.apply(r) for r in self.basis.rows]
        )

    def complement_rows(self):
        """A basis of ``perp()``, lazy and not canonical: e_f minus row[f] at
        each pivot column, one per free column f.  A vector lies in the
        subspace exactly when it is orthogonal to all of them."""
        n = self.ambient_dim
        return _nullspace_from_rref(self.field, self.basis.rows, self.pivots, n)

    def perp(self) -> "Subspace":
        """Orthogonal complement for the standard dot product (nondegenerate
        over any field): the canonical span of ``complement_rows``."""
        if self.dim == 0:
            return Subspace.full(self.field, self.ambient_dim)
        return Subspace.from_rows(self.field, self.ambient_dim, self.complement_rows())

    def _check_compatible(self, other: "Subspace"):
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient {self.ambient_dim} vs {other.ambient_dim}"
            )


def join(s1: Subspace, s2: Subspace) -> Subspace:
    s1._check_compatible(s2)
    return Subspace.from_rows(
        s1.field, s1.ambient_dim, list(s1.basis.rows) + list(s2.basis.rows)
    )


def meet(s1: Subspace, *rest: Subspace) -> Subspace:
    """Intersection of any number of subspaces as one solve: the nullspace of
    the ``complement_rows`` of every argument but the full space, drawn until
    full rank.  With fewer than two such arguments it returns that one, or s1."""
    for s in rest:
        s1._check_compatible(s)
    proper = [s for s in (s1, *rest) if not s.is_full()]
    if len(proper) < 2:
        return proper[0] if proper else s1
    rows = chain.from_iterable(s.complement_rows() for s in proper)
    return nullspace(s1.field, s1.ambient_dim, rows)


def is_direct_sum(s1: Subspace, s2: Subspace, whole: Subspace) -> bool:
    """Exact, as dim(U + V) = dim U + dim V - dim(U meet V)."""
    return s1.dim + s2.dim == whole.dim and join(s1, s2) == whole


class AffineSet:
    """Solution set of a linear system: a particular point plus a direction
    subspace, or the empty set.

    The particular point is the canonical representative (free coordinates
    zero under the pivot convention of the defining system).
    """

    __slots__ = ("field", "ambient_dim", "particular", "direction", "is_empty")

    def __init__(self, field: Field, ambient_dim: int, particular, direction):
        self.field = field
        self.ambient_dim = ambient_dim
        self.particular = particular
        self.direction = direction
        self.is_empty = particular is None

    @classmethod
    def empty_set(cls, field: Field, ambient_dim: int) -> "AffineSet":
        return cls(field, ambient_dim, None, None)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} vs ambient {self.ambient_dim}"
            )
        if self.is_empty:
            return False
        return self.direction.contains(vec_sub(self.field, v, self.particular))

    def is_singleton(self) -> bool:
        return not self.is_empty and self.direction.is_zero()

    def member(self, coeffs=()) -> tuple:
        """particular + sum(coeff_i * direction basis vector i)."""
        if self.is_empty:
            raise ValueError("empty affine set has no members")
        v = self.particular
        for lam, row in zip(coeffs, self.direction.basis.rows):
            v = vec_add(self.field, v, vec_scale(self.field, lam, row))
        return v

    def __eq__(self, other):
        return (
            isinstance(other, AffineSet)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.is_empty == other.is_empty
            and self.particular == other.particular
            and self.direction == other.direction
        )

    def __repr__(self):
        if self.is_empty:
            return "AffineSet(empty)"
        return f"AffineSet(dim {self.direction.dim} of {self.field}^{self.ambient_dim})"


def intersect_affine(a1: AffineSet, a2: AffineSet) -> AffineSet:
    """Intersection of two affine sets, by re-solving the stacked constraint
    systems x = p_i + dir_i expressed as w x = w p_i for each of the
    ``complement_rows`` w of dir_i."""
    check_same_field(a1.field, a2.field)
    if a1.ambient_dim != a2.ambient_dim:
        raise DimensionMismatch("ambient dims differ")
    if a1.is_empty or a2.is_empty:
        return AffineSet.empty_set(a1.field, a1.ambient_dim)
    f = a1.field
    rows, rhs = [], []
    for s in (a1, a2):
        if not s.direction.is_full():  # no rows, so no width to apply
            c = Matrix(f, s.direction.complement_rows())
            rows += c.rows
            rhs += c.apply(s.particular)
    if not rows:
        return a1  # both full-space
    return solve_affine(Matrix(f, rows), rhs)

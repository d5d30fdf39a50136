"""Row-reduction kernels: the hot loops of the whole package.

Contracts
---------
``echelon_add(echelon, row, p)``
    One step of sparse elimination over F_p.  ``echelon`` maps each pivot
    column to its pivot row's tail: the ``(column, residue)`` pairs right of
    the pivot, ascending, pivot entry 1 implied; later pivots do not reduce
    it.  ``row``, a dict of nonzero residues by column, is consumed: reduced
    by the pivot rows it hits, lowest first (a heap also takes the pivot
    columns the reduction fills in), what is left becomes a new pivot row.
    Returns True iff the rank grew.

``echelon_rref(echelon, ncols, p)``
    The back phase: ``(rows, pivots)``, the RREF as dense lists of residues
    (pivot entries 1) and the ascending pivot columns.  Each tail is cleared
    of the later pivot columns, last pivot first; at full column rank the
    RREF is the identity and no tail is read.

``rref_fp(rows, p)``
    Batch form of the two above.  ``rows`` is a list of lists of ints already
    reduced into ``[0, p)``; it is not modified.  Returns ``(nonzero_rows,
    pivots)`` as ``echelon_rref`` does.

``rref_int(rows)``
    In-place fraction-free Gauss-Jordan elimination over the integers.
    ``rows`` is a list of lists of Python ints.  Returns
    ``(nonzero_rows, pivots)`` where each returned row is primitive (content
    1, pivot entry positive) and fully reduced above and below; the rational
    RREF is obtained by dividing each row by its pivot entry.

``row_primitive_int(row)``
    Divides an integer row by its content in place, leading entry positive.

``packed_rank(vectors, nslots, p)``
    The rank over F_p of ``vectors``, each one packed word: a Python int
    whose slot k, the bits [64k, 64k + 64), holds entry k, a nonnegative
    value of at most ``nslots·(p−1)²``, reduced mod p or not.  A pivot row
    is kept reduced with its pivot column c and ``−1/x_c mod p``; one
    elimination step is one multiply-add over the whole word, ``x +
    ((−x_c/lead) mod p)·pivot``, which adds at most (p−1)² to a slot.  A
    vector is reduced mod p, by one ``array('Q')`` round trip, only if a
    pivot row updated it or a slot holds p or more.  Its nonzero remainder
    becomes a pivot row; the pass stops at rank ``nslots``.  Exact while
    ``packed_fits(nslots, p)``: 2·nslots·(p−1)² < 2^64, so that a slot, at
    most nslots·(p−1)² plus (nslots−1)(p−1)² from the pivot rows, never
    carries into the next.  ``pack(values)`` makes a word from values below
    2^64, value k in slot k.
"""

from array import array
from heapq import heapify, heappop, heappush
from math import gcd

# The kernels are plain Python; recorded with every benchmark run.
BACKEND = "pure-python"


def echelon_add(echelon, row, p):
    hits = []
    for c in row:
        if c in echelon:
            hits.append(c)
    if hits:
        heapify(hits)
        while hits:
            col = heappop(hits)
            b = row.pop(col) % p
            if not b:
                continue  # cancelled mod p, or a column pushed twice
            for i, v in echelon[col]:
                if i in row:
                    row[i] -= b * v  # reduced mod p only where it is read
                else:
                    row[i] = -b * v
                    if i in echelon:
                        heappush(hits, i)
        tail = []
        for i in sorted(row):
            v = row[i] % p
            if v:
                tail.append((i, v))
    else:
        tail = sorted(row.items())
    if not tail:
        return False
    col, lead = tail[0]
    if lead == 1:
        echelon[col] = tuple(tail[1:])
    else:
        inv = pow(lead, p - 2, p)
        echelon[col] = tuple([(i, v * inv % p) for i, v in tail[1:]])
    return True


def echelon_rref(echelon, ncols, p):
    pivots = sorted(echelon)
    done = {}
    if len(pivots) < ncols:  # at full rank every tail clears: the identity
        for col in reversed(pivots):
            tail = dict(echelon[col])
            for c in [c for c in tail if c in done]:
                b = tail.pop(c)
                for i, v in done[c]:
                    tail[i] = (tail.get(i, 0) - b * v) % p
            done[col] = [(i, v) for i, v in tail.items() if v]
    rows = []
    for col in pivots:
        row = [0] * ncols
        row[col] = 1
        for i, v in done.get(col, ()):
            row[i] = v
        rows.append(row)
    return rows, pivots


def rref_fp(rows, p):
    echelon = {}
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        echelon_add(echelon, {c: v for c, v in enumerate(row) if v}, p)
    return echelon_rref(echelon, ncols, p)


def row_primitive_int(row):
    """Divide an integer row by its content and make the leading entry
    positive.  Returns the row (modified in place); all-zero rows unchanged."""
    g = 0
    lead = 0
    for v in row:
        if v:
            if lead == 0:
                lead = v
            g = gcd(g, v)
            if g == 1 and lead > 0:
                return row
    if g == 0:
        return row
    if lead < 0:
        g = -g
    if g != 1:
        for i, v in enumerate(row):
            if v:
                row[i] = v // g
    return row


def rref_int(rows):
    nrows = len(rows)
    if nrows == 0:
        return [], []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        # smallest-magnitude pivot limits coefficient growth
        piv = -1
        best = 0
        for r in range(rank, nrows):
            v = rows[r][col]
            if v:
                a = -v if v < 0 else v
                if piv < 0 or a < best:
                    piv = r
                    best = a
                    if a == 1:
                        break
        if piv < 0:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = row_primitive_int(rows[rank])
        a = prow[col]
        for r in range(nrows):
            if r == rank:
                continue
            row = rows[r]
            b = row[col]
            if not b:
                continue
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            if ma == 1:
                for i in range(col, ncols):
                    v = prow[i]
                    if v:
                        row[i] -= mb * v
            else:
                # rows already holding a pivot keep entries left of col
                for i in range(ncols):
                    row[i] = ma * row[i] - mb * prow[i]
            row_primitive_int(row)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots


_WORD = (1 << 64) - 1


def packed_fits(nslots, p):
    return 2 * nslots * (p - 1) ** 2 < 1 << 64


def pack(values):
    return int.from_bytes(array("Q", values), "little")


def packed_rank(vectors, nslots, p):
    nbytes = 8 * nslots
    reduce = p.__rmod__
    ones = pack([1] * nslots)
    # a slot v < 2**63 is p or more iff v + 2**63 - p sets its top bit
    low = ((1 << 63) - p) * ones
    high = ones << 63
    pivots = []
    for x in vectors:
        dirty = (x + low) & high
        for shift, neg_inv, row in pivots:
            v = (x >> shift) & _WORD
            if v:
                b = v * neg_inv % p
                if b:
                    x += b * row
                    dirty = True
        if dirty:
            x = pack(map(reduce, array("Q", x.to_bytes(nbytes, "little"))))
        if x:
            shift = ((x & -x).bit_length() - 1) & -64  # the lowest nonzero slot
            pivots.append((shift, p - pow((x >> shift) & _WORD, -1, p), x))
            if len(pivots) == nslots:
                break
    return len(pivots)

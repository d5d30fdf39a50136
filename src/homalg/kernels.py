"""Row-reduction kernels: the hot loops of the whole package.

Contracts
---------
``rref_fp(rows, p)``
    Two-phase elimination over F_p.  ``rows`` is a list of lists of ints
    already reduced into ``[0, p)``; the kernel overwrites it.  Returns
    ``(nonzero_rows, pivots)`` where ``nonzero_rows`` is the compacted list of
    pivot rows in reduced row-echelon form (pivot entries 1) and ``pivots`` the
    ascending pivot column indices.  The returned rows may be new lists, so
    callers read the return value, not ``rows``.

    The forward phase normalizes each pivot row and clears its column below
    the pivot only, reading the pivot row's nonzero tail (the ``(i, v)`` pairs
    right of the pivot).  At full column rank the RREF is the identity, which
    is returned without a back phase; otherwise the back phase clears above
    each pivot, last pivot first, from the tail of the finished pivot row.

``rref_int(rows)``
    In-place fraction-free Gauss-Jordan elimination over the integers.
    ``rows`` is a list of lists of Python ints.  Returns
    ``(nonzero_rows, pivots)`` where each returned row is primitive (content
    1, pivot entry positive) and fully reduced above and below; the rational
    RREF is obtained by dividing each row by its pivot entry.

``row_primitive_int(row)``
    Divides an integer row by its content in place, leading entry positive.
"""

from math import gcd

# The kernels are plain Python; recorded with every benchmark run.
BACKEND = "pure-python"


def rref_fp(rows, p):
    nrows = len(rows)
    if nrows == 0:
        return [], []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = -1
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], p - 2, p)
        if inv != 1:
            for i in range(col, ncols):
                if prow[i]:
                    prow[i] = prow[i] * inv % p
        tail = [(i, prow[i]) for i in range(col + 1, ncols) if prow[i]]
        for r in range(rank + 1, nrows):
            row = rows[r]
            b = row[col]
            if b:
                row[col] = 0
                for i, v in tail:
                    row[i] = (row[i] - b * v) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    if rank == ncols:
        identity = []
        for k in range(ncols):
            row = [0] * ncols
            row[k] = 1
            identity.append(row)
        return identity, pivots
    for k in range(rank - 1, 0, -1):
        col = pivots[k]
        prow = rows[k]
        tail = [(i, prow[i]) for i in range(col + 1, ncols) if prow[i]]
        for r in range(k):
            row = rows[r]
            b = row[col]
            if b:
                row[col] = 0
                for i, v in tail:
                    row[i] = (row[i] - b * v) % p
    return rows[:rank], pivots


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

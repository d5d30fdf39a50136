"""Shared fixtures: pinned small algebras and the doubling chain."""

import random
from fractions import Fraction as F

import pytest

from homalg import homstruct, leibniz, subspaces
from homalg.algebra import Algebra
from homalg.constructions import cayley_dickson_chain
from homalg.fields import GF, QQ
from homalg.linalg import Matrix, kernel

# every solver memoized per argument value in a bounded lru_cache
MEMOIZED = (
    subspaces.centralizer,
    subspaces.nucleus,
    subspaces.annihilator,
    subspaces.span_of,
    subspaces.find_unities,
    homstruct.twist_space,
    homstruct._scanned_maps,
    homstruct._op_family,
    homstruct.hu_t,
    homstruct.ac_l_subspace,
    homstruct.ac_r_subspace,
    homstruct.hu_n,
    homstruct.ac_one_sided,
    leibniz.leibniz_check,
)


def clear_memo():
    for fn in MEMOIZED:
        fn.cache_clear()


def reference_twist_space(a):
    """The twist space as the kernel of all n^4 basis-triple rows, row
    (i, j, k, m) the e_m coefficient of (e_i e_j) alpha(e_k) - alpha(e_i)(e_j e_k)
    over the flattened alpha, built from ``a.products``: all n^2 unknowns and
    no early stop, an independent route for ``homstruct.twist_space``."""
    n, f = a.dim, a.field
    prods = a.products
    lops = [[a.left_op(p).rows for p in line] for line in prods]
    rops = [[a.right_op(p).rows for p in line] for line in prods]
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    row = [f.zero] * (n * n)
                    for q in range(n):
                        row[q * n + k] = f.add(row[q * n + k], lops[i][j][m][q])
                        row[q * n + i] = f.sub(row[q * n + i], rops[j][k][m][q])
                    rows.append(row)
    return kernel(Matrix(f, rows))


def permuted(a, seed):
    """The same algebra on the basis e'_i = e_perm[i]: the identity for seed
    0, otherwise a shuffle fixed by the seed (the shuffle of the benchmark's
    sedenion workloads)."""
    n = a.dim
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}/").shuffle(perm)
    t = a.tensor
    return type(a)(
        a.field,
        [[[t[perm[i]][perm[j]][perm[k]] for k in range(n)] for j in range(n)] for i in range(n)],
    )


def q(v):
    return F(v)


def qalg(tensor, labels=None):
    """Algebra over Q from an integer structure tensor."""
    return Algebra(
        QQ,
        [[[F(v) for v in col] for col in row] for row in tensor],
        labels=labels,
    )


def fpalg(p, tensor, labels=None):
    field = GF(p)
    return Algebra(
        field,
        [[[field.from_int(v) for v in col] for col in row] for row in tensor],
        labels=labels,
    )


def projection_tensor(dim):
    return [
        [[1 if k == j else 0 for k in range(dim)] for j in range(dim)]
        for _ in range(dim)
    ]


NIL2 = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # e0 e0 = e1
LEIB2 = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]  # [y, y] = x


def left_only_leibniz():
    """[y, x] = [y, y] = x: left Leibniz but not right Leibniz."""
    return qalg([[[0, 0], [0, 0]], [[1, 0], [1, 0]]])


def matrix_algebra_tensor(k):
    """Structure constants of k x k matrices: E_ab E_cd = delta_bc E_ad."""
    n = k * k
    idx = lambda a, b: a * k + b
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(k):
        for b in range(k):
            for c in range(k):
                for d in range(k):
                    if b == c:
                        tensor[idx(a, b)][idx(c, d)][idx(a, d)] = 1
    return tensor


@pytest.fixture(scope="session")
def cd_chain():
    """Doubling chain over Q up to dimension 16 (shared: it is the most
    expensive fixture)."""
    return cayley_dickson_chain(4)


@pytest.fixture(scope="session")
def complexes(cd_chain):
    return cd_chain[1].base


@pytest.fixture(scope="session")
def quaternions(cd_chain):
    return cd_chain[2].base


@pytest.fixture(scope="session")
def octonions(cd_chain):
    return cd_chain[3].base


@pytest.fixture(scope="session")
def sedenions(cd_chain):
    return cd_chain[4].base


@pytest.fixture()
def proj2():
    return qalg(projection_tensor(2))


@pytest.fixture()
def nil2():
    return qalg(NIL2)


@pytest.fixture()
def leib2():
    return qalg(LEIB2)


@pytest.fixture()
def mat2():
    return qalg(matrix_algebra_tensor(2))

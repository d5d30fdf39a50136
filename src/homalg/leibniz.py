"""(Hom-)Leibniz and hom-Lie predicates, and the Leibniz-specific structure
results: the hom-unity subspace inside the nilpotents, unitality collapse,
crossed unitality, and the Yau twist to a hom-Lie algebra.

The bracket is the algebra product; no separate bracket type exists.  One
Leibniz scan, which also decides hom-Jacobi, answers both sides at once and
is memoized per (algebra, twist) value in a bounded lru cache; it reads each
term t(e_i)(e_j e_k) or (e_i e_j)t(e_k) from the ``algebra.twisted_ops``
tables, not by multiplying.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from homalg.algebra import Algebra, HomAlgebra, twisted_ops
from homalg.constructions import yau_twist
from homalg.errors import (
    InternalCheckFailure,
    NotLeibniz,
    PreconditionViolated,
)
from homalg.linalg import Matrix, Subspace, as_fractions, combine, meet
from homalg.linalg import vec_add, vec_is_zero
from homalg import homstruct
from homalg import subspaces as sub


@lru_cache(maxsize=64)
def leibniz_check(a: Algebra, twist: Matrix | None = None):
    """(left_witness, right_witness): for each side, the first basis triple in
    lexicographic order where its (hom-)Leibniz identity fails, or None where
    it holds on all of them; without a twist these are the classical
    identities.  One scan decides both sides: each triple computes the two
    shared terms once, and the scan stops once both sides have failed.

    left:  [t(x), [y, z]] = [[x, y], t(z)] + [t(y), [x, z]]
    right: [[x, y], t(z)] = [[x, z], t(y)] + [t(x), [y, z]]
    """
    n = a.dim
    f = a.field
    terms = a.terms
    left, right = twisted_ops(a, twist)
    wit_l = wit_r = None
    for i, j, k in product(range(n), repeat=3):
        outer = combine(f, n, left[i], terms[j][k])  # [t(x), [y, z]]
        inner = combine(f, n, right[k], terms[i][j])  # [[x, y], t(z)]
        if wit_l is None and outer != vec_add(f, inner, combine(f, n, left[j], terms[i][k])):
            wit_l = (i, j, k)
        if wit_r is None and inner != vec_add(f, outer, combine(f, n, right[j], terms[i][k])):
            wit_r = (i, j, k)
        if None not in (wit_l, wit_r):
            break
    return wit_l, wit_r


def is_three_nilpotent_element(a: Algebra, v) -> bool:
    """Every triple product involving v, in any slot and any bracketing,
    vanishes (checked over basis pairs for the two free slots)."""
    mul = a.multiply
    for i in range(a.dim):
        x = a.basis(i)
        vx = mul(v, x)
        xv = mul(x, v)
        for j in range(a.dim):
            y = a.basis(j)
            p = a.products[i][j]
            if not (
                vec_is_zero(mul(vx, y))
                and vec_is_zero(mul(xv, y))
                and vec_is_zero(mul(p, v))
                and vec_is_zero(mul(v, p))
                and vec_is_zero(mul(x, mul(v, y)))
                and vec_is_zero(mul(x, mul(y, v)))
            ):
                return False
    return True


def hu_n_leibniz(a: Algebra) -> Subspace:
    """Hom-unities of a Leibniz bracket: the meet of the commutative center
    with the left annihilator of the derived subalgebra.

    Asserts the side-independence of the annihilator variant, 3-nilpotency of
    every basis vector, and that each basis vector is a compatible left
    multiplier (its left multiplication operator is a valid twist).
    """
    if None not in leibniz_check(a):
        raise NotLeibniz("bracket satisfies neither Leibniz identity")
    c = sub.center(a)
    derived = sub.span_of(a, "products")
    result = meet(c, sub.annihilator(a, derived, "left"))
    right_variant = meet(c, sub.annihilator(a, derived, "right"))
    both_variant = meet(c, sub.annihilator(a, derived, "both"))
    if not (result == right_variant == both_variant):
        raise InternalCheckFailure("annihilator side-independence failed")
    hu_t_left = homstruct.hu_t(a, "left")
    # 3-nilpotency needs 2 invertible: the key cancellation is 2T = 0 => T = 0,
    # and symmetric brackets over F2 give genuine counterexamples
    check_nilpotency = a.field.char != 2
    for v in result.basis.rows:
        if check_nilpotency and not is_three_nilpotent_element(a, v):
            raise InternalCheckFailure(
                f"basis vector {as_fractions(a.field, v)} is not 3-nilpotent"
            )
        if not hu_t_left.contains(v):
            raise InternalCheckFailure(
                f"basis vector {as_fractions(a.field, v)} is not a left multiplier twist"
            )
    return result


def unitality_collapse_check(a: Algebra) -> dict:
    """A Leibniz bracket with any one-sided unity must be the zero product."""
    if None not in leibniz_check(a):
        return {"applicable": False, "ok": True, "reason": "not Leibniz on either side"}
    unital = (
        not sub.find_unities(a, "left").is_empty
        or not sub.find_unities(a, "right").is_empty
    )
    if not unital:
        return {"applicable": True, "unital": False, "ok": True}
    return {
        "applicable": True,
        "unital": True,
        "product_zero": a.is_zero_algebra(),
        "ok": a.is_zero_algebra(),
    }


def crossed_unitality_check(h: HomAlgebra) -> dict:
    """For a unital hom-associative hom-Leibniz bracket, the unity side and
    the Leibniz side must cross: same-sided combinations force a zero twist,
    crossed ones push the twisted unity into the opposite annihilator."""
    a = h.base
    report: dict = {"applicable": h.is_hom_associative(), "implications": []}
    if not report["applicable"]:
        report["ok"] = True
        report["reason"] = "not hom-associative"
        return report
    uni_l = sub.find_unities(a, "left")
    uni_r = sub.find_unities(a, "right")
    leib_l, leib_r = (w is None for w in leibniz_check(a, h.twist))
    full = Subspace.full(a.field, a.dim)
    ann_l = sub.annihilator(a, full, "left")
    ann_r = sub.annihilator(a, full, "right")
    ok = True

    def push(name, holds):
        nonlocal ok
        report["implications"].append({"name": name, "holds": holds})
        ok = ok and holds

    if leib_r and not uni_l.is_empty:
        push(
            "right_leibniz_left_unity_twisted_unity_right_annihilates",
            ann_r.contains(h.twist.apply(uni_l.particular)),
        )
    if leib_l and not uni_r.is_empty:
        push(
            "left_leibniz_right_unity_twisted_unity_left_annihilates",
            ann_l.contains(h.twist.apply(uni_r.particular)),
        )
    if leib_r and not uni_r.is_empty:
        push("right_leibniz_right_unity_zero_twist", h.twist.is_zero())
    if leib_l and not uni_l.is_empty:
        push("left_leibniz_left_unity_zero_twist", h.twist.is_zero())
    report["hypotheses"] = {
        "left_unital": not uni_l.is_empty,
        "right_unital": not uni_r.is_empty,
        "left_hom_leibniz": leib_l,
        "right_hom_leibniz": leib_r,
    }
    report["ok"] = ok
    return report


# pinned hom-Jacobi form, recorded in reports
HOM_JACOBI_FORM = "[t(x),[y,z]] + [t(y),[z,x]] + [t(z),[x,y]] = 0"


def hom_lie_check(h: HomAlgebra):
    """(ok, witness): skew-symmetry with an explicit alternating check on the
    diagonal (covering characteristic 2) plus the twisted Jacobi identity.
    On a skew bracket [[x, y], t(z)] = -[t(z), [x, y]] and
    [t(y), [x, z]] = -[t(y), [z, x]], so the hom-Jacobi sum at (x, y, z) is
    the left hom-Leibniz defect there: the same failing triples, and the
    same first one."""
    a = h.base
    f = a.field
    n = a.dim
    for i in range(n):
        if not vec_is_zero(a.products[i][i]):
            return False, ("skew_symmetry", (i, i))
        for j in range(i + 1, n):
            s = vec_add(f, a.products[i][j], a.products[j][i])
            if not vec_is_zero(s):
                return False, ("skew_symmetry", (i, j))
    witness = leibniz_check(a, h.twist)[0]
    return (True, None) if witness is None else (False, ("hom_jacobi", witness))


def leibniz_yau_to_homlie(a: Algebra, mult, w, side: str = "right") -> HomAlgebra:
    """Yau-twist a multiplicative one-sided hom-Leibniz bracket, twisted by a
    one-sided multiplication operator with a bracket fixed point, into a
    multiplicative hom-Lie algebra.

    right: twist L_mult, requires mult = [mult, w];
    left:  twist R_mult, requires mult = [w, mult].
    The result carries the product t o bracket and the twist t o t.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    a._check_elem(mult)
    a._check_elem(w)
    if side == "right":
        alpha = a.left_op(mult)
        fixed = a.multiply(mult, w)
        fixed_name = "mult = [mult, w]"
    else:
        alpha = a.right_op(mult)
        fixed = a.multiply(w, mult)
        fixed_name = "mult = [w, mult]"
    witness = leibniz_check(a, alpha)[0 if side == "left" else 1]
    if witness is not None:
        raise PreconditionViolated(
            f"not {side} hom-Leibniz for the multiplication twist, witness {witness}"
        )
    if not HomAlgebra(a, alpha).is_multiplicative():
        raise PreconditionViolated("multiplication twist is not multiplicative")
    if fixed != tuple(mult):
        raise PreconditionViolated(f"fixed-point relation failed: {fixed_name}")
    twisted = yau_twist(a, alpha)
    result = HomAlgebra(twisted.base, alpha.matmul(alpha))
    ok, witness = hom_lie_check(result)
    if not ok:
        raise InternalCheckFailure(f"twisted bracket is not hom-Lie: {witness}")
    if not result.is_multiplicative():
        raise InternalCheckFailure("twisted bracket is not multiplicative")
    return result

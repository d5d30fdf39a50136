"""Invariant-suite campaigns: run every applicable theorem check over a
collection of algebras (a file corpus, pinned instances, seeded random ones)
and merge the outcomes into one deterministic report.

The acceptance suite and the command line drive the same runner.
"""

from __future__ import annotations

from homalg import homstruct, leibniz
from homalg.algebra import Algebra, HomAlgebra
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    random_algebra,
    random_linear_map,
    truncated_poly,
    yau_criterion,
)
from homalg.errors import HomalgError, InternalCheckFailure, InvariantViolation
from homalg.fields import GF, QQ
from homalg.reports import tool_stamp


def projection_algebra(field=QQ, dim: int = 2) -> Algebra:
    """x * y = (sum of x coordinates) * y; left-unital, not right-unital."""
    one, zero = field.one, field.zero
    tensor = [
        [[one if k == j else zero for k in range(dim)] for j in range(dim)]
        for _ in range(dim)
    ]
    return Algebra(field, tensor)


def nil2_algebra(field=QQ) -> Algebra:
    """Two-dimensional algebra with e0 e0 = e1 and all other products zero."""
    one, zero = field.one, field.zero
    return Algebra(field, [[[zero, one], [zero, zero]], [[zero, zero], [zero, zero]]])


def leib2_algebra(field=QQ) -> Algebra:
    """Basis {x, y} with [y, y] = x; a two-dimensional Leibniz bracket."""
    one, zero = field.one, field.zero
    return Algebra(field, [[[zero, zero], [zero, zero]], [[zero, zero], [one, zero]]])


def cross_product_algebra(field=QQ) -> Algebra:
    """The three-dimensional Lie bracket [e0, e1] = e2 (cyclically)."""
    one, zero = field.one, field.zero
    t = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        t[i][j][k] = one
        t[j][i][k] = field.neg(one)
    return Algebra(field, t)


def builtin_corpus():
    """Small pinned instances exercised by every campaign."""
    chain = cayley_dickson_chain(2)
    return [
        ("builtin/projection2", projection_algebra(QQ, 2)),
        ("builtin/projection3_f2", projection_algebra(GF(2), 3)),
        ("builtin/nil2", nil2_algebra(QQ)),
        ("builtin/nil2_f2", nil2_algebra(GF(2))),
        ("builtin/leib2", leib2_algebra(QQ)),
        ("builtin/cross_product", cross_product_algebra(QQ)),
        ("builtin/complex", chain[1].base),
        ("builtin/quaternions", chain[2].base),
        ("builtin/poly_t_deg6", truncated_poly(QQ, 6, with_constants=False)),
        ("builtin/poly_unital_deg4", truncated_poly(QQ, 4, with_constants=True)),
    ]


_FLAG_CYCLE = (
    "left_unital",
    "left_unital",
    "commutative",
    "left_unital",
    "none",
    "left_unital",
    "anticommutative",
    "left_unital",
    "left_unital",
    "commutative",
)


def generated_algebras(seeds: int, start: int = 0):
    """Deterministic seed schedule: fields alternate Q / F2, dimensions cycle
    2..5, flags cycle with a left-unital majority."""
    if seeds < 0:
        raise InvariantViolation(f"seed count must be non-negative, got {seeds}")
    out = []
    for s in range(start, start + seeds):
        field = QQ if s % 2 == 0 else GF(2)
        dim = 2 + (s // 2) % 4
        flag = _FLAG_CYCLE[s % len(_FLAG_CYCLE)]
        cfg = GeneratorConfig(seed=s, dim=dim, field=field, flag=flag)
        out.append((f"generated/{s:04d}-{field.label}-d{dim}-{flag}", random_algebra(cfg)))
    return out


def _twist_instances(a: Algebra, ts) -> list:
    """Basis twist maps plus their pairwise sums (deterministic coverage of
    the twist space beyond the basis rays)."""
    maps = list(ts.maps)
    for i in range(len(ts.maps)):
        for j in range(i + 1, len(ts.maps)):
            maps.append(ts.maps[i].add(ts.maps[j]))
    return maps


def algebra_checks(name: str, a: Algebra, unitalize_limit: int = 8) -> list[dict]:
    """The full invariant suite for one algebra: the structure-theorem audit
    plus per-twist-instance reports (multiplicativity, relation tables),
    Leibniz checks, and twist-criterion agreement."""
    entries = []

    def push(check: str, status: str, detail: str = ""):
        e = {"algebra": name, "check": check, "status": status}
        if detail:
            e["detail"] = detail
        entries.append(e)

    try:
        report = homstruct.structure_theorem_audit(a, unitalize_limit=unitalize_limit)
    except HomalgError as exc:
        push("structure_theorem_audit", "fail", f"{type(exc).__name__}: {exc}")
        return entries
    for c in report.checks:
        push(f"audit/{c.name}", c.status, c.detail)

    unities = report.unities
    sides = [
        (side, unities[side].particular)
        for side in ("left", "right")
        if not unities[side].is_empty
    ]
    for idx, m in enumerate(_twist_instances(a, report.twist)):
        h = HomAlgebra(a, m)
        for side, unity in sides:
            try:
                homstruct.multiplicativity_report(h, unity, side)
                push(f"twist{idx}/multiplicativity_equivalence_{side}", "pass")
            except HomalgError as exc:
                push(
                    f"twist{idx}/multiplicativity_equivalence_{side}",
                    "fail",
                    f"{type(exc).__name__}: {exc}",
                )
            try:
                tables = homstruct.relation_tables_check(h, unity, side)
                push(
                    f"twist{idx}/relation_tables_{side}",
                    "pass" if tables["all_pass"] else "fail",
                    "" if tables["all_pass"] else str(sorted(
                        k for k, v in tables["rows"].items() if not v
                    )),
                )
            except HomalgError as exc:
                push(
                    f"twist{idx}/relation_tables_{side}",
                    "fail",
                    f"{type(exc).__name__}: {exc}",
                )
        # twist-criterion agreement is enforced inside yau_criterion
        try:
            yau_criterion(a, m)
            push(f"twist{idx}/yau_agreement", "pass")
        except InternalCheckFailure as exc:
            push(f"twist{idx}/yau_agreement", "fail", str(exc))

    for s in range(2):
        alpha = random_linear_map(a.field, a.dim, seed=7919 + s)
        try:
            yau_criterion(a, alpha)
            push(f"random_map{s}/yau_agreement", "pass")
        except InternalCheckFailure as exc:
            push(f"random_map{s}/yau_agreement", "fail", str(exc))

    if None in leibniz.leibniz_check(a):
        try:
            hu = leibniz.hu_n_leibniz(a)
            push("leibniz/hu_n_internal_checks", "pass", f"dim {hu.dim}")
        except HomalgError as exc:
            push("leibniz/hu_n_internal_checks", "fail", str(exc))
        collapse = leibniz.unitality_collapse_check(a)
        push(
            "leibniz/unitality_collapse",
            "pass" if collapse["ok"] else "fail",
            "" if collapse["ok"] else str(collapse),
        )
        for idx, m in enumerate(report.twist.maps):
            crossed = leibniz.crossed_unitality_check(HomAlgebra(a, m))
            push(
                f"leibniz/crossed_unitality_twist{idx}",
                "pass" if crossed["ok"] else "fail",
                "" if crossed["ok"] else str(crossed),
            )
    else:
        push("leibniz/not_applicable", "skipped")
    return entries


def run_campaign(named_algebras, unitalize_limit: int = 8) -> dict:
    """Run the invariant suite over the given (name, algebra) pairs; entries
    are merged in name order so output is deterministic regardless of how the
    collection was assembled."""
    all_entries = []
    for name, a in sorted(named_algebras, key=lambda kv: kv[0]):
        all_entries.extend(algebra_checks(name, a, unitalize_limit=unitalize_limit))
    failures = [e for e in all_entries if e["status"] == "fail"]
    flaggedc = [e for e in all_entries if e["status"] == "flagged"]
    return {
        "format_version": 1,
        "tool": tool_stamp(),
        "algebras": len({e["algebra"] for e in all_entries}),
        "total_checks": len(all_entries),
        "failures": len(failures),
        "flagged": len(flaggedc),
        "ok": not failures,
        "entries": all_entries,
    }

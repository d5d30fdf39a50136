"""Per-layer metrics of the traced run, and what each one should move.

Every value is a mean per traced repetition (one audit, one campaign pass or
one CLI invocation), so runs with different repetition counts compare.
Names follow ``<module>.<function>.<stat>``:

* ``calls``: entries into the function (``twist_space`` counts cache hits);
* ``busy_s``: inclusive wall seconds;
* ``self_s``: busy time minus the time covered by traced calls under it;
* ``<module>.self_s``: the self time of every traced function of the module.
  These module totals plus ``trace.unattributed_s`` add up to
  ``trace.rep_s``, so the layers account for the whole traced repetition.

Run ``python3 perfbench/layers.py`` to print the catalogue with, for each
metric, the end-to-end metric and workload it should move (``moves``) and the
pairings where it predicts no change (``no_change``).
"""

from __future__ import annotations

import json

HOMSTRUCT = (
    "twist_space",
    "hu_t",
    "ac_l_subspace",
    "hu_n",
    "ac_two_sided",
    "ac_one_sided",
    "bijection_report",
    "relation_tables_check",
    "multiplicativity_report",
)
SUBSPACES = ("nucleus", "centralizer", "annihilator", "span_of", "find_unities")
ORACLES = (
    "algebra.HomAlgebra.is_hom_associative",
    "constructions.yau_criterion",
    "constructions.ac_unitalized_by_eigenspaces",
    "leibniz.leibniz_check",
    "leibniz.hu_n_leibniz",
    "leibniz.crossed_unitality_check",
)
IO = ("campaign.algebra_checks", "fileio.parse", "reports.audit_json", "reports.render")
MODULES = (
    "homstruct",
    "subspaces",
    "linalg",
    "kernels",
    "algebra",
    "constructions",
    "leibniz",
    "campaign",
    "fileio",
    "reports",
    "cli",
)
MODULE_GROUP = {
    "homstruct": "homstruct",
    "subspaces": "subspaces",
    "linalg": "linalg",
    "kernels": "kernels",
    "algebra": "oracles",
    "constructions": "oracles",
    "leibniz": "oracles",
    "campaign": "campaign",
    "fileio": "io",
    "reports": "io",
    "cli": "io",
}
INTAKE = ("linalg.NullspaceSolver.add_dense", "linalg.NullspaceSolver.add_sparse")
SOLVE = "linalg.NullspaceSolver.solve"

Q, FP, CAMP, CLI = "sedenion_audit_q", "sedenion_audit_fp", "campaign", "cli_analyze"

# Group -> (moves, no_change), as [end-to-end metric, workload] pairs.
PREDICTIONS = {
    "homstruct": (
        [["op_p50_s", Q], ["op_p50_s", FP], ["op_p50_s", CAMP]],
        [],
    ),
    "subspaces": (
        [["op_p50_s", Q], ["op_p50_s", FP], ["ops_per_s", CAMP]],
        [],
    ),
    # FP is the control: a Q-only assembly change leaves it unchanged.
    "linalg": (
        [["op_p50_s", Q], ["peak_rss_mb", Q]],
        [["op_p50_s", FP]],
    ),
    # Kernels are under 1% of the Q audit: at most their campaign share moves.
    "kernels": (
        [["op_p50_s", CAMP]],
        [["op_p50_s", Q]],
    ),
    "oracles": (
        [["ops_per_s", CAMP], ["op_tail_s", CAMP]],
        [],
    ),
    "campaign": (
        [["op_p50_s", CAMP], ["ops_per_s", CAMP]],
        [],
    ),
    # fileio / reports / import: under 0.1% of every workload but the CLI.
    "io": (
        [["op_p50_s", CLI], ["setup_s", CLI]],
        [["op_p50_s", w] for w in (Q, FP, CAMP)],
    ),
    "trace": ([], []),
}


def _better(stat: str) -> str:
    higher = ("cache_hits", "distinct_ratio", "cert_shortcut_ratio")
    return "higher" if stat in higher else "lower"


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("ratio"):
        return "ratio"
    if stat == "bytes":
        return "bytes"
    return "count"


def catalogue() -> list:
    """[(name, group)] in the order BENCHMARK.json lists them."""
    out = []
    for f in HOMSTRUCT:
        out += [(f"homstruct.{f}.{s}", "homstruct") for s in ("calls", "busy_s", "self_s")]
    out.append(("homstruct.twist_space.cache_hits", "homstruct"))
    for f in SUBSPACES:
        out += [
            (f"subspaces.{f}.{s}", "subspaces")
            for s in ("calls", "busy_s", "self_s", "distinct")
        ]
    out.append(("subspaces.distinct_ratio", "subspaces"))
    out += [
        (f"linalg.{s}", "linalg")
        for s in (
            "rows_offered",
            "intake_self_s",
            "solve.calls",
            "cert_shortcut_ratio",
            "Subspace.from_rows.calls",
            "Subspace.from_rows.self_s",
            "meet.calls",
            "meet.self_s",
        )
    ]
    for k in ("rref_fp", "rref_int"):
        out += [
            (f"kernels.{k}.{s}", "kernels")
            for s in ("calls", "rows", "cells_computed", "busy_s")
        ]
    out += [(f"kernels.row_primitive_int.{s}", "kernels") for s in ("calls", "busy_s")]
    for f in ORACLES:
        out += [(f"{f}.{s}", "oracles") for s in ("calls", "busy_s", "self_s")]
    for f in IO:
        group = "campaign" if f.startswith("campaign.") else "io"
        out += [(f"{f}.{s}", group) for s in ("calls", "busy_s", "self_s")]
    out += [("reports.render.bytes", "io"), ("cli.import_s", "io")]
    out += [(f"{m}.self_s", MODULE_GROUP[m]) for m in MODULES]
    out += [
        ("trace.rep_s", "trace"),
        ("trace.untraced_rep_s", "trace"),
        ("trace.overhead_s", "trace"),
        ("trace.unattributed_s", "trace"),
    ]
    return out


def benchmark_entries() -> list:
    """The ``per_layer`` list of BENCHMARK.json."""
    out = []
    for name, _ in catalogue():
        stat = name.rsplit(".", 1)[1]
        out.append({"name": name, "unit": _unit(stat), "better": _better(stat)})
    return out


def compute(summaries: list, untraced_rep_s: float, import_s: float) -> dict:
    """Per-repetition means from the worker trace summaries; each summary
    carries ``rep_s`` (traced repetition seconds) and ``render_bytes``."""
    reps = len(summaries)
    stats, counters, rows, distinct = {}, {}, {}, {}
    rep_s = render_bytes = 0.0
    for s in summaries:
        rep_s += s["rep_s"]
        render_bytes += s["render_bytes"]
        for name, (c, b, sf) in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += b
            acc[2] += sf
        for k, v in s["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, (r, cells) in s["kernel_rows"].items():
            acc = rows.setdefault(k, [0, 0])
            acc[0] += r
            acc[1] += cells
        for k, v in s["distinct"].items():
            distinct[k] = distinct.get(k, 0) + v

    def st(name, i):
        return stats.get(name, (0, 0.0, 0.0))[i]

    values = {}
    for name, _ in catalogue():
        fn, stat = name.rsplit(".", 1)
        if stat in ("calls", "busy_s", "self_s") and fn not in MODULES:
            values[name] = st(fn, ("calls", "busy_s", "self_s").index(stat))
    values["homstruct.twist_space.cache_hits"] = counters.get("twist_cache_hits", 0)
    for f in SUBSPACES:
        values[f"subspaces.{f}.distinct"] = distinct.get(f"subspaces.{f}", 0)
    sub_calls = sum(st(f"subspaces.{f}", 0) for f in SUBSPACES)
    sub_distinct = sum(distinct.get(f"subspaces.{f}", 0) for f in SUBSPACES)
    values["linalg.rows_offered"] = counters.get("rows_offered", 0)
    values["linalg.intake_self_s"] = sum(st(n, 2) for n in INTAKE)
    solves = st(SOLVE, 0)
    values["linalg.solve.calls"] = solves
    for k in ("rref_fp", "rref_int"):
        r, cells = rows.get(f"kernels.{k}", (0, 0))
        values[f"kernels.{k}.rows"] = r
        values[f"kernels.{k}.cells_computed"] = cells
    values["reports.render.bytes"] = render_bytes
    layer_self = 0.0
    for m in MODULES:
        total = sum(v[2] for n, v in stats.items() if n.split(".", 1)[0] == m)
        values[f"{m}.self_s"] = total
        layer_self += total
    values["trace.rep_s"] = rep_s
    values["trace.unattributed_s"] = rep_s - layer_self
    out = {n: v / reps for n, v in values.items()}
    out["subspaces.distinct_ratio"] = sub_distinct / sub_calls if sub_calls else 0.0
    out["linalg.cert_shortcut_ratio"] = (
        counters.get("solve_shortcuts", 0) / solves if solves else 0.0
    )
    out["cli.import_s"] = import_s
    out["trace.untraced_rep_s"] = untraced_rep_s
    out["trace.overhead_s"] = out["trace.rep_s"] - untraced_rep_s
    return out


def describe() -> list:
    return [
        dict(entry, moves=PREDICTIONS[group][0], no_change=PREDICTIONS[group][1])
        for entry, (_, group) in zip(benchmark_entries(), catalogue())
    ]


if __name__ == "__main__":
    print(json.dumps(describe(), indent=1))

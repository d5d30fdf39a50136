"""Machine-readable report rendering.

All reports are deterministic: canonical subspace bases, sorted JSON keys,
entries ordered by name.  Identical input and tool version give byte-identical
output.
"""

from __future__ import annotations

import json

import homalg
from homalg.constructions import PRNG_NAME
from homalg.fields import Field
from homalg.linalg import AffineSet, Matrix, Subspace


def scalar_list(field: Field, vec):
    return [field.format(v) for v in vec]


def grid(m: Matrix):
    return [scalar_list(m.field, row) for row in m.rows]


def subspace_json(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": grid(s.basis)}


def affine_json(a: AffineSet) -> dict:
    if a.is_empty:
        return {"empty": True}
    return {
        "empty": False,
        "particular": scalar_list(a.field, a.particular),
        "direction": subspace_json(a.direction),
    }


def check_json(c) -> dict:
    out = {"name": c.name, "status": c.status}
    if c.detail:
        out["detail"] = c.detail
    return out


def tool_stamp() -> dict:
    return {"name": "homalg", "version": homalg.__version__, "prng": PRNG_NAME}


def ac_json(acs) -> dict:
    """An ``AcOneSided``: its unity, the multiplier subspaces and the split."""
    return {
        "unity": scalar_list(acs.ac.field, acs.unity),
        "ac": subspace_json(acs.ac),
        "ac_unit": subspace_json(acs.ac_unit),
        "annihilator": subspace_json(acs.ann),
        "split_ok": acs.split_ok,
    }


def audit_json(report) -> dict:
    a = report.algebra
    out = {
        "format_version": 1,
        "tool": tool_stamp(),
        "algebra": {
            "dim": a.dim,
            "field": a.field.to_json(),
            "labels": list(a.labels) if a.labels else None,
        },
        "flags": dict(report.flags),
        "unities": {k: affine_json(v) for k, v in report.unities.items()},
        "subspaces": {k: subspace_json(v) for k, v in report.spaces.items()},
        "twist_space": {
            "dim": report.twist.dim,
            "basis_maps": [grid(m) for m in report.twist.maps],
        },
        "checks": [check_json(c) for c in report.checks],
        "ok": report.ok(),
    }
    for side, acs in (("ac_left", report.ac_left), ("ac_right", report.ac_right)):
        out[side] = None if acs is None else ac_json(acs)
    return out


def render(doc: dict) -> str:
    """The one JSON text form, for reports and emitted algebra files alike:
    sorted keys, two-space indent, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

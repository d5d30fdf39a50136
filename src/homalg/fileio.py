"""The algebra-definition file format: versioned JSON documents with a sparse
structure-constant list and optional twist / conjugation grids.

Round-trip stable: parsing an emitted document reproduces the value
bit-exactly after canonical scalar formatting (lowest terms, sign on the
numerator, zero coefficients omitted, entries sorted).
"""

from __future__ import annotations

import json
from pathlib import Path

from homalg.algebra import Algebra, HomAlgebra, InvolutiveAlgebra, check_dim
from homalg.errors import InvariantViolation, ParseError
from homalg.fields import Field, field_from_json
from homalg.reports import render

FORMAT_VERSION = 1


def _parse_scalar(field: Field, text, where: str):
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ParseError(f"{where}: scalar must be text or integer, got {text!r}")
    try:
        return field.parse(text)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_grid(field: Field, grid, n: int, name: str):
    if not isinstance(grid, list) or len(grid) != n:
        raise InvariantViolation(f"{name} must be a {n}x{n} grid")
    rows = []
    for r, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise InvariantViolation(f"{name} row {r} must have {n} entries")
        rows.append([_parse_scalar(field, v, f"{name}[{r}][{c}]") for c, v in enumerate(row)])
    from homalg.linalg import Matrix

    return Matrix(field, rows)


def doc_to_algebra(doc: dict):
    """Build an Algebra, HomAlgebra, or InvolutiveAlgebra from a parsed
    document; a twist grid yields a HomAlgebra, a conjugation grid an
    InvolutiveAlgebra (never both)."""
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    version = doc.get("format_version")
    # type() is int, not isinstance: JSON true is a bool, an int subclass
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    try:
        field = field_from_json(doc.get("field"))
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")
    check_dim(dim)  # before the dim^3 tensor is allocated
    labels = doc.get("basis")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim:
            raise InvariantViolation("basis label list must match dim")
        labels = [str(v) for v in labels]
    entries = doc.get("structure", [])
    if not isinstance(entries, list):
        raise ParseError("structure must be a list of [i, j, k, scalar] entries")
    tensor = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(f"structure[{pos}] must be [i, j, k, scalar]")
        i, j, k, text = entry
        for idx in (i, j, k):
            if type(idx) is not int or not 0 <= idx < dim:
                raise InvariantViolation(
                    f"structure[{pos}]: index {idx!r} out of range for dim {dim}"
                )
        if (i, j, k) in seen:
            raise InvariantViolation(f"structure[{pos}]: duplicate key ({i},{j},{k})")
        seen.add((i, j, k))
        tensor[i][j][k] = _parse_scalar(field, text, f"structure[{pos}]")
    alg = Algebra(field, tensor, labels=labels)
    twist = doc.get("twist")
    conj = doc.get("conj")
    if twist is not None and conj is not None:
        raise InvariantViolation("a document carries either a twist or a conjugation")
    if twist is not None:
        return HomAlgebra(alg, _parse_grid(field, twist, dim, "twist"))
    if conj is not None:
        return InvolutiveAlgebra(alg, _parse_grid(field, conj, dim, "conj"))
    return alg


def algebra_to_doc(x, meta: dict | None = None) -> dict:
    if isinstance(x, HomAlgebra):
        alg, twist, conj = x.base, x.twist, None
    elif isinstance(x, InvolutiveAlgebra):
        alg, twist, conj = x.base, None, x.conj
    elif isinstance(x, Algebra):
        alg, twist, conj = x, None, None
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    field = alg.field
    structure = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                v = alg.tensor[i][j][k]
                if v:
                    structure.append([i, j, k, field.format(v)])
    doc = {
        "format_version": FORMAT_VERSION,
        "field": field.to_json(),
        "dim": alg.dim,
        "structure": structure,
    }
    if alg.labels:
        doc["basis"] = list(alg.labels)
    if twist is not None:
        doc["twist"] = [[field.format(v) for v in row] for row in twist.rows]
    if conj is not None:
        doc["conj"] = [[field.format(v) for v in row] for row in conj.rows]
    if meta:
        doc["meta"] = meta
    return doc


def parse_text(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer beyond CPython's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    return doc_to_algebra(doc)


def parse(path):
    """Read an algebra definition file; returns Algebra, HomAlgebra, or
    InvolutiveAlgebra."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from exc
    return parse_text(text)


def emit(x, path, meta: dict | None = None):
    Path(path).write_text(render(algebra_to_doc(x, meta)), encoding="utf-8")

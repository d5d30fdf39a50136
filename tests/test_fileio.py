"""Algebra definition files: round trips, validation, canonical formatting."""

import copy
import json
from datetime import timedelta
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qalg, projection_tensor
from homalg.algebra import HomAlgebra, InvolutiveAlgebra
from homalg.cli import main
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    random_algebra,
    truncated_poly,
)
from homalg.errors import DimensionMismatch, HomalgError, InvariantViolation, ParseError
from homalg.fields import GF, QQ
from homalg.fileio import algebra_to_doc, doc_to_algebra, emit, parse, parse_text
from homalg.linalg import Matrix
from homalg.reports import render


def roundtrip(x):
    return doc_to_algebra(json.loads(render(algebra_to_doc(x))))


def test_minimal_field_as_algebra():
    doc = {
        "format_version": 1,
        "field": "Q",
        "dim": 1,
        "structure": [[0, 0, 0, "1"]],
    }
    a = doc_to_algebra(doc)
    assert a.dim == 1
    assert a.multiply(a.basis(0), a.basis(0)) == a.basis(0)


def test_roundtrip_plain_algebra():
    a = random_algebra(GeneratorConfig(seed=21, dim=4, field=QQ, flag="none"))
    assert roundtrip(a) == a


def test_roundtrip_fp_algebra():
    a = random_algebra(GeneratorConfig(seed=4, dim=3, field=GF(7), flag="commutative"))
    assert roundtrip(a) == a


def test_roundtrip_quaternions_preserves_table(tmp_path):
    chain = cayley_dickson_chain(2)
    h = chain[2]
    path = tmp_path / "quat.json"
    emit(h, path)
    back = parse(path)
    assert isinstance(back, InvolutiveAlgebra)
    assert back == h
    i, j, k = back.base.basis(1), back.base.basis(2), back.base.basis(3)
    assert back.base.multiply(i, j) == k


def test_roundtrip_hom_algebra(tmp_path):
    tp = truncated_poly(QQ, 4)
    h = HomAlgebra(tp, tp.left_op(tp.basis(0)))
    path = tmp_path / "twisted.json"
    emit(h, path)
    back = parse(path)
    assert isinstance(back, HomAlgebra)
    assert back == h


def test_roundtrip_rational_scalars():
    a = qalg([[[0]]])
    doc = algebra_to_doc(a)
    doc["structure"] = [[0, 0, 0, "4/6"]]
    b = doc_to_algebra(doc)
    assert algebra_to_doc(b)["structure"] == [[0, 0, 0, "2/3"]]


def test_non_integral_algebra_roundtrips_and_analyzes(tmp_path, capsys):
    # e0 e0 = 3/2 e0, e0 e1 = e1 e0 = 3/2 e1, e1 e1 = -1/4 e0: unity 2/3 e0
    doc = {
        "format_version": 1,
        "field": "Q",
        "dim": 2,
        "structure": [[0, 0, 0, "3/2"], [0, 1, 1, "3/2"], [1, 0, 1, "3/2"], [1, 1, 0, "-1/4"]],
    }
    a = doc_to_algebra(doc)
    assert a.tensor[0][0][0] == F(3, 2) and type(a.tensor[0][1][0]) is int
    path = tmp_path / "thirds.json"
    emit(a, path)
    assert parse(path) == a
    assert algebra_to_doc(parse(path))["structure"] == doc["structure"]
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["unities"]["two_sided"]["particular"] == ["2/3", "0"]
    assert report["twist_space"]["basis_maps"][1] == [["0", "1"], ["-6", "0"]]


def test_duplicate_key_rejected():
    doc = {
        "format_version": 1,
        "field": "Q",
        "dim": 1,
        "structure": [[0, 0, 0, "1"], [0, 0, 0, "2"]],
    }
    with pytest.raises(InvariantViolation):
        doc_to_algebra(doc)


def test_bad_prime_rejected():
    # composite; prime but above the 2**64 cap; not an integer
    for p in (6, 2**64 + 13, 7.9, "7", True):
        doc = {"format_version": 1, "field": {"Fp": p}, "dim": 1, "structure": []}
        with pytest.raises(InvariantViolation):
            doc_to_algebra(doc)


def test_dimension_cap_checked_before_structure(monkeypatch):
    # the cap must fire before the dim^3 tensor exists or any entry is read
    monkeypatch.setenv("HOMALG_MAX_DIM", "2")
    doc = {"format_version": 1, "field": "Q", "dim": 3, "structure": ["bad"]}
    with pytest.raises(DimensionMismatch):
        doc_to_algebra(doc)


def test_bad_involution_rejected():
    doc = {
        "format_version": 1,
        "field": "Q",
        "dim": 1,
        "structure": [],
        "conj": [["2"]],
    }
    with pytest.raises(InvariantViolation):
        doc_to_algebra(doc)


def test_twist_and_conj_together_rejected():
    doc = {
        "format_version": 1,
        "field": "Q",
        "dim": 1,
        "structure": [],
        "twist": [["1"]],
        "conj": [["1"]],
    }
    with pytest.raises(InvariantViolation):
        doc_to_algebra(doc)


def test_out_of_range_index_rejected():
    doc = {"format_version": 1, "field": "Q", "dim": 2, "structure": [[0, 2, 0, "1"]]}
    with pytest.raises(InvariantViolation):
        doc_to_algebra(doc)


def test_bad_scalar_text():
    doc = {"format_version": 1, "field": "Q", "dim": 1, "structure": [[0, 0, 0, "x"]]}
    with pytest.raises(ParseError):
        doc_to_algebra(doc)


def test_bad_version():
    with pytest.raises(ParseError):
        doc_to_algebra({"format_version": 2, "field": "Q", "dim": 1, "structure": []})


_BOOLEAN_DOC = {
    "format_version": True,
    "field": "Q",
    "dim": True,
    "structure": [[False, 0, 0, "1"]],
}


def test_json_booleans_are_not_integers(tmp_path):
    # True == 1 and isinstance(True, int); a boolean must still not count as
    # the version, the dimension or a structure index
    with pytest.raises(HomalgError):
        doc_to_algebra(_BOOLEAN_DOC)
    valid = {"format_version": 1, "field": "Q", "dim": 1, "structure": [[0, 0, 0, "1"]]}
    assert doc_to_algebra(valid).dim == 1
    for key, value in (("format_version", True), ("dim", True)):
        with pytest.raises(ParseError):
            doc_to_algebra({**valid, key: value})
    for pos in range(3):
        entry = [0, 0, 0, "1"]
        entry[pos] = False
        with pytest.raises(InvariantViolation):
            doc_to_algebra({**valid, "structure": [entry]})
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(_BOOLEAN_DOC))
    assert main(["analyze", str(path)]) == 2


def test_json_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_text("{\n  broken\n}")
    assert "line 2" in str(err.value)


def test_emitted_documents_are_byte_stable(tmp_path):
    a = random_algebra(GeneratorConfig(seed=30, dim=3, field=QQ, flag="left_unital"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit(a, p1)
    emit(roundtrip(a), p2)
    assert p1.read_text() == p2.read_text()


def test_labels_roundtrip():
    a = qalg(projection_tensor(2), labels=("u", "v"))
    assert roundtrip(a).labels == ("u", "v")


# -- hostile input ---------------------------------------------------------------


def _doubling_doc(levels):
    """A valid document in the emitted style: labels, structure, twist grid."""
    a = cayley_dickson_chain(levels)[levels].base
    return algebra_to_doc(HomAlgebra(a, Matrix.identity(QQ, a.dim)))


_BASE_DOCS = (_doubling_doc(1), _doubling_doc(2))  # complex numbers, quaternions
_DELETE = object()

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["0", "-1", "1/2", "1/0", "x", " 3 ", "1e3", "2**64"])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
_values = _json_values | st.integers(-2, 6) | st.just(_DELETE)
_moduli = st.integers(-3, 2**66) | st.sampled_from([2, 3, 6, 65521, 2**61 - 1, 2**64 + 13])
_mutation = st.one_of(
    st.tuples(st.just(("format_version",)), _values),
    st.tuples(st.just(("field",)), _values | _moduli.map(lambda p: {"Fp": p})),
    st.tuples(st.just(("field", "Fp")), _values | _moduli),
    st.tuples(st.just(("dim",)), _values | st.integers(-2, 10**9)),
    st.tuples(st.just(("basis",)), _values),
    st.tuples(st.tuples(st.just("basis"), st.integers(0, 4)), _values),
    st.tuples(st.just(("structure",)), _values),
    st.tuples(st.tuples(st.just("structure"), st.integers(0, 17)), _values),
    st.tuples(
        st.tuples(st.just("structure"), st.integers(0, 17), st.integers(0, 3)), _values
    ),
    st.tuples(st.just(("twist",)), _values),
    st.tuples(st.tuples(st.just("twist"), st.integers(0, 4)), _values),
    st.tuples(st.tuples(st.just("twist"), st.integers(0, 4), st.integers(0, 4)), _values),
)


def _mutate(doc, path, value):
    """Set (or delete) doc[path]; an index past the end appends, and a path
    through a non-container leaves the document as it is."""
    *parents, last = path
    node = doc
    for key in parents:
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return
    if isinstance(node, dict):
        if value is _DELETE:
            node.pop(last, None)
        else:
            node[last] = value
    elif isinstance(node, list) and isinstance(last, int):
        if value is _DELETE:
            if last < len(node):
                del node[last]
        elif last < len(node):
            node[last] = value
        else:
            node.append(value)


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(st.sampled_from(_BASE_DOCS), st.lists(_mutation, min_size=1, max_size=3))
def test_mutated_documents_fail_cleanly(tmp_path_factory, base, mutations):
    doc = copy.deepcopy(base)
    for path, value in mutations:
        _mutate(doc, path, value)
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOMALG_MAX_DIM", "4")
        try:
            parse(path)
        except HomalgError:
            pass
        out = str(path.parent / "out.json")
        for argv in (
            ["analyze"],
            ["leibniz"],
            ["leibniz", "--twist-from-file"],
            ["twist-space"],
            *(["ac", "--side", side] for side in ("left", "right", "two")),
            ["yau", "--left-mult", "0", "-o", out],
            ["unitalize", "-o", out],
            ["opposite", "-o", out],
        ):
            assert main([*argv, str(path)]) in (0, 1, 2), argv

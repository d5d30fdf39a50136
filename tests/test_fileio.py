"""Algebra definition files: round trips, validation, canonical formatting."""

import json

import pytest

from conftest import qalg, projection_tensor
from homalg.algebra import HomAlgebra, InvolutiveAlgebra
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    random_algebra,
    truncated_poly,
)
from homalg.errors import DimensionMismatch, InvariantViolation, ParseError
from homalg.fields import GF, QQ
from homalg.fileio import algebra_to_doc, doc_to_algebra, dumps, emit, parse, parse_text


def roundtrip(x):
    return doc_to_algebra(json.loads(dumps(algebra_to_doc(x))))


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
    for p in (6, 2**64 + 13):  # composite; prime but above the 2**64 cap
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

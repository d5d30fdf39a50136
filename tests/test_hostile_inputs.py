"""A fixed corpus of hostile algebra files through every file-reading
subcommand, in-process through ``cli.main``.

Each class of damage recorded against the file format (booleans where
integers belong, float, string and non-prime moduli, over-long integers,
huge exponents, values too long to print, deep nesting, invalid UTF-8, bad
indices, duplicates, a dimension over the cap, a bad twist or conjugation)
is one file here, next to valid files of the same shape.  Every subcommand
must answer each with exit code 0, 1 or 2, raise nothing, and finish within
a time bound.
"""

import json
import time

import pytest

from homalg.algebra import HomAlgebra
from homalg.cli import main
from homalg.constructions import cayley_dickson_chain
from homalg.fields import QQ
from homalg.fileio import algebra_to_doc
from homalg.linalg import Matrix

# e0 e0 = e0, e0 e1 = e1: a left unity, small enough that a valid file
# passes through every subcommand quickly
_PLAIN = [[0, 0, 0, "1"], [0, 1, 1, "1"]]
_IDENTITY = [["1", "0"], ["0", "1"]]
_CASE_SECONDS = 20.0


def _doc(**changes) -> bytes:
    doc = {"format_version": 1, "field": "Q", "dim": 2, "structure": _PLAIN}
    doc.update(changes)
    return json.dumps(doc).encode()


def _raw(structure: str = json.dumps(_PLAIN), field: str = '"Q"') -> bytes:
    """A document spelled out as text, for literals ``json.dumps`` refuses."""
    return (
        f'{{"format_version": 1, "field": {field}, "dim": 2, "structure": {structure}}}'
    ).encode()


def _quaternions_with_twist() -> bytes:
    a = cayley_dickson_chain(2)[2].base
    return json.dumps(algebra_to_doc(HomAlgebra(a, Matrix.identity(QQ, 4)))).encode()


LONG_DIGITS = "9" * 5000  # past CPython's limit on the digits of an int literal

CORPUS = {
    "valid_plain": _doc(),
    "valid_twist": _doc(twist=_IDENTITY),
    "valid_fp": _doc(field={"Fp": 5}),
    "valid_quaternions_twist": _quaternions_with_twist(),
    "valid_zero_product": _doc(structure=[]),
    # booleans where integers belong (JSON true is an int subclass)
    "bool_format_version": _doc(format_version=True),
    "bool_dim": _doc(dim=True),
    "bool_index": _doc(structure=[[True, 0, 0, "1"]]),
    "bool_scalar": _doc(structure=[[0, 0, 0, True]]),
    "bool_modulus": _doc(field={"Fp": True}),
    # moduli
    "float_modulus": _doc(field={"Fp": 5.0}),
    "string_modulus": _doc(field={"Fp": "5"}),
    "nonprime_modulus": _doc(field={"Fp": 6}),
    "unit_modulus": _doc(field={"Fp": 1}),
    "modulus_over_cap": _doc(field={"Fp": 2**64 + 13}),
    "overlong_modulus": _raw(field=f'{{"Fp": {LONG_DIGITS}}}'),
    # integers, literals and exponents
    "overlong_integer": _raw(structure=f"[[0, 0, 0, {LONG_DIGITS}]]"),
    "overlong_literal": _doc(structure=[[0, 0, 0, LONG_DIGITS]]),
    "huge_exponent": _doc(structure=[[0, 0, 0, "1e999999999"]]),
    "huge_negative_exponent": _doc(structure=[[0, 0, 0, "1e-999999999"]]),
    # parses and prints, but its Yau twist has more digits than CPython prints
    "overlong_printed_value": _doc(
        structure=[[0, 0, 0, "1e4000"], [0, 1, 1, "1"]],
        twist=[["1e4000", "0"], ["0", "1"]],
    ),
    # nesting and encoding
    "deep_nesting": b"[" * 100_000 + b"]" * 100_000,
    "deep_nesting_in_structure": _raw(structure="[" * 50_000 + "]" * 50_000),
    "invalid_utf8": _raw(structure='[[0, 0, 0, "X"]]').replace(b"X", b"\xff"),
    "truncated_json": b'{"format_version": 1, "field": "Q",',
    "root_not_object": b"[]",
    # indices and entries
    "index_out_of_range": _doc(structure=[[0, 0, 2, "1"]]),
    "negative_index": _doc(structure=[[-1, 0, 0, "1"]]),
    "float_index": _doc(structure=[[0.0, 0, 0, "1"]]),
    "short_entry": _doc(structure=[[0, 0, "1"]]),
    "duplicate_entry": _doc(structure=[[0, 0, 0, "1"], [0, 0, 0, "2"]]),
    # dimensions
    "dim_over_cap": _doc(dim=33, structure=[]),
    "dim_huge": _doc(dim=10**12, structure=[]),
    "dim_zero": _doc(dim=0, structure=[]),
    # twists and conjugations
    "twist_wrong_shape": _doc(twist=[["1"]]),
    "twist_ragged": _doc(twist=[["1", "0"], ["0"]]),
    "twist_bad_scalar": _doc(twist=[["1/0", "0"], ["0", "1"]]),
    "twist_and_conj": _doc(twist=_IDENTITY, conj=_IDENTITY),
    "conj_wrong_shape": _doc(conj=[["1", "0"]]),
}

# files that parse; every other file must be refused (exit code 2) everywhere
ACCEPTED = {name for name in CORPUS if name.startswith("valid_")} | {"overlong_printed_value"}

# every subcommand that reads an algebra file; {f} is the file, {o} an
# output path, {d} a directory holding only the file
INVOCATIONS = (
    ["analyze", "{f}"],
    ["twist-space", "{f}"],
    ["ac", "{f}", "--side", "two"],
    ["ac", "{f}", "--side", "left"],
    ["ac", "{f}", "--side", "right"],
    ["leibniz", "{f}"],
    ["leibniz", "{f}", "--twist-from-file"],
    ["yau", "{f}", "--twist-from-file", "-o", "{o}"],
    ["yau", "{f}", "--left-mult", "1", "-o", "{o}"],
    ["unitalize", "{f}", "-o", "{o}"],
    ["opposite", "{f}", "-o", "{o}"],
    ["campaign", "--dir", "{d}", "--no-builtin"],
    ["campaign", "--dir", "{d}", "--no-builtin", "--unitalize-limit", "0"],
)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_subcommand_answers_hostile_input(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HOMALG_MAX_DIM", raising=False)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "doc.json"
    path.write_bytes(CORPUS[name])
    out = tmp_path / "out.json"
    codes = []
    start = time.perf_counter()
    for argv in INVOCATIONS:
        argv = [a.format(f=path, o=out, d=corpus) for a in argv]
        try:
            codes.append(main(argv))
        except (Exception, SystemExit) as exc:  # no subcommand may exit either
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2}, codes
    if name in ACCEPTED:
        assert codes[0] in (0, 1), codes  # analyze reads the file and reports
    else:
        assert set(codes) == {2}, codes
    assert elapsed < _CASE_SECONDS, (name, elapsed)

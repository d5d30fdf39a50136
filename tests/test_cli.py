"""Command-line surface: subcommands, exit codes, deterministic reports."""

import json
import time

import pytest

from conftest import clear_memo
from homalg import leibniz
from homalg.cli import main
from homalg.fileio import emit, parse
from homalg.campaign import (
    cross_product_algebra,
    generated_algebras,
    leib2_algebra,
    nil2_algebra,
    projection_algebra,
)
from homalg.algebra import HomAlgebra
from homalg.errors import HomalgError
from homalg.fields import QQ
from homalg.linalg import Matrix


@pytest.fixture()
def quat_file(tmp_path):
    path = tmp_path / "quat.json"
    assert main(["cayley-dickson", "--levels", "2", "-o", str(path)]) == 0
    return path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cayley_dickson_and_ac(quat_file, capsys):
    code, doc = run_json(capsys, ["ac", str(quat_file), "--side", "two"])
    assert code == 0
    assert doc["ac"]["dim"] == 1
    assert doc["idempotents"] == [["0", "0", "0", "0"], ["1", "0", "0", "0"]]


def test_ac_one_sided_cli(tmp_path, capsys):
    path = tmp_path / "p2.json"
    emit(projection_algebra(), path)
    code, doc = run_json(capsys, ["ac", str(path), "--side", "left"])
    assert code == 0
    assert doc["ac"]["dim"] == 2
    assert doc["ac_unit"]["dim"] == 1
    assert doc["split_ok"] is True


def test_twist_space_nil2(tmp_path, capsys):
    path = tmp_path / "nil2.json"
    emit(nil2_algebra(), path)
    code, doc = run_json(capsys, ["twist-space", str(path)])
    assert code == 0
    assert doc["dim"] == 4


def test_analyze_exit_zero_and_deterministic(quat_file, capsys):
    code1 = main(["analyze", str(quat_file)])
    out1 = capsys.readouterr().out
    code2 = main(["analyze", str(quat_file)])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["ok"] is True
    assert doc["twist_space"]["dim"] == 1


def test_analyze_opposite_swaps_sides(tmp_path, capsys):
    path = tmp_path / "p2.json"
    emit(projection_algebra(), path)
    opp_path = tmp_path / "p2op.json"
    assert main(["opposite", str(path), "-o", str(opp_path)]) == 0
    capsys.readouterr()
    _, doc = run_json(capsys, ["analyze", str(path)])
    _, doc_op = run_json(capsys, ["analyze", str(opp_path)])
    swap = {
        "ann_left": "ann_right",
        "ann_right": "ann_left",
        "nucleus_left": "nucleus_right",
        "nucleus_right": "nucleus_left",
        "hu_t_left": "hu_t_right",
        "hu_t_right": "hu_t_left",
        "hu_n_left": "hu_n_right",
        "hu_n_right": "hu_n_left",
        "ac_l_space": "ac_r_space",
        "ac_r_space": "ac_l_space",
    }
    for key, opp_key in swap.items():
        assert doc["subspaces"][key] == doc_op["subspaces"][opp_key], key
    assert doc["unities"]["left"] == doc_op["unities"]["right"]
    assert doc["ac_left"]["ac"] == doc_op["ac_right"]["ac"]
    assert doc["ac_left"]["ac_unit"] == doc_op["ac_right"]["ac_unit"]


def test_yau_left_mult(tmp_path, capsys):
    path = tmp_path / "poly.json"
    assert main(["poly", "--degree", "4", "-o", str(path)]) == 0
    out_path = tmp_path / "twisted.json"
    assert main(["yau", str(path), "--left-mult", "0", "-o", str(out_path)]) == 0
    twisted = parse(out_path)
    assert twisted.is_hom_associative()


def test_yau_twist_from_file(tmp_path, capsys):
    path = tmp_path / "poly.json"
    assert main(["poly", "--degree", "4", "-o", str(path)]) == 0
    first = tmp_path / "first.json"
    assert main(["yau", str(path), "--left-mult", "0", "-o", str(first)]) == 0
    # reuse the emitted twist grid to twist the twisted product once more
    second = tmp_path / "second.json"
    assert main(["yau", str(first), "--twist-from-file", "-o", str(second)]) == 0
    assert parse(second).is_hom_associative()
    # a plain file has no twist grid to reuse
    assert main(["yau", str(path), "--twist-from-file", "-o", str(second)]) == 2


def test_poly_with_constants_unital(tmp_path, capsys):
    path = tmp_path / "poly1.json"
    assert main(["poly", "--degree", "3", "--with-constants", "-o", str(path)]) == 0
    code, doc = run_json(capsys, ["ac", str(path), "--side", "two"])
    assert code == 0
    assert doc["ac"]["dim"] == 4


def test_unitalize_cli(tmp_path, capsys):
    path = tmp_path / "nil2.json"
    emit(nil2_algebra(), path)
    out_path = tmp_path / "unital.json"
    assert main(["unitalize", str(path), "-o", str(out_path)]) == 0
    code, doc = run_json(capsys, ["ac", str(out_path), "--side", "two"])
    assert code == 0
    assert doc["ac"]["dim"] == 3


def test_random_roundtrip_and_determinism(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["random", "--dim", "3", "--field", "Fp:5", "--seed", "9", "--left-unital"]
    assert main(argv + ["-o", str(p1)]) == 0
    assert main(argv + ["-o", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_random_nonpositive_dim_exit_two(tmp_path, capsys, dim):
    # analyze rejects such a file, so random must not write one
    out = tmp_path / "r.json"
    assert main(["random", "--dim", dim, "--seed", "0", "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"homalg: DimensionMismatch: dimension must be at least 1, got {dim}\n"


def test_leibniz_cli(tmp_path, capsys):
    path = tmp_path / "leib2.json"
    emit(leib2_algebra(), path)
    code, doc = run_json(capsys, ["leibniz", str(path)])
    assert code == 0
    assert doc["right_leibniz"]["holds"] is True
    assert doc["hu_n"]["dim"] == 2


def test_leibniz_cli_with_twist(tmp_path, capsys):
    path = tmp_path / "leib2.json"
    emit(leib2_algebra(), path)
    code, doc = run_json(capsys, ["leibniz", str(path), "--left-mult", "1"])
    assert code == 0
    assert "hom_lie" in doc
    assert doc["hom_lie"]["jacobi_form"].startswith("[t(x)")


def test_leibniz_cli_scans_once_per_twist(tmp_path, capsys, monkeypatch):
    # each (bracket, twist) question is one scan deciding both sides, and the
    # report, hu_n_leibniz, the collapse, hom-Lie and crossed unitality share it
    path = tmp_path / "cross.json"
    emit(cross_product_algebra(), path)
    scans = []
    real = leibniz.twisted_ops
    monkeypatch.setattr(
        leibniz, "twisted_ops", lambda a, t=None: scans.append(t) or real(a, t)
    )
    for options, want in (([], 1), (["--left-mult", "1"], 2)):
        clear_memo()
        scans.clear()
        assert main(["leibniz", str(path), *options]) == 0
        assert len(scans) == want, options
    capsys.readouterr()


_TWIST_CONFLICTS = [
    ["--left-mult", "1", "--right-mult", "0"],
    ["--twist-from-file", "--left-mult", "0"],
    ["--right-mult", "1", "--twist-from-file"],
]


@pytest.mark.parametrize("options", _TWIST_CONFLICTS, ids=lambda o: "+".join(o))
@pytest.mark.parametrize("command", ["yau", "leibniz"])
def test_conflicting_twist_options_exit_two(tmp_path, capsys, command, options):
    # a file with a twist grid, so each option alone would be accepted
    path = tmp_path / "twisted.json"
    emit(HomAlgebra(leib2_algebra(), Matrix.identity(QQ, 2)), path)
    out = tmp_path / "out.json"
    argv = [command, str(path), *options] + (["-o", str(out)] if command == "yau" else [])
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_empty_corpus_exit_zero(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    report = tmp_path / "report.json"
    code = main(
        [
            "campaign",
            "--dir",
            str(corpus),
            "--seeds",
            "0",
            "--no-builtin",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert doc["total_checks"] == 0


def test_campaign_200_seeds_empty_corpus(tmp_path, capsys):
    # the full seeded invariant suite is self-consistent
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    report = tmp_path / "report.json"
    code = main(
        [
            "campaign",
            "--dir",
            str(corpus),
            "--seeds",
            "200",
            "--no-builtin",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["failures"] == 0
    assert doc["algebras"] == 200


def test_campaign_with_corpus_and_seeds(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    emit(projection_algebra(), corpus / "p2.json")
    emit(nil2_algebra(), corpus / "nil2.json")
    report = tmp_path / "report.json"
    code = main(
        [
            "campaign",
            "--dir",
            str(corpus),
            "--seeds",
            "4",
            "--no-builtin",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["failures"] == 0
    assert doc["algebras"] == 6
    # deterministic: a second run gives the identical report
    report2 = tmp_path / "report2.json"
    main(
        [
            "campaign",
            "--dir",
            str(corpus),
            "--seeds",
            "4",
            "--no-builtin",
            "--report",
            str(report2),
        ]
    )
    assert report.read_text() == report2.read_text()


def test_negative_campaign_count_exit_two(capsys):
    assert main(["campaign", "--seeds", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed count must be non-negative, got -1" in captured.err
    assert captured.out == ""
    with pytest.raises(HomalgError):
        generated_algebras(-1)


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2


def test_non_integer_modulus_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = {"format_version": 1, "field": {"Fp": 7.9}, "dim": 1, "structure": []}
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad)]) == 2
    assert "InvariantViolation" in capsys.readouterr().err


def test_invalid_dimension_cap_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOMALG_MAX_DIM", "abc")
    code = main(["cayley-dickson", "--levels", "6", "-o", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "HOMALG_MAX_DIM must be an integer, got 'abc'" in err
    assert "=32" not in err


@pytest.mark.parametrize("gamma", ["1,x", "1/0"])
def test_bad_gamma_literal_exit_two(tmp_path, capsys, gamma):
    argv = ["cayley-dickson", "--levels", "2", "--gamma", gamma]
    assert main(argv + ["-o", str(tmp_path / "x.json")]) == 2
    assert "ParseError: bad gamma" in capsys.readouterr().err


def test_over_long_json_integer_exit_two(tmp_path, capsys):
    # json.loads raises a plain ValueError past CPython's 4,300-digit limit
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "field": "Q", "dim": ' + "1" * 4301 + "}")
    assert main(["analyze", str(bad)]) == 2
    assert "ParseError: invalid JSON" in capsys.readouterr().err


def test_huge_exponent_literal_exit_two_fast(tmp_path, capsys):
    # Fraction("1e10000000") alone takes seconds; larger exponents never end
    bad = tmp_path / "bad.json"
    doc = {"format_version": 1, "field": "Q", "dim": 1, "structure": [[0, 0, 0, "1e10000000"]]}
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["analyze", str(bad)]) == 2
    argv = ["cayley-dickson", "--levels", "1", "--gamma", "1e999999999"]
    assert main(argv + ["-o", str(tmp_path / "x.json")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "bad rational literal '1e10000000'" in err
    assert "ParseError: bad gamma '1e999999999'" in err


def test_over_long_printed_value_exit_two(tmp_path, capsys):
    # 1e4300 parses (exponent bound 4,300), but 10**4300 has 4,301 digits:
    # printing it, or its inverse the unity, passes CPython's digit limit
    bad = tmp_path / "bad.json"
    doc = {"format_version": 1, "field": "Q", "dim": 1, "structure": [[0, 0, 0, "1e4300"]]}
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "homalg: InvariantViolation: a value has too many digits to print\n"


def test_deeply_nested_json_exit_two_fast(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 200_000)
    start = time.perf_counter()
    assert main(["analyze", str(bad)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "ParseError: invalid JSON: nested too deeply" in capsys.readouterr().err


def test_invalid_utf8_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format_version": 1, "field": "Q\xff", "dim": 1}')
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "homalg: ParseError: invalid UTF-8 at byte 33: invalid start byte\n"


@pytest.mark.parametrize("extra", [[], ["--gamma", "1"]], ids=["default", "gamma"])
def test_negative_levels_exit_two(tmp_path, capsys, extra):
    argv = ["cayley-dickson", "--levels", "-1", *extra]
    assert main(argv + ["-o", str(tmp_path / "x.json")]) == 2
    assert "levels must be non-negative, got -1" in capsys.readouterr().err


def test_huge_levels_fail_before_allocating(tmp_path, monkeypatch, capsys):
    # a levels-long gamma list would take about 8 GB
    monkeypatch.delenv("HOMALG_MAX_DIM", raising=False)
    start = time.perf_counter()
    argv = ["cayley-dickson", "--levels", "1000000000", "-o", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "1000000000 levels exceed HOMALG_MAX_DIM=32" in capsys.readouterr().err


def test_analyze_at_dimension_cap_skips_unitalization(quat_file, monkeypatch, capsys):
    # the unitalization cross-check needs dimension 5, one above the cap
    monkeypatch.setenv("HOMALG_MAX_DIM", "4")
    code, doc = run_json(capsys, ["analyze", str(quat_file)])
    assert code == 0
    (check,) = [c for c in doc["checks"] if c["name"] == "unitalization_eigenspace_route"]
    assert check["status"] == "skipped"
    assert "HOMALG_MAX_DIM=4" in check["detail"]


@pytest.mark.parametrize(
    "argv",
    [["random", "--dim", "100000", "--seed", "0"], ["poly", "--degree", "100000"]],
    ids=["random", "poly"],
)
def test_huge_generated_dimension_fails_fast(tmp_path, capsys, argv):
    # the cap is checked before the dim^3 structure tensor is allocated
    start = time.perf_counter()
    assert main(argv + ["-o", str(tmp_path / "x.json")]) == 2
    assert time.perf_counter() - start < 1.0
    assert "dimension 100000 exceeds HOMALG_MAX_DIM" in capsys.readouterr().err


def test_missing_unity_exit_one(tmp_path, capsys):
    path = tmp_path / "nil2.json"
    emit(nil2_algebra(), path)
    assert main(["ac", str(path), "--side", "left"]) == 1
    assert main(["ac", str(path), "--side", "two"]) == 1


def test_missing_right_unity_names_the_right_side(tmp_path, capsys):
    # projection2 has left unities only
    path = tmp_path / "p2.json"
    emit(projection_algebra(), path)
    assert main(["ac", str(path), "--side", "right"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "homalg: no right unity\n"


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["ac", "missing.json"])  # --side required
    assert err.value.code == 2

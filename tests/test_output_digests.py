"""Command-line output is byte-identical to its pinned digests.

``output_digests.json`` holds the SHA-256 of the algebra files that
``cayley-dickson`` emits at levels 2 and 3 over Q, GF(65521) and GF(2), and
that ``poly`` emits for ``--degree 8`` and ``--degree 6 --with-constants``
(sparse products, where the basis-triple scans skip most triples), and the
file ``random --dim 2 --seed 13 --left-unital`` emits over Q with its
``opposite`` (a left unity only, then a right unity only); the exit
code and the stdout SHA-256 of ``analyze``, ``twist-space``,
``ac --side left|right|two``, ``leibniz`` and ``leibniz --left-mult 1`` on
each of those files; and the same of ``campaign --seeds 200``.  A change
that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_output_digests.py

and says so in its change notes.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import clear_memo
from homalg import cli

DIGESTS_PATH = Path(__file__).with_name("output_digests.json")

FIELDS = {"Q": "Q", "Fp:65521": "gf65521", "Fp:2": "gf2"}
LEVELS = (2, 3)
FILE_COMMANDS = (
    ["analyze"],
    ["twist-space"],
    ["ac", "--side", "left"],
    ["ac", "--side", "right"],
    ["ac", "--side", "two"],
    ["leibniz"],
    ["leibniz", "--left-mult", "1"],
)
CAMPAIGN = ["campaign", "--seeds", "200"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


POLY_FILES = (
    ("poly8_Q.json", ["poly", "--degree", "8"]),
    ("poly6c_Q.json", ["poly", "--degree", "6", "--with-constants"]),
)
# a file argument names a file emitted before it
ONE_SIDED_FILES = (
    ("rand13lu_Q.json", ["random", "--dim", "2", "--seed", "13", "--left-unital"]),
    ("rand13lu_op_Q.json", ["opposite", "rand13lu_Q.json"]),
)


def _files():
    """``(name, argv)`` of every emitted file."""
    return [
        (f"cd{level}_{tag}.json", ["cayley-dickson", "--levels", str(level), "--field", field])
        for level in LEVELS
        for field, tag in FIELDS.items()
    ] + list(POLY_FILES) + list(ONE_SIDED_FILES)


def _emit_files(directory: Path) -> dict:
    """Emit every file of ``_files()`` into ``directory``; name -> SHA-256."""
    digests = {}
    for name, argv in _files():
        argv = [str(directory / x) if x.endswith(".json") else x for x in argv]
        _run(argv + ["-o", str(directory / name)])
        digests[name] = _sha256((directory / name).read_bytes())
    return digests


def _command_keys():
    keys = [" ".join(cmd + [name]) for name, _ in _files() for cmd in FILE_COMMANDS]
    return keys + [" ".join(CAMPAIGN)]


def _run(argv) -> dict:
    """Run one CLI invocation in-process with cold caches."""
    clear_memo()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit_code": code, "stdout_sha256": _sha256(out.getvalue().encode("utf-8"))}


def _run_key(key: str, directory: Path) -> dict:
    """Run the invocation named ``key``; a file argument lives in ``directory``."""
    argv = key.split()
    if argv[-1].endswith(".json"):
        argv[-1] = str(directory / argv[-1])
    return _run(argv)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    directory = tmp_path_factory.mktemp("emitted")
    return directory, _emit_files(directory)


def test_emitted_files_match_pins(emitted, pinned):
    _, digests = emitted
    assert digests == pinned["files"]


def test_pins_name_every_invocation(pinned):
    assert list(pinned["commands"]) == _command_keys()


@pytest.mark.parametrize("key", _command_keys())
def test_invocation_matches_pin(key, emitted, pinned):
    directory, _ = emitted
    assert _run_key(key, directory) == pinned["commands"][key]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        doc = {
            "files": _emit_files(directory),
            "commands": {key: _run_key(key, directory) for key in _command_keys()},
        }
    DIGESTS_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

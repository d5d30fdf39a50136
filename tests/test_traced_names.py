"""Every name the benchmark's per-layer tracer wraps exists in the package.

``perfbench/tracer.py`` patches homalg functions from outside by module and
attribute path; a refactor that deletes or renames one of them would only
surface in a traced benchmark run.  This test reads the tracer's target lists
and resolves each name the way the tracer does.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homalg.cli  # noqa: F401  (imports every traced module)
from homalg import homstruct

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
TARGETS = _T.SPAN_TARGETS + _T.AGGREGATE_TARGETS


@pytest.mark.parametrize("module_name,path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_name_resolves(module_name, path):
    module = importlib.import_module(f"homalg.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))


def test_op_family_cache_is_clearable():
    # the benchmark's self-test clears this cache between runs
    assert callable(homstruct._op_family.cache_clear)


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    # start-up cost: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    # ``tokenize``; the tracer needs every traced module loaded eagerly
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import homalg.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(_TRACER_PATH.parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(out.stdout))
    assert not {"dataclasses", "inspect"} & loaded
    traced = {f"homalg.{m}" for m, _ in TARGETS}
    assert {"homalg.campaign", "homalg.leibniz"} <= traced <= loaded

"""Every name the benchmark's per-layer tracer wraps exists in the package.

``perfbench/tracer.py`` patches homalg functions from outside by module and
attribute path; a refactor that deletes or renames one of them would only
surface in a traced benchmark run.  This test reads the tracer's target lists
and resolves each name the way the tracer does.
"""

import importlib
import importlib.util
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

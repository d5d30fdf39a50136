#!/usr/bin/env python3
"""Self-test of the benchmark harness (small inputs, a few seconds).

    python3 perfbench/selftest.py

Checks that
* traced and untraced runs give byte-identical reports (octonion audit over Q
  and GF(65521), a small campaign, ``homalg analyze`` on the quaternions);
* every tracer wrapper is removed afterwards and every patched attribute is
  the original object again;
* ``BENCHMARK.json`` lists exactly the workloads of ``workloads.py`` and the
  per-layer metrics of ``layers.py``.
"""

from __future__ import annotations

import io
import json
import sys
import shutil
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, _homalg_modules, leftover_wrappers  # noqa: E402


def snapshot() -> dict:
    """Identity of every attribute of the homalg modules and their classes."""
    out = {}
    for m in _homalg_modules():
        for attr, value in vars(m).items():
            out[(m.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == m.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(m.__name__, attr, cattr)] = id(cvalue)
    return out


def outputs(quaternion_file: str) -> list:
    from homalg import campaign, cli, homstruct, reports
    from homalg.constructions import cayley_dickson_chain
    from homalg.fields import GF, QQ

    texts = []
    for field in (QQ, GF(wl.FP_MODULUS)):
        octonions = wl.permuted(cayley_dickson_chain(3, field=field)[3].base, 5)
        report = homstruct.structure_theorem_audit(octonions)
        texts.append(reports.render(reports.audit_json(report)))
    named = campaign.builtin_corpus()[:4] + campaign.generated_algebras(4)
    texts.append(reports.render(campaign.run_campaign(named)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["analyze", quaternion_file])
    texts.append(f"rc={rc}\n" + buf.getvalue())
    return texts


def main() -> int:
    problems = []
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if bench["per_layer"] != layers.benchmark_entries():
        problems.append("BENCHMARK.json per_layer differs from layers.benchmark_entries()")

    tmp = HERE.parent / ".bench_build" / "perfbench" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        path = str(tmp / "quaternions.json")
        wl.write_quaternions(3, path)
        import homalg.cli  # noqa: F401  (load every module before the snapshot)
        from homalg import homstruct

        caches = (homstruct.twist_space, homstruct._op_family)
        before = snapshot()
        plain = outputs(path)
        for cache in caches:  # the traced pass must recompute, not hit
            cache.cache_clear()
        tracer = Tracer()
        tracer.install()
        try:
            traced = outputs(path)
        finally:
            tracer.uninstall()
        if snapshot() != before:
            problems.append("an attribute of homalg was not restored")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if plain != traced:
        problems.append("traced and untraced reports differ")
    if leftover_wrappers():
        problems.append(f"wrappers left installed: {leftover_wrappers()}")
    if not tracer.spans or "subspaces.nucleus" not in tracer.stats:
        problems.append("the tracer recorded nothing")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Seed-0 benchmark reports are byte-identical to their pinned digests.

``perfbench/pins.json`` holds the SHA-256 of every seed-0 report the
benchmark renders: the sedenion audits over Q and GF(65521), the campaign
over the builtin corpus plus the generated algebras, and the stdout of
``homalg analyze`` on the quaternions.  The reports must not change under a
refactor, so this test rebuilds each input with ``perfbench/workloads.py``
and renders it the way ``perfbench/worker.py`` does.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import clear_memo
from homalg import campaign, cli, homstruct, reports

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINS = json.loads((_PERFBENCH / "pins.json").read_text(encoding="utf-8"))


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = _workloads()


def _audit_text(workload):
    report = homstruct.structure_theorem_audit(WL.sedenions(workload, 0))
    return reports.render(reports.audit_json(report))


def _campaign_text():
    return reports.render(campaign.run_campaign(WL.campaign_corpus(0)))


@pytest.mark.parametrize("workload", ["sedenion_audit_q", "sedenion_audit_fp"])
def test_sedenion_audit_matches_pin(workload):
    clear_memo()
    assert WL.sha256(_audit_text(workload)) == PINS[workload]["report_sha256"]


def test_campaign_matches_pin():
    clear_memo()
    assert WL.sha256(_campaign_text()) == PINS["campaign"]["report_sha256"]


def test_cli_analyze_matches_pin(tmp_path):
    clear_memo()
    path = str(tmp_path / "quaternions.json")
    WL.write_quaternions(0, path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(["analyze", path])
    assert WL.sha256(buf.getvalue()) == PINS["cli_analyze"]["report_sha256"]

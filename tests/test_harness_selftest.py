"""The benchmark harness's self-test, run in a subprocess: traced and
untraced reports are byte-identical, every wrapper is removed again, the
memoized caches it clears (``homstruct._op_family`` among them) still have
``cache_clear``, and BENCHMARK.json matches the harness."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_harness_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout

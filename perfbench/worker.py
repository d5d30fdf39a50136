"""One timed repetition of a workload, in a fresh interpreter.

Started by ``run.py``; a fresh process per repetition means every repetition
starts cold (empty ``homstruct`` caches, nothing imported), as a user of
``homalg analyze`` or ``homalg campaign`` does.

    python3 perfbench/worker.py MODE WORKLOAD SEED TRACE OUT [PATH]

MODE is ``setup`` (import and build the inputs, nothing else), ``op`` (one
audit, or one campaign pass) or ``cli`` (``homalg analyze PATH`` in this
process under the tracer; its stdout is the command's stdout).  The result
is written as JSON to OUT; with TRACE 1 the spans go to OUT with the suffix
``.spans.json``.

Untraced, a ``calib.Speedometer`` samples the host's speed just before, during
and just after every operation and the set-up, which are reported at the
reference speed (``ops``, ``rep_s``, ``setup_s``) beside their raw wall times
(``wall_ops``, ``rep_wall_s``, ``setup_wall_s``); both leave out the time the
samples took.  Traced, nothing is sampled and both are the raw times.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import contextmanager, redirect_stdout
from time import perf_counter

import calib
import workloads as wl

# Seconds of kernel runs just before and just after a timed block.
EDGE_S = 0.05


def _setup(workload: str, seed: int, path):
    """Import the package and build the inputs; returns (inputs, start, end,
    kernel backend)."""
    t0 = perf_counter()
    from homalg import kernels

    if workload == "campaign":
        inputs = wl.campaign_corpus(seed)
    elif workload == "cli_analyze":
        wl.write_quaternions(seed, path)
        inputs = path
    else:
        from homalg import homstruct, reports  # noqa: F401

        inputs = wl.sedenions(workload, seed)
    return inputs, t0, perf_counter(), kernels.BACKEND


@contextmanager
def _sampled(meter):
    """Sample the host's speed just before, during and just after the block;
    nothing when ``meter`` is None (traced)."""
    if meter is None:
        yield
        return
    meter.sample(EDGE_S)
    with meter.periodic():
        yield
    meter.sample(EDGE_S)


def _times(meter, ops, rep) -> dict:
    """Per-operation and repetition seconds from (start, end) pairs."""
    if meter is None:
        walls = [t1 - t0 for t0, t1 in ops]
        return dict(ops=walls, wall_ops=walls, rep_s=rep[1] - rep[0], rep_wall_s=rep[1] - rep[0])
    scaled = [meter.scaled(t0, t1) for t0, t1 in ops]
    rep_s, rep_wall = meter.scaled(*rep)
    return dict(
        ops=[s for s, _ in scaled],
        wall_ops=[w for _, w in scaled],
        rep_s=rep_s,
        rep_wall_s=rep_wall,
    )


def _audit(algebra, out, meter):
    from homalg import homstruct, reports

    with _sampled(meter):
        t0 = perf_counter()
        report = homstruct.structure_theorem_audit(algebra)
        doc = reports.audit_json(report)
        text = reports.render(doc)
        t1 = perf_counter()
    out.update(
        _times(meter, [(t0, t1)], (t0, t1)),
        failed_ops=0 if report.ok() else 1,
        report_sha256=wl.sha256(text),
        signature=wl.audit_signature(doc),
        render_bytes=len(text.encode("utf-8")),
    )


def _campaign(named, out, meter):
    from homalg import campaign, reports

    checks = campaign.algebra_checks
    spans = []

    def timed(*args, **kwargs):
        t = perf_counter()
        try:
            return checks(*args, **kwargs)
        finally:
            spans.append((t, perf_counter()))
            if meter is not None:
                meter.sample()

    campaign.algebra_checks = timed
    try:
        with _sampled(meter):
            t0 = perf_counter()
            doc = campaign.run_campaign(named)
            text = reports.render(doc)
            t1 = perf_counter()
    finally:
        campaign.algebra_checks = checks
    failing = {e["algebra"] for e in doc["entries"] if e["status"] == "fail"}
    out.update(
        _times(meter, spans, (t0, t1)),
        failed_ops=len(failing),
        report_sha256=wl.sha256(text),
        signature=wl.campaign_signature(doc),
        render_bytes=len(text.encode("utf-8")),
    )


def _summary(tracer) -> dict:
    return {
        "stats": tracer.stats,
        "counters": tracer.counters,
        "kernel_rows": tracer.kernel_rows,
        "distinct": {k: len(v) for k, v in tracer.distinct.items()},
    }


def _write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": tracer.spans,
            },
            fh,
        )


def _traced(run, out, out_path):
    """Call ``run()`` under the tracer; record its summary and spans."""
    from tracer import Tracer, leftover_wrappers

    tracer = Tracer()
    tracer.install()
    tracer.begin_rep()
    try:
        result = run()
    finally:
        tracer.end_rep()
        tracer.uninstall()
    out.update(trace=_summary(tracer), leftovers=leftover_wrappers())
    _write_spans(tracer, out_path + ".spans.json")
    return result


def main(argv) -> int:
    mode, workload, seed, trace, out_path = argv[:5]
    seed, trace = int(seed), trace == "1"
    path = argv[5] if len(argv) > 5 else None
    out = {}
    rc = 0
    if mode == "cli":
        import homalg.cli

        buf = io.StringIO()

        def analyze():
            with redirect_stdout(buf):
                return homalg.cli.main(["analyze", path])

        rc = _traced(analyze, out, out_path)
        sys.stdout.write(buf.getvalue())
    else:
        if mode == "setup":
            meter = calib.Speedometer()
            meter.sample(EDGE_S)
            inputs, t0, t1, backend = _setup(workload, seed, path)
            meter.sample(EDGE_S)
            out["setup_s"], out["setup_wall_s"] = meter.scaled(t0, t1)
        else:
            inputs, _, _, backend = _setup(workload, seed, path)
            run = _campaign if workload == "campaign" else _audit
            if trace:
                _traced(lambda: run(inputs, out, None), out, out_path)
            else:
                run(inputs, out, calib.Speedometer())
        out["backend"] = backend
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

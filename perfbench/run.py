#!/usr/bin/env python3
"""homalg benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload of ``workloads.py`` or ``all`` (each in turn).  Run from the repository root (the package is imported from ``src/``).  Every
repetition runs in a fresh interpreter (``worker.py``, or ``homalg analyze``
itself for ``cli_analyze``), sequentially, one client in a closed loop.  A new
repetition starts while the elapsed time plus the median repetition so far
stays within ``--seconds``; at least one always runs.

With ``--trace 0`` a workload's last line of stdout is a JSON object with the
end-to-end metrics, every time in it scaled to a reference host speed by the
speed samples of ``calib.py`` (the raw wall times are printed beside them);
``--trace 1`` spends half the time untraced and half traced and reports the
per-layer metrics of ``layers.py`` instead.  Spans of the traced repetitions
are written to ``.bench_build/perfbench/spans/``.

Correctness gate: for seed 0 every report (``cli_analyze``: stdout) must
match the SHA-256 pinned in ``pins.json``; for other seeds its
isomorphism-invariant signature must match seed 0's.  A mismatch, a failed
theorem check, an exception or a nonzero exit fails the operation.

One part of an audit is not isomorphism-invariant: ``domain_certificate``
tests the basis vectors and seeded random combinations of them, so whether it
finds a zero divisor depends on the basis.  The sedenions are not a domain,
yet on the canonical basis no sample hits a zero divisor and seed 0 reports
"domain (sampled)" with the two ``no_hom_structures_on_*_unital_domain``
checks.  About one basis permutation in a hundred (seed 520073127, for one)
lets a sample hit one: the report then says "not a domain (witness)", the
exact answer, and leaves those two checks out.  ``witness_signature`` in
``pins.json`` is seed 0's signature with exactly that difference; the gate
accepts it and nothing else besides seed 0's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 15
IMPORT_REPEATS = 5
REP_TIMEOUT_S = 150
CLI_CAL_S = 0.05  # seconds of kernel runs after each CLI invocation


def environment(backend: str) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "backend": backend,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.pins = json.loads((HERE / "pins.json").read_text())[workload]
        self.input_path = str(workdir / "input.json")
        self.count = 0
        self.notes = []
        self.meter = calib.Speedometer()  # samples between CLI invocations

    def _run(self, cmd):
        try:
            return subprocess.run(
                cmd,
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=REP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.notes.append(f"timeout after {REP_TIMEOUT_S}s: {cmd[1:4]}")
            return None

    def _worker(self, mode: str, trace: bool):
        self.count += 1
        out = str(self.workdir / f"rep{self.count}.json")
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            mode,
            self.workload,
            str(self.seed),
            "1" if trace else "0",
            out,
            self.input_path,
        ]
        t0 = perf_counter()
        proc = self._run(cmd)
        wall = perf_counter() - t0
        if proc is None or proc.returncode not in (0, 1) or not os.path.exists(out):
            if proc is not None:
                self.notes.append(f"worker rc={proc.returncode}: {proc.stderr[-400:]}")
            return None, wall, proc
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["spans_file"] = out + ".spans.json"
        return result, wall, proc

    def setup(self) -> tuple:
        """Median set-up seconds over fresh interpreters (scaled and raw
        wall), and the backend."""
        times, walls, backend = [], [], None
        for _ in range(SETUP_REPEATS):
            result, _, _ = self._worker("setup", False)
            if result is None:
                raise RuntimeError("set-up failed: " + "; ".join(self.notes))
            times.append(result["setup_s"])
            walls.append(result["setup_wall_s"])
            backend = result["backend"]
        return (statistics.median(times), statistics.median(walls)), backend

    def _gate(self, report_sha: str, signature: str) -> bool:
        if self.seed == 0 and report_sha != self.pins["report_sha256"]:
            return False
        return signature in (self.pins["signature"], self.pins.get("witness_signature"))

    def rep(self, trace: bool) -> dict:
        """One repetition: {ops, rep_s, wall_ops, rep_wall_s, failed, summary?}."""
        if self.workload == "cli_analyze":
            return self._cli_rep(trace)
        result, wall, _ = self._worker("op", trace)
        if result is None:
            return {
                "ops": [wall],
                "rep_s": wall,
                "wall_ops": [wall],
                "rep_wall_s": wall,
                "failed": 1,
                "summary": None,
            }
        ok = self._gate(result["report_sha256"], result["signature"])
        if not ok:
            self.notes.append(f"report mismatch: {result['report_sha256']}")
        failed = len(result["ops"]) if not ok else result["failed_ops"]
        if trace and result.get("leftovers"):
            self.notes.append(f"wrappers left installed: {result['leftovers']}")
            failed = len(result["ops"])
        return {
            "ops": result["ops"],
            "rep_s": result["rep_s"],
            "wall_ops": result["wall_ops"],
            "rep_wall_s": result["rep_wall_s"],
            "failed": failed,
            "summary": self._summary(result, result["rep_wall_s"]) if trace else None,
        }

    def _summary(self, result, rep_s):
        s = dict(result["trace"], rep_s=rep_s, render_bytes=result["render_bytes"])
        spans = Path(result["spans_file"])
        if spans.exists():
            dest = BUILD / "spans" / f"{self.workload}-seed{self.seed}-rep{self.count}.json"
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(spans, dest)
        return s

    def _cli_rep(self, trace: bool) -> dict:
        if trace:
            result, wall, proc = self._worker("cli", True)
        else:
            cmd = [sys.executable, "-m", "homalg.cli", "analyze", self.input_path]
            if not self.meter.samples:
                self.meter.sample(CLI_CAL_S)
            t0 = perf_counter()
            proc = self._run(cmd)
            t1 = perf_counter()
            self.meter.sample(CLI_CAL_S)
            wall = t1 - t0
            result = {}
        ok = proc is not None and proc.returncode == 0
        if ok:
            doc = json.loads(proc.stdout)
            ok = self._gate(wl.sha256(proc.stdout), wl.audit_signature(doc))
            if not ok:
                self.notes.append(f"stdout mismatch: {wl.sha256(proc.stdout)}")
        elif proc is not None:
            self.notes.append(f"homalg analyze rc={proc.returncode}: {proc.stderr[-400:]}")
        if trace and result and result.get("leftovers"):
            self.notes.append(f"wrappers left installed: {result['leftovers']}")
            ok = False
        summary = None
        if trace and result:
            result["render_bytes"] = len(proc.stdout.encode("utf-8"))
            summary = self._summary(result, wall)
        op = self.meter.scaled(t0, t1)[0] if not trace else wall
        return {
            "ops": [op],
            "rep_s": op,
            "wall_ops": [wall],
            "rep_wall_s": wall,
            "failed": 0 if ok else 1,
            "summary": summary,
        }

    def loop(self, seconds: float, trace: bool) -> list:
        reps, walls = [], []
        t0 = perf_counter()
        while True:
            r0 = perf_counter()
            reps.append(self.rep(trace))
            walls.append(perf_counter() - r0)
            if perf_counter() - t0 + statistics.median(walls) > seconds:
                return reps

    def import_s(self) -> float:
        """Fresh-interpreter ``import homalg.cli`` minus bare interpreter start."""

        def median_wall(code):
            walls = []
            for _ in range(IMPORT_REPEATS):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True)
                walls.append(perf_counter() - t0)
            return statistics.median(walls)

        return median_wall("import homalg.cli") - median_wall("pass")


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, -(-pct * len(ordered) // 100))
    return ordered[k - 1]


def end_to_end(workload, reps, setup) -> dict:
    """Every metric as (value at the reference speed, unit, detail); the
    detail gives the raw wall-time figure."""
    ops = [t for r in reps for t in r["ops"]]
    walls = [t for r in reps for t in r["wall_ops"]]
    pct = wl.TAIL_PERCENTILE[workload]
    tail = percentile(ops, pct)
    setup_s, setup_wall = setup
    return {
        "op_p50_s": (
            statistics.median(ops),
            "s",
            f"n={len(ops)}, wall {statistics.median(walls):.4f}",
        ),
        "op_tail_s": (
            tail,
            "s",
            f"p{pct}, n={len(ops)}, {sum(t > tail for t in ops)} beyond,"
            f" wall {percentile(walls, pct):.4f}",
        ),
        "ops_per_s": (
            len(ops) / sum(r["rep_s"] for r in reps),
            "1/s",
            f"{len(ops)} ops in {len(reps)} repetitions,"
            f" wall {len(ops) / sum(r['rep_wall_s'] for r in reps):.4f}",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "MB",
            "largest child process",
        ),
        "setup_s": (
            setup_s,
            "s",
            f"median of {SETUP_REPEATS} fresh interpreters, wall {setup_wall:.4f}",
        ),
    }


def run_workload(workload: str, args) -> dict:
    """Set up, time and check one workload; prints its metrics and returns
    the result object."""
    workdir = BUILD / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, workdir)
        setup, backend = runner.setup()
        env = environment(backend)
        if args.trace:
            plain = runner.loop(args.seconds / 2, trace=False)
            traced = runner.loop(args.seconds / 2, trace=True)
            reps = plain + traced
        else:
            reps = runner.loop(args.seconds, trace=False)
        attempted = sum(len(r["ops"]) for r in reps)
        failed = sum(r["failed"] for r in reps)
        metrics = end_to_end(workload, plain if args.trace else reps, setup)
        if args.trace:
            summaries = [r["summary"] for r in traced if r["summary"]]
            if not summaries:
                raise RuntimeError("no traced repetition completed: " + "; ".join(runner.notes))
            layer_values = layers.compute(
                summaries,
                statistics.fmean(r["rep_wall_s"] for r in plain),
                runner.import_s(),
            )
            units = {e["name"]: e["unit"] for e in layers.benchmark_entries()}
            reported = {n: (layer_values[n], units[n], "") for n in units}
        else:
            reported = metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload} seed {args.seed}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in runner.notes:
        print("note " + note.replace("\n", " "))
    shown = dict(metrics)
    if args.trace:
        shown.update(reported)
    for name, (value, unit, detail) in shown.items():
        print(f"{name} {value!r} {unit}" + (f" ({detail})" if detail else ""))
    print(f"fail_ratio {failed / attempted!r} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in reported.items()},
    }
    if args.out:
        record = {
            "env": env,
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
        }
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory to also write each result and its environment to")
    args = ap.parse_args(argv)

    if not (SRC / "homalg" / "__init__.py").is_file():
        print(f"perfbench: no homalg sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child: a calibration window must
    # time the CPU that the operation beside it ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        run_workload(args.workload, args)
        return 0
    # One process per workload, so each reports its own children's peak RSS.
    forward = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.out:
        forward += ["--out", args.out]
    for name in wl.WORKLOADS:
        subprocess.run([sys.executable, __file__, "--workload", name, *forward], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

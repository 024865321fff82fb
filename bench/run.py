"""endofix benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload fit-boot --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

Run from the root of a checkout.  Each op is one ``endofix`` command,
called in-process through ``endofix.cli.main`` on inputs generated before
timing from ``--seed``; the next op starts when the previous one ends,
until the ops have taken ``--seconds``.  Every op's output is checked
(see workloads.py).  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` each op runs once untraced and
once traced (order alternating), the two outputs must agree bit for bit,
and the last line reports per-layer metrics from the traced runs
(tracer.py) together with the untraced wall-clock figures.  End-to-end
times are in reference seconds (calibrate.py).
``--self-check`` runs every workload at reduced size through the same
code in a few seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calibrate import SpeedSampler, fitted_elasticity  # noqa: E402

# Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 3

# Per-layer metrics of a traced run that come from op times, not spans.
RUN_METRICS = ("trace.overhead_pct", "wall.ops_per_s", "wall.op_s_p50",
               "wall.setup_s", "calib.probe_s", "calib.elasticity_fit")


class Outcome(NamedTuple):
    rc: int
    output: str         # stdout and stderr
    report: str | None  # the --out file
    wall_s: float
    ref_s: float        # reference seconds (calibrate.py)
    probe_s: float      # H, the probe time while the op ran


def run_op(main, op, tracer=None) -> Outcome:
    """Run one op.  The report is read after the clock stops."""
    if op.out is not None:      # never read an earlier op's report
        op.out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    sampler = SpeedSampler()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            sampler:
        start = time.perf_counter()
        try:
            rc = (tracer.call("cli.main", main, op.argv) if tracer
                  else main(op.argv))
        except Exception:   # a traceback is a failed op, as exit code 1
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
    report = (op.out.read_text() if op.out is not None and rc == 0
              and op.out.exists() else None)
    return Outcome(rc, out.getvalue() + err.getvalue(), report, seconds,
                   sampler.reference_seconds(seconds), sampler.probe_s)


def same_output(a: Outcome, b: Outcome) -> bool:
    """Equal output and equal reports apart from wall-clock fields: the
    report's ``timing_seconds`` and a per-stage ``trace`` block, should the
    CLI add one."""
    def strip(text):
        if text is None:
            return None
        doc = json.loads(text)
        doc.pop("timing_seconds", None)
        doc.pop("trace", None)
        return doc
    return (a.rc == b.rc and a.output == b.output
            and strip(a.report) == strip(b.report))


def check_op(ops, op, rec: Outcome) -> list:
    if rec.rc != 0:
        return [f"exit code {rec.rc}: {rec.output.strip()[-300:]}"]
    if op.out is not None and rec.report is None:
        return [f"no report written to {op.out.name}"]
    return ops.check(op, json.loads(rec.report) if rec.report else None,
                     rec.output)


def probe_setup(src: Path, argv) -> tuple:
    """(reference seconds, wall seconds) from ``import endofix.cli`` to the
    end of one op, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(src),
                           *argv], capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if result.get("rc") != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-300:]}")
    return result["setup_s"], result["wall_s"]


def one_core() -> None:
    """One client on one core, whatever the caller's environment says:
    serial MC and one BLAS thread.  On a 2-core machine the default second
    OpenBLAS thread spun through every small-matrix op, doubling CPU use
    with no speed-up.  Call before numpy loads; set-up probes inherit the
    environment."""
    os.environ.pop("ENDOFIX_THREADS", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[name] = "1"


def environment(root: Path) -> dict:
    import numpy
    import scipy
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS",
                                          "ENDOFIX_THREADS")},
    }


def measure(workload, seed: int, seconds: float, trace: bool, src: Path,
            work: Path):
    """One benchmark run.  Returns (records, run-level problems, set-up
    probes as (reference, wall) seconds, peak RSS in MB, tracer or None).
    A record is (op, untraced outcome, traced outcome or None, problems)."""
    from workloads import REFERENCE_SEED, check_reference
    small = workload.small.prepare(REFERENCE_SEED, work)(0)
    setup = [probe_setup(src, small.argv) for _ in range(SETUP_PROBES)]

    import endofix.cli
    main = endofix.cli.main
    warm = run_op(main, small)
    problems = check_op(workload.small, small, warm)
    if not problems:
        problems = check_reference(
            workload, json.loads(warm.report) if warm.report else None,
            warm.output)

    make = workload.full.prepare(seed, work)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()

    def traced_run(op):
        tracer.install()
        try:
            return run_op(main, op, tracer)
        finally:
            tracer.uninstall()

    runs, busy = [], 0.0
    while busy < seconds:
        i = len(runs)
        op = make(i)
        traced = None
        if tracer is None:
            rec = run_op(main, op)
        else:
            tracer.op = i
            if i % 2:
                traced = traced_run(op)
                rec = run_op(main, op)
            else:
                rec = run_op(main, op)
                traced = traced_run(op)
            if not same_output(rec, traced):
                problems.append(f"op {i}: traced output differs from untraced")
            busy += traced.wall_s
        busy += rec.wall_s
        runs.append((op, rec, traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = []
    for op, rec, traced in runs:
        rec_problems = check_op(workload.full, op, rec)
        if op.data is not None:
            rec_problems += workload.full.check_identity(op.data)
        records.append((op, rec, traced, rec_problems))
    return records, problems, setup, peak_rss_mb, tracer


def self_check(root: Path, src: Path) -> int:
    """Every workload at reduced size: output checks, the reference, the
    identity, and traced output equal to untraced output."""
    from tracer import Tracer, layer_metrics
    from workloads import REFERENCE_SEED, WORKLOADS, check_reference
    import endofix.cli
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]}
    failures = 0
    for name, workload in WORKLOADS.items():
        work = BENCH / "_work" / f"self-check-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            op = workload.small.prepare(REFERENCE_SEED, work)(0)
            plain = run_op(endofix.cli.main, op)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_op(endofix.cli.main, op, tracer)
            finally:
                tracer.uninstall()
            problems = check_op(workload.small, op, plain)
            if not problems:
                problems += check_reference(
                    workload, json.loads(plain.report) if plain.report
                    else None, plain.output)
            if op.data is not None:
                problems += workload.small.check_identity(op.data)
            if not same_output(plain, traced):
                problems.append("traced output differs from untraced")
            got = set(layer_metrics(tracer, 1)) | set(RUN_METRICS)
            if got != wanted:
                problems.append(f"per-layer names differ from BENCHMARK.json: "
                                f"{sorted(got ^ wanted)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name} "
              f"({plain.wall_s:.2f} s untraced, {traced.wall_s:.2f} s traced)")
        for p in problems[:5]:
            print(f"     {p}")
        if len(problems) > 5:
            print(f"     ... and {len(problems) - 5} more")
    return 1 if failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "endofix" / "cli.py").is_file():
        print(f"bench: no endofix sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    one_core()
    env = environment(root)

    if args.self_check:
        return self_check(root, src)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS or args.seed < 0 or args.seconds <= 0:
        p.error(f"need --workload in {sorted(WORKLOADS)}, --seed >= 0 and "
                "--seconds > 0")
    workload = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        records, problems, setup, rss, tracer = measure(
            workload, args.seed, args.seconds, bool(args.trace), src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for op, _, _, rec_problems in records:
        problems += [f"op {op.argv[:1]}: {q}" for q in rec_problems]
    for q in problems:
        print(f"bench: check failed: {q}", file=sys.stderr)
    attempted = len(records)
    failed = sum(bool(r[3]) for r in records)
    passed = attempted - failed
    wall = [r[1].wall_s for r in records]     # untraced op times
    ref = [r[1].ref_s for r in records]
    wall_metrics = {
        "wall.ops_per_s": (passed / sum(wall), "1/s"),
        "wall.op_s_p50": (statistics.median(wall), "s"),
        "wall.setup_s": (statistics.median(s[1] for s in setup), "s"),
        "calib.probe_s": (statistics.median(r[1].probe_s for r in records),
                          "s"),
    }
    slope = fitted_elasticity(
        *([(o.wall_s, o.probe_s) for o in group] for group in
          ([r[1] for r in records], [r[2] for r in records if r[2]])))

    if tracer is None:
        # reference seconds (calibrate.py); wall-clock values follow
        metrics = {
            "ops_per_s": (passed / sum(ref), "1/s"),
            "op_s_p50": (statistics.median(ref), "s"),
            "setup_s": (statistics.median(s[0] for s in setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        extra = {} if workload.full.unit is None else {
            f"{workload.full.unit}_per_s": (
                passed * workload.full.units_per_op / sum(ref), "1/s")}
        extra |= {"fail_ratio": (failed / attempted, "ratio"),
                  **wall_metrics}
        notes = {"op_s_p50": f"median of {attempted} ops",
                 "setup_s": f"median of {len(setup)} fresh-process set-ups"}
    else:
        from tracer import layer_metrics
        traced = sum(r[2].wall_s for r in records)
        metrics = layer_metrics(tracer, attempted)
        metrics["trace.overhead_pct"] = (100.0 * (traced / sum(wall) - 1.0),
                                         "%")
        # 0 when the run has too few ops to fit a slope
        metrics |= wall_metrics | {"calib.elasticity_fit": (slope or 0.0,
                                                            "slope")}
        extra, notes = {}, {}
        spans = BENCH / "_work" / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans)
        notes["spans"] = os.path.relpath(spans, root)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    print("env " + json.dumps({**env, "ops": attempted,
                               "elasticity_fit": slope, **notes}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

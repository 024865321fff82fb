"""Record references.json: the reduced op of every workload at
REFERENCE_SEED, as the current sources compute it.

    python3 bench/record_references.py

Run from the root of a checkout.  The committed file was recorded at the
commit that introduced the benchmark; re-recording it replaces the
reference that later changes are checked against, so do it only for a
change that is meant to alter results, and say so.
"""
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(Path.cwd() / "src")]


def main() -> None:
    from run import one_core, run_op
    one_core()          # as the benchmark runs, before numpy loads
    from workloads import REFERENCE_SEED, REFERENCES_PATH, WORKLOADS

    import endofix.cli

    work = BENCH / "_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for name, workload in WORKLOADS.items():
            op = workload.small.prepare(REFERENCE_SEED, work)(0)
            rec = run_op(endofix.cli.main, op)
            if rec.rc != 0:
                sys.exit(f"{name}: exit code {rec.rc}: {rec.output}")
            refs[name] = workload.small.reference_view(
                json.loads(rec.report) if rec.report else None, rec.output)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                               + "\n")
    print(f"wrote {REFERENCES_PATH}")


if __name__ == "__main__":
    main()

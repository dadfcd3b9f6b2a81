"""Benchmark of the model pipeline: cold build, serving, drift maintenance.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build|serve|maintain --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric and the self-time span tree.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Scratch files live under ``.perfbench/`` in the checkout; result records
(with the host fingerprint) stay in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("build", "serve", "maintain")
#: Hard ceiling on one invocation; the slowest workload needs well under it.
DEADLINE_S = 170


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"benchmark exceeded {DEADLINE_S}s")


def _code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources: counts recorded by other
    code are never compared with this code's."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_counts(state: Path, args, counts: dict) -> bool:
    """Counts that must repeat exactly for a seed agree with earlier runs of
    the same workload, seed, length and trace mode on the same code."""
    key = (f"{args.workload}-s{args.seed}-n{args.seconds}-t{args.trace}-"
           f"{_code_digest(ROOT)}")
    path = state / "counts" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(counts, indent=1, sort_keys=True)
    if path.exists():
        return path.read_text() == text
    path.write_text(text)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT))
    from perfbench import host

    fingerprint = host.fingerprint()  # before the environment is pinned below
    state = ROOT / ".perfbench"
    work = state / f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    # The generator builds inputs with the library too: keep its caches
    # inside the checkout and its pipeline serial.
    os.environ["REPRO_CACHE_DIR"] = str(work / "generator-cache")
    os.environ["REPRO_WORKERS"] = "1"
    for name in ("REPRO_FAULTS", "REPRO_SUPERVISED", "REPRO_STORE_DIR"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench import workloads

    ctx = workloads.Context(ROOT, work, args.seed, args.seconds, bool(args.trace))
    runner = {
        "build": workloads.run_build,
        "serve": workloads.run_serve,
        "maintain": workloads.run_maintain,
    }[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    # A terminated benchmark still stops its program processes (finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(DEADLINE_S)
    started = time.monotonic()
    try:
        outcome = runner(ctx)
    except (Deadline, host.ProgramError, OSError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for program in ctx.programs:
            program.kill()
        shutil.rmtree(work, ignore_errors=True)

    consistent = _check_counts(state, args, outcome.counts)
    if not consistent:
        outcome.problems.append("per-seed counts differ from an earlier run of this seed")
    correct = outcome.failed == 0 and consistent
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "fingerprint": fingerprint,
        "correct": correct,
        "problems": outcome.problems,
        "counts": outcome.counts,
        "metrics": {k: v for k, (v, _) in outcome.metrics.items()},
        "details": outcome.details,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1))
    print("fingerprint " + json.dumps(fingerprint))
    if outcome.report:
        print(outcome.report)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 18 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  The lines before it name each metric with its unit and
stamp the conditions of the run.  Results are also written to
``.perfbench/results/``; a traced run writes its spans there too.

The exit code is 1 when any answer was wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ("plan-cold", "plan-hot", "replan-drift", "train")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    # The benchmark builds and measures the program in this checkout;
    # without its sources it stops here, before anything is printed.
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench.fixtures import STATE_DIR, conditions
    from perfbench.tracer import Recorder
    from perfbench.workloads import WORKLOADS

    recorder = Recorder() if args.trace else None
    started = time.perf_counter()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, recorder)
    if recorder is not None:
        recorder.uninstall()
    tally = outcome.tally
    stamp = conditions(args.seed, outcome.notes.get("manifest", "none"))

    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    stem = results / f"{args.workload}-seed{args.seed}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "conditions": stamp,
        "notes": outcome.notes,
        "samples": outcome.samples,
        "failures": tally.reasons,
        "metrics": {
            name: {"value": value, "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    }
    if recorder is not None:
        report["untraced_targets"] = recorder.missing
        recorder.dump(f"{stem}.spans.jsonl.gz")
    Path(f"{stem}.{kind}.json").write_text(json.dumps(report, indent=1, default=str))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# conditions: {json.dumps(stamp, default=str)}")
    print(f"# notes: {json.dumps(outcome.notes, default=str)}")
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")
    for name, entry in report["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

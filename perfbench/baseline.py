"""Record a baseline: end-to-end spreads, per-layer values, per-position solve times.

    python3 perfbench/spread.py --out spread.json
    python3 perfbench/baseline.py --spread spread.json --out perfbench/baseline.json

Per-layer values come from one traced run per workload at seed 0.  The
per-position table solves each fixture and the empty 4x4 board in every
pruning mode (median of 3, calibrated like the end-to-end times), so "is
setmatch slower than none on this position" reads straight off it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import corpus
import run

REPEATS = 3


def per_position(kinarow) -> dict:
    fixed = corpus.load_reference()["fixed"]
    loop = run.Loop([
        run.Op(name, fixed[name]["board"], kinarow.parse_position(fixed[name]["board"]), mode)
        for name in ("empty4x4",) + corpus.EXAMPLE_FIXTURES
        for mode in kinarow.solver.PRUNING_MODES
    ])
    for _ in range(REPEATS):
        run.run_passes(kinarow, loop, 0)
    rows: dict[str, dict] = {}
    for op, times, outputs in zip(loop.ops, loop.scaled_times(), loop.outputs):
        rows.setdefault(op.label, {})[op.mode] = {
            "s": statistics.median(times),
            "nodes": kinarow.solver.solve(op.pos, pruning=op.mode)[1].nodes_examined,
            "verdict": str(outputs[0]),
        }
    return rows


def traced(workload: str, seconds: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spread", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spread = json.loads(args.spread.read_text())
    kinarow = run.program()
    baseline = {
        "host": (
            f"2-core virtual machine on a shared host, Python {platform.python_version()}; "
            f"times calibrated to a {calibrate.REFERENCE_S * 1000:g} ms kernel"
        ),
        "run_seconds": bench["run_seconds"],
        "end_to_end": {
            w: {m: {k: v[k] for k in ("median", "q1", "q3", "spread")} for m, v in metrics.items()}
            for w, metrics in spread.items()
        },
        "per_layer_seed0": {w["name"]: traced(w["name"], bench["run_seconds"]) for w in bench["workloads"]},
        "solve_per_position": per_position(kinarow),
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

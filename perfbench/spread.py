"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 perfbench/spread.py --out spread.json [--compare earlier.json]

Runs the command of BENCHMARK.json once per workload and seed (seeds
1..RUNS), then reports for every end-to-end metric its median and the
distance between its first and third quartiles as a share of the median.  A
spread above the metric's bound fails; so does, with --compare, a median
worse than the earlier file's by more than the bound.  Exit code 1 on failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    report: dict[str, dict] = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench, workload, seed) for seed in range(1, RUNS + 1)]
        report[workload] = {}
        for name, m in bounds.items():
            s = summarize([r[name] for r in runs])
            report[workload][name] = s
            flags = []
            if s["spread"] > m["bound"]:
                flags.append("FAIL: spread above bound")
            elif s["spread"] > m["bound"] / 3:
                flags.append("spread above bound/3")
            before = earlier.get(workload, {}).get(name)
            if before:
                worse = (s["median"] - before["median"]) / before["median"]
                if m["better"] == "higher":
                    worse = -worse
                if worse > m["bound"]:
                    flags.append(f"FAIL: median worse by {worse:.1%}")
            ok = ok and not any(f.startswith("FAIL") for f in flags)
            print(f"{workload:14s} {name:14s} median {s['median']:12.6g} {m['unit']:6s} "
                  f"spread {s['spread']:7.2%} bound {m['bound']:.0%} {' '.join(flags)}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

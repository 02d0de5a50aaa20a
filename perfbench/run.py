"""kinarow benchmark: one closed-loop workload per call, measured from outside.

    python3 perfbench/run.py --workload prove-opening --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program under test is the `kinarow`
package in src/ of the same checkout; it receives only the stored positions of
the workload (corpus.py), in the order the seed sets.  One client calls the
public functions in a single thread, each call after the previous one
returns.  A run repeats whole passes over its operations until --seconds have
elapsed.  End-to-end times are calibrated for the host's speed (calibrate.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass and
then traced passes, and prints the per-layer metrics (tracing.py).  Every
output is checked after the timed loop; any failure makes the exit code 1.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import calibrate
import corpus
import tracing

ROOT = corpus.HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("prove-opening", "solve-plain", "solve-pruned")
SETUP_REPEATS = 5
CLI_REPEATS = 3
HD_STEPS = 256  # midpoint-rule steps per order statistic
SETUP_CODE = (
    "import time, calibrate\n"
    "calibrate.kernel_seconds()\n"
    "k = calibrate.kernel_seconds()\n"
    "t = time.perf_counter()\n"
    "import kinarow\n"
    "kinarow.catalog()\n"
    "print(time.perf_counter() - t, k)\n"
)


@dataclass(frozen=True)
class Op:
    label: str
    board: str
    pos: object
    mode: str | None  # pruning mode of a solve; None for prove-opening


@dataclass
class Loop:
    """Timings and outputs of the passes of one run, one entry per operation."""

    ops: list[Op]
    timeline: calibrate.Timeline | None = field(default_factory=calibrate.Timeline)
    starts: list[array] = field(default_factory=list)
    ends: list[array] = field(default_factory=list)
    times: list[array] = field(default_factory=list)  # less the kernel runs inside
    outputs: list[list[object]] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0

    def scaled_times(self) -> list[list[float]]:
        return [[self.timeline.scaled(*sample) for sample in zip(*op)]
                for op in zip(self.starts, self.ends, self.times)]


def program():
    """Import the kinarow package of this checkout, or exit 2 when it is absent."""
    if not (SRC / "kinarow" / "__init__.py").is_file():
        print(f"error: no kinarow package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kinarow
    import kinarow.certio
    import kinarow.configs
    import kinarow.solver

    return kinarow


def make_ops(kinarow, workload: str, seed: int, reference: dict) -> tuple[list[Op], str]:
    items = corpus.pass_items(workload, seed, reference)
    modes = {"prove-opening": (None,), "solve-plain": ("none",), "solve-pruned": ("hj", "setmatch")}[workload]
    ops = [
        Op(it.label, it.board, kinarow.parse_position(it.board), mode)
        for it in items
        for mode in modes
    ]
    return ops, corpus.digest(items)


def run_op(kinarow, op: Op):
    """One operation, called through module attributes so tracing hooks apply.

    Returns only singletons (a Verdict, None, bools) unless a certificate is
    invalid, so nothing a pass keeps pins memory that later operations need.
    """
    if op.mode is not None:
        return kinarow.solver.solve(op.pos, pruning=op.mode)[0]
    cert = kinarow.configs.prove_draw(op.pos)
    if cert is None:
        return None
    result = kinarow.configs.check_certificate(cert)
    text = kinarow.certio.certificate_to_json(cert)
    again = kinarow.certio.certificate_to_json(kinarow.certio.certificate_from_json(text))
    return result.valid or result.violations[:3], text == again


def run_passes(kinarow, loop: Loop, seconds: float) -> None:
    """Whole passes over loop.ops until `seconds` have elapsed (at least one).

    Before each operation, outside its timing: a full garbage collection, so
    every operation starts from the same collector state, as a fresh CLI
    process would (without it an operation's time depends on what ran
    before), and, unless loop.timeline is None, the calibration kernel.
    """
    if not loop.times:
        loop.starts, loop.ends, loop.times = (
            [array("d") for _ in loop.ops] for _ in range(3)
        )
        loop.outputs = [[] for _ in loop.ops]
    timeline = loop.timeline
    start = perf_counter()
    while True:
        for i, op in enumerate(loop.ops):
            gc.collect()
            inside_s = 0.0
            if timeline is not None:
                timeline.sample()
                inside_s = timeline.inside_s
            t = perf_counter()
            with timeline.inside() if timeline is not None else nullcontext():
                try:
                    out = run_op(kinarow, op)
                except Exception:  # recorded and counted as a failed operation
                    out = RuntimeError(traceback.format_exc())
            end = perf_counter()
            if timeline is not None:
                inside_s = timeline.inside_s - inside_s
            loop.starts[i].append(t)
            loop.ends[i].append(end)
            loop.times[i].append(end - t - inside_s)
            loop.outputs[i].append(out)
        loop.passes += 1
        if perf_counter() - start >= seconds:
            break
    loop.wall_s += perf_counter() - start


def check(op: Op, out, verdicts: dict[str, str]) -> tuple[bool, str | None]:
    """(decided, error) for one output; error is None when the output is right."""
    if isinstance(out, Exception):
        return False, str(out)
    expected = verdicts.get(op.board)
    if expected is None:
        return False, "position has no reference verdict"
    if op.mode is not None:
        return True, None if str(out) == expected else f"{op.mode} verdict {out}, reference {expected}"
    if out is None:
        return False, None  # NotFound proves nothing and claims nothing
    valid, same = out
    if valid is not True:
        return True, f"certificate fails check_certificate: {valid}"
    if not same:
        return True, "certificate changed in a certio round trip"
    if expected == "BlackWin":
        return True, "certificate on a position whose reference verdict is BlackWin"
    return True, None


def check_all(loop: Loop, verdicts: dict[str, str]) -> tuple[int, int, int, list[str]]:
    attempted = failed = decided = 0
    errors = []
    for op, outs in zip(loop.ops, loop.outputs):
        for out in outs:
            ok_decided, err = check(op, out, verdicts)
            attempted += 1
            decided += ok_decided and err is None
            if err is not None:
                failed += 1
                errors.append(f"{op.label} {op.mode or 'prove'}:\n{op.board}{err}")
    return attempted, failed, decided, errors


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it."""
    return max(1, math.floor(100 - 1000 / n))


def setup_seconds() -> tuple[float, float]:
    """Median fresh-interpreter time to import kinarow and build the catalog,
    calibrated and raw."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(corpus.HERE)]))
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first run may compile bytecode; users pay that once
            seconds, kernel_s = map(float, done.stdout.split())
            raw.append(seconds)
            scaled.append(calibrate.scaled(seconds, kernel_s))
    return statistics.median(scaled), statistics.median(raw)


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: every order statistic weighted
    by the Beta(q(n+1), (1-q)(n+1)) mass of its slice of [0, 1], integrated by
    the midpoint rule.

    Operation times cluster (a pairing proof takes 0.5 ms, a cover search
    10-100 ms), and the plain median of the per-operation medians fell in a
    gap between clusters: over five seeds of prove-opening its spread was 21%
    against 5% for this estimate, on the same runs.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mids = ((i + (j + 0.5) / HD_STEPS) / n for j in range(HD_STEPS))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in mids))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timing_metrics(times: list[list[float]]) -> tuple[dict, str]:
    """ops_per_s, op_p50_ms and op_tail_ms from per-operation time samples.

    The quantiles are Harrell-Davis estimates over the per-operation medians.
    """
    per_op = [statistics.median(ts) for ts in times]
    pct = tail_percentile(len(per_op))
    metrics = {
        "ops_per_s": (sum(map(len, times)) / sum(map(sum, times)), "ops/s"),
        "op_p50_ms": (1000 * harrell_davis(per_op, 0.5), "ms"),
        "op_tail_ms": (1000 * harrell_davis(per_op, pct / 100), "ms"),
    }
    return metrics, f"op_tail_ms is p{pct} of {len(per_op)} per-operation medians"


def end_to_end(loop: Loop, decided: int, attempted: int) -> tuple[dict, str]:
    metrics, note = timing_metrics(loop.scaled_times())
    raw, _ = timing_metrics(loop.times)
    metrics["decided_ratio"] = (decided / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw_note = ", ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items())
    return metrics, f"{note} over {loop.passes} passes; uncalibrated: {raw_note}"


def cli_seconds(kinarow) -> dict[str, float]:
    """Wall time of the headline CLI calls, process start to output, median of a few."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    calls = {
        "cli.prove_empty4x4_s": ["prove", "--board", "fixture:empty4x4"],
        "cli.solve_empty4x4_setmatch_s": ["solve", "--board", "fixture:empty4x4", "--method", "setmatch"],
    }
    out = {}
    for name, args in calls.items():
        samples = []
        for _ in range(CLI_REPEATS):
            t = perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "kinarow.cli", *args], env=env, cwd=ROOT,
                capture_output=True, text=True, timeout=120,
            )
            samples.append(perf_counter() - t)
            if done.returncode != 0:
                raise RuntimeError(f"kinarow {' '.join(args)} exited {done.returncode}: {done.stderr}")
            if args[0] == "prove":
                cert = kinarow.certio.certificate_from_json(done.stdout)
                if not kinarow.configs.check_certificate(cert).valid:
                    raise RuntimeError("kinarow prove printed an invalid certificate")
            elif done.stdout.split()[:1] != ["Draw"]:
                raise RuntimeError(f"kinarow solve printed {done.stdout!r}")
        out[name] = statistics.median(samples)
    return out


def headline_prove_draw_calls(kinarow) -> int:
    """prove_draw calls on the headline path: prove the empty 4x4 board, then solve it with setmatch."""
    pos = kinarow.empty_position(kinarow.BoardSpec(4, 4, 4))
    tracer = tracing.Tracer()
    with tracing.hooked(tracer):
        kinarow.configs.prove_draw(pos)
        kinarow.solver.solve(pos, pruning="setmatch")
    return tracer.names.count("configs.prove_draw")


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def traced_run(kinarow, ops: list[Op], seconds: float) -> tuple[Loop, dict[str, float], tracing.Tracer]:
    untraced = Loop(ops, timeline=None)
    run_passes(kinarow, untraced, 0)
    loop = Loop(ops, timeline=None)
    tracer = tracing.Tracer()
    with tracing.hooked(tracer):
        run_passes(kinarow, loop, seconds - untraced.wall_s)
    layers = tracing.per_layer(tracer, loop.passes, loop.wall_s)
    layers["trace.overhead_ratio"] = (loop.wall_s / loop.passes) / untraced.wall_s
    return loop, layers, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    kinarow = program()
    reference = corpus.load_reference()
    verdicts = corpus.verdicts(reference)
    ops, digest = make_ops(kinarow, args.workload, args.seed, reference)

    if args.trace:
        loop, layers, tracer = traced_run(kinarow, ops, args.seconds)
        layers.update(cli_seconds(kinarow))
        layers["headline.prove_draw_calls"] = headline_prove_draw_calls(kinarow)
        layers["src_lines"] = src_lines()
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        metrics = {name: (layers[name], unit) for name, unit, _ in tracing.per_layer_spec()}
        note = f"per-layer values are per pass; {loop.passes} traced passes, {len(tracer.names)} spans"
    else:
        setup, setup_raw = setup_seconds()
        loop = Loop(ops)
        run_passes(kinarow, loop, args.seconds)
    attempted, failed, decided, errors = check_all(loop, verdicts)
    if not args.trace:
        metrics, note = end_to_end(loop, decided, attempted)
        metrics["setup_s"] = (setup, "s")
        note += f", setup_s {setup_raw:.6g}"

    for err in errors[:10]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} corpus {digest}: "
          f"{len(ops)} operations per pass, {loop.passes} passes, {loop.wall_s:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':44s} {failed / attempted:14.6g} ratio")
    print(f"  ({note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

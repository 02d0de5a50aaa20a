"""Deterministic counters of the benchmark at its default seed (0), pinned.

    python3 -m pytest perfbench/pinned_counters.py

These are the counts a later change can cite: a change that moves one of them
on purpose says so, with the old and new values.  They are not part of the
repository's own test suite, which a counter change must not break.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

PINNED = {
    "prove-opening": {
        "digest": "048978b44c21b994",
        "decided_ratio": 0.6842105263157895,
        "counters": {
            "pairing.find_hj_pairing.calls": 21460,
            "board.live_black_groups.calls": 87,
            "configs.detect.calls": 23,
            "configs.detect.embeddings": 54494,
            "configs.detect.Triangle.embeddings": 3073,
            "configs.detect.Square.embeddings": 23502,
            "configs.detect.Triangle_Line.embeddings": 1871,
            "configs.detect.Square_Line.embeddings": 15556,
            "configs.detect.BiTriangle.embeddings": 2832,
            "configs.detect.BiTriangleX.embeddings": 231,
            "configs.detect.FlatStar.embeddings": 147,
            "configs.detect.BiTriangle_Line.embeddings": 4326,
            "configs.detect.BiTriangle_BiLine.embeddings": 2528,
            "configs.detect.BiTriangleX_Line.embeddings": 428,
            "configs.prove_draw.calls": 38,
            "configs.prove_draw.by_pairing": 15,
            "configs.prove_draw.by_cover": 11,
            "configs.prove_draw.not_found": 12,
            "pairing.find_hj_pairing.hit_ratio": 0.0006989748369058714,
        },
    },
    "solve-plain": {
        "digest": "aa68f048942a6417",
        "decided_ratio": 1.0,
        "counters": {
            "solver.none.nodes": 805970,
            "solver.none.table_hits": 424543,
        },
    },
    "solve-pruned": {
        "digest": "3a2663912e98a9a1",
        "decided_ratio": 1.0,
        "counters": {
            "solver.hj.nodes": 708027,
            "solver.hj.table_hits": 370829,
            "solver.hj.probe_calls": 38525,
            "solver.hj.prune_events": 12995,
            "solver.setmatch.nodes": 527117,
            "solver.setmatch.table_hits": 270012,
            "solver.setmatch.probe_calls": 36563,
            "solver.setmatch.prune_events": 12064,
            "pairing.find_hj_pairing.calls": 75504,
            "board.live_black_groups.calls": 99617,
            "configs.detect.calls": 24529,
            "configs.detect.embeddings": 7642,
            "configs.detect.Triangle.embeddings": 641,
            "configs.detect.Square.embeddings": 3205,
            "configs.detect.Triangle_Line.embeddings": 260,
            "configs.detect.Square_Line.embeddings": 2552,
            "configs.detect.BiTriangle.embeddings": 320,
            "configs.detect.FlatStar.embeddings": 24,
            "configs.detect.BiTriangle_Line.embeddings": 384,
            "configs.detect.BiTriangle_BiLine.embeddings": 256,
            "configs.prove_draw.calls": 36563,
            "configs.prove_draw.by_pairing": 12034,
            "configs.prove_draw.by_cover": 20,
            "configs.prove_draw.by_residual": 10,
            "configs.prove_draw.not_found": 24499,
            "solver.hj.probe_hit_ratio": 0.3373134328358209,
            "solver.setmatch.probe_hit_ratio": 0.3299510434045346,
            "pairing.find_hj_pairing.hit_ratio": 0.33162481457936005,
        },
    },
}

COUNTERS = [
    name for name, unit, _ in tracing.per_layer_spec()
    if unit == "count" and not name.startswith("headline.")
] + [
    f"solver.{mode}.probe_hit_ratio" for mode in tracing.MODES
] + ["pairing.find_hj_pairing.hit_ratio"]


@pytest.fixture(scope="module")
def kinarow():
    return run.program()


@pytest.fixture(scope="module")
def reference():
    return corpus.load_reference()


def traced_pass(kinarow, reference, workload):
    ops, digest = run.make_ops(kinarow, workload, 0, reference)
    loop = run.Loop(ops, timeline=None)
    tracer = tracing.Tracer()
    with tracing.hooked(tracer):
        run.run_passes(kinarow, loop, 0)
    attempted, failed, decided, errors = run.check_all(loop, corpus.verdicts(reference))
    assert failed == 0, errors
    layers = tracing.per_layer(tracer, loop.passes, loop.wall_s)
    return digest, decided / attempted, {name: layers[name] for name in COUNTERS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_at_default_seed(kinarow, reference, workload):
    digest, decided_ratio, counters = traced_pass(kinarow, reference, workload)
    pinned = PINNED[workload]
    assert digest == pinned["digest"]
    assert decided_ratio == pytest.approx(pinned["decided_ratio"], abs=1e-12)
    nonzero = {name: value for name, value in counters.items() if value}
    assert nonzero == pytest.approx(pinned["counters"], abs=1e-12)


def test_headline_path_proves_twice(kinarow):
    """prove_draw on the empty 4x4 board, then solve(setmatch) proves it again at the root."""
    assert run.headline_prove_draw_calls(kinarow) == 2


def test_per_layer_metrics_match_benchmark_json():
    import json

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.per_layer_spec()

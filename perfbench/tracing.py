"""Outside-in tracing of kinarow: spans recorded by rebinding module attributes.

The program is not edited.  While `hooked` is active, the attributes below are
replaced by wrappers that record one span per call: name, start, end, parent,
and a small summary of the result.  The rebinding reaches every call that
looks the name up in that module at call time, which includes the solver's
lazy per-probe import of `kinarow.configs.prove_draw` and every call
`prove_draw`, `detect` and `check_certificate` make to their module globals.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODES = ("none", "hj", "setmatch")
# The fixed catalog of the seed program; each gets its own detect counters.
TEMPLATES = (
    "Triangle", "Square", "Triangle/Line", "Square/Line", "BiTriangle", "BiTriangleX",
    "FlatStar", "BiTriangle/Line", "BiTriangle/BiLine", "BiTriangleX/Line",
    "FlatStar/Line", "TriTriangleX",
)
# Span the solver makes once per certificate probe, by pruning mode.
PROBE_SPAN = {"hj": "pairing.find_hj_pairing", "setmatch": "configs.prove_draw"}


def _solve_info(args, kwargs, result):
    mode = kwargs.get("pruning", args[1] if len(args) > 1 else "none")
    verdict, stats = result
    return (mode, stats.nodes_examined, stats.table_hits, sum(stats.prune_events.values()))


def _prove_outcome(args, kwargs, cert):
    if cert is None:
        return "not_found"
    if not cert.entries:
        return "by_pairing"
    return "by_residual" if cert.residual.assignments else "by_cover"


def _count(args, kwargs, result):
    return len(result)


def _found(args, kwargs, result):
    return result is not None


def _template_span(args, kwargs):
    return "configs.detect." + metric_safe(args[1].name)


# (module, attribute, span name or function of the call arguments, result summary)
HOOKS = (
    ("kinarow.solver", "solve", "solver.solve", _solve_info),
    ("kinarow.solver", "find_hj_pairing", "pairing.find_hj_pairing", _found),
    ("kinarow.solver", "live_black_groups", "board.live_black_groups", None),
    ("kinarow.configs", "prove_draw", "configs.prove_draw", _prove_outcome),
    ("kinarow.configs", "detect", "configs.detect", _count),
    # Private: the per-template step of detect.  Skipped when absent, so a
    # rewrite of detect loses only the per-template split.
    ("kinarow.configs", "_embed_template", _template_span, _count),
    ("kinarow.configs", "find_hj_pairing", "pairing.find_hj_pairing", _found),
    ("kinarow.configs", "live_black_groups", "board.live_black_groups", None),
    ("kinarow.configs", "verify_matching_set", "setmatch.verify_matching_set", None),
    ("kinarow.configs", "check_certificate", "configs.check_certificate", None),
    ("kinarow.certio", "certificate_to_json", "certio.certificate_to_json", None),
    ("kinarow.certio", "certificate_from_json", "certio.certificate_from_json", None),
)


def metric_safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in name)


class Tracer:
    """Spans kept in memory as parallel arrays; parent -1 marks a top-level call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.infos: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn, summarize):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name if isinstance(name, str) else name(args, kwargs))
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.infos.append(None)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if summarize is not None:
                self.infos[idx] = summarize(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart\tend\tinfo\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]!r}\t"
                    f"{self.ends[i]!r}\t{self.infos[i]}\n"
                )


@contextmanager
def hooked(tracer: Tracer):
    """Rebind every hook to a tracing wrapper; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, summarize in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, summarize))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for mode in MODES:
        names += [f"solver.{mode}.{key}" for key in (
            "nodes", "nodes_per_s", "table_hits", "s", "search_self_s",
            "probe_calls", "probe_s", "prune_events", "probe_hit_ratio")]
    names += ["pairing.find_hj_pairing." + k for k in ("calls", "s", "hit_ratio")]
    names += ["board.live_black_groups.calls", "board.live_black_groups.s"]
    names += ["configs.detect." + k for k in ("calls", "s", "self_s", "embeddings")]
    for t in TEMPLATES:
        names += [f"configs.detect.{metric_safe(t)}.embeddings", f"configs.detect.{metric_safe(t)}.s"]
    names += ["configs.prove_draw." + k for k in (
        "calls", "s", "self_s", "by_pairing", "by_cover", "by_residual", "not_found")]
    names += ["configs.check_certificate.s", "configs.check_certificate.self_s",
              "setmatch.verify_matching_set.s", "certio.certificate_to_json.s",
              "certio.certificate_from_json.s",
              "cli.prove_empty4x4_s", "cli.solve_empty4x4_setmatch_s",
              "headline.prove_draw_calls", "src_lines",
              "trace.overhead_ratio", "trace.wall_s", "trace.layers_self_s", "trace.bench_s"]
    spec = []
    for name in names:
        if name.endswith("nodes_per_s"):
            unit, better = "1/s", "higher"
        elif name.endswith("_s") or name.endswith(".s"):
            unit, better = "s", "lower"
        elif name.endswith("ratio"):
            unit, better = "ratio", "lower" if name.startswith("trace.") else "higher"
        elif name == "src_lines":
            unit, better = "lines", "lower"
        else:
            unit = "count"
            better = "higher" if name.rsplit(".", 1)[-1] in (
                "table_hits", "prune_events", "by_pairing", "by_cover", "by_residual") else "lower"
        spec.append((name, unit, better))
    return spec


def per_layer(tracer: Tracer, passes: int, wall_s: float) -> dict[str, float]:
    """Per-layer counters and seconds, per pass, from the recorded spans."""
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_s = [0.0] * n
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_s[p] += dur[i]
            children[p].append(i)
    self_s = [dur[i] - child_s[i] for i in range(n)]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    solver = {m: defaultdict(float) for m in MODES}
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        total[name] += dur[i]
        own[name] += self_s[i]
        infos[name].append(tracer.infos[i])
        if name == "solver.solve":
            mode, nodes, hits, prunes = tracer.infos[i]
            s = solver[mode]
            s["nodes"] += nodes
            s["table_hits"] += hits
            s["prune_events"] += prunes
            s["s"] += dur[i]
            s["search_self_s"] += self_s[i]
            s["probe_s"] += child_s[i]
            s["probe_calls"] += sum(
                1 for c in children[i] if tracer.names[c] == PROBE_SPAN.get(mode)
            )

    out: dict[str, float] = {}
    for mode in MODES:
        s = solver[mode]
        for key in ("nodes", "table_hits", "s", "search_self_s", "probe_calls", "probe_s", "prune_events"):
            out[f"solver.{mode}.{key}"] = s[key] / passes
        out[f"solver.{mode}.nodes_per_s"] = s["nodes"] / s["s"] if s["s"] else 0.0
        out[f"solver.{mode}.probe_hit_ratio"] = (
            s["prune_events"] / s["probe_calls"] if s["probe_calls"] else 0.0
        )

    name = "pairing.find_hj_pairing"
    out[f"{name}.calls"] = calls[name] / passes
    out[f"{name}.s"] = total[name] / passes
    out[f"{name}.hit_ratio"] = sum(infos[name]) / calls[name] if calls[name] else 0.0
    name = "board.live_black_groups"
    out[f"{name}.calls"] = calls[name] / passes
    out[f"{name}.s"] = total[name] / passes

    name = "configs.detect"
    template_spans = [name + "." + metric_safe(t) for t in TEMPLATES]
    out[f"{name}.calls"] = calls[name] / passes
    out[f"{name}.s"] = total[name] / passes
    out[f"{name}.self_s"] = (own[name] + sum(own[t] for t in template_spans)) / passes
    out[f"{name}.embeddings"] = sum(infos[name]) / passes
    for t in template_spans:
        out[f"{t}.embeddings"] = sum(infos[t]) / passes
        out[f"{t}.s"] = total[t] / passes

    name = "configs.prove_draw"
    out[f"{name}.calls"] = calls[name] / passes
    out[f"{name}.s"] = total[name] / passes
    out[f"{name}.self_s"] = own[name] / passes
    for outcome in ("by_pairing", "by_cover", "by_residual", "not_found"):
        out[f"{name}.{outcome}"] = infos[name].count(outcome) / passes

    out["configs.check_certificate.s"] = total["configs.check_certificate"] / passes
    out["configs.check_certificate.self_s"] = own["configs.check_certificate"] / passes
    for name in ("setmatch.verify_matching_set", "certio.certificate_to_json", "certio.certificate_from_json"):
        out[f"{name}.s"] = total[name] / passes

    layers_self = sum(self_s)
    out["trace.wall_s"] = wall_s / passes
    out["trace.layers_self_s"] = layers_self / passes
    out["trace.bench_s"] = (wall_s - layers_self) / passes
    return out


"""Benchmark corpus: the stored positions with their reference verdicts, and
the seeded order of a pass.

The positions live in reference.json beside this file; make_reference.py
generates them once from a fixed seed and stores each with its plain-solver
verdict, so every output of every run is checked against a reference.  A
run's seed sets the order of the operations in each pass.  It does not pick
the positions: positions drawn per seed from a larger pool, or each seed's
own board reflections, moved the medians by 12-70% from seed to seed on the
same code, because operation times span four orders of magnitude.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

EXAMPLE_FIXTURES = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig7",
    "fig8", "fig9a", "fig9b", "fig9c", "fig10", "fig11",
)

# Random strata: board (m, n, k), the stone counts a position may have, and
# how many positions the stratum holds.  Openings have Black to move (an
# even stone count), because prove_draw only proves Black-to-move positions.
STRATA = {
    "open4x4": ((4, 4, 4), (2,), 24),          # 14 empties
    "open5x4": ((5, 4, 4), (4, 6), 12),        # 16 or 14 empties
    "mid4x4": ((4, 4, 4), (3, 4, 5, 6), 12),   # 10..13 empties
    "mid5x4": ((5, 4, 4), (7, 8, 9, 10), 12),  # 10..13 empties
}
PASS_STRATA = {
    "prove-opening": ("open4x4", "open5x4"),
    "solve-plain": ("mid4x4", "mid5x4"),
    "solve-pruned": ("mid4x4", "mid5x4"),
}


@dataclass(frozen=True)
class Item:
    """One position of a pass: a label (stratum or fixture name) and its board text."""

    label: str
    board: str


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verdicts(reference: dict) -> dict[str, str]:
    """Reference verdict for every stored board text."""
    out = {}
    for entries in reference["strata"].values():
        for e in entries:
            out[e["board"]] = e["verdict"]
    for e in reference["fixed"].values():
        out[e["board"]] = e["verdict"]
    return out


def pass_items(workload: str, seed: int, reference: dict) -> list[Item]:
    """The positions of one pass of `workload` for `seed`, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    fixed = reference["fixed"]
    if workload == "prove-opening":
        names = ["empty4x4", "empty5x4"]
    else:
        names = list(EXAMPLE_FIXTURES) + (["empty4x4"] if workload == "solve-pruned" else [])
    items = [Item(name, fixed[name]["board"]) for name in names]
    for stratum in PASS_STRATA[workload]:
        items += [Item(stratum, e["board"]) for e in reference["strata"][stratum]]
    rng.shuffle(items)
    return items


def digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.board.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def generate_pool(kinarow, stratum: str, seed: int) -> list[str]:
    """Distinct random legal positions of one stratum, no completed group."""
    (m, n, k), stone_counts, size = STRATA[stratum]
    spec = kinarow.BoardSpec(m, n, k)
    rng = random.Random(f"pool/{stratum}/{seed}")
    seen: dict[str, None] = {}
    while len(seen) < size:
        pos = kinarow.empty_position(spec)
        for _ in range(rng.choice(stone_counts)):
            pos = kinarow.apply_move(pos, rng.choice(pos.empties()))
            if kinarow.winner(pos) is not None:
                break
        else:
            seen.setdefault(kinarow.render_position(pos), None)
    return list(seen)

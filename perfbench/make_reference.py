"""Build reference.json: the position pool and its plain-solver verdicts.

Run once from the repository root, on code whose plain solver is trusted:

    python3 perfbench/make_reference.py

The benchmark itself never calls this; it only samples from the stored pool.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import corpus

POOL_SEED = 2017


def main() -> int:
    sys.path.insert(0, str(corpus.HERE.parent / "src"))
    import kinarow
    from kinarow.solver import solve

    def verdict(board: str) -> str:
        return str(solve(kinarow.parse_position(board), pruning="none")[0])

    fixtures = corpus.HERE.parent / "src" / "kinarow" / "fixtures"
    fixed = {}
    for name in ("empty4x4",) + corpus.EXAMPLE_FIXTURES:
        board = (fixtures / f"{name}.board").read_text(encoding="utf-8")
        fixed[name] = {"board": board, "verdict": verdict(board), "source": "plain solver"}
    # The plain solver cannot finish the empty 5x4 board.  Its value is a draw:
    # the first player never loses (strategy stealing), and Black cannot win
    # because White's drawing strategy on the 5x5 board still works when Black
    # is confined to four of its rows.
    fixed["empty5x4"] = {
        "board": kinarow.render_position(kinarow.empty_position(kinarow.BoardSpec(5, 4, 4))),
        "verdict": "Draw",
        "source": "known result: (5,5,4) is a draw",
    }
    strata = {}
    for stratum in corpus.STRATA:
        start = time.perf_counter()
        boards = corpus.generate_pool(kinarow, stratum, POOL_SEED)
        strata[stratum] = [{"board": b, "verdict": verdict(b)} for b in boards]
        print(f"{stratum}: {len(boards)} positions in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    out = {
        "pool_seed": POOL_SEED,
        "strata_spec": {k: {"mnk": v[0], "stones": v[1]} for k, v in corpus.STRATA.items()},
        "fixed": fixed,
        "strata": strata,
    }
    Path(corpus.REFERENCE_FILE).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

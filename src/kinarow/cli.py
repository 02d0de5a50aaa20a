"""Command-line driver: solve, detect, prove, verify-cert, table1, render."""

from __future__ import annotations

import argparse
import json
import string
import sys
from fractions import Fraction
from importlib import resources

from .board import (
    BLACK,
    BoardFormatError,
    IllegalPositionError,
    Position,
    cell_name,
    live_black_groups,
    parse_position,
)
from .certio import CertificateFormatError, certificate_from_json, certificate_to_json
from .configs import (
    DrawCertificate,
    catalog,
    check_certificate,
    detect,
    prove_draw,
    template_by_name,
)
from .solver import (
    PRUNING_MODES,
    SearchGuardError,
    format_report,
    solve,
    verify_draw_claims,
)

# Reference metadata rows for the fixed catalog: (markers, groups, reduction,
# ratio shown to two decimals).
REFERENCE_ROWS: dict[str, tuple[int, int, int, str]] = {
    "Triangle": (5, 3, 1, "1.67"),
    "Square": (7, 4, 1, "1.75"),
    "Triangle/Line": (6, 4, 2, "1.50"),
    "Square/Line": (8, 5, 2, "1.60"),
    "BiTriangle": (8, 5, 2, "1.60"),
    "BiTriangleX": (7, 5, 3, "1.40"),
    "FlatStar": (8, 6, 4, "1.33"),
    "BiTriangle/Line": (9, 6, 3, "1.50"),
    "BiTriangle/BiLine": (10, 7, 4, "1.43"),
    "BiTriangleX/Line": (8, 6, 4, "1.33"),
    "FlatStar/Line": (8, 7, 6, "1.14"),
    "TriTriangleX": (10, 7, 4, "1.43"),
}

FIXTURE_NAMES = (
    "empty4x4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig10",
    "fig11",
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_board(path: str) -> Position:
    if path.startswith("fixture:"):
        name = path[len("fixture:"):]
        text = _fixture_text(name, ".board")
        if text is None:
            raise FileNotFoundError(f"unknown fixture: {name}")
        return parse_position(text)
    return parse_position(_read(path))


def _templates_arg(spec: str | None):
    if spec is None:
        return None
    return [template_by_name(name.strip()) for name in spec.split(",")]


def _fixture_text(name: str, suffix: str) -> str | None:
    ref = resources.files("kinarow") / "fixtures" / f"{name}{suffix}"
    if not ref.is_file():
        return None
    return ref.read_text(encoding="utf-8")


def _grid(pos: Position, overlay: dict[tuple[int, int], str]) -> list[str]:
    """The board's rows, top first, with row numbers and then column
    letters; a cell in overlay shows its tag instead of its stone."""
    m, n = pos.spec.m, pos.spec.n
    lines = []
    for r in range(n - 1, -1, -1):
        row = [overlay.get((c, r), pos.at((c, r))) for c in range(m)]
        lines.append(f"{r + 1:2d} " + " ".join(row))
    lines.append("   " + " ".join(string.ascii_lowercase[:m]))
    return lines


# Grid tags beside the first nine pairs' 1-9; none is X, O, "." or "?" (a tag run out).
_TAGS = string.ascii_letters.replace("O", "").replace("X", "") + "0"


def _pretty_certificate(cert: DrawCertificate) -> str:
    pos = cert.position
    overlay: dict[tuple[int, int], str] = {}
    free = list(_TAGS)  # markers take tags from the front, pairs past the ninth from the back
    legend: list[str] = []
    for entry in cert.entries:
        tags = []
        for cell in sorted(entry.matching.markers):
            tag = free.pop(0) if free else "?"
            overlay[cell] = tag
            tags.append(f"{tag}={cell_name(cell)}")
        groups = ", ".join(str(g) for g in entry.matching.groups)
        legend.append(f"{entry.template_name}: {' '.join(tags)}")
        legend.append(f"  groups: {groups}")
    for i, (g, pair) in enumerate(cert.residual.assignments, start=1):
        tag = str(i) if i <= 9 else free.pop() if free else "?"
        for cell in pair:
            overlay[cell] = tag
        number = str(i) if tag == str(i) else f"{i} ({tag})"
        legend.append(f"pair {number}: {cell_name(pair[0])},{cell_name(pair[1])} for {g}")
    return "\n".join(_grid(pos, overlay) + legend)


def _cmd_solve(args) -> int:
    pos = _load_board(args.board)
    verdict, stats = solve(pos, pruning=args.method)
    print(f"{verdict}")
    print(f"nodes_examined: {stats.nodes_examined}")
    print(f"table_hits: {stats.table_hits}")
    print(f"cert_calls: {stats.cert_calls}")
    for method, count in sorted(stats.prune_events.items()):
        print(f"prune_events[{method}]: {count}")
    print(f"seconds: {stats.seconds:.6f}")
    print(f"cert_seconds: {stats.cert_seconds:.6f}")
    return 0


def _cmd_detect(args) -> int:
    pos = _load_board(args.board)
    rows = sorted(
        (e.template.name, sorted((lbl, cell_name(c)) for lbl, c in e.binding.items()))
        for e in detect(pos, _templates_arg(args.templates))
    )
    for name, binding in rows:
        bound = " ".join(f"{lbl}={cell}" for lbl, cell in binding)
        print(f"{name}: {bound}")
    print(f"total: {len(rows)}")
    return 0


def _cmd_prove(args) -> int:
    pos = _load_board(args.board)
    cert = prove_draw(pos, templates=_templates_arg(args.templates))
    if cert is None:
        print("NotFound", file=sys.stderr)
        return 1
    if args.pretty:
        print(_pretty_certificate(cert))
    else:
        sys.stdout.write(certificate_to_json(cert))
    return 0


def _cmd_verify_cert(args) -> int:
    cert = certificate_from_json(_read(args.cert))
    result = check_certificate(cert)
    if result.valid:
        print("Valid")
        return 0
    print("Invalid")
    for where, reason in result.violations:
        print(f"  {where}: {reason}")
    return 1


def _cmd_table1(args) -> int:
    checks = [(t, REFERENCE_ROWS[t.name]) for t in catalog()]
    for n in range(3, 9):
        for name, markers, groups, red in (
            (f"CycleN({n})", 2 * n - 1, n, 1),
            (f"CycleNLine({n})", 2 * n, n + 1, 2),
        ):
            ref = (markers, groups, red, f"{float(Fraction(markers, groups)):.2f}")
            checks.append((template_by_name(name), ref))
    rows = []
    mismatches = 0
    for template, ref in checks:
        got = (
            template.num_markers,
            template.num_groups,
            template.reduction,
            f"{float(template.ratio):.2f}",
        )
        flag = "MATCH" if got == ref else "MISMATCH"
        mismatches += flag == "MISMATCH"
        rows.append((template.name, *got, flag))
    width = max(len(r[0]) for r in rows)
    print(f"{'configuration':{width}s} markers groups reduction ratio flag")
    for name, markers, groups, red, ratio, flag in rows:
        print(f"{name:{width}s} {markers:7d} {groups:6d} {red:9d} {ratio:>5s} {flag}")
    print()
    fixtures = []
    for name in FIXTURE_NAMES:
        board = _fixture_text(name, ".board")
        if board is None:
            print(f"missing fixture: {name}", file=sys.stderr)
            return 2
        fixtures.append((name, board, _fixture_text(name, ".cert")))
    reports = verify_draw_claims(fixtures)
    print(format_report(reports))
    if args.json:
        print(json.dumps(reports, indent=2))
    bad = mismatches or any(r["certificate_status"] != "Valid" for r in reports)
    return 1 if bad else 0


def _cmd_render(args) -> int:
    pos = _load_board(args.board)
    live = live_black_groups(pos)
    print("\n".join(_grid(pos, {c: "+" for g in live for c in g if pos.is_empty(c)})))
    print(f"to move: {'B' if pos.to_move == BLACK else 'W'}")
    for g in live:
        print(f"live: {g}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kinarow")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="exact game value of a board file")
    sp.add_argument("--board", required=True)
    sp.add_argument("--method", choices=PRUNING_MODES, default="none")
    sp.set_defaults(func=_cmd_solve)

    dp = sub.add_parser("detect", help="list configuration embeddings on a board")
    dp.add_argument("--board", required=True)
    dp.add_argument("--templates")
    dp.set_defaults(func=_cmd_detect)

    pp = sub.add_parser("prove", help="build a draw certificate for a board")
    pp.add_argument("--board", required=True)
    pp.add_argument("--templates")
    pp.add_argument("--pretty", action="store_true")
    pp.set_defaults(func=_cmd_prove)

    vp = sub.add_parser("verify-cert", help="re-validate a certificate file")
    vp.add_argument("--cert", required=True)
    vp.set_defaults(func=_cmd_verify_cert)

    tp = sub.add_parser(
        "table1", help="catalog metadata vs reference values, plus fixture report"
    )
    tp.add_argument("--json", action="store_true")
    tp.set_defaults(func=_cmd_table1)

    rp = sub.add_parser("render", help="ASCII board with live groups marked")
    rp.add_argument("--board", required=True)
    rp.set_defaults(func=_cmd_render)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, BoardFormatError, IllegalPositionError, CertificateFormatError,
            SearchGuardError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

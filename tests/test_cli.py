"""CLI dispatch, exit codes, and output formats."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from kinarow import BoardSpec, certificate_to_json, empty_position, prove_draw
from kinarow.board import Group
from kinarow.cli import FIXTURE_NAMES, _parser, _pretty_certificate, main
from kinarow.configs import CertEntry, DrawCertificate
from kinarow.pairing import Pairing
from kinarow.setmatch import MatchingSet
from tests.test_board import load_fixture
from tests.test_configs import RESIDUAL_5X4


@pytest.fixture
def board_file(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def fixture_path(name: str) -> str:
    from importlib import resources

    return str(resources.files("kinarow") / "fixtures" / name)


def three_cell_residual_pair(obj: dict) -> None:
    """Replace obj by the certificate of the empty 4x3, k=4 board with one
    residual pair grown to three cells of its group."""
    obj.clear()
    obj.update(json.loads(certificate_to_json(prove_draw(empty_position(BoardSpec(4, 3, 4))))))
    obj["residual_pairing"][0]["pair"] = ["a1", "b1", "c1"]


def first_remainder_pair(obj: dict) -> list:
    return obj["matching_sets"][0]["coverings"][0]["remainder"]["pairs"][0]


PAIR_SIZE = "a pair must hold exactly two cells"


class TestSolve:
    def test_draw_output(self, capsys):
        assert main(["solve", "--board", fixture_path("fig1.board")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Draw\n")
        assert "nodes_examined:" in out

    def test_setmatch_single_node(self, capsys):
        code = main(
            ["solve", "--board", fixture_path("empty4x4.board"), "--method", "setmatch"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes_examined: 1\n" in out
        assert "cert_calls: 1\n" in out

    def test_cert_calls_line(self, capsys):
        assert main(["solve", "--board", fixture_path("fig1.board"), "--method", "hj"]) == 0
        assert "cert_calls: 3\n" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["none", "hj", "setmatch"])
    def test_timing_lines(self, capsys, method):
        assert main(["solve", "--board", fixture_path("fig1.board"), "--method", method]) == 0
        lines = dict(
            line.split(": ") for line in capsys.readouterr().out.splitlines()[1:]
        )
        seconds, cert_seconds = float(lines["seconds"]), float(lines["cert_seconds"])
        assert 0 <= cert_seconds <= seconds
        if method == "none":
            assert cert_seconds == 0

    @pytest.mark.parametrize(
        "board,verdict",
        [
            ("4 4 4 W\nXXXX\nOOO.\n....\n....\n", "BlackWin"),
            ("4 4 4 B\nOOOO\nXXX.\nX...\n....\n", "WhiteWin"),
        ],
    )
    def test_finished_game(self, board_file, capsys, board, verdict):
        path = board_file("done.board", board)
        assert main(["solve", "--board", path, "--method", "setmatch"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{verdict}\n")
        assert "nodes_examined: 1\n" in out

    def test_both_sides_finished_is_usage_error(self, board_file, capsys):
        path = board_file("both.board", "4 4 4 B\nXXXX\nOOOO\n....\n....\n")
        assert main(["solve", "--board", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["solve", "--board", "no/such/file.board"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_board_is_usage_error(self, board_file, capsys):
        path = board_file("garbage.txt", "not a board at all\n")
        assert main(["solve", "--board", path]) == 2

    def test_bad_method_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--board", "x", "--method", "psychic"])
        assert exc.value.code == 2


class TestProve:
    def test_emits_json_certificate(self, capsys):
        assert main(["prove", "--board", fixture_path("fig1.board")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [ms["template_name"] for ms in obj["matching_sets"]] == ["Triangle"]
        assert obj["residual_pairing"] == []

    def test_pretty_rendering(self, capsys):
        assert main(["prove", "--board", fixture_path("fig1.board"), "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "Triangle:" in out
        assert "groups:" in out

    def test_unprovable_position_exits_1(self, board_file, capsys):
        # Black threatens two groups at once; no draw certificate exists
        path = board_file("open.board", "4 4 4 B\n....\nO...\nOO..\nXXX.\n")
        assert main(["prove", "--board", path]) == 1
        assert "NotFound" in capsys.readouterr().err


class TestVerifyCert:
    def test_valid_certificate(self, capsys):
        assert main(["verify-cert", "--cert", fixture_path("fig1.cert")]) == 0
        assert capsys.readouterr().out == "Valid\n"

    def test_tampered_certificate_exits_1(self, board_file, capsys):
        obj = json.loads(load_fixture("fig1.cert"))
        obj["matching_sets"][0]["coverings"] = obj["matching_sets"][0]["coverings"][:1]
        path = board_file("bad.cert", json.dumps(obj))
        assert main(["verify-cert", "--cert", path]) == 1
        assert "Invalid" in capsys.readouterr().out

    def test_malformed_json_is_usage_error(self, board_file):
        path = board_file("broken.cert", "{]")
        assert main(["verify-cert", "--cert", path]) == 2

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda obj: obj.update(matching_sets=["x"]), ""),
            (lambda obj: obj.update(board=5), ""),
            (lambda obj: obj["matching_sets"][0]["coverings"][0].update(black=7), ""),
            (lambda obj: obj.update(board=""), ""),
            (lambda obj: obj.update(board="a0"), ""),
            (lambda obj: obj["matching_sets"][0].update(template_name=[1, {"a": 2}]), ""),
            (lambda obj: obj["matching_sets"][0].update(template_name="Pentagon"), ""),
            (lambda obj: obj["matching_sets"][0].pop("template_name"), ""),
            (
                lambda obj: obj["residual_pairing"].append(
                    {"group": ["a1", "b1", "c1", "d1"], "pair": ["a1"]}
                ),
                PAIR_SIZE,
            ),
            (three_cell_residual_pair, PAIR_SIZE),
            (lambda obj: first_remainder_pair(obj).pop(), PAIR_SIZE),
            (lambda obj: first_remainder_pair(obj).append("d1"), PAIR_SIZE),
        ],
        ids=[
            "matching-set-string",
            "board-number",
            "covering-black-number",
            "board-empty",
            "board-cell-name",
            "template-name-list",
            "template-name-unknown",
            "template-name-missing",
            "residual-pair-1-cell",
            "residual-pair-3-cells",
            "remainder-pair-1-cell",
            "remainder-pair-3-cells",
        ],
    )
    def test_wrongly_typed_json_is_usage_error(self, board_file, capsys, mutate, message):
        obj = json.loads(load_fixture("fig1.cert"))
        mutate(obj)
        path = board_file("typed.cert", json.dumps(obj))
        assert main(["verify-cert", "--cert", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda obj: obj["matching_sets"][0]["groups"].__setitem__(
                0, ["a5", "a6", "a7", "a8"]
            ),
            lambda obj: obj.update(
                residual_pairing=[{"group": ["a5", "a6", "a7", "a8"], "pair": ["a5", "a6"]}]
            ),
        ],
        ids=["matching-set-group", "residual-group"],
    )
    def test_off_board_group_is_invalid(self, board_file, capsys, mutate):
        obj = json.loads(load_fixture("fig1.cert"))
        mutate(obj)
        path = board_file("offboard.cert", json.dumps(obj))
        assert main(["verify-cert", "--cert", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith("Invalid\n")
        assert "off the board" in out

    def test_non_ascii_cell_is_usage_error(self, board_file, capsys):
        obj = json.loads(load_fixture("fig1.cert"))
        obj["matching_sets"][0]["markers"][0] = "é1"
        path = board_file("accent.cert", json.dumps(obj))
        assert main(["verify-cert", "--cert", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "é1" in err


def readme_block(section: str, lang: str) -> str:
    """The first fenced `lang` block under README's `## section` heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split(f"## {section}\n", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_cli_lines() -> list[str]:
    block = readme_block("CLI", "sh")
    return [ln.split("#", 1)[0].strip() for ln in block.splitlines() if ln.startswith("kinarow ")]


class TestReadme:
    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_cli_example_parses(self, line):
        argv = shlex.split(line.split(">", 1)[0])[1:]
        _parser().parse_args(argv)

    def test_library_example_runs(self):
        block = readme_block("Library", "python")
        assert "prove_draw(" in block and "solve(" in block
        exec(compile(block, "README.md", "exec"), {})


class TestDetect:
    def test_lists_embeddings(self, capsys):
        code = main(
            ["detect", "--board", fixture_path("fig5.board"), "--templates", "BiTriangle"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("BiTriangle:") >= 1
        assert "total:" in out

    def test_unknown_template_is_usage_error(self, capsys):
        code = main(
            ["detect", "--board", fixture_path("fig5.board"), "--templates", "Blob"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["detect", "prove"])
    def test_unknown_template_message_is_unquoted(self, command, capsys):
        code = main(
            [command, "--board", fixture_path("fig1.board"), "--templates", "Triangle,Pentagon"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: unknown configuration 'Pentagon'\n"


class TestTable1:
    def test_json_report(self, capsys):
        assert main(["table1", "--json"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        report = json.loads(out[out.index("\n[") :])
        assert len(report) == 13
        assert {r["certificate_status"] for r in report} == {"Valid"}


class TestRender:
    def test_board_with_live_groups(self, capsys):
        assert main(["render", "--board", fixture_path("fig1.board")]) == 0
        out = capsys.readouterr().out
        assert "to move: B" in out
        assert out.count("live:") == 3


class TestDeterminism:
    def test_prove_output_is_byte_identical(self, capsys):
        main(["prove", "--board", fixture_path("fig9c.board")])
        first = capsys.readouterr().out
        main(["prove", "--board", fixture_path("fig9c.board")])
        assert capsys.readouterr().out == first


# SHA-256 prefixes of the full stdout of `render`, `prove --pretty` and
# `detect` on every bundled fixture.
RENDER_DIGESTS = {
    "empty4x4": "01646524efc8af93",
    "fig1": "4d0e1ec0bf89d139",
    "fig2": "1dab6018d398a178",
    "fig3": "ee631097f6db2d17",
    "fig4": "ec166d5b212f252f",
    "fig5": "7ab7bf95f9e72939",
    "fig7": "3cbb6d0dba8eb96b",
    "fig8": "6f18995cc3cecb85",
    "fig9a": "eaff06fcd1e0a6fa",
    "fig9b": "4e5d61dbc9efd69f",
    "fig9c": "114b0a976fa9dc2c",
    "fig10": "95b5c6c97f0c956f",
    "fig11": "c3d7f5f19f5eea08",
}
PRETTY_DIGESTS = {
    "empty4x4": "2edbd416c049081a",
    "fig1": "000b66f3a8953d17",
    "fig2": "14cf89cdb2999103",
    "fig3": "72b979806d248d0d",
    "fig4": "06b7705ce3e3c009",
    "fig5": "a87170a7c2e4751d",
    "fig7": "1045bce9de3540e2",
    "fig8": "9d090ef59561474f",
    "fig9a": "bef05b54c34fc366",
    "fig9b": "4459b5ac9df98de2",
    "fig9c": "b743681ada4d0a75",
    "fig10": "de947ed94e7743ec",
    "fig11": "deb40a091c2b8a00",
}
DETECT_DIGESTS = {
    "empty4x4": "2d7daa24eb9ad918",
    "fig1": "5b1567ca9455e157",
    "fig2": "7a6b91af8db5a1f6",
    "fig3": "e55c1198f6842efe",
    "fig4": "a6dbbfaa391a7060",
    "fig5": "c2991f475d9963a4",
    "fig7": "a9d92e19bfbd482b",
    "fig8": "998cc6e0addbce33",
    "fig9a": "e83895ed461ca906",
    "fig9b": "ba409f743fc35058",
    "fig9c": "09487de33fc089d2",
    "fig10": "88fa191957019189",
    "fig11": "4096d003c1d2fc00",
}


class TestPinnedText:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize(
        "argv,digests",
        [
            (["render"], RENDER_DIGESTS),
            (["prove", "--pretty"], PRETTY_DIGESTS),
            (["detect"], DETECT_DIGESTS),
        ],
        ids=["render", "pretty", "detect"],
    )
    def test_output_is_pinned(self, capsys, name, argv, digests):
        assert main([argv[0], "--board", f"fixture:{name}", *argv[1:]]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digests[name]

    def test_residual_pairs_are_pinned(self, board_file, capsys):
        # Square + Triangle + 2 residual pairs: the pair overlay and legend.
        assert main(["prove", "--board", board_file("res.board", RESIDUAL_5X4), "--pretty"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "9a6ac8fe0dcf20e9"

    def test_fifteen_residual_pairs_are_pinned(self, board_file, capsys):
        # The empty 12x3, k=8 board: 15 residual pairs, the tenth on "0" and
        # the rest on letters from the back.
        board = board_file("wide.board", "12 3 8 B\n" + "............\n" * 3)
        assert main(["prove", "--board", board, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:3] == [
            " 3 Z Z Y Y W W V V U U . .",
            " 2 6 6 7 7 8 8 9 9 0 0 . .",
            " 1 1 1 2 2 3 3 4 4 5 5 . .",
        ]
        assert "pair 9: g2,h2 for d2-e2-f2-g2-h2-i2-j2-k2" in out
        assert "pair 15 (U): i3,j3 for e3-f3-g3-h3-i3-j3-k3-l3" in out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "be409a7c6c229e5d"

    def test_every_marker_and_pair_has_its_own_tag(self):
        # 30 markers and 15 residual pairs on an empty 12x5 board.
        pos = empty_position(BoardSpec(12, 5, 8))
        cells = [(c, r) for r in range(5) for c in range(12)]
        entry = CertEntry("Square", MatchingSet(frozenset(cells[:30]), (), ()))
        pairs = [(Group(tuple(cells[i : i + 2])), (cells[i], cells[i + 1])) for i in range(30, 60, 2)]
        text = _pretty_certificate(DrawCertificate(pos, (entry,), Pairing(tuple(pairs))))
        rows = [line.split()[1:] for line in text.splitlines()[:5]]  # top row first
        grid = {(c, 4 - r): tag for r, row in enumerate(rows) for c, tag in enumerate(row)}
        marker_tags = [grid[cell] for cell in cells[:30]]
        pair_tags = [grid[a] for _, (a, b) in pairs if grid[a] == grid[b]]
        assert len(pair_tags) == 15
        assert len(set(marker_tags + pair_tags)) == 45
        assert not set(marker_tags + pair_tags) & set("XO.?")
        assert [line.split(":")[0] for line in text.splitlines() if line.startswith("pair")] == [
            f"pair {i}" if i <= 9 else f"pair {i} ({grid[pairs[i - 1][1][0]]})" for i in range(1, 16)
        ]

"""CLI dispatch, exit codes, and output formats."""

import json
import shlex
from pathlib import Path

import pytest

from kinarow.cli import _parser, main
from tests.test_board import load_fixture


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
        assert "cert_calls: 7\n" in capsys.readouterr().out

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
        "mutate",
        [
            lambda obj: obj.update(matching_sets=["x"]),
            lambda obj: obj.update(board=5),
            lambda obj: obj["matching_sets"][0]["coverings"][0].update(black=7),
            lambda obj: obj.update(board=""),
            lambda obj: obj.update(board="a0"),
            lambda obj: obj["matching_sets"][0].update(template_name=[1, {"a": 2}]),
            lambda obj: obj["matching_sets"][0].update(template_name="Pentagon"),
            lambda obj: obj["matching_sets"][0].pop("template_name"),
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
        ],
    )
    def test_wrongly_typed_json_is_usage_error(self, board_file, capsys, mutate):
        obj = json.loads(load_fixture("fig1.cert"))
        mutate(obj)
        path = board_file("typed.cert", json.dumps(obj))
        assert main(["verify-cert", "--cert", path]) == 2
        assert "error:" in capsys.readouterr().err

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


def readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [ln.split("#", 1)[0].strip() for ln in block.splitlines() if ln.startswith("kinarow ")]


class TestReadme:
    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_cli_example_parses(self, line):
        argv = shlex.split(line.split(">", 1)[0])[1:]
        _parser().parse_args(argv)


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

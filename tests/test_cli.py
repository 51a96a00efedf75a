import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catroute import graph as graph_module
from catroute import parse_categories, path_categories, serialize_categories
from catroute.cli import main
from catroute.errors import InternalCheckError
from catroute.fixtures import counterexample_cycle
from catroute.graph import serialize_edge_list

from conftest import path_graph, star_graph

COUNTER_EDGES = "0 1\n1 2\n2 3\n0 3\n"


@pytest.fixture
def counter_files(tmp_path):
    graph_file = tmp_path / "counter.edges"
    graph_file.write_text(COUNTER_EDGES)
    _, system = counterexample_cycle()
    cats_file = tmp_path / "counter.json"
    cats_file.write_text(serialize_categories(system))
    return str(graph_file), str(cats_file)


class TestConstruct:
    def test_auto_on_a_path_matches_path_construction(self, tmp_path, capsys):
        graph_file = tmp_path / "p.edges"
        graph_file.write_text(serialize_edge_list(path_graph(5)))
        out_file = tmp_path / "cats.json"
        code = main(["construct", "--graph", str(graph_file), "--out", str(out_file)])
        assert code == 0
        built = parse_categories(out_file.read_text(), 5)
        assert built == path_categories(path_graph(5))

    def test_method_auto_is_the_only_accepted_value(self, tmp_path, capsys):
        graph_file = tmp_path / "c.edges"
        graph_file.write_text(COUNTER_EDGES)
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert main(["construct", "--graph", str(graph_file), "--out", str(plain)]) == 0
        # The command line perfbench's build-check runs.
        argv = ["construct", "--graph", str(graph_file), "--method", "auto", "--out", str(flagged)]
        assert main(argv) == 0
        assert flagged.read_bytes() == plain.read_bytes()
        assert main(["construct", "--graph", str(graph_file), "--method", "graph"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'graph'" in captured.err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["construct", "--graph", "/nonexistent.edges"]) == 2


    def test_graph_above_vertex_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("n 11\n0 1\n")
        assert main(["construct", "--graph", str(graph_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: vertex count 11 is above the cap of 10\n"


class TestRoute:
    def test_stuck_route_with_trace(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        code = main(
            ["route", "--graph", graph_file, "--cats", cats_file,
             "--from", "1", "--to", "3", "--trace"]
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "STUCK at 1 (d=2)"

    def test_delivered_route_trace_lines(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        code = main(
            ["route", "--graph", graph_file, "--cats", cats_file,
             "--from", "0", "--to", "2", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["0 -(d=1)-> 1", "1 -(d=0)-> 2", "DELIVERED in 2 hops"]

    def test_summary_only(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        code = main(
            ["route", "--graph", graph_file, "--cats", cats_file, "--from", "0", "--to", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "DELIVERED in 1 hops"

    def test_stuck_summary_only(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        code = main(
            ["route", "--graph", graph_file, "--cats", cats_file, "--from", "1", "--to", "3"]
        )
        assert code == 1
        assert capsys.readouterr().out == "STUCK at 1 (d=2)\n"


class TestCheck:
    def test_all_properties(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        code = main(["check", "--graph", graph_file, "--cats", cats_file])
        assert code == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "internally-connected: OK"
        assert out[1] == "shattered: OK"
        assert out[2] == "all-pairs-routing: FAIL witness=(1,3) stuck at 1"

    def test_subset_of_properties(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        code = main(
            ["check", "--graph", graph_file, "--cats", cats_file, "--props", "shattered"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "shattered: OK"

    def test_unknown_property_is_usage_error(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        assert main(["check", "--graph", graph_file, "--cats", cats_file, "--props", "x"]) == 2

    def test_internal_error_has_its_own_exit_code(self, counter_files, capsys, monkeypatch):
        def broken(g, system):
            raise InternalCheckError("invariant broke")

        monkeypatch.setattr("catroute.cli.is_shattered", broken)
        graph_file, cats_file = counter_files
        code = main(["check", "--graph", graph_file, "--cats", cats_file, "--props", "shattered"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["internal error: invariant broke"]

    def test_internal_error_after_a_passing_check_writes_no_verdicts(
        self, counter_files, capsys, monkeypatch
    ):
        def broken(g, system):
            raise InternalCheckError("invariant broke")

        monkeypatch.setattr("catroute.cli.is_shattered", broken)
        graph_file, cats_file = counter_files
        code = main(
            ["check", "--graph", graph_file, "--cats", cats_file, "--props", "internal,shattered"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: invariant broke\n"

    @pytest.mark.parametrize("props", [",", "", " , "], ids=["comma", "empty", "blank"])
    def test_empty_property_list_is_usage_error(self, counter_files, capsys, props):
        graph_file, cats_file = counter_files
        code = main(["check", "--graph", graph_file, "--cats", cats_file, "--props", props])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the property list is empty\n"


class TestStats:
    def test_without_categories(self, counter_files, capsys):
        graph_file, _ = counter_files
        assert main(["stats", "--graph", graph_file]) == 0
        assert capsys.readouterr().out == "n=4\nm=4\ndiam=2\n"

    def test_with_categories(self, counter_files, capsys):
        graph_file, cats_file = counter_files
        assert main(["stats", "--graph", graph_file, "--cats", cats_file]) == 0
        assert capsys.readouterr().out == (
            "n=4\nm=4\ndiam=2\nmemdim=4\nmemdim_vertex=1\nmemdim_degree=2\n"
        )


    def test_dimension_vertex_is_a_hub(self, tmp_path, capsys):
        # Under the graph construction the star's center holds the most
        # categories; every leaf has degree 1.
        graph_file = tmp_path / "star.edges"
        graph_file.write_text(serialize_edge_list(star_graph(9)))
        cats_file = tmp_path / "star.json"
        assert main(["construct", "--graph", str(graph_file), "--out", str(cats_file)]) == 0
        assert main(["stats", "--graph", str(graph_file), "--cats", str(cats_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["memdim_vertex=0", "memdim_degree=8"]

    @pytest.mark.parametrize(
        "edges, error",
        [
            ("", "error: diameter of an empty graph is undefined\n"),
            ("0 1\n2 3\n", "error: graph is disconnected: no path between 0 and 2\n"),
        ],
        ids=["empty", "disconnected"],
    )
    def test_bad_graph_writes_nothing_to_stdout(self, tmp_path, capsys, edges, error):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(edges)
        assert main(["stats", "--graph", str(graph_file)]) == 2
        assert capsys.readouterr() == ("", error)

    def test_category_file_of_another_size_writes_nothing_to_stdout(
        self, counter_files, tmp_path, capsys
    ):
        graph_file, _ = counter_files
        cats_file = tmp_path / "five.json"
        cats_file.write_text('{"n":5,"categories":[[0]]}\n')
        assert main(["stats", "--graph", graph_file, "--cats", str(cats_file)]) == 2
        assert capsys.readouterr() == ("", "error: category file declares n=5, expected n=4\n")


class TestBench:
    def test_csv_to_file(self, tmp_path):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([
            {"family": "path", "n": 6},
            {"family": "star", "n": 7, "seed": 1},
        ]))
        out_file = tmp_path / "out.csv"
        code = main(["bench", "--spec", str(spec_file), "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("seed,family,n,m,diam,memdim")

    def test_bad_spec_file_is_usage_error(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text("{broken")
        assert main(["bench", "--spec", str(spec_file)]) == 2

    def test_over_cap_spec_leaves_the_output_file_alone(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([
            {"family": "path", "n": 6},
            {"family": "path", "n": 501},
        ]))
        out_file = tmp_path / "out.csv"
        out_file.write_text("earlier results\n")
        code = main(["bench", "--spec", str(spec_file), "--out", str(out_file)])
        assert code == 2
        assert out_file.read_text() == "earlier results\n"
        assert capsys.readouterr() == (
            "", "error: n=501 exceeds the all-pairs verification cap of 500\n"
        )


    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "path", "n": "abc"},
            {"family": "path", "n": 2.9},
            {"family": "path", "n": True},
            {"family": "path", "n": 6, "seed": None},
            {"family": "path", "n": 6, "params": [1]},
            {"family": "gnp-connected", "n": 10, "params": {"p": "0.1"}},
            {"family": "watts-strogatz", "n": 10, "params": {"k": 4.0}},
            {"family": "grid", "n": 12, "params": {"rows": 3.0, "cols": 4}},
            {"family": "grid", "n": 12, "params": {"rows": -3, "cols": -4}},
        ],
        ids=[
            "n-str", "n-float", "n-bool", "seed-null", "params-list", "p-str",
            "k-float", "rows-float", "dims-negative",
        ],
    )
    def test_malformed_spec_leaves_the_output_file_alone(self, tmp_path, capsys, spec):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([{"family": "path", "n": 6}, spec]))
        out_file = tmp_path / "out.csv"
        out_file.write_text("earlier results\n")
        code = main(["bench", "--spec", str(spec_file), "--out", str(out_file)])
        assert code == 2
        assert out_file.read_text() == "earlier results\n"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


class TestInputEncoding:
    @pytest.mark.parametrize("option", ["--graph", "--cats", "--spec"])
    def test_file_that_is_not_utf8_is_an_input_error(self, counter_files, tmp_path, capsys, option):
        graph_file, cats_file = counter_files
        bad_file = tmp_path / "bad.bin"
        bad_file.write_bytes(b"0 1\n\xff\n")
        bad = str(bad_file)
        argv = {
            "--graph": ["stats", "--graph", bad],
            "--cats": ["route", "--graph", graph_file, "--cats", bad, "--from", "0", "--to", "1"],
            "--spec": ["bench", "--spec", bad],
        }[option]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 4)\n"


class TestFixturesCommand:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert "FAIL" not in out


class TestArgparseExits:
    @pytest.mark.parametrize(
        "argv, error",
        [
            ([], "the following arguments are required: command"),
            (["check"], "the following arguments are required: --graph, --cats"),
            (["bogus"], "invalid choice: 'bogus'"),
            (
                ["route", "--graph", "g", "--cats", "c", "--from", "x", "--to", "1"],
                "argument --from: invalid int value: 'x'",
            ),
        ],
    )
    def test_usage_error_returns_two(self, argv, error, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: catroute")
        assert error in captured.err

    def test_version_returns_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == "catroute 0.1.0\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        graph_file = tmp_path / "p.edges"
        graph_file.write_text("0 1\n1 2\n")
        # pytest's ``pythonpath`` setting reaches this process only, so the
        # child gets the checkout's src/ on its own import path.
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        result = subprocess.run(
            [sys.executable, "-m", "catroute", "stats", "--graph", str(graph_file)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout == "n=3\nm=2\ndiam=2\n"

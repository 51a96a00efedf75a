import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catroute import categories as categories_module
from catroute import cli as cli_module
from catroute import construct as construct_module
from catroute import graph as graph_module
from catroute import (
    GeneratorSpec,
    generate,
    graph_categories,
    parse_categories,
    path_categories,
    serialize_categories,
)
from catroute import __version__ as catroute_version
from catroute.cli import main
from catroute.errors import InternalCheckError
from catroute.fixtures import counterexample_cycle
from catroute.graph import serialize_edge_list

from conftest import cycle_graph, path_graph, random_tree, seeded, star_graph
from test_categories import GOLDEN_BYTES
from test_construct import K23, _hypercube

# Families whose pinned graphs take the construction's tree branch, so that
# `construct` writes them without transposing to vertex masks.
TREE_BRANCH = ("gnp-connected", "random-tree", "star", "complete", "watts-strogatz")

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

    def test_a_single_vertex_round_trips_with_no_categories(self, tmp_path, capsys):
        # A single vertex has no pair to route, so it needs no category: the
        # empty system passes every check vacuously.
        graph_file, cats_file = str(tmp_path / "one.edges"), tmp_path / "one.json"
        (tmp_path / "one.edges").write_text("n 1\n")
        assert main(["construct", "--graph", graph_file, "--out", str(cats_file)]) == 0
        assert cats_file.read_text() == '{"n":1,"categories":[]}\n'
        capsys.readouterr()
        argv = ["check", "--graph", graph_file, "--cats", str(cats_file), "--props", "internal,shattered,all-pairs"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "internally-connected: OK\nshattered: OK\nall-pairs-routing: OK\n"
        assert main(["stats", "--graph", graph_file, "--cats", str(cats_file)]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == ["memdim=0", "memdim_vertex=0", "memdim_degree=0"]

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["construct", "--graph", "/nonexistent.edges"]) == 2

    def test_an_empty_graph_has_no_root(self, tmp_path, capsys):
        graph_file = tmp_path / "empty.edges"
        graph_file.write_text("n 0\n")
        assert main(["construct", "--graph", str(graph_file)]) == 2
        assert capsys.readouterr() == ("", "error: cannot choose a root in an empty graph\n")

    def test_tree_edge_count_with_a_cycle_is_disconnected(self, tmp_path, capsys):
        # n - 1 edges, but a triangle and an isolated vertex: no tree.
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("n 4\n0 1\n1 2\n2 0\n")
        assert main(["construct", "--graph", str(graph_file)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: graph is disconnected: no path between 0 and 3\n",
        )


    @pytest.mark.parametrize("family, n, seed, params, digest", GOLDEN_BYTES, ids=[row[0] for row in GOLDEN_BYTES])
    def test_writes_the_pinned_bytes(self, family, n, seed, params, digest, tmp_path, monkeypatch):
        g = generate(GeneratorSpec(family, n, seed, params))
        expected = serialize_categories(graph_categories(g))
        graph_file, out_file = tmp_path / "g.edges", tmp_path / "cats.json"
        graph_file.write_text(serialize_edge_list(g))
        if family in TREE_BRANCH:
            # The file holds category masks alone, so a tree-built system
            # must reach it without the vertex-side transpose.
            def refuse(n, masks):
                raise AssertionError("construct transposed to vertex masks")

            monkeypatch.setattr(categories_module, "_transpose", refuse)
        assert main(["construct", "--graph", str(graph_file), "--out", str(out_file)]) == 0
        assert out_file.read_text() == expected
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

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

    def test_unshattered_system_prints_its_witness(self, tmp_path, capsys):
        # The path's prefix and suffix sets without {0, 1}: from 2, neither
        # neighbour holds a set with 0 that leaves 2 out.
        graph_file = tmp_path / "p.edges"
        graph_file.write_text(serialize_edge_list(path_graph(5)))
        cats_file = tmp_path / "p.json"
        cats_file.write_text('{"n":5,"categories":[[0],[0,1,2],[0,1,2,3],[1,2,3,4],[2,3,4],[3,4],[4]]}')
        argv = ["check", "--graph", str(graph_file), "--cats", str(cats_file), "--props", "shattered"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "shattered: FAIL witness=(2, 0)\n"
        assert captured.err == ""

    def test_split_category_prints_its_index(self, tmp_path, capsys):
        # On the path 0-1-2, {0, 2} is not connected without 1.
        graph_file, cats_file = tmp_path / "p.edges", tmp_path / "split.json"
        graph_file.write_text("0 1\n1 2\n")
        cats_file.write_text('{"n":3,"categories":[[0,2],[1]]}')
        argv = ["check", "--graph", str(graph_file), "--cats", str(cats_file), "--props", "internal"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("internally-connected: FAIL witness=category 0\n", "")

    @pytest.mark.parametrize(
        "body, error",
        [
            ('{"n":"4","categories":[]}', '"n" must be an integer'),
            ('{"n":true,"categories":[]}', '"n" must be an integer'),
            ('{"n":4.0,"categories":[]}', '"n" must be an integer'),
            ('{"n":4,"categories":{"0":[0]}}', '"categories" must be a list of member lists'),
        ],
        ids=["n-string", "n-bool", "n-float", "categories-object"],
    )
    def test_misshapen_category_file_is_usage_error(self, counter_files, tmp_path, capsys, body, error):
        graph_file, _ = counter_files
        cats_file = tmp_path / "bad.json"
        cats_file.write_text(body)
        assert main(["check", "--graph", graph_file, "--cats", str(cats_file)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

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
            "n=4\nm=4\ndiam=2\ncategories=6\nmemdim=4\nmemdim_vertex=1\nmemdim_degree=2\n"
        )

    def test_categories_counts_distinct_sets(self, counter_files, tmp_path, capsys):
        # The file lists {0, 1} three times and {2, 3} once: two categories.
        graph_file, _ = counter_files
        cats_file = tmp_path / "twice.json"
        cats_file.write_text('{"n":4,"categories":[[0,1],[2,3],[1,0],[0,1]]}\n')
        assert main(["stats", "--graph", graph_file, "--cats", str(cats_file)]) == 0
        assert capsys.readouterr().out.splitlines()[3:5] == ["categories=2", "memdim=1"]


    @pytest.mark.parametrize(
        "edges, diam",
        [
            (serialize_edge_list(path_graph(6)), 5),
            (serialize_edge_list(path_graph(7)), 6),
            (serialize_edge_list(star_graph(9)), 2),
            ("0 2\n2 1\n1 3\n", 3),
        ],
        ids=["path-6-two-centres", "path-7-one-centre", "star-9", "0-2-1-3"],
    )
    def test_tree_diameter_from_the_centre(self, tmp_path, capsys, edges, diam):
        graph_file = tmp_path / "tree.edges"
        graph_file.write_text(edges)
        assert main(["stats", "--graph", str(graph_file)]) == 0
        assert capsys.readouterr().out.splitlines()[2] == f"diam={diam}"

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
            # n - 1 edges, but a triangle and an isolated vertex: no tree.
            (
                "n 4\n0 1\n1 2\n2 0\n",
                "error: graph is disconnected: no path between 0 and 3\n",
            ),
        ],
        ids=["empty", "disconnected", "tree-edge-count-with-a-cycle"],
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

    @pytest.mark.parametrize(
        "g",
        [
            generate(GeneratorSpec("grid", 144)),
            generate(GeneratorSpec("grid", 21, params={"rows": 3, "cols": 7})),
            cycle_graph(12),
            cycle_graph(7),
            _hypercube(3),
            _hypercube(5),
            K23,
            random_tree(seeded(5), 40).graph,
            path_graph(9),
            star_graph(9),
            generate(GeneratorSpec("gnp-connected", 60, 3, {"p": 0.1})),
            generate(GeneratorSpec("watts-strogatz", 60, 3, {"k": 4, "beta": 0.2})),
        ],
        ids=["grid-12x12", "grid-3x7", "cycle-12", "cycle-7", "Q3", "Q5", "K23", "tree-40", "path-9",
             "star-9", "gnp-60", "watts-strogatz-60"],
    )
    def test_diameter_is_the_reach_sweeps(self, tmp_path, capsys, g):
        # Partial cubes with diam classes read it off their halfspaces; every
        # other graph, K_{2,3} and odd cycles among them, takes graph.diameter.
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(serialize_edge_list(g))
        assert main(["stats", "--graph", str(graph_file)]) == 0
        assert capsys.readouterr().out == f"n={g.n}\nm={g.num_edges}\ndiam={graph_module.diameter(g)}\n"

    @pytest.mark.parametrize("g, diam", [(generate(GeneratorSpec("grid", 900)), 58), (_hypercube(6), 6)], ids=["grid-30x30", "Q6"])
    def test_partial_cubes_skip_the_reach_sweep(self, tmp_path, capsys, monkeypatch, g, diam):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(serialize_edge_list(g))
        monkeypatch.setattr(construct_module, "diameter", lambda g: pytest.fail("reach sweep run"))
        assert main(["stats", "--graph", str(graph_file)]) == 0
        assert capsys.readouterr().out == f"n={g.n}\nm={g.num_edges}\ndiam={diam}\n"


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


class TestJsonPastTheDecoder:
    """json.loads raises a bare ValueError on a number longer than int()
    converts, and RecursionError on brackets nested past its stack: both are
    input errors, exit 2 with one line, like any other invalid JSON."""

    DIGITS = "1" + "0" * 4999
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("kind", ["digits", "deep"])
    @pytest.mark.parametrize("command", ["check", "route", "stats", "bench"])
    def test_exits_two_with_one_error_line(self, counter_files, tmp_path, capsys, command, kind):
        graph_file, _ = counter_files
        bad = str(tmp_path / "bad.json")
        if command == "bench":
            body = f'[{{"family":"path","n":{self.DIGITS}}}]' if kind == "digits" else self.DEEP
            argv = ["bench", "--spec", bad]
            # Without a digit limit, n reaches the verification cap instead.
            prefixes = ("error: invalid bench spec JSON: ", "error: n=")
        else:
            rows = f"[[{self.DIGITS}]]" if kind == "digits" else self.DEEP
            body = f'{{"n":4,"categories":{rows}}}'
            argv = [command, "--graph", graph_file, "--cats", bad]
            if command == "route":
                argv += ["--from", "0", "--to", "1"]
            # Without a digit limit, the member reaches the range check instead.
            prefixes = ("error: invalid JSON: ", "error: category member ")
        Path(bad).write_text(body)
        limited = kind == "deep" or getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(prefixes[0] if limited else prefixes)


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


class TestOneProcess:
    def _calls(self, tmp_path):
        """A star's round trip, then calls that each leave out an option the
        call before them gave, a version query and a usage error."""
        graph_file, cats_file = str(tmp_path / "star.edges"), str(tmp_path / "star.json")
        (tmp_path / "star.edges").write_text(serialize_edge_list(star_graph(9)))
        route = ["route", "--graph", graph_file, "--cats", cats_file, "--from", "1", "--to", "8"]
        return [
            ["construct", "--graph", graph_file, "--method", "auto", "--out", cats_file],
            ["check", "--graph", graph_file, "--cats", cats_file, "--props", "internal"],
            ["check", "--graph", graph_file, "--cats", cats_file],
            route + ["--trace"],
            route,
            ["stats", "--graph", graph_file, "--cats", cats_file],
            ["stats", "--graph", graph_file],
            ["--version"],
            ["route", "--graph", graph_file],
            ["construct", "--graph", graph_file],
        ]

    def _run(self, calls, capsys, fresh):
        results = []
        for argv in calls:
            if fresh:
                cli_module.build_parser.cache_clear()
            code = main(argv)
            out, err = capsys.readouterr()
            results.append((code, out, err))
        return results

    def test_one_parser_answers_as_a_fresh_one_would(self, tmp_path, capsys):
        calls = self._calls(tmp_path)
        cli_module.build_parser.cache_clear()
        shared = self._run(calls, capsys, fresh=False)
        assert cli_module.build_parser.cache_info().misses == 1
        fresh = self._run(calls, capsys, fresh=True)
        assert shared == fresh
        codes, outs, errs = zip(*shared)
        assert codes == (0, 0, 0, 0, 0, 0, 0, 0, 2, 0)
        # No option of one call reaches the next: the default properties,
        # the outcome line alone, no memdim, and stdout instead of --out.
        assert outs[1] == "internally-connected: OK\n"
        assert outs[2] == "internally-connected: OK\nshattered: OK\nall-pairs-routing: OK\n"
        assert outs[3].count("\n") > 1 and outs[4] == outs[3].splitlines()[-1] + "\n"
        assert "memdim=" in outs[5] and "memdim=" not in outs[6]
        assert outs[7] == f"catroute {catroute_version}\n"
        assert outs[8] == "" and "the following arguments are required" in errs[8]
        assert outs[9] == (tmp_path / "star.json").read_text()
        assert not any(errs[:8]) and not errs[9]

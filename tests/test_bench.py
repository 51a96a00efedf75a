import math

import pytest

from catroute import (
    DisconnectedGraphError,
    GeneratorSpec,
    ValidationError,
    diameter,
    generate,
    graph_categories,
    membership_dimension,
    parse_edge_list,
    run_fixtures,
)
from catroute import bench as bench_module
from catroute.bench import (
    ALL_PAIRS_CAP,
    CSV_HEADER,
    BenchRecord,
    bench_one,
    run_benchmark,
    specs_from_json,
)


def _csv_without_millis(text):
    rows = []
    for line in text.strip().splitlines():
        cells = line.split(",")
        del cells[9]  # construct_millis is wall clock
        rows.append(cells)
    return rows


class TestBenchRecords:
    def test_path_family_keeps_dimension_at_least_diameter(self):
        for n in (10, 20, 40):
            record = bench_one(GeneratorSpec("path", n))
            assert record.diam == n - 1
            assert record.memdim >= record.diam
            assert record.all_pairs_ok

    def test_star_101(self):
        record = bench_one(GeneratorSpec("star", 101))
        assert record.diam == 2
        assert record.all_pairs_ok
        assert record.memdim >= 2

    def test_route_length_never_exceeds_dimension(self):
        specs = [
            GeneratorSpec("cycle", 20),
            GeneratorSpec("random-tree", 30, seed=3),
            GeneratorSpec("gnp-connected", 25, seed=4, params={"p": 0.2}),
        ]
        for record in map(bench_one, specs):
            assert record.max_route_len <= record.memdim
            assert record.mean_route_len <= record.max_route_len
            assert record.memdim >= record.diam

    def test_ratio_matches_definition(self):
        record = bench_one(GeneratorSpec("cycle", 16, seed=1))
        expected = record.memdim / (record.diam + math.log2(16)) ** 2
        assert record.ratio == pytest.approx(expected)

    def test_single_vertex_ratio_is_nan(self):
        record = bench_one(GeneratorSpec("path", 1))
        assert math.isnan(record.ratio)
        assert record.csv_row().endswith(",nan")

    def test_cap_enforced(self):
        with pytest.raises(ValidationError):
            bench_one(GeneratorSpec("path", ALL_PAIRS_CAP + 1))

    def test_tree_edge_count_with_a_cycle_is_disconnected(self, monkeypatch):
        # A triangle plus one isolated vertex has n - 1 edges but is no tree.
        triangle = parse_edge_list("n 4\n0 1\n1 2\n2 0\n")
        monkeypatch.setattr(bench_module, "generate", lambda spec: triangle)
        with pytest.raises(DisconnectedGraphError) as err:
            bench_one(GeneratorSpec("path", 4))
        assert err.value.unreachable_pair == (0, 3)


class TestCsvOutput:
    def test_header_and_rows_in_spec_order(self):
        specs = [GeneratorSpec("path", 5), GeneratorSpec("star", 6, seed=2)]
        lines = run_benchmark(specs).strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[1] == "path"
        assert lines[2].split(",")[1] == "star"

    @pytest.mark.parametrize(
        "changes, row",
        [
            ({}, "7,grid,9,12,4,4,true,4,2.0000,3,0.077809"),
            ({"all_pairs_ok": False}, "7,grid,9,12,4,4,false,4,2.0000,3,0.077809"),
            ({"ratio": math.nan}, "7,grid,9,12,4,4,true,4,2.0000,3,nan"),
            ({"ratio": 0.25}, "7,grid,9,12,4,4,true,4,2.0000,3,0.250000"),
            ({"mean_route_len": 1 / 3}, "7,grid,9,12,4,4,true,4,0.3333,3,0.077809"),
        ],
    )
    def test_cells_of_hand_built_records(self, changes, row):
        fields = dict(
            seed=7, family="grid", n=9, m=12, diam=4, memdim=4, all_pairs_ok=True,
            max_route_len=4, mean_route_len=2.0, construct_millis=3, ratio=0.0778093,
        )
        cells = BenchRecord(**{**fields, **changes}).csv_row()
        assert cells == row
        assert len(cells.split(",")) == len(CSV_HEADER.split(","))

    def test_byte_stable_apart_from_wall_clock(self):
        specs = [
            GeneratorSpec("gnp-connected", 30, seed=11, params={"p": 0.15}),
            GeneratorSpec("random-tree", 40, seed=12),
            GeneratorSpec("watts-strogatz", 24, seed=13, params={"k": 4, "beta": 0.3}),
        ]
        first, second = run_benchmark(specs), run_benchmark(specs)
        assert _csv_without_millis(first) == _csv_without_millis(second)


# run_benchmark's CSV without construct_millis, for one seeded spec per
# family at n = 100 and n = 500. Any change to a verdict, a hop figure, the
# root choice or the constructed sets fails here.
PINNED_SPECS = [
    GeneratorSpec(family, n, seed, params)
    for seed, family, small, large in (
        (200, "gnp-connected", {"p": 0.06}, {"p": 0.012}),
        (201, "random-tree", {}, {}),
        (202, "path", {}, {}),
        (203, "cycle", {}, {}),
        (204, "grid", {}, {}),
        (205, "star", {}, {}),
        (206, "complete", {}, {}),
        (207, "watts-strogatz", {"k": 4, "beta": 0.2}, {"k": 4, "beta": 0.2}),
    )
    for n, params in ((100, small), (500, large))
]
PINNED_ROWS = (
    "seed,family,n,m,diam,memdim,all_pairs_ok,max_route_len,mean_route_len,ratio",
    "200,gnp-connected,100,305,5,22,true,7,3.6852,0.162267",
    "200,gnp-connected,500,1450,7,50,true,11,5.6940,0.196151",
    "201,random-tree,100,99,13,50,true,13,5.9735,0.129574",
    "201,random-tree,500,499,22,144,true,22,8.9751,0.150175",
    "202,path,100,99,99,99,true,99,33.6667,0.008870",
    "202,path,500,499,499,499,true,499,167.0000,0.001934",
    "203,cycle,100,100,50,50,true,50,25.2525,0.015583",
    "203,cycle,500,500,250,250,true,250,125.2505,0.003728",
    "204,grid,100,180,18,18,true,18,6.6667,0.029638",
    "204,grid,500,955,43,43,true,43,15.0000,0.015923",
    "205,star,100,99,2,9,true,2,1.9800,0.120456",
    "205,star,500,499,2,12,true,2,1.9960,0.099793",
    "206,complete,100,4950,1,9,true,1,1.0000,0.154034",
    "206,complete,500,124750,1,12,true,1,1.0000,0.120825",
    "207,watts-strogatz,100,200,9,37,true,11,5.5758,0.151187",
    "207,watts-strogatz,500,1000,13,92,true,16,8.8510,0.190675",
)


def test_csv_is_pinned():
    rows = _csv_without_millis(run_benchmark(PINNED_SPECS))
    assert [",".join(cells) for cells in rows] == list(PINNED_ROWS)


def test_halfspace_specs_run_no_eccentricity_pass(monkeypatch):
    # On a path, a grid and an even cycle the halfspaces apply: the BFS root
    # would go unused and the diameter is the membership dimension, so
    # bench_one must not run the eccentricity pass. Any other tree needs its
    # root and still runs the pass.
    def refuse(g):
        raise AssertionError("eccentricity pass ran")

    monkeypatch.setattr(bench_module, "_root_and_diameter", refuse)
    for spec in (GeneratorSpec("path", 100, 202), GeneratorSpec("grid", 100, 204), GeneratorSpec("cycle", 100, 203)):
        record = bench_one(spec)
        assert record.all_pairs_ok
        assert record.diam == record.memdim == diameter(generate(spec))
    with pytest.raises(AssertionError, match="eccentricity pass ran"):
        bench_one(GeneratorSpec("random-tree", 30, 201))


@pytest.mark.parametrize("spec", PINNED_SPECS, ids=[f"{s.family}-{s.n}" for s in PINNED_SPECS])
def test_pinned_specs_meet_the_diameter_bound(spec):
    # Any system that routes has memdim >= diam; paths, grids and even
    # cycles are partial cubes with diam classes, so their halfspaces meet it.
    g = generate(spec)
    memdim, diam = membership_dimension(graph_categories(g)), diameter(g)
    assert memdim >= diam
    if spec.family in ("path", "grid") or (spec.family == "cycle" and spec.n % 2 == 0):
        assert memdim == diam


class TestSpecsFromJson:
    def test_list_form(self):
        specs = specs_from_json([{"family": "path", "n": 4}])
        assert specs == [GeneratorSpec("path", 4)]

    def test_bad_shape(self):
        with pytest.raises(ValidationError):
            specs_from_json({"nope": 1})

    def test_wrapped_form(self):
        # Only a JSON list is a spec file; an object wrapping one is not.
        with pytest.raises(ValidationError):
            specs_from_json({"specs": [{"family": "star", "n": 5, "seed": 9}]})


class TestFixtures:
    def test_all_fixture_outcomes_pass(self):
        outcomes = run_fixtures()
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert outcome.passed, f"{outcome.name}: {outcome.detail}"

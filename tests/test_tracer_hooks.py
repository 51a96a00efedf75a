"""The hooks perfbench's tracer relies on still exist in the package.

``perfbench/tracer.py`` rebinds the functions it names in ``TRACED`` and reads
a few attributes of what they take and return (``tree.graph``,
``EmbeddingMap.tree.n``, ``num_categories``). The perfbench suite checks a
traced run end to end; these tests check the same contract from the package's
own suite, loading the tracer by path and leaving it unedited.
"""

import importlib
import importlib.util
from pathlib import Path

import catroute.cli
from catroute import GeneratorSpec, serialize_edge_list

from conftest import path_graph, random_tree, seeded, star_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_layer():
    tracer = _load_tracer()
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"catroute.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"catroute.{layer}.{name}"


def test_a_traced_run_fills_the_layers_and_restores_the_package(tmp_path):
    tracer_module = _load_tracer()
    before = {
        (layer, name): getattr(importlib.import_module(f"catroute.{layer}"), name)
        for layer, names in tracer_module.TRACED.items()
        for name in names
    }
    graph_file = tmp_path / "p.edges"
    graph_file.write_text(serialize_edge_list(path_graph(12)))
    cats_file = tmp_path / "p.json"
    # A star is a tree but no path, so its construction chooses a root.
    star_file = tmp_path / "star.edges"
    star_file.write_text(serialize_edge_list(star_graph(9)))
    hub_tree = random_tree(seeded(3), 20, skew="hub")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # Looked up at call time: install rebinds the module attributes.
        main = catroute.cli.main
        assert main(["construct", "--graph", str(graph_file), "--out", str(cats_file)]) == 0
        assert main(["check", "--graph", str(graph_file), "--cats", str(cats_file)]) == 0
        assert main(["construct", "--graph", str(star_file), "--out", str(tmp_path / "star.json")]) == 0
        catroute.bench.bench_one(GeneratorSpec("star", 9, 1, {}))
        # No construction embeds a tree any more, so the embedding is called
        # here for its hook.
        embedded = catroute.construct.embed_into_binary(hub_tree).tree
        catroute.construct.binary_tree_categories(embedded)
        g = path_graph(5)
        catroute.routing.greedy_route(g, catroute.construct.path_categories(g), 0, 4)
        bucket = tracer.new_bucket()
    finally:
        tracer.uninstall()
    for name in (
        "cli.construct_s",
        "cli.check_s",
        "graph.choose_root_s",
        "construct.path_categories_s",
        "construct.fold_s",
        "checks.is_shattered_s",
        "checks.route_statistics_s",
        "bench.bench_one_s",
        "routing.greedy_route_s",
        "construct.placeholders",
        "construct.categories_before_fold",
        "construct.categories_after_fold",
        "construct.memdim_argmax_degree",
        "categories.json_bytes",
    ):
        assert bucket[name] > 0, name
    assert bucket["checks.pairs_routed"] == 9 * 8
    assert bucket["routing.hops"] == 4
    for (layer, name), func in before.items():
        assert getattr(importlib.import_module(f"catroute.{layer}"), name) is func, name

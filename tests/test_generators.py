import pytest

from catroute import generators
from catroute import graph as graph_module
from catroute import (
    GenerationError,
    GeneratorSpec,
    diameter,
    generate,
    is_connected,
    is_path,
    is_tree,
    serialize_edge_list,
)
from catroute.generators import FAMILIES


def test_every_param_table_key_is_a_family():
    # A misspelt family there would refuse that family's params.
    assert set(generators._PARAMS) <= set(FAMILIES)


class TestShapes:
    def test_path(self):
        g = generate(GeneratorSpec("path", 4))
        assert is_path(g)
        assert diameter(g) == 3

    def test_complete(self):
        g = generate(GeneratorSpec("complete", 4))
        assert g.num_edges == 6
        assert diameter(g) == 1

    def test_cycle(self):
        g = generate(GeneratorSpec("cycle", 6))
        assert all(g.degree(v) == 2 for v in range(6))
        assert diameter(g) == 3

    def test_star(self):
        g = generate(GeneratorSpec("star", 7))
        assert g.degree(0) == 6
        assert diameter(g) == 2

    def test_grid_default_dims(self):
        g = generate(GeneratorSpec("grid", 12))
        assert g.n == 12
        assert is_connected(g)
        assert g.num_edges == 17  # 3x4 grid

    def test_grid_explicit_dims(self):
        g = generate(GeneratorSpec("grid", 12, params={"rows": 2, "cols": 6}))
        assert diameter(g) == 6

    def test_random_tree(self):
        g = generate(GeneratorSpec("random-tree", 30, seed=5))
        assert is_tree(g)

    def test_gnp_connected(self):
        g = generate(GeneratorSpec("gnp-connected", 40, seed=9, params={"p": 0.1}))
        assert is_connected(g)

    def test_gnp_sparse_gets_patched_connected(self):
        g = generate(GeneratorSpec("gnp-connected", 50, seed=2, params={"p": 0.001}))
        assert is_connected(g)

    def test_watts_strogatz(self):
        g = generate(GeneratorSpec("watts-strogatz", 30, seed=4, params={"k": 4, "beta": 0.2}))
        assert is_connected(g)
        assert g.num_edges == 60  # rewiring moves edges, never adds or removes


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_identical_spec_identical_graph(self, family):
        params = {"p": 0.1} if family == "gnp-connected" else {}
        spec = GeneratorSpec(family, 24, seed=7, params=params)
        assert serialize_edge_list(generate(spec)) == serialize_edge_list(generate(spec))

    def test_seed_changes_gnp_output(self):
        a = generate(GeneratorSpec("gnp-connected", 50, seed=7, params={"p": 0.1}))
        b = generate(GeneratorSpec("gnp-connected", 50, seed=8, params={"p": 0.1}))
        assert serialize_edge_list(a) != serialize_edge_list(b)


class TestErrors:
    def test_unknown_family(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("moebius", 5))

    def test_n_must_be_positive(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("path", 0))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_n_above_the_vertex_cap_fails_before_any_graph_is_built(self, monkeypatch, family):
        def refuse(*args, **kwargs):
            raise AssertionError("graph built past the vertex cap")

        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        monkeypatch.setattr(generators, "Graph", refuse)
        with pytest.raises(GenerationError) as err:
            generate(GeneratorSpec(family, 11, params={"p": 0.5}))
        assert str(err.value) == "n=11 is above the cap of 10 vertices"

    def test_n_at_the_vertex_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        assert generate(GeneratorSpec("grid", 10)).n == 10

    def test_cycle_too_small(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("cycle", 2))

    def test_gnp_needs_p(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("gnp-connected", 10))

    def test_gnp_p_out_of_range(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("gnp-connected", 10, params={"p": 1.5}))

    def test_grid_dims_must_match(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("grid", 10, params={"rows": 3, "cols": 4}))

    def test_watts_strogatz_bad_k(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("watts-strogatz", 10, params={"k": 3}))
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("watts-strogatz", 4, params={"k": 4}))

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            None,
            {"family": "path"},
            {"n": 4},
            {"family": 5, "n": 4},
            {"family": "path", "n": "abc"},
            {"family": "path", "n": 2.9},
            {"family": "path", "n": True},
            {"family": "path", "n": 4, "seed": None},
            {"family": "path", "n": 4, "seed": 1.0},
            {"family": "path", "n": 4, "params": [1]},
            {"family": "gnp-connected", "n": 10, "params": {"p": "0.1"}},
            {"family": "gnp-connected", "n": 10, "params": {"p": True}},
            {"family": "watts-strogatz", "n": 10, "params": {"k": 4.0}},
            {"family": "watts-strogatz", "n": 10, "params": {"beta": "0.2"}},
            {"family": "watts-strogatz", "n": 10, "params": {"beta": False}},
            {"family": "grid", "n": 12, "params": {"rows": 3.0, "cols": 4}},
            {"family": "grid", "n": 12, "params": {"rows": 3, "cols": True}},
            {"family": "grid", "n": 12, "params": {"rows": -3, "cols": -4}},
            {"family": "watts-strogatz", "n": 10, "params": {"K": 6, "beta": 0.2}},
            {"family": "star", "n": 10, "params": {"p": 0.5}},
        ],
        ids=[
            "spec-list", "spec-null", "no-n", "no-family", "family-int", "n-str", "n-float", "n-bool", "seed-null", "seed-float",
            "params-list", "p-str", "p-bool", "k-float", "beta-str", "beta-bool",
            "rows-float", "cols-bool", "dims-negative", "param-misspelt", "param-foreign",
        ],
    )
    def test_malformed_spec_is_a_generation_error(self, payload):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec.from_dict(payload))

    # An integer is a number, and a grid dim of 1 is allowed.
    @pytest.mark.parametrize(
        "family, n, params",
        [
            ("gnp-connected", 10, {"p": 1}),
            ("watts-strogatz", 10, {"beta": 0}),
            ("grid", 12, {"rows": 1, "cols": 12}),
        ],
    )
    def test_well_typed_params_accepted(self, family, n, params):
        spec = GeneratorSpec.from_dict({"family": family, "n": n, "seed": 3, "params": params})
        assert is_connected(generate(spec))

    def test_spec_from_dict_rejects_unknown_keys(self):
        with pytest.raises(GenerationError):
            GeneratorSpec.from_dict({"family": "path", "n": 3, "colour": "red"})

    def test_grid_needs_cols_with_rows(self):
        with pytest.raises(GenerationError, match=r"^grid needs both rows and cols \(or neither\)$"):
            generate(GeneratorSpec.from_dict({"family": "grid", "n": 12, "params": {"rows": 3}}))


class TestSpecRoundtrip:
    def test_defaults(self):
        spec = GeneratorSpec.from_dict({"family": "path", "n": 3})
        assert spec.seed == 0
        assert spec.params == {}

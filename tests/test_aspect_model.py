"""Schema construction, graph-derived distances, and ancestor queries."""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from newsdiv import cli
from newsdiv.aspect_model import (
    Aspect,
    AspectSchema,
    LabelGraph,
    load_schema,
)
from newsdiv.errors import (
    DerivationError,
    ParseError,
    UnknownEntityError,
    ValidationError,
)

from helpers import floyd_warshall, random_connected_graph, reference_ancestors

FRAMES = ("Cultural", "Economy", "Health", "Security")


def lookup(aspect, l1, l2):
    return aspect.matrix[aspect.index[l1]][aspect.index[l2]]


# --- distance tables ---


def test_table_lookup_is_symmetric_and_zero_on_diagonal(schema):
    frame = schema.aspect("frame")
    assert lookup(frame, "Health", "Cultural") == 0.5
    assert lookup(frame, "Cultural", "Health") == 0.5
    assert lookup(frame, "Health", "Health") == 0.0


def test_table_rejects_out_of_range_values():
    with pytest.raises(ValidationError, match="distance out of range"):
        Aspect("x", ["A", "B"], {("A", "B"): 1.5})


# --- schema validation ---


def test_weights_must_sum_to_one(schema):
    with pytest.raises(ValidationError, match="must sum to 1"):
        AspectSchema(schema.aspects, {"topic": 0.7, "frame": 0.7})


def test_weights_must_cover_exactly_the_aspects(schema):
    with pytest.raises(ValidationError):
        AspectSchema(schema.aspects, {"topic": 1.0})
    with pytest.raises(ValidationError):
        AspectSchema(schema.aspects, {"topic": 0.5, "frame": 0.25, "tone": 0.25})


def test_weights_must_be_unit_interval(schema):
    with pytest.raises(ValidationError):
        AspectSchema(schema.aspects, {"topic": 1.5, "frame": -0.5})


@pytest.mark.parametrize(
    "weights",
    [{"topic": math.nan, "frame": 0.5}, {"topic": math.nan, "frame": 1.0}, {"topic": math.nan, "frame": math.nan}],
)
def test_nan_blend_weight_rejected(schema, weights):
    with pytest.raises(ValidationError, match="weight"):
        AspectSchema(schema.aspects, weights)


def test_nan_blend_weight_in_schema_file_rejected(fixtures_dir):
    raw = (fixtures_dir / "example_schema.json").read_text()
    text = raw.replace('"topic": 0.5', '"topic": NaN')
    assert text != raw
    with pytest.raises(ValidationError):
        load_schema(text)


def test_duplicate_aspect_names_rejected():
    a = Aspect("x", ["p", "q"], distances={("p", "q"): 1.0})
    with pytest.raises(ValidationError, match="unique"):
        AspectSchema(aspects=(a, a), weights={"x": 1.0})


def test_replace_must_restate_distances():
    entries = {("a", "b"): 0.25}
    aspect = Aspect("t", ["a", "b"], entries)
    # without its entries the copy would resolve (a, b) to the 1.0 default
    with pytest.raises(ValueError, match="distances"):
        dataclasses.replace(aspect, name="u")
    copy = dataclasses.replace(aspect, name="u", distances=entries)
    assert copy.name == "u"
    assert copy.matrix == aspect.matrix == ((0.0, 0.25), (0.25, 0.0))
    assert not copy.defaulted_pairs


def test_reweighted_schema_leaves_original_untouched(schema):
    tilted = AspectSchema(schema.aspects, {"topic": 0.8, "frame": 0.2})
    assert tilted.weights == {"topic": 0.8, "frame": 0.2}
    assert tilted.aspects == schema.aspects
    assert schema.weights == {"topic": 0.5, "frame": 0.5}


def test_unknown_aspect_lookup(schema):
    with pytest.raises(UnknownEntityError, match="tone"):
        schema.aspect("tone")


# --- graph-derived distances ---


def test_two_cluster_graph_reproduces_reference_table(graph_schema, schema):
    """Cluster graph: within-cluster pairs 2/4, cross-cluster pairs 4/4."""
    derived = graph_schema.aspect("frame")
    explicit = schema.aspect("frame")
    for i, l1 in enumerate(FRAMES):
        for l2 in FRAMES[i + 1:]:
            assert lookup(derived, l1, l2) == lookup(explicit, l1, l2), (l1, l2)
    assert lookup(derived, "Health", "Cultural") == 0.5
    assert lookup(derived, "Security", "Economy") == 0.5
    assert lookup(derived, "Health", "Security") == 1.0
    assert lookup(derived, "Health", "Economy") == 1.0
    assert lookup(derived, "Cultural", "Security") == 1.0
    assert lookup(derived, "Cultural", "Economy") == 1.0


def test_star_graph_gives_uniform_unit_distances():
    graph = LabelGraph(
        nodes=("hub", "a", "b", "c"),
        edges=(("hub", "a"), ("hub", "b"), ("hub", "c")),
    )
    aspect = Aspect("star", ["a", "b", "c"], distances=(), graph=graph)
    for l1, l2 in [("a", "b"), ("a", "c"), ("b", "c")]:
        assert lookup(aspect, l1, l2) == 1.0


def test_two_label_graph_distance_is_one():
    graph = LabelGraph(nodes=("a", "b"), edges=(("a", "b"),))
    aspect = Aspect("pairwise", ["a", "b"], distances=(), graph=graph)
    assert lookup(aspect, "a", "b") == 1.0


def test_single_label_graph_yields_empty_table():
    graph = LabelGraph(nodes=("only",), edges=())
    aspect = Aspect("solo", ["only"], distances=(), graph=graph)
    assert aspect.matrix == ((0.0,),)


def test_disconnected_graph_rejected():
    graph = LabelGraph(nodes=("a", "b", "c", "d"), edges=(("a", "b"), ("c", "d")))
    with pytest.raises(DerivationError, match="disconnected"):
        Aspect("broken", ["a", "c"], distances=(), graph=graph)


def test_label_missing_from_graph_rejected():
    graph = LabelGraph(nodes=("a", "b"), edges=(("a", "b"),))
    with pytest.raises(DerivationError, match="not graph nodes"):
        Aspect(name="x", labels=("a", "z"), distances=(), graph=graph)


def test_explicit_entry_overrides_graph_value():
    graph = LabelGraph(nodes=("a", "b", "c"), edges=(("a", "b"), ("b", "c")))
    aspect = Aspect("mix", ["a", "b", "c"], distances={("a", "b"): 0.9}, graph=graph)
    assert lookup(aspect, "a", "b") == 0.9  # explicit wins
    assert lookup(aspect, "a", "c") == 1.0  # path 2 / diameter 2
    assert lookup(aspect, "b", "c") == 0.5  # path 1 / diameter 2
    assert aspect.defaulted_pairs == frozenset()


def test_missing_pair_defaults_to_one_and_is_recorded():
    aspect = Aspect("gappy", ["a", "b", "c"], distances={("a", "b"): 0.3})
    assert lookup(aspect, "a", "c") == 1.0
    assert lookup(aspect, "b", "c") == 1.0
    assert {("a", "c"), ("b", "c")} == set(aspect.defaulted_pairs)


# --- schema file parsing ---


def test_load_schema_reports_line_and_column():
    with pytest.raises(ParseError, match=r"line \d+ column \d+"):
        load_schema("{not json")


def test_load_schema_rejects_unknown_weight_key(fixtures_dir):
    import json

    raw = json.loads((fixtures_dir / "example_schema.json").read_text())
    raw["weights"]["tone"] = 0.0
    with pytest.raises(ValidationError):
        load_schema(json.dumps(raw))


@pytest.mark.parametrize("value", [5, "Climate", {"Climate": 1.0}, 0, False, "", {}])
def test_load_schema_rejects_non_list_distances(value):
    import json

    aspect = {"name": "topic", "labels": ["Climate", "Immigration"], "distances": value}
    with pytest.raises(ValidationError, match="'distances' must be a list"):
        load_schema(json.dumps({"aspects": [aspect], "weights": {"topic": 1.0}}))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([["a", "a", 0.5]], "self-distance"),
        ([["a", "b", 0.5], ["b", "a", 0.5]], "duplicate distance entry"),
        ([["a", "z", 0.5]], "unknown label"),
        ([["z", "z", 0.0]], "unknown label"),
        ([["a", "b", math.nan]], "distance out of range"),
    ],
    ids=["self-distance", "reversed-duplicate", "unknown-label", "unknown-self-pair", "nan"],
)
def test_load_schema_rejects_bad_distance_entries(entries, message):
    import json

    aspect = {"name": "t", "labels": ["a", "b"], "distances": entries}
    text = json.dumps({"aspects": [aspect], "weights": {"t": 1.0}})
    with pytest.raises(ValidationError, match=message):
        load_schema(text)


def test_load_schema_treats_null_distances_as_absent():
    text = '{"aspects": [{"name": "t", "labels": ["a", "b"], "distances": null}], "weights": {"t": 1.0}}'
    assert load_schema(text).aspect("t").defaulted_pairs == {("a", "b")}


def test_load_schema_roundtrips_example_fixture(schema):
    assert schema.aspect_names() == ("topic", "frame")
    assert schema.weights == {"topic": 0.5, "frame": 0.5}
    assert schema.aspect("topic").labels == ("Climate", "Immigration")
    assert set(schema.aspect("frame").labels) == set(FRAMES)


# --- ancestors ---


def test_ancestors_walk_toward_graph_center(graph_schema):
    frame = graph_schema.aspect("frame")
    assert frame.graph.ancestors["Health"] == frozenset({"Health", "cluster1", "root"})
    assert frame.graph.ancestors["Economy"] == frozenset({"Economy", "cluster2", "root"})


def test_ancestors_on_nested_tree():
    graph = LabelGraph(
        nodes=("top", "mid1", "mid2", "leaf1", "leaf2", "leaf3"),
        edges=(
            ("top", "mid1"),
            ("top", "mid2"),
            ("mid1", "leaf1"),
            ("mid1", "leaf2"),
            ("mid2", "leaf3"),
        ),
    )
    aspect = Aspect("tree", ["leaf1", "leaf2", "leaf3"], distances=(), graph=graph)
    assert aspect.graph.ancestors["leaf1"] == frozenset({"leaf1", "mid1", "top"})
    assert aspect.graph.ancestors["leaf3"] == frozenset({"leaf3", "mid2", "top"})


# --- randomized graph derivation properties ---


@given(st.integers(min_value=0, max_value=10_000))
def test_derived_distances_are_normalized(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    graph = random_connected_graph(rng, n)
    labels = rng.sample(list(graph.nodes), rng.randint(2, n))
    aspect = Aspect("rand", sorted(labels), distances=(), graph=graph)
    values = [v for i, row in enumerate(aspect.matrix) for v in row[i + 1:]]
    assert all(0.0 < v <= 1.0 for v in values)
    # the most separated label pair defines the scale
    assert max(values) == 1.0
    for l1 in labels:
        for l2 in labels:
            assert lookup(aspect, l1, l2) == lookup(aspect, l2, l1)


@given(st.integers(min_value=0, max_value=10_000))
def test_graph_distances_and_ancestors_match_floyd_warshall(seed):
    """Labels are a strict subset of the nodes, so grouping nodes carry paths."""
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    graph = random_connected_graph(rng, n)
    labels = sorted(rng.sample(list(graph.nodes), rng.randint(2, n - 1)))
    aspect = Aspect("rand", labels, distances=(), graph=graph)
    dist = floyd_warshall(graph)
    diameter = max(dist[l1][l2] for l1 in labels for l2 in labels)
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1:]:
            assert lookup(aspect, l1, l2) == dist[l1][l2] / diameter
    for label in labels:
        assert aspect.graph.ancestors[label] == reference_ancestors(graph, label)


def test_schema_loader_reports_graph_errors_as_validation_errors(fixtures_dir):
    import json

    raw = json.loads((fixtures_dir / "example_schema_graph.json").read_text())
    frame = raw["aspects"][1]["graph"]
    frame["edges"] = [e for e in frame["edges"] if e != ["cluster2", "root"]]
    with pytest.raises(ValidationError, match="disconnected"):
        load_schema(json.dumps(raw))
    frame["nodes"].remove("Economy")
    frame["edges"] = [e for e in frame["edges"] if "Economy" not in e]
    with pytest.raises(ValidationError, match="not graph nodes"):
        load_schema(json.dumps(raw))


# --- invalid graphs, aspects and schema files: one exact message each ---


def one_aspect(**entry):
    """Schema text with one aspect 't' over labels a and b, `entry` merged in."""
    return json.dumps({"aspects": [{"name": "t", "labels": ["a", "b"], **entry}], "weights": {"t": 1.0}})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: load_schema(one_aspect(graph={"nodes": ["a", "b", "a"], "edges": [["a", "b"]]})),
         "aspect 't': label graph nodes must be unique"),
        (lambda: load_schema(one_aspect(graph={"nodes": ["a", "b"], "edges": [["a", "a"]]})),
         "aspect 't': label graph has self-loop at 'a'"),
        (lambda: load_schema(one_aspect(graph={"nodes": ["a", "b"], "edges": [["a", "z"]]})),
         "aspect 't': label graph edge ('a', 'z') references an unknown node"),
        (lambda: load_schema(one_aspect(graph={"nodes": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]})),
         "aspect 't': label graph has duplicate edge ('b', 'a')"),
        (lambda: Aspect("", ["a"], distances=()), "each aspect needs a non-empty string 'name'"),
        (lambda: Aspect("t", [], distances=()), "aspect 't': 'labels' must be a non-empty list of strings"),
        (lambda: load_schema(one_aspect(labels=["a", "b", "a"])), "aspect 't' has duplicate labels"),
        (lambda: load_schema(one_aspect(graph=["a", "b"])), "aspect 't': graph must be an object"),
        (lambda: load_schema(one_aspect(graph={"nodes": ["a", 1], "edges": []})),
         "aspect 't': graph nodes must be a list of strings"),
        (lambda: load_schema(one_aspect(graph={"nodes": ["a", "b"], "edges": {}})),
         "aspect 't': graph edges must be a list of pairs"),
        (lambda: load_schema("[]"), "schema root must be a JSON object"),
        (lambda: load_schema('{"aspects": [], "weights": {}}'), "schema must define a non-empty 'aspects' list"),
        (lambda: load_schema('{"aspects": ["t"], "weights": {"t": 1.0}}'), "each aspect must be a JSON object"),
    ],
    ids=[
        "duplicate-node", "self-loop", "unknown-node", "duplicate-edge", "empty-name", "no-labels",
        "duplicate-labels", "graph-not-object", "nodes-not-strings", "edges-not-list", "root-not-object",
        "no-aspects", "aspect-not-object",
    ],
)
def test_invalid_graphs_aspects_and_schemas_are_named(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert type(info.value) is ValidationError
    assert str(info.value) == message


def test_an_invalid_schema_file_exits_2(tmp_path, fixtures_dir, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(one_aspect(graph={"nodes": ["a", "b"], "edges": [["a", "a"]]}))
    argv = ["score", "--schema", str(schema), "--corpus", str(fixtures_dir / "example_corpus.jsonl")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: aspect 't': label graph has self-loop at 'a'\n"
    assert captured.out == ""


# --- a schema value checks its own fields, with the loader's messages ---

TWO = ("a", "b")


@pytest.mark.parametrize(
    "build, entry, message",
    [
        (lambda: Aspect(5, TWO, ()), dict(name=5), "each aspect needs a non-empty string 'name'"),
        (lambda: Aspect("t", "ab", ()), dict(labels="ab"), "aspect 't': 'labels' must be a non-empty list of strings"),
        (lambda: Aspect("t", ("a", 1), ()), dict(labels=["a", 1]),
         "aspect 't': 'labels' must be a non-empty list of strings"),
        (lambda: LabelGraph(("a", 1), ()), dict(graph={"nodes": ["a", 1], "edges": []}),
         "graph nodes must be a list of strings"),
        (lambda: LabelGraph(TWO, None), dict(graph={"nodes": ["a", "b"]}), "graph edges must be a list of pairs"),
        (lambda: LabelGraph(TWO, [["a", "b", "a"]]), dict(graph={"nodes": ["a", "b"], "edges": [["a", "b", "a"]]}),
         "graph edge ['a', 'b', 'a'] must be a pair of node names"),
    ],
    ids=["name-an-int", "labels-a-string", "label-an-int", "node-an-int", "no-edges", "edge-of-three"],
)
def test_aspect_and_graph_fields_are_checked_in_their_class(build, entry, message):
    with pytest.raises(ValidationError) as built:
        build()
    with pytest.raises(ValidationError) as loaded:
        load_schema(one_aspect(**entry))
    assert str(built.value) == message
    prefix = "aspect 't': " if "graph" in entry else ""  # a graph error names its aspect
    assert str(loaded.value) == prefix + message


@pytest.mark.parametrize(
    "weights, message",
    [
        ([1.0], "schema must define a 'weights' object"),
        ({"t": "1"}, "blend weight for 't' must be a number"),
        ({"t": 10**400}, "blend weight for 't' is too large for a float"),
    ],
    ids=["a-list", "a-string", "too-large"],
)
def test_weights_are_checked_in_the_schema_with_the_loader_messages(weights, message):
    aspect = Aspect("t", TWO, ())
    with pytest.raises(ValidationError) as built:
        AspectSchema((aspect,), weights)
    text = json.dumps({"aspects": [{"name": "t", "labels": ["a", "b"]}], "weights": weights})
    with pytest.raises(ValidationError) as loaded:
        load_schema(text)
    assert str(built.value) == str(loaded.value) == message


def test_schema_values_store_tuples_and_float_weights():
    graph = LabelGraph(["a", "b"], [["a", "b"]])
    assert (graph.nodes, graph.edges) == (TWO, (TWO,))
    aspect = Aspect("t", ["a", "b"], [[["a", "b"], 0.5]], graph)
    assert aspect.labels == TWO
    schema = AspectSchema([aspect], {"t": 1})
    assert schema.aspects == (aspect,)
    assert type(schema.weights["t"]) is float


def test_an_aspects_distances_and_graph_are_checked_before_its_name_and_labels():
    # The loader reads the JSON-only shapes of an aspect entry, then the
    # classes check its fields; the schema checks its weights object after
    # every aspect. Each step mends the fault named before it.
    entry = {"name": 5, "labels": "ab", "distances": [["a"]], "graph": []}
    raw = {"aspects": [entry], "weights": None}
    for message, mend in [
        ("aspect 5: distance entries must be [label, label, value] (got ['a'])", {"distances": None}),
        ("aspect 5: graph must be an object", {"graph": None}),
        ("each aspect needs a non-empty string 'name'", {"name": "t"}),
        ("aspect 't': 'labels' must be a non-empty list of strings", {"labels": ["a", "b"]}),
    ]:
        with pytest.raises(ValidationError) as info:
            load_schema(json.dumps(raw))
        assert str(info.value) == message
        entry.update(mend)
    with pytest.raises(ValidationError, match="^schema must define a 'weights' object$"):
        load_schema(json.dumps(raw))

"""Aspect schemas: label universes, label graphs, and label-level distances.

An aspect is a dimension along which articles can differ (topic, frame,
political leaning, ...). Each aspect carries a set of labels and resolves,
once at construction, a dense symmetric distance matrix over them: `index`
maps each label to its position in `labels`, and `matrix[i][j]` is the
distance between labels i and j, in [0, 1] with a zero diagonal. Each
unordered label pair takes its distance from the first of three sources: an
explicit entry, the hop count in an optional label graph divided by the
label diameter, or a last-resort default of 1.0. Defaulted pairs are
recorded in `defaulted_pairs`, which the CLI reports as a warning.

`LabelGraph`, `Aspect` and `AspectSchema` check their own fields when they
are built, with the schema loader's messages, so `load_schema` checks only
what exists in JSON alone and a schema built in code is checked alike.
"""
from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DerivationError, UnknownEntityError, ValidationError, json_float, json_isinstance, json_number_in, load_json

# Blend weights must sum to 1 within this tolerance.
WEIGHT_TOLERANCE = 1e-9


def _pair(l1: str, l2: str) -> tuple[str, str]:
    """Normalize an unordered label pair to a sorted tuple key."""
    return (l1, l2) if l1 <= l2 else (l2, l1)


def _strings(value, size: int | None = None) -> bool:
    """True for a list or tuple of strings, of `size` items if one is given."""
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        return False
    return all(isinstance(x, str) for x in value)


@dataclass(frozen=True)
class LabelGraph:
    """Undirected simple graph over labels plus optional grouping nodes.

    `nodes` is a list or tuple of strings and `edges` one of node-name
    pairs; both are stored as tuples. Construction checks them, then runs
    one breadth-first search from every node. `hops` maps each node to the
    hop count of every node it reaches; `ancestors` maps each node to its
    hierarchy ancestors (itself plus every node on a shortest path to its
    nearest Jordan center node(s), see `_ancestor_sets`) and is empty for a
    disconnected graph, which no Aspect accepts.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    hops: Mapping[str, Mapping[str, int]] = field(init=False, repr=False, compare=False)
    ancestors: Mapping[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _strings(self.nodes):
            raise ValidationError("graph nodes must be a list of strings")
        if not isinstance(self.edges, (list, tuple)):
            raise ValidationError("graph edges must be a list of pairs")
        for e in self.edges:
            if not _strings(e, 2):
                raise ValidationError(f"graph edge {e!r} must be a pair of node names")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("label graph nodes must be unique")
        adjacency: dict[str, list[str]] = {n: [] for n in self.nodes}
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"label graph has self-loop at {u!r}")
            if u not in adjacency or v not in adjacency:
                raise ValidationError(f"label graph edge ({u!r}, {v!r}) references an unknown node")
            key = _pair(u, v)
            if key in seen:
                raise ValidationError(f"label graph has duplicate edge ({u!r}, {v!r})")
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        hops = {n: _bfs(adjacency, n) for n in self.nodes}
        object.__setattr__(self, "hops", hops)
        object.__setattr__(self, "ancestors", _ancestor_sets(hops) if self.connected() else {})

    def connected(self) -> bool:
        return all(len(reach) == len(self.nodes) for reach in self.hops.values())


def _bfs(adjacency: Mapping[str, list[str]], source: str) -> dict[str, int]:
    """Hop count from `source` to every node it reaches."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt not in hops:
                hops[nxt] = hops[node] + 1
                queue.append(nxt)
    return hops


def _ancestor_sets(hops: Mapping[str, Mapping[str, int]]) -> dict[str, frozenset[str]]:
    """Map each node of a connected graph to the nodes 'above' it.

    The graph is undirected, so hierarchy is recovered geometrically: the
    ancestors of a node L are L itself plus every node lying on a shortest
    path from L to L's nearest center node(s) (the Jordan center, i.e. the
    nodes minimizing eccentricity). In a two-cluster graph the cluster hub
    is an ancestor of exactly its own cluster's labels; in a nested tree the
    whole chain up to the root qualifies.
    """
    ecc = {n: max(reach.values()) for n, reach in hops.items()}
    min_ecc = min(ecc.values(), default=0)
    centers = [n for n in hops if ecc[n] == min_ecc]
    result = {}
    for node, reach in hops.items():
        nearest = min(reach[c] for c in centers)
        mine = {node}
        for c in centers:
            if reach[c] == nearest:
                mine.update(o for o in hops if reach[o] + hops[o][c] == nearest)
        result[node] = frozenset(mine)
    return result


@dataclass(frozen=True)
class Aspect:
    """One diversity dimension: a label set with its resolved distance matrix.

    `name` is a non-empty string, `labels` a non-empty list or tuple of
    distinct strings (stored as a tuple) and `graph` None or a LabelGraph.
    `distances` maps label pairs to values, or lists (pair, value) entries so
    that a repeated pair is reported. Construction checks those fields, each
    entry once (its shape, known labels, zero self-distance, value in
    [0, 1], each unordered pair at most once) and the graph (every label a
    node, connected), then fills `matrix`, whose rows and columns follow
    `labels` (`index` maps a label to its position), each pair from its
    explicit entry, else graph hops over the label diameter, else 1.0,
    recorded in `defaulted_pairs`.

    `distances` has no default (pass `()` for a graph-only or all-default
    aspect), so `dataclasses.replace` must be given the entries again and
    cannot silently resolve a copy without them.
    """

    name: str
    labels: tuple[str, ...]
    distances: InitVar[
        Mapping[tuple[str, str], float] | Iterable[tuple[tuple[str, str], float]]
    ]
    graph: LabelGraph | None = None
    index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    matrix: tuple[tuple[float, ...], ...] = field(init=False, repr=False)
    defaulted_pairs: frozenset[tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self, distances):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("each aspect needs a non-empty string 'name'")
        if not _strings(self.labels) or not self.labels:
            raise ValidationError(f"aspect {self.name!r}: 'labels' must be a non-empty list of strings")
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValidationError(f"aspect {self.name!r} has duplicate labels")
        if self.graph is not None and not isinstance(self.graph, LabelGraph):
            raise ValidationError(f"aspect {self.name!r}: graph must be a LabelGraph (got {self.graph!r})")
        index = {label: i for i, label in enumerate(labels)}
        explicit: dict[tuple[str, str], float] = {}
        for entry in distances.items() if isinstance(distances, Mapping) else distances or ():
            if not isinstance(entry, (list, tuple)) or len(entry) != 2 or not _strings(entry[0], 2):
                raise ValidationError(
                    f"aspect {self.name!r}: distance entries must be a pair of labels and a value (got {entry!r})"
                )
            (l1, l2), value = entry
            for label in (l1, l2):
                if label not in labels:
                    raise ValidationError(f"aspect {self.name!r}: distance entry references unknown label {label!r}")
            if l1 == l2:
                if not json_number_in(value, 0.0, 0.0):
                    raise ValidationError(f"aspect {self.name!r}: self-distance for {l1!r} must be 0 (got {value!r})")
                continue
            key = _pair(l1, l2)
            if not json_number_in(value, 0.0, 1.0):
                raise ValidationError(
                    f"aspect {self.name!r}: distance out of range: {key[0]}/{key[1]} = "
                    f"{value!r} (must be in [0, 1])"
                )
            if key in explicit:
                raise ValidationError(f"aspect {self.name!r}: duplicate distance entry for pair {key}")
            explicit[key] = value

        hops = None if self.graph is None else self.graph.hops
        if hops is not None:
            missing = [l for l in labels if l not in hops]
            if missing:
                raise DerivationError(f"aspect {self.name!r}: labels {missing} are not graph nodes")
            if not self.graph.connected():
                components = {frozenset(reach) for reach in hops.values()}
                raise DerivationError(
                    f"aspect {self.name!r} label graph is disconnected; "
                    f"components: {sorted(sorted(c) for c in components)}"
                )
            diameter = max(hops[l1][l2] for l1 in labels for l2 in labels)

        matrix = [[0.0] * len(labels) for _ in labels]
        defaulted = []
        for i, l1 in enumerate(labels):
            for j in range(i + 1, len(labels)):
                key = _pair(l1, labels[j])
                if key in explicit:
                    value = explicit[key]
                elif hops is not None:
                    value = hops[l1][labels[j]] / diameter
                else:
                    value = 1.0
                    defaulted.append(key)
                matrix[i][j] = matrix[j][i] = value
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "matrix", tuple(map(tuple, matrix)))
        object.__setattr__(self, "defaulted_pairs", frozenset(defaulted))


@dataclass(frozen=True)
class AspectSchema:
    """Ordered aspects plus blend weights that must sum to 1.

    `aspects` is a list or tuple of Aspects, stored as a tuple, and
    `weights` a mapping from each aspect's name to a number in [0, 1],
    stored as a read-only mapping of floats (a `MappingProxyType`).

    The schema remembers the label tuples it has checked: `_rows` maps the
    per-aspect label values of a document (in aspect order) that passed a
    label check to their label-index row. Only `_row` reads or writes it, so
    a tuple is resolved once per schema; a copy made by `dataclasses.replace`
    starts with an empty table. `_names` caches `aspect_names()`, from which
    a table key is built once per document.
    """

    aspects: tuple[Aspect, ...]
    weights: Mapping[str, float]
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _rows: dict[tuple, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.aspects, (list, tuple)) or not all(isinstance(a, Aspect) for a in self.aspects):
            raise ValidationError(f"schema aspects must be Aspect entries (got {self.aspects!r})")
        if not isinstance(self.weights, Mapping):
            raise ValidationError("schema must define a 'weights' object")
        weights = {}
        for key, value in self.weights.items():
            if not json_isinstance(value, (int, float)):
                raise ValidationError(f"blend weight for {key!r} must be a number")
            weights[key] = json_float(value, f"blend weight for {key!r}")
        object.__setattr__(self, "aspects", tuple(self.aspects))
        object.__setattr__(self, "weights", MappingProxyType(weights))
        names = tuple(a.name for a in self.aspects)
        object.__setattr__(self, "_names", names)
        if len(set(names)) != len(names):
            raise ValidationError("aspect names must be unique")
        if set(self.weights) != set(names):
            missing = set(names) - set(self.weights)
            extra = set(self.weights) - set(names)
            parts = []
            if missing:
                parts.append(f"missing weights for {sorted(missing)}")
            if extra:
                parts.append(f"weights for unknown aspects {sorted(extra)}")
            raise ValidationError("blend weights must cover exactly the aspects: " + "; ".join(parts))
        for name, w in self.weights.items():
            if not json_number_in(w, 0.0, 1.0):
                raise ValidationError(f"blend weight for {name!r} is {w!r}; weights must lie in [0, 1]")
        total = sum(self.weights[n] for n in names)
        if not abs(total - 1.0) <= WEIGHT_TOLERANCE:
            raise ValidationError(f"blend weights must sum to 1 (got {total!r})")

    def aspect(self, name: str) -> Aspect:
        for a in self.aspects:
            if a.name == name:
                return a
        raise UnknownEntityError(f"unknown aspect {name!r}")

    def aspect_names(self) -> tuple[str, ...]:
        return self._names

    def _row(self, labels: Mapping) -> tuple[int, ...] | None:
        """The row of a label map: each aspect's label, in aspect order, as
        its index in that aspect. A label tuple is resolved once and its row
        stored; None when a label is missing, unknown or unhashable."""
        key = tuple(map(labels.get, self._names))
        try:
            return self._rows[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable label value
            return None
        try:
            row = tuple(a.index[label] for a, label in zip(self.aspects, key))
        except KeyError:  # a missing or unknown label
            return None
        self._rows[key] = row
        return row


def load_schema(text: str) -> AspectSchema:
    """Parse and validate an aspect schema from JSON text.

    Expected shape:

        {"aspects": [{"name": "topic",
                      "labels": ["Climate", "Immigration"],
                      "distances": [["Climate", "Immigration", 1.0]],
                      "graph": {"nodes": [...], "edges": [["a", "b"], ...]}}],
         "weights": {"topic": 1.0}}

    `distances` and `graph` are optional per aspect. Only what exists in
    JSON alone is checked here: the root, the aspect objects, distance
    triples (values converted by json_float) and graph objects; the classes
    check the rest, and a LabelGraph error gains an `aspect NAME: ` prefix.
    So an aspect's distances, then its graph, are checked before its name
    and labels. Raises ParseError for malformed JSON (with line/column) or
    JSON nested too deeply to decode, ValidationError for invariant
    violations (message names the invariant).
    """
    raw = load_json(text, "schema")
    if not isinstance(raw, dict):
        raise ValidationError("schema root must be a JSON object")
    raw_aspects = raw.get("aspects")
    if not isinstance(raw_aspects, list) or not raw_aspects:
        raise ValidationError("schema must define a non-empty 'aspects' list")
    aspects = []
    for entry in raw_aspects:
        if not isinstance(entry, dict):
            raise ValidationError("each aspect must be a JSON object")
        name = entry.get("name")
        raw_distances = [] if entry.get("distances") is None else entry["distances"]
        if not isinstance(raw_distances, list):
            raise ValidationError(f"aspect {name!r}: 'distances' must be a list")
        distances = []
        for trip in raw_distances:
            triple = isinstance(trip, list) and len(trip) == 3 and _strings(trip[:2])
            if not triple or not json_isinstance(trip[2], (int, float)):
                raise ValidationError(f"aspect {name!r}: distance entries must be [label, label, value] (got {trip!r})")
            value = json_float(trip[2], f"aspect {name!r}: distance {trip[0]}/{trip[1]}")
            distances.append(((trip[0], trip[1]), value))
        graph = entry.get("graph")
        if graph is not None:
            if not isinstance(graph, dict):
                raise ValidationError(f"aspect {name!r}: graph must be an object")
            try:
                graph = LabelGraph(graph.get("nodes"), graph.get("edges"))
            except ValidationError as exc:
                raise ValidationError(f"aspect {name!r}: {exc}") from exc
        aspects.append(Aspect(name, entry.get("labels"), distances, graph))
    return AspectSchema(aspects=tuple(aspects), weights=raw.get("weights"))

"""Aspect schemas: label universes, label graphs, and label-level distances.

An aspect is a dimension along which articles can differ (topic, frame,
political leaning, ...). Each aspect carries a set of labels and a symmetric
distance table over them. Distances come from three sources, in priority
order: explicit table entries, shortest paths in an optional label graph,
and a last-resort default of 1.0 (logged as a warning). After loading, every
unordered label pair has a resolved distance in [0, 1].
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .errors import DerivationError, ParseError, UnknownEntityError, ValidationError

logger = logging.getLogger(__name__)

# Blend weights must sum to 1 within this tolerance.
WEIGHT_TOLERANCE = 1e-9


def _pair(l1: str, l2: str) -> tuple[str, str]:
    """Normalize an unordered label pair to a sorted tuple key."""
    return (l1, l2) if l1 <= l2 else (l2, l1)


@dataclass(frozen=True)
class DistanceTable:
    """Symmetric label-distance lookup storing one entry per unordered pair.

    The diagonal is implicit: lookup(l, l) is always 0.0 and self-pairs are
    never stored. Values are restricted to [0, 1].
    """

    entries: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for (l1, l2), value in self.entries.items():
            if l1 == l2:
                raise ValidationError(
                    f"distance table stores self-pair ({l1!r}, {l2!r}); "
                    "identity distances are implicit"
                )
            if (l1, l2) != _pair(l1, l2):
                raise ValidationError(
                    f"distance table key ({l1!r}, {l2!r}) is not in sorted order"
                )
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"distance out of range: {l1}/{l2} = {value!r} (must be in [0, 1])"
                )

    def lookup(self, l1: str, l2: str) -> float:
        if l1 == l2:
            return 0.0
        return self.entries[_pair(l1, l2)]

    def labels(self) -> set[str]:
        found = set()
        for l1, l2 in self.entries:
            found.add(l1)
            found.add(l2)
        return found


@dataclass(frozen=True)
class LabelGraph:
    """Undirected simple graph over labels plus optional grouping nodes.

    Construction runs one breadth-first search from every node. `hops` maps
    each node to the hop count of every node it reaches; `ancestors` maps
    each node to its hierarchy ancestors (see `label_ancestors`) and is
    empty for a disconnected graph, which no Aspect accepts.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    hops: Mapping[str, Mapping[str, int]] = field(init=False, repr=False, compare=False)
    ancestors: Mapping[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("label graph nodes must be unique")
        adjacency: dict[str, list[str]] = {n: [] for n in self.nodes}
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"label graph has self-loop at {u!r}")
            if u not in adjacency or v not in adjacency:
                raise ValidationError(
                    f"label graph edge ({u!r}, {v!r}) references an unknown node"
                )
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
    """One diversity dimension: a label set with a resolved distance table.

    `distances` is complete over all unordered label pairs once the aspect
    has been built by `make_aspect` or `load_schema`. `explicit_pairs`
    records which entries came straight from the input (they take priority
    over graph-derived values), `defaulted_pairs` which ones fell back to
    the 1.0 default.
    """

    name: str
    labels: tuple[str, ...]
    distances: DistanceTable = field(default_factory=DistanceTable)
    graph: LabelGraph | None = None
    explicit_pairs: frozenset[tuple[str, str]] = frozenset()
    defaulted_pairs: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        if not self.name:
            raise ValidationError("aspect name must be non-empty")
        if not self.labels:
            raise ValidationError(f"aspect {self.name!r} has no labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"aspect {self.name!r} has duplicate labels")
        stray = self.distances.labels() - set(self.labels)
        if stray:
            raise ValidationError(
                f"aspect {self.name!r} distance table references unknown "
                f"labels: {sorted(stray)}"
            )
        if self.graph is not None:
            missing = [l for l in self.labels if l not in self.graph.hops]
            if missing:
                raise DerivationError(
                    f"aspect {self.name!r}: labels {missing} are not graph nodes"
                )
            if not self.graph.connected():
                components = {frozenset(reach) for reach in self.graph.hops.values()}
                raise DerivationError(
                    f"aspect {self.name!r} label graph is disconnected; "
                    f"components: {sorted(sorted(c) for c in components)}"
                )


@dataclass(frozen=True)
class AspectSchema:
    """Ordered aspects plus blend weights that must sum to 1.

    Construction compiles every aspect, in aspect order: `indexes` maps each
    label to its position in `Aspect.labels`, and `matrices` holds the dense
    label-by-label distance matrix over those positions (zero diagonal).
    """

    aspects: tuple[Aspect, ...]
    weights: Mapping[str, float]
    indexes: tuple[Mapping[str, int], ...] = field(init=False, repr=False, compare=False)
    matrices: tuple[tuple[tuple[float, ...], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        names = [a.name for a in self.aspects]
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
        # Written so that NaN fails both checks.
        for name, w in self.weights.items():
            if not 0.0 <= w <= 1.0:
                raise ValidationError(
                    f"blend weight for {name!r} is {w!r}; weights must lie in [0, 1]"
                )
        total = sum(self.weights[n] for n in names)
        if not abs(total - 1.0) <= WEIGHT_TOLERANCE:
            raise ValidationError(f"blend weights must sum to 1 (got {total!r})")
        object.__setattr__(
            self, "indexes", tuple({l: i for i, l in enumerate(a.labels)} for a in self.aspects)
        )
        object.__setattr__(
            self,
            "matrices",
            tuple(
                tuple(tuple(a.distances.lookup(l1, l2) for l2 in a.labels) for l1 in a.labels)
                for a in self.aspects
            ),
        )

    def aspect(self, name: str) -> Aspect:
        for a in self.aspects:
            if a.name == name:
                return a
        raise UnknownEntityError(f"unknown aspect {name!r}")

    def aspect_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.aspects)

    def with_weights(self, weights: Mapping[str, float]) -> "AspectSchema":
        """Return a copy with the blend weights replaced (and re-validated)."""
        return AspectSchema(aspects=self.aspects, weights=dict(weights))


def derive_distances_from_graph(aspect: Aspect) -> DistanceTable:
    """Derive label distances from the aspect's graph.

    Distance between two labels is the shortest-path length between them
    divided by the graph diameter restricted to label nodes, so the most
    distant label pair lands exactly at 1.0. Explicit table entries of the
    aspect override derived values. Paths may run through grouping nodes.
    """
    if aspect.graph is None:
        raise DerivationError(f"aspect {aspect.name!r} has no label graph")
    hops = aspect.graph.hops
    labels = sorted(aspect.labels)
    pairs = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    diameter = max((hops[l1][l2] for l1, l2 in pairs), default=0)
    entries: dict[tuple[str, str], float] = {}
    for key in pairs:
        if key in aspect.explicit_pairs:
            entries[key] = aspect.distances.entries[key]
        else:
            entries[key] = hops[key[0]][key[1]] / diameter
    return DistanceTable(entries)


def make_aspect(
    name: str,
    labels: Iterable[str],
    distances: Mapping[tuple[str, str], float]
    | Iterable[tuple[tuple[str, str], float]]
    | None = None,
    graph: LabelGraph | None = None,
) -> Aspect:
    """Build an aspect with a fully resolved distance table.

    `distances` maps label pairs to values, or lists (pair, value) entries
    so that a repeated pair is reported instead of silently overwritten.
    Resolution order per unordered label pair: explicit entry, then
    graph-derived value, then 1.0 with a logged warning.
    """
    labels = tuple(labels)
    entries = distances.items() if isinstance(distances, Mapping) else distances or ()
    explicit: dict[tuple[str, str], float] = {}
    for (l1, l2), value in entries:
        key = _pair(l1, l2)
        if l1 == l2:
            if l1 not in labels:
                raise ValidationError(
                    f"aspect {name!r}: distance entry references unknown label {l1!r}"
                )
            if value != 0.0:
                raise ValidationError(
                    f"aspect {name!r}: self-distance for {l1!r} must be 0 (got {value!r})"
                )
            continue
        if key in explicit:
            raise ValidationError(
                f"aspect {name!r}: duplicate distance entry for pair {key}"
            )
        explicit[key] = value

    provisional = Aspect(
        name=name,
        labels=labels,
        distances=DistanceTable(dict(explicit)),
        graph=graph,
        explicit_pairs=frozenset(explicit),
    )
    if graph is not None:
        resolved = dict(derive_distances_from_graph(provisional).entries)
    else:
        resolved = dict(explicit)

    defaulted = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            key = _pair(labels[i], labels[j])
            if key not in resolved:
                resolved[key] = 1.0
                defaulted.append(key)
    if defaulted:
        logger.warning(
            "aspect %r: no distance given for pairs %s; defaulting to 1.0",
            name,
            sorted(defaulted),
        )
    return replace(
        provisional,
        distances=DistanceTable(resolved),
        defaulted_pairs=frozenset(defaulted),
    )


def _parse_graph(name: str, obj) -> LabelGraph:
    if not isinstance(obj, dict):
        raise ValidationError(f"aspect {name!r}: graph must be an object")
    nodes = obj.get("nodes")
    edges = obj.get("edges")
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise ValidationError(f"aspect {name!r}: graph nodes must be a list of strings")
    if not isinstance(edges, list):
        raise ValidationError(f"aspect {name!r}: graph edges must be a list of pairs")
    parsed_edges = []
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, str) for x in e)
        ):
            raise ValidationError(
                f"aspect {name!r}: graph edge {e!r} must be a pair of node names"
            )
        parsed_edges.append((e[0], e[1]))
    return LabelGraph(nodes=tuple(nodes), edges=tuple(parsed_edges))


def load_schema(text: str) -> AspectSchema:
    """Parse and validate an aspect schema from JSON text.

    Expected shape:

        {"aspects": [{"name": "topic",
                      "labels": ["Climate", "Immigration"],
                      "distances": [["Climate", "Immigration", 1.0]],
                      "graph": {"nodes": [...], "edges": [["a", "b"], ...]}}],
         "weights": {"topic": 1.0}}

    `distances` and `graph` are optional per aspect. Raises ParseError for
    malformed JSON (with line/column), ValidationError for invariant
    violations (message names the invariant).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"schema is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ValidationError("schema root must be a JSON object")
    raw_aspects = raw.get("aspects")
    raw_weights = raw.get("weights")
    if not isinstance(raw_aspects, list) or not raw_aspects:
        raise ValidationError("schema must define a non-empty 'aspects' list")
    if not isinstance(raw_weights, dict):
        raise ValidationError("schema must define a 'weights' object")

    aspects = []
    for entry in raw_aspects:
        if not isinstance(entry, dict):
            raise ValidationError("each aspect must be a JSON object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError("each aspect needs a non-empty string 'name'")
        labels = entry.get("labels")
        if (
            not isinstance(labels, list)
            or not labels
            or not all(isinstance(l, str) for l in labels)
        ):
            raise ValidationError(
                f"aspect {name!r}: 'labels' must be a non-empty list of strings"
            )
        raw_distances = entry.get("distances") or []
        if not isinstance(raw_distances, list):
            raise ValidationError(f"aspect {name!r}: 'distances' must be a list")
        distances = []
        for trip in raw_distances:
            if (
                not isinstance(trip, list)
                or len(trip) != 3
                or not isinstance(trip[0], str)
                or not isinstance(trip[1], str)
                or not isinstance(trip[2], (int, float))
            ):
                raise ValidationError(
                    f"aspect {name!r}: distance entries must be [label, label, value] "
                    f"(got {trip!r})"
                )
            distances.append(((trip[0], trip[1]), float(trip[2])))
        graph = None
        if entry.get("graph") is not None:
            graph = _parse_graph(name, entry["graph"])
        aspects.append(make_aspect(name, labels, distances, graph))

    weights = {}
    for key, value in raw_weights.items():
        if not isinstance(value, (int, float)):
            raise ValidationError(f"blend weight for {key!r} must be a number")
        weights[key] = float(value)
    return AspectSchema(aspects=tuple(aspects), weights=weights)


def label_distance(schema: AspectSchema, aspect_name: str, l1: str, l2: str) -> float:
    """Resolved distance between two labels of one aspect."""
    aspect = schema.aspect(aspect_name)
    for l in (l1, l2):
        if l not in aspect.labels:
            raise UnknownEntityError(
                f"unknown label {l!r} for aspect {aspect_name!r}"
            )
    return aspect.distances.lookup(l1, l2)


def label_ancestors(aspect: Aspect, label: str) -> frozenset[str]:
    """Nodes that count as hierarchy ancestors of `label` (includes itself).

    With a label graph these are `label` plus every node on a shortest path
    to its nearest Jordan center node(s); without one, just `label`.
    """
    if label not in aspect.labels:
        raise UnknownEntityError(f"unknown label {label!r} for aspect {aspect.name!r}")
    if aspect.graph is None:
        return frozenset({label})
    return aspect.graph.ancestors[label]

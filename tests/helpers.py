"""Shared builders for randomized schema/corpus/rule instances.

Everything here takes an explicit random.Random so tests stay reproducible;
no module-level RNG state.
"""

from __future__ import annotations

import random

from typing import Sequence

from newsdiv.aspect_model import Aspect, AspectSchema, LabelGraph, make_aspect
from newsdiv.metrics import DocumentProfile, collection_diversity
from newsdiv.rules import Rule, RuleSet, parse_rule


def random_schema(
    rng: random.Random,
    max_aspects: int = 4,
    max_labels: int = 8,
) -> AspectSchema:
    """Random explicit-table schema with normalized blend weights."""
    n_aspects = rng.randint(1, max_aspects)
    aspects = []
    for i in range(n_aspects):
        n_labels = rng.randint(2, max_labels)
        labels = [f"a{i}l{j}" for j in range(n_labels)]
        distances = {}
        for x in range(n_labels):
            for y in range(x + 1, n_labels):
                distances[(labels[x], labels[y])] = round(rng.uniform(0.0, 1.0), 6)
        aspects.append(make_aspect(f"aspect{i}", labels, distances=distances))
    raw = [rng.uniform(0.1, 1.0) for _ in range(n_aspects)]
    total = sum(raw)
    weights = {a.name: w / total for a, w in zip(aspects, raw)}
    return AspectSchema(aspects=tuple(aspects), weights=weights)


def random_docs(
    rng: random.Random,
    schema: AspectSchema,
    n: int,
    with_relevance: bool = False,
    with_timestamps: bool = False,
) -> list[DocumentProfile]:
    docs = []
    for i in range(n):
        labels = {a.name: rng.choice(a.labels) for a in schema.aspects}
        docs.append(
            DocumentProfile(
                id=f"d{i:03d}",
                labels=labels,
                relevance=round(rng.uniform(0.0, 1.0), 6) if with_relevance else None,
                timestamp=1_700_000_000 + i * 60 if with_timestamps else None,
            )
        )
    return docs


def random_connected_graph(rng: random.Random, n_nodes: int) -> LabelGraph:
    """Random connected graph: spanning tree plus a few extra edges."""
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = set()
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        edges.add((nodes[j], nodes[i]))
    extra = rng.randint(0, n_nodes)
    for _ in range(extra):
        a, b = rng.sample(nodes, 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    return LabelGraph(nodes=tuple(nodes), edges=tuple(sorted(edges)))


def random_rules(
    rng: random.Random,
    schema: AspectSchema,
    n: int,
    context_tags: tuple[str, ...] = ("ctx",),
) -> tuple[RuleSet, list[Rule]]:
    """Random mix of exclude/boost/require rules across all three scopes."""
    globals_and_context = []
    request = []
    for i in range(n):
        aspect = rng.choice(schema.aspects)
        label = rng.choice(aspect.labels)
        predicate = {"aspect": aspect.name, "op": "eq", "value": label}
        roll = rng.random()
        if roll < 0.4:
            action = {"exclude": True}
        elif roll < 0.8:
            action = {"boost": round(rng.uniform(-0.5, 0.5), 3)}
        else:
            action = {"require_at_least": rng.randint(1, 2)}
        scope = rng.choice(("global", "context", "request"))
        obj = {"id": f"r{i}", "scope": scope, "predicate": predicate, "action": action}
        if scope == "context":
            obj["context"] = rng.choice(context_tags + ("inactive",))
        rule = parse_rule(schema, obj)
        if scope == "request":
            request.append(rule)
        else:
            globals_and_context.append(rule)
    ruleset = RuleSet(rules=tuple(globals_and_context), context_tags=frozenset(context_tags))
    return ruleset, request


def active_excludes(ruleset: RuleSet, request_rules: Sequence[Rule]) -> list[Rule]:
    """The exclude rules active for one request."""
    return [r for r in ruleset.active(request_rules) if r.action == "exclude"]


def combined_objective(schema: AspectSchema, docs: Sequence[DocumentProfile], lam: float) -> float:
    """Set-level objective rerank_combined reports: blend of mean relevance
    and diversity."""
    if not docs:
        return 0.0
    mean_rel = sum(d.relevance for d in docs) / len(docs)
    return lam * mean_rel + (1.0 - lam) * collection_diversity(schema, docs).overall


def floyd_warshall(graph: LabelGraph) -> dict[str, dict[str, float]]:
    """All-pairs hop counts by Floyd-Warshall; unreachable pairs are inf."""
    dist = {u: {v: 0 if u == v else float("inf") for v in graph.nodes} for u in graph.nodes}
    for u, v in graph.edges:
        dist[u][v] = dist[v][u] = 1
    for w in graph.nodes:
        for u in graph.nodes:
            for v in graph.nodes:
                if dist[u][w] + dist[w][v] < dist[u][v]:
                    dist[u][v] = dist[u][w] + dist[w][v]
    return dist


def reference_ancestors(graph: LabelGraph, node: str) -> frozenset[str]:
    """Nodes on a shortest path from `node` to its nearest Jordan center(s)."""
    dist = floyd_warshall(graph)
    ecc = {u: max(dist[u].values()) for u in graph.nodes}
    centers = {u for u in graph.nodes if ecc[u] == min(ecc.values())}
    nearest = min(dist[node][c] for c in centers)
    return frozenset(
        v
        for c in centers
        if dist[node][c] == nearest
        for v in graph.nodes
        if dist[node][v] + dist[v][c] == nearest
    )

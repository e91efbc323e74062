"""Seeded, stdlib-only input generator for the newsdiv benchmark.

Every function takes a `random.Random` and returns plain JSON-ready data, so
the same seed always yields byte-identical files. Schemas mix explicit
distance tables with one label-graph aspect shaped as a three-level tree
(labels -> group nodes -> root), so the graph derivation and `ancestor`
rules run and the expected ancestors are known without the package.
"""
from __future__ import annotations

import json
import random

# (aspect name, label count, "table" | "graph") and the blend weights.
# "wide" has 8**3 = 512 label tuples, so pools share few; "narrow" has 9.
SCHEMA_SHAPES = {
    "wide": (
        [("topic", 8, "table"), ("frame", 8, "table"), ("region", 8, "graph")],
        {"topic": 0.4, "frame": 0.35, "region": 0.25},
    ),
    "narrow": (
        [("topic", 3, "table"), ("frame", 3, "graph")],
        {"topic": 0.5, "frame": 0.5},
    ),
}

INTERACTION_TYPES = ("comment", "like", "share")
CONTEXT_TAGS = ("election", "sports")
BASE_TS = 1_700_000_000


def make_schema(rng: random.Random, shape: str) -> dict:
    aspects_spec, weights = SCHEMA_SHAPES[shape]
    aspects = []
    for name, count, kind in aspects_spec:
        labels = [f"{name[:2]}{i}" for i in range(count)]
        aspect = {"name": name, "labels": labels}
        if kind == "table":
            aspect["distances"] = [
                [labels[i], labels[j], round(rng.uniform(0.05, 1.0), 3)]
                for i in range(count)
                for j in range(i + 1, count)
            ]
        else:
            groups = [f"{name[:2]}_g{g}" for g in range(min(3, count - 1))]
            # Group sizes are fixed (round robin), only membership is random,
            # so `ancestor` rules match a seed-independent share of labels.
            owner = [groups[i % len(groups)] for i in range(count)]
            rng.shuffle(owner)
            root = f"{name[:2]}_root"
            edges = [[label, owner[i]] for i, label in enumerate(labels)]
            edges += [[g, root] for g in groups]
            aspect["graph"] = {"nodes": labels + groups + [root], "edges": edges}
        aspects.append(aspect)
    return {"aspects": aspects, "weights": dict(weights)}


def make_corpus(rng: random.Random, schema: dict, n: int, head: int = 0) -> list[dict]:
    """n documents with uniform labels; the first `head` share one label tuple.

    A uniform head is a list stuck on one topic and frame: the starting list
    that swap mode improves, and one it can improve at every step.
    """
    docs = []
    for i in range(n):
        if i == 0 or i >= head:
            labels = {a["name"]: rng.choice(a["labels"]) for a in schema["aspects"]}
        docs.append(
            {
                "id": f"d{i:05d}",
                "labels": dict(labels),
                "relevance": round(rng.random(), 6),
                "timestamp": BASE_TS + 60 * i,
            }
        )
    return docs


def make_history(rng: random.Random, corpus: list[dict], length: int) -> list[dict]:
    picked = rng.sample([d["id"] for d in corpus], length)
    return [{"doc": doc_id, "ts": BASE_TS + 10_000_000 + 100 * j} for j, doc_id in enumerate(picked)]


def make_interactions(rng: random.Random, corpus: list[dict], length: int) -> list[dict]:
    ids = [d["id"] for d in corpus]
    records = []
    for j in range(length):
        # Types take turns, so every type is present and equally long.
        itype = INTERACTION_TYPES[j % len(INTERACTION_TYPES)]
        records.append(
            {"user": "u1", "doc": rng.choice(ids), "type": itype, "ts": BASE_TS + 20_000_000 + 50 * j}
        )
    return records


def _leaf(rng: random.Random, schema: dict, kind: str) -> dict:
    if kind == "ancestor":
        graph = next(a for a in schema["aspects"] if "graph" in a)
        groups = [n for n in graph["graph"]["nodes"] if "_g" in n]
        return {"ancestor": {"aspect": graph["name"], "node": rng.choice(groups)}}
    aspect = rng.choice(schema["aspects"])
    if kind == "eq":
        return {"aspect": aspect["name"], "op": "eq", "value": rng.choice(aspect["labels"])}
    return {"aspect": aspect["name"], "op": "in", "value": rng.sample(aspect["labels"], 2)}


def _boost_predicate(rng: random.Random, schema: dict, shape: str) -> dict:
    if shape == "any":
        return {"any": [_leaf(rng, schema, "eq"), _leaf(rng, schema, "ancestor")]}
    if shape == "not":
        return {"not": {"all": [_leaf(rng, schema, "in"), _leaf(rng, schema, "ancestor")]}}
    return _leaf(rng, schema, shape)


def make_rules(rng: random.Random, schema: dict, count: int) -> list[dict]:
    """Mixed exclude / boost / require rules over all three scopes.

    Action, scope and predicate shape follow the rule index; the seed picks
    only aspects and labels. So the share of documents each rule matches,
    and with it the work and the trace size, hardly varies between seeds.
    Excludes AND two `eq` tests on distinct aspects, so most documents
    survive; boosts use in / ancestor / any / not and match many.
    """
    rules = []
    for i in range(count):
        action = ("exclude", "boost", "boost", "require")[i % 4]
        scope = ("global", "context", "request")[(i // 4) % 3]
        rule = {"id": f"r{i:02d}", "scope": scope}
        if scope == "context":
            rule["context"] = CONTEXT_TAGS[(i // 4) % 2]
        if action == "exclude":
            first, second = rng.sample(schema["aspects"], 2)
            rule["predicate"] = {"all": [
                {"aspect": a["name"], "op": "eq", "value": rng.choice(a["labels"])} for a in (first, second)
            ]}
            rule["action"] = {"exclude": True}
        elif action == "boost":
            rule["predicate"] = _boost_predicate(rng, schema, ("in", "ancestor", "any", "not")[(i // 2) % 4])
            rule["action"] = {"boost": round(rng.uniform(-0.3, 0.3), 3)}
        else:
            rule["predicate"] = _leaf(rng, schema, "eq")
            rule["action"] = {"require_at_least": 1 + i % 2}
        rules.append(rule)
    return rules


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def dump_jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)

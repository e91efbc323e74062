"""Output checks that do not use the newsdiv package.

`Model` recomputes label distances from the generated schema data alone:
explicit tables are read as given, graph aspects go through a breadth-first
search here. Rule matching and the `ancestor` test are re-implemented for
the generator's tree-shaped label graphs. Every check returns a list of
problems; an empty list means the output passed.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

TOLERANCE = 1e-9


def _bfs(adjacency: dict, start: str) -> dict:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


class Model:
    """Distances, weights and rule semantics rebuilt from generated data."""

    def __init__(self, schema: dict, docs: list[dict]):
        self.weights = dict(schema["weights"])
        self.names = [a["name"] for a in schema["aspects"]]
        self.dist: dict[str, dict[tuple[str, str], float]] = {}
        self.parents: dict[str, dict[str, str]] = {}
        for aspect in schema["aspects"]:
            name, labels = aspect["name"], aspect["labels"]
            table = {}
            if "graph" in aspect:
                adjacency = {n: [] for n in aspect["graph"]["nodes"]}
                parent = {}
                for u, v in aspect["graph"]["edges"]:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
                    parent[u] = v  # generator writes edges child-first
                self.parents[name] = parent
                hops = {l: _bfs(adjacency, l) for l in labels}
                diameter = max(hops[a][b] for a in labels for b in labels)
                for a in labels:
                    for b in labels:
                        table[(a, b)] = hops[a][b] / diameter
            else:
                for a, b, value in aspect["distances"]:
                    table[(a, b)] = table[(b, a)] = float(value)
                for a in labels:
                    table[(a, a)] = 0.0
            self.dist[name] = table
        self.docs = {d["id"]: d for d in docs}

    # -- diversity ---------------------------------------------------------

    def per_aspect(self, ids: list[str]) -> dict[str, float]:
        n = len(ids)
        if n < 2:
            return {a: 0.0 for a in self.names}
        labels = [self.docs[i]["labels"] for i in ids]
        out = {}
        for a in self.names:
            table = self.dist[a]
            col = [lab[a] for lab in labels]
            total = 0.0
            for i in range(n):
                li = col[i]
                for j in range(i + 1, n):
                    total += table[(li, col[j])]
            out[a] = total / (n * (n - 1) // 2)
        return out

    def diversity(self, ids: list[str]) -> float:
        pa = self.per_aspect(ids)
        return sum(self.weights[a] * pa[a] for a in self.names)

    def distance(self, x: str, y: str) -> float:
        lx, ly = self.docs[x]["labels"], self.docs[y]["labels"]
        return sum(self.weights[a] * self.dist[a][(lx[a], ly[a])] for a in self.names)

    def greedy_value(self, ids: list[str], k: int) -> float:
        """Diversity of a plain farthest-pair-then-best-addition selection."""
        pool = sorted(ids)
        best = max((self.distance(a, b), a, b) for i, a in enumerate(pool) for b in pool[i + 1:])
        chosen = [best[1]]
        rest = [d for d in pool if d != best[1]]
        while len(chosen) < k:
            pick = max(rest, key=lambda c: sum(self.distance(c, s) for s in chosen))
            chosen.append(pick)
            rest.remove(pick)
        return self.diversity(chosen)

    # -- rules -------------------------------------------------------------

    def _ancestors(self, aspect: str, label: str) -> set[str]:
        chain, node, parent = {label}, label, self.parents[aspect]
        while node in parent:
            node = parent[node]
            chain.add(node)
        return chain

    def matches(self, predicate: dict, doc_id: str) -> bool:
        labels = self.docs[doc_id]["labels"]
        if "all" in predicate:
            return all(self.matches(p, doc_id) for p in predicate["all"])
        if "any" in predicate:
            return any(self.matches(p, doc_id) for p in predicate["any"])
        if "not" in predicate:
            return not self.matches(predicate["not"], doc_id)
        if "ancestor" in predicate:
            inner = predicate["ancestor"]
            return inner["node"] in self._ancestors(inner["aspect"], labels[inner["aspect"]])
        if predicate["op"] == "eq":
            return labels[predicate["aspect"]] == predicate["value"]
        return labels[predicate["aspect"]] in predicate["value"]


def active_rules(rules: list[dict], contexts: list[str]) -> list[dict]:
    """Rules in evaluation order: global, then active context, then request."""
    return (
        [r for r in rules if r["scope"] == "global"]
        + [r for r in rules if r["scope"] == "context" and r["context"] in contexts]
        + [r for r in rules if r["scope"] == "request"]
    )


def survivors(model: Model, order: list[str], rules: list[dict], history: list[str]):
    """(surviving ids in corpus order, excluded ids, post-boost relevance)."""
    seen = set(history)
    candidates = [i for i in order if i not in seen]
    # A predicate sees only the labels, so match once per distinct label tuple.
    groups: dict[tuple, list[str]] = {}
    for doc_id in candidates:
        groups.setdefault(tuple(model.docs[doc_id]["labels"][a] for a in model.names), []).append(doc_id)
    excluded = set()
    relevance = {i: model.docs[i]["relevance"] for i in candidates}
    for rule in rules:
        action, value = next(iter(rule["action"].items()))
        if action == "require_at_least":
            continue
        for members in groups.values():
            if not model.matches(rule["predicate"], members[0]):
                continue
            for doc_id in members:
                if doc_id in excluded:
                    continue
                if action == "exclude":
                    excluded.add(doc_id)
                else:
                    relevance[doc_id] = min(1.0, max(0.0, relevance[doc_id] + value))
    return [i for i in candidates if i not in excluded], excluded, relevance


# -- checks on one CLI output ------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check_report(model: Model, report: dict, ids: list[str]) -> list[str]:
    """`overall` and `per_aspect` recomputed here, and overall == sum w * per_aspect."""
    problems = []
    want = model.per_aspect(ids)
    overall = report["overall"]
    if not _close(overall, sum(model.weights[a] * want[a] for a in model.names)):
        problems.append(f"overall {overall!r} differs from recomputation")
    per_aspect = report["per_aspect"]
    if set(per_aspect) != set(model.names):
        problems.append(f"per_aspect keys {sorted(per_aspect)}")
        return problems
    for a in model.names:
        if not _close(per_aspect[a], want[a]):
            problems.append(f"per_aspect[{a}] {per_aspect[a]!r} differs from {want[a]!r}")
    if not _close(overall, sum(model.weights[a] * per_aspect[a] for a in model.names)):
        problems.append("overall differs from sum of weight * per_aspect")
    n = len(ids)
    if report["pair_count"] != n * (n - 1) // 2:
        problems.append(f"pair_count {report['pair_count']} for {n} documents")
    return problems


def check_selection(selected: list[str], k: int, allowed: set[str], excluded: set[str]) -> list[str]:
    problems = []
    if len(set(selected)) != len(selected):
        problems.append(f"duplicate ids in selection {selected}")
    if len(selected) != k:
        problems.append(f"selection has {len(selected)} ids, expected {k}")
    bad = [i for i in selected if i in excluded]
    if bad:
        problems.append(f"excluded documents selected: {bad}")
    stray = [i for i in selected if i not in allowed and i not in excluded]
    if stray:
        problems.append(f"selected ids outside the rule survivors: {stray}")
    return problems


def check_oracle(model: Model, result: dict, pool: list[str], k: int) -> list[str]:
    best = result["best_subset"]
    problems = check_selection(best, k, set(pool), set())
    if problems:
        return problems
    if result["evaluated"] != math.comb(len(pool), k):
        problems.append(f"evaluated {result['evaluated']} != C({len(pool)}, {k})")
    value = result["best_value"]
    if not _close(value, model.diversity(best)):
        problems.append(f"best_value {value!r} differs from recomputation")
    greedy = model.greedy_value(pool, k)
    if value < greedy - TOLERANCE:
        problems.append(f"oracle value {value!r} below greedy value {greedy!r}")
    return problems


def interaction_value(model: Model, records: list[dict], types: list[str]) -> float:
    """Uniform-weight blend over types of the diversity of each type's distinct docs."""
    total = 0.0
    for itype in types:
        docs = list(dict.fromkeys(r["doc"] for r in records if r["type"] == itype))
        if len(docs) >= 2:
            total += model.diversity(docs) / len(types)
    return total


@dataclass
class RerankExpect:
    """What one `rerank` request must satisfy, derived from its inputs."""

    model: Model
    mode: str  # "swap" | "lambda" | "summary" | "sequence" | "interaction"
    k: int
    survivors: list[str]
    excluded: set[str]  # rule exclusions
    history: list[str] = field(default_factory=list)
    relevance: dict = field(default_factory=dict)
    lam: float | None = None
    window: int = 0
    interactions: list[dict] = field(default_factory=list)


def check_rerank(exp: RerankExpect, out: dict) -> list[str]:
    model, selected = exp.model, out["selected"]
    problems = check_selection(selected, exp.k, set(exp.survivors), exp.excluded | set(exp.history))
    if problems:
        return problems
    traced = {t["doc"] for t in out["trace"] if t["kind"] == "exclude"}
    if traced != exp.excluded:
        problems.append(f"trace excludes {len(traced)} documents, rules exclude {len(exp.excluded)}")
    problems += check_report(model, out["diversity"], selected)
    overall, objective = out["diversity"]["overall"], out["objective"]
    if exp.mode in ("swap", "summary") and not _close(objective, overall):
        problems.append(f"objective {objective!r} != overall {overall!r}")
    if exp.mode == "swap":
        start = model.diversity(exp.survivors[: exp.k])
        if overall < start - TOLERANCE:
            problems.append(f"swap result {overall!r} below its starting list {start!r}")
    elif exp.mode == "lambda":
        mean_rel = sum(exp.relevance[i] for i in selected) / len(selected)
        want = exp.lam * mean_rel + (1.0 - exp.lam) * overall
        if not _close(objective, want):
            problems.append(f"objective {objective!r} != blend {want!r}")
    elif exp.mode == "sequence":
        window = exp.history[len(exp.history) - exp.window:]
        value = model.diversity(window + selected)
        best = max(model.diversity(window + [c]) for c in exp.survivors)
        if not _close(objective, value):
            problems.append(f"objective {objective!r} != window diversity {value!r}")
        if best > value + TOLERANCE:
            problems.append(f"next item reaches {value!r}, another reaches {best!r}")
    elif exp.mode == "interaction":
        types = sorted({r["type"] for r in exp.interactions})
        logged = {(r["doc"], r["type"]) for r in exp.interactions}
        suggest = next(t for t in out["trace"] if t["kind"] == "suggest")
        value = interaction_value(model, exp.interactions + [{"doc": selected[0], "type": suggest["type"]}], types)
        best = max(
            interaction_value(model, exp.interactions + [{"doc": d, "type": t}], types)
            for d in exp.survivors
            for t in types
            if (d, t) not in logged
        )
        if not _close(objective, value):
            problems.append(f"objective {objective!r} != extended log diversity {value!r}")
        if best > value + TOLERANCE:
            problems.append(f"suggestion reaches {value!r}, another option reaches {best!r}")
    return problems

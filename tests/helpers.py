"""Shared builders for randomized schema/corpus/rule instances.

Everything here takes an explicit random.Random so tests stay reproducible;
no module-level RNG state.
"""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from newsdiv.aspect_model import Aspect, AspectSchema, LabelGraph
from newsdiv.corpus_io import Corpus
from newsdiv.diversify import DEFAULT_GAMMA, SWAP_EPSILON, RerankResult, _pick
from newsdiv.errors import (
    ContractError,
    GuardExceededError,
    UnknownEntityError,
    ValidationError,
    json_decode_error,
    json_float,
    json_isinstance,
)
from newsdiv.metrics import (
    TIE_TOLERANCE,
    DocumentProfile,
    InteractionLog,
    InteractionRecord,
    Keyword,
    Window,
    _diversity,
    _label_indices,
    _pool,
    collection_diversity,
    docs_per_type,
    interaction_diversity,
    window_slice,
)
from newsdiv.oracle import ENUMERATION_GUARD, OracleResult
from newsdiv.rules import Rule, RuleSet, parse_rule


def load_newsbench(name: str):
    """The benchmark's module newsbench/<name>.py, loaded from its file (the
    directory is not a package) as a fresh module of its own."""
    path = pathlib.Path(__file__).resolve().parent.parent / "newsbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"newsbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_schema(
    rng: random.Random,
    max_aspects: int = 4,
    max_labels: int = 8,
    exact: bool = False,
) -> AspectSchema:
    """Random explicit-table schema with normalized blend weights; `exact`
    gives every schema max_aspects aspects of max_labels labels."""
    n_aspects = max_aspects if exact else rng.randint(1, max_aspects)
    aspects = []
    for i in range(n_aspects):
        n_labels = max_labels if exact else rng.randint(2, max_labels)
        labels = [f"a{i}l{j}" for j in range(n_labels)]
        distances = {}
        for x in range(n_labels):
            for y in range(x + 1, n_labels):
                distances[(labels[x], labels[y])] = round(rng.uniform(0.0, 1.0), 6)
        aspects.append(Aspect(f"aspect{i}", labels, distances=distances))
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


def reference_matches(schema: AspectSchema, predicate: Mapping, doc: DocumentProfile) -> bool:
    """Walk a validated predicate against one document: the interpreter that
    compile_predicate replaced, with `ancestor` reading `graph.ancestors`
    directly. A missing or unknown label never matches."""
    if "all" in predicate:
        return all(reference_matches(schema, p, doc) for p in predicate["all"])
    if "any" in predicate:
        return any(reference_matches(schema, p, doc) for p in predicate["any"])
    if "not" in predicate:
        return not reference_matches(schema, predicate["not"], doc)
    if "ancestor" in predicate:
        inner = predicate["ancestor"]
        aspect = schema.aspect(inner["aspect"])
        label = doc.labels.get(inner["aspect"])
        return label in aspect.labels and inner["node"] in aspect.graph.ancestors[label]
    label = doc.labels.get(predicate["aspect"])
    if predicate.get("op", "eq") == "eq":
        return label == predicate["value"]
    return label in predicate["value"]  # op == "in"


def reference_apply_rules(
    schema: AspectSchema, rules: Sequence[Rule], candidates: Sequence[DocumentProfile]
) -> tuple[list[DocumentProfile], dict[str, float | None], list[tuple]]:
    """Apply rules in order, document by document, through reference_matches.

    Returns the survivors in input order, every candidate's relevance after
    the boosts, and the steps in application order: (rule, doc) for an
    exclusion, (rule, doc, delta, before, after) for a boost.
    """
    current = list(candidates)
    relevance = {d.id: d.relevance for d in current}
    steps: list[tuple] = []
    for rule in rules:
        hits = [d for d in current if reference_matches(schema, rule.predicate, d)]
        if rule.action == "exclude":
            steps += [(rule.id, d.id) for d in hits]
            current = [d for d in current if not reference_matches(schema, rule.predicate, d)]
        elif rule.action == "boost":
            for d in hits:
                before = relevance[d.id] if relevance[d.id] is not None else 0.0
                relevance[d.id] = min(1.0, max(0.0, before + rule.value))
                steps.append((rule.id, d.id, rule.value, before, relevance[d.id]))
    return current, relevance, steps


def random_graph_schema(rng: random.Random, max_aspects: int = 3) -> AspectSchema:
    """Random schema whose aspects mostly carry a label graph with grouping
    nodes (labels are a strict subset of the nodes); the rest default every
    distance to 1.0."""
    aspects = []
    for i in range(rng.randint(1, max_aspects)):
        if rng.random() < 0.25:
            labels = [f"a{i}l{j}" for j in range(rng.randint(2, 5))]
            aspects.append(Aspect(f"aspect{i}", labels, distances=()))
            continue
        n = rng.randint(3, 10)
        graph = random_connected_graph(rng, n)
        labels = sorted(rng.sample(graph.nodes, rng.randint(2, n - 1)))
        aspects.append(Aspect(f"aspect{i}", labels, distances=(), graph=graph))
    weights = {a.name: 1.0 / len(aspects) for a in aspects}
    return AspectSchema(aspects=tuple(aspects), weights=weights)


def random_predicate(rng: random.Random, schema: AspectSchema, depth: int) -> dict:
    """Random valid predicate over eq/in/all/any/not/ancestor, at most
    `depth` levels deep."""
    graphs = [a for a in schema.aspects if a.graph is not None]
    kinds = ["eq", "in"] + ["ancestor"] * bool(graphs) + ["all", "any", "not"] * (depth > 1)
    kind = rng.choice(kinds)
    if kind in ("all", "any"):
        return {kind: [random_predicate(rng, schema, depth - 1) for _ in range(rng.randint(1, 3))]}
    if kind == "not":
        return {"not": random_predicate(rng, schema, depth - 1)}
    if kind == "ancestor":
        aspect = rng.choice(graphs)
        return {"ancestor": {"aspect": aspect.name, "node": rng.choice(aspect.graph.nodes)}}
    aspect = rng.choice(schema.aspects)
    if kind == "in":
        values = rng.sample(aspect.labels, rng.randint(1, len(aspect.labels)))
        return {"aspect": aspect.name, "op": "in", "value": values}
    predicate = {"aspect": aspect.name, "value": rng.choice(aspect.labels)}
    if rng.random() < 0.5:
        predicate["op"] = "eq"  # the default, stated
    return predicate


def random_partial_docs(rng: random.Random, schema: AspectSchema, n: int) -> list[DocumentProfile]:
    """Documents that mostly carry a known label per aspect, but sometimes
    lack the aspect or carry a grouping node, an unknown or a non-string
    label."""
    docs = []
    for i in range(n):
        labels = {}
        for a in schema.aspects:
            roll = rng.random()
            if roll < 0.15:
                continue
            if roll < 0.25:
                nodes = a.graph.nodes if a.graph else ()
                labels[a.name] = rng.choice(
                    ["unknown", ["list"], None] + [node for node in nodes if node not in a.labels]
                )
            else:
                labels[a.name] = rng.choice(a.labels)
        docs.append(DocumentProfile(id=f"d{i:03d}", labels=labels))
    return docs


class ExactReference:
    """Exact-arithmetic reference for diversity and the selection modes.

    Distances and weights enter as the exact `Fraction` of their float
    values, and diversity is the plain mean over document pairs, so no
    rounding happens anywhere. Every pick applies the documented tie rule
    to exact values: a primary more than TIE_TOLERANCE above the best so
    far wins, one within it is tied and the secondary key decides by the
    same margin, and full ties go to the earlier entry in id order.
    """

    def __init__(self, schema: AspectSchema):
        self.schema = schema
        self.tolerance = Fraction(TIE_TOLERANCE)
        self.weights = {name: Fraction(w) for name, w in schema.weights.items()}
        self._memo: dict[tuple, Fraction] = {}

    def distance(self, d1: DocumentProfile, d2: DocumentProfile) -> Fraction:
        key = tuple((d1.labels[a.name], d2.labels[a.name]) for a in self.schema.aspects)
        if key not in self._memo:
            self._memo[key] = sum(
                self.weights[a.name] * Fraction(a.matrix[a.index[l1]][a.index[l2]])
                for a, (l1, l2) in zip(self.schema.aspects, key)
            )
        return self._memo[key]

    def diversity(self, docs: Sequence[DocumentProfile]) -> Fraction:
        n = len(docs)
        if n < 2:
            return Fraction(0)
        total = sum(
            self.distance(docs[i], docs[j]) for i in range(n) for j in range(i + 1, n)
        )
        return total / (n * (n - 1) // 2)

    def pick(self, entries):
        best = None
        for entry in entries:
            if best is None or entry[0] > best[0] + self.tolerance or (
                entry[0] >= best[0] - self.tolerance
                and entry[1] > best[1] + self.tolerance
            ):
                best = entry
        return best

    def greedy(self, pool: Sequence[DocumentProfile], k: int) -> tuple[str, ...]:
        docs = sorted(pool, key=lambda d: d.id)
        if len(docs) == 1:
            return (docs[0].id,)
        _, _, (seed, _) = self.pick(
            (self.distance(a, b), 0, (a, b))
            for i, a in enumerate(docs)
            for b in docs[i + 1:]
        )
        selected, remaining = [seed], [d for d in docs if d.id != seed.id]
        while len(selected) < k:
            _, _, best = self.pick((self.diversity(selected + [c]), 0, c) for c in remaining)
            selected.append(best)
            remaining.remove(best)
        return tuple(d.id for d in selected)

    def swap(
        self,
        items: Sequence[DocumentProfile],
        pool: Sequence[DocumentProfile],
        budget: int,
        epsilon: float,
    ) -> tuple[str, ...]:
        current, available = list(items), list(pool)
        for _ in range(budget):
            if not available:
                break
            before = self.diversity(current)
            rest = [current[:i] + current[i + 1:] for i in range(len(current))]
            order = sorted(
                range(len(current)), key=lambda i: (-self.diversity(rest[i]), current[i].id)
            )
            for i in order:
                after, _, best = self.pick(
                    (self.diversity(rest[i] + [c]), 0, c)
                    for c in sorted(available, key=lambda d: d.id)
                )
                if after > before + Fraction(epsilon):
                    break
            else:
                break
            available = [d for d in available if d.id != best.id] + [current[i]]
            current[i] = best
        return tuple(d.id for d in current)

    def next_in_sequence(
        self,
        history: Sequence[DocumentProfile],
        candidates: Sequence[DocumentProfile],
        window: Window,
        gamma: float,
    ) -> str:
        recent = window_slice(history, window)
        decay = Fraction(gamma)

        def affinity(cand):
            return sum(
                decay**age * self.distance(cand, doc)
                for age, doc in enumerate(reversed(recent))
            )

        _, _, best = self.pick(
            (self.diversity(recent + [c]), affinity(c), c)
            for c in sorted(candidates, key=lambda d: d.id)
        )
        return best.id

    def suggest_interaction(
        self,
        corpus_docs: Mapping[str, DocumentProfile],
        log: InteractionLog,
        options: Sequence[tuple[str, str]],
    ) -> tuple[str, str]:
        last_ts = max((r.ts for r in log.records), default=0)

        def entry(doc_id, itype):
            record = InteractionRecord(user="suggestion", doc=doc_id, type=itype, ts=last_ts + 1)
            groups = docs_per_type(
                corpus_docs,
                InteractionLog(records=log.records + (record,), type_weights=log.type_weights),
            )
            overall = sum(
                Fraction(w) * self.diversity(groups[t]) for t, w in log.type_weights.items()
            )
            return overall, self.diversity(groups.get(itype, [])), (doc_id, itype)

        _, _, best = self.pick(entry(d, t) for d, t in sorted(options, key=lambda o: (o[1], o[0])))
        return best


def reference_distance(schema: AspectSchema, r1: Sequence[int], r2: Sequence[int]) -> float:
    """Blended distance between two label-index rows, one pair at a time:
    the reference the pair kernel metrics._distance_matrix must reproduce
    bit for bit."""
    total = 0.0
    for aspect, i, j in zip(schema.aspects, r1, r2):
        total += schema.weights[aspect.name] * aspect.matrix[i][j]
    return total


def enumerate_oracle(schema: AspectSchema, pool: Sequence[DocumentProfile], k: int) -> OracleResult:
    """Plain enumeration of every k-subset: the reference the branch and
    bound in max_diversity_oracle must reproduce exactly."""
    n = len(pool)
    if k < 1 or k > n:
        raise ContractError(f"k must satisfy 1 <= k <= |pool| (got k={k}, |pool|={n})")
    total = math.comb(n, k)
    if total > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"C({n}, {k}) = {total} exceeds the enumeration guard "
            f"({ENUMERATION_GUARD}); use greedy_select for pools this large"
        )
    docs = sorted(pool, key=lambda d: d.id)
    rows = [_label_indices(schema, d) for d in docs]
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = reference_distance(schema, rows[i], rows[j])
            matrix[i][j] = d
            matrix[j][i] = d

    pairs = k * (k - 1) // 2
    tolerance = TIE_TOLERANCE * pairs  # on pair sums, not means
    best_combo = None
    best_sum = -1.0
    for combo in combinations(range(n), k):
        # Correctly rounded: the same distances give the same sum in any order.
        s = math.fsum(matrix[i][y] for a, i in enumerate(combo) for y in combo[a + 1:])
        if s > best_sum + tolerance:
            best_sum = s
            best_combo = combo
    chosen = [docs[i] for i in best_combo]
    # Recompute through the metric itself so the reported value is exactly
    # what collection_diversity(best_subset) returns.
    value = collection_diversity(schema, chosen).overall if pairs else 0.0
    return OracleResult(
        best_subset=tuple(d.id for d in chosen),
        best_value=value,
        evaluated=total,
    )


# The modes' bookkeeping before they selected by position in an id-ordered
# pool, kept verbatim for the references below: rows by id, and a result
# built from the selected documents.


def _label_rows(schema: AspectSchema, docs: Sequence[DocumentProfile], what: str) -> dict[str, tuple[int, ...]]:
    """Each document's label-index row by id, from the gate: its entries,
    unique ids and every label are checked there, in the given order,
    before a mode scores any."""
    pool = _pool(schema, docs, what)
    return dict(zip((d.id for d in pool), pool.rows))


def _result(schema: AspectSchema, row: Mapping[str, tuple], selected: list[DocumentProfile], trace: list) -> RerankResult:
    """The result selecting these documents, scored from their rows."""
    report = _diversity(schema, [row[d.id] for d in selected])
    return RerankResult(tuple(d.id for d in selected), report, report.overall, tuple(trace))


# The modes as they scored candidates before per-step tables: one full count
# kernel per candidate per step, and the extended log regrouped per option.


def reference_greedy_select(schema: AspectSchema, pool: Sequence[DocumentProfile], k: int) -> RerankResult:
    """greedy_select scoring every candidate with a full count kernel: the
    reference the per-step tables in diversify.greedy_select must reproduce
    exactly."""
    n = len(pool)
    if k < 1 or k > n:
        raise ContractError(f"k must satisfy 1 <= k <= |pool| (got k={k}, |pool|={n})")
    docs = sorted(pool, key=lambda d: d.id)
    row = _label_rows(schema, docs, "pool")
    trace: list[dict] = []

    if n == 1:
        seed = docs[0]
        trace.append(
            {
                "kind": "seed",
                "doc": seed.id,
                "detail": f"seeded with {seed.id} (only candidate)",
            }
        )
    else:
        best_dist, _, best_pair = _pick(
            (reference_distance(schema, row[docs[i].id], row[docs[j].id]), 0.0, (docs[i], docs[j]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        seed = best_pair[0]
        trace.append(
            {
                "kind": "seed",
                "doc": seed.id,
                "detail": (
                    f"seeded with {seed.id}, smaller id of most distant pair "
                    f"({best_pair[0].id}, {best_pair[1].id}) at distance {best_dist:.12g}"
                ),
            }
        )

    selected = [seed]
    remaining = [d for d in docs if d.id != seed.id]
    before = 0.0  # a single document
    while len(selected) < k:
        rows = [row[d.id] for d in selected]
        best_value, _, best_cand = _pick(
            (_diversity(schema, rows + [row[cand.id]]).overall, 0.0, cand)
            for cand in remaining  # already id-sorted
        )
        selected.append(best_cand)
        remaining = [d for d in remaining if d.id != best_cand.id]
        trace.append(
            {
                "kind": "add",
                "doc": best_cand.id,
                "before": before,
                "after": best_value,
                "gain": best_value - before,
                "detail": (
                    f"added {best_cand.id}: diversity {before:.12g} -> {best_value:.12g}"
                ),
            }
        )
        before = best_value
    return _result(schema, row, selected, trace)


def reference_swap_diversify(
    schema: AspectSchema,
    items: Sequence[DocumentProfile],
    pool: Sequence[DocumentProfile],
    budget: int,
) -> RerankResult:
    """swap_diversify scoring every insertion with a full count kernel: the
    reference diversify.swap_diversify must reproduce exactly."""
    if not items:
        raise ContractError("swap_diversify needs a non-empty starting list")
    if budget < 0:
        raise ContractError(f"swap budget must be >= 0 (got {budget})")
    row = _label_rows(schema, list(items) + list(pool), "list plus pool")

    current = list(items)
    available = list(pool)
    trace: list[dict] = []
    before = _diversity(schema, [row[d.id] for d in current]).overall
    for _ in range(budget):
        if not available:
            break
        rows = [row[d.id] for d in current]
        rests = [rows[:i] + rows[i + 1:] for i in range(len(rows))]
        # Removal preference: highest remainder diversity, then smaller id.
        removal_order = sorted(
            range(len(current)),
            key=lambda i: (-_diversity(schema, rests[i]).overall, current[i].id),
        )
        insertable = sorted(available, key=lambda d: d.id)
        for chosen_idx in removal_order:
            # Insertion choice: highest resulting diversity, then smaller id.
            best_after, _, best_sub = _pick(
                (_diversity(schema, rests[chosen_idx] + [row[cand.id]]).overall, 0.0, cand)
                for cand in insertable
            )
            if best_after > before + SWAP_EPSILON:
                break
        else:
            break
        removed = current[chosen_idx]
        current[chosen_idx] = best_sub
        available = [d for d in available if d.id != best_sub.id] + [removed]
        trace.append(
            {
                "kind": "swap",
                "out": removed.id,
                "in": best_sub.id,
                "before": before,
                "after": best_after,
                "detail": (
                    f"swapped out {removed.id} for {best_sub.id}: "
                    f"diversity {before:.12g} -> {best_after:.12g}"
                ),
            }
        )
        # Exact label counts make the value order-free, so this is current's.
        before = best_after
    return _result(schema, row, current, trace)


def reference_rerank_combined(
    schema: AspectSchema,
    pool: Sequence[DocumentProfile],
    k: int,
    lam: float,
) -> RerankResult:
    """rerank_combined scoring every candidate with a full count kernel: the
    reference diversify.rerank_combined must reproduce exactly."""
    n = len(pool)
    if k < 1 or k > n:
        raise ContractError(f"k must satisfy 1 <= k <= |pool| (got k={k}, |pool|={n})")
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"lambda must lie in [0, 1] (got {lam!r})")
    missing = sorted(d.id for d in pool if d.relevance is None)
    if missing:
        raise ContractError(f"documents missing relevance scores: {missing}")

    if lam == 0.0:
        base = reference_greedy_select(schema, pool, k)
        trace = list(base.trace)
        trace.append(
            {
                "kind": "note",
                "detail": "lambda = 0: selection delegated to pure diversity greedy",
            }
        )
        return replace(base, trace=tuple(trace), objective=base.diversity.overall)

    docs = sorted(pool, key=lambda d: d.id)
    row = _label_rows(schema, docs, "pool")
    selected: list[DocumentProfile] = []
    remaining = list(docs)
    trace: list[dict] = []

    def entry(cand: DocumentProfile) -> tuple[float, float, tuple[DocumentProfile, float]]:
        div_after = _diversity(schema, [row[d.id] for d in selected + [cand]]).overall
        return lam * cand.relevance + (1.0 - lam) * div_after, 0.0, (cand, div_after)

    while len(selected) < k:
        best_score, _, (best_cand, best_div) = _pick(entry(c) for c in remaining)  # id-sorted
        selected.append(best_cand)
        remaining = [d for d in remaining if d.id != best_cand.id]
        trace.append(
            {
                "kind": "add",
                "doc": best_cand.id,
                "relevance": best_cand.relevance,
                "diversity_after": best_div,
                "score": best_score,
                "detail": (
                    f"added {best_cand.id}: score {best_score:.12g} "
                    f"(relevance {best_cand.relevance:.12g}, "
                    f"diversity {best_div:.12g}, lambda {lam:.12g})"
                ),
            }
        )

    result = _result(schema, row, selected, trace)
    mean_rel = sum(d.relevance for d in selected) / len(selected)
    return replace(result, objective=lam * mean_rel + (1.0 - lam) * result.diversity.overall)


def reference_suggest_interaction(
    schema: AspectSchema,
    corpus_docs: Mapping[str, DocumentProfile],
    log: InteractionLog,
    options: Sequence[tuple[str, str]],
) -> RerankResult:
    """suggest_interaction regrouping the extended log for every option: the
    reference diversify.suggest_interaction must reproduce exactly."""
    if not options:
        raise ContractError("options must be non-empty")
    unresolved = sorted({doc_id for doc_id, _ in options if doc_id not in corpus_docs})
    if unresolved:
        raise UnknownEntityError(
            f"options reference unknown documents: {unresolved}"
        )
    # Every label is checked before any option is scored: the log's documents
    # (docs_per_type reports unknown ones), then the options'.
    logged = [r.doc for r in log.records if r.doc in corpus_docs]
    for doc_id in dict.fromkeys(logged + [doc_id for doc_id, _ in options]):
        _label_indices(schema, corpus_docs[doc_id])
    last_ts = max((r.ts for r in log.records), default=0)

    def entry(doc_id: str, itype: str) -> tuple[float, float, tuple[str, str]]:
        record = InteractionRecord(user="suggestion", doc=doc_id, type=itype, ts=last_ts + 1)
        ext = InteractionLog(records=log.records + (record,), type_weights=log.type_weights)
        own = collection_diversity(schema, docs_per_type(corpus_docs, ext).get(itype, [])).overall
        return interaction_diversity(schema, corpus_docs, ext), own, (doc_id, itype)

    best_overall, _, (doc_id, itype) = _pick(
        entry(doc_id, itype) for doc_id, itype in sorted(options, key=lambda o: (o[1], o[0]))
    )
    return RerankResult(
        selected=(doc_id,),
        diversity=collection_diversity(schema, [corpus_docs[doc_id]]),
        objective=best_overall,
        trace=(
            {
                "kind": "suggest",
                "doc": doc_id,
                "type": itype,
                "overall": best_overall,
                "detail": (
                    f"suggest {itype} on {doc_id}: extended interaction "
                    f"diversity {best_overall:.12g}"
                ),
            },
        ),
    )


def reference_next_in_sequence(
    schema: AspectSchema,
    history: Sequence[DocumentProfile],
    candidates: Sequence[DocumentProfile],
    window: Window,
    gamma: float = DEFAULT_GAMMA,
) -> RerankResult:
    """next_in_sequence scoring every distinct candidate row with a full count
    kernel over the window plus that row: the reference
    diversify.next_in_sequence must reproduce exactly."""
    if not candidates:
        raise ContractError("candidate set must be non-empty")
    if not 0.0 < gamma <= 1.0:
        raise ContractError(f"gamma must lie in (0, 1] (got {gamma!r})")
    # The window's labels are checked first, then the candidates' in id order.
    # Both values read only rows, so they are scored once per row.
    recent = [_label_indices(schema, d) for d in window_slice(history, window)]
    ordered = sorted(candidates, key=lambda d: d.id)
    keys = [_label_indices(schema, cand) for cand in ordered]
    scores: dict[tuple, tuple[float, float]] = {}
    for key in keys:
        if key not in scores:
            affinity = 0.0
            for age, r in enumerate(reversed(recent)):
                affinity += (gamma**age) * reference_distance(schema, key, r)
            scores[key] = (_diversity(schema, recent + [key]).overall, affinity)
    best_primary, _, best = _pick((*scores[key], cand) for key, cand in zip(keys, ordered))
    return RerankResult(
        selected=(best.id,),
        diversity=collection_diversity(schema, [best]),
        objective=best_primary,
        trace=(
            {
                "kind": "next",
                "doc": best.id,
                "window_diversity": best_primary,
                "detail": (
                    f"next item {best.id}: windowed diversity with it "
                    f"{best_primary:.12g}"
                ),
            },
        ),
    )


# explain before its trace kinds were declared in one table, kept verbatim
# but for one rule: a trace record of a kind missing here is refused. The
# explain tests compare rules.explain_result against it.
# Trace fields explain_result reads, by record kind. An "add" record is also
# read for whichever of "gain" and "score" it has.
EXPLAINED_FIELDS = {
    "seed": ("doc",),
    "add": ("doc",),
    "exclude": ("doc", "rule"),
    "boost": ("doc", "rule", "before", "after"),
    "boost_rule": ("rule", "delta", "matched", "clamped"),
    "swap": ("out", "in", "before", "after"),
    "violation": ("rule", "needed", "found"),
    **dict.fromkeys(("warning", "next", "suggest", "note"), ("detail",)),
    "keyword_diversity": (),
}
NUMBER_FIELDS = frozenset(
    {"delta", "before", "after", "matched", "clamped", "needed", "found", "gain", "score"}
)
# The number fields explain prints as they are; it formats the others as floats.
COUNT_FIELDS = frozenset({"matched", "clamped", "needed", "found"})


def _check_explainable(data: Mapping) -> None:
    """Raise ValidationError unless a result has the shapes explain_result reads."""
    selected, diversity, trace = data.get("selected", []), data.get("diversity", {}), data.get("trace", [])
    if not isinstance(selected, (list, tuple)) or not all(isinstance(s, str) for s in selected):
        raise ValidationError(f"result 'selected' must be a list of document ids (got {selected!r})")
    if not isinstance(diversity, Mapping) or not isinstance(diversity.get("per_aspect", {}), Mapping):
        raise ValidationError("result 'diversity' must be an object with a 'per_aspect' object")
    if not isinstance(trace, (list, tuple)) or not all(isinstance(t, Mapping) for t in trace):
        raise ValidationError("result 'trace' must be a list of objects")
    numbers = {f"{a} diversity": v for a, v in diversity.get("per_aspect", {}).items()}
    counts = set()  # the numbers explain prints as they are
    if "overall" in diversity:
        numbers["overall diversity"] = diversity["overall"]
    if "objective" in data:
        numbers["objective"] = data["objective"]
    if data.get("keyword_diversity") is not None:
        numbers["keyword diversity"] = data["keyword_diversity"]
    for i, record in enumerate(trace):
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in EXPLAINED_FIELDS:
            raise ValidationError(f"result trace record {i} has an undeclared kind {kind!r}")
        fields = EXPLAINED_FIELDS[kind]
        if kind == "add":
            fields += tuple(f for f in ("gain", "score") if f in record)
        for field in fields:
            where = f"trace record {i} ({kind}) field {field!r}"
            if field in NUMBER_FIELDS:
                numbers[where] = record.get(field)
                if field in COUNT_FIELDS:
                    counts.add(where)
            elif not isinstance(record.get(field), str):
                raise ValidationError(f"result {where} must be a string (got {record.get(field)!r})")
    for where, value in numbers.items():
        if not json_isinstance(value, (int, float)):
            raise ValidationError(f"result {where} must be a number (got {value!r})")
        if where not in counts:
            json_float(value, f"result {where}")


def reference_explain_result(result) -> str:
    """Render a human-readable explanation of a diversification result.

    Works on a RerankResult or its serialized dict; a field it reads with
    the wrong shape, or a trace kind it does not know, raises
    ValidationError. Selected items show the marginal
    diversity recorded when they were added, swaps show their narrative, and
    rule effects come from the trace.
    """
    data = result.as_dict() if hasattr(result, "as_dict") else dict(result)
    _check_explainable(data)
    trace = data.get("trace", [])

    lines = []
    selected = data.get("selected", [])
    diversity = data.get("diversity", {})
    lines.append(f"selected: {', '.join(selected) if selected else '(empty)'}")
    if "overall" in diversity:
        lines.append(f"overall diversity: {diversity['overall']:.12g}")
        for aspect in sorted(diversity.get("per_aspect", {})):
            lines.append(
                f"  {aspect}: {diversity['per_aspect'][aspect]:.12g}"
            )
    if "objective" in data:
        lines.append(f"objective: {data['objective']:.12g}")
    if data.get("keyword_diversity") is not None:
        lines.append(f"keyword diversity: {data['keyword_diversity']:.12g}")

    adds = {t["doc"]: t for t in trace if t.get("kind") == "add"}
    seeds = {t["doc"]: t for t in trace if t.get("kind") == "seed"}
    boosts: dict[str, list[dict]] = {}
    for t in trace:
        if t.get("kind") == "boost":
            boosts.setdefault(t["doc"], []).append(t)
    lines.append("selection detail:")
    for rank, doc_id in enumerate(selected, start=1):
        parts = [f"  {rank}. {doc_id}"]
        if doc_id in seeds:
            parts.append("seed")
        elif doc_id in adds:
            rec = adds[doc_id]
            if "gain" in rec:
                parts.append(f"marginal diversity {rec['gain']:+.12g}")
            elif "score" in rec:
                parts.append(f"step score {rec['score']:.12g}")
        for b in boosts.get(doc_id, []):
            parts.append(f"boost {b['after'] - b['before']:+.12g} by {b['rule']}")
        lines.append("  ".join(parts))

    swaps = [t for t in trace if t.get("kind") == "swap"]
    if swaps:
        lines.append("swaps:")
        for s in swaps:
            lines.append(
                f"  out {s['out']} in {s['in']}: "
                f"diversity {s['before']:.12g} -> {s['after']:.12g}"
            )

    rule_records = [
        t for t in trace if t.get("kind") in ("exclude", "boost_rule", "boost", "violation")
    ]
    if rule_records:
        lines.append("rules:")
        for t in rule_records:
            if t["kind"] == "exclude":
                lines.append(f"  excluded {t['doc']} (rule {t['rule']})")
            elif t["kind"] == "boost_rule":
                lines.append(
                    f"  rule {t['rule']} boosted {t['matched']} documents "
                    f"by {t['delta']:+.12g} ({t['clamped']} clamped)"
                )
            elif t["kind"] == "boost":
                lines.append(
                    f"  boosted {t['doc']} by {t['after'] - t['before']:+.12g} (rule {t['rule']})"
                )
            else:
                lines.append(
                    f"  VIOLATION: rule {t['rule']} needs {t['needed']} "
                    f"matching, selection has {t['found']}"
                )
    else:
        lines.append("rules: none")

    warnings = [t for t in trace if t.get("kind") == "warning"]
    for w in warnings:
        lines.append(f"warning: {w['detail']}")
    notes = [t for t in trace if t.get("kind") in ("next", "suggest", "note")]
    for t in notes:
        lines.append(f"note: {t['detail']}")
    return "\n".join(lines)


def _reference_iter_jsonl(text: str, what: str):
    """(line number, object) per non-blank line; decode errors name `what`."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)  # not load_json: one call frame less per line
        except (ValueError, RecursionError) as exc:
            raise json_decode_error(exc, f"{what} line {lineno}") from exc
        yield lineno, obj


def _reference_validate_labels(schema: AspectSchema, labels: Mapping[str, str], where: str) -> None:
    """Exactly one known label per schema aspect; nothing else."""
    names = set(schema.aspect_names())
    extra = set(labels) - names
    if extra:
        raise ValidationError(f"{where}: labels for unknown aspects {sorted(extra)}")
    for aspect in schema.aspects:
        if aspect.name not in labels:
            raise ValidationError(f"{where}: missing label for aspect {aspect.name!r}")
        value = labels[aspect.name]
        if value not in aspect.labels:  # tuple membership: lists and dicts are just unknown
            raise ValidationError(
                f"{where}: unknown {aspect.name} label {value!r}"
            )


def reference_load_corpus(schema: AspectSchema, text: str) -> Corpus:
    """The corpus loader before the C-scanner decode and the schema's row
    table: a json.loads per line and validate_labels per document, the
    reference corpus_io.load_corpus must match in result and message. A
    line's own fields are checked first, in the order a document checks
    them as it is built (its keyword list first, as the loader parses it
    before it builds the document), then the duplicate id, then the labels
    of the document and of each keyword against the schema."""
    documents: dict[str, DocumentProfile] = {}
    for lineno, obj in _reference_iter_jsonl(text, "corpus"):
        if not isinstance(obj, dict):
            raise ValidationError(f"corpus line {lineno}: document must be a JSON object")
        doc_id = obj.get("id")
        keywords = obj.get("keywords")
        if keywords is not None and not isinstance(keywords, list):
            raise ValidationError(f"corpus line {lineno}: 'keywords' for {doc_id!r} must be a list")
        for entry in keywords or ():
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("term"), str)
                or not isinstance(entry.get("labels"), dict)
            ):
                raise ValidationError(f"corpus line {lineno}: keyword entries need a 'term' and a 'labels' map")
        if not isinstance(doc_id, str) or not doc_id:
            raise ValidationError(f"corpus line {lineno}: document needs a non-empty string 'id'")
        labels = obj.get("labels")
        if not isinstance(labels, dict):
            raise ValidationError(f"corpus line {lineno}: document {doc_id!r} needs a 'labels' map")
        relevance = obj.get("relevance")
        if relevance is not None:
            if not json_isinstance(relevance, (int, float)) or not 0.0 <= relevance <= 1.0:
                raise ValidationError(
                    f"corpus line {lineno}: relevance for {doc_id!r} must lie in [0, 1] "
                    f"(got {relevance!r})"
                )
            relevance = float(relevance)
        timestamp = obj.get("timestamp")
        if timestamp is not None and not json_isinstance(timestamp, int):
            raise ValidationError(
                f"corpus line {lineno}: timestamp for {doc_id!r} must be an integer"
            )
        if doc_id in documents:
            raise ValidationError(f"corpus line {lineno}: duplicate document id {doc_id!r}")
        _reference_validate_labels(schema, labels, f"corpus line {lineno}")
        keywords = tuple(Keyword(term=entry["term"], labels=dict(entry["labels"])) for entry in keywords or ())
        for kw in keywords:
            _reference_validate_labels(schema, kw.labels, f"corpus line {lineno}: keyword {kw.term!r}")
        documents[doc_id] = DocumentProfile(
            id=doc_id,
            labels=dict(labels),
            relevance=relevance,
            timestamp=timestamp,
            keywords=keywords,
        )
    return Corpus(documents=documents)

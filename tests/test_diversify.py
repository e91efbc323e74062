"""Greedy, swap, sequence, summary, interaction, and blended re-ranking."""

import itertools
import random
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import newsdiv.diversify as diversify_mod
import newsdiv.metrics as metrics_mod
import newsdiv.oracle as oracle_mod
from newsdiv.aspect_model import Aspect, AspectSchema
from newsdiv.diversify import (
    SWAP_EPSILON,
    exclude_history,
    greedy_select,
    next_in_sequence,
    rerank_combined,
    select_summary_sources,
    suggest_interaction,
    swap_diversify,
)
from newsdiv.errors import ContractError, UnknownEntityError, ValidationError
from newsdiv.metrics import (
    DocumentProfile,
    InteractionLog,
    InteractionRecord,
    Keyword,
    Window,
    collection_diversity,
    interaction_diversity,
    keyword_diversity,
)
from newsdiv.oracle import max_diversity_oracle

from helpers import (
    ExactReference,
    combined_objective,
    random_docs,
    random_schema,
    reference_greedy_select,
    reference_next_in_sequence,
    reference_rerank_combined,
    reference_suggest_interaction,
    reference_swap_diversify,
)


def doc(doc_id, topic, frame, **kw):
    return DocumentProfile(id=doc_id, labels={"topic": topic, "frame": frame}, **kw)


def one_aspect_schema():
    aspect = Aspect("topic", ["C", "I"], distances={("C", "I"): 1.0})
    return AspectSchema(aspects=(aspect,), weights={"topic": 1.0})


# --- greedy selection ---


def test_greedy_reaches_oracle_value_on_example_pool(schema, pool):
    for k in range(1, 9):
        greedy = greedy_select(schema, pool, k)
        oracle = max_diversity_oracle(schema, pool, k)
        assert greedy.diversity.overall == pytest.approx(oracle.best_value, abs=1e-9), k


def test_greedy_selection_order_is_frozen(schema, pool):
    result = greedy_select(schema, pool, 8)
    assert result.selected == ("a1", "a7", "a2", "a8", "a3", "a5", "a4", "a6")


def test_greedy_k4(schema, pool):
    result = greedy_select(schema, pool, 4)
    assert result.selected == ("a1", "a7", "a2", "a8")
    assert result.diversity.overall == pytest.approx(3 / 4, abs=1e-9)
    assert result.objective == result.diversity.overall
    kinds = [t["kind"] for t in result.trace]
    assert kinds == ["seed", "add", "add", "add"]
    # growing past the perfect pair necessarily dilutes the mean
    afters = [t["after"] for t in result.trace[1:]]
    assert afters == pytest.approx([1.0, 3 / 4, 3 / 4], abs=1e-9)


def test_greedy_k1_takes_smaller_id_of_most_distant_pair(schema, pool):
    assert greedy_select(schema, pool, 1).selected == ("a1",)


def test_greedy_seed_tie_breaks_to_smallest_id_pair():
    aspect = Aspect(
        "topic", ["A", "B", "C"],
        distances={("A", "B"): 1.0, ("A", "C"): 1.0, ("B", "C"): 1.0},
    )
    schema = AspectSchema(aspects=(aspect,), weights={"topic": 1.0})
    docs = [
        DocumentProfile(id="z", labels={"topic": "A"}),
        DocumentProfile(id="m", labels={"topic": "B"}),
        DocumentProfile(id="k", labels={"topic": "C"}),
    ]
    # every pair is at distance 1; (k, m) is the lexicographically smallest
    assert greedy_select(schema, docs, 2).selected == ("k", "m")


def test_greedy_rejects_bad_k_and_duplicate_ids(schema, pool):
    with pytest.raises(ContractError, match="k must satisfy"):
        greedy_select(schema, pool, 0)
    with pytest.raises(ContractError, match="k must satisfy"):
        greedy_select(schema, pool, 9)
    with pytest.raises(ContractError, match="duplicate"):
        greedy_select(schema, pool + [pool[0]], 2)
    # Sequence mode rejects them too, even with an empty window.
    with pytest.raises(ContractError, match="duplicate"):
        next_in_sequence(schema, [], [pool[0], pool[0]], Window("last", 0))


@pytest.mark.parametrize("k", [1.5, True, "2", None])
@pytest.mark.parametrize(
    "call",
    [greedy_select, select_summary_sources, lambda schema, pool, k: rerank_combined(schema, pool, k, 0.5)],
    ids=["greedy", "summary", "blend"],
)
def test_k_must_be_an_integer(schema, pool, call, k):
    with pytest.raises(ContractError, match="k must satisfy"):
        call(schema, pool, k)


@pytest.mark.parametrize("value", ["0.5", None, True], ids=["str", "None", "True"])
def test_lambda_and_gamma_must_be_numbers(schema, pool, value):
    with pytest.raises(ContractError) as info:
        rerank_combined(schema, pool[:3], 1, value)
    assert str(info.value) == f"lambda must lie in [0, 1] (got {value!r})"
    with pytest.raises(ContractError) as info:
        next_in_sequence(schema, pool[:2], pool[2:3], Window("last", 1), value)
    assert str(info.value) == f"gamma must lie in (0, 1] (got {value!r})"


@given(st.integers(min_value=0, max_value=3_000))
def test_greedy_never_beats_the_oracle(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=5)
    docs = random_docs(rng, schema, rng.randint(1, 8))
    k = rng.randint(1, len(docs))
    greedy = greedy_select(schema, docs, k)
    oracle = max_diversity_oracle(schema, docs, k)
    assert greedy.diversity.overall <= oracle.best_value + 1e-9


# --- swap-based improvement ---


def swap_fixture(schema):
    items = [doc(f"s{i}", "Climate", "Health") for i in range(1, 5)]
    pool = [
        doc("p1", "Immigration", "Security"),
        doc("p2", "Climate", "Cultural"),
        doc("p3", "Immigration", "Economy"),
    ]
    return items, pool


def test_swap_worked_example(schema):
    items, pool = swap_fixture(schema)
    result = swap_diversify(schema, items, pool, budget=3)
    swaps = [t for t in result.trace if t["kind"] == "swap"]
    assert len(swaps) == 3
    assert result.diversity.overall == pytest.approx(3 / 4, abs=1e-9)
    # matches the exhaustive optimum over the 7-doc union
    union = items + pool
    oracle = max_diversity_oracle(schema, union, 4)
    assert result.diversity.overall == pytest.approx(oracle.best_value, abs=1e-9)
    for record in swaps:
        assert record["after"] > record["before"]


def test_swap_keeps_list_length_and_position(schema):
    items, pool = swap_fixture(schema)
    result = swap_diversify(schema, items, pool, budget=3)
    assert len(result.selected) == 4
    assert len(set(result.selected)) == 4


def test_swap_leaves_optimal_list_unchanged(schema, pool, by_id):
    items = [by_id[i] for i in ("a1", "a2", "a7", "a8")]
    rest = [d for d in pool if d.id not in {"a1", "a2", "a7", "a8"}]
    result = swap_diversify(schema, items, rest, budget=5)
    assert result.selected == ("a1", "a2", "a7", "a8")
    assert not [t for t in result.trace if t["kind"] == "swap"]


def test_swap_budget_zero_is_identity(schema):
    items, pool = swap_fixture(schema)
    result = swap_diversify(schema, items, pool, budget=0)
    assert result.selected == tuple(d.id for d in items)


def test_swap_validation(schema):
    items, pool = swap_fixture(schema)
    with pytest.raises(ContractError):
        swap_diversify(schema, [], pool, budget=1)
    with pytest.raises(ContractError):
        swap_diversify(schema, items, pool, budget=-1)
    with pytest.raises(ContractError, match="duplicate"):
        swap_diversify(schema, items + [items[0]], pool, budget=1)


def test_swap_checks_labels_in_the_order_given(schema):
    """The list and the pool are one pool, checked in the order given: the
    list's first fault is reported, though a fault in the pool has an id
    that sorts first."""
    items, pool = swap_fixture(schema)
    late = doc("z1", "Nowhere", "Health")
    early = doc("a0", "Climate", "Nowhere")
    with pytest.raises(UnknownEntityError) as info:
        swap_diversify(schema, [*items, late], [early, *pool], 1)
    assert str(info.value) == "document 'z1' uses unknown label 'Nowhere' for aspect 'topic'"
    with pytest.raises(UnknownEntityError) as info:
        swap_diversify(schema, items, [*pool, early], 1)
    assert str(info.value) == "document 'a0' uses unknown label 'Nowhere' for aspect 'frame'"


@pytest.mark.parametrize("budget", [1.5, True])
def test_swap_budget_must_be_an_integer(schema, budget):
    items, pool = swap_fixture(schema)
    with pytest.raises(ContractError, match="swap budget must be an integer"):
        swap_diversify(schema, items, pool, budget=budget)


@given(st.integers(min_value=0, max_value=3_000))
def test_swap_trajectory_is_strictly_increasing(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=5)
    docs = random_docs(rng, schema, rng.randint(3, 12))
    split = rng.randint(1, len(docs) - 1)
    items, pool = docs[:split], docs[split:]
    budget = rng.randint(0, 6)
    start = collection_diversity(schema, items).overall
    result = swap_diversify(schema, items, pool, budget)
    swaps = [t for t in result.trace if t["kind"] == "swap"]
    assert len(swaps) <= budget
    last = start
    for record in swaps:
        assert record["before"] == pytest.approx(last, abs=1e-12)
        assert record["after"] > record["before"]
        last = record["after"]
    assert result.diversity.overall >= start - 1e-12


# --- sequence mode ---


def test_next_prefers_the_window_diversifier(schema):
    history = [doc("h1", "Climate", "Health"), doc("h2", "Immigration", "Security")]
    candidates = [doc("c1", "Climate", "Health"), doc("c2", "Immigration", "Economy")]
    assert next_in_sequence(schema, history, candidates, Window("last", 2)).selected == ("c2",)


def test_next_returns_the_winner_with_its_window_diversity(schema):
    history = [doc("h1", "Climate", "Health"), doc("h2", "Immigration", "Security")]
    candidates = [doc("c1", "Climate", "Health"), doc("c2", "Immigration", "Economy")]
    result = next_in_sequence(schema, history, candidates, Window("last", 2))
    window_value = collection_diversity(schema, history + [candidates[1]]).overall
    assert result.objective == window_value
    assert result.diversity == collection_diversity(schema, [candidates[1]])
    (record,) = result.trace
    assert (record["kind"], record["doc"]) == ("next", "c2")
    assert record["window_diversity"] == window_value


def test_next_breaks_primary_ties_by_recency_affinity(schema):
    # both candidates lift the window to 3/4; the Cultural/Climate one sits
    # farther from the most recent item under gamma decay
    history = [doc("h1", "Climate", "Health"), doc("h2", "Immigration", "Security")]
    candidates = [doc("n1", "Immigration", "Cultural"), doc("n2", "Climate", "Cultural")]
    assert next_in_sequence(schema, history, candidates, Window("last", 2)).selected == ("n2",)


def test_next_breaks_full_ties_by_id(schema):
    history = [doc("h1", "Climate", "Health"), doc("h2", "Immigration", "Security")]
    # fully symmetric pair: same primary diversity and same decayed affinity
    candidates = [doc("n2", "Climate", "Security"), doc("n1", "Immigration", "Health")]
    assert next_in_sequence(schema, history, candidates, Window("last", 2)).selected == ("n1",)


def test_next_on_empty_window_falls_back_to_smallest_id(schema):
    history = [doc("h1", "Climate", "Health", timestamp=1)]
    candidates = [doc("c2", "Immigration", "Security"), doc("c1", "Climate", "Economy")]
    assert next_in_sequence(schema, history, candidates, Window("last", 0)).selected == ("c1",)


def test_next_validation(schema):
    history = [doc("h1", "Climate", "Health")]
    cands = [doc("c1", "Immigration", "Security")]
    with pytest.raises(ContractError):
        next_in_sequence(schema, history, [], Window("last", 1))
    with pytest.raises(ContractError, match="gamma"):
        next_in_sequence(schema, history, cands, Window("last", 1), gamma=2.0)
    with pytest.raises(ContractError, match="gamma"):
        next_in_sequence(schema, history, cands, Window("last", 1), gamma=0.0)


@pytest.mark.parametrize("kind", ["last", "cutoff"])
@pytest.mark.parametrize("value", [1.5, True, "2"])
def test_window_value_must_be_an_integer(kind, value):
    with pytest.raises(ValidationError, match="window value must be an integer"):
        Window(kind, value)


@given(st.integers(min_value=0, max_value=3_000))
def test_next_matches_the_exact_reference(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=5)
    import dataclasses

    history = random_docs(rng, schema, rng.randint(0, 8))
    candidates = [
        dataclasses.replace(c, id="c" + c.id)  # keep ids disjoint from history
        for c in random_docs(rng, schema, rng.randint(1, 8))
    ]
    window = Window("last", rng.randint(0, len(history)))
    gamma = rng.choice([0.25, 0.5, 1.0])
    assert next_in_sequence(schema, history, candidates, window, gamma).selected == (
        ExactReference(schema).next_in_sequence(history, candidates, window, gamma),
    )


# --- every tie rule against exact arithmetic ---


def small_instance(seed):
    """Seeded schema of <= 3 aspects x <= 3 labels with 3-10 documents.

    So few labels make exact ties common, which float rounding used to
    break in either direction.
    """
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=3)
    return rng, schema, random_docs(rng, schema, rng.randint(3, 10))


def test_greedy_steps_match_the_exact_reference():
    for seed in range(1500):
        _, schema, docs = small_instance(seed)
        got = greedy_select(schema, docs, len(docs)).selected
        assert got == ExactReference(schema).greedy(docs, len(docs)), seed


def test_swap_insertions_match_the_exact_reference():
    for seed in range(400):
        rng, schema, docs = small_instance(seed)
        split = rng.randint(1, len(docs) - 1)
        items, rest = docs[:split], docs[split:]
        budget = rng.randint(1, 6)
        got = swap_diversify(schema, items, rest, budget).selected
        assert got == ExactReference(schema).swap(items, rest, budget, SWAP_EPSILON), seed


def test_sequence_picks_match_the_exact_reference():
    for seed in range(400):
        rng, schema, docs = small_instance(seed)
        split = rng.randint(0, len(docs) - 1)
        history, candidates = docs[:split], docs[split:]
        window = Window("last", rng.randint(0, len(history)))
        gamma = rng.choice([0.25, 0.5, 1.0])
        got = next_in_sequence(schema, history, candidates, window, gamma).selected
        want = ExactReference(schema).next_in_sequence(history, candidates, window, gamma)
        assert got == (want,), seed


def test_sequence_picks_over_few_label_tuples_match_the_exact_reference():
    """Candidates are scored once per label tuple; 200+ of them sharing at
    most six tuples must still pick what the exact reference picks."""
    for seed in range(20):
        rng = random.Random(seed)
        schema = random_schema(rng, max_aspects=3, max_labels=3)
        tuples = [d.labels for d in random_docs(rng, schema, rng.randint(1, 6))]
        candidates = [
            DocumentProfile(id=f"c{i:03d}", labels=rng.choice(tuples))
            for i in range(rng.randint(200, 240))
        ]
        rng.shuffle(candidates)
        history = random_docs(rng, schema, rng.randint(0, 6))
        window = Window("last", rng.randint(0, len(history)))
        gamma = rng.choice([0.25, 0.5, 1.0])
        got = next_in_sequence(schema, history, candidates, window, gamma).selected
        want = ExactReference(schema).next_in_sequence(history, candidates, window, gamma)
        assert got == (want,), seed


def test_sequence_label_errors_name_the_window_before_the_candidates(schema):
    history = [doc("h1", "Climate", "Health"), doc("h2", "Sports", "Health")]
    candidates = [
        doc("c2", "Climate", "Economy"),
        DocumentProfile(id="c3", labels={"topic": "Climate", "frame": ["Health"]}),
        DocumentProfile(id="c1", labels={"topic": "Climate"}),
    ]
    # The candidates' labels are checked in the order given, not in id order.
    with pytest.raises(UnknownEntityError, match=r"'c3' uses unknown label \['Health'\]"):
        next_in_sequence(schema, history[:1], candidates, Window("last", 1))
    with pytest.raises(ContractError, match="'c1' is missing a label for aspect 'frame'"):
        next_in_sequence(schema, history[:1], candidates[::-1], Window("last", 1))
    with pytest.raises(UnknownEntityError, match="'h2' uses unknown label 'Sports'"):
        next_in_sequence(schema, history, candidates, Window("last", 2))
    # Duplicate candidate ids are checked after the window's labels and
    # before the candidates' labels.
    with pytest.raises(ContractError, match=r"candidate set contains duplicate document ids: \['c1'\]"):
        next_in_sequence(schema, history[:1], candidates + [candidates[2]], Window("last", 1))
    with pytest.raises(UnknownEntityError, match="'h2' uses unknown label 'Sports'"):
        next_in_sequence(schema, history, candidates + [candidates[2]], Window("last", 2))


def _zz(relevance=None):
    return doc("zz", "Sports", "Health", relevance=relevance)


def _suggest_on_zz(schema, pool):
    corpus_docs = {"a1": pool[0], "zz": _zz()}
    log = InteractionLog(
        records=(InteractionRecord(user="u", doc="a1", type="like", ts=1),),
        type_weights={"like": 0.5, "share": 0.5},
    )
    return suggest_interaction(schema, corpus_docs, log, [("zz", "share")])


def _interaction_diversity_on_zz(schema, pool):
    log = InteractionLog(
        records=(InteractionRecord(user="u", doc="zz", type="like", ts=1),),
        type_weights={"like": 1.0},
    )
    return interaction_diversity(schema, {"zz": _zz()}, log)


@pytest.mark.parametrize(
    "call",
    [
        lambda schema, pool: next_in_sequence(schema, [], [_zz()], Window("last", 0)),
        lambda schema, pool: swap_diversify(schema, pool[:2], [_zz()], 0),
        lambda schema, pool: swap_diversify(schema, [_zz()], [], 1),
        lambda schema, pool: greedy_select(schema, [_zz()], 1),
        lambda schema, pool: select_summary_sources(schema, [_zz()], 1),
        lambda schema, pool: rerank_combined(schema, [_zz(relevance=0.5)], 1, 1.0),
        _suggest_on_zz,
        _interaction_diversity_on_zz,
        lambda schema, pool: collection_diversity(schema, [_zz()]),
        lambda schema, pool: keyword_diversity(schema, [Keyword("zz", {"topic": "Sports", "frame": "Health"})]),
    ],
    ids=["sequence-empty-window", "swap-budget-0", "swap-empty-pool", "greedy-k1", "summary-k1",
         "blend-lambda-1", "interaction-no-pairs", "interaction-diversity-of-one", "diversity-of-one",
         "keyword-diversity-of-one"],
)
def test_every_bad_label_raises_whatever_gets_scored(schema, pool, call):
    """A label is checked whether or not any pair it belongs to is scored."""
    with pytest.raises(UnknownEntityError, match="zz"):
        call(schema, pool)


def test_each_input_document_is_resolved_once_per_call(monkeypatch):
    """Every mode resolves each input document's labels exactly once, and each
    pooled keyword's once."""
    counts = Counter()
    resolve = metrics_mod._label_indices

    def counted(schema, d):
        counts[d.id] += 1
        return resolve(schema, d)

    for module in (metrics_mod, diversify_mod, oracle_mod):
        if hasattr(module, "_label_indices"):
            monkeypatch.setattr(module, "_label_indices", counted)

    for seed in range(80):
        rng = random.Random(seed)
        schema = random_schema(rng, max_aspects=3, max_labels=5)
        docs = [
            replace(d, keywords=tuple(
                Keyword(f"{d.id}.{j}", {a.name: rng.choice(a.labels) for a in schema.aspects})
                for j in range(rng.randint(0, 2))
            ))
            for d in random_docs(rng, schema, rng.randint(4, 14), with_relevance=True, with_timestamps=True)
        ]
        k, split = rng.randint(1, len(docs)), rng.randint(1, len(docs) - 1)
        head, tail = docs[:split], docs[split:]
        recent = head[len(head) - rng.randint(0, len(head)):]
        lam = rng.choice([0.0, 0.5, 1.0])
        by_id = {d.id: d for d in docs}
        types = ("click", "like", "skip")
        records = tuple(
            InteractionRecord(user="u", doc=rng.choice(docs).id, type=rng.choice(types), ts=t)
            for t in range(rng.randint(0, 8))
        )
        log = InteractionLog(records, {"click": 0.5, "like": 0.5})
        options = [(rng.choice(docs).id, rng.choice(types)) for _ in range(rng.randint(1, 6))]
        touched = {r.doc for r in records} | {doc_id for doc_id, _ in options}
        # (call, input documents, keywords pooled)
        cases = [
            (lambda: greedy_select(schema, docs, k).selected, docs, False),
            (lambda: select_summary_sources(schema, docs, k).selected, docs, True),
            (lambda: rerank_combined(schema, docs, k, lam).selected, docs, False),
            (lambda: swap_diversify(schema, head, tail, rng.randint(0, 4)).selected, docs, False),
            (lambda: next_in_sequence(schema, head, tail, Window("last", len(recent))).selected, recent + tail, False),
            (lambda: max_diversity_oracle(schema, docs, k).best_subset, docs, False),
            (lambda: suggest_interaction(schema, by_id, log, options).selected,
             [d for d in docs if d.id in touched], False),
        ]
        for run, inputs, pooled in cases:
            counts.clear()
            selected = run()
            doc_counts = {i: c for i, c in counts.items() if i in by_id}
            assert doc_counts == dict.fromkeys((d.id for d in inputs), 1), (seed, doc_counts)
            keywords = sum(len(by_id[i].keywords) for i in selected) if pooled else 0
            assert sorted(c for i, c in counts.items() if i not in by_id) == [1] * keywords, (seed, counts)


def test_interaction_picks_match_the_exact_reference():
    for seed in range(400):
        rng, schema, docs = small_instance(seed)
        corpus_docs = {d.id: d for d in docs}
        types = ("click", "like", "share")[: rng.randint(1, 3)]
        records = tuple(
            InteractionRecord(user="u", doc=rng.choice(docs).id, type=rng.choice(types), ts=t)
            for t in range(rng.randint(0, 6))
        )
        raw = [rng.choice([1, 2, 3]) for _ in types]
        log = InteractionLog(records, {t: w / sum(raw) for t, w in zip(types, raw)})
        options = [(d.id, t) for d in docs for t in types]
        got = suggest_interaction(schema, corpus_docs, log, options)
        want = ExactReference(schema).suggest_interaction(corpus_docs, log, options)
        assert (got.selected[0], got.trace[0]["type"]) == want, seed


# --- each step's values against a full count kernel per candidate ---


def step_instance(seed):
    """Seeded schema, pool and interaction log for the equivalence test.

    Pools cycle through four shapes: random distances, a few repeated label
    tuples, a first aspect whose distances are all 0, and distances 0.5 +
    {0, 1e-9 - 2e-10, 1e-9, 1e-9 + 2e-10, 2e-9}, so that picks sit at and
    around TIE_TOLERANCE. Relevance is drawn from few values, so blend
    scores tie too.
    """
    rng = random.Random(seed)
    shape = seed % 4
    aspects = []
    for a in range(rng.randint(1, 3)):
        labels = [f"a{a}l{j}" for j in range(rng.randint(2, 5))]
        values = {2: [0.0] * (a == 0), 3: [0.5 + g for g in (0.0, 8e-10, 1e-9, 1.2e-9, 2e-9)]}.get(shape)
        distances = {
            (x, y): rng.choice(values) if values else round(rng.uniform(0.0, 1.0), 6)
            for i, x in enumerate(labels)
            for y in labels[i + 1:]
        }
        aspects.append(Aspect(f"aspect{a}", labels, distances=distances))
    raw = [rng.choice([1, 2, 3]) for _ in aspects]
    schema = AspectSchema(
        aspects=tuple(aspects), weights={a.name: w / sum(raw) for a, w in zip(aspects, raw)}
    )
    n = rng.randint(1, 10)
    tuples = [{a.name: rng.choice(a.labels) for a in aspects} for _ in range(n)]
    if shape == 1:
        tuples = tuples[: rng.randint(1, 3)]
    docs = [
        DocumentProfile(
            id=f"d{i:02d}",
            labels=rng.choice(tuples),
            relevance=rng.choice([0.25, 0.5, 0.75, round(rng.random(), 6)]),
        )
        for i in range(n)
    ]
    rng.shuffle(docs)
    # "skip" carries no weight; a weight may be 0.
    types = ("click", "like", "share")[: rng.randint(1, 3)]
    raw = [rng.choice([0, 1, 2]) for _ in types]
    raw[0] = raw[0] or 1
    records = tuple(
        InteractionRecord(user="u", doc=rng.choice(docs).id, type=rng.choice(types + ("skip",)), ts=t)
        for t in range(rng.randint(0, 8))
    )
    log = InteractionLog(records, {t: w / sum(raw) for t, w in zip(types, raw)})
    options = []
    for _ in range(rng.randint(1, 6)):
        if records and rng.random() < 0.3:
            logged = rng.choice(records)
            options.append((logged.doc, logged.type))
        else:
            options.append((rng.choice(docs).id, rng.choice(types + ("skip",))))
    options += rng.sample(options, rng.randint(0, len(options)))  # duplicated options
    return rng, schema, docs, log, options


def test_every_step_matches_a_full_kernel_per_candidate():
    """greedy, the blend, swap, interaction and sequence return exactly what
    they returned when every candidate ran the full count kernel."""
    for seed in range(1500):
        rng, schema, docs, log, options = step_instance(seed)
        n = len(docs)
        k = (1, n, rng.randint(1, n))[seed % 3]
        want = reference_greedy_select(schema, docs, k).as_dict()
        assert greedy_select(schema, docs, k).as_dict() == want, seed
        for lam in (0.0, 0.5, 1.0):
            want = reference_rerank_combined(schema, docs, k, lam).as_dict()
            assert rerank_combined(schema, docs, k, lam).as_dict() == want, (seed, lam)
        split, budget = rng.randint(1, n), rng.randint(0, 4)
        items, pool = docs[:split], docs[split:]
        want = reference_swap_diversify(schema, items, pool, budget).as_dict()
        assert swap_diversify(schema, items, pool, budget).as_dict() == want, seed
        corpus_docs = {d.id: d for d in docs}
        want = reference_suggest_interaction(schema, corpus_docs, log, options).as_dict()
        assert suggest_interaction(schema, corpus_docs, log, options).as_dict() == want, seed
        # A history that repeats documents and timestamps, windowed empty, by
        # count or by cutoff, against a non-empty tail of the pool.
        history = [
            replace(rng.choice(docs), timestamp=t // 2) for t in range(rng.randint(0, 8))
        ]
        candidates = docs[rng.randint(0, n - 1):]
        window = rng.choice([
            Window("last", 0),
            Window("last", rng.randint(1, 9)),
            Window("cutoff", rng.randint(0, 4)),
        ][: 2 + bool(history)])  # a cutoff needs timestamped history
        for gamma in (1.0, 0.5, 1.0 - rng.random()):
            want = reference_next_in_sequence(schema, history, candidates, window, gamma).as_dict()
            got = next_in_sequence(schema, history, candidates, window, gamma).as_dict()
            assert got == want, (seed, window, gamma)


def test_a_long_window_of_repeated_rows_matches_the_reference():
    """Hundreds of window items over few distinct rows: each distinct window
    row's distances are read once, and every affinity keeps the reference's
    bits."""
    rng = random.Random(20)
    schema = random_schema(rng, max_aspects=3, max_labels=3, exact=True)
    history = random_docs(rng, schema, 420, with_timestamps=True)
    candidates = [replace(d, id=f"c{i:03d}") for i, d in enumerate(random_docs(rng, schema, 60))]
    cutoff = history[100].timestamp
    for window in (Window("last", 300), Window("last", 420), Window("cutoff", cutoff)):
        for gamma in (1.0, 0.5, 0.97):
            want = reference_next_in_sequence(schema, history, candidates, window, gamma).as_dict()
            got = next_in_sequence(schema, history, candidates, window, gamma).as_dict()
            assert got == want, (window, gamma)


def test_duplicate_ids_are_reported_sorted_without_quadratic_counting():
    docs = [DocumentProfile(id=f"d{i:05d}", labels={}) for i in range(20_000)]
    docs += [docs[7], docs[3], docs[7]]
    start = time.perf_counter()
    with pytest.raises(ContractError) as info:
        greedy_select(one_aspect_schema(), docs, 1)
    assert str(info.value) == "pool contains duplicate document ids: ['d00003', 'd00007']"
    # Counting each id with list.count took seconds here.
    assert time.perf_counter() - start < 1.0


# mode name -> (call on docs whose first member is the wrong entry, what
# the mode calls the list it checks); each mode sorts the list by id.
ID_MODES = {
    "greedy": (lambda schema, docs: greedy_select(schema, docs, 2), "pool"),
    "summary": (lambda schema, docs: select_summary_sources(schema, docs, 2), "pool"),
    "blend": (lambda schema, docs: rerank_combined(schema, docs, 2, 0.5), "pool"),
    "swap": (lambda schema, docs: swap_diversify(schema, docs[1:3], [docs[0]] + docs[3:], 1), "list plus pool"),
    "oracle": (lambda schema, docs: max_diversity_oracle(schema, docs, 2), "pool"),
    "sequence": (
        lambda schema, docs: next_in_sequence(schema, docs[1:3], docs, Window("last", 1)), "candidate set"
    ),
}


@pytest.mark.parametrize("bad_id", [None, 7, True, [], ""], ids=["None", "7", "True", "list", "empty"])
def test_a_document_id_that_is_not_a_string_is_named(pool, bad_id):
    # A document checks its id as it is built, with the loader's message.
    with pytest.raises(ValidationError) as info:
        replace(pool[0], id=bad_id)
    assert str(info.value) == "document needs a non-empty string 'id'"


@pytest.mark.parametrize("entry", ["a1", None, {"id": "a1"}], ids=["id", "None", "dict"])
@pytest.mark.parametrize("mode", sorted(ID_MODES))
def test_an_entry_that_is_not_a_document_is_named(schema, pool, mode, entry):
    call, what = ID_MODES[mode]
    with pytest.raises(ContractError) as info:
        call(schema, [entry] + list(pool[1:]))
    assert str(info.value) == f"{what} contains entries that are not documents: {[entry]}"


# --- summary mode ---


def test_summary_sources_carry_keyword_diversity(schema, pool):
    result = select_summary_sources(schema, pool, 4)
    assert result.selected == ("a1", "a7", "a2", "a8")
    assert result.diversity.overall == pytest.approx(3 / 4, abs=1e-9)
    assert result.keyword_diversity == pytest.approx(3 / 4, abs=1e-9)
    assert any(t["kind"] == "keyword_diversity" for t in result.trace)


def test_summary_without_keywords_omits_the_field(schema):
    bare = [doc("b1", "Climate", "Health"), doc("b2", "Immigration", "Security")]
    result = select_summary_sources(schema, bare, 2)
    assert result.keyword_diversity is None
    assert "keyword_diversity" not in result.as_dict()


def test_summary_warns_on_indistinguishable_sources(schema):
    clones = [doc(f"c{i}", "Climate", "Health") for i in range(3)]
    result = select_summary_sources(schema, clones, 2)
    assert result.diversity.overall == 0.0
    warning = result.trace[-1]
    assert list(warning) == ["kind", "detail"]
    assert warning == {
        "kind": "warning",
        "detail": "selected sources are indistinguishable under the schema (zero diversity)",
    }


def test_records_no_golden_file_holds_keep_their_fields_and_text(schema, pool):
    note = rerank_combined(schema, pool, 2, 0.0).trace[-1]
    assert list(note) == ["kind", "detail"]
    assert note == {"kind": "note", "detail": "lambda = 0: selection delegated to pure diversity greedy"}
    (seed,) = greedy_select(schema, pool[:1], 1).trace
    assert list(seed) == ["kind", "doc", "detail"]
    assert seed == {"kind": "seed", "doc": "a1", "detail": "seeded with a1 (only candidate)"}


# --- interaction mode ---


def test_suggest_interaction_worked_example(schema):
    corpus_docs = {
        "d1": doc("d1", "Climate", "Health"),
        "d2": doc("d2", "Immigration", "Security"),
        "d3": doc("d3", "Climate", "Cultural"),
    }
    log = InteractionLog(
        records=(
            InteractionRecord(user="u", doc="d1", type="like", ts=1),
            InteractionRecord(user="u", doc="d1", type="share", ts=2),
        ),
        type_weights={"like": 0.5, "share": 0.5},
    )
    options = [("d3", "like"), ("d2", "share")]
    # sharing the cross-topic doc scores 0.5 vs 0.125 for the like option
    result = suggest_interaction(schema, corpus_docs, log, options)
    assert result.selected == ("d2",)
    assert result.objective == 0.5
    assert result.diversity == collection_diversity(schema, [corpus_docs["d2"]])
    (record,) = result.trace
    assert (record["kind"], record["doc"], record["type"]) == ("suggest", "d2", "share")
    assert record["overall"] == 0.5
    # the winner's score equals the diversity of the log it extends
    extended = InteractionLog(
        records=log.records + (InteractionRecord(user="suggestion", doc="d2", type="share", ts=3),),
        type_weights=log.type_weights,
    )
    assert result.objective == interaction_diversity(schema, corpus_docs, extended)


def test_suggest_interaction_validation(schema):
    corpus_docs = {"d1": doc("d1", "Climate", "Health")}
    log = InteractionLog(
        records=(InteractionRecord(user="u", doc="d1", type="like", ts=1),),
        type_weights={"like": 1.0},
    )
    with pytest.raises(ContractError):
        suggest_interaction(schema, corpus_docs, log, [])
    with pytest.raises(UnknownEntityError, match="zz"):
        suggest_interaction(schema, corpus_docs, log, [("zz", "like")])


@pytest.mark.parametrize("position", ["id", "type"])
@pytest.mark.parametrize("value", [None, 7, True, []], ids=["None", "7", "True", "list"])
def test_suggest_interaction_names_options_that_are_not_strings(schema, by_id, position, value):
    # Either option sort would compare the value with a string.
    options = [(value, "like"), ("zz", "like")] if position == "id" else [("a1", value), ("a2", "like")]
    with pytest.raises(ContractError) as info:
        suggest_interaction(schema, by_id, InteractionLog((), {"like": 1.0}), options)
    assert str(info.value) == f"options with a document id or type that is not a string: {options[:1]}"


@pytest.mark.parametrize(
    "option",
    ["a1", "ab", ("a1",), ("a1", "like", "x"), ["a1", "like", "x"], None, {"a1": "like"}],
    ids=["id-string", "two-character-string", "one-tuple", "three-tuple", "three-list", "None", "dict"],
)
def test_suggest_interaction_names_options_that_are_not_pairs(schema, by_id, option):
    # A string or a tuple of another length would unpack into the wrong option or fail unpacking.
    options = [("a2", "like"), option]
    with pytest.raises(ContractError) as info:
        suggest_interaction(schema, by_id, InteractionLog((), {"like": 1.0}), options)
    assert str(info.value) == f"options that are not (document id, type) pairs: {[option]}"


# --- relevance/diversity blending ---


def test_lambda_zero_delegates_to_greedy(schema, pool):
    blended = rerank_combined(schema, pool, 4, 0.0)
    greedy = greedy_select(schema, pool, 4)
    assert blended.selected == greedy.selected
    assert any(t["kind"] == "note" for t in blended.trace)


def test_lambda_one_is_pure_relevance_ranking(schema, pool):
    result = rerank_combined(schema, pool, 4, 1.0)
    assert result.selected == ("a1", "a5", "a2", "a3")
    assert result.objective == pytest.approx(0.775, abs=1e-9)


def test_balanced_lambda_worked_values(schema, pool):
    result = rerank_combined(schema, pool, 4, 0.5)
    assert result.selected == ("a1", "a7", "a5", "a2")
    assert result.diversity.overall == pytest.approx(2 / 3, abs=1e-9)
    assert result.objective == pytest.approx(0.5 * (2.95 / 4) + 0.5 * (2 / 3), abs=1e-9)


def test_balanced_lambda_objective_versus_exhaustive(schema, pool, by_id):
    """Greedy stepping can land below the exhaustive objective optimum."""
    result = rerank_combined(schema, pool, 4, 0.5)
    best = max(
        combined_objective(schema, [by_id[i] for i in combo], 0.5)
        for combo in itertools.combinations(sorted(by_id), 4)
    )
    assert result.objective <= best + 1e-9
    assert best == pytest.approx(0.5 * 0.7 + 0.5 * (17 / 24), abs=1e-9)


def test_objective_recombines_relevance_and_diversity(schema, pool):
    result = rerank_combined(schema, pool, 3, 0.25)
    chosen = [d for d in pool if d.id in result.selected]
    mean_rel = sum(d.relevance for d in chosen) / 3
    div = collection_diversity(schema, chosen).overall
    assert result.objective == pytest.approx(0.25 * mean_rel + 0.75 * div, abs=1e-12)


def test_combined_rerank_validation(schema, pool):
    with pytest.raises(ContractError, match="lambda"):
        rerank_combined(schema, pool, 2, 1.5)
    with pytest.raises(ContractError, match="k must satisfy"):
        rerank_combined(schema, pool, 0, 0.5)
    unscored = [doc("u1", "Climate", "Health"), doc("u2", "Immigration", "Security")]
    with pytest.raises(ContractError, match="missing relevance.*u1.*u2"):
        rerank_combined(schema, unscored, 2, 0.5)


@pytest.mark.parametrize("relevance", [float("nan"), 2.0, -0.5, True])
def test_blend_rejects_relevance_outside_the_unit_interval(relevance):
    # A document checks its relevance as it is built, so the blend never sees one outside [0, 1].
    with pytest.raises(ValidationError) as info:
        doc("r3", "Climate", "Health", relevance=relevance)
    assert str(info.value) == f"relevance for 'r3' must lie in [0, 1] (got {relevance!r})"


def test_exclude_history_filters_by_id(pool):
    kept = exclude_history(pool, {"a1", "a5"})
    assert [d.id for d in kept] == ["a2", "a3", "a4", "a6", "a7", "a8"]


# --- duplicate-member behavior ---


def test_duplicating_a_central_member_can_raise_diversity():
    """Mean pairwise distance is not duplicate-insensitive.

    With members {C, I, I, I} the mean is 0.5; appending another C raises
    it to 0.6 because new C<->I pairs outnumber the new zero pair.
    """
    schema = one_aspect_schema()
    docs = [
        DocumentProfile(id="c1", labels={"topic": "C"}),
        DocumentProfile(id="i1", labels={"topic": "I"}),
        DocumentProfile(id="i2", labels={"topic": "I"}),
        DocumentProfile(id="i3", labels={"topic": "I"}),
    ]
    assert collection_diversity(schema, docs).overall == pytest.approx(0.5, abs=1e-12)
    dup = DocumentProfile(id="c2", labels={"topic": "C"})
    assert collection_diversity(schema, docs + [dup]).overall == pytest.approx(0.6, abs=1e-12)


@given(st.integers(min_value=0, max_value=5_000))
def test_duplicating_a_min_mean_distance_member_never_raises(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=5)
    docs = random_docs(rng, schema, rng.randint(2, 10))

    def mean_dist(d):
        return sum(collection_diversity(schema, [d, o]).overall for o in docs if o is not d) / (len(docs) - 1)

    center = min(docs, key=mean_dist)
    dup = DocumentProfile(id="dup", labels=dict(center.labels))
    before = collection_diversity(schema, docs).overall
    after = collection_diversity(schema, docs + [dup]).overall
    assert after <= before + 1e-9

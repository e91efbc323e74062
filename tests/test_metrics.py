"""Pairwise diversity metrics, windows, interaction blending."""

import json
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from newsdiv.corpus_io import load_corpus
from newsdiv.errors import ContractError, UnknownEntityError, ValidationError
from newsdiv.metrics import (
    DocumentProfile,
    InteractionLog,
    InteractionRecord,
    Keyword,
    Window,
    _candidate_values,
    _distance_matrix,
    _diversity,
    _label_indices,
    collection_diversity,
    docs_per_type,
    interaction_diversity,
    keyword_diversity,
    parse_window,
    window_slice,
)

from helpers import random_docs, random_schema, reference_distance


def doc(doc_id, topic, frame, **kw):
    return DocumentProfile(id=doc_id, labels={"topic": topic, "frame": frame}, **kw)


# --- pairwise distance: the diversity of a two-document list ---


def distance(schema, d1, d2):
    return collection_diversity(schema, [d1, d2]).overall


def test_doc_distance_worked_pairs(schema):
    a = doc("x", "Climate", "Health")
    b = doc("y", "Immigration", "Security")
    c = doc("z", "Climate", "Cultural")
    assert distance(schema, a, b) == pytest.approx(1.0, abs=1e-12)
    assert distance(schema, a, c) == pytest.approx(0.25, abs=1e-12)
    assert distance(schema, a, a) == 0.0


def test_doc_distance_is_symmetric(schema, pool):
    for d1 in pool:
        for d2 in pool:
            assert distance(schema, d1, d2) == distance(schema, d2, d1)


def test_two_document_diversity_is_the_pair_distance_bit_for_bit():
    equal = 0
    for seed in range(1200):
        rng = random.Random(seed)
        schema = random_schema(rng, max_aspects=4, max_labels=4)
        d1, d2 = random_docs(rng, schema, 2)
        r1, r2 = _label_indices(schema, d1), _label_indices(schema, d2)
        got = distance(schema, d1, d2).hex()
        assert got == reference_distance(schema, r1, r2).hex(), seed
        assert got == reference_distance(schema, r2, r1).hex(), seed
        equal += r1 == r2
    # Pairs with equal labels on every aspect occur too.
    assert equal > 20, equal


def test_missing_label_is_a_contract_violation(schema):
    stub = DocumentProfile(id="s", labels={"topic": "Climate"})
    with pytest.raises(ContractError, match="missing a label"):
        distance(schema, stub, stub)


def test_unknown_label_names_the_offender(schema):
    stub = doc("s", "Climate", "Sports")
    with pytest.raises(UnknownEntityError, match="Sports"):
        distance(schema, stub, stub)


# --- the schema's row table ---


def test_warm_rows_are_the_rows_of_a_cold_schema():
    for seed in range(300):
        rng = random.Random(seed)
        schema = random_schema(rng, max_aspects=3, max_labels=3)
        docs = random_docs(rng, schema, rng.randint(1, 30))
        for d in docs + docs:  # the second pass reads stored rows only
            assert _label_indices(schema, d) == _label_indices(replace(schema), d), seed
            assert _label_indices(schema, d) == tuple(a.index[d.labels[a.name]] for a in schema.aspects)
        assert len(schema._rows) == len({tuple(d.labels.values()) for d in docs}), seed


def test_an_extra_aspect_is_rejected_by_the_loader_but_resolves_in_the_modes(schema, pool):
    extra = doc("x", "Climate", "Health")
    extra = replace(extra, labels={**extra.labels, "tone": "sad"})
    assert _label_indices(schema, extra) == _label_indices(schema, pool[0])
    assert collection_diversity(schema, [extra, pool[1]]) == collection_diversity(schema, pool[:2])
    text = json.dumps({"id": "x", "labels": {**pool[0].labels, "tone": "sad"}})
    with pytest.raises(ValidationError) as info:
        load_corpus(schema, text)  # the tuple is in the table, the extra key is not
    assert str(info.value) == "corpus line 1: labels for unknown aspects ['tone']"


@pytest.mark.parametrize("value", [["Climate"], {"Climate": 1}], ids=["list", "dict"])
def test_unhashable_labels_raise_the_label_messages(schema, pool, value):
    collection_diversity(schema, pool)  # every tuple of the schema is stored
    stub = DocumentProfile(id="s", labels={"topic": value, "frame": "Health"})
    with pytest.raises(UnknownEntityError) as info:
        _label_indices(schema, stub)
    assert str(info.value) == f"document 's' uses unknown label {value!r} for aspect 'topic'"
    text = json.dumps({"id": "s", "labels": {"topic": value, "frame": "Health"}})
    with pytest.raises(ValidationError) as info:
        load_corpus(schema, text)
    assert str(info.value) == f"corpus line 1: unknown topic label {value!r}"


def test_the_row_table_is_not_part_of_the_schema_value(schema, pool):
    collection_diversity(schema, pool)
    cold = replace(schema)
    assert schema._rows and cold._rows == {}
    assert cold == schema and repr(cold) == repr(schema)
    assert "_rows" not in repr(schema)
    reweighted = replace(schema, weights={"topic": 0.25, "frame": 0.75})
    assert reweighted._rows == {} and reweighted != schema


# --- step and distance kernels ---


def kernel_rows(seed):
    """A seeded schema with the label rows of 1-10 documents over at most 4
    labels per aspect, so many pools hold a label only one row carries."""
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=4)
    return schema, [_label_indices(schema, d) for d in random_docs(rng, schema, rng.randint(1, 10))]


def test_step_values_are_the_kernel_on_each_list_bit_for_bit():
    one_row = emptied = 0
    for seed in range(1500):
        schema, rows = kernel_rows(seed)
        removed = _candidate_values(schema, rows, rows, -1)
        added = _candidate_values(schema, rows, rows)
        for i, row in enumerate(rows):
            rest = rows[:i] + rows[i + 1:]
            assert removed[i].hex() == _diversity(schema, rest).overall.hex(), (seed, i)
            assert added[i].hex() == _diversity(schema, rows + [row]).overall.hex(), (seed, i)
        one_row += len(rows) == 1
        emptied += any(1 in Counter(r[a] for r in rows).values() for a in range(len(schema.aspects)))
    # Both edges occur often: a one-row list, and a label whose count drops to 0.
    assert one_row > 50 and emptied > 500, (one_row, emptied)


def test_distance_rows_are_the_upper_triangle_bit_for_bit():
    for seed in range(500):
        schema, rows = kernel_rows(seed)
        matrix = list(_distance_matrix(schema, rows))
        assert len(matrix) == len(rows) and matrix[-1] == [], seed
        for i, line in enumerate(matrix):
            want = [reference_distance(schema, rows[i], r).hex() for r in rows[i + 1:]]
            assert [d.hex() for d in line] == want, (seed, i)


def test_distance_rectangle_is_bit_for_bit():
    for seed in range(500):
        schema, rows = kernel_rows(seed)
        columns = rows[::-1]
        matrix = list(_distance_matrix(schema, rows, columns))
        assert len(matrix) == len(rows), seed
        for row, line in zip(rows, matrix):
            assert [d.hex() for d in line] == [reference_distance(schema, row, c).hex() for c in columns], seed


# --- reference list values ---


def test_reference_list_values(schema, reference_lists):
    expected = {"a": 0.0, "b": 1 / 3, "c": 5 / 12, "d": 3 / 4}
    for key, want in expected.items():
        report = collection_diversity(schema, reference_lists[key])
        assert report.overall == pytest.approx(want, abs=1e-9), key
        assert report.pair_count == 6


def test_per_aspect_reference_values(schema, reference_lists):
    def per_aspect(key, name):
        return collection_diversity(schema, reference_lists[key]).per_aspect[name]

    assert per_aspect("b", "topic") == pytest.approx(2 / 3, abs=1e-9)
    assert per_aspect("c", "frame") == pytest.approx(5 / 6, abs=1e-9)
    assert per_aspect("a", "topic") == 0.0


def test_full_universe_diversity(schema, pool):
    report = collection_diversity(schema, pool)
    assert report.pair_count == 28
    assert report.overall == pytest.approx(9 / 14, abs=1e-9)
    assert report.per_aspect["topic"] == pytest.approx(4 / 7, abs=1e-9)
    assert report.per_aspect["frame"] == pytest.approx(5 / 7, abs=1e-9)


def test_small_collections_score_zero(schema, pool):
    for docs in ([], pool[:1]):
        report = collection_diversity(schema, docs)
        assert report.overall == 0.0
        assert report.pair_count == 0
        assert set(report.per_aspect) == {"topic", "frame"}
        assert all(v == 0.0 for v in report.per_aspect.values())


def test_report_as_dict_shape(schema, pool):
    data = collection_diversity(schema, pool[:3]).as_dict()
    assert set(data) == {"overall", "per_aspect", "pair_count"}


# --- linearity and permutation invariance ---


@given(st.integers(min_value=0, max_value=10_000))
def test_overall_is_weighted_sum_of_aspects(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    docs = random_docs(rng, schema, rng.randint(0, 12))
    report = collection_diversity(schema, docs)
    blended = sum(
        schema.weights[name] * report.per_aspect[name] for name in report.per_aspect
    )
    assert report.overall == pytest.approx(blended, abs=1e-9)
    assert 0.0 <= report.overall <= 1.0 + 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_diversity_is_permutation_invariant(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    docs = random_docs(rng, schema, rng.randint(2, 10))
    base = collection_diversity(schema, docs)
    shuffled = docs[:]
    rng.shuffle(shuffled)
    # bitwise: label counts do not depend on document order
    assert collection_diversity(schema, shuffled) == base


# --- windows ---


def test_parse_window_forms():
    assert parse_window("last:4") == Window(kind="last", value=4)
    assert parse_window("cutoff:1700000300") == Window(kind="cutoff", value=1700000300)
    assert parse_window("4") == Window(kind="last", value=4)
    with pytest.raises(ValidationError, match="not an integer"):
        parse_window("last:soon")
    with pytest.raises(ValidationError, match="unknown window kind"):
        parse_window("recent:4")


def test_window_rejects_negative_size():
    with pytest.raises(ValidationError):
        Window(kind="last", value=-1)


def test_last_window_slices_the_tail(pool):
    assert window_slice(pool, Window("last", 0)) == []
    assert [d.id for d in window_slice(pool, Window("last", 3))] == ["a6", "a7", "a8"]
    # oversized window keeps everything
    assert len(window_slice(pool, Window("last", 99))) == 8


def test_cutoff_window_filters_by_timestamp(pool):
    kept = window_slice(pool, Window("cutoff", 1700000500))
    assert [d.id for d in kept] == ["a5", "a6", "a7", "a8"]


def test_cutoff_requires_timestamps(schema):
    docs = [doc("p", "Climate", "Health"), doc("q", "Immigration", "Security")]
    with pytest.raises(ContractError, match="timestamped"):
        window_slice(docs, Window("cutoff", 5))


def test_mixed_timestamp_presence_rejected(schema):
    docs = [
        doc("p", "Climate", "Health", timestamp=10),
        doc("q", "Immigration", "Security"),
    ]
    with pytest.raises(ContractError, match="mixes documents"):
        window_slice(docs, Window("last", 1))


def test_unsorted_sequence_rejected(schema):
    docs = [
        doc("p", "Climate", "Health", timestamp=20),
        doc("q", "Immigration", "Security", timestamp=10),
    ]
    with pytest.raises(ContractError, match="sorted"):
        window_slice(docs, Window("last", 1))


def test_sequence_window_reduces_to_reference_value(schema, fixtures_dir, by_id):
    """Last-4 window over the six-doc history lands on the 3/4 list."""
    import json

    entries = [
        json.loads(line)
        for line in (fixtures_dir / "history.jsonl").read_text().splitlines()
    ]
    history = [
        DocumentProfile(
            id=e["doc"], labels=by_id[e["doc"]].labels, timestamp=e["ts"]
        )
        for e in entries
    ]
    report = collection_diversity(schema, window_slice(history, Window("last", 4)))
    assert report.overall == pytest.approx(3 / 4, abs=1e-9)


# --- interaction-type blending ---


def make_log(records, weights):
    return InteractionLog(records=tuple(records), type_weights=weights)


def interaction_fixture(schema):
    corpus_docs = {
        "x1": doc("x1", "Climate", "Health"),
        "x2": doc("x2", "Climate", "Health"),
        "x3": doc("x3", "Immigration", "Security"),
    }
    log = make_log(
        [
            InteractionRecord(user="u", doc="x1", type="like", ts=1),
            InteractionRecord(user="u", doc="x2", type="like", ts=2),
            InteractionRecord(user="u", doc="x1", type="share", ts=3),
            InteractionRecord(user="u", doc="x3", type="share", ts=4),
        ],
        {"like": 0.5, "share": 0.5},
    )
    return corpus_docs, log


@pytest.mark.parametrize(
    "weights", [{"like": math.nan, "share": 0.5}, {"like": math.nan}, {"like": math.nan, "share": 1.0}]
)
def test_nan_type_weight_rejected(weights):
    with pytest.raises(ValidationError):
        make_log([], weights)


def test_interaction_blend_worked_example(schema):
    corpus_docs, log = interaction_fixture(schema)
    # likes are all (Climate, Health): no spread; shares span both topics
    assert interaction_diversity(schema, corpus_docs, log) == pytest.approx(0.5, abs=1e-12)


def test_weights_are_read_only_once_checked(schema, pool):
    """A schema's blend weights and a log's type weights refuse assignment
    where it is made, so no later call reads an unchecked weight."""
    schema = replace(schema)  # a copy, not the shared fixture, should the assignment pass
    before = collection_diversity(schema, pool)
    with pytest.raises(TypeError):
        schema.weights["topic"] = "x"
    assert collection_diversity(schema, pool) == before
    corpus_docs, log = interaction_fixture(schema)
    weights = dict(log.type_weights)
    log = make_log(log.records, weights)
    expected = interaction_diversity(schema, corpus_docs, log)
    with pytest.raises(TypeError):
        log.type_weights["like"] = "x"
    weights["like"] = "x"  # the caller's dict, which the log copied
    assert interaction_diversity(schema, corpus_docs, log) == expected
    assert dict(log.type_weights) == {"like": 0.5, "share": 0.5}


def test_degenerate_type_weights_reduce_to_collection_diversity(schema):
    corpus_docs, _ = interaction_fixture(schema)
    log = make_log(
        [
            InteractionRecord(user="u", doc="x1", type="share", ts=1),
            InteractionRecord(user="u", doc="x3", type="share", ts=2),
        ],
        {"share": 1.0},
    )
    plain = collection_diversity(schema, [corpus_docs["x1"], corpus_docs["x3"]])
    assert interaction_diversity(schema, corpus_docs, log) == plain.overall


def test_docs_per_type_dedupes_repeat_interactions(schema):
    corpus_docs, _ = interaction_fixture(schema)
    log = make_log(
        [
            InteractionRecord(user="u", doc="x1", type="like", ts=1),
            InteractionRecord(user="u", doc="x1", type="like", ts=2),
            InteractionRecord(user="u", doc="x3", type="like", ts=3),
        ],
        {"like": 1.0},
    )
    grouped = docs_per_type(corpus_docs, log)
    assert [d.id for d in grouped["like"]] == ["x1", "x3"]


def test_interaction_log_with_unknown_doc_rejected(schema):
    corpus_docs, _ = interaction_fixture(schema)
    log = make_log([InteractionRecord(user="u", doc="zz", type="like", ts=1)], {"like": 1.0})
    with pytest.raises(UnknownEntityError, match="zz"):
        docs_per_type(corpus_docs, log)


def test_type_weight_validation():
    rec = InteractionRecord(user="u", doc="x", type="like", ts=1)
    with pytest.raises(ValidationError, match="negative"):
        make_log([rec], {"like": -0.5, "share": 1.5})
    with pytest.raises(ValidationError, match="sum to 1"):
        make_log([rec], {"like": 0.4, "share": 0.4})


# --- keyword diversity ---


def test_keyword_diversity_reference_value(schema):
    keywords = [
        Keyword(term="heatwave", labels={"topic": "Climate", "frame": "Health"}),
        Keyword(term="festival", labels={"topic": "Climate", "frame": "Cultural"}),
        Keyword(term="border", labels={"topic": "Immigration", "frame": "Security"}),
        Keyword(term="visa jobs", labels={"topic": "Immigration", "frame": "Economy"}),
    ]
    assert keyword_diversity(schema, keywords) == pytest.approx(3 / 4, abs=1e-9)


def test_keyword_diversity_rejects_empty(schema):
    with pytest.raises(ContractError):
        keyword_diversity(schema, [])


"""File formats: corpus, interactions, history, rules, and report output."""

import inspect
import json
import random
from dataclasses import fields, replace

import pytest

from newsdiv.corpus_io import (
    load_corpus,
    load_history,
    load_interactions,
    load_rules,
    round12,
    write_report,
)
from newsdiv.errors import NewsdivError, ParseError, ValidationError
from newsdiv.metrics import DocumentProfile, InteractionLog, collection_diversity

from helpers import random_schema, reference_load_corpus


def line(doc_id="x1", topic="Climate", frame="Health", **extra):
    obj = {"id": doc_id, "labels": {"topic": topic, "frame": frame}, **extra}
    return json.dumps(obj)


# --- corpus loading ---


def test_example_corpus_loads_eight_documents(corpus):
    docs = corpus.docs()
    assert len(docs) == 8
    assert [d.id for d in docs] == [f"a{i}" for i in range(1, 9)]
    a1 = docs[0]
    assert a1.labels == {"topic": "Climate", "frame": "Health"}
    assert a1.relevance == 0.95
    assert a1.timestamp == 1700000100
    assert a1.keywords[0].term == "heatwave deaths"


def test_blank_lines_are_skipped(schema):
    text = line("x1") + "\n\n" + line("x2", frame="Security") + "\n"
    assert len(load_corpus(schema, text).docs()) == 2


def test_loaded_profiles_equal_the_dataclass_built_from_their_fields(schema, corpus):
    """DocumentProfile's own __init__ fills the instance dict directly, so
    it would skip a __post_init__; its signature is the one the dataclass
    would generate."""
    assert "__post_init__" not in vars(DocumentProfile)
    assert str(inspect.signature(DocumentProfile)) == (
        "(id: 'str', labels: 'Mapping[str, str]', relevance: 'float | None' = None, "
        "timestamp: 'int | None' = None, keywords: 'tuple[Keyword, ...]' = ()) -> None"
    )
    bare = load_corpus(schema, line("x1", relevance=1)).docs()
    for doc in corpus.docs() + bare:
        built = DocumentProfile(**{f.name: getattr(doc, f.name) for f in fields(DocumentProfile)})
        assert type(doc) is DocumentProfile
        assert doc == built and repr(doc) == repr(built)
        assert [(k, type(v), v) for k, v in vars(doc).items()] == [(k, type(v), v) for k, v in vars(built).items()]
        copy = replace(doc)
        assert copy == doc and vars(copy) == vars(doc)
        assert replace(doc, relevance=0.5) == DocumentProfile(**{**vars(doc), "relevance": 0.5})
    assert (bare[0].relevance, bare[0].timestamp, bare[0].keywords) == (1.0, None, ())


@pytest.mark.parametrize(
    "text, message",
    [
        ("{oops\n", r"line 1"),
        (line() + "\n" + "[1, 2]\n", r"line 2.*object"),
        (line() + "\n" + line() + "\n", "duplicate document id"),
        (line(relevance=1.5), "relevance"),
        (line(timestamp="noon"), "timestamp"),
        (line(frame="Sports"), "unknown frame label"),
        (json.dumps({"id": "x", "labels": {"topic": "Climate"}}), "missing"),
        (json.dumps({"id": "x", "labels": {"topic": "Climate", "frame": "Health", "tone": "sad"}}), "tone"),
        (line(keywords=[{"term": "x"}]), "keyword"),
        (line(keywords=[{"term": "x", "labels": {"topic": "Sports"}}]), "unknown topic label"),
        (json.dumps({"labels": {"topic": "Climate", "frame": "Health"}}), "id"),
    ],
)
def test_corpus_errors_carry_line_numbers(schema, text, message):
    with pytest.raises((ParseError, ValidationError), match=message):
        load_corpus(schema, text)


# --- interactions and history ---


def test_load_interactions_defaults_to_uniform_weights():
    text = (
        '{"user": "u", "doc": "a1", "type": "like", "ts": 1}\n'
        '{"user": "u", "doc": "a2", "type": "share", "ts": 2}\n'
    )
    log = load_interactions(text)
    assert log.type_weights == {"like": 0.5, "share": 0.5}
    assert len(log.records) == 2


def test_load_interactions_accepts_explicit_weights():
    text = '{"user": "u", "doc": "a1", "type": "like", "ts": 1}\n'
    log = load_interactions(text, {"like": 0.25, "share": 0.75})
    assert log.type_weights == {"like": 0.25, "share": 0.75}


def test_empty_interaction_log_needs_weights():
    with pytest.raises(ValidationError, match="no type weights"):
        load_interactions("")
    log = load_interactions("", {"like": 1.0})
    assert log.records == ()


def test_type_weights_that_are_not_a_mapping_are_refused_by_the_log():
    message = "interaction type weights must map types to numbers (got [('like', 1.0)])"
    with pytest.raises(ValidationError) as built:
        InteractionLog(records=(), type_weights=[("like", 1.0)])
    with pytest.raises(ValidationError) as loaded:
        load_interactions("", [("like", 1.0)])
    assert str(built.value) == str(loaded.value) == message


def test_malformed_interaction_line():
    with pytest.raises(ValidationError, match="line 1.*'ts'"):
        load_interactions('{"user": "u", "doc": "a1", "type": "like"}\n')


def test_load_history_parses_doc_ts_events(fixtures_dir):
    events = load_history((fixtures_dir / "history.jsonl").read_text())
    assert events[0] == ("a5", 1700001000)
    assert len(events) == 6
    with pytest.raises(ValidationError, match="line 1"):
        load_history('{"doc": 3, "ts": 1}\n')


# --- rules files ---


def test_load_rules_splits_request_scope(schema, fixtures_dir):
    ruleset, request = load_rules(schema, (fixtures_dir / "rules.jsonl").read_text())
    assert [r.id for r in ruleset.rules] == ["no-security-frame", "election-immigration-boost"]
    assert [r.id for r in request] == ["want-immigration"]
    # context rules stay dormant until a tag is activated
    assert [r.id for r in ruleset.active(request)] == ["no-security-frame", "want-immigration"]


def test_load_rules_rejects_duplicates_and_bad_lines(schema):
    good = json.dumps(
        {
            "id": "r1",
            "scope": "global",
            "predicate": {"aspect": "topic", "value": "Climate"},
            "action": {"exclude": True},
        }
    )
    with pytest.raises(ValidationError, match="line 2: duplicate rule id"):
        load_rules(schema, good + "\n" + good + "\n")
    bad = json.dumps({"id": "r2", "scope": "global", "predicate": {}, "action": {"exclude": True}})
    with pytest.raises(ValidationError, match="line 1: rule 'r2'"):
        load_rules(schema, bad + "\n")


@pytest.mark.parametrize(
    "predicate",
    [{"aspect": "tone", "value": "sad"}, {"ancestor": {"aspect": "tone", "node": "x"}}],
    ids=["aspect", "ancestor"],
)
def test_unknown_aspect_in_a_rule_names_the_line_and_the_rule(schema, predicate):
    rules = [
        {"id": f"r{i}", "scope": "global", "predicate": p, "action": {"exclude": True}}
        for i, p in enumerate([{"aspect": "topic", "value": "Climate"}, predicate], 1)
    ]
    with pytest.raises(ValidationError) as info:
        load_rules(schema, "".join(json.dumps(r) + "\n" for r in rules))
    assert str(info.value) == "rules line 2: rule 'r2': unknown aspect 'tone'"


# --- numeric formatting and reports ---


def test_round12_truncates_floats_but_not_ints_or_bools():
    assert round12(0.6428571428571429) == 0.642857142857
    assert round12(2) == 2
    assert round12(True) is True
    assert round12({"a": [1 / 3, False]}) == {"a": [0.333333333333, False]}


def test_json_report_is_sorted_and_newline_terminated(schema, pool):
    report = collection_diversity(schema, pool)
    text = write_report(report)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["overall"] == 0.642857142857
    assert list(data) == sorted(data)
    assert write_report(report) == text  # byte-identical on repeat


def test_write_report_validation(schema, pool):
    with pytest.raises(ValidationError, match="cannot serialize"):
        write_report([1, 2, 3])
    with pytest.raises(ValidationError, match="cannot serialize"):
        write_report(collection_diversity(schema, pool).as_dict())
    with pytest.raises(ValidationError, match="cannot serialize type as a report"):
        write_report(type(collection_diversity(schema, pool)))


def test_write_report_serializes_whatever_defines_as_dict():
    class Summary:
        def as_dict(self):
            return {"b": 1 / 3, "a": [2, 0.1 + 0.2]}

    assert write_report(Summary()) == '{\n  "a": [\n    2,\n    0.3\n  ],\n  "b": 0.333333333333\n}\n'


def test_rerank_result_json_includes_keyword_diversity(schema, pool):
    from newsdiv.diversify import select_summary_sources

    result = select_summary_sources(schema, pool, 4)
    data = json.loads(write_report(result))
    assert data["keyword_diversity"] == 0.75
    assert data["selected"] == ["a1", "a7", "a2", "a8"]


# --- parity with the reference loader ---


def _labels(rng, schema):
    return {a.name: rng.choice(a.labels) for a in schema.aspects}


def _relabel(change):
    """A corruption that lets `change` edit a copy of the document's labels."""
    def corrupt(rng, doc, first_id):
        labels = dict(doc["labels"])
        change(rng, labels)
        return [json.dumps({**doc, "labels": labels})]
    return corrupt


def _rekeyword(change):
    """A corruption that gives the document one keyword, whose labels are
    the document's after `change`."""
    def corrupt(rng, doc, first_id):
        labels = change(rng, dict(doc["labels"]))
        return [json.dumps({**doc, "keywords": [{"term": "kw", "labels": labels}]})]
    return corrupt


def _pick(rng, labels):
    return rng.choice(sorted(labels))


def _drop_one(rng, labels):
    del labels[_pick(rng, labels)]
    return labels


def _swap_for_extra(rng, labels):
    labels["zz_extra"] = labels.pop(_pick(rng, labels))


def _listify(rng, labels):
    name = _pick(rng, labels)
    labels[name] = [labels[name]]  # a known label, but in a list


# Each corruption maps (rng, the document's object, the first document's
# id) to the lines that replace that document's line.
CORRUPTIONS = {
    "none": lambda rng, doc, first: [json.dumps(doc)],
    "leading-spaces": lambda rng, doc, first: ["  " + json.dumps(doc)],
    "trailing-spaces": lambda rng, doc, first: [json.dumps(doc) + " \t"],
    "blank-lines": lambda rng, doc, first: ["", "   ", json.dumps(doc), "\t"],
    "bom": lambda rng, doc, first: ["\ufeff" + json.dumps(doc)],
    "trailing-junk": lambda rng, doc, first: [json.dumps(doc) + "x"],
    "trailing-object": lambda rng, doc, first: [json.dumps(doc) + " {}"],
    "array-over-two-lines": lambda rng, doc, first: ["[1", "2]"],
    "raw-u2028": lambda rng, doc, first: [json.dumps({**doc, "id": "a\u2028b"}, ensure_ascii=False)],
    "deep-nesting": lambda rng, doc, first: ["[" * 100_000 + "]" * 100_000],
    "5000-digit-integer": lambda rng, doc, first: [
        json.dumps({**doc, "timestamp": 0}).replace('"timestamp": 0', '"timestamp": ' + "9" * 5000)
    ],
    "nan-relevance": lambda rng, doc, first: [json.dumps({**doc, "relevance": float("nan")})],
    "true-relevance": lambda rng, doc, first: [json.dumps({**doc, "relevance": True})],
    "relevance-2": lambda rng, doc, first: [json.dumps({**doc, "relevance": 2})],
    "unknown-label": _relabel(lambda rng, labels: labels.update({_pick(rng, labels): "zz"})),
    "missing-aspect": _relabel(_drop_one),
    "extra-aspect": _relabel(lambda rng, labels: labels.update(zz_extra="x")),
    "extra-for-missing": _relabel(_swap_for_extra),
    "list-label": _relabel(_listify),
    "dict-label": _relabel(lambda rng, labels: labels.update({_pick(rng, labels): {"x": 1}})),
    "int-label": _relabel(lambda rng, labels: labels.update({_pick(rng, labels): 3})),
    "null-label": _relabel(lambda rng, labels: labels.update({_pick(rng, labels): None})),
    "duplicate-id": lambda rng, doc, first: [json.dumps({**doc, "id": first})],
    "keyword-unknown-label": _rekeyword(lambda rng, labels: {**labels, _pick(rng, labels): "zz"}),
    "keyword-extra-aspect": _rekeyword(lambda rng, labels: {**labels, "zz_extra": "x"}),
    "keyword-list-label": _rekeyword(lambda rng, labels: {**labels, _pick(rng, labels): ["x"]}),
    "keyword-missing-aspect": _rekeyword(_drop_one),
    "keyword-labels-not-a-map": lambda rng, doc, first: [json.dumps({**doc, "keywords": [{"term": "kw", "labels": ["x"]}]})],
    "int-relevance-0": lambda rng, doc, first: [json.dumps({**doc, "relevance": 0})],
    "int-relevance-1": lambda rng, doc, first: [json.dumps({**doc, "relevance": 1})],
    "negative-zero-relevance": lambda rng, doc, first: [json.dumps({**doc, "relevance": -0.0})],
    "null-relevance": lambda rng, doc, first: [json.dumps({**doc, "relevance": None})],
    "true-timestamp": lambda rng, doc, first: [json.dumps({**doc, "timestamp": True})],
    "float-timestamp": lambda rng, doc, first: [json.dumps({**doc, "timestamp": 1.0})],
    "empty-keywords": lambda rng, doc, first: [json.dumps({**doc, "keywords": []})],
    "null-keywords": lambda rng, doc, first: [json.dumps({**doc, "keywords": None})],
    "object-keywords": lambda rng, doc, first: [json.dumps({**doc, "keywords": {}})],
    "labels-not-a-map": lambda rng, doc, first: [json.dumps({**doc, "labels": list(doc["labels"].values())})],
    "empty-id": lambda rng, doc, first: [json.dumps({**doc, "id": ""})],
    "int-id": lambda rng, doc, first: [json.dumps({**doc, "id": 7})],
}


def _outcome(load, schema, text):
    """The documents, each with the type and repr of every field (an int
    relevance equals its float), or the error's type and message."""
    try:
        documents = load(schema, text).documents
    except NewsdivError as exc:
        return type(exc), str(exc)
    return [
        (doc_id, doc, [(k, type(v), repr(v)) for k, v in vars(doc).items()])
        for doc_id, doc in documents.items()
    ]


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("way", sorted(CORRUPTIONS))
def test_corrupted_corpora_load_as_the_reference_loader_does(way, crlf):
    """A generated corpus with one line corrupted loads to an equal corpus,
    or fails with the same error type and message, as the loader before the
    C-scanner decode and the row table, whether the schema is cold or has
    checked the corpus's label tuples before."""
    for seed in range(12):
        rng = random.Random(f"{way}:{seed}")
        schema = random_schema(rng, max_aspects=3, max_labels=3)
        docs = []
        for i in range(rng.randint(2, 25)):
            doc = {"id": f"d{i:03d}", "labels": _labels(rng, schema),
                   "relevance": round(rng.random(), 6), "timestamp": 1_700_000_000 + 60 * i}
            if rng.random() < 0.3:
                doc["keywords"] = [{"term": f"t{i}", "labels": _labels(rng, schema)}]
            docs.append(doc)
        lines = [json.dumps(doc) for doc in docs]
        at = rng.randrange(1, len(docs))
        lines[at:at + 1] = CORRUPTIONS[way](rng, docs[at], docs[0]["id"])
        text = ("\r\n" if crlf else "\n").join(lines) + "\n"
        expected = _outcome(reference_load_corpus, schema, text)
        assert _outcome(load_corpus, replace(schema), text) == expected  # cold table
        load_corpus(schema, "\n".join(json.dumps(doc) for doc in docs))  # warm it
        assert _outcome(load_corpus, schema, text) == expected

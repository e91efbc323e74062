"""Loading the engine's line-delimited JSON file formats; writing reports.

Corpus files hold one document object per line; interaction and history
files hold one event per line. Errors carry 1-based line numbers. A schema
remembers the label rows it has checked, so the corpus loader checks each
distinct label tuple once. The loader keeps each document's row: besides
the documents keyed by id, a `Corpus` holds the one checked pool, the
documents in file order with their rows, that the CLI hands through the
rules to the mode unchecked. `Corpus.docs()` is a plain list, checked by
every function it is passed to. A report is whatever defines `as_dict`; it
serializes deterministically with numbers at 12 significant digits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from .aspect_model import AspectSchema
from .errors import ValidationError, json_decode_error, json_isinstance, json_number_in
from .metrics import DocumentProfile, InteractionLog, InteractionRecord, Keyword, _Pool
from .rules import Rule, RuleSet, parse_rule


@dataclass(frozen=True)
class Corpus:
    """Validated documents keyed by id."""

    documents: Mapping[str, DocumentProfile]
    # The loader's documents in file order with their rows, which the CLI
    # alone passes on: docs() is a plain list, checked by whatever takes it.
    _pool: tuple = field(default=(), repr=False, compare=False)

    def docs(self) -> list[DocumentProfile]:
        return list(self.documents.values())


# The C scanner that json.loads runs once it has skipped leading whitespace.
_scan_once = json.JSONDecoder().scan_once


def _iter_jsonl(text: str, what: str):
    """(line number, object) per non-blank line; decode errors name `what`.

    A line the scanner decodes whole from its first character is a line
    json.loads decodes to the same object. Every other line (blank, padded,
    a BOM, invalid, too deep, an over-long integer) takes json.loads, whose
    errors are the messages."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)  # not load_json: one call frame less per line
            except (ValueError, RecursionError) as exc:
                raise json_decode_error(exc, f"{what} line {lineno}") from exc
        yield lineno, obj


def _parse_keywords(lineno: int, doc_id: str, raw) -> tuple[Keyword, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ValidationError(f"corpus line {lineno}: 'keywords' for {doc_id!r} must be a list")
    keywords = []
    for entry in raw:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("term"), str)
            or not isinstance(entry.get("labels"), dict)
        ):
            raise ValidationError(
                f"corpus line {lineno}: keyword entries need a 'term' and a 'labels' map"
            )
        keywords.append(Keyword(term=entry["term"], labels=dict(entry["labels"])))
    return tuple(keywords)


def validate_labels(schema: AspectSchema, labels: Mapping[str, str], where: str) -> tuple[int, ...]:
    """Exactly one known label per schema aspect; nothing else. Returns the
    map's row. A map with one key per aspect that the schema's row table
    resolves passes with that one lookup; any other is walked aspect by
    aspect for the message."""
    row = schema._row(labels) if len(labels) == len(schema.aspects) else None
    if row is not None:
        return row
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


def load_corpus(schema: AspectSchema, text: str) -> Corpus:
    """Parse a JSONL corpus, validating every document against the schema.

    Line format:
        {"id": "a1", "labels": {"topic": "Climate", "frame": "Health"},
         "relevance": 0.9, "timestamp": 1700000000, "keywords": [...]}

    relevance, timestamp, and keywords are optional. Duplicate ids and any
    schema violation raise with the offending line number. Each distinct
    label tuple is checked once per schema: the schema remembers the rows
    it has checked, for this load, later loads and every mode. So a
    document costs the scan of its line plus one row lookup, a few class
    tests on what the scan decoded and `DocumentProfile(...)`, whose own
    `__init__` fills the instance dict directly.
    """
    documents: dict[str, DocumentProfile] = {}
    rows = []  # each document's, in file order
    # The decoder builds only plain dict, list, str, int, float, bool and
    # None objects, so a class test is the isinstance test, and an int class
    # test also rejects a bool.
    for lineno, obj in _iter_jsonl(text, "corpus"):
        if obj.__class__ is not dict:
            raise ValidationError(f"corpus line {lineno}: document must be a JSON object")
        doc_id = obj.get("id")
        if doc_id.__class__ is not str or not doc_id:
            raise ValidationError(f"corpus line {lineno}: document needs a non-empty string 'id'")
        if doc_id in documents:
            raise ValidationError(f"corpus line {lineno}: duplicate document id {doc_id!r}")
        labels = obj.get("labels")
        if labels.__class__ is not dict:
            raise ValidationError(f"corpus line {lineno}: document {doc_id!r} needs a 'labels' map")
        rows.append(validate_labels(schema, labels, f"corpus line {lineno}"))
        relevance = obj.get("relevance")
        if relevance is not None:
            if not json_number_in(relevance, 0.0, 1.0):
                raise ValidationError(
                    f"corpus line {lineno}: relevance for {doc_id!r} must lie in [0, 1] "
                    f"(got {relevance!r})"
                )
            if relevance.__class__ is not float:
                relevance = float(relevance)
        timestamp = obj.get("timestamp")
        if timestamp is not None and timestamp.__class__ is not int:
            raise ValidationError(
                f"corpus line {lineno}: timestamp for {doc_id!r} must be an integer"
            )
        keywords = obj.get("keywords")
        if keywords is None:
            keywords = ()
        else:
            keywords = _parse_keywords(lineno, doc_id, keywords)
            for kw in keywords:
                validate_labels(schema, kw.labels, f"corpus line {lineno}: keyword {kw.term!r}")
        documents[doc_id] = DocumentProfile(doc_id, labels, relevance, timestamp, keywords)
    return Corpus(documents, _Pool(documents.values(), rows))


def load_interactions(
    text: str, type_weights: Mapping[str, float] | None = None
) -> InteractionLog:
    """Parse a JSONL interaction log.

    Line format: {"user": "u1", "doc": "a1", "type": "like", "ts": 1700000100}

    When type_weights is omitted, weights are uniform over the types present
    in the log. Given weights must be a mapping from type to number.
    """
    records = []
    for lineno, obj in _iter_jsonl(text, "interactions"):
        if not isinstance(obj, dict):
            raise ValidationError(f"interactions line {lineno}: interaction must be a JSON object")
        for key, kind in (("user", str), ("doc", str), ("type", str), ("ts", int)):
            if not json_isinstance(obj.get(key), kind):
                raise ValidationError(
                    f"interactions line {lineno}: interaction needs {key!r} of type {kind.__name__}"
                )
        records.append(
            InteractionRecord(
                user=obj["user"], doc=obj["doc"], type=obj["type"], ts=obj["ts"]
            )
        )
    if type_weights is None:
        types = sorted({r.type for r in records})
        if not types:
            raise ValidationError("interaction log is empty and no type weights given")
        type_weights = {t: 1.0 / len(types) for t in types}
    return InteractionLog(records=tuple(records), type_weights=type_weights)


def load_history(text: str) -> list[tuple[str, int]]:
    """Parse a JSONL consumption history of {"doc": id, "ts": int} events."""
    events = []
    for lineno, obj in _iter_jsonl(text, "history"):
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("doc"), str)
            or not json_isinstance(obj.get("ts"), int)
        ):
            raise ValidationError(
                f"history line {lineno}: history events need a string 'doc' and integer 'ts'"
            )
        events.append((obj["doc"], obj["ts"]))
    return events


def load_rules(schema: AspectSchema, text: str) -> tuple[RuleSet, list[Rule]]:
    """Parse a JSONL rules file into (ruleset, request-scope rules).

    Global and context rules form the RuleSet; request-scope rules ride
    separately since they apply per request. Context tags start empty; the
    caller activates them.
    """
    persistent = []
    request_rules = []
    seen = set()
    for lineno, obj in _iter_jsonl(text, "rules"):
        try:
            rule = parse_rule(schema, obj)
        except ValidationError as exc:
            raise ValidationError(f"rules line {lineno}: {exc}") from exc
        if rule.id in seen:
            raise ValidationError(f"rules line {lineno}: duplicate rule id {rule.id!r}")
        seen.add(rule.id)
        if rule.scope == "request":
            request_rules.append(rule)
        else:
            persistent.append(rule)
    return RuleSet(rules=tuple(persistent)), request_rules


def round12(value):
    """Round floats (recursively) to 12 significant digits for output."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def write_report(obj) -> str:
    """Serialize an object whose class defines an `as_dict` method (a
    DiversityReport, RerankResult or OracleResult) as JSON of that dict:
    sorted keys, 12 significant digits, newline-terminated."""
    as_dict = getattr(type(obj), "as_dict", None)
    if not callable(as_dict):
        raise ValidationError(f"cannot serialize {type(obj).__name__} as a report")
    return json.dumps(round12(as_dict(obj)), sort_keys=True, indent=2) + "\n"

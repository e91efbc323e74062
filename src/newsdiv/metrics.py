"""Diversity metrics over labeled documents.

The core quantity is the mean pairwise distance of a document list:

    div(D) = (1 / (|D| * (|D| - 1))) * sum over ordered pairs of dist(d_i, d_j)

which equals the mean over unordered pairs since dist is symmetric. Document
distance blends per-aspect label distances with the schema's weights:

    dist(d_i, d_j) = sum over aspects a of w_a * dist_a(label_i, label_j)

Both live in [0, 1]. Lists with fewer than two documents score 0; the
distance of two documents is their `collection_diversity` (divisor 1).

A document's row is its label index per aspect, in schema aspect order.
`_label_indices` reads it from the schema's row table, which holds every
label tuple the schema has checked, and checks a tuple the table does not
hold yet. Every function that reads documents' rows takes them from one
gate, `_pool`: a `_Pool`, which only the corpus loader makes from
documents, passes as it is with the rows the loader resolved; any other
sequence has its entries, its ids and then its labels checked, in the order
given, and becomes a new pool. Two kernels read rows and the distance
matrices: the count kernel `_diversity` (stepped by `_candidate_values`)
and the pair kernel `_distance_matrix`. Every mode that takes a pool
selects by position in the pool `_by_id` builds once: the gate's pool in
id order.

Per-aspect pair sums depend only on label counts. With c_l documents
carrying label l and the aspect's distance matrix D,

    sum over unordered pairs of dist_a = sum over labels l < m of c_l * c_m * D[l][m]

so a report costs O(n * A + A * p^2) for n documents, A aspects and p
distinct labels present per aspect, not O(n^2 * A). The sum runs over the
labels present in label-index order, and counts are exact integers, so the
report is bitwise identical for every ordering of the same documents.

A selection step asks for the value of the selection plus (or less) one
document for each of n candidates. That value depends, per aspect, only on
the candidate's label, so `_candidate_values` sums the kernel's pair total
once per label the candidates carry and scores each candidate with A
lookups: O(A * L * p^2 + n * A) per step for L such labels, with every value
bitwise the kernel's. Distances between rows come as an upper triangle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import add
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .aspect_model import WEIGHT_TOLERANCE, AspectSchema
from .errors import ContractError, UnknownEntityError, ValidationError, json_float, json_isinstance, json_number_in

# Two diversity values within this tolerance count as tied.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Keyword:
    """A content keyword with its own aspect-label map."""

    term: str
    labels: Mapping[str, str]

    def __post_init__(self):
        if not isinstance(self.term, str) or not isinstance(self.labels, Mapping):
            raise ValidationError("keyword entries need a 'term' and a 'labels' map")


@dataclass(frozen=True)
class DocumentProfile:
    """A document reduced to its aspect labels plus optional extras.

    `id` is a non-empty string and `labels` a map, which must hold exactly
    one label per schema aspect (checked by the corpus loader and the
    modes). `relevance` is an optional score in [0, 1], stored as a float,
    `timestamp` an optional epoch-seconds integer, `keywords` optional
    labeled terms for content-level diversity.

    A document checks its own fields, as a `Rule` does, also when copied
    with `dataclasses.replace`, in the class's own `__init__`: it fills the
    instance dict directly (the generated one makes an `object.__setattr__`
    call per field) and so would skip a `__post_init__`.
    """

    id: str
    labels: Mapping[str, str]
    relevance: float | None = None
    timestamp: int | None = None
    keywords: tuple[Keyword, ...] = ()

    def __init__(self, id: str, labels: Mapping[str, str], relevance: float | None = None,
                 timestamp: int | None = None, keywords: tuple[Keyword, ...] = ()) -> None:
        if id.__class__ is not str and not isinstance(id, str) or not id:
            raise ValidationError("document needs a non-empty string 'id'")
        if labels.__class__ is not dict and not isinstance(labels, Mapping):
            raise ValidationError(f"document {id!r} needs a 'labels' map")
        if relevance is not None:
            if not json_number_in(relevance, 0.0, 1.0):
                raise ValidationError(f"relevance for {id!r} must lie in [0, 1] (got {relevance!r})")
            if relevance.__class__ is not float:
                relevance = float(relevance)
        if timestamp is not None and timestamp.__class__ is not int and not json_isinstance(timestamp, int):
            raise ValidationError(f"timestamp for {id!r} must be an integer")
        if keywords and not (isinstance(keywords, tuple) and all(isinstance(kw, Keyword) for kw in keywords)):
            raise ValidationError(f"keywords for {id!r} must be a tuple of Keyword entries")
        fields = self.__dict__
        fields["id"] = id
        fields["labels"] = labels
        fields["relevance"] = relevance
        fields["timestamp"] = timestamp
        fields["keywords"] = keywords

    # Postponed evaluation stores the string 'None'; the generated __init__
    # stored None itself, and inspect.signature tells the two apart.
    __init__.__annotations__["return"] = None


@dataclass(frozen=True)
class InteractionRecord:
    """One interaction: string user, document id and type, integer time."""

    user: str
    doc: str
    type: str
    ts: int

    def __post_init__(self):
        for key, kind in (("user", str), ("doc", str), ("type", str), ("ts", int)):
            if not json_isinstance(getattr(self, key), kind):
                raise ValidationError(f"interaction needs {key!r} of type {kind.__name__}")


@dataclass(frozen=True)
class InteractionLog:
    """Time-stamped interaction records, stored as a tuple, plus per-type
    blend weights, stored as a read-only copy (a `MappingProxyType`)."""

    records: tuple[InteractionRecord, ...]
    type_weights: Mapping[str, float]

    def __post_init__(self):
        if not isinstance(self.records, (tuple, list)):
            raise ValidationError(f"interaction log records must be a tuple (got {self.records!r})")
        wrong = [r for r in self.records if not isinstance(r, InteractionRecord)]
        if wrong:
            raise ValidationError(f"interaction log records must be InteractionRecord entries (got {wrong!r})")
        object.__setattr__(self, "records", tuple(self.records))
        if not isinstance(self.type_weights, Mapping):
            raise ValidationError(
                f"interaction type weights must map types to numbers (got {self.type_weights!r})"
            )
        weights = dict(self.type_weights)
        for t, w in weights.items():
            if not json_isinstance(w, (int, float)):
                raise ValidationError(f"interaction type weight for {t!r} must be a number (got {w!r})")
            if not json_number_in(w, 0.0, float("inf")):
                raise ValidationError(f"interaction type weight for {t!r} is negative or NaN ({w!r})")
            json_float(w, f"interaction type weight for {t!r}")  # not an OverflowError in the sum
        total = sum(weights.values())
        if not abs(total - 1.0) <= WEIGHT_TOLERANCE:
            raise ValidationError(f"interaction type weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "type_weights", MappingProxyType(weights))


@dataclass(frozen=True)
class DiversityReport:
    """Overall diversity, its per-aspect decomposition, and the pair count.

    overall == sum of weight_a * per_aspect[a] up to float error, because the
    blended pair distance is linear in the per-aspect distances.
    """

    overall: float
    per_aspect: Mapping[str, float]
    pair_count: int

    def as_dict(self) -> dict:
        return {
            "overall": self.overall,
            "per_aspect": dict(self.per_aspect),
            "pair_count": self.pair_count,
        }


@dataclass(frozen=True)
class Window:
    """Recency window over a time-ordered sequence.

    kind "last" keeps the final `value` items; kind "cutoff" keeps items
    with timestamp >= `value`.
    """

    kind: str
    value: int

    def __post_init__(self):
        if self.kind not in ("last", "cutoff"):
            raise ValidationError(f"unknown window kind {self.kind!r}")
        if not json_isinstance(self.value, int):
            raise ValidationError(f"window value must be an integer (got {self.value!r})")
        if self.kind == "last" and self.value < 0:
            raise ValidationError("last-k window size must be >= 0")


def parse_window(text: str) -> Window:
    """Parse 'last:K', 'cutoff:TS', or a bare integer (meaning last:K)."""
    raw = text.strip()
    if ":" in raw:
        kind, _, num = raw.partition(":")
        kind = kind.strip()
    else:
        kind, num = "last", raw
    try:
        value = int(num)
    except ValueError:
        raise ValidationError(f"window value in {text!r} is not an integer") from None
    return Window(kind=kind, value=value)


def _label_indices(schema: AspectSchema, doc: DocumentProfile) -> tuple[int, ...]:
    """The document's row: its label index in each aspect, in schema aspect
    order, from the schema's row table. A label the table cannot resolve is
    reported here."""
    row = schema._row(doc.labels)
    if row is not None:
        return row
    for aspect in schema.aspects:
        label = doc.labels.get(aspect.name)
        if label is None:
            raise ContractError(
                f"document {doc.id!r} is missing a label for aspect {aspect.name!r}"
            )
        if not isinstance(label, str) or label not in aspect.index:
            raise UnknownEntityError(
                f"document {doc.id!r} uses unknown label {label!r} for aspect {aspect.name!r}"
            )


def _check_entries(entries: Sequence, what: str, kind: type = DocumentProfile, noun: str = "documents") -> None:
    """Every entry must be a `kind`; a ContractError names the others."""
    wrong = [e for e in entries if not isinstance(e, kind)]
    if wrong:
        raise ContractError(f"{what} contains entries that are not {noun}: {wrong}")


def _check_k(k: int, n: int) -> None:
    """A selection size must be an integer (not a bool) in [1, n]."""
    if not json_number_in(k, 1, n, int):
        raise ContractError(f"k must satisfy 1 <= k <= |pool| (got k={k!r}, |pool|={n})")


class _Pool(tuple):
    """Checked documents with `rows`, their rows in the same order: their
    entries are documents, their ids unique (unless the gate was told they
    may repeat) and their labels resolved. The corpus loader builds one from
    its documents, in file order, and `_pool` one from any other sequence;
    every other is a filter or a split of one, or the CLI's copy with the
    rules' boosted relevance."""

    def __new__(cls, docs: Iterable[DocumentProfile], rows: list[tuple]) -> _Pool:
        pool = tuple.__new__(cls, docs)
        pool.rows = rows
        return pool

    def take(self, positions: Sequence[int]) -> _Pool:
        """The documents at these positions, in that order, with their rows."""
        rows = self.rows
        return _Pool([self[i] for i in positions], [rows[i] for i in positions])


def _pool(schema: AspectSchema, docs: Sequence[DocumentProfile], what: str, unique: bool = True) -> _Pool:
    """The one gate for documents. A `_Pool` passes as it is. Any other
    sequence is checked in the order given, its entries (each must be a
    document), then its ids (unique, if `unique`), then each document's
    labels, and becomes a new pool; a ContractError names `what`."""
    if isinstance(docs, _Pool):
        return docs
    _check_entries(docs, what)
    if unique:
        ids = [d.id for d in docs]
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
            raise ContractError(f"{what} contains duplicate document ids: {dupes}")
    return _Pool(docs, [_label_indices(schema, d) for d in docs])


def _by_id(schema: AspectSchema, docs: Sequence[DocumentProfile], what: str) -> tuple[_Pool, list[tuple]]:
    """The pool the modes select from by position: the gate's pool in id
    order, and its rows."""
    pool = _pool(schema, docs, what)
    ordered = pool.take(sorted(range(len(pool)), key=lambda i: pool[i].id))
    return ordered, ordered.rows


def _counts(rows: Sequence[Sequence[int]], a: int) -> dict[int, int]:
    """How many of the rows carry each label of aspect a."""
    counts: dict[int, int] = {}
    for row in rows:
        counts[row[a]] = counts.get(row[a], 0) + 1
    return counts


def _pair_total(matrix: Sequence[Sequence[float]], counts: Mapping[int, int]) -> float:
    """One aspect's pair sum from its label counts, over the labels present
    in label-index order: the one summation order every value shares."""
    present = sorted(counts)
    total = 0.0
    for x, l in enumerate(present):
        distances, c_l = matrix[l], counts[l]
        for m in present[x + 1:]:
            total += c_l * counts[m] * distances[m]
    return total


def _diversity(schema: AspectSchema, rows: Sequence[Sequence[int]]) -> DiversityReport:
    """The count kernel: collection_diversity of the documents with these rows."""
    pairs = len(rows) * (len(rows) - 1) // 2
    divisor = max(pairs, 1)  # fewer than two rows: every sum is 0.0
    overall_sum = 0.0
    per_aspect = {}
    for a, aspect in enumerate(schema.aspects):
        total = _pair_total(aspect.matrix, _counts(rows, a))
        per_aspect[aspect.name] = total / divisor
        overall_sum += schema.weights[aspect.name] * total
    return DiversityReport(
        overall=overall_sum / divisor, per_aspect=per_aspect, pair_count=pairs
    )


def _candidate_values(
    schema: AspectSchema, rows: Sequence[Sequence[int]], candidates: Sequence[Sequence[int]], step: int = 1
) -> list[float]:
    """_diversity(schema, rows + [c]).overall for each candidate row c, or
    with step -1 that of rows less one row with c's labels, bitwise: per
    aspect the pair total with one label-i row more (or less) is summed once
    per label i, and the weighted totals are added in aspect order from 0.0,
    as the kernel adds them. A count left at 0 adds only +0.0 terms."""
    size = len(rows) + step
    divisor = max(size * (size - 1) // 2, 1)
    values = [0.0] * len(candidates)
    for a, (aspect, column) in enumerate(zip(schema.aspects, zip(*candidates))):
        counts, weight = _counts(rows, a), schema.weights[aspect.name]
        table = {}
        for i in set(column):
            grown = dict(counts)
            grown[i] = grown.get(i, 0) + step
            table[i] = weight * _pair_total(aspect.matrix, grown)
        values = list(map(add, values, map(table.__getitem__, column)))
    return [v / divisor for v in values]


def _distance_matrix(
    schema: AspectSchema, rows: Sequence[Sequence[int]], to: Sequence[Sequence[int]] | None = None
) -> Iterator[list[float]]:
    """The distances between label-index rows, one matrix row at a time.
    Without `to`, the strict upper triangle: row i holds the distances from
    row i to rows i+1..n-1, so the last is empty. With `to`, the rectangle:
    row i holds the distances from row i to every row of `to`. Each cell adds
    w_a * D_a to 0.0 in aspect order, so it is bitwise the overall _diversity
    of the two rows. The tables hold 0.0 + w_a * D_a, so a cell starts as its
    first aspect's entry; a sum that starts at 0.0 is never -0.0, so adding
    0.0 + x is adding x."""
    columns = rows if to is None else to
    (first, head), *others = [
        ([[0.0 + schema.weights[a.name] * d for d in line] for line in a.matrix], [row[i] for row in columns])
        for i, a in enumerate(schema.aspects)
    ]
    for i, row in enumerate(rows, 1):
        start = i if to is None else 0
        cells = list(map(first[row[0]].__getitem__, head[start:]))
        for (weighted, column), label in zip(others, row[1:]):
            cells = list(map(add, cells, map(weighted[label].__getitem__, column[start:])))
        yield cells


def collection_diversity(schema: AspectSchema, docs: Sequence[DocumentProfile]) -> DiversityReport:
    """Mean pairwise blended distance, with the per-aspect decomposition.
    The documents pass the gate, ids may repeat, so every label is checked,
    even in a list of fewer than two (which scores 0)."""
    return _diversity(schema, _pool(schema, docs, "document list", unique=False).rows)


def _check_sorted(docs: Sequence[DocumentProfile]) -> bool:
    """True when timestamps are present; ContractError on mixed or unsorted input."""
    stamps = [d.timestamp for d in docs]
    have = [s for s in stamps if s is not None]
    if not have:
        return False
    if len(have) != len(stamps):
        raise ContractError("sequence mixes documents with and without timestamps")
    for earlier, later in zip(stamps, stamps[1:]):
        if later < earlier:
            raise ContractError("sequence is not sorted by timestamp (non-decreasing required)")
    return True


def window_slice(docs: Sequence[DocumentProfile], window: Window) -> list[DocumentProfile]:
    """Apply a recency window to a time-ordered sequence of documents; a
    window that is not a Window, an entry that is not a document, or
    unsorted input is a ContractError, not a silent re-sort."""
    if not isinstance(window, Window):
        raise ContractError(f"window must be a Window (got {window!r})")
    _check_entries(docs, "sequence")
    timestamped = _check_sorted(docs)
    if window.kind == "last":
        if window.value == 0:
            return []
        return list(docs[-window.value:])
    if not timestamped:
        raise ContractError("cutoff window requires timestamped documents")
    return [d for d in docs if d.timestamp >= window.value]


def docs_per_type(corpus_docs: Mapping[str, DocumentProfile], log: InteractionLog) -> dict[str, list[DocumentProfile]]:
    """Unique documents per interaction type, in first-appearance order.

    Raises UnknownEntityError listing every record document id that does not
    resolve against the corpus.
    """
    if not isinstance(log, InteractionLog):
        raise ContractError(f"log must be an InteractionLog (got {log!r})")
    unresolved = sorted({r.doc for r in log.records if r.doc not in corpus_docs})
    if unresolved:
        raise UnknownEntityError(
            f"interaction records reference unknown documents: {unresolved}"
        )
    grouped: dict[str, dict[str, DocumentProfile]] = {t: {} for t in log.type_weights}
    for r in log.records:
        # An unweighted type's document goes to a dict that is dropped.
        grouped.get(r.type, {}).setdefault(r.doc, corpus_docs[r.doc])
    return {t: list(docs.values()) for t, docs in grouped.items()}


def interaction_diversity(schema: AspectSchema, corpus_docs: Mapping[str, DocumentProfile], log: InteractionLog) -> float:
    """Type-weighted diversity across a user's interaction history.

    Each interaction type contributes the diversity of the distinct
    documents touched via that type; types with fewer than two documents
    contribute 0, though their labels are checked too. The result is the
    weight-blended sum over types.
    """
    grouped = docs_per_type(corpus_docs, log)
    total = 0.0
    for t in log.type_weights:
        total += log.type_weights[t] * collection_diversity(schema, grouped[t]).overall
    return total


def keyword_diversity(schema: AspectSchema, keywords: Sequence[Keyword]) -> float:
    """Diversity of labeled keywords, treated as pseudo-documents."""
    if not keywords:
        raise ContractError("keyword diversity needs at least one keyword")
    _check_entries(keywords, "keyword list", Keyword, "keywords")
    pseudo = [
        DocumentProfile(id=f"kw{i}:{kw.term}", labels=kw.labels)
        for i, kw in enumerate(keywords)
    ]
    return collection_diversity(schema, pseudo).overall


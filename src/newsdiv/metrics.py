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
hold yet; it is the modes' only label check. Two kernels read rows and the
distance matrices: the count kernel `_diversity` (stepped by
`_candidate_values`) and the pair kernel `_distance_matrix`. Every mode that
takes a pool selects by position in the pool `_by_id` builds once: the
documents in id order and their rows. `_by_id` has two constructors. A
`_Pool`, which only the corpus loader makes from documents, carries the
rows the loader resolved and only has to be put in id order; any other
sequence has its ids and then its labels checked.

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


@dataclass(frozen=True)
class DocumentProfile:
    """A document reduced to its aspect labels plus optional extras.

    `labels` must hold exactly one label per schema aspect (validated by the
    corpus loader). `relevance` is an optional score in [0, 1], `timestamp`
    an optional epoch-seconds integer, `keywords` optional labeled terms for
    content-level diversity.

    The dataclass keeps the class's own `__init__`, which fills the instance
    dict directly (the generated one makes an `object.__setattr__` call per
    field) and so would skip a `__post_init__`.
    """

    id: str
    labels: Mapping[str, str]
    relevance: float | None = None
    timestamp: int | None = None
    keywords: tuple[Keyword, ...] = ()

    def __init__(self, id: str, labels: Mapping[str, str], relevance: float | None = None,
                 timestamp: int | None = None, keywords: tuple[Keyword, ...] = ()) -> None:
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
    user: str
    doc: str
    type: str
    ts: int


@dataclass(frozen=True)
class InteractionLog:
    """Time-stamped interaction records plus per-type blend weights."""

    records: tuple[InteractionRecord, ...]
    type_weights: Mapping[str, float]

    def __post_init__(self):
        if not isinstance(self.type_weights, Mapping):
            raise ValidationError(
                f"interaction type weights must map types to numbers (got {self.type_weights!r})"
            )
        for t, w in self.type_weights.items():
            if not json_isinstance(w, (int, float)):
                raise ValidationError(f"interaction type weight for {t!r} must be a number (got {w!r})")
            if not json_number_in(w, 0.0, float("inf")):
                raise ValidationError(f"interaction type weight for {t!r} is negative or NaN ({w!r})")
            json_float(w, f"interaction type weight for {t!r}")  # not an OverflowError in the sum
        total = sum(self.type_weights.values())
        if not abs(total - 1.0) <= WEIGHT_TOLERANCE:
            raise ValidationError(f"interaction type weights must sum to 1 (got {total!r})")


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


def _check_unique_ids(docs: Sequence[DocumentProfile], what: str) -> None:
    """Document ids must be unique strings. The modes that sort by id check
    them first, so a wrong id is named here and never fails the sort."""
    ids = [d.id for d in docs]
    wrong = [i for i in ids if not isinstance(i, str)]
    if wrong:
        raise ContractError(f"{what} contains document ids that are not strings: {wrong}")
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
        raise ContractError(f"{what} contains duplicate document ids: {dupes}")


def _check_k(k: int, n: int) -> None:
    """A selection size must be an integer (not a bool) in [1, n]."""
    if not json_number_in(k, 1, n, int):
        raise ContractError(f"k must satisfy 1 <= k <= |pool| (got k={k!r}, |pool|={n})")


class _Pool(tuple):
    """Documents the corpus loader checked, in file order, with `rows`, their
    rows in the same order: their ids are unique strings, their labels
    resolved and their relevance scores in [0, 1]. Only the loader builds
    one from documents. Every other is built from one: a filter or a split
    of it, or the CLI's copy with the rules' boosted relevance, which the
    rules clamp to [0, 1]. The CLI, which alone holds the loader's pool, is
    the only caller that passes one; a list or a tuple, the public
    `Corpus.docs()` included, is always checked."""

    def __new__(cls, docs: Iterable[DocumentProfile], rows: list[tuple]) -> _Pool:
        pool = tuple.__new__(cls, docs)
        pool.rows = rows
        return pool

    def take(self, positions: Sequence[int]) -> _Pool:
        """The documents at these positions, in that order, with their rows."""
        rows = self.rows
        return _Pool([self[i] for i in positions], [rows[i] for i in positions])


def _by_id(schema: AspectSchema, docs: Sequence[DocumentProfile], what: str) -> tuple[Sequence, list[tuple]]:
    """The pool the modes select from by position: the documents in id order
    and their rows. A loader's pool is only put in id order; any other
    sequence has its ids checked, here, then every label in id order."""
    if isinstance(docs, _Pool):
        ordered = docs.take(sorted(range(len(docs)), key=lambda i: docs[i].id))
        return ordered, ordered.rows
    _check_unique_ids(docs, what)
    ordered = sorted(docs, key=lambda d: d.id)
    return ordered, [_label_indices(schema, d) for d in ordered]


def _check_relevance(docs: Sequence[DocumentProfile]) -> None:
    """A relevance score, where a document has one, is a number in [0, 1]."""
    outside = [d.id for d in docs if d.relevance is not None and not json_number_in(d.relevance, 0.0, 1.0)]
    if outside:
        raise ContractError(f"documents with relevance outside [0, 1]: {sorted(outside)}")


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
    Every label is checked, even in a list of fewer than two (which scores 0);
    a loader's pool was checked on load and brings its rows."""
    if isinstance(docs, _Pool):
        return _diversity(schema, docs.rows)
    return _diversity(schema, [_label_indices(schema, d) for d in docs])


def _check_sorted(docs: Sequence[DocumentProfile]) -> bool:
    """True when timestamps are present; ContractError on mixed, non-integer or unsorted input."""
    stamps = [d.timestamp for d in docs]
    have = [s for s in stamps if s is not None]
    if not have:
        return False
    if len(have) != len(stamps):
        raise ContractError("sequence mixes documents with and without timestamps")
    bad = [s for s in have if not json_isinstance(s, int)]
    if bad:
        raise ContractError(f"sequence timestamps must be integers (got {bad})")
    for earlier, later in zip(stamps, stamps[1:]):
        if later < earlier:
            raise ContractError("sequence is not sorted by timestamp (non-decreasing required)")
    return True


def window_slice(docs: Sequence[DocumentProfile], window: Window) -> list[DocumentProfile]:
    """Apply a recency window to a time-ordered sequence; unsorted input is a
    ContractError, not a silent re-sort."""
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
    pseudo = [
        DocumentProfile(id=f"kw{i}:{kw.term}", labels=kw.labels)
        for i, kw in enumerate(keywords)
    ]
    return collection_diversity(schema, pseudo).overall


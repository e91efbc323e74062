"""Diversification procedures: the four recommendation-surface modes.

Lists are improved by swapping items against a pool, or built greedily from
scratch; sequences pick the next item against a recency window; summaries
pick maximally distant sources; interaction suggestions extend a user's
interaction history in the direction that raises type-weighted diversity.

Every procedure is deterministic and picks its winners through `_pick`:
values within TIE_TOLERANCE count as tied, then the documented secondary
key decides, then the smaller id.

Every mode reads documents' rows from the one gate, `metrics._pool`, which
passes the corpus loader's pool as it is and checks any other sequence in
the order given. A mode that takes a pool (and the oracle) selects by
position in the gate's pool in id order, which `metrics._by_id` builds
once; swap's is its list plus pool, and its list keeps its slots. Greedy
and the blend step through one loop, `_grow`, with their own step score,
and `_result` builds a result from the chosen positions.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .aspect_model import AspectSchema
from .errors import ContractError, UnknownEntityError, json_number_in
from .metrics import (
    DiversityReport,
    DocumentProfile,
    InteractionLog,
    TIE_TOLERANCE,
    Window,
    _Pool,
    _by_id,
    _candidate_values,
    _check_entries,
    _check_k,
    _distance_matrix,
    _diversity,
    _pool,
    docs_per_type,
    keyword_diversity,
    window_slice,
)
# collection_diversity and interaction_diversity are unused here;
# newsbench/tracing.py patches these names.
from .metrics import collection_diversity, interaction_diversity  # noqa: F401
from .rules import _record

# A swap must improve overall diversity by more than this to be accepted.
SWAP_EPSILON = 1e-12

# Default decay for the recency tie-break in sequence mode.
DEFAULT_GAMMA = 0.5


@dataclass(frozen=True)
class RerankResult:
    """Outcome of a diversification procedure.

    `trace` is a tuple of decision records (dicts with a 'kind' and a
    human-readable 'detail') covering seeds, additions, swaps, rule effects,
    and warnings. `keyword_diversity` is only set by summary mode when the
    selected sources carry keywords.
    """

    selected: tuple[str, ...]
    diversity: DiversityReport
    objective: float
    trace: tuple[dict, ...] = ()
    keyword_diversity: float | None = None

    def as_dict(self) -> dict:
        out = {
            "selected": list(self.selected),
            "diversity": self.diversity.as_dict(),
            "objective": self.objective,
            "trace": [dict(t) for t in self.trace],
        }
        if self.keyword_diversity is not None:
            out["keyword_diversity"] = self.keyword_diversity
        return out


def exclude_history(
    candidates: Sequence[DocumentProfile], history_ids: set[str]
) -> list[DocumentProfile]:
    """Novelty pre-filter: drop candidates the user has already consumed.
    A loader's pool stays one; any other entry must be a document."""
    if isinstance(candidates, _Pool):
        return candidates.take([i for i, c in enumerate(candidates) if c.id not in history_ids])
    _check_entries(candidates, "candidate list")
    return [c for c in candidates if c.id not in history_ids]


def _result(schema: AspectSchema, docs: Sequence, rows: Sequence, chosen: list, trace: list) -> RerankResult:
    """The result selecting the documents at these positions, scored from their rows."""
    report = _diversity(schema, [rows[i] for i in chosen])
    return RerankResult(tuple(docs[i].id for i in chosen), report, report.overall, tuple(trace))


def _pick(entries: Iterable[tuple]) -> tuple:
    """The best (primary, secondary, item) entry; entries come in id order.

    A primary more than TIE_TOLERANCE above the best so far wins outright;
    one within TIE_TOLERANCE counts as tied, and then a secondary more than
    TIE_TOLERANCE above the best's wins. Any other entry loses, so full
    ties go to the earlier entry, the smaller id.
    """
    best = None
    for entry in entries:
        if best is None or entry[0] > best[0] + TIE_TOLERANCE or (
            entry[0] >= best[0] - TIE_TOLERANCE and entry[1] > best[1] + TIE_TOLERANCE
        ):
            best = entry
    return best


def swap_diversify(
    schema: AspectSchema,
    items: Sequence[DocumentProfile],
    pool: Sequence[DocumentProfile],
    budget: int,
) -> RerankResult:
    """Improve an existing list by swapping members against the pool.

    Each round prefers to remove the list item whose removal hurts diversity
    least (the overrepresented one; ties to the smaller id) and insert the
    pool item whose substitution helps most (ties to the smaller id). When
    the preferred removal admits no improving insertion, the next removal
    candidate in preference order is tried, so the loop only stops when no
    single exchange improves diversity by more than SWAP_EPSILON. The
    trajectory is therefore strictly increasing and ends at the budget or at
    a swap-neighborhood local optimum. Swapped-out items return to the pool
    and may be reconsidered later.
    """
    if not items:
        raise ContractError("swap_diversify needs a non-empty starting list")
    if not json_number_in(budget, 0, float("inf"), int):
        raise ContractError(f"swap budget must be an integer >= 0 (got {budget!r})")
    both = [*items, *pool]
    if isinstance(items, _Pool) and isinstance(pool, _Pool):  # one loader's pool, split in two
        both = _Pool(both, [*items.rows, *pool.rows])
    docs, rows = _by_id(schema, both, "list plus pool")
    at = {d.id: i for i, d in enumerate(docs)}
    # Positions into docs: the list's in list order, and the pool's (swapped-out ones too).
    current = [at[d.id] for d in items]
    available = [at[d.id] for d in pool]
    trace: list[dict] = []
    before = _diversity(schema, [rows[i] for i in current]).overall
    for _ in range(budget):
        if not available:
            break
        held = [rows[i] for i in current]
        # Removal preference: highest remainder diversity, then smaller id.
        remainders = _candidate_values(schema, held, held, -1)
        removal_order = sorted(range(len(current)), key=lambda x: (-remainders[x], current[x]))
        insertable = sorted(available)
        insertable_rows = [rows[i] for i in insertable]
        for chosen_idx in removal_order:
            # Insertion choice: highest resulting diversity, then smaller id.
            values = _candidate_values(schema, held[:chosen_idx] + held[chosen_idx + 1:], insertable_rows)
            best_after, _, best_sub = _pick(zip(values, repeat(0.0), insertable))
            if best_after > before + SWAP_EPSILON:
                break
        else:
            break
        removed = current[chosen_idx]
        current[chosen_idx] = best_sub
        available[available.index(best_sub)] = removed  # its order is never read: it is sorted
        out, into = docs[removed].id, docs[best_sub].id
        trace.append(_record("swap", out=out, **{"in": into}, before=before, after=best_after))
        # Exact label counts make the value order-free, so this is current's.
        before = best_after
    return _result(schema, docs, rows, current, trace)


def _grow(schema: AspectSchema, rows: Sequence[tuple], chosen: list[int], k: int, score) -> Iterator[tuple]:
    """Grow `chosen`, positions in an id-ordered pool, to k, adding per step the
    best remaining i (ties to the smaller id) under score(remaining, values),
    values[x] being the diversity with remaining[x] added. Yields (score, i, v)."""
    remaining = [i for i in range(len(rows)) if i not in chosen]
    while len(chosen) < k:
        values = _candidate_values(schema, [rows[i] for i in chosen], [rows[i] for i in remaining])
        best, _, (i, v) = _pick(zip(score(remaining, values), repeat(0.0), zip(remaining, values)))
        chosen.append(i)
        remaining.remove(i)
        yield best, i, v


def greedy_select(schema: AspectSchema, pool: Sequence[DocumentProfile], k: int) -> RerankResult:
    """Build a k-list greedily, maximizing diversity at each step.

    Seeding is deterministic: take the most distant pair (ties to the
    lexicographically smallest sorted id pair) and start from its smaller
    id. Each later step adds the candidate that maximizes the diversity of
    the grown selection, ties to the smaller id.
    """
    _check_k(k, len(pool))
    return _greedy(schema, *_by_id(schema, pool, "pool"), k)


def _greedy(schema: AspectSchema, docs: list[DocumentProfile], rows: list[tuple], k: int) -> RerankResult:
    """greedy_select on a pool from _by_id: its documents and rows in id order."""
    n = len(docs)
    trace: list[dict] = []
    if n == 1:
        seed = 0
        trace.append(_record("seed", f"seeded with {docs[0].id} (only candidate)", doc=docs[0].id))
    else:
        # _pick's row-major scan over the pairs. Its secondary key is 0.0, so
        # an entry replaces the best only when more than TIE_TOLERANCE above
        # it, and a row whose largest distance is not can be skipped whole.
        best = (-1.0, 0.0, None)  # below every distance, so the first pair replaces it
        for i, line in zip(range(n - 1), _distance_matrix(schema, rows)):
            if max(line) > best[0] + TIE_TOLERANCE:
                best = _pick(chain([best], ((d, 0.0, (i, j)) for j, d in enumerate(line, i + 1))))
        best_dist, _, (seed, j) = best
        first = docs[seed].id
        detail = f"smaller id of most distant pair ({first}, {docs[j].id}) at distance {best_dist:.12g}"
        trace.append(_record("seed", f"seeded with {first}, {detail}", doc=first))

    chosen = [seed]
    before = 0.0  # a single document
    for after, i, _ in _grow(schema, rows, chosen, k, lambda remaining, values: values):
        trace.append(_record("add", doc=docs[i].id, before=before, after=after, gain=after - before))
        before = after
    return _result(schema, docs, rows, chosen, trace)


def next_in_sequence(
    schema: AspectSchema,
    history: Sequence[DocumentProfile],
    candidates: Sequence[DocumentProfile],
    window: Window,
    gamma: float = DEFAULT_GAMMA,
) -> RerankResult:
    """Pick the candidate that most diversifies the recent window.

    Primary criterion: diversity of the windowed history with the candidate
    appended. Within TIE_TOLERANCE, prefer the candidate with the larger
    gamma-decayed distance to the window (age 0 = most recent item). Final
    ties go to the smaller id via the id-sorted scan. The result selects the
    winner alone; its objective and its "next" trace record carry the
    winner's windowed diversity.
    """
    if not candidates:
        raise ContractError("candidate set must be non-empty")
    if not json_number_in(gamma, 0.0, 1.0) or gamma == 0.0:
        raise ContractError(f"gamma must lie in (0, 1] (got {gamma!r})")
    # Checks: window labels, candidate ids, candidate labels in the order
    # given. Both values are scored once per distinct row. One pair-kernel
    # call gives each distinct window row its distances to them; affinities
    # add gamma**age times those of each window item, newest first.
    recent = _pool(schema, window_slice(history, window), "sequence", unique=False).rows
    ordered, keys = _by_id(schema, candidates, "candidate set")
    distinct = list(dict.fromkeys(keys))
    past = list(dict.fromkeys(recent))
    towards = dict(zip(past, _distance_matrix(schema, past, distinct)))
    affinities = [0.0] * len(distinct)
    for age, r in enumerate(reversed(recent)):
        decay = gamma**age
        affinities = [a + decay * d for a, d in zip(affinities, towards[r])]
    scores = dict(zip(distinct, zip(_candidate_values(schema, recent, distinct), affinities)))
    best_primary, _, best = _pick((*scores[key], i) for i, key in enumerate(keys))
    trace = [_record("next", doc=ordered[best].id, window_diversity=best_primary)]
    return replace(_result(schema, ordered, keys, [best], trace), objective=best_primary)


def select_summary_sources(schema: AspectSchema, pool: Sequence[DocumentProfile], k: int) -> RerankResult:
    """Pick k maximally diverse source articles for a summary.

    Selection delegates to greedy_select. When the chosen sources carry
    keywords, the pooled keyword diversity rides along in the result; a
    zero-diversity selection of two or more sources gets a warning record.
    """
    result = greedy_select(schema, pool, k)
    by_id = {d.id: d for d in pool}
    trace = list(result.trace)
    kd = None
    pooled = [kw for doc_id in result.selected for kw in by_id[doc_id].keywords]
    if pooled:
        kd = keyword_diversity(schema, pooled)
        trace.append(_record("keyword_diversity", value=kd))
    if len(result.selected) >= 2 and result.diversity.overall == 0.0:
        detail = "selected sources are indistinguishable under the schema (zero diversity)"
        trace.append(_record("warning", detail))
    return replace(result, trace=tuple(trace), keyword_diversity=kd)


def suggest_interaction(
    schema: AspectSchema,
    corpus_docs: Mapping[str, DocumentProfile],
    log: InteractionLog,
    options: Sequence[tuple[str, str]],
) -> RerankResult:
    """Choose the (document, interaction type) that most diversifies the log.

    Options are (doc id, type) pairs. Primary criterion: type-weighted
    overall diversity of the log extended by that interaction. Within
    TIE_TOLERANCE, prefer the higher per-type diversity of the option's own
    type; remaining ties go to the lexicographically smaller (type, id).
    The result selects the winning document; its "suggest" trace record
    names the type, and the objective is the extended log's diversity.
    """
    if not options:
        raise ContractError("options must be non-empty")
    shapeless = [o for o in options if not (isinstance(o, (tuple, list)) and len(o) == 2)]
    if shapeless:
        raise ContractError(f"options that are not (document id, type) pairs: {shapeless}")
    wrong = [(i, t) for i, t in options if not (isinstance(i, str) and isinstance(t, str))]
    if wrong:
        raise ContractError(f"options with a document id or type that is not a string: {wrong}")
    unresolved = sorted({doc_id for doc_id, _ in options if doc_id not in corpus_docs})
    if unresolved:
        raise UnknownEntityError(f"options reference unknown documents: {unresolved}")
    # docs_per_type checks the log and names its unknown documents; then every
    # label is checked before any option is scored, the log's and the options'.
    grouped = docs_per_type(corpus_docs, log)
    ids = list(dict.fromkeys([r.doc for r in log.records] + [doc_id for doc_id, _ in options]))
    row = dict(zip(ids, _pool(schema, [corpus_docs[i] for i in ids], "corpus mapping", unique=False).rows))
    groups = {t: {d.id: row[d.id] for d in docs} for t, docs in grouped.items()}
    own = {t: _diversity(schema, list(group.values())).overall for t, group in groups.items()}
    # An option adding a new document to its weighted type's group changes
    # that type's term only. Any other option reads its type's own value (an
    # unweighted type's replaces no term), so it scores as the unchanged log.
    changed: dict[tuple[str, str], float] = {}
    for t, group in groups.items():
        new = [i for i in dict.fromkeys(i for i, it in options if it == t) if i not in group]
        values = _candidate_values(schema, list(group.values()), [row[i] for i in new])
        changed.update(zip([(i, t) for i in new], values))

    def entry(doc_id: str, itype: str) -> tuple[float, float, tuple[str, str]]:
        """interaction_diversity of the log extended by the option, in weight
        order (a group of fewer than two documents adds w * 0.0, the same
        bits), then the option's own type's value."""
        value = changed.get((doc_id, itype), own.get(itype, 0.0))
        total = 0.0
        for t, w in log.type_weights.items():
            total += w * (value if t == itype else own[t])
        return total, value, (doc_id, itype)

    best_overall, _, (doc_id, itype) = _pick(
        entry(doc_id, itype) for doc_id, itype in sorted(options, key=lambda o: (o[1], o[0]))
    )
    return RerankResult(
        selected=(doc_id,),
        diversity=_diversity(schema, [row[doc_id]]),
        objective=best_overall,
        trace=(_record("suggest", doc=doc_id, type=itype, overall=best_overall),),
    )


def rerank_combined(
    schema: AspectSchema,
    pool: Sequence[DocumentProfile],
    k: int,
    lam: float,
) -> RerankResult:
    """Greedy relevance/diversity blend.

    Step score for candidate c given selection S:

        lam * relevance(c) + (1 - lam) * diversity(S + [c])

    lam = 1 degenerates to top-k by relevance (id tie-break); lam = 0
    delegates to greedy_select so the pure-diversity path keeps its
    farthest-pair seeding. The reported objective is
    lam * mean_relevance(selected) + (1 - lam) * diversity(selected).
    """
    _check_k(k, len(pool))
    if not json_number_in(lam, 0.0, 1.0):
        raise ContractError(f"lambda must lie in [0, 1] (got {lam!r})")
    docs, rows = _by_id(schema, pool, "pool")
    missing = [d.id for d in docs if d.relevance is None]
    if missing:
        raise ContractError(f"documents missing relevance scores: {missing}")

    if lam == 0.0:
        base = _greedy(schema, docs, rows, k)
        note = _record("note", "lambda = 0: selection delegated to pure diversity greedy")
        return replace(base, trace=base.trace + (note,))

    def blend(remaining: list[int], values: list[float]) -> list[float]:
        return [lam * docs[i].relevance + (1.0 - lam) * v for i, v in zip(remaining, values)]

    chosen: list[int] = []
    trace: list[dict] = []
    for score, i, v in _grow(schema, rows, chosen, k, blend):
        d = docs[i]
        detail = f"added {d.id}: score {score:.12g} (relevance {d.relevance:.12g}, diversity {v:.12g}, "
        detail += f"lambda {lam:.12g})"
        trace.append(_record("add", detail, doc=d.id, relevance=d.relevance, diversity_after=v, score=score))

    result = _result(schema, docs, rows, chosen, trace)
    mean_rel = sum(docs[i].relevance for i in chosen) / len(chosen)
    return replace(result, objective=lam * mean_rel + (1.0 - lam) * result.diversity.overall)

"""Editorial rules: scoped predicates that filter, boost, or require.

compile_predicate checks each predicate against the schema and compiles
it into a test: when a rule loads (an unknown aspect or label fails
immediately, never at apply time) and once per rule whenever rules are
applied. A compiled test runs on an item set, which maps each aspect's
labels to bitmasks of the items carrying them, and returns the mask of the
items it matches: a leaf ORs label masks, and `all`, `any` and `not` are
`&`, `|` and `^`. apply_rules builds one item set over the distinct label
tuples among the candidates, so a rule costs one mask over those tuples.
It groups the loader's pool by the rows the loader stored and returns its
survivors as a pool, with their rows; any other candidate list has its ids
and relevance checked and is grouped by rows it resolves. After the rule
loop, _fold adds each boosted document's deltas in rule order, clamping
each sum, and keeps only the final relevance and each rule's clamp count.
check_requirements counts a rule's matches in the final selection as the
set bits of one mask.

Application is pure: input profiles are never mutated, boosts come back
as an adjusted-relevance map, and require_at_least never alters the
candidate list; it is reported as a violation when the final selection
falls short. The trace holds one record per excluded document and one
summary record per boost rule; RuleApplication.trace_for adds the
per-document boost records of the selected documents, the ones explain
narrates, replaying each one's steps through _fold from its relevance and
its group's steps, so a call pays only for the steps it reports.
EXPLAINED declares every trace record kind the package emits, the fields
explain reads from it, the line explain lists it with, and the template
its `detail` is worded with. Every record, here and in diversify,
is built in one place, _record, which refuses a kind EXPLAINED lacks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress
from operator import and_, or_
from typing import Callable, Iterable, Mapping, Sequence

from .aspect_model import AspectSchema
from .errors import UnknownEntityError, ValidationError, json_float, json_isinstance, json_number_in
from .metrics import DocumentProfile, _Pool, _check_relevance, _check_unique_ids

SCOPES = ("global", "context", "request")

# Keys that select a predicate's kind; a predicate holds exactly one.
OPERATORS = frozenset({"all", "any", "not", "ancestor", "aspect"})

# Predicates nesting deeper than this many levels are rejected, so neither
# compiling nor testing one can exhaust the interpreter's stack.
MAX_PREDICATE_DEPTH = 100


@dataclass(frozen=True)
class Rule:
    """One editorial rule. Its id, scope, context tag, action and value are
    checked when it is built, and a boost delta is stored as a float."""

    id: str
    scope: str
    predicate: Mapping
    action: str  # "exclude" | "require_at_least" | "boost"
    value: float | int | None = None  # m for require_at_least, delta for boost
    context: str | None = None  # context tag, required for context scope

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("each rule needs a non-empty string 'id'")
        if self.scope not in SCOPES:
            raise _invalid(self.id, f"scope must be one of {list(SCOPES)} (got {self.scope!r})")
        if self.context is not None and not isinstance(self.context, str):
            raise _invalid(self.id, "context tag must be a string")
        if self.scope == "context" and not self.context:
            raise _invalid(self.id, "context-scope rules need a 'context' tag")
        if self.action == "require_at_least":
            if not json_number_in(self.value, 1, float("inf"), int):
                raise _invalid(self.id, "require_at_least needs an integer m >= 1")
        elif self.action == "boost":
            if not json_number_in(self.value, -1.0, 1.0):
                raise _invalid(self.id, f"boost delta must lie in [-1, 1] (got {self.value!r})")
            object.__setattr__(self, "value", float(self.value))
        elif self.action != "exclude":
            raise _invalid(self.id, f"unknown action {self.action!r}")


@dataclass(frozen=True)
class RuleSet:
    """Ordered global and context rules plus the set of currently active
    context tags; request-scope rules come with each request instead."""

    rules: tuple[Rule, ...]
    context_tags: frozenset[str] = frozenset()

    def __post_init__(self):
        for rule in self.rules:
            if rule.scope == "request":
                raise _invalid(rule.id, "request-scope rules come with each request, not in a RuleSet")
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"rule ids must be unique (duplicates: {dupes})")

    def active(self, request_rules: Sequence[Rule] = ()) -> list[Rule]:
        """Rules in evaluation order: global, active-context, request."""
        ordered = [r for r in self.rules if r.scope == "global"]
        ordered += [r for r in self.rules if r.scope == "context" and r.context in self.context_tags]
        return ordered + list(request_rules)


def _invalid(rule_id: str, message: str) -> ValidationError:
    return ValidationError(f"rule {rule_id!r}: {message}")


def compile_predicate(schema: AspectSchema, predicate, rule_id: str) -> Callable[[Mapping[str, Mapping], int], int]:
    """Check a predicate against the schema and return its test on an item set.

    A predicate referencing anything outside the schema, or nesting deeper
    than MAX_PREDICATE_DEPTH, raises an error naming the rule. The test takes
    an item set as `_index` builds it, `(index, full)`, and returns the mask
    of the items that match. Each leaf ORs the masks of the labels it
    accepts on one aspect (an `ancestor` leaf: the labels whose graph
    ancestors hold the node), so a missing or unknown label never matches;
    `all` is `&`, `any` is `|` and `not` is `full ^` its branch.
    """

    def aspect_named(name):
        try:
            return schema.aspect(name)
        except UnknownEntityError:
            raise _invalid(rule_id, f"unknown aspect {name!r}") from None

    def compile_(pred, depth):
        if depth > MAX_PREDICATE_DEPTH:
            raise _invalid(rule_id, f"predicate nests deeper than {MAX_PREDICATE_DEPTH} levels")
        if not isinstance(pred, dict) or not pred:
            raise _invalid(rule_id, "predicate must be a non-empty object")
        operators = sorted(OPERATORS.intersection(pred))
        if len(operators) > 1:
            raise _invalid(
                rule_id, f"predicate combines operators {operators}; nest them under 'all' or 'any'"
            )
        if "all" in pred or "any" in pred:
            key = "all" if "all" in pred else "any"
            if not isinstance(pred[key], list) or not pred[key]:
                raise _invalid(rule_id, f"{key!r} must hold a non-empty list of predicates")
            tests = [compile_(branch, depth + 1) for branch in pred[key]]
            combine = and_ if key == "all" else or_
            return lambda index, full: reduce(combine, [test(index, full) for test in tests])
        if "not" in pred:
            test = compile_(pred["not"], depth + 1)
            return lambda index, full: full ^ test(index, full)
        if "ancestor" in pred:
            inner = pred["ancestor"]
            if not isinstance(inner, dict) or "aspect" not in inner or "node" not in inner:
                raise _invalid(rule_id, "ancestor test needs 'aspect' and 'node'")
            aspect, node = aspect_named(inner["aspect"]), inner["node"]
            if aspect.graph is None:
                raise _invalid(rule_id, f"aspect {aspect.name!r} has no label graph for an ancestor test")
            if node not in aspect.graph.nodes:
                raise _invalid(rule_id, f"unknown graph node {node!r} for aspect {aspect.name!r}")
            accepted = tuple(l for l in aspect.labels if node in aspect.graph.ancestors[l])
        elif "aspect" in pred:
            aspect, op, value = aspect_named(pred["aspect"]), pred.get("op", "eq"), pred.get("value")
            if op == "eq":
                accepted = (value,)
            elif op != "in":
                raise _invalid(rule_id, f"unknown predicate op {op!r}")
            elif not isinstance(value, list) or not value:
                raise _invalid(rule_id, "'in' needs a non-empty list of labels")
            else:
                accepted = tuple(value)
            for v in accepted:
                if v not in aspect.labels:
                    raise _invalid(rule_id, f"unknown label {v!r} for aspect {aspect.name!r}")
        else:
            raise _invalid(
                rule_id, f"predicate must be one of eq/in/all/any/not/ancestor (got keys {sorted(pred)})"
            )
        name = aspect.name
        return lambda index, full: reduce(or_, [index[name].get(label, 0) for label in accepted], 0)

    return compile_(predicate, 1)


def _index(schema: AspectSchema, label_maps: Sequence[Mapping]) -> tuple[dict[str, dict], int]:
    """The item set compiled predicates test: for each schema aspect, a dict
    from each label the items carry to the mask of those items (item i is
    bit i), and the mask of every item. A missing label is keyed None and an
    unhashable one sets no bit, so neither ever matches a leaf."""
    index: dict[str, dict] = {name: {} for name in schema.aspect_names()}
    for name, masks in index.items():
        bit = 1
        for labels in label_maps:
            label = labels.get(name)
            try:
                masks[label] = masks.get(label, 0) | bit
            except TypeError:  # an unhashable label value
                pass
            bit <<= 1
    return index, (1 << len(label_maps)) - 1


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, ascending."""
    flags = bin(mask)[:1:-1].encode().translate(_FLAGS)  # byte i is bit i, 0 or 1
    return list(compress(range(len(flags)), flags))


def parse_rule(schema: AspectSchema, obj) -> Rule:
    """Build a Rule from a parsed JSON object: action shape, Rule's checks
    (the id first), predicate."""
    if not isinstance(obj, dict):
        raise ValidationError("each rule must be a JSON object")
    action_obj = obj.get("action")
    if not isinstance(action_obj, dict) or len(action_obj) != 1:
        raise _invalid(obj.get("id"), "action must be exactly one of exclude / require_at_least / boost")
    action, value = next(iter(action_obj.items()))
    rule = Rule(
        id=obj.get("id"), scope=obj.get("scope"), predicate=obj.get("predicate"), action=action,
        value=None if action == "exclude" else value, context=obj.get("context"),
    )
    compile_predicate(schema, rule.predicate, rule.id)
    return rule


def _fold(relevance: float | None, steps: Iterable[tuple[int, float]], clamped: list[int]) -> float:
    """A document's relevance after its boost steps in rule order, each
    (rule, delta), a rule being its place among the boost rules: each step
    adds its delta to the relevance so far (0.0 for None) and clamps the sum
    to [0, 1], counting the clamp in clamped[rule]. It holds the one clamp:
    apply_rules folds all of a document's steps at once, and trace_for
    folds one step at a time to read each step's result."""
    before = 0.0 if relevance is None else relevance
    for slot, delta in steps:
        raw = before + delta
        # min(1.0, max(0.0, raw)), spelled out for this hot loop
        before = raw if 0.0 < raw < 1.0 else 1.0 if raw >= 1.0 else 0.0
        if before != raw:
            clamped[slot] += 1
    return before


@dataclass(frozen=True)
class RuleApplication:
    """Pure outcome of applying rules to a candidate list.

    candidates: surviving profiles, original objects, input order kept.
    adjusted_relevance: doc id -> clamped post-boost relevance (only boosted
    docs appear; unboosted docs keep their profile relevance).
    adjustments: trace records in application order: one "exclude" record
    per excluded document, and one "boost_rule" record per boost rule with
    the count of documents it matched and of those whose boost was clamped.
    adjusted_relevance lists its documents by label group, not in input
    order. A document's boost steps are reported only by trace_for.
    """

    candidates: tuple[DocumentProfile, ...]
    adjusted_relevance: Mapping[str, float]
    adjustments: tuple[dict, ...]
    # What trace_for replays: each boosted survivor's group's (rule, delta)
    # steps, a rule being its place among the "boost_rule" records.
    _boosted: Mapping[str, tuple[tuple[int, float], ...]] = field(repr=False)

    def trace_for(self, selected: Iterable[str]) -> tuple[dict, ...]:
        """The adjustments plus a "boost" record for each boost step of a
        selected document, after its rule's "boost_rule" record and in
        input order. Each selected, boosted document's steps are replayed
        once, one _fold each."""
        wanted = set(selected)
        steps: dict[int, list[tuple]] = {}  # rule's place -> (doc, delta, before, after) per step
        for d in self.candidates:
            if d.id in wanted and d.id in self._boosted:
                before = 0.0 if d.relevance is None else d.relevance
                for slot, delta in self._boosted[d.id]:
                    after = _fold(before, ((0, delta),), [0])  # apply_rules has counted the clamps
                    steps.setdefault(slot, []).append((d.id, delta, before, after))
                    before = after
        trace = []
        slot = 0
        for record in self.adjustments:
            trace.append(record)
            if record["kind"] == "boost_rule":
                trace += [
                    _record("boost", rule=record["rule"], doc=doc, delta=delta, before=before, after=after)
                    for doc, delta, before, after in steps.get(slot, ())
                ]
                slot += 1
        return tuple(trace)


def apply_rules(
    schema: AspectSchema,
    ruleset: RuleSet,
    request_rules: Sequence[Rule],
    candidates: Sequence[DocumentProfile],
) -> RuleApplication:
    """Apply scoped rules to a candidate list.

    Evaluation order is global, then active-context, then request rules;
    excludes remove matching candidates immediately (later rules never see
    them), boosts adjust relevance with clamping to [0, 1], and
    require_at_least is left to check_requirements on the final selection,
    never enforced. Input profiles are not mutated, so applying the same
    rules to the output reproduces the same survivors and adjusted
    relevance (idempotence). Duplicate candidate ids, and a relevance that
    is not None or a number in [0, 1], raise ContractError.

    Each rule's hits are the set bits of one mask over the candidates'
    label groups. A boost only notes itself on the groups it hits; the
    deltas are added, and clamped, document by document after the last rule;
    trace_for replays the steps of the selected documents alone.
    """
    # A compiled test reads only each aspect's label and accepts only schema
    # labels, so documents sharing a label-index row share every outcome.
    trusted = isinstance(candidates, _Pool)
    if trusted:  # the loader checked its ids and relevance and resolved its rows
        keys = candidates.rows
    else:
        _check_unique_ids(candidates, "candidate list")
        _check_relevance(candidates)
        # One without a row is a group of its own, keyed by its unique id (never a row).
        keys = [schema._row(doc.labels) or doc.id for doc in candidates]
    by_key: dict[tuple | str, list[int]] = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    groups = list(by_key.values())  # each group's input positions, ascending
    sizes = list(map(len, groups))
    index, every = _index(schema, [candidates[members[0]].labels for members in groups])
    live = every  # group g is bit g
    adjustments: list[dict | None] = []
    # Each boost rule as (its boost_rule record's place, the rule, documents
    # matched), and each group's (rule, delta) steps in rule order, a rule
    # being its place in `boosting`.
    boosting: list[tuple[int, Rule, int]] = []
    steps_of: list[list[tuple[int, float]]] = [[] for _ in groups]
    for rule in ruleset.active(request_rules):
        test = compile_predicate(schema, rule.predicate, rule.id)
        if rule.action not in ("exclude", "boost"):
            continue
        hit = test(index, every) & live
        hits = _bits(hit)
        if rule.action == "exclude":
            live ^= hit
            for i in sorted(chain.from_iterable(groups[g] for g in hits)):  # input order
                adjustments.append(_record("exclude", rule=rule.id, doc=candidates[i].id))
            continue
        step = (len(boosting), rule.value)
        for g in hits:
            steps_of[g].append(step)
        boosting.append((len(adjustments), rule, sum(map(sizes.__getitem__, hits))))
        adjustments.append(None)  # filled in once the fold has counted the clamps

    # Fold each boosted document's steps in rule order, excluded ones too.
    clamped = [0] * len(boosting)
    boosted: dict[str, tuple[tuple[int, float], ...]] = {}
    adjusted: dict[str, float] = {}
    for g, steps in enumerate(steps_of):
        if not steps:
            continue
        steps = tuple(steps)  # the group's, shared by its documents
        alive = live >> g & 1
        for i in groups[g]:
            doc = candidates[i]
            relevance = doc.relevance
            after = _fold(relevance, steps, clamped)
            if alive:
                boosted[doc.id] = steps
                if after != relevance:
                    adjusted[doc.id] = after
    for (at, rule, matched), count in zip(boosting, clamped):
        adjustments[at] = _record("boost_rule", rule=rule.id, delta=rule.value, matched=matched, clamped=count)

    if live != every:
        kept = sorted(chain.from_iterable(groups[g] for g in _bits(live)))
        candidates = candidates.take(kept) if trusted else [candidates[i] for i in kept]
    return RuleApplication(
        candidates=candidates if trusted else tuple(candidates),
        adjusted_relevance=adjusted,
        adjustments=tuple(adjustments),
        _boosted=boosted,
    )


def check_requirements(
    schema: AspectSchema,
    require_rules: Sequence[Rule],
    docs: Sequence[DocumentProfile],
) -> tuple[dict, ...]:
    """Report require_at_least rules the given document list fails to meet."""
    index, every = _index(schema, [d.labels for d in docs])
    violations = []
    for rule in require_rules:
        if rule.action != "require_at_least":
            continue
        found = compile_predicate(schema, rule.predicate, rule.id)(index, every).bit_count()
        if found < rule.value:
            violations.append(_record("violation", rule=rule.id, needed=rule.value, found=found))
    return tuple(violations)


# Every trace record kind the package emits: the fields explain reads from
# it, each a string (str), a number it prints with .12g (float) or a count
# it prints as it is (int); for the kinds explain lists, the section and the
# line it lists each record with; and the template _record words a record's
# detail with when its emitter passes none. An "add" record is also read for
# whichever of "gain" and "score" it has; a "boost" line gets the change,
# after - before.
EXPLAINED = {
    "seed": ({"doc": str}, None, None, None),
    "add": ({"doc": str}, None, None, "added {doc}: diversity {before:.12g} -> {after:.12g}"),
    "swap": (
        {"out": str, "in": str, "before": float, "after": float},
        "swaps", "  out {out} in {in}: diversity {before:.12g} -> {after:.12g}",
        "swapped out {out} for {in}: diversity {before:.12g} -> {after:.12g}",
    ),
    "exclude": (
        {"doc": str, "rule": str}, "rules", "  excluded {doc} (rule {rule})", "rule {rule} excluded {doc}",
    ),
    "boost_rule": (
        {"rule": str, "delta": float, "matched": int, "clamped": int},
        "rules", "  rule {rule} boosted {matched} documents by {delta:+.12g} ({clamped} clamped)",
        "rule {rule} boosted {matched} documents by {delta:+.12g} ({clamped} clamped)",
    ),
    "boost": (
        {"doc": str, "rule": str, "before": float, "after": float},
        "rules", "  boosted {doc} by {change:+.12g} (rule {rule})",
        "rule {rule} boosted {doc}: relevance {before:.12g} -> {after:.12g}",
    ),
    "violation": (
        {"rule": str, "needed": int, "found": int},
        "rules", "  VIOLATION: rule {rule} needs {needed} matching, selection has {found}",
        "rule {rule} requires at least {needed} matching documents, selection has {found}",
    ),
    "warning": ({"detail": str}, "warnings", "warning: {detail}", None),
    "next": (
        {"detail": str}, "notes", "note: {detail}",
        "next item {doc}: windowed diversity with it {window_diversity:.12g}",
    ),
    "suggest": (
        {"detail": str}, "notes", "note: {detail}",
        "suggest {type} on {doc}: extended interaction diversity {overall:.12g}",
    ),
    "note": ({"detail": str}, "notes", "note: {detail}", None),
    "keyword_diversity": ({}, None, None, "pooled keyword diversity of selected sources: {value:.12g}"),
}


def _record(kind: str, detail: str | None = None, **fields) -> dict:
    """The trace record of a kind EXPLAINED declares: its kind, the fields in
    the order given, then its detail, worded by the kind's template over the
    fields unless the emitter words it. An undeclared kind raises KeyError."""
    template = EXPLAINED[kind][3]
    return {"kind": kind, **fields, "detail": template.format_map(fields) if detail is None else detail}


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
        if not isinstance(kind, str) or kind not in EXPLAINED:
            raise ValidationError(f"result trace record {i} has an undeclared kind {kind!r}")
        fields = EXPLAINED[kind][0]
        if kind == "add":
            fields = {**fields, **{f: float for f in ("gain", "score") if f in record}}
        for field, type_ in fields.items():
            where = f"trace record {i} ({kind}) field {field!r}"
            if type_ is not str:
                numbers[where] = record.get(field)
                if type_ is int:
                    counts.add(where)
            elif not isinstance(record.get(field), str):
                raise ValidationError(f"result {where} must be a string (got {record.get(field)!r})")
    for where, value in numbers.items():
        if not json_isinstance(value, (int, float)):
            raise ValidationError(f"result {where} must be a number (got {value!r})")
        if where not in counts:
            json_float(value, f"result {where}")


def explain_result(result) -> str:
    """Render a human-readable explanation of a diversification result.

    Works on a RerankResult or its serialized dict; a field it reads with
    the wrong shape, or a trace kind EXPLAINED lacks, raises ValidationError.
    Selected items show the marginal diversity recorded when they were added
    and their boosts; swaps, rule effects, warnings and notes are each
    listed with their EXPLAINED line.
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

    adds, seeds, boosts = {}, set(), {}
    sections = {"swaps": [], "rules": [], "warnings": [], "notes": []}
    for t in trace:
        kind = t.get("kind")
        if kind == "add":
            adds[t["doc"]] = t
        elif kind == "seed":
            seeds.add(t["doc"])
        elif kind == "boost":
            t = {**t, "change": t["after"] - t["before"]}
            boosts.setdefault(t["doc"], []).append(t)
        _, section, line, _ = EXPLAINED[kind]
        if section:
            sections[section].append(line.format_map(t))
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
            parts.append(f"boost {b['change']:+.12g} by {b['rule']}")
        lines.append("  ".join(parts))

    if sections["swaps"]:
        lines += ["swaps:", *sections["swaps"]]
    lines += ["rules:", *sections["rules"]] if sections["rules"] else ["rules: none"]
    return "\n".join(lines + sections["warnings"] + sections["notes"])

"""Symbolic rule parsing, scope precedence, and pure application."""

import gc
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from newsdiv.diversify import greedy_select
from newsdiv.errors import ContractError, NewsdivError, UnknownEntityError, ValidationError
from newsdiv.metrics import DocumentProfile
from newsdiv.rules import (
    MAX_PREDICATE_DEPTH,
    Rule,
    RuleSet,
    _index,
    apply_rules,
    check_requirements,
    compile_predicate,
    explain_result,
    parse_rule,
)

from helpers import (
    active_excludes,
    random_docs,
    random_graph_schema,
    random_partial_docs,
    random_predicate,
    random_rules,
    random_schema,
    reference_apply_rules,
    reference_matches,
)


def doc(doc_id, topic, frame, relevance=None):
    return DocumentProfile(
        id=doc_id, labels={"topic": topic, "frame": frame}, relevance=relevance
    )


def rule(schema, **obj):
    return parse_rule(schema, obj)


def matches(schema, predicate, doc):
    """Whether one document matches: the predicate's mask over the item set
    of that document alone."""
    mask = compile_predicate(schema, predicate, "t")(*_index(schema, [doc.labels]))
    assert mask in (0, 1)
    return mask == 1


# --- parsing and validation ---


def test_parse_rule_happy_path(schema):
    r = rule(
        schema,
        id="r1",
        scope="global",
        predicate={"aspect": "frame", "op": "eq", "value": "Security"},
        action={"exclude": True},
    )
    assert (r.id, r.scope, r.action, r.value) == ("r1", "global", "exclude", None)


@pytest.mark.parametrize(
    "obj, message",
    [
        (dict(scope="global", predicate={}, action={"exclude": True}), "non-empty string 'id'"),
        (dict(id="x", scope="user", predicate={}, action={"exclude": True}), "scope must be one of"),
        (dict(id="x", scope="context", predicate={"aspect": "topic", "value": "Climate"}, action={"exclude": True}), "need a 'context' tag"),
        (dict(id="x", scope="global", predicate={}, action={"exclude": True}), "non-empty object"),
        (dict(id="x", scope="global", predicate={"aspect": "tone", "value": "sad"}, action={"exclude": True}), "tone"),
        (dict(id="x", scope="global", predicate={"aspect": "topic", "op": "gt", "value": "Climate"}, action={"exclude": True}), "unknown predicate op"),
        (dict(id="x", scope="global", predicate={"aspect": "topic", "value": "Sports"}, action={"exclude": True}), "unknown label 'Sports'"),
        (dict(id="x", scope="global", predicate={"aspect": "topic", "op": "in", "value": []}, action={"exclude": True}), "non-empty list"),
        (dict(id="x", scope="global", predicate={"aspect": "topic", "value": "Climate"}, action={"boost": 2.0}), "must lie in"),
        (dict(id="x", scope="global", predicate={"aspect": "topic", "value": "Climate"}, action={"require_at_least": 0}), "integer m >= 1"),
        (dict(id="x", scope="global", predicate={"aspect": "topic", "value": "Climate"}, action={"promote": 1}), "unknown action"),
        (dict(id="x", scope="global", predicate={"aspect": "topic", "value": "Climate"}, action={}), "exactly one"),
        (dict(id="x", scope="global", predicate={"all": [{"aspect": "topic", "value": "Climate"}], "any": [{"aspect": "frame", "value": "Health"}]}, action={"exclude": True}), r"combines operators \['all', 'any'\]"),
        (dict(id="x", scope="global", predicate={"not": {"aspect": "topic", "value": "Climate"}, "aspect": "frame", "value": "Health"}, action={"exclude": True}), r"combines operators \['aspect', 'not'\]"),
    ],
)
def test_parse_rule_failures_name_the_rule(schema, obj, message):
    with pytest.raises(NewsdivError, match=message):
        parse_rule(schema, obj)


@pytest.mark.parametrize(
    "predicate, message",
    [
        ({"all": []}, "rule 'x': 'all' must hold a non-empty list of predicates"),
        ({"any": []}, "rule 'x': 'any' must hold a non-empty list of predicates"),
        ({"any": {"aspect": "topic", "value": "Climate"}}, "rule 'x': 'any' must hold a non-empty list of predicates"),
    ],
    ids=["empty-all", "empty-any", "any-not-a-list"],
)
def test_combinators_need_a_non_empty_list(schema, predicate, message):
    with pytest.raises(ValidationError) as info:
        rule(schema, id="x", scope="global", predicate=predicate, action={"exclude": True})
    assert type(info.value) is ValidationError
    assert str(info.value) == message


def test_ancestor_predicate_requires_a_graph(schema, graph_schema):
    pred = {"ancestor": {"aspect": "frame", "node": "cluster1"}}
    with pytest.raises(ValidationError, match="no label graph"):
        rule(schema, id="x", scope="global", predicate=pred, action={"exclude": True})
    # fine on the graph-backed schema
    r = rule(graph_schema, id="x", scope="global", predicate=pred, action={"exclude": True})
    assert r.action == "exclude"
    with pytest.raises(ValidationError, match="unknown graph node"):
        rule(
            graph_schema,
            id="x",
            scope="global",
            predicate={"ancestor": {"aspect": "frame", "node": "cluster9"}},
            action={"exclude": True},
        )


CLIMATE = {"aspect": "topic", "value": "Climate"}


@pytest.mark.parametrize(
    "scope, context, message",
    [
        ("globl", None, "rule 'r': scope must be one of ['global', 'context', 'request'] (got 'globl')"),
        ("context", None, "rule 'r': context-scope rules need a 'context' tag"),
        ("context", "", "rule 'r': context-scope rules need a 'context' tag"),
        ("context", 5, "rule 'r': context tag must be a string"),
        ("global", 5, "rule 'r': context tag must be a string"),
    ],
    ids=["unknown-scope", "no-tag", "empty-tag", "numeric-tag", "numeric-tag-on-global"],
)
def test_a_hand_built_rule_is_checked_like_a_parsed_one(schema, scope, context, message):
    with pytest.raises(ValidationError) as built:
        Rule("r", scope, CLIMATE, "exclude", context=context)
    with pytest.raises(ValidationError) as parsed:
        rule(schema, id="r", scope=scope, predicate=CLIMATE, action={"exclude": True}, context=context)
    assert str(built.value) == str(parsed.value) == message


def test_a_boost_delta_is_stored_as_a_float(schema):
    built = Rule("r", "global", CLIMATE, "boost", 1)
    parsed = rule(schema, id="r", scope="global", predicate=CLIMATE, action={"boost": 1})
    assert built == parsed
    assert type(built.value) is type(parsed.value) is float and built.value == 1.0


def test_parse_rule_reports_the_first_fault_in_field_order(schema):
    # action shape, then Rule's id, scope, context, action and value, then
    # the predicate: each fault is reported once the ones before it are fixed
    obj = {"id": 5, "scope": "globl", "context": 5, "predicate": {}, "action": {}}
    for fix, message in [
        ({"action": {"boost": 2}}, "rule 5: action must be exactly one of exclude / require_at_least / boost"),
        ({"id": "r"}, "each rule needs a non-empty string 'id'"),
        ({"scope": "global"}, "rule 'r': scope must be one of ['global', 'context', 'request'] (got 'globl')"),
        ({"context": None}, "rule 'r': context tag must be a string"),
        ({"action": {"boost": 0.5}}, "rule 'r': boost delta must lie in [-1, 1] (got 2)"),
        ({}, "rule 'r': predicate must be a non-empty object"),
    ]:
        with pytest.raises(ValidationError) as info:
            parse_rule(schema, obj)
        assert str(info.value) == message
        obj.update(fix)


@pytest.mark.parametrize("rule_id", [5, "", None, True, ["r"]], ids=repr)
def test_a_hand_built_rule_needs_a_non_empty_string_id(schema, rule_id):
    # A rule built in code with another id would apply and write a trace
    # that explain refuses.
    with pytest.raises(ValidationError) as built:
        Rule(rule_id, "global", CLIMATE, "exclude")
    with pytest.raises(ValidationError) as parsed:
        rule(schema, id=rule_id, scope="global", predicate=CLIMATE, action={"exclude": True})
    assert str(built.value) == str(parsed.value) == "each rule needs a non-empty string 'id'"


def test_a_rule_set_refuses_request_scope_rules():
    request = Rule("now", "request", CLIMATE, "exclude")
    with pytest.raises(ValidationError, match="rule 'now': request-scope rules"):
        RuleSet(rules=(request,))


def test_duplicate_rule_ids_rejected(schema):
    r = rule(
        schema,
        id="dup",
        scope="global",
        predicate={"aspect": "topic", "value": "Climate"},
        action={"exclude": True},
    )
    with pytest.raises(ValidationError, match="unique"):
        RuleSet(rules=(r, r))


# --- predicate evaluation ---


def test_eq_in_and_boolean_combinators(schema):
    d = doc("x", "Climate", "Health")
    assert matches(schema, {"aspect": "topic", "op": "eq", "value": "Climate"}, d)
    assert not matches(schema, {"aspect": "topic", "value": "Immigration"}, d)
    assert matches(schema, {"aspect": "frame", "op": "in", "value": ["Health", "Economy"]}, d)
    assert matches(
        schema,
        {"all": [{"aspect": "topic", "value": "Climate"}, {"aspect": "frame", "value": "Health"}]},
        d,
    )
    assert matches(
        schema,
        {"any": [{"aspect": "topic", "value": "Immigration"}, {"aspect": "frame", "value": "Health"}]},
        d,
    )
    assert matches(schema, {"not": {"aspect": "topic", "value": "Immigration"}}, d)


def test_missing_label_never_matches(graph_schema):
    partial = DocumentProfile(id="p", labels={"topic": "Climate"})
    assert not matches(graph_schema, {"aspect": "frame", "value": "Health"}, partial)
    assert not matches(graph_schema, {"ancestor": {"aspect": "frame", "node": "cluster1"}}, partial)


@pytest.mark.parametrize("frame", ["Sports", "cluster1", None, ["Health"], {"Health": 1}])
def test_unknown_or_non_string_label_never_matches(graph_schema, frame):
    odd = DocumentProfile(id="p", labels={"topic": "Climate", "frame": frame})
    for predicate in (
        {"aspect": "frame", "value": "Health"},
        {"aspect": "frame", "op": "in", "value": ["Health", "Cultural"]},
        {"ancestor": {"aspect": "frame", "node": "cluster1"}},
        {"ancestor": {"aspect": "frame", "node": "root"}},
    ):
        assert not matches(graph_schema, predicate, odd)
        assert matches(graph_schema, {"not": predicate}, odd)


def test_ancestor_predicate_matches_cluster_members(graph_schema):
    pred = {"ancestor": {"aspect": "frame", "node": "cluster1"}}
    assert matches(graph_schema, pred, doc("x", "Climate", "Health"))
    assert matches(graph_schema, pred, doc("x", "Climate", "Cultural"))
    assert not matches(graph_schema, pred, doc("x", "Climate", "Security"))
    root = {"ancestor": {"aspect": "frame", "node": "root"}}
    assert matches(graph_schema, root, doc("x", "Climate", "Economy"))


def nested_all(depth):
    predicate = {"aspect": "topic", "value": "Climate"}
    for _ in range(depth - 1):
        predicate = {"all": [predicate]}
    return predicate


def test_predicate_nesting_is_bounded(schema):
    deepest = nested_all(MAX_PREDICATE_DEPTH)
    d = doc("x", "Climate", "Health")
    assert matches(schema, deepest, d)
    assert matches(schema, {"not": {"not": nested_all(MAX_PREDICATE_DEPTH - 2)}}, d)
    message = f"rule 'deep': predicate nests deeper than {MAX_PREDICATE_DEPTH} levels"
    for predicate in (nested_all(MAX_PREDICATE_DEPTH + 1), nested_all(2000), {"not": deepest}):
        with pytest.raises(ValidationError, match=message):
            rule(schema, id="deep", scope="global", predicate=predicate, action={"exclude": True})


def test_hand_built_rules_are_checked_when_applied(schema, pool):
    predicate = {"aspect": "topic", "value": "Sports"}
    bad = Rule(id="bad", scope="request", predicate=predicate, action="exclude")
    with pytest.raises(ValidationError, match="rule 'bad': unknown label 'Sports'"):
        apply_rules(schema, RuleSet(rules=()), [bad], pool)
    need = replace(bad, action="require_at_least", value=1)
    with pytest.raises(ValidationError, match="rule 'bad': unknown label 'Sports'"):
        check_requirements(schema, [need], pool)


def mask_matches_reference(schema, predicate, docs):
    """Check a predicate's mask over docs bit by bit against reference_matches."""
    mask = compile_predicate(schema, predicate, "r")(*_index(schema, [d.labels for d in docs]))
    assert mask >> len(docs) == 0
    assert [mask >> i & 1 == 1 for i in range(len(docs))] == [reference_matches(schema, predicate, d) for d in docs]


@given(st.integers(min_value=0, max_value=10_000))
def test_compiled_predicates_agree_with_the_reference(seed):
    """Random predicate trees up to four levels deep on random graph
    schemas, tested as one mask over documents that sometimes lack an aspect
    or carry a label outside it."""
    rng = random.Random(seed)
    schema = random_graph_schema(rng)
    docs = random_partial_docs(rng, schema, 12)
    for _ in range(5):
        mask_matches_reference(schema, random_predicate(rng, schema, 4), docs)


ODD_LABELS = [None, 1, True, 1.0, "unknown", ["list"], {"dict": 1}, ("tuple",)]


@given(st.integers(min_value=0, max_value=10_000))
def test_masks_skip_missing_unhashable_and_non_string_labels(seed):
    """Item sets whose labels are missing, unhashable (list, dict),
    non-string or for aspects outside the schema: each bit agrees with
    reference_matches, and an odd label never matches a leaf."""
    rng = random.Random(seed)
    schema = random_graph_schema(rng)
    docs = []
    for i in range(rng.randint(1, 16)):
        labels = {}
        for a in schema.aspects:
            roll = rng.random()
            if roll < 0.2:
                continue
            labels[a.name] = rng.choice(ODD_LABELS) if roll < 0.6 else rng.choice(a.labels)
        if rng.random() < 0.5:
            labels[f"extra{i}"] = rng.choice(ODD_LABELS + ["x"])
        docs.append(DocumentProfile(id=f"d{i}", labels=labels))
    for _ in range(5):
        mask_matches_reference(schema, random_predicate(rng, schema, 4), docs)
    odd = [d.labels for d in docs if all(type(d.labels.get(a.name)) is not str for a in schema.aspects)]
    index, every = _index(schema, odd)
    for aspect in schema.aspects:
        leaf = compile_predicate(schema, {"aspect": aspect.name, "op": "in", "value": list(aspect.labels)}, "r")
        assert leaf(index, every) == 0


def test_not_over_an_empty_item_set_is_zero(schema):
    index, every = _index(schema, [])
    assert every == 0
    for predicate in (
        {"not": {"aspect": "topic", "value": "Climate"}},
        {"not": {"any": [{"aspect": "topic", "value": "Climate"}, {"not": {"aspect": "frame", "value": "Health"}}]}},
        {"all": [{"not": {"aspect": "frame", "value": "Health"}}]},
    ):
        assert compile_predicate(schema, predicate, "r")(index, every) == 0


# --- scope ordering and application ---


def exclude_security(schema, scope="global", **extra):
    return rule(
        schema,
        id=f"excl-{scope}",
        scope=scope,
        predicate={"aspect": "frame", "op": "eq", "value": "Security"},
        action={"exclude": True},
        **extra,
    )


def boost_security(schema):
    return rule(
        schema,
        id="boost-sec",
        scope="request",
        predicate={"aspect": "frame", "op": "eq", "value": "Security"},
        action={"boost": 0.3},
    )


def test_active_rules_evaluate_global_then_context_then_request(schema):
    g = exclude_security(schema)
    c = rule(
        schema,
        id="ctx",
        scope="context",
        context="election",
        predicate={"aspect": "topic", "value": "Immigration"},
        action={"boost": 0.1},
    )
    dormant = rule(
        schema,
        id="dormant",
        scope="context",
        context="sports",
        predicate={"aspect": "topic", "value": "Climate"},
        action={"boost": 0.1},
    )
    req = boost_security(schema)
    ruleset = RuleSet(rules=(c, dormant, g), context_tags=frozenset({"election"}))
    assert [r.id for r in ruleset.active([req])] == ["excl-global", "ctx", "boost-sec"]


def test_global_exclude_beats_request_boost(schema, pool):
    ruleset = RuleSet(rules=(exclude_security(schema),))
    result = apply_rules(schema, ruleset, [boost_security(schema)], pool)
    ids = [d.id for d in result.candidates]
    assert ids == ["a1", "a2", "a4", "a5", "a6", "a8"]  # a3 and a7 are gone
    assert not result.adjusted_relevance  # boost found nothing left to touch
    excluded = {t["doc"] for t in result.adjustments if t["kind"] == "exclude"}
    assert excluded == {"a3", "a7"}


def test_boost_clamps_to_unit_interval(schema):
    docs = [doc("b1", "Climate", "Health", relevance=0.95), doc("b2", "Climate", "Cultural", relevance=0.1)]
    up = rule(
        schema,
        id="up",
        scope="request",
        predicate={"aspect": "frame", "value": "Health"},
        action={"boost": 0.2},
    )
    down = rule(
        schema,
        id="down",
        scope="request",
        predicate={"aspect": "frame", "value": "Cultural"},
        action={"boost": -0.5},
    )
    result = apply_rules(schema, RuleSet(rules=()), [up, down], docs)
    assert result.adjusted_relevance == {"b1": 1.0, "b2": 0.0}


def test_boost_treats_missing_relevance_as_zero(schema):
    docs = [doc("n1", "Climate", "Health")]
    up = rule(
        schema,
        id="up",
        scope="request",
        predicate={"aspect": "topic", "value": "Climate"},
        action={"boost": 0.4},
    )
    result = apply_rules(schema, RuleSet(rules=()), [up], docs)
    assert result.adjusted_relevance == {"n1": 0.4}


@pytest.mark.parametrize(
    "value", ["0.5", float("nan"), 5.0, float("inf"), -0.5, True], ids=["str", "nan", "5", "inf", "-0.5", "True"]
)
def test_apply_rules_rejects_relevance_outside_the_unit_interval(pool, value):
    # None is no score and boosts from 0.0; any other relevance is a number
    # in [0, 1], checked when the document is built, so no candidate list
    # can carry one.
    with pytest.raises(ValidationError) as info:
        replace(pool[0], relevance=value)
    assert str(info.value) == f"relevance for 'a1' must lie in [0, 1] (got {value!r})"


def test_requirements_are_deferred_not_filtered(schema, pool):
    need = rule(
        schema,
        id="need-immigration",
        scope="request",
        predicate={"aspect": "topic", "value": "Immigration"},
        action={"require_at_least": 1},
    )
    result = apply_rules(schema, RuleSet(rules=()), [need], pool)
    assert len(result.candidates) == 8  # nothing removed
    assert check_requirements(schema, [need], result.candidates) == ()  # the full pool satisfies it
    climate_only = [d for d in pool if d.labels["topic"] == "Climate"]
    broken = apply_rules(schema, RuleSet(rules=()), [need], climate_only)
    assert broken.candidates == tuple(climate_only)
    violations = check_requirements(schema, [need], broken.candidates)
    assert len(violations) == 1
    assert violations[0]["needed"] == 1
    assert violations[0]["found"] == 0


def test_check_requirements_on_a_final_selection(schema, pool, by_id):
    need2 = rule(
        schema,
        id="need-two",
        scope="request",
        predicate={"aspect": "topic", "value": "Immigration"},
        action={"require_at_least": 2},
    )
    ok = check_requirements(schema, [need2], [by_id["a5"], by_id["a6"]])
    assert not ok
    bad = check_requirements(schema, [need2], [by_id["a1"], by_id["a5"]])
    assert [v["kind"] for v in bad] == ["violation"]
    assert (bad[0]["needed"], bad[0]["found"]) == (2, 1)


def test_apply_rules_does_not_mutate_inputs(schema, pool):
    up = rule(
        schema,
        id="up",
        scope="request",
        predicate={"aspect": "topic", "value": "Climate"},
        action={"boost": 0.2},
    )
    before = [(d.id, d.relevance) for d in pool]
    apply_rules(schema, RuleSet(rules=(exclude_security(schema),)), [up], pool)
    assert [(d.id, d.relevance) for d in pool] == before


def test_apply_rules_rejects_duplicate_candidate_ids(schema):
    up = rule(
        schema,
        id="up",
        scope="request",
        predicate={"aspect": "topic", "value": "Climate"},
        action={"boost": 0.3},
    )
    twins = [doc("x", "Climate", "Economy", relevance=0.1), doc("x", "Climate", "Economy", relevance=0.6)]
    with pytest.raises(ContractError, match=r"candidate list contains duplicate document ids: \['x'\]"):
        apply_rules(schema, RuleSet(rules=()), [up], twins)


def test_apply_rules_refuses_a_missing_and_an_unknown_label(schema):
    """The candidates pass the gate a mode's pool passes, with its messages,
    and the first fault in the order given is named."""
    missing = DocumentProfile(id="a", labels={"topic": "Climate"})
    unknown = doc("z", "Climate", "Nowhere")
    with pytest.raises(ContractError) as info:
        apply_rules(schema, RuleSet(rules=()), [], [doc("b", "Climate", "Health"), missing, unknown])
    assert str(info.value) == "document 'a' is missing a label for aspect 'frame'"
    with pytest.raises(UnknownEntityError) as info:
        apply_rules(schema, RuleSet(rules=()), [], [unknown, missing])
    assert str(info.value) == "document 'z' uses unknown label 'Nowhere' for aspect 'frame'"


class Tag(str):
    """A str subclass, which a document id may be."""


# how a document list gets its id check: apply_rules's candidate list, and
# a mode's pool
ID_CHECKS = {
    "apply_rules": (lambda schema, docs: apply_rules(schema, RuleSet(rules=()), [], docs), "candidate list"),
    "greedy": (lambda schema, docs: greedy_select(schema, docs, 2), "pool"),
}


@pytest.mark.parametrize("check", sorted(ID_CHECKS))
@pytest.mark.parametrize(
    "ids, message",
    [
        (["a2", "a2", "a3"], "contains duplicate document ids: ['a2']"),
    ],
    ids=["duplicate"],
)
def test_wrong_ids_are_named_whichever_list_is_checked(schema, pool, check, ids, message):
    call, what = ID_CHECKS[check]
    docs = [replace(d, id=i) for d, i in zip(pool, ids)] + list(pool[len(ids):])
    with pytest.raises(ContractError) as info:
        call(schema, docs)
    assert str(info.value) == f"{what} {message}"


@pytest.mark.parametrize("ids", [[7], [["a1"]], [None, "a2", "a2"]], ids=["int", "list", "both"])
def test_an_id_that_is_not_a_string_is_refused_before_any_list_is_checked(pool, ids):
    # A document checks its id as it is built, before a list holds it, so
    # even with a duplicate further on the type is named first.
    with pytest.raises(ValidationError) as info:
        [replace(d, id=i) for d, i in zip(pool, ids)]
    assert str(info.value) == "document needs a non-empty string 'id'"


@pytest.mark.parametrize("check", sorted(ID_CHECKS))
def test_an_id_of_a_str_subclass_is_accepted(schema, pool, check):
    call, _ = ID_CHECKS[check]
    docs = [replace(pool[0], id=Tag("t1"))] + list(pool[1:])
    call(schema, docs)


def test_apply_rules_is_idempotent_on_example_pool(schema, pool):
    up = rule(
        schema,
        id="up",
        scope="request",
        predicate={"aspect": "topic", "value": "Climate"},
        action={"boost": 0.2},
    )
    ruleset = RuleSet(rules=(exclude_security(schema),))
    first = apply_rules(schema, ruleset, [up], pool)
    second = apply_rules(schema, ruleset, [up], first.candidates)
    assert second.candidates == first.candidates
    assert second.adjusted_relevance == first.adjusted_relevance


# --- randomized application properties ---


@given(st.integers(min_value=0, max_value=5_000))
def test_random_rules_idempotence_and_exclusion_consistency(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=5)
    docs = random_docs(rng, schema, rng.randint(1, 12), with_relevance=True)
    ruleset, request = random_rules(rng, schema, rng.randint(0, 6))

    first = apply_rules(schema, ruleset, request, docs)
    second = apply_rules(schema, ruleset, request, first.candidates)
    assert second.candidates == first.candidates
    assert second.adjusted_relevance == first.adjusted_relevance

    # no survivor matches any active exclude
    for r in active_excludes(ruleset, request):
        assert not [d.id for d in first.candidates if reference_matches(schema, r.predicate, d)]

    # boosted values stay inside the unit interval
    for value in first.adjusted_relevance.values():
        assert 0.0 <= value <= 1.0

    # survivors that are then selected still contain no excluded doc
    if first.candidates:
        k = rng.randint(1, len(first.candidates))
        chosen = greedy_select(schema, first.candidates, k)
        chosen_docs = [d for d in first.candidates if d.id in chosen.selected]
        for r in active_excludes(ruleset, request):
            assert not [d for d in chosen_docs if reference_matches(schema, r.predicate, d)]


@given(st.integers(min_value=0, max_value=5_000))
def test_grouped_application_matches_the_per_document_reference(seed):
    """apply_rules tests each rule once per label tuple; on pools where
    tuples repeat, it must agree with applying every rule document by
    document."""
    rng = random.Random(seed)
    schema = random_graph_schema(rng, max_aspects=2)
    docs = [
        replace(d, relevance=rng.choice([None, 0.0, 1.0, round(rng.random(), 3)]))
        for d in random_docs(rng, schema, rng.randint(1, 60))
    ]
    rng.shuffle(docs)
    rules = []
    for i in range(rng.randint(0, 6)):
        action, value = rng.choice([("exclude", None), ("boost", round(rng.uniform(-1, 1), 2))])
        rules.append(Rule(f"r{i}", "request", random_predicate(rng, schema, 3), action, value))
    rules.append(Rule("floor", "request", random_predicate(rng, schema, 2), "require_at_least", 1))

    assert_matches_reference(schema, rules, docs)


def assert_matches_reference(schema, rules, docs):
    """apply_rules with `rules` as request rules agrees with
    reference_apply_rules on survivors, adjusted relevance, trace records
    and, through trace_for of every survivor, the survivors' boost steps.
    Returns the RuleApplication."""
    result = apply_rules(schema, RuleSet(rules=()), rules, docs)
    survivors, relevance, steps = reference_apply_rules(schema, rules, docs)
    assert result.candidates == tuple(survivors)
    assert result.adjusted_relevance == {
        d.id: relevance[d.id]
        for d in survivors
        if relevance[d.id] is not None and relevance[d.id] != d.relevance
    }
    boost_rules = {r.id for r in rules if r.action == "boost"}
    assert [(t["rule"], t["doc"]) for t in result.adjustments if t["kind"] == "exclude"] == [
        s for s in steps if s[0] not in boost_rules
    ]
    boosts = [s for s in steps if s[0] in boost_rules]
    assert [
        (t["rule"], t["delta"], t["matched"], t["clamped"])
        for t in result.adjustments if t["kind"] == "boost_rule"
    ] == [
        (
            r.id,
            r.value,
            sum(s[0] == r.id for s in boosts),
            sum(s[0] == r.id and not 0.0 <= s[3] + s[2] <= 1.0 for s in boosts),
        )
        for r in rules if r.action == "boost"
    ]
    assert {t["kind"] for t in result.adjustments} <= {"exclude", "boost_rule"}
    kept = {d.id for d in survivors}
    records_of = {}  # rule id -> its boost records of survivors, in input order
    for rule_id, doc_id, delta, before, after in boosts:
        if doc_id in kept:
            records_of.setdefault(rule_id, []).append(
                {"kind": "boost", "rule": rule_id, "doc": doc_id, "delta": delta, "before": before, "after": after}
            )
    want = []
    for record in result.adjustments:
        want.append(record)
        if record["kind"] == "boost_rule":
            want += records_of.get(record["rule"], ())
    assert [{k: v for k, v in t.items() if k != "detail"} if t["kind"] == "boost" else t
            for t in result.trace_for(kept)] == want
    return result


# --- explanations ---


def test_explain_mentions_rules_and_swaps(schema):
    from newsdiv.diversify import swap_diversify

    fixture_items = [
        DocumentProfile(id=f"s{i}", labels={"topic": "Climate", "frame": "Health"})
        for i in range(1, 5)
    ]
    fixture_pool = [
        DocumentProfile(id="p1", labels={"topic": "Immigration", "frame": "Security"}),
    ]
    result = swap_diversify(schema, fixture_items, fixture_pool, budget=1)
    text = explain_result(result)
    assert "swap" in text
    assert "0.5" in text  # post-swap diversity appears
    assert "rules: none" in text


def test_explain_lists_rule_effects(schema, pool):
    ruleset = RuleSet(rules=(exclude_security(schema),))
    applied = apply_rules(schema, ruleset, [], pool)
    chosen = greedy_select(schema, applied.candidates, 3)
    text = explain_result(replace(chosen, trace=applied.adjustments + chosen.trace))
    assert "excluded a3" in text
    assert "selected: a1" in text


def test_explain_narrates_the_change_each_boost_made(schema):
    docs = [
        doc("a", "Climate", "Health", 0.95),
        doc("b", "Climate", "Security", 0.5),
        doc("c", "Immigration", "Health", 0.5),
    ]
    up = rule(
        schema,
        id="up",
        scope="global",
        predicate={"aspect": "topic", "value": "Climate"},
        action={"boost": 0.3},
    )
    applied = apply_rules(schema, RuleSet(rules=(up,)), [], docs)
    text = explain_result({"selected": ["a"], "trace": list(applied.trace_for(["a"]))})
    assert "1. a  boost +0.05 by up" in text  # 0.95 -> 1, clamped
    assert "rule up boosted 2 documents by +0.3 (1 clamped)" in text
    assert "boosted a by +0.05 (rule up)" in text
    assert "boosted b" not in text  # not selected


# --- scale and work ---


def narrow_exclude(rng, schema):
    """An exclude predicate naming one label per aspect, never the first
    aspect's first label: documents carrying that label survive every such
    exclude, however few labels the schema has."""
    first, *others = schema.aspects
    labels = [(first, first.labels[1:]), *((a, a.labels) for a in others)]
    return {"all": [{"aspect": a.name, "value": rng.choice(choices)} for a, choices in labels]}


def learned_rule_set(seed):
    """A seeded schema, ~2k documents with repeated label tuples, and 300
    random request rules, mostly boosts. Each exclude is narrow, so that
    many documents survive."""
    rng = random.Random(seed)
    schema = random_graph_schema(rng)
    docs = [
        replace(d, relevance=rng.choice([None, 0.0, 1.0, round(rng.random(), 6)]))
        for d in random_docs(rng, schema, 2_000)
    ]
    rules = []
    for i in range(300):
        roll = rng.random()
        if roll < 0.05:
            rules.append(Rule(f"r{i}", "request", narrow_exclude(rng, schema), "exclude"))
            continue
        if roll < 0.95:
            action, value = "boost", round(rng.uniform(-0.5, 0.5), 3)
        else:
            action, value = "require_at_least", rng.randint(1, 3)
        rules.append(Rule(f"r{i}", "request", random_predicate(rng, schema, 3), action, value))
    return schema, rules, docs


@pytest.mark.parametrize("seed", range(3))
def test_learned_rule_scale_matches_the_reference(seed):
    """300 random rules, mostly boosts, over ~2k documents with repeated
    label tuples; at least a tenth of them survive."""
    schema, rules, docs = learned_rule_set(seed)
    assert any(r.action == "exclude" for r in rules)
    assert len(assert_matches_reference(schema, rules, docs).candidates) >= len(docs) / 10


@pytest.mark.parametrize("seed", range(3))
def test_learned_rule_scale_traces_the_reference_boosts(seed):
    """trace_for on random selections of a 300-rule set gives, after each
    boost_rule record, the reference's boost steps of the selected
    survivors in input order."""
    schema, rules, docs = learned_rule_set(seed)
    result = apply_rules(schema, RuleSet(rules=()), rules, docs)
    survivors, _, steps = reference_apply_rules(schema, rules, docs)
    order = {d.id: i for i, d in enumerate(survivors)}
    boosts_of = {}  # rule id -> its boost steps of survivors, in input order
    for rule_id, doc_id, *step in sorted((s for s in steps if len(s) == 5 and s[1] in order), key=lambda s: order[s[1]]):
        boosts_of.setdefault(rule_id, []).append((doc_id, *step))
    rng, traced = random.Random(seed), 0
    for size in (0, 1, 10, 200):
        selected = {d.id for d in rng.sample(docs, size)}
        want = []
        for record in result.adjustments:
            want.append(record)
            if record["kind"] == "boost_rule":
                want += [
                    {"kind": "boost", "rule": record["rule"], "doc": doc_id, "delta": delta, "before": before, "after": after}
                    for doc_id, delta, before, after in boosts_of.get(record["rule"], ())
                    if doc_id in selected
                ]
        got = [{k: v for k, v in t.items() if k != "detail"} if t["kind"] == "boost" else t
               for t in result.trace_for(selected)]
        assert got == want
        traced += len(got) - len(result.adjustments)
    assert traced > 1_000


@pytest.fixture
def collector():
    """The garbage collector's state, restored after the test whatever it does."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_trace_for_replays_only_the_selected_boost_steps(monkeypatch, collector):
    """apply_rules folds the boosts without keeping a step tuple, and
    trace_for replays each boost step of the selected, boosted survivors
    with one _fold call, and no other step."""
    import newsdiv.rules as rules_mod

    rng = random.Random(41)
    schema = random_graph_schema(rng)
    docs = [
        replace(d, relevance=rng.choice([None, round(rng.random(), 6)]))
        for d in random_docs(rng, schema, 2_000)
    ]
    # Every tenth rule is a narrow exclude, so that documents are excluded and others survive.
    rules = [
        Rule(f"r{i}", "request", narrow_exclude(rng, schema), "exclude") if i % 10 == 9
        else Rule(f"r{i}", "request", random_predicate(rng, schema, 3), "boost", round(rng.uniform(-0.5, 0.5), 3))
        for i in range(30)
    ]
    survivors, _, steps = reference_apply_rules(schema, rules, docs)
    boost_steps = [s for s in steps if len(s) == 5]
    gc.collect()
    gc.disable()
    tracked = len(gc.get_objects())
    result = apply_rules(schema, RuleSet(rules=()), rules, docs)
    tracked = len(gc.get_objects()) - tracked
    # A step tuple kept per boost step would leave at least one tracked
    # object per step alive; the result holds about one per document.
    assert len(boost_steps) > 5 * len(docs) and tracked < len(boost_steps) / 2

    folds, fold = [], rules_mod._fold
    monkeypatch.setattr(rules_mod, "_fold", lambda relevance, steps, clamped: folds.append(len(steps)) or fold(relevance, steps, clamped))
    assert result.trace_for([]) == result.adjustments and folds == []
    selected = {d.id for d in rng.sample(docs, 300)}
    kept = selected.intersection(d.id for d in survivors)
    wanted = sum(s[1] in kept for s in boost_steps)
    assert wanted and any(s[1] in selected - kept for s in boost_steps)  # excluded, boosted and selected
    assert sum(t["kind"] == "boost" for t in result.trace_for(selected)) == wanted
    assert folds == [1] * wanted


def test_each_call_builds_one_item_set_and_tests_no_profile(monkeypatch, schema, pool):
    """apply_rules and check_requirements build the item set once per call,
    and every compiled test receives it, never a DocumentProfile."""
    import newsdiv.rules as rules_mod

    built, calls = [], []
    index, compile_ = rules_mod._index, rules_mod.compile_predicate

    def counted_index(*args):
        built.append(args)
        return index(*args)

    def checked_compile(*args):
        test = compile_(*args)

        def checked(*given):
            calls.append(given)
            return test(*given)
        return checked

    monkeypatch.setattr(rules_mod, "_index", counted_index)
    monkeypatch.setattr(rules_mod, "compile_predicate", checked_compile)
    boost = boost_security(schema)
    need = Rule("need", "request", {"aspect": "topic", "value": "Climate"}, "require_at_least", 2)
    applied = apply_rules(schema, RuleSet(rules=(exclude_security(schema),)), [boost, need], pool)
    assert len(built) == 1 and len(calls) == 2
    check_requirements(schema, [need, boost], applied.candidates)
    assert len(built) == 2 and len(calls) == 3
    for given in calls:
        assert [type(x) for x in given] == [dict, int]
        assert all(type(masks) is dict for masks in given[0].values())

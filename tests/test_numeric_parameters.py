"""Every numeric parameter of the library, given any value, returns or raises
a NewsdivError: never a bare TypeError, OverflowError or other exception.
A bool is not a number and NaN lies in no interval, so both are rejected
wherever a range is checked."""

import json
from dataclasses import replace

import pytest

from newsdiv import (
    Aspect,
    AspectSchema,
    ContractError,
    InteractionLog,
    NewsdivError,
    Rule,
    RuleSet,
    ValidationError,
    Window,
    apply_rules,
    greedy_select,
    load_corpus,
    load_interactions,
    load_rules,
    next_in_sequence,
    rerank_combined,
    swap_diversify,
)
from newsdiv.rules import check_requirements

PROBES = [
    "0.5", None, True, False, float("nan"), float("inf"), -1, 0, 2, 10**400, 0.5, [], {},
]
PROBE_IDS = [
    "str", "None", "True", "False", "nan", "inf", "-1", "0", "2", "10**400", "0.5", "list", "dict",
]

TWO = ("a", "b")
CLIMATE = {"aspect": "topic", "op": "eq", "value": "Climate"}


def _aspect(v):
    return Aspect("t", TWO, {TWO: v})


def _rule(action, v):
    return Rule(id="r", scope="request", predicate=CLIMATE, action=action, value=v)


def _apply_rule(schema, pool, action, v):
    rule = _rule(action, v)
    apply_rules(schema, RuleSet(rules=()), [rule], pool)
    check_requirements(schema, [rule], pool)


def _rule_line(action, v):
    rule = {"id": "r", "scope": "request", "predicate": CLIMATE, "action": {action: v}}
    return json.dumps(rule)


def _corpus_line(field, v):
    doc = {"id": "x", "labels": {"topic": "Climate", "frame": "Health"}, field: v}
    return json.dumps(doc)


def _sequence(schema, pool, window, gamma=0.5, stamps=(1, 2)):
    history = [replace(d, timestamp=s) for d, s in zip(pool[:2], stamps)]
    next_in_sequence(schema, history, pool[2:4], window, gamma)


# row name -> call(schema, pool, value); the fixture pool holds eight
# documents with relevance and timestamps.
ROWS = {
    "Aspect distance": lambda schema, pool, v: _aspect(v),
    "Aspect self-distance": lambda schema, pool, v: Aspect("t", TWO, {("a", "a"): v}),
    "AspectSchema weight, one aspect": lambda schema, pool, v: AspectSchema(
        (_aspect(1.0),), {"t": v}
    ),
    "AspectSchema weight, two aspects": lambda schema, pool, v: AspectSchema(
        (_aspect(1.0), replace(_aspect(1.0), name="u", distances={})), {"t": v, "u": 0.5}
    ),
    "InteractionLog weight, one type": lambda schema, pool, v: InteractionLog((), {"like": v}),
    "InteractionLog weight, two types": lambda schema, pool, v: InteractionLog(
        (), {"like": v, "share": 0.5}
    ),
    "k": lambda schema, pool, v: greedy_select(schema, pool, v),
    "swap budget": lambda schema, pool, v: swap_diversify(schema, pool[:3], pool[3:], v),
    "gamma": lambda schema, pool, v: _sequence(schema, pool, Window("last", 1), gamma=v),
    "lambda": lambda schema, pool, v: rerank_combined(schema, pool[:3], 2, v),
    "blend relevance": lambda schema, pool, v: rerank_combined(
        schema, [replace(pool[0], relevance=v)] + pool[1:3], 2, 0.5
    ),
    "apply_rules relevance": lambda schema, pool, v: apply_rules(
        schema, RuleSet(rules=()), [_rule("boost", 0.5)], [replace(pool[0], relevance=v)] + pool[1:]
    ),
    "Rule require_at_least": lambda schema, pool, v: _apply_rule(schema, pool, "require_at_least", v),
    "Rule boost": lambda schema, pool, v: _apply_rule(schema, pool, "boost", v),
    "DocumentProfile timestamp": lambda schema, pool, v: _sequence(
        schema, pool, Window("cutoff", 0), stamps=(v, v)
    ),
    "Window last": lambda schema, pool, v: _sequence(schema, pool, Window("last", v)),
    "Window cutoff": lambda schema, pool, v: _sequence(schema, pool, Window("cutoff", v)),
    "load_interactions type weight": lambda schema, pool, v: load_interactions(
        '{"user": "u", "doc": "a1", "type": "like", "ts": 1}', {"like": v}
    ),
    "load_rules require_at_least": lambda schema, pool, v: load_rules(
        schema, _rule_line("require_at_least", v)
    ),
    "load_rules boost": lambda schema, pool, v: load_rules(schema, _rule_line("boost", v)),
    "load_corpus relevance": lambda schema, pool, v: load_corpus(
        schema, _corpus_line("relevance", v)
    ),
    "load_corpus timestamp": lambda schema, pool, v: load_corpus(
        schema, _corpus_line("timestamp", v)
    ),
}


@pytest.mark.parametrize("value", PROBES, ids=PROBE_IDS)
@pytest.mark.parametrize("row", sorted(ROWS))
def test_numeric_parameters_return_or_raise_a_newsdiv_error(schema, pool, row, value):
    try:
        ROWS[row](schema, pool, value)
    except NewsdivError:
        pass


@pytest.mark.parametrize(
    "call, message",
    [
        (_aspect, "aspect 't': distance out of range: a/b = True (must be in [0, 1])"),
        (
            lambda v: AspectSchema((_aspect(1.0),), {"t": v}),
            "blend weight for 't' is True; weights must lie in [0, 1]",
        ),
        (
            lambda v: InteractionLog((), {"like": v}),
            "interaction type weight for 'like' must be a number (got True)",
        ),
    ],
    ids=["Aspect", "AspectSchema", "InteractionLog"],
)
def test_true_is_not_one(call, message):
    with pytest.raises(ValidationError) as info:
        call(True)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, problem",
    [
        ("0.5", "must be a number (got '0.5')"),
        (None, "must be a number (got None)"),
        ([], "must be a number (got [])"),
        (-0.5, "is negative or NaN (-0.5)"),
        (float("nan"), "is negative or NaN (nan)"),
    ],
    ids=["str", "None", "list", "negative", "nan"],
)
def test_an_interaction_weight_that_is_not_a_number_is_named_as_one(value, problem):
    with pytest.raises(ValidationError) as info:
        InteractionLog((), {"like": value})
    assert str(info.value) == f"interaction type weight for 'like' {problem}"


def test_rule_checks_its_action_value_with_the_loader_messages(schema):
    with pytest.raises(ValidationError) as info:
        _rule("boost", "0.5")
    assert str(info.value) == "rule 'r': boost delta must lie in [-1, 1] (got '0.5')"
    with pytest.raises(ValidationError) as info:
        _rule("require_at_least", None)
    assert str(info.value) == "rule 'r': require_at_least needs an integer m >= 1"
    with pytest.raises(ValidationError) as info:
        _rule("promote", 1)
    assert str(info.value) == "rule 'r': unknown action 'promote'"
    with pytest.raises(ValidationError) as info:
        load_rules(schema, _rule_line("boost", True))
    assert str(info.value) == "rules line 1: rule 'r': boost delta must lie in [-1, 1] (got True)"
    assert load_rules(schema, _rule_line("boost", 1))[1][0].value == 1.0


def test_sequence_timestamps_must_be_integers(schema, pool):
    with pytest.raises(ContractError) as info:
        _sequence(schema, pool, Window("last", 1), stamps=(1, "0.5"))
    assert str(info.value) == "sequence timestamps must be integers (got ['0.5'])"

"""Acceptance gate: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion. Randomized criteria use
fixed seeds so a failure is reproducible, and every tolerance is stated
inline next to the assertion it guards.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import pytest

from newsdiv.aspect_model import AspectSchema
from newsdiv.diversify import (
    SWAP_EPSILON,
    greedy_select,
    next_in_sequence,
    suggest_interaction,
    swap_diversify,
)
from newsdiv.metrics import (
    DocumentProfile,
    InteractionLog,
    InteractionRecord,
    Window,
    collection_diversity,
    interaction_diversity,
)
from newsdiv.oracle import max_diversity_oracle
from newsdiv.rules import RuleSet, apply_rules, parse_rule

from helpers import (
    ExactReference,
    active_excludes,
    random_docs,
    random_rules,
    random_schema,
    reference_matches,
)

TOL = 1e-9


def best_of(fn, repeats=5):
    """Smallest wall time over a few repeats, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_criterion_1_reference_list_goldens(schema, reference_lists):
    """Four golden list values, exact to 1e-9, each under 1 ms."""
    expected = {"a": 0.0, "b": 1 / 3, "c": 5 / 12, "d": 3 / 4}
    for key, want in expected.items():
        docs = reference_lists[key]
        got = collection_diversity(schema, docs).overall
        assert abs(got - want) <= TOL, f"list {key}: {got} vs {want}"
        elapsed = best_of(lambda: collection_diversity(schema, docs))
        assert elapsed < 1e-3, f"list {key} took {elapsed * 1e3:.3f} ms"


def test_criterion_2_only_pairs_reach_the_ceiling(schema, pool):
    """Exhaustive max: 1.0 at k=2, strictly below 1.0 for k in 3..8."""
    start = time.perf_counter()
    results = {k: max_diversity_oracle(schema, pool, k) for k in range(2, 9)}
    elapsed = time.perf_counter() - start
    assert abs(results[2].best_value - 1.0) <= TOL
    for k in range(3, 9):
        assert results[k].best_value < 1.0, k
    assert abs(results[4].best_value - 3 / 4) <= TOL
    assert results[4].evaluated == 70
    assert elapsed < 0.1, f"oracle sweep took {elapsed * 1e3:.1f} ms"


def test_criterion_3_overall_is_linear_in_aspects():
    """1000 random instances: overall == weighted per-aspect sum to 1e-9."""
    rng = random.Random(20260814)
    for _ in range(1000):
        schema = random_schema(rng, max_aspects=4, max_labels=8)
        docs = random_docs(rng, schema, rng.randint(0, 20))
        report = collection_diversity(schema, docs)
        blended = sum(
            schema.weights[name] * value for name, value in report.per_aspect.items()
        )
        assert abs(report.overall - blended) <= TOL


def test_criterion_4_greedy_vs_oracle(schema, pool):
    """Greedy never beats the oracle; matches it on the example pool."""
    rng = random.Random(41)
    for _ in range(200):
        rschema = random_schema(rng, max_aspects=3, max_labels=6)
        docs = random_docs(rng, rschema, rng.randint(1, 12))
        for k in range(1, len(docs) + 1):
            greedy = greedy_select(rschema, docs, k).diversity.overall
            oracle = max_diversity_oracle(rschema, docs, k).best_value
            assert greedy <= oracle + TOL

    for k in range(1, 9):
        greedy = greedy_select(schema, pool, k).diversity.overall
        oracle = max_diversity_oracle(schema, pool, k).best_value
        assert abs(greedy - oracle) <= TOL, k

    for _ in range(500):
        rschema = random_schema(rng, max_aspects=3, max_labels=6)
        history = random_docs(rng, rschema, rng.randint(0, 8))
        candidates = random_docs(rng, rschema, rng.randint(1, 12))
        window = Window("last", rng.randint(0, len(history)))
        gamma = rng.choice([0.25, 0.5, 0.9, 1.0])
        assert next_in_sequence(rschema, history, candidates, window, gamma).selected == (
            ExactReference(rschema).next_in_sequence(history, candidates, window, gamma),
        )


def test_criterion_5_swaps_climb_monotonically():
    """200 random instances: accepted swaps strictly improve, then stop."""
    rng = random.Random(5150)
    for _ in range(200):
        schema = random_schema(rng, max_aspects=3, max_labels=6)
        docs = random_docs(rng, schema, rng.randint(2, 12))
        split = rng.randint(1, len(docs) - 1)
        items, rest = docs[:split], docs[split:]
        budget = rng.randint(0, 8)
        result = swap_diversify(schema, items, rest, budget)
        swaps = [t for t in result.trace if t["kind"] == "swap"]
        assert len(swaps) <= budget
        trajectory = [collection_diversity(schema, items).overall]
        for record in swaps:
            assert record["after"] > record["before"]  # strict increase, no cycles
            trajectory.append(record["after"])
        assert all(b > a for a, b in zip(trajectory, trajectory[1:]))
        if len(swaps) < budget:
            # stopped early: must be a local optimum under single swaps
            by_id = {d.id: d for d in docs}
            current = [by_id[i] for i in result.selected]
            pool_now = [d for d in docs if d.id not in set(result.selected)]
            best = collection_diversity(schema, current).overall
            for out_doc, in_doc in itertools.product(current, pool_now):
                trial = [in_doc if d.id == out_doc.id else d for d in current]
                trial_value = collection_diversity(schema, trial).overall
                assert trial_value <= best + SWAP_EPSILON


def test_criterion_6_interaction_fixture_and_degenerate_weights(schema):
    """Share suggestion on the worked fixture; one-type weights reduce exactly."""
    corpus_docs = {
        "d1": DocumentProfile(id="d1", labels={"topic": "Climate", "frame": "Health"}),
        "d2": DocumentProfile(id="d2", labels={"topic": "Immigration", "frame": "Security"}),
        "d3": DocumentProfile(id="d3", labels={"topic": "Climate", "frame": "Cultural"}),
    }
    log = InteractionLog(
        records=(
            InteractionRecord(user="u", doc="d1", type="like", ts=1),
            InteractionRecord(user="u", doc="d1", type="share", ts=2),
        ),
        type_weights={"like": 0.5, "share": 0.5},
    )
    suggestion = suggest_interaction(
        schema, corpus_docs, log, [("d3", "like"), ("d2", "share")]
    )
    assert suggestion.selected == ("d2",)
    assert suggestion.trace[-1]["type"] == "share"

    degenerate = InteractionLog(
        records=(
            InteractionRecord(user="u", doc="d1", type="like", ts=1),
            InteractionRecord(user="u", doc="d2", type="like", ts=2),
            InteractionRecord(user="u", doc="d3", type="like", ts=3),
        ),
        type_weights={"like": 1.0},
    )
    plain = collection_diversity(
        schema, [corpus_docs["d1"], corpus_docs["d2"], corpus_docs["d3"]]
    ).overall
    assert interaction_diversity(schema, corpus_docs, degenerate) == plain


def test_criterion_7_rule_application_invariants():
    """100 random instances: precedence, idempotence, exclusion consistency."""
    rng = random.Random(77)
    for _ in range(100):
        schema = random_schema(rng, max_aspects=3, max_labels=5)
        docs = random_docs(rng, schema, rng.randint(1, 12), with_relevance=True)
        ruleset, request = random_rules(rng, schema, rng.randint(0, 5))

        # force a direct conflict: a global exclude and a request boost on
        # the same label
        aspect = rng.choice(schema.aspects)
        label = rng.choice(aspect.labels)
        predicate = {"aspect": aspect.name, "op": "eq", "value": label}
        excl = parse_rule(
            schema,
            {"id": "conflict-excl", "scope": "global", "predicate": predicate,
             "action": {"exclude": True}},
        )
        boost = parse_rule(
            schema,
            {"id": "conflict-boost", "scope": "request", "predicate": predicate,
             "action": {"boost": 0.3}},
        )
        ruleset = RuleSet(rules=ruleset.rules + (excl,), context_tags=ruleset.context_tags)
        request = request + [boost]

        first = apply_rules(schema, ruleset, request, docs)

        # precedence: everything matching the exclude is gone, so the boost
        # on the same label finds nothing
        assert not [d for d in first.candidates if reference_matches(schema, predicate, d)]
        (conflict,) = [
            t for t in first.adjustments
            if t["kind"] == "boost_rule" and t["rule"] == "conflict-boost"
        ]
        assert conflict["matched"] == 0
        assert not [
            t for t in first.trace_for(d.id for d in first.candidates)
            if t["kind"] == "boost" and t["rule"] == "conflict-boost"
        ]

        # idempotence on double application
        second = apply_rules(schema, ruleset, request, first.candidates)
        assert second.candidates == first.candidates
        assert second.adjusted_relevance == first.adjusted_relevance

        # no selected item matches any active exclude
        if first.candidates:
            k = rng.randint(1, len(first.candidates))
            chosen = greedy_select(schema, first.candidates, k)
            chosen_docs = [d for d in first.candidates if d.id in chosen.selected]
            for r in active_excludes(ruleset, request):
                assert not [d for d in chosen_docs if reference_matches(schema, r.predicate, d)]


def test_criterion_8_cli_runs_are_byte_identical(fixtures_dir, tmp_path):
    """Every CLI command, run twice on the fixtures, byte-for-byte equal."""
    schema = str(fixtures_dir / "example_schema.json")
    corpus = str(fixtures_dir / "example_corpus.jsonl")
    rules = str(fixtures_dir / "rules.jsonl")
    history = str(fixtures_dir / "history.jsonl")
    interactions = str(fixtures_dir / "interactions.jsonl")

    saved = tmp_path / "list_result.json"
    commands = [
        ["score", "--schema", schema, "--corpus", corpus],
        ["score", "--schema", schema, "--corpus", corpus, "--ids", "a1,a2,a7,a8"],
        ["rerank", "--schema", schema, "--corpus", corpus, "--mode", "list", "--k", "4"],
        ["rerank", "--schema", schema, "--corpus", corpus, "--mode", "list", "--k", "4",
         "--lambda", "0.5"],
        ["rerank", "--schema", schema, "--corpus", corpus, "--mode", "list", "--k", "4",
         "--lambda", "0.5", "--rules", rules, "--context", "election"],
        ["rerank", "--schema", schema, "--corpus", corpus, "--mode", "list", "--k", "2",
         "--history", history],
        ["rerank", "--schema", schema, "--corpus", corpus, "--mode", "sequence",
         "--k", "1", "--history", history, "--window", "last:4"],
        ["rerank", "--schema", schema, "--corpus", corpus, "--mode", "summary", "--k", "4"],
        ["rerank", "--schema", schema, "--corpus", corpus, "--mode", "interaction",
         "--k", "1", "--interactions", interactions],
        ["oracle", "--schema", schema, "--corpus", corpus, "--k", "4"],
    ]

    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "newsdiv", *args],
                capture_output=True, timeout=60,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, (args, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, args

    # explain consumes the saved list result, twice
    listing = subprocess.run(
        [sys.executable, "-m", "newsdiv", "rerank", "--schema", schema,
         "--corpus", corpus, "--mode", "list", "--k", "4"],
        capture_output=True, timeout=60,
    )
    saved.write_bytes(listing.stdout)
    explains = [
        subprocess.run(
            [sys.executable, "-m", "newsdiv", "explain", "--result", str(saved)],
            capture_output=True, timeout=60,
        )
        for _ in range(2)
    ]
    assert explains[0].returncode == 0
    assert explains[0].stdout == explains[1].stdout

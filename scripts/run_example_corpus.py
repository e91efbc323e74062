#!/usr/bin/env python3
"""Walk the bundled example corpus through every diversification mode.

Prints the reference list values, compares greedy selection against the
exhaustive oracle for every k, then demos swap improvement, sequence
continuation, summary sourcing, interaction suggestion, and the rules
pipeline on the same eight documents.
"""

import argparse
import pathlib
import sys

from newsdiv.aspect_model import load_schema
from newsdiv.corpus_io import load_corpus, load_history, load_interactions, load_rules
from newsdiv.diversify import (
    exclude_history,
    greedy_select,
    next_in_sequence,
    select_summary_sources,
    suggest_interaction,
    swap_diversify,
)
from newsdiv.metrics import DocumentProfile, Window, collection_diversity
from newsdiv.oracle import max_diversity_oracle
from newsdiv.rules import apply_rules

DEFAULT_FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def hr(title):
    print(f"\n=== {title} ===")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fixtures", type=pathlib.Path, default=DEFAULT_FIXTURES,
        help="directory holding the example schema/corpus files",
    )
    args = parser.parse_args(argv)
    fx = args.fixtures

    schema = load_schema((fx / "example_schema.json").read_text())
    corpus = load_corpus(schema, (fx / "example_corpus.jsonl").read_text())
    pool = corpus.docs()
    by_id = {d.id: d for d in pool}

    hr("corpus")
    for d in pool:
        print(f"  {d.id}: topic={d.labels['topic']:<12} frame={d.labels['frame']:<9} "
              f"relevance={d.relevance}")
    report = collection_diversity(schema, pool)
    print(f"  full-corpus diversity {report.overall:.12g} "
          f"(topic {report.per_aspect['topic']:.12g}, frame {report.per_aspect['frame']:.12g})")

    hr("reference lists")
    lists = load_corpus(schema, (fx / "reference_lists.jsonl").read_text()).docs()
    groups = {}
    for d in lists:
        groups.setdefault(d.id[:2], []).append(d)
    for key in sorted(groups):
        docs = groups[key]
        labels = ", ".join(f"({d.labels['topic'][0]},{d.labels['frame'][0]})" for d in docs)
        print(f"  {key}: div={collection_diversity(schema, docs).overall:.12g}  [{labels}]")

    hr("greedy vs oracle")
    for k in range(1, len(pool) + 1):
        greedy = greedy_select(schema, pool, k)
        oracle = max_diversity_oracle(schema, pool, k)
        flag = "=" if abs(greedy.diversity.overall - oracle.best_value) <= 1e-9 else "<"
        print(f"  k={k}: greedy {greedy.diversity.overall:.12g} {flag} "
              f"oracle {oracle.best_value:.12g}  {list(greedy.selected)}")

    hr("swap improvement")
    start = [by_id[i] for i in ("a1", "a2", "a3", "a4")]
    rest = [d for d in pool if d.id not in {"a1", "a2", "a3", "a4"}]
    swapped = swap_diversify(schema, start, rest, budget=4)
    for record in swapped.trace:
        print(f"  {record['detail']}")
    print(f"  final list {list(swapped.selected)} at {swapped.diversity.overall:.12g}")

    hr("sequence continuation")
    history_events = load_history((fx / "history.jsonl").read_text())
    history = [
        DocumentProfile(id=doc, labels=by_id[doc].labels, timestamp=ts)
        for doc, ts in history_events
    ]
    consumed = {doc for doc, _ in history_events}
    candidates = exclude_history(pool, consumed)
    (pick,) = next_in_sequence(schema, history, candidates, Window("last", 4)).selected
    print(f"  consumed {sorted(consumed)}; next pick over last-4 window: {pick}")

    hr("summary sources")
    summary = select_summary_sources(schema, pool, 4)
    print(f"  sources {list(summary.selected)} diversity {summary.diversity.overall:.12g} "
          f"keyword diversity {summary.keyword_diversity:.12g}")

    hr("interaction suggestion")
    log = load_interactions((fx / "interactions.jsonl").read_text())
    logged = {(r.doc, r.type) for r in log.records}
    options = [
        (doc_id, itype)
        for doc_id in sorted(by_id)
        for itype in sorted(log.type_weights)
        if (doc_id, itype) not in logged
    ]
    suggestion = suggest_interaction(schema, by_id, log, options).trace[-1]
    print(f"  suggest: {suggestion['type']} on {suggestion['doc']}")

    hr("rules pipeline")
    ruleset, request = load_rules(schema, (fx / "rules.jsonl").read_text())
    ruleset = type(ruleset)(rules=ruleset.rules, context_tags=frozenset({"election"}))
    applied = apply_rules(schema, ruleset, request, pool)
    chosen = greedy_select(schema, list(applied.candidates), 4)
    for record in applied.trace_for(chosen.selected):
        print(f"  {record['detail']}")
    print(f"  diversified survivors: {list(chosen.selected)} "
          f"at {chosen.diversity.overall:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

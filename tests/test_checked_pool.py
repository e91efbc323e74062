"""A loaded corpus is checked once, and only the CLI relies on that.

The CLI hands the loader's documents, with their rows, through history
exclusion and the rules to the mode without checking them again. Every
list or tuple a library caller passes is checked on every call. Two tests
pin that split:

- on a corpus whose lines are out of id order, with rules that exclude and
  boost, the CLI prints exactly what the public library calls print on
  `load_corpus(...).docs()`, for every rerank mode and the oracle;
- a document whose labels a caller mutates after loading is still refused
  by every public entry point that reads labels, with the error it raised
  before the CLI stopped checking.

A document, a keyword, an interaction record and log, a rule set, a
label graph, an aspect and a schema check their own fields when they are
built, so a table pins that every such input, every entry that is not a
document (or keyword), a window that is not a `Window` and a result that
is neither a result object nor a mapping ends in a `NewsdivError`. A last
table calls every public function or class that takes documents, records
or a result with values of the wrong kind: each ends in a `NewsdivError`,
a `TypeError` for a wrong container, or a return.
"""

import contextlib
import io
import json
import random
from dataclasses import replace
from itertools import chain

import pytest

from newsdiv import Corpus, cli
from newsdiv.aspect_model import Aspect, AspectSchema, LabelGraph, load_schema
from newsdiv.corpus_io import load_corpus, load_history, load_interactions, load_rules, write_report
from newsdiv.diversify import (
    exclude_history,
    greedy_select,
    next_in_sequence,
    rerank_combined,
    select_summary_sources,
    suggest_interaction,
    swap_diversify,
)
from newsdiv.errors import ContractError, NewsdivError, UnknownEntityError
from newsdiv.metrics import (
    InteractionLog,
    InteractionRecord,
    Keyword,
    Window,
    collection_diversity,
    interaction_diversity,
    keyword_diversity,
    parse_window,
    window_slice,
)
from newsdiv.oracle import max_diversity_oracle
from newsdiv.rules import RuleSet, apply_rules, check_requirements, explain_result

from helpers import load_newsbench

gen = load_newsbench("gen")

K = 6


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Seeded inputs whose corpus lines are shuffled out of id order."""
    tmp = tmp_path_factory.mktemp("checked_pool")
    rng = random.Random(28)
    schema = gen.make_schema(rng, "narrow")
    docs = gen.make_corpus(rng, schema, 150)
    rules = gen.make_rules(rng, schema, 30)
    history = gen.make_history(rng, docs, 8)
    interactions = gen.make_interactions(rng, docs, 12)
    small = rng.sample(docs, 16)
    rng.shuffle(docs)
    texts = {
        "schema": gen.dump_json(schema),
        "corpus": gen.dump_jsonl(docs),
        "rules": gen.dump_jsonl(rules),
        "history": gen.dump_jsonl(history),
        "interactions": gen.dump_jsonl(interactions),
        "small": gen.dump_jsonl(small),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp / name
        paths[name].write_text(text)
    return paths


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0, argv
    return out.getvalue()


def library_rerank(files, mode: str, flags: dict) -> str:
    """`rerank --history --rules --context election` with these mode flags,
    through public library calls on `load_corpus(...).docs()`: the checked
    path."""
    schema = load_schema(files["schema"].read_text())
    corpus = load_corpus(schema, files["corpus"].read_text())
    ruleset, request_rules = load_rules(schema, files["rules"].read_text())
    ruleset = replace(ruleset, context_tags=frozenset({"election"}))
    events = load_history(files["history"].read_text())
    history = [replace(corpus.documents[doc_id], timestamp=ts) for doc_id, ts in events]
    application = apply_rules(
        schema, ruleset, request_rules, exclude_history(corpus.docs(), {d.id for d in history})
    )
    survivors = list(application.candidates)
    if mode == "list" and "--lambda" not in flags:
        result = swap_diversify(schema, survivors[:K], survivors[K:], budget=K)
    elif mode == "list":
        boosted = application.adjusted_relevance
        pool = [replace(d, relevance=boosted[d.id]) if d.id in boosted else d for d in survivors]
        result = rerank_combined(schema, pool, K, float(flags["--lambda"]))
    elif mode == "summary":
        result = select_summary_sources(schema, survivors, K)
    elif mode == "sequence":
        result = next_in_sequence(schema, history, survivors, parse_window(flags["--window"]))
    else:
        log = load_interactions(files["interactions"].read_text())
        logged = {(r.doc, r.type) for r in log.records}
        options = [(d.id, t) for d in survivors for t in sorted(log.type_weights) if (d.id, t) not in logged]
        result = suggest_interaction(schema, corpus.documents, log, options)
    selected = [corpus.documents[i] for i in result.selected]
    trace = application.trace_for(result.selected) + result.trace
    trace += check_requirements(schema, ruleset.active(request_rules), selected)
    return write_report(replace(result, trace=trace))


# Each request's mode and flags; a flag value naming an input file is its path.
REQUESTS = {
    "swap": ("list", {}),
    "blend": ("list", {"--lambda": "0.4"}),
    "summary": ("summary", {}),
    "sequence": ("sequence", {"--window": "last:3"}),
    "interaction": ("interaction", {"--interactions": "interactions"}),
}


@pytest.mark.parametrize("name", list(REQUESTS))
def test_the_cli_prints_what_the_checked_library_calls_print(files, name):
    mode, flags = REQUESTS[name]
    flags = {flag: str(files.get(value, value)) for flag, value in flags.items()}
    argv = ["rerank", "--schema", files["schema"], "--corpus", files["corpus"], "--mode", mode,
            "--k", 1 if mode in ("sequence", "interaction") else K, "--rules", files["rules"], "--context", "election", "--history", files["history"],
            *chain.from_iterable(flags.items())]
    expected = library_rerank(files, mode, flags)
    assert run_cli(argv) == expected
    # The inputs reach what an id-ordered pool would get wrong: the
    # exclude records and swap's first k survivors follow the file order.
    trace = json.loads(expected)["trace"]
    excluded = [t["doc"] for t in trace if t["kind"] == "exclude"]
    assert len(excluded) >= 2 and excluded != sorted(excluded), excluded
    assert any(t["kind"] == "boost_rule" and t["matched"] for t in trace)
    if name == "swap":
        survivors = [json.loads(line)["id"] for line in files["corpus"].read_text().splitlines()]
        history = {json.loads(line)["doc"] for line in files["history"].read_text().splitlines()}
        first = [i for i in survivors if i not in history and i not in excluded][:K]
        assert first != sorted(first)
        assert any(t["kind"] == "swap" for t in trace)


def test_the_oracle_prints_what_the_checked_library_call_prints(files):
    schema = load_schema(files["schema"].read_text())
    docs = load_corpus(schema, files["small"].read_text()).docs()
    assert [d.id for d in docs] != sorted(d.id for d in docs)
    expected = write_report(max_diversity_oracle(schema, docs, 4))
    assert run_cli(["oracle", "--schema", files["schema"], "--corpus", files["small"], "--k", 4]) == expected


# --- a caller that mutates documents after loading ---


def _relabel(doc):
    doc.labels["frame"] = "Sports"


def _unlabel(doc):
    del doc.labels["topic"]


MUTATIONS = {
    "unknown label": (_relabel, UnknownEntityError, "document 'a3' uses unknown label 'Sports' for aspect 'frame'"),
    "missing label": (_unlabel, ContractError, "document 'a3' is missing a label for aspect 'topic'"),
}

ENTRY_POINTS = {
    "apply_rules": lambda schema, docs: apply_rules(schema, RuleSet(rules=()), [], docs),
    "greedy_select": lambda schema, docs: greedy_select(schema, docs, 3),
    "next_in_sequence": lambda schema, docs: next_in_sequence(schema, [], docs, Window("last", 0)),
    "swap_diversify": lambda schema, docs: swap_diversify(schema, docs[:3], docs[3:], 3),
    "rerank_combined": lambda schema, docs: rerank_combined(schema, docs, 3, 0.5),
    "max_diversity_oracle": lambda schema, docs: max_diversity_oracle(schema, docs, 3),
    # What the rules or history exclusion hand back is checked again too.
    "greedy_select after apply_rules": lambda schema, docs: greedy_select(
        schema, apply_rules(schema, RuleSet(rules=()), [], docs).candidates, 3
    ),
    "greedy_select after exclude_history": lambda schema, docs: greedy_select(
        schema, exclude_history(docs, set()), 3
    ),
}

# Each entry point that reads labels checks them, the rules too, through
# the one gate. A relevance score is checked when a document is built, so
# nothing re-checks one forced past the frozen dataclass, as nothing
# re-checks a forced Rule field.
LABELS = ("unknown label", "missing label")
CASES = [(entry, mutation) for entry in ENTRY_POINTS for mutation in LABELS]


@pytest.mark.parametrize("entry, mutation", CASES)
def test_a_document_mutated_after_loading_is_still_refused(fixtures_dir, entry, mutation):
    schema = load_schema((fixtures_dir / "example_schema.json").read_text())
    corpus = load_corpus(schema, (fixtures_dir / "example_corpus.jsonl").read_text())
    docs = corpus.docs()
    mutate, error, message = MUTATIONS[mutation]
    mutate(corpus.documents["a3"])
    with pytest.raises(error) as info:
        ENTRY_POINTS[entry](schema, docs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_no_call_hands_back_a_pool_built_from_a_callers_list(fixtures_dir):
    schema = load_schema((fixtures_dir / "example_schema.json").read_text())
    corpus = load_corpus(schema, (fixtures_dir / "example_corpus.jsonl").read_text())
    docs = corpus.docs()
    assert type(apply_rules(schema, RuleSet(rules=()), [], docs).candidates) is tuple
    assert type(exclude_history(docs, {"a1"})) is list
    assert type(apply_rules(schema, RuleSet(rules=()), [], corpus._pool).candidates) is type(corpus._pool)


# --- documents, keywords and interaction records check themselves ---


def _listed(docs):
    """The documents with the first one's labels a list of its labels."""
    return [replace(docs[0], labels=list(docs[0].labels.values())), *docs[1:]]


def _log():
    return InteractionLog((InteractionRecord("u", "a1", "like", 1),), {"like": 1.0})


def _listed_doc_log():
    return InteractionLog((InteractionRecord("u", ["a1"], "like", 1),), {"like": 1.0})  # a list, not an id


PROBES = {
    "record doc not a string, suggest_interaction": lambda schema, corpus: suggest_interaction(
        schema, corpus.documents, _listed_doc_log(), [("a2", "like")]
    ),
    "record doc not a string, interaction_diversity": lambda schema, corpus: interaction_diversity(
        schema, corpus.documents, _listed_doc_log()
    ),
    "log of strings": lambda schema, corpus: InteractionLog(("x",), {"like": 1.0}),
    "keyword labels a list": lambda schema, corpus: keyword_diversity(schema, [Keyword("t", ["x"])]),
    "ids, greedy_select": lambda schema, corpus: greedy_select(schema, ["a1", "a2"], 1),
    "ids, apply_rules": lambda schema, corpus: apply_rules(schema, RuleSet(rules=()), [], ["a1"]),
    "ids, max_diversity_oracle": lambda schema, corpus: max_diversity_oracle(schema, ["a1", "a2"], 1),
    "labels a list, greedy_select": lambda schema, corpus: greedy_select(schema, _listed(corpus.docs()), 1),
    "labels a list, collection_diversity": lambda schema, corpus: collection_diversity(
        schema, _listed(corpus.docs())
    ),
    "labels a list, apply_rules": lambda schema, corpus: apply_rules(
        schema, RuleSet(rules=()), [], _listed(corpus.docs())
    ),
    "labels a list, check_requirements": lambda schema, corpus: check_requirements(
        schema, [], _listed(corpus.docs())
    ),
    "labels a list, max_diversity_oracle": lambda schema, corpus: max_diversity_oracle(
        schema, _listed(corpus.docs()), 1
    ),
    "aspect name an int": lambda schema, corpus: Aspect(5, ("a", "b"), ()),
    "aspect labels a string": lambda schema, corpus: Aspect("t", "ab", ()),
    "aspect graph not a LabelGraph": lambda schema, corpus: Aspect("t", ("a", "b"), (), ("a", "b")),
    "aspect distance entry a bare pair": lambda schema, corpus: Aspect("t", ("a", "b"), [("a", "b")]),
    "graph node an int": lambda schema, corpus: LabelGraph(("a", 1), (("a", 1),)),
    "graph edge of one node": lambda schema, corpus: LabelGraph(("a", "b"), (("a",),)),
    "graph edges an int": lambda schema, corpus: LabelGraph(("a", "b"), 5),
    "schema aspects strings": lambda schema, corpus: AspectSchema(("x",), {"x": 1.0}),
    "rule set of strings": lambda schema, corpus: RuleSet(("r",)),
    "ids, collection_diversity": lambda schema, corpus: collection_diversity(schema, ["a1", "a2"]),
    "terms, keyword_diversity": lambda schema, corpus: keyword_diversity(schema, ["heatwave"]),
    "ids, window_slice": lambda schema, corpus: window_slice(["a1"], Window("last", 1)),
    "window a string, next_in_sequence": lambda schema, corpus: next_in_sequence(
        schema, corpus.docs()[:2], corpus.docs()[2:4], "last:1"
    ),
    "ids, check_requirements": lambda schema, corpus: check_requirements(schema, [], ["a1"]),
    "ids, exclude_history": lambda schema, corpus: exclude_history(["a1"], set()),
    "mapping of ids, suggest_interaction": lambda schema, corpus: suggest_interaction(
        schema, {"a1": "a1", "a2": "a2"}, _log(), [("a2", "like")]
    ),
    "ids, explain_result": lambda schema, corpus: explain_result(["a1", "a2"]),
    "id, explain_result": lambda schema, corpus: explain_result("a1"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_a_malformed_record_or_entry_ends_in_a_newsdiv_error(fixtures_dir, probe):
    schema = load_schema((fixtures_dir / "example_schema.json").read_text())
    corpus = load_corpus(schema, (fixtures_dir / "example_corpus.jsonl").read_text())
    with pytest.raises(NewsdivError):
        PROBES[probe](schema, corpus)


# --- wrong values where documents, records or a result belong ---


# Each public function or class that takes documents, records or a result,
# with a wrong value in that argument and good ones in the others.
TAKERS = {
    "Corpus": lambda schema, corpus, bad: Corpus(bad),
    "InteractionLog": lambda schema, corpus, bad: InteractionLog(bad, {"like": 1.0}),
    "apply_rules": lambda schema, corpus, bad: apply_rules(schema, RuleSet(rules=()), [], bad),
    "collection_diversity": lambda schema, corpus, bad: collection_diversity(schema, bad),
    "exclude_history": lambda schema, corpus, bad: exclude_history(bad, set()),
    "explain_result": lambda schema, corpus, bad: explain_result(bad),
    "greedy_select": lambda schema, corpus, bad: greedy_select(schema, bad, 1),
    "interaction_diversity, documents": lambda schema, corpus, bad: interaction_diversity(schema, bad, _log()),
    "interaction_diversity, log": lambda schema, corpus, bad: interaction_diversity(schema, corpus.documents, bad),
    "keyword_diversity": lambda schema, corpus, bad: keyword_diversity(schema, bad),
    "max_diversity_oracle": lambda schema, corpus, bad: max_diversity_oracle(schema, bad, 1),
    "next_in_sequence, history": lambda schema, corpus, bad: next_in_sequence(
        schema, bad, corpus.docs()[:2], Window("last", 1)
    ),
    "next_in_sequence, candidates": lambda schema, corpus, bad: next_in_sequence(
        schema, corpus.docs()[:2], bad, Window("last", 1)
    ),
    "rerank_combined": lambda schema, corpus, bad: rerank_combined(schema, bad, 1, 0.5),
    "select_summary_sources": lambda schema, corpus, bad: select_summary_sources(schema, bad, 1),
    "suggest_interaction, documents": lambda schema, corpus, bad: suggest_interaction(
        schema, bad, _log(), [("a2", "like")]
    ),
    "suggest_interaction, log": lambda schema, corpus, bad: suggest_interaction(
        schema, corpus.documents, bad, [("a2", "like")]
    ),
    "swap_diversify, list": lambda schema, corpus, bad: swap_diversify(schema, bad, corpus.docs()[2:], 1),
    "swap_diversify, pool": lambda schema, corpus, bad: swap_diversify(schema, corpus.docs()[:2], bad, 1),
    "write_report": lambda schema, corpus, bad: write_report(bad),
}


@pytest.mark.parametrize("bad", [None, "a1", 5, {}, ["a1", "a2"]], ids=repr)
@pytest.mark.parametrize("taker", sorted(TAKERS))
def test_a_wrong_value_ends_in_a_newsdiv_error_a_type_error_or_a_return(fixtures_dir, taker, bad):
    """Never a bare AttributeError, KeyError, IndexError or ValueError."""
    schema = load_schema((fixtures_dir / "example_schema.json").read_text())
    corpus = load_corpus(schema, (fixtures_dir / "example_corpus.jsonl").read_text())
    with contextlib.suppress(NewsdivError, TypeError):
        TAKERS[taker](schema, corpus, bad)

"""A loaded corpus is checked once, and only the CLI relies on that.

The CLI hands the loader's documents, with their rows, through history
exclusion and the rules to the mode without checking them again. Every
list or tuple a library caller passes is checked on every call. Two tests
pin that split:

- on a corpus whose lines are out of id order, with rules that exclude and
  boost, the CLI prints exactly what the public library calls print on
  `load_corpus(...).docs()`, for every rerank mode and the oracle;
- a document a caller mutates after loading is still refused by every
  public entry point, with the error it raised before the CLI stopped
  checking.
"""

import contextlib
import io
import json
import random
from dataclasses import replace
from itertools import chain

import pytest

from newsdiv import cli
from newsdiv.aspect_model import load_schema
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
from newsdiv.errors import ContractError, UnknownEntityError
from newsdiv.metrics import Window, parse_window
from newsdiv.oracle import max_diversity_oracle
from newsdiv.rules import RuleSet, apply_rules, check_requirements

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


def _overrate(doc):
    doc.__dict__["relevance"] = 1.5  # a frozen dataclass a caller forced anyway


MUTATIONS = {
    "unknown label": (_relabel, UnknownEntityError, "document 'a3' uses unknown label 'Sports' for aspect 'frame'"),
    "missing label": (_unlabel, ContractError, "document 'a3' is missing a label for aspect 'topic'"),
    "relevance": (_overrate, ContractError, "documents with relevance outside [0, 1]: ['a3']"),
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

# Each entry point checks what it reads: the rules read relevance, not
# labels; greedy, sequence, swap and the oracle read labels, not relevance.
LABELS = ("unknown label", "missing label")
READS = {"apply_rules": ("relevance",), "rerank_combined": (*LABELS, "relevance")}
CASES = [(entry, mutation) for entry in ENTRY_POINTS for mutation in READS.get(entry, LABELS)]


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

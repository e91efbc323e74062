"""Command line interface.

Subcommands: score, rerank, oracle, explain. All input comes from files.
Each cmd_* returns its output (JSON except explain, which returns text) and
main alone writes it to stdout. Exit codes: 0 success, 1 I/O error, 2
validation/contract error, JSON decode failure or output stdout cannot
encode, 3 enumeration guard exceeded. Output is byte-deterministic for
fixed inputs.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from . import corpus_io, diversify, rules as rules_mod
from .aspect_model import AspectSchema, load_schema
from .errors import (
    ContractError,
    GuardExceededError,
    NewsdivError,
    ParseError,
    UnknownEntityError,
    ValidationError,
    load_json,
)
# interaction_diversity is unused here; newsbench/tracing.py patches this name.
from .metrics import Window, _Pool, _check_unique_ids, collection_diversity, interaction_diversity, parse_window  # noqa: F401
from .oracle import max_diversity_oracle

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_GUARD = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_schema_corpus(args) -> tuple[AspectSchema, corpus_io.Corpus]:
    schema = load_schema(_read(args.schema))
    for aspect in schema.aspects:
        if aspect.defaulted_pairs:
            print(
                f"aspect {aspect.name!r}: no distance given for pairs "
                f"{sorted(aspect.defaulted_pairs)}; defaulting to 1.0",
                file=sys.stderr,
            )
    corpus = corpus_io.load_corpus(schema, _read(args.corpus))
    return schema, corpus


def cmd_score(args) -> str:
    schema, corpus = _load_schema_corpus(args)
    if args.ids is not None:
        wanted = [i.strip() for i in args.ids.split(",") if i.strip()]
        if not wanted:
            raise ValidationError(f"--ids names no document (got {args.ids!r})")
        missing = sorted({i for i in wanted if i not in corpus.documents})
        if missing:
            raise UnknownEntityError(f"unknown document ids: {missing}")
        docs = [corpus.documents[i] for i in wanted]
        _check_unique_ids(docs, "--ids")
    else:
        docs = corpus._pool  # the loader's rows, resolved once
    return corpus_io.write_report(collection_diversity(schema, docs))


def _load_rules(args, schema):
    if args.rules is None:
        return rules_mod.RuleSet(rules=()), []
    ruleset, request_rules = corpus_io.load_rules(schema, _read(args.rules))
    if args.context:
        ruleset = replace(ruleset, context_tags=frozenset(args.context))
    return ruleset, request_rules


def _history_profiles(args, corpus):
    """Consumption events as profiles re-stamped with event timestamps."""
    events = corpus_io.load_history(_read(args.history))
    missing = sorted({doc_id for doc_id, _ in events if doc_id not in corpus.documents})
    if missing:
        raise UnknownEntityError(f"history references unknown documents: {missing}")
    return [
        replace(corpus.documents[doc_id], timestamp=ts) for doc_id, ts in events
    ]


# The rerank flags one mode alone reads: (flag, its attribute, that mode).
_MODE_FLAGS = (
    ("--lambda", "lambda_", "list"),
    ("--window", "window", "sequence"),
    ("--gamma", "gamma", "sequence"),
    ("--interactions", "interactions", "interaction"),
    ("--type-weights", "type_weights", "interaction"),
)


def _check_flags(args) -> None:
    """Refuse a given flag that the chosen rerank mode would ignore, and a
    --k other than 1 in the modes that select one document."""
    for flag, dest, mode in _MODE_FLAGS:
        if getattr(args, dest) is not None and args.mode != mode:
            raise ContractError(f"{flag} is read only in {mode} mode (got --mode {args.mode})")
    if args.context and args.rules is None:
        raise ContractError(f"--context is read only with --rules (got --mode {args.mode} without --rules)")
    if args.mode in ("sequence", "interaction") and args.k != 1:
        raise ContractError(f"{args.mode} mode selects one document, so --k must be 1 (got --k {args.k})")


def cmd_rerank(args) -> str:
    _check_flags(args)
    schema, corpus = _load_schema_corpus(args)
    ruleset, request_rules = _load_rules(args, schema)

    history = []
    if args.history is not None:
        history = _history_profiles(args, corpus)
    # The loader's pool, whose documents this request alone holds, goes on
    # checked: each filter keeps it a pool, and every mode reads its rows.
    candidates = diversify.exclude_history(corpus._pool, {d.id for d in history})
    application = rules_mod.apply_rules(schema, ruleset, request_rules, candidates)
    survivors = application.candidates

    if args.mode == "list":
        if args.lambda_ is not None:
            # Only the blend reads relevance, so only it sees the boosted values.
            boosted = application.adjusted_relevance
            pool = _Pool(
                [replace(d, relevance=boosted[d.id]) if d.id in boosted else d for d in survivors],
                survivors.rows,
            )
            result = diversify.rerank_combined(schema, pool, args.k, args.lambda_)
        else:
            if args.k < 1 or args.k > len(survivors):
                raise ContractError(
                    f"k must satisfy 1 <= k <= {len(survivors)} surviving candidates "
                    f"(got k={args.k})"
                )
            initial = survivors.take(range(args.k))
            pool = survivors.take(range(args.k, len(survivors)))
            result = diversify.swap_diversify(schema, initial, pool, budget=args.k)
    elif args.mode == "summary":
        result = diversify.select_summary_sources(schema, survivors, args.k)
    elif args.mode == "sequence":
        if args.history is None:
            raise ContractError("sequence mode requires --history")
        window = Window("last", len(history)) if args.window is None else parse_window(args.window)
        gamma = diversify.DEFAULT_GAMMA if args.gamma is None else args.gamma
        result = diversify.next_in_sequence(schema, history, survivors, window, gamma=gamma)
    else:  # interaction; argparse's choices admit no other mode
        if args.interactions is None:
            raise ContractError("interaction mode requires --interactions")
        weights = None if args.type_weights is None else load_json(args.type_weights, "--type-weights")
        log = corpus_io.load_interactions(_read(args.interactions), weights)
        logged = {(r.doc, r.type) for r in log.records}
        options = [
            (doc.id, itype)
            for doc in survivors
            for itype in sorted(log.type_weights)
            if (doc.id, itype) not in logged
        ]
        if not options:
            raise ContractError("no interaction options remain to suggest")
        result = diversify.suggest_interaction(
            schema, corpus.documents, log, options
        )

    selected_docs = [corpus.documents[i] for i in result.selected]
    violations = rules_mod.check_requirements(
        schema, ruleset.active(request_rules), selected_docs
    )
    trace = application.trace_for(result.selected) + result.trace + violations
    return corpus_io.write_report(replace(result, trace=trace))


def cmd_oracle(args) -> str:
    schema, corpus = _load_schema_corpus(args)
    return corpus_io.write_report(max_diversity_oracle(schema, corpus._pool, args.k))


def cmd_explain(args) -> str:
    data = load_json(_read(args.result), "result file")
    if not isinstance(data, dict) or "selected" not in data:
        raise ValidationError("result file does not look like a rerank result")
    return rules_mod.explain_result(data) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. parse_args leaves it as
    it was: each call fills a fresh namespace, and --context appends to a
    copy of its default list."""
    parser = argparse.ArgumentParser(
        prog="newsdiv",
        description="Multi-aspect diversity scoring and diversification for news lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="diversity report for a corpus or id subset")
    score.add_argument("--schema", required=True)
    score.add_argument("--corpus", required=True)
    score.add_argument("--ids", help="comma-separated document ids (default: all)")
    score.set_defaults(func=cmd_score)

    rerank = sub.add_parser("rerank", help="diversify via one of the four modes")
    rerank.add_argument("--schema", required=True)
    rerank.add_argument("--corpus", required=True)
    rerank.add_argument(
        "--mode", required=True, choices=["list", "sequence", "summary", "interaction"]
    )
    rerank.add_argument("--k", type=int, required=True)
    rerank.add_argument("--lambda", dest="lambda_", type=float, default=None,
                        help="relevance/diversity blend for list mode")
    rerank.add_argument("--window", default=None, help="'last:K' or 'cutoff:TS'")
    rerank.add_argument("--gamma", type=float, default=None,
                        help=f"recency decay for sequence tie-breaks (default {diversify.DEFAULT_GAMMA})")
    rerank.add_argument("--rules", default=None, help="JSONL rules file")
    rerank.add_argument("--history", default=None, help="JSONL consumption history")
    rerank.add_argument("--interactions", default=None, help="JSONL interaction log")
    rerank.add_argument("--context", action="append", default=[],
                        help="activate a context tag (repeatable)")
    rerank.add_argument("--type-weights", default=None,
                        help="JSON object of interaction type weights")
    rerank.set_defaults(func=cmd_rerank)

    oracle = sub.add_parser("oracle", help="exact best-diversity subset (guarded)")
    oracle.add_argument("--schema", required=True)
    oracle.add_argument("--corpus", required=True)
    oracle.add_argument("--k", type=int, required=True)
    oracle.set_defaults(func=cmd_oracle)

    explain = sub.add_parser("explain", help="narrate a rerank result file")
    explain.add_argument("--result", required=True)
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The stream encodes all of the text before it writes any of it.
        sys.stdout.write(args.func(args))
        return EXIT_OK
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeEncodeError as exc:
        print(f"error: output is not {exc.encoding} text: {exc.reason} at character {exc.start}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except NewsdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

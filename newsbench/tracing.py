"""Spans around newsdiv's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function, in every module namespace
that calls it, with a wrapper that records a span (request, parent, name,
start, end, work). `cli.main` itself is the root span of a request, so the
CLI's own self time is everything it does outside the traced layers.
Functions called very often at tiny sizes (`doc_distance`, `matches`,
`label_ancestors`) are not wrapped: their time counts to the caller's layer.
"""
from __future__ import annotations

import inspect
import time

LAYERS = ("cli", "aspect_model", "corpus_io", "rules", "metrics", "diversify", "oracle")

# Top-level diversify modes: their work is candidates x selection steps.
MODES = ("swap_diversify", "rerank_combined", "select_summary_sources", "next_in_sequence", "suggest_interaction")


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _work(name: str, fn, args, kwargs, result) -> tuple:
    """Work counters of one call, as a tuple of numbers."""
    if name == "collection_diversity":
        return (result.pair_count,)
    if name == "load_corpus":
        return (len(result.documents),)
    if name == "write_report":
        return (len(result.encode("utf-8")),)
    if name == "max_diversity_oracle":
        return (result.evaluated,)
    if name not in MODES and name != "apply_rules":
        return ()
    a = _bound(fn, args, kwargs)
    if name == "apply_rules":
        rules = len(a["ruleset"].active(a["request_rules"]))
        return (len(a["candidates"]), len(result.candidates), rules)
    if name == "swap_diversify":
        swaps = sum(1 for t in result.trace if t["kind"] == "swap")
        return ((len(a["items"]) + len(a["pool"])) * a["budget"], swaps)
    if name in ("rerank_combined", "select_summary_sources"):
        return (len(a["pool"]) * a["k"],)
    if name == "next_in_sequence":
        return (len(a["candidates"]),)
    return (len(a["options"]),)  # suggest_interaction


class Tracer:
    """Collects spans in memory; `install()` returns an undo function."""

    def __init__(self):
        # (request, parent index or -1, layer, name, start, end, work)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.request = -1

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after us
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (self.request, parent, layer, name, start, clock(), ())
                raise
            end = clock()
            stack.pop()
            spans[index] = (self.request, parent, layer, name, start, end, _work(name, fn, args, kwargs, result))
            return result

        return traced

    def install(self, newsdiv):
        """Wrap the traced functions in every namespace that calls them."""
        cli, corpus_io, diversify = newsdiv.cli, newsdiv.corpus_io, newsdiv.diversify
        metrics, oracle, rules = newsdiv.metrics, newsdiv.oracle, newsdiv.rules
        targets = [
            ("aspect_model", "load_schema", [cli]),
            ("corpus_io", "load_corpus", [corpus_io]),
            ("corpus_io", "load_rules", [corpus_io]),
            ("corpus_io", "load_history", [corpus_io]),
            ("corpus_io", "load_interactions", [corpus_io]),
            ("corpus_io", "write_report", [corpus_io]),
            ("rules", "apply_rules", [rules]),
            ("rules", "check_requirements", [rules]),
            ("rules", "explain_result", [rules]),
            ("metrics", "collection_diversity", [metrics, cli, diversify, oracle]),
            ("metrics", "interaction_diversity", [metrics, cli, diversify]),
            ("diversify", "exclude_history", [diversify]),
            ("diversify", "greedy_select", [diversify]),
            *[("diversify", mode, [diversify]) for mode in MODES],
            ("oracle", "max_diversity_oracle", [cli]),
        ]
        undo = []
        for layer, name, modules in targets:
            wrapper = self._wrap(layer, name, getattr(modules[0], name))
            for module in modules:
                undo.append((module, name, getattr(module, name)))
                setattr(module, name, wrapper)

        def uninstall():
            for module, name, original in reversed(undo):
                setattr(module, name, original)

        return uninstall

    def root(self, request: int, fn, *args):
        """Run `fn(*args)` as the root span ("cli", "main") of one request."""
        self.request = request
        return self._wrap("cli", "main", fn)(*args)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own

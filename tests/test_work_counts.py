"""Work counts: what a CLI request computes, counted exactly.

Wall times on a shared host move by 1.5-2x within seconds; a count of the
work a request does is the same on every host and every run. Each request
below runs fixed, seeded `newsbench/gen.py` inputs through in-process
`cli.main`, with counting wrappers patched over six kernels and checks:

- `rows`: `AspectSchema._row` calls (label maps resolved to rows);
- `cells`: `_distance_matrix` cells (pair distances computed);
- `entries`: `_candidate_values` candidate x aspect entries;
- `fold_steps`: `rules._fold` steps (boost deltas added and clamped);
- `pair_sums`: `oracle._pair_sum` calls (subsets summed in full);
- `number_checks`: `json_number_in` calls (numeric range checks).

Each count is pinned at an upper bound. A change that lowers a count lowers
its pin in the same change, so the next one cannot quietly take the work
back. Raising a pin is a bound change: it is logged in CHANGES.md with the
reason.
"""

import contextlib
import io
import random

import pytest

from newsdiv import aspect_model, cli, corpus_io, diversify, errors, metrics, oracle, rules
from newsdiv.aspect_model import AspectSchema

from helpers import load_newsbench

gen = load_newsbench("gen")

MODULES = (aspect_model, cli, corpus_io, diversify, errors, metrics, oracle, rules)
COUNTS = ("rows", "cells", "entries", "fold_steps", "pair_sums", "number_checks")


def _request(tmp_path, seed, shape, n, command, *, k=None, ids=0, head=0, history=0, interactions=0,
             n_rules=0, extra=()):
    """The argv of one request on files generated from its own seed, so a
    request's inputs do not depend on the requests before it. Rules come
    with the "election" context tag."""
    rng = random.Random(seed)
    schema = gen.make_schema(rng, shape)
    docs = gen.make_corpus(rng, schema, n, head)
    files = {"schema": gen.dump_json(schema), "corpus": gen.dump_jsonl(docs)}
    if history:
        files["history"] = gen.dump_jsonl(gen.make_history(rng, docs, history))
    if interactions:
        files["interactions"] = gen.dump_jsonl(gen.make_interactions(rng, docs, interactions))
    if n_rules:
        files["rules"] = gen.dump_jsonl(gen.make_rules(rng, schema, n_rules))
        extra = ("--context", "election", *extra)
    argv = list(command)
    for name, text in files.items():
        path = tmp_path / f"{seed}_{name}"
        path.write_text(text)
        argv += [f"--{name}", str(path)]
    if ids:
        argv += ["--ids", ",".join(d["id"] for d in rng.sample(docs, ids))]
    if k is not None:
        argv += ["--k", str(k)]
    return argv + list(extra)


RERANK = ["rerank", "--mode"]
REQUESTS = {
    "score": lambda p: _request(p, 1, "wide", 400, ["score"]),
    "score --ids": lambda p: _request(p, 1, "wide", 400, ["score"], ids=60),
    "rerank list": lambda p: _request(p, 2, "wide", 100, RERANK + ["list"], k=10, head=10, n_rules=4),
    "rerank list --lambda": lambda p: _request(
        p, 3, "narrow", 150, RERANK + ["list"], k=10, n_rules=4, extra=("--lambda", "0.3")
    ),
    "rerank summary": lambda p: _request(p, 4, "wide", 120, RERANK + ["summary"], k=10, n_rules=4),
    "rerank sequence": lambda p: _request(
        p, 5, "narrow", 150, RERANK + ["sequence"], k=1, history=20, n_rules=4, extra=("--window", "last:8")
    ),
    "rerank interaction": lambda p: _request(
        p, 6, "wide", 100, RERANK + ["interaction"], k=1, interactions=30, n_rules=4
    ),
    "rerank sequence --rules, 2k documents": lambda p: _request(
        p, 7, "wide", 2000, RERANK + ["sequence"], k=1, history=10, n_rules=30, extra=("--window", "last:2")
    ),
    "oracle": lambda p: _request(p, 8, "wide", 22, ["oracle"], k=5),
}

# The counts when each was last pinned, as upper bounds.
PINS = {
    "score": dict(rows=400, cells=0, entries=0, fold_steps=0, pair_sums=0, number_checks=459),
    "score --ids": dict(rows=460, cells=0, entries=0, fold_steps=0, pair_sums=0, number_checks=459),
    "rerank list": dict(rows=100, cells=0, entries=6174, fold_steps=64, pair_sums=0, number_checks=163),
    "rerank list --lambda": dict(rows=150, cells=0, entries=2550, fold_steps=173, pair_sums=0, number_checks=160),
    "rerank summary": dict(rows=120, cells=6786, entries=3024, fold_steps=72, pair_sums=0, number_checks=183),
    "rerank sequence": dict(rows=158, cells=48, entries=16, fold_steps=166, pair_sums=0, number_checks=159),
    "rerank interaction": dict(rows=200, cells=0, entries=816, fold_steps=55, pair_sums=0, number_checks=165),
    "rerank sequence --rules, 2k documents": dict(
        rows=2002, cells=904, entries=1356, fold_steps=8789, pair_sums=0, number_checks=2082
    ),
    "oracle": dict(rows=22, cells=231, entries=0, fold_steps=0, pair_sums=35, number_checks=82),
}


def _patch_everywhere(monkeypatch, home, name, wrap):
    """Replace the function `name` of module `home` in every package module
    that binds it."""
    original = getattr(home, name)
    wrapper = wrap(original)
    for module in MODULES:
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, wrapper)


def count_work(monkeypatch, argv) -> dict[str, int]:
    """Run one request through cli.main with the counting wrappers in place."""
    counts = dict.fromkeys(COUNTS, 0)

    def calls(key):
        def wrap(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def cells(fn):
        def counted(*args, **kwargs):
            for line in fn(*args, **kwargs):
                counts["cells"] += len(line)
                yield line
        return counted

    def entries(fn):
        def counted(schema, rows, candidates, *args):
            counts["entries"] += len(candidates) * len(schema.aspects)
            return fn(schema, rows, candidates, *args)
        return counted

    def steps(fn):
        def counted(relevance, steps, clamped):
            steps = tuple(steps)
            counts["fold_steps"] += len(steps)
            return fn(relevance, steps, clamped)
        return counted

    monkeypatch.setattr(AspectSchema, "_row", calls("rows")(AspectSchema._row))
    _patch_everywhere(monkeypatch, metrics, "_distance_matrix", cells)
    _patch_everywhere(monkeypatch, metrics, "_candidate_values", entries)
    _patch_everywhere(monkeypatch, rules, "_fold", steps)
    _patch_everywhere(monkeypatch, oracle, "_pair_sum", calls("pair_sums"))
    _patch_everywhere(monkeypatch, errors, "json_number_in", calls("number_checks"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    return counts


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("work_counts")
    out = {}
    for name, make in REQUESTS.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            out[name] = count_work(monkeypatch, make(tmp_path))
    return out


@pytest.mark.parametrize("name", list(REQUESTS))
def test_work_counts_stay_within_their_pins(measured, name):
    counts, pins = measured[name], PINS[name]
    assert set(pins) == set(COUNTS)
    over = {key: (counts[key], pins[key]) for key in COUNTS if counts[key] > pins[key]}
    assert not over, (name, over, counts)


def test_every_counter_sees_its_kernel(measured):
    # A wrapper that no call reaches would keep every pin at zero.
    for key in COUNTS:
        assert any(counts[key] for counts in measured.values()), key

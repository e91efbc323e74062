"""The request cycles of each workload, generated from one seed.

A workload is a fixed cycle of CLI requests, built once per data set drawn
from the seed. The seed decides the data (labels, distances, relevance,
rules, histories); the sizes, modes and order are fixed per workload, so
seeds change what is computed but hardly how much. Each request carries its
own output check, built from the generated data alone (see `check.py`).
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "cli_small": "fresh python -m newsdiv processes on <=40 docs: interpreter start, imports and argparse dominate",
    "rerank_pool": "in-process cli.main on 100-150 doc pools with k=10 and 22-24 doc oracles: metrics, diversify and oracle dominate",
    "ingest_rules": "in-process cli.main on 5k and 8k doc corpora with 30 rules: parsing, rule matching and trace output dominate",
}


@dataclass
class Request:
    kind: str
    argv: list[str]  # arguments after `newsdiv`
    verify: Callable[[str], list[str]]  # stdout -> problems
    save_as: str | None = None  # later requests read this request's stdout here


def _json_check(fn):
    def verify(text: str) -> list[str]:
        try:
            return fn(json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            return [f"malformed output: {exc!r}"]
    return verify


class Inputs:
    """Writes generated files under `workdir`; all randomness comes from `seed`."""

    def __init__(self, workdir: Path, seed: int | str):
        self.dir = workdir
        self.rng = random.Random(seed)
        self.schemas: dict[str, tuple[str, dict]] = {}
        self.corpora: dict[str, tuple] = {}
        self.files = 0

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def unique(self, tag: str, what: str, suffix: str = ".jsonl") -> str:
        """A fresh file name for one request's own input."""
        self.files += 1
        return f"{tag}_{what}{self.files:02d}{suffix}"

    def schema(self, shape: str) -> tuple[str, dict]:
        if shape not in self.schemas:
            data = gen.make_schema(self.rng, shape)
            self.schemas[shape] = (self.write(f"schema_{shape}.json", gen.dump_json(data)), data)
        return self.schemas[shape]

    def corpus(self, tag: str, shape: str, n: int, head: int = 0):
        """A corpus file per tag; requests naming the same tag share it."""
        if tag not in self.corpora:
            schema_path, schema = self.schema(shape)
            docs = gen.make_corpus(self.rng, schema, n, head)
            path = self.write(f"{tag}_corpus.jsonl", gen.dump_jsonl(docs))
            self.corpora[tag] = (schema_path, path, check.Model(schema, docs), docs)
        return self.corpora[tag]

    def score(self, tag: str, shape: str, n: int, ids: int | None = None) -> Request:
        schema_path, corpus_path, model, docs = self.corpus(tag, shape, n)
        argv = ["score", "--schema", schema_path, "--corpus", corpus_path]
        wanted = [d["id"] for d in docs]
        if ids is not None:
            wanted = self.rng.sample(wanted, ids)
            argv += ["--ids", ",".join(wanted)]
        return Request("score", argv, _json_check(lambda out: check.check_report(model, out, wanted)))

    def oracle(self, tag: str, shape: str, n: int, k: int) -> Request:
        schema_path, corpus_path, model, docs = self.corpus(tag, shape, n)
        argv = ["oracle", "--schema", schema_path, "--corpus", corpus_path, "--k", str(k)]
        pool = [d["id"] for d in docs]
        return Request("oracle", argv, _json_check(lambda out: check.check_oracle(model, out, pool, k)))

    def rerank(
        self,
        tag: str,
        shape: str,
        n: int,
        mode: str,
        k: int,
        *,
        lam: float | None = None,
        history: int = 0,
        window: int = 0,
        interactions: int = 0,
        rules: int = 0,
        contexts: tuple[str, ...] = (),
        save: bool = False,
    ) -> Request:
        # Swap mode improves the list the corpus starts with: make it one topic.
        schema_path, corpus_path, model, docs = self.corpus(tag, shape, n, k if mode == "swap" else 0)
        cli_mode = {"swap": "list", "lambda": "list"}.get(mode, mode)
        argv = ["rerank", "--schema", schema_path, "--corpus", corpus_path, "--mode", cli_mode, "--k", str(k)]
        exp = check.RerankExpect(model=model, mode=mode, k=k, survivors=[], excluded=set(), lam=lam, window=window)
        if lam is not None:
            argv += ["--lambda", repr(lam)]
        if history:
            events = gen.make_history(self.rng, docs, history)
            exp.history = [e["doc"] for e in events]
            argv += ["--history", self.write(self.unique(tag, "history"), gen.dump_jsonl(events))]
            argv += ["--window", f"last:{window}"]
        if interactions:
            exp.interactions = gen.make_interactions(self.rng, docs, interactions)
            argv += ["--interactions", self.write(self.unique(tag, "interactions"), gen.dump_jsonl(exp.interactions))]
        rule_rows = []
        if rules:
            _, schema = self.schema(shape)
            rule_rows = gen.make_rules(self.rng, schema, rules)
            argv += ["--rules", self.write(self.unique(tag, "rules"), gen.dump_jsonl(rule_rows))]
            for c in contexts:
                argv += ["--context", c]
        exp.survivors, exp.excluded, exp.relevance = check.survivors(
            model, [d["id"] for d in docs], check.active_rules(rule_rows, list(contexts)), exp.history
        )
        save_as = str(self.dir / self.unique(tag, "result", ".json")) if save else None
        return Request(mode, argv, _json_check(lambda out: check.check_rerank(exp, out)), save_as)

    def explain(self, source: Request) -> Request:
        def verify(text: str) -> list[str]:
            result = json.loads(Path(source.save_as).read_text(encoding="utf-8"))
            lines = text.splitlines()
            problems = []
            if not lines or lines[0] != "selected: " + ", ".join(result["selected"]):
                problems.append("explain does not list the selection first")
            if f"overall diversity: {result['diversity']['overall']:.12g}" not in lines:
                problems.append("explain does not report the overall diversity")
            return problems

        return Request("explain", ["explain", "--result", source.save_as], verify)


def cli_small(inputs: Inputs) -> list[Request]:
    """One request per subcommand and mode, each on at most 40 documents."""
    with_rules = inputs.rerank("c07", "wide", 40, "swap", 5, rules=6, contexts=("election",), save=True)
    return [
        inputs.score("c01", "wide", 40),
        inputs.rerank("c02", "wide", 40, "swap", 5),
        inputs.rerank("c03", "narrow", 30, "lambda", 5, lam=0.5),
        inputs.rerank("c04", "wide", 40, "summary", 5),
        inputs.rerank("c05", "wide", 40, "sequence", 1, history=12, window=8),
        inputs.rerank("c06", "narrow", 30, "interaction", 1, interactions=12),
        with_rules,
        inputs.oracle("c08", "wide", 14, 4),
        inputs.explain(with_rules),
    ]


# Cycles have an odd number of requests whose latencies differ by kind, so
# the median lands inside one kind rather than between two.
def rerank_pool(inputs: Inputs) -> list[Request]:
    """Every mode at k=10 on 100-150 doc pools, alternating schema shapes."""
    light = dict(rules=4, contexts=("election",))
    return [
        inputs.rerank("p01", "wide", 100, "swap", 10, **light),
        inputs.rerank("p02", "narrow", 150, "lambda", 10, lam=0.3, **light),
        inputs.rerank("p03", "wide", 120, "summary", 10, **light),
        inputs.rerank("p04", "narrow", 150, "sequence", 1, history=20, window=8, **light),
        inputs.rerank("p05", "wide", 100, "interaction", 1, interactions=30, **light),
        inputs.oracle("p06", "narrow", 24, 5),
        inputs.rerank("p07", "narrow", 120, "swap", 10, **light),
        inputs.rerank("p08", "wide", 100, "lambda", 10, lam=0.7, **light),
        inputs.rerank("p09", "narrow", 150, "summary", 10, **light),
        inputs.rerank("p10", "wide", 150, "sequence", 1, history=20, window=8, **light),
        inputs.rerank("p11", "narrow", 120, "interaction", 1, interactions=30, **light),
        inputs.oracle("p12", "wide", 24, 6),
        inputs.oracle("p13", "wide", 22, 5),
    ]


def ingest_rules(inputs: Inputs) -> list[Request]:
    """Two large corpora, 30 rules, cheap modes: load, match and serialize.

    Six `score --ids` requests (parse-bound) and three `sequence` requests
    (rule- and output-bound) per cycle put the median on the 8k-doc scores
    and the p75 tail inside the sequences.
    """
    heavy = dict(rules=30, history=10)
    cycle = []
    for window, context in ((2, "election"), (1, "sports"), (1, "election")):
        cycle.append(inputs.score("i1", "wide", 5000, ids=100))
        cycle.append(inputs.score("i2", "wide", 8000, ids=100))
        cycle.append(inputs.rerank("i1", "wide", 5000, "sequence", 1, window=window, contexts=(context,), **heavy))
    return cycle


WORKLOADS = {"cli_small": cli_small, "rerank_pool": rerank_pool, "ingest_rules": ingest_rules}

# A run makes whole passes over this many data sets drawn from the seed, so
# it averages over several draws, yet few enough that even the slowest
# expected run completes two passes. rerank_pool's swap and interaction costs
# depend most on the data; cli_small's cost is mostly process start-up.
VARIANTS = {"cli_small": 1, "rerank_pool": 3, "ingest_rules": 2}


def build(name: str, workdir: Path, seed: int) -> list[list[Request]]:
    """The workload's request cycles, one per data set drawn from `seed`."""
    cycles = []
    for variant in range(VARIANTS[name]):
        directory = workdir / f"v{variant}"
        directory.mkdir(parents=True, exist_ok=True)
        cycles.append(WORKLOADS[name](Inputs(directory, f"{seed}:{variant}")))
    return cycles

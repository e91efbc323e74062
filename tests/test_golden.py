"""Golden snapshots: CLI and demo-script stdout, byte for byte.

Every case runs in-process (``cli.main`` or a script's ``main``) and must
reproduce the stored stdout in ``fixtures/golden/<case>.out`` and the exit
code stored in ``fixtures/golden/exit_codes.json``. A refactor that changes
a reported value, a trace record or the output format fails here.

Regenerate the stored files only after an intended output change, by
running this module as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

_S = ["--schema", "{fx}/example_schema.json", "--corpus", "{fx}/example_corpus.jsonl"]
_G = ["--schema", "{fx}/example_schema_graph.json", "--corpus", "{fx}/example_corpus.jsonl"]
_HISTORY = ["--history", "{fx}/history.jsonl"]
_INTERACTIONS = ["--interactions", "{fx}/interactions.jsonl"]

# Case name -> CLI argv ("{fx}" is fixtures/, "{golden}" is fixtures/golden/),
# or ("script", file name under scripts/). Explain cases read the stored
# output of an earlier case, so order matters when regenerating.
CASES: dict[str, list[str] | tuple[str, str]] = {
    # the ten commands of acceptance criterion 8
    "score": ["score", *_S],
    "score_ids": ["score", *_S, "--ids", "a1,a2,a7,a8"],
    "rerank_list": ["rerank", *_S, "--mode", "list", "--k", "4"],
    "rerank_list_lambda": ["rerank", *_S, "--mode", "list", "--k", "4", "--lambda", "0.5"],
    "rerank_list_rules": [
        "rerank", *_S, "--mode", "list", "--k", "4", "--lambda", "0.5",
        "--rules", "{fx}/rules.jsonl", "--context", "election",
    ],
    "rerank_list_history": ["rerank", *_S, "--mode", "list", "--k", "2", *_HISTORY],
    "rerank_sequence": [
        "rerank", *_S, "--mode", "sequence", "--k", "1", *_HISTORY, "--window", "last:4",
    ],
    "rerank_summary": ["rerank", *_S, "--mode", "summary", "--k", "4"],
    "rerank_interaction": ["rerank", *_S, "--mode", "interaction", "--k", "1", *_INTERACTIONS],
    "oracle": ["oracle", *_S, "--k", "4"],
    # 24 documents over the graph schema's 8 label tuples: most subsets tie
    "oracle_tie_pool": [
        "oracle", "--schema", "{fx}/example_schema_graph.json",
        "--corpus", "{golden}/tie_pool_corpus.jsonl", "--k", "6",
    ],
    # explain of saved results
    "explain_list": ["explain", "--result", "{golden}/rerank_list.out"],
    "explain_sequence": ["explain", "--result", "{golden}/rerank_sequence.out"],
    "explain_interaction": ["explain", "--result", "{golden}/rerank_interaction.out"],
    # graph-derived frame distances
    "graph_score": ["score", *_G],
    "graph_rerank_list": ["rerank", *_G, "--mode", "list", "--k", "4"],
    "graph_rerank_list_lambda": ["rerank", *_G, "--mode", "list", "--k", "4", "--lambda", "0.5"],
    "graph_rerank_sequence": [
        "rerank", *_G, "--mode", "sequence", "--k", "1", *_HISTORY, "--window", "last:4",
    ],
    "graph_rerank_summary": ["rerank", *_G, "--mode", "summary", "--k", "4"],
    "graph_rerank_interaction": [
        "rerank", *_G, "--mode", "interaction", "--k", "1", *_INTERACTIONS,
    ],
    "graph_rerank_ancestor_rules": [
        "rerank", *_G, "--mode", "list", "--k", "4", "--lambda", "0.5",
        "--rules", "{golden}/ancestor_rules.jsonl", "--context", "election",
    ],
    "explain_graph_ancestor_rules": [
        "explain", "--result", "{golden}/graph_rerank_ancestor_rules.out",
    ],
    # the in and any operators, and boosts that clamp at 1.0
    "graph_rerank_operator_rules": [
        "rerank", *_G, "--mode", "list", "--k", "4", "--lambda", "0.5",
        "--rules", "{golden}/operator_rules.jsonl", "--context", "election",
    ],
    "explain_graph_operator_rules": [
        "explain", "--result", "{golden}/graph_rerank_operator_rules.out",
    ],
    # demo scripts
    "script_run_example_corpus": ("script", "run_example_corpus.py"),
    "script_sweep_tradeoff": ("script", "sweep_tradeoff.py"),
}


def _script_main(name: str):
    spec = importlib.util.spec_from_file_location(
        f"golden_{pathlib.Path(name).stem}", ROOT / "scripts" / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def run_case(name: str) -> tuple[bytes, int]:
    """Run one case in-process; return (stdout bytes, exit code)."""
    from newsdiv import cli

    case = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if isinstance(case, tuple):
            code = _script_main(case[1])([])
        else:
            argv = [a.format(fx=FIXTURES, golden=GOLDEN) for a in case]
            code = cli.main(argv)
    return out.getvalue().encode("utf-8"), code


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name):
    stdout, code = run_case(name)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()


def regenerate() -> None:
    codes = {}
    for name in CASES:
        stdout, codes[name] = run_case(name)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()

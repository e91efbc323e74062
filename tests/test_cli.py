"""End-to-end command-line checks (real files; subprocess unless noted)."""

import contextlib
import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_explain_result
from newsdiv import cli
from newsdiv.rules import explain_result

PKG = [sys.executable, "-m", "newsdiv"]


def run(*args, expect=0):
    proc = subprocess.run(
        PKG + list(args), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def run_json(*args):
    return json.loads(run(*args).stdout)


@pytest.fixture(scope="module")
def paths(fixtures_dir):
    return {
        "schema": str(fixtures_dir / "example_schema.json"),
        "graph_schema": str(fixtures_dir / "example_schema_graph.json"),
        "corpus": str(fixtures_dir / "example_corpus.jsonl"),
        "rules": str(fixtures_dir / "rules.jsonl"),
        "history": str(fixtures_dir / "history.jsonl"),
        "interactions": str(fixtures_dir / "interactions.jsonl"),
    }


# --- score ---


def test_score_full_corpus(paths):
    data = run_json("score", "--schema", paths["schema"], "--corpus", paths["corpus"])
    assert data == {
        "overall": 0.642857142857,
        "pair_count": 28,
        "per_aspect": {"frame": 0.714285714286, "topic": 0.571428571429},
    }


def test_score_id_subset(paths):
    data = run_json(
        "score", "--schema", paths["schema"], "--corpus", paths["corpus"],
        "--ids", "a1,a2,a7,a8",
    )
    assert data["overall"] == 0.75
    assert data["pair_count"] == 6


def test_score_single_doc_is_zero(paths):
    data = run_json(
        "score", "--schema", paths["schema"], "--corpus", paths["corpus"], "--ids", "a1"
    )
    assert data["overall"] == 0.0


def test_graph_derived_schema_scores_identically(paths):
    explicit = run_json("score", "--schema", paths["schema"], "--corpus", paths["corpus"])
    derived = run_json("score", "--schema", paths["graph_schema"], "--corpus", paths["corpus"])
    assert derived == explicit


def test_score_unknown_id_exits_2(paths):
    proc = run(
        "score", "--schema", paths["schema"], "--corpus", paths["corpus"],
        "--ids", "zz", expect=2,
    )
    assert "zz" in proc.stderr


def test_missing_file_exits_1(paths):
    run("score", "--schema", paths["schema"], "--corpus", "/no/such/file.jsonl", expect=1)


def test_score_rejects_repeated_ids(paths, capsys):
    argv = ["score", "--schema", paths["schema"], "--corpus", paths["corpus"], "--ids", "a1,a1,a7"]
    assert cli.main(argv) == 2
    assert "duplicate document ids: ['a1']" in capsys.readouterr().err


@pytest.mark.parametrize("ids", ["", ",", " "])
def test_score_ids_naming_no_document_exits_2(paths, capsys, ids):
    argv = ["score", "--schema", paths["schema"], "--corpus", paths["corpus"], "--ids", ids]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --ids names no document (got {ids!r})\n"


def test_defaulted_distance_pairs_are_warned_on_stderr(tmp_path, capsys):
    schema = {
        "aspects": [
            {"name": "topic", "labels": ["a", "b", "c"], "distances": [["a", "b", 0.3]]},
            {"name": "frame", "labels": ["x", "y"]},
        ],
        "weights": {"topic": 0.5, "frame": 0.5},
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "corpus.jsonl").write_text(
        '{"id": "d1", "labels": {"topic": "a", "frame": "x"}}\n'
        '{"id": "d2", "labels": {"topic": "c", "frame": "y"}}\n'
    )
    argv = ["score", "--schema", str(tmp_path / "schema.json"), "--corpus", str(tmp_path / "corpus.jsonl")]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["overall"] == 1.0
    assert captured.err == (
        "aspect 'topic': no distance given for pairs [('a', 'c'), ('b', 'c')]; defaulting to 1.0\n"
        "aspect 'frame': no distance given for pairs [('x', 'y')]; defaulting to 1.0\n"
    )


# --- JSON values of the wrong type exit 2 (in-process) ---

A1 = {"id": "a1", "labels": {"topic": "Climate", "frame": "Health"}}


def rule(predicate, **extra):
    return {"id": "r", "scope": "global", "predicate": predicate, "action": {"exclude": True}, **extra}


@pytest.mark.parametrize(
    "schema_key, corpus_line, rule_line",
    [
        ("schema", {**A1, "labels": {"topic": ["Climate"], "frame": "Health"}}, None),
        ("schema", {**A1, "keywords": [{"term": "t", "labels": {"topic": {"a": 1}, "frame": "Health"}}]}, None),
        ("schema", A1, rule({"aspect": "topic", "op": "in", "value": [["Climate"]]})),
        ("graph_schema", A1, rule({"ancestor": {"aspect": "frame", "node": ["Health"]}})),
        ("schema", A1, rule({"aspect": "topic", "value": "Climate"}, scope="context", context=["a"])),
    ],
    ids=["corpus-label-list", "keyword-label-dict", "in-value-list", "ancestor-node-list", "context-tag-list"],
)
def test_non_string_json_values_exit_2(paths, tmp_path, capsys, schema_key, corpus_line, rule_line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(corpus_line) + "\n")
    argv = ["--schema", paths[schema_key], "--corpus", str(corpus)]
    if rule_line is None:
        argv = ["score", *argv]
    else:
        rules = tmp_path / "rules.jsonl"
        rules.write_text(json.dumps(rule_line) + "\n")
        argv = ["rerank", *argv, "--mode", "list", "--k", "1", "--rules", str(rules)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# --- deeply nested input exits 2 (in-process) ---

DEEP = "[" * 100_000 + "]" * 100_000
S = ["--schema", "{schema}", "--corpus", "{corpus}"]
# An `all` predicate 470 levels deep: JSON decodes it, but interpreting it
# recursively overflows the stack.
DEEP_RULE = (
    '{"id": "deep", "scope": "global", "action": {"exclude": true}, "predicate": '
    + '{"all": [' * 470 + '{"aspect": "topic", "value": "Climate"}' + "]}" * 470 + "}"
)


@pytest.mark.parametrize(
    "text, argv",
    [
        (DEEP, ["score", "--schema", "{deep}", "--corpus", "{corpus}"]),
        (DEEP, ["score", "--schema", "{schema}", "--corpus", "{deep}"]),
        (DEEP, ["rerank", *S, "--mode", "list", "--k", "1", "--rules", "{deep}"]),
        (DEEP_RULE, ["rerank", *S, "--mode", "list", "--k", "1", "--rules", "{deep}"]),
        ('{"selected": [], "trace": [' + DEEP + "]}", ["explain", "--result", "{deep}"]),
        ("", ["rerank", *S, "--mode", "interaction", "--k", "1",
              "--interactions", "{interactions}", "--type-weights", DEEP]),
    ],
    ids=["schema", "corpus-line", "rules-line", "predicate-470-deep", "explain-trace", "type-weights"],
)
def test_deeply_nested_input_exits_2(paths, tmp_path, capsys, text, argv):
    deep = tmp_path / "deep.json"
    deep.write_text(text + "\n")
    assert cli.main([a.format(deep=deep, **paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "nests" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--schema", "{bad}", "--corpus", "{corpus}"],
        ["score", "--schema", "{schema}", "--corpus", "{bad}"],
        ["rerank", *S, "--mode", "list", "--k", "1", "--rules", "{bad}"],
        ["rerank", *S, "--mode", "sequence", "--k", "1", "--history", "{bad}"],
        ["rerank", *S, "--mode", "interaction", "--k", "1", "--interactions", "{bad}"],
        ["explain", "--result", "{bad}"],
    ],
    ids=["schema", "corpus", "rules", "history", "interactions", "explain-result"],
)
def test_files_that_are_not_utf8_exit_2(paths, tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"id": "a1"}\n\xff\n')
    assert cli.main([a.format(bad=bad, **paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad} is not UTF-8 text: invalid start byte at byte 13\n"
    assert captured.out == ""


BIG = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize(
    "key, old, new, argv, field",
    [
        ("schema", '"Immigration", 1.0]', f'"Immigration", {BIG}]', ["score", *S],
         "aspect 'topic': distance Climate/Immigration"),
        ("schema", '{"topic": 0.5,', f'{{"topic": {BIG},', ["score", *S], "blend weight for 'topic'"),
        (None, "--type-weights", f'{{"like": {BIG}, "share": 0}}',
         ["rerank", *S, "--mode", "interaction", "--k", "1", "--interactions", "{interactions}"],
         "interaction type weight for 'like'"),
        ("list_result", '"objective": 0.75,', f'"objective": {BIG},', ["explain", "--result", "{list_result}"],
         "result objective"),
        ("list_result", '"overall": 0.75,', f'"overall": {BIG},', ["explain", "--result", "{list_result}"],
         "result overall diversity"),
    ],
    ids=["schema-distance", "schema-weight", "type-weights", "explain-objective", "explain-overall"],
)
def test_integers_too_large_for_a_float_exit_2(paths, fixtures_dir, tmp_path, capsys, key, old, new, argv, field):
    files = dict(paths, list_result=str(fixtures_dir / "golden" / "rerank_list.out"))
    if key is not None:
        text = pathlib.Path(files[key]).read_text()
        assert old in text
        files[key] = str(tmp_path / pathlib.Path(files[key]).name)
        pathlib.Path(files[key]).write_text(text.replace(old, new, 1))
    argv = [a.format(**files) for a in argv]
    if key is None:
        argv += [old, new]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {field} is too large for a float\n"
    assert captured.out == ""


def test_explain_prints_counts_too_large_for_a_float(fixtures_dir, tmp_path, capsys):
    """Counts such as a violation's "needed" are printed as they are, so no
    float needs to hold them."""
    text = (fixtures_dir / "golden" / "graph_rerank_ancestor_rules.out").read_text()
    assert '"needed": 2,' in text
    saved = tmp_path / "result.json"
    saved.write_text(text.replace('"needed": 2,', f'"needed": {BIG},', 1))
    assert cli.main(["explain", "--result", str(saved)]) == 0
    assert f"needs {BIG} matching" in capsys.readouterr().out


# --- every JSON decode failure exits 2 (in-process) ---

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGIT_LIMIT + 1)  # json.dumps cannot write it, so the tests write the text


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="integer string conversion is unlimited")
@pytest.mark.parametrize(
    "key, old, new, argv, what",
    [
        ("schema", '{"topic": 0.5,', '{"topic": N,', ["score", *S], "schema"),
        ("corpus", '"timestamp": 1700000100', '"timestamp": N', ["score", *S], "corpus line 1"),
        ("rules", '"boost": 0.2', '"boost": N',
         ["rerank", *S, "--mode", "list", "--k", "1", "--rules", "{rules}", "--context", "election"],
         "rules line 2"),
        ("history", '"ts": 1700001000', '"ts": N',
         ["rerank", *S, "--mode", "sequence", "--k", "1", "--history", "{history}"], "history line 1"),
        ("interactions", '"ts": 1700000150', '"ts": N',
         ["rerank", *S, "--mode", "interaction", "--k", "1", "--interactions", "{interactions}"],
         "interactions line 1"),
        (None, "--type-weights", '{"like": N}',
         ["rerank", *S, "--mode", "interaction", "--k", "1", "--interactions", "{interactions}"], "--type-weights"),
        ("list_result", '"objective": 0.75,', '"objective": N,', ["explain", "--result", "{list_result}"],
         "result file"),
    ],
    ids=["schema-weight", "corpus-timestamp", "rule-boost", "history-ts", "interaction-ts",
         "type-weights", "explain-objective"],
)
def test_integers_past_the_digit_limit_exit_2(paths, fixtures_dir, tmp_path, capsys, key, old, new, argv, what):
    files = dict(paths, list_result=str(fixtures_dir / "golden" / "rerank_list.out"))
    new = new.replace("N", LONG)
    if key is not None:
        text = pathlib.Path(files[key]).read_text()
        assert old in text
        files[key] = str(tmp_path / pathlib.Path(files[key]).name)
        pathlib.Path(files[key]).write_text(text.replace(old, new, 1))
    argv = [a.format(**files) for a in argv]
    if key is None:
        argv += [old, new]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {what} holds an integer of more than {DIGIT_LIMIT} digits\n"
    assert captured.out == ""


def test_malformed_type_weights_name_the_flag(paths, capsys):
    argv = ["rerank", "--schema", paths["schema"], "--corpus", paths["corpus"], "--mode", "interaction",
            "--k", "1", "--interactions", paths["interactions"], "--type-weights", '{"like": 0.5,']
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --type-weights is not valid JSON: line 1 column 14: ")
    assert captured.out == ""


def test_jsonl_errors_name_their_input(paths, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{oops\n")
    errors = {}
    for key in ("corpus", "history"):
        files = dict(paths, **{key: str(bad)})
        argv = ["rerank", *S, "--mode", "sequence", "--k", "1", "--history", "{history}"]
        assert cli.main([a.format(**files) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors[key] = captured.err
    assert errors["corpus"].startswith("error: corpus line 1 is not valid JSON: ")
    assert errors["history"].startswith("error: history line 1 is not valid JSON: ")


# --- output the stream cannot encode (subprocess: only a real stream encodes) ---

LONE_SURROGATE = r'"\ud800"'  # a JSON escape that decodes to a str no UTF-8 stream can write


def run_utf8(*args):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    return subprocess.run(PKG + list(args), capture_output=True, text=True, timeout=60, env=env)


def test_explain_output_the_stream_cannot_encode_exits_2(tmp_path):
    result = tmp_path / "result.json"
    result.write_text('{"selected": [' + LONE_SURROGATE + '], "trace": []}')
    proc = run_utf8("explain", "--result", str(result))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: output is not utf-8 text: surrogates not allowed at character 10\n"
    assert proc.stdout == ""


def test_json_output_escapes_a_lone_surrogate(paths, tmp_path):
    text = pathlib.Path(paths["corpus"]).read_text()
    assert '"id": "a1"' in text
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(text.replace('"id": "a1"', '"id": ' + LONE_SURROGATE, 1))
    proc = run_utf8("rerank", "--schema", paths["schema"], "--corpus", str(corpus), "--mode", "summary", "--k", "8")
    assert proc.returncode == 0, proc.stderr
    assert "\ud800" in json.loads(proc.stdout)["selected"]


# --- rerank modes ---


def rerank(paths, *extra):
    return run_json(
        "rerank", "--schema", paths["schema"], "--corpus", paths["corpus"], *extra
    )


def test_rerank_list_swaps_to_the_ceiling(paths):
    data = rerank(paths, "--mode", "list", "--k", "4")
    assert data["diversity"]["overall"] == 0.75
    assert sorted(data["selected"]) == ["a3", "a4", "a5", "a6"]
    swaps = [t for t in data["trace"] if t["kind"] == "swap"]
    assert len(swaps) == 2
    assert all(t["after"] > t["before"] for t in swaps)


def test_rerank_list_with_lambda(paths):
    data = rerank(paths, "--mode", "list", "--k", "4", "--lambda", "0.5")
    assert data["selected"] == ["a1", "a7", "a5", "a2"]
    assert data["objective"] == 0.702083333333


def test_rerank_sequence_consumes_history(paths):
    data = rerank(
        paths, "--mode", "sequence", "--k", "1",
        "--history", paths["history"], "--window", "last:4",
    )
    assert data["selected"] == ["a4"]
    assert data["objective"] == 0.675
    assert data["trace"][-1]["kind"] == "next"


def test_rerank_sequence_requires_history(paths):
    proc = run("rerank", "--schema", paths["schema"], "--corpus", paths["corpus"],
               "--mode", "sequence", "--k", "1", expect=2)
    assert "history" in proc.stderr


def test_rerank_summary_reports_keyword_diversity(paths):
    data = rerank(paths, "--mode", "summary", "--k", "4")
    assert data["selected"] == ["a1", "a7", "a2", "a8"]
    assert data["keyword_diversity"] == 0.75


def test_rerank_interaction_suggests_a_share(paths):
    data = rerank(
        paths, "--mode", "interaction", "--k", "1",
        "--interactions", paths["interactions"],
    )
    assert data["selected"] == ["a7"]
    assert data["objective"] == 1.0
    suggest = data["trace"][-1]
    assert (suggest["kind"], suggest["type"]) == ("suggest", "share")


def test_rerank_interaction_requires_a_log(paths):
    run("rerank", "--schema", paths["schema"], "--corpus", paths["corpus"],
        "--mode", "interaction", "--k", "1", expect=2)


@pytest.mark.parametrize("weights", ["[1]", '{"like": "heavy"}', '{"like": NaN, "share": 1}'])
def test_rerank_interaction_rejects_bad_type_weights(paths, weights):
    proc = run("rerank", "--schema", paths["schema"], "--corpus", paths["corpus"],
               "--mode", "interaction", "--k", "1",
               "--interactions", paths["interactions"], "--type-weights", weights,
               expect=2)
    assert "type weight" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_type_weight_that_is_not_a_number_is_named(paths, capsys):
    argv = ["rerank", "--schema", paths["schema"], "--corpus", paths["corpus"], "--mode", "interaction",
            "--k", "1", "--interactions", paths["interactions"], "--type-weights", '{"like": "heavy"}']
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: interaction type weight for 'like' must be a number (got 'heavy')\n"
    assert captured.out == ""


NO_FILE = "[Errno 2] No such file or directory: ''"


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--mode", "interaction", "--interactions", "{interactions}", "--type-weights="], 2,
         "--type-weights is not valid JSON: line 1 column 1: Expecting value"),
        (["--mode", "sequence", "--history", "{history}", "--window="], 2,
         "window value in '' is not an integer"),
        (["--mode", "list", "--rules="], 1, NO_FILE),
        (["--mode", "list", "--history="], 1, NO_FILE),
        (["--mode", "sequence", "--history="], 1, NO_FILE),
        (["--mode", "interaction", "--interactions="], 1, NO_FILE),
    ],
    ids=["type-weights", "window", "rules", "list-history", "sequence-history", "interactions"],
)
def test_an_empty_flag_value_is_not_an_absent_flag(paths, capsys, flags, code, message):
    argv = ["rerank", *S, "--k", "1", *flags]
    assert cli.main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mode", "list", "--window="], "--window is read only in sequence mode (got --mode list)"),
        (["--mode", "list", "--type-weights="], "--type-weights is read only in interaction mode (got --mode list)"),
        (["--mode", "list", "--interactions", "/no/such"],
         "--interactions is read only in interaction mode (got --mode list)"),
        (["--mode", "list", "--gamma", "nan"], "--gamma is read only in sequence mode (got --mode list)"),
        (["--mode", "list", "--context", "x"], "--context is read only with --rules (got --mode list without --rules)"),
        (["--mode", "summary", "--lambda", "0.5"], "--lambda is read only in list mode (got --mode summary)"),
        (["--mode", "interaction", "--interactions", "{interactions}", "--history", "{history}", "--window", "last:2"],
         "--window is read only in sequence mode (got --mode interaction)"),
        (["--mode", "sequence", "--history", "{history}", "--lambda", "0.5"],
         "--lambda is read only in list mode (got --mode sequence)"),
        (["--mode", "sequence", "--history", "{history}", "--k", "7"],
         "sequence mode selects one document, so --k must be 1 (got --k 7)"),
        (["--mode", "interaction", "--interactions", "{interactions}", "--k", "7"],
         "interaction mode selects one document, so --k must be 1 (got --k 7)"),
    ],
    ids=["window", "type-weights", "interactions", "gamma", "context", "lambda-summary", "window-interaction",
         "lambda-sequence", "k-sequence", "k-interaction"],
)
def test_a_flag_the_mode_ignores_exits_2(paths, capsys, flags, message):
    argv = ["rerank", *S, "--k", "2", *flags]
    assert cli.main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_sequence_mode_reads_gamma_and_defaults_it(paths, capsys):
    argv = ["rerank", *S, "--mode", "sequence", "--k", "1", "--history", "{history}"]
    argv = [a.format(**paths) for a in argv]
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    assert cli.main(argv + ["--gamma", "0.5"]) == 0
    assert capsys.readouterr().out == default
    assert cli.main(argv + ["--gamma", "0"]) == 2
    assert capsys.readouterr().err == "error: gamma must lie in (0, 1] (got 0.0)\n"


def test_rerank_history_excludes_consumed_docs(paths):
    data = rerank(
        paths, "--mode", "list", "--k", "2", "--history", paths["history"]
    )
    consumed = {"a5", "a3", "a1", "a2", "a7", "a8"}
    assert not consumed & set(data["selected"])
    assert sorted(data["selected"]) == ["a4", "a6"]


def test_rerank_rules_pipeline(paths):
    data = rerank(
        paths, "--mode", "list", "--k", "4", "--lambda", "0.5",
        "--rules", paths["rules"], "--context", "election",
    )
    assert data["selected"] == ["a5", "a4", "a1", "a6"]
    kinds = [t["kind"] for t in data["trace"]]
    assert kinds.count("exclude") == 2
    # the boost rule matched a5, a6 and a8 (a7 was excluded first); only the
    # selected ones get a per-document boost record
    (summary,) = [t for t in data["trace"] if t["kind"] == "boost_rule"]
    assert (summary["matched"], summary["clamped"]) == (3, 1)
    assert [t["doc"] for t in data["trace"] if t["kind"] == "boost"] == ["a5", "a6"]
    assert "violation" not in kinds  # a5/a6 satisfy the immigration floor
    excluded = {t["doc"] for t in data["trace"] if t["kind"] == "exclude"}
    assert excluded == {"a3", "a7"}
    assert not excluded & set(data["selected"])


def test_rerank_records_requirement_violations(paths, tmp_path):
    strict = tmp_path / "strict.jsonl"
    strict.write_text(
        json.dumps(
            {
                "id": "floor",
                "scope": "request",
                "predicate": {"aspect": "topic", "value": "Immigration"},
                "action": {"require_at_least": 3},
            }
        )
        + "\n"
    )
    data = rerank(paths, "--mode", "list", "--k", "2", "--rules", str(strict))
    violations = [t for t in data["trace"] if t["kind"] == "violation"]
    assert len(violations) == 1
    assert violations[0]["needed"] == 3


# --- oracle ---


def test_oracle_k4(paths):
    data = run_json(
        "oracle", "--schema", paths["schema"], "--corpus", paths["corpus"], "--k", "4"
    )
    assert data == {
        "best_subset": ["a1", "a2", "a7", "a8"],
        "best_value": 0.75,
        "evaluated": 70,
    }


def test_oracle_guard_exits_3(paths, tmp_path):
    big = tmp_path / "big.jsonl"
    lines = [
        json.dumps({"id": f"g{i:02d}", "labels": {"topic": "Climate", "frame": "Health"}})
        for i in range(30)
    ]
    big.write_text("\n".join(lines) + "\n")
    proc = run(
        "oracle", "--schema", paths["schema"], "--corpus", str(big), "--k", "15",
        expect=3,
    )
    assert "greedy_select" in proc.stderr


def test_oracle_k_out_of_range_exits_2(paths):
    run("oracle", "--schema", paths["schema"], "--corpus", paths["corpus"], "--k", "9",
        expect=2)


# --- explain ---


def test_explain_narrates_a_saved_result(paths, tmp_path):
    result = tmp_path / "result.json"
    proc = run("rerank", "--schema", paths["schema"], "--corpus", paths["corpus"],
               "--mode", "list", "--k", "4")
    result.write_text(proc.stdout)
    text = run("explain", "--result", str(result)).stdout
    assert "selected: a5, a6, a3, a4" in text
    assert "overall diversity: 0.75" in text
    assert "swapped" in text or "swap" in text


def test_explain_rejects_non_results(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    run("explain", "--result", str(bad), expect=2)
    notresult = tmp_path / "notresult.json"
    notresult.write_text('{"foo": 1}')
    proc = run("explain", "--result", str(notresult), expect=2)
    assert "does not look like" in proc.stderr


SWAP = {"kind": "swap", "in": "a5", "before": 0.4, "after": 0.6, "detail": "swap"}
BOOST_RULE = {"kind": "boost_rule", "rule": "r", "delta": 0.2, "matched": 3, "clamped": 1, "detail": "boost"}


@pytest.mark.parametrize(
    "result",
    [
        {"selected": [1]},
        {"selected": ["a5"], "trace": [SWAP]},
        {"selected": ["a5"], "diversity": {"overall": "x"}},
        {"selected": ["a5"], "trace": [5]},
        {"selected": "a1"},
        {"selected": ["a5"], "trace": [{**BOOST_RULE, "matched": "3"}]},
        {"selected": ["a5"], "trace": [{k: v for k, v in BOOST_RULE.items() if k != "clamped"}]},
    ],
    ids=[
        "selected-number", "swap-without-out", "overall-string", "trace-number", "selected-string",
        "boost-rule-matched-string", "boost-rule-without-clamped",
    ],
)
def test_explain_rejects_malformed_results(tmp_path, capsys, result):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(result))
    assert cli.main(["explain", "--result", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "record, kind",
    [({"kind": "mystery", "detail": "?"}, "'mystery'"), ({"detail": "?"}, "None")],
    ids=["mystery", "missing"],
)
def test_explain_exits_2_on_an_undeclared_trace_kind(tmp_path, capsys, record, kind):
    path = tmp_path / "result.json"
    path.write_text(json.dumps({"selected": ["a5"], "trace": [SWAP | {"out": "a1"}, record]}))
    assert cli.main(["explain", "--result", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: result trace record 1 has an undeclared kind {kind}\n"


# --- JSON booleans are not numbers ---

LIST = ["--mode", "list", "--k", "3", "--rules", "{rules}", "--context", "election"]
SEQUENCE = ["--mode", "sequence", "--k", "1", "--history", "{history}"]
INTERACTION = ["--mode", "interaction", "--k", "1", "--interactions", "{interactions}"]


@pytest.mark.parametrize(
    "key, old, new, mode",
    [
        ("corpus", '"relevance": 0.95', '"relevance": true', LIST),
        ("corpus", '"timestamp": 1700000100', '"timestamp": true', LIST),
        ("rules", '"require_at_least": 1', '"require_at_least": true', LIST),
        ("rules", '"boost": 0.2', '"boost": true', LIST),
        ("schema", '{"topic": 0.5, "frame": 0.5}', '{"topic": true, "frame": 0}', LIST),
        ("schema", '"Immigration", 1.0]', '"Immigration", true]', LIST),
        ("history", '"ts": 1700001000', '"ts": true', SEQUENCE),
        ("interactions", '"ts": 1700000150', '"ts": true', INTERACTION),
        (None, "--type-weights", '{"like": true, "share": 0}', INTERACTION),
    ],
    ids=[
        "relevance", "timestamp", "require_at_least", "boost", "schema-weight",
        "schema-distance", "history-ts", "interaction-ts", "type-weights",
    ],
)
def test_json_booleans_are_not_numbers(paths, tmp_path, capsys, key, old, new, mode):
    files = dict(paths)
    if key is not None:
        text = pathlib.Path(paths[key]).read_text()
        assert old in text
        files[key] = str(tmp_path / pathlib.Path(paths[key]).name)
        pathlib.Path(files[key]).write_text(text.replace(old, new, 1))
    argv = ["rerank", "--schema", files["schema"], "--corpus", files["corpus"]]
    argv += [arg.format(**files) for arg in mode]
    if key is None:
        argv += [old, new]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# --- determinism ---


def test_repeat_invocations_are_byte_identical(paths):
    args = ["score", "--schema", paths["schema"], "--corpus", paths["corpus"]]
    first = run(*args).stdout
    second = run(*args).stdout
    assert first == second


def test_in_process_calls_share_the_parser_but_not_flags(paths, capsys):
    """cli.main builds its parser once per process; the --context and
    --lambda of one call do not carry over to the next."""
    args = ["rerank", "--schema", paths["schema"], "--corpus", paths["corpus"],
            "--mode", "list", "--k", "4", "--rules", paths["rules"]]
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(args + ["--context", "election", "--lambda", "0.3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == run(*args, "--context", "election", "--lambda", "0.3").stdout
    assert second == run(*args).stdout
    assert first != second


# --- fuzzing (in-process) ---
#
# One JSON value somewhere in one fixture file is swapped for a list, an
# object, null, NaN, a huge float, an integer too large for a float, an
# empty string or a lone surrogate, or its key is dropped.
# Every subcommand and rerank mode then runs on the mutated inputs: each must
# return an exit code of the CLI (0, 1, 2 or 3) without raising.

FILES = {
    "schema": "example_schema.json",
    "graph_schema": "example_schema_graph.json",
    "corpus": "example_corpus.jsonl",
    "rules": "rules.jsonl",
    "ancestor_rules": "golden/ancestor_rules.jsonl",
    "history": "history.jsonl",
    "interactions": "interactions.jsonl",
    # saved results: every trace kind that explain formats from its fields
    "rules_result": "golden/graph_rerank_ancestor_rules.out",
    "list_result": "golden/rerank_list.out",
    "summary_result": "golden/rerank_summary.out",
}

DROP = object()
MUTATIONS = [[], {}, None, float("nan"), 1e308, 10**400, "", "\ud800", DROP]


def load(name, text):
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return json.loads(text)


def dump(name, obj):
    if name.endswith(".jsonl"):
        return "".join(json.dumps(line) + "\n" for line in obj)
    return json.dumps(obj)


def value_paths(node, path=()):
    """Paths to every value below the root, as tuples of keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


def mutate(obj, path, mutation):
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    return obj


def commands(p):
    s = ["--schema", p["schema"], "--corpus", p["corpus"]]
    g = ["--schema", p["graph_schema"], "--corpus", p["corpus"]]
    return [
        ["score", *s],
        ["score", *g, "--ids", "a1,a7"],
        ["oracle", *s, "--k", "2"],
        ["rerank", *s, "--mode", "list", "--k", "3", "--rules", p["rules"], "--context", "election"],
        ["rerank", *g, "--mode", "list", "--k", "3", "--lambda", "0.5"],
        ["rerank", *g, "--mode", "list", "--k", "3", "--rules", p["ancestor_rules"], "--context", "election"],
        ["rerank", *s, "--mode", "summary", "--k", "3"],
        ["rerank", *g, "--mode", "sequence", "--k", "1", "--history", p["history"], "--window", "last:3"],
        ["rerank", *s, "--mode", "interaction", "--k", "1", "--interactions", p["interactions"]],
        *[["explain", "--result", p[key]] for key in ("rules_result", "list_result", "summary_result")],
    ]


@pytest.fixture(scope="module")
def originals(fixtures_dir):
    return {key: load(name, (fixtures_dir / name).read_text()) for key, name in FILES.items()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "golden").mkdir()
    return workdir


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_inputs_end_in_an_exit_code(originals, workdir, data):
    key = data.draw(st.sampled_from(sorted(FILES)), label="file")
    path = data.draw(st.sampled_from(list(value_paths(originals[key]))), label="path")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    paths = {}
    for k, name in FILES.items():
        obj = mutate(originals[k], path, mutation) if k == key else originals[k]
        paths[k] = str(workdir / name)
        (workdir / name).write_text(dump(name, obj))
    for argv in commands(paths):
        # A StringIO never encodes, so it would hide output a real stdout cannot write.
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1, 2, 3), argv


# --- explain against its reference ---
#
# One to three values of a saved result are swapped for a list, an object,
# null, NaN, a huge float, an integer too large for a float, a string, a
# number, true or a stray boost record, or dropped; some give a trace record
# a list or an object as its "kind", which cannot be a key. explain_result
# must then give the text, or raise the exception type and message, of the
# explain that read three field tables and listed each kind by hand.

EXPLAIN_RESULTS = [
    "graph_rerank_ancestor_rules.out", "graph_rerank_operator_rules.out", "rerank_list_rules.out",
    "rerank_list.out", "rerank_list_lambda.out", "rerank_summary.out", "rerank_sequence.out",
    "rerank_interaction.out",
]
EXPLAIN_MUTATIONS = [[], {}, None, float("nan"), 1e308, 10**400, "x", 7, True, {"kind": "boost"}, DROP]


def outcome(explain, data):
    try:
        return explain(copy.deepcopy(data))
    except Exception as exc:
        return type(exc), str(exc)


def test_explain_matches_its_reference_on_mutated_results(fixtures_dir):
    rng = random.Random(14)
    originals = [json.loads((fixtures_dir / "golden" / name).read_text()) for name in EXPLAIN_RESULTS]
    same_text = odd_kinds = 0
    for _ in range(4000):
        data = rng.choice(originals)
        for _ in range(rng.randint(1, 3)):
            # pick a key, then one of its values, so rare fields get hit too
            by_key = {}
            for path in value_paths(data):
                by_key.setdefault(path[-1] if isinstance(path[-1], str) else 0, []).append(path)
            path = rng.choice(by_key[rng.choice(sorted(by_key, key=str))])
            data = mutate(data, path, rng.choice(EXPLAIN_MUTATIONS))
        trace = data.get("trace")
        odd_kinds += isinstance(trace, list) and any(
            isinstance(t, dict) and isinstance(t.get("kind"), (list, dict)) for t in trace
        )
        text = outcome(explain_result, data)
        assert text == outcome(reference_explain_result, data), data
        same_text += isinstance(text, str)
    # both outcomes are exercised, and so are kinds that cannot be a key
    assert 500 < same_text < 3500 and odd_kinds > 50, (same_text, odd_kinds)

"""The package runs on the standard library alone, decodes JSON in one
mapping, scans JSONL lines in one place, writes its output in one place,
reads distances in two kernels, checks a selection size in one place,
range-checks every numeric parameter in one helper, reads and stores
checked label rows in one method, declares every trace record kind it
emits, builds every trace record in one constructor, whose calls pass
each field the kind's detail template names, checks documents in one gate
and orders every mode's pool by id in one helper, sorts by id nowhere else, builds the
pair kernel's tables at most once per function and never in a loop, and
steps greedy selections in one loop. No code makes an instance without
its class's __init__, and the loader imports no mode. A rule's fields, a
document's, a keyword's and an interaction record's fields, an
interaction log's records and type weights, and a label graph's, an
aspect's and a schema's fields are checked in the class that holds them;
the schema loader checks only what exists in JSON alone, and a rule
application keeps one private field."""

import ast
import os
import pathlib
import string
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


@pytest.mark.parametrize("module", ["newsdiv", "newsdiv.cli"])
def test_import_does_not_load_unused_modules(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = f"import sys, {module}; print(sorted({{'networkx', 'logging', 'csv'}} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PUBLIC_API = [
    "Aspect", "AspectSchema", "ContractError", "Corpus", "DerivationError",
    "DiversityReport", "DocumentProfile", "GuardExceededError",
    "InteractionLog", "InteractionRecord", "Keyword", "LabelGraph",
    "NewsdivError", "OracleResult", "ParseError", "RerankResult", "Rule",
    "RuleSet", "UnknownEntityError", "ValidationError", "Window",
    "apply_rules", "collection_diversity", "exclude_history",
    "explain_result", "greedy_select", "interaction_diversity",
    "keyword_diversity", "load_corpus", "load_history", "load_interactions",
    "load_rules", "load_schema", "max_diversity_oracle", "next_in_sequence",
    "rerank_combined", "select_summary_sources", "suggest_interaction",
    "swap_diversify", "write_report",
]


def test_public_api_is_pinned():
    import newsdiv

    assert len(PUBLIC_API) == 40
    assert sorted(newsdiv.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(newsdiv, name) is not None, name


def test_rule_application_has_three_public_fields():
    from dataclasses import fields

    from newsdiv.rules import RuleApplication

    public = [f.name for f in fields(RuleApplication) if not f.name.startswith("_")]
    assert public == ["candidates", "adjusted_relevance", "adjustments"]


def test_rule_application_keeps_one_private_field():
    from dataclasses import fields

    from newsdiv.rules import RuleApplication

    private = [f.name for f in fields(RuleApplication) if f.name.startswith("_")]
    assert private == ["_boosted"]


def _nodes(kind):
    """(module.function, node) for every node of this ast type in src/newsdiv;
    a node is in its innermost function (a method or nested one too), and
    nodes outside any function are in "module.<module>"."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, kind):
                yield where, child
            yield from visit(child, where)

    for path in sorted((ROOT / "src" / "newsdiv").glob("*.py")):
        yield from visit(ast.parse(path.read_text()), f"{path.stem}.<module>")


def _calls(dotted: str):
    """(module.function, call) for every call of `dotted` (such as "json.loads")."""
    return ((where, call) for where, call in _nodes(ast.Call) if ast.unparse(call.func) == dotted)


def test_json_is_decoded_in_one_mapping_and_output_written_in_one_place():
    assert {where for where, _ in _calls("json.loads")} == {"errors.load_json", "corpus_io._iter_jsonl"}
    assert {where for where, _ in _calls("sys.stdout.write")} == {"cli.main"}
    # print writes to stdout unless it is given a file
    assert all(any(k.arg == "file" for k in call.keywords) for _, call in _calls("print"))


def test_distances_are_read_only_by_the_count_and_pair_kernels():
    readers = {where for where, node in _nodes(ast.Attribute) if node.attr == "matrix"}
    assert readers == {"metrics._diversity", "metrics._candidate_values", "metrics._distance_matrix"}


def test_every_emitted_trace_kind_is_declared():
    from newsdiv.rules import EXPLAINED

    # Records are built only by rules._record, the one dict with a "kind" key.
    literals = {
        where
        for where, node in _nodes(ast.Dict)
        if any(isinstance(key, ast.Constant) and key.value == "kind" for key in node.keys)
    }
    assert literals == {"rules._record"}
    emitted = set()
    for where, call in _calls("_record"):
        kind = call.args[0]
        assert isinstance(kind, ast.Constant) and kind.value in EXPLAINED, where
        emitted.add(kind.value)
        if len(call.args) > 1 or any(k.arg == "detail" for k in call.keywords):
            continue  # the emitter words its own detail
        # The kind's template names only fields the call passes, by keyword
        # or as a key of a **{...} display.
        passed = {k.arg for k in call.keywords if k.arg is not None} | {
            key.value
            for k in call.keywords
            if k.arg is None and isinstance(k.value, ast.Dict)
            for key in k.value.keys
        }
        named = {name for _, name, _, _ in string.Formatter().parse(EXPLAINED[kind.value][3]) if name}
        assert named <= passed, (where, kind.value, named - passed)
    assert emitted == set(EXPLAINED)


def test_k_is_checked_in_one_place():
    # cli keeps its own "surviving candidates" message for list mode.
    checks = {
        where
        for where, node in _nodes(ast.JoinedStr)
        if isinstance(node.values[0], ast.Constant)
        and node.values[0].value.startswith("k must satisfy 1 <= k <= |pool|")
    }
    assert checks == {"metrics._check_k"}


def test_numbers_are_range_checked_in_one_place():
    # rules._fold keeps the boost clamp, a test on a computed value in the
    # hot loop that apply_rules and trace_for's replay both call.
    chained = {where for where, node in _nodes(ast.Compare) if len(node.ops) > 1}
    assert chained == {"errors.json_number_in", "rules._fold"}
    # aspect_model: Aspect and AspectSchema; metrics: DocumentProfile and
    # InteractionLog; rules: Rule.
    assert {where for where, _ in _calls("json_number_in")} == {
        "aspect_model.__post_init__", "metrics.__init__", "metrics.__post_init__", "metrics._check_k",
        "diversify.swap_diversify", "diversify.next_in_sequence", "diversify.rerank_combined",
        "rules.__post_init__",
    }
    # A relevance score is range-checked in one place, when a document is
    # built, whether the loader or a library caller builds it.
    relevance = {where for where, call in _calls("json_number_in") if "relevance" in ast.unparse(call.args[0])}
    assert relevance == {"metrics.__init__"}
    assert [where for where, _ in _calls("_check_relevance")] == []  # no mode checks it again


def test_lines_are_scanned_in_one_place():
    # corpus_io binds the C scanner once at module level and calls it per line.
    names = {
        where
        for where, node in _nodes((ast.Name, ast.Attribute))
        if "scan_once" in (node.id if isinstance(node, ast.Name) else node.attr)
    }
    assert names == {"corpus_io.<module>", "corpus_io._iter_jsonl"}
    assert {where for where, _ in _calls("_scan_once")} == {"corpus_io._iter_jsonl"}


def test_label_rows_are_stored_in_one_place():
    # AspectSchema._row is the table's only reader and writer.
    assert {where for where, node in _nodes(ast.Attribute) if node.attr == "_rows"} == {"aspect_model._row"}
    stores = {
        where
        for where, node in _nodes(ast.Subscript)
        if isinstance(node.ctx, (ast.Store, ast.Del)) and ast.unparse(node.value).endswith("._rows")
    }
    assert stores == {"aspect_model._row"}
    # No method of the table is called (setdefault, update, clear, ...).
    assert not [
        where
        for where, call in _nodes(ast.Call)
        if isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Attribute)
        and call.func.value.attr == "_rows"
    ]


def test_pools_are_checked_and_ordered_by_id_in_one_helper():
    # The id-keyed row map the modes once shared is gone.
    assert not [path.name for path in (ROOT / "src" / "newsdiv").glob("*.py") if "_label_rows" in path.read_text()]
    # The loader builds the one pool made from documents it checked, and the
    # gate one from any other sequence; every other is made from a pool's
    # rows: a filter or split of one, or the blend's boosted copy.
    assert {where for where, _ in _calls("_Pool")} == {
        "corpus_io.load_corpus", "metrics._pool", "metrics.take", "cli.cmd_rerank", "diversify.swap_diversify",
    }
    # A document checks its own fields when it is built. Only the gate tells
    # a loader's pool from a caller's list; history exclusion keeps a pool a
    # pool, and swap joins a pool's two halves. Each site is one isinstance.
    pool_tests = sorted(where for where, call in _calls("isinstance") if ast.unparse(call.args[1]) == "_Pool")
    assert pool_tests == [
        "diversify.exclude_history", "diversify.swap_diversify", "diversify.swap_diversify", "metrics._pool",
    ]
    # Every function that reads documents' rows takes them from the gate,
    # which alone resolves labels; the duplicate-id check lives in it.
    assert {where for where, _ in _calls("_pool")} == {
        "metrics._by_id", "metrics.collection_diversity", "rules.apply_rules", "diversify.next_in_sequence",
        "diversify.suggest_interaction", "cli.cmd_score",
    }
    assert {where for where, _ in _calls("_label_indices")} == {"metrics._pool"}
    assert not [path.name for path in (ROOT / "src" / "newsdiv").glob("*.py") if "_check_unique_ids" in path.read_text()]
    # apply_rules has no pool branch: it names neither _Pool nor a row
    # lookup of its own, and takes its candidates from the gate once.
    rules = ast.parse((ROOT / "src" / "newsdiv" / "rules.py").read_text())
    apply = next(node for node in rules.body if isinstance(node, ast.FunctionDef) and node.name == "apply_rules")
    named = {node.id for node in ast.walk(apply) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(apply) if isinstance(node, ast.Attribute)}
    assert not named & {"_Pool", "_row", "isinstance"}
    assert [where for where, _ in _calls("_pool")].count("rules.apply_rules") == 1
    # Each entry is tested in one helper, also where ids may repeat (a
    # history window), the entries are keywords, or a list is only filtered
    # or matched against rules.
    assert {where for where, _ in _calls("_check_entries")} == {
        "metrics._pool", "metrics.window_slice", "metrics.keyword_diversity", "rules.check_requirements",
        "diversify.exclude_history",
    }
    row_lookups = {
        where for where, call in _nodes(ast.Call) if isinstance(call.func, ast.Attribute) and call.func.attr == "_row"
    }
    assert row_lookups == {"corpus_io.validate_labels", "metrics._label_indices"}
    # A sort keyed by ids: a sorted(...) or .sort(...) whose key is a lambda
    # that reads an id attribute anywhere. Positions into a _by_id pool sort
    # as their ids do.
    by_id = {
        where
        for where, call in _nodes(ast.Call)
        if ast.unparse(call.func) == "sorted" or ast.unparse(call.func).endswith(".sort")
        for k in call.keywords
        if k.arg == "key"
        and isinstance(k.value, ast.Lambda)
        and any(isinstance(node, ast.Attribute) and node.attr == "id" for node in ast.walk(k.value.body))
    }
    assert by_id == {"metrics._by_id"}


def test_each_mode_builds_its_distance_tables_once():
    # _distance_matrix builds the weighted tables per call, so no function
    # calls it twice, and no call sits where it repeats: in a loop's body (a
    # for's iterable is evaluated once) or in a comprehension.
    callers = [where for where, _ in _calls("_distance_matrix")]
    assert len(callers) == len(set(callers)), callers
    repeated = []
    for path in sorted((ROOT / "src" / "newsdiv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                parts = node.body + node.orelse
            elif isinstance(node, (ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                parts = [node]
            else:
                continue
            repeated += [
                (path.stem, ast.unparse(call))
                for part in parts
                for call in ast.walk(part)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "_distance_matrix"
            ]
    assert repeated == []


def test_selection_steps_are_scored_in_one_loop():
    # greedy and the blend step through _grow; swap, sequence and interaction
    # score their own candidate sets.
    assert {where for where, _ in _calls("_candidate_values")} == {
        "diversify._grow", "diversify.swap_diversify", "diversify.next_in_sequence",
        "diversify.suggest_interaction",
    }


def test_instances_are_made_by_their_init_and_the_loader_imports_no_mode():
    assert [where for where, _ in _calls("object.__new__")] == []
    # write_report serializes by as_dict, so no result class is imported.
    imported = {
        node.module
        for where, node in _nodes(ast.ImportFrom)
        if where.startswith("corpus_io.") and node.level == 1
    }
    assert imported == {"aspect_model", "errors", "metrics", "rules"}


def test_rule_fields_are_checked_in_rule_alone():
    messages = (
        "each rule needs a non-empty string 'id'", "scope must be one of", "context tag must be a string",
        "context-scope rules need a 'context' tag",
    )
    rules = ast.parse((ROOT / "src" / "newsdiv" / "rules.py").read_text())
    rule = next(node for node in rules.body if isinstance(node, ast.ClassDef) and node.name == "Rule")
    post_init = next(node for node in rule.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    for message in messages:
        everywhere = [where for where, node in _nodes(ast.Constant) if message in str(node.value)]
        assert everywhere == ["rules.__post_init__"], (message, everywhere)
        assert any(message in str(node.value) for node in ast.walk(post_init) if isinstance(node, ast.Constant))
    # Rule stores a boost delta as a float, so no rule is rebuilt to do it.
    replaced = {alias.name for node in ast.walk(rules) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "replace" not in replaced
    assert [where for where, _ in _calls("dataclasses.replace") if where.startswith("rules.")] == []


# A record class -> (the method that checks its fields, its messages).
RECORD_MESSAGES = {
    "DocumentProfile": ("__init__", (
        "document needs a non-empty string 'id'", "needs a 'labels' map", "relevance for ", "timestamp for ",
        "keywords for ",
    )),
    "Keyword": ("__post_init__", ("keyword entries need a 'term' and a 'labels' map",)),
    "InteractionRecord": ("__post_init__", ("interaction needs",)),
    "InteractionLog": ("__post_init__", ("records must be a tuple", "must be InteractionRecord entries")),
}


@pytest.mark.parametrize("name", sorted(RECORD_MESSAGES))
def test_document_keyword_and_interaction_fields_are_checked_in_their_class_alone(name):
    method, messages = RECORD_MESSAGES[name]
    metrics = ast.parse((ROOT / "src" / "newsdiv" / "metrics.py").read_text())
    cls = next(node for node in metrics.body if isinstance(node, ast.ClassDef) and node.name == name)
    check = next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == method)
    for message in messages:
        everywhere = [where for where, node in _nodes(ast.Constant) if message in str(node.value)]
        assert everywhere == [f"metrics.{method}"], (message, everywhere)
        assert any(message in str(node.value) for node in ast.walk(check) if isinstance(node, ast.Constant))


# A schema class -> the messages of the checks on its own fields, each made
# in its __post_init__ alone.
SCHEMA_MESSAGES = {
    "LabelGraph": (
        "graph nodes must be a list of strings", "graph edges must be a list of pairs", "must be a pair of node names",
    ),
    "Aspect": (
        "each aspect needs a non-empty string 'name'", "'labels' must be a non-empty list of strings",
        "graph must be a LabelGraph", "distance entries must be a pair of labels",
    ),
    "AspectSchema": ("schema aspects must be Aspect entries", "schema must define a 'weights' object", "blend weight for "),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_MESSAGES))
def test_schema_fields_are_checked_in_their_class_alone(name):
    model = ast.parse((ROOT / "src" / "newsdiv" / "aspect_model.py").read_text())
    cls = next(node for node in model.body if isinstance(node, ast.ClassDef) and node.name == name)
    check = next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    for message in SCHEMA_MESSAGES[name]:
        everywhere = {where for where, node in _nodes(ast.Constant) if message in str(node.value)}
        assert everywhere == {"aspect_model.__post_init__"}, (message, everywhere)
        assert any(message in str(node.value) for node in ast.walk(check) if isinstance(node, ast.Constant))


def test_the_schema_loader_checks_only_what_exists_in_json():
    assert not [path.name for path in (ROOT / "src" / "newsdiv").glob("*.py") if "_parse_graph" in path.read_text()]
    model = ast.parse((ROOT / "src" / "newsdiv" / "aspect_model.py").read_text())
    load = next(node for node in model.body if isinstance(node, ast.FunctionDef) and node.name == "load_schema")
    # The root object, the aspect objects, distance triples and graph
    # objects; then a LabelGraph's own error, prefixed with its aspect.
    json_only = (
        "schema root must be a JSON object", "non-empty 'aspects' list", "each aspect must be a JSON object",
        "'distances' must be a list", "[label, label, value]", "graph must be an object", ": {exc}",
    )
    raised = [ast.unparse(node.exc) for node in ast.walk(load) if isinstance(node, ast.Raise)]
    assert [[m for m in json_only if m in r] for r in raised] == [[m] for m in json_only], raised


def test_type_weights_are_checked_in_the_interaction_log_alone():
    checks = {
        where
        for where, call in _calls("isinstance")
        if "type_weights" in ast.unparse(call.args[0]) and ast.unparse(call.args[1]) == "Mapping"
    }
    assert checks == {"metrics.__post_init__"}

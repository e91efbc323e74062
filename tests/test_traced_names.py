"""The benchmark's tracer patches package names that must stay bound.

`newsbench/tracing.py` wraps functions in every module namespace that binds
them, including names a module only imports for that purpose (such as
`diversify.interaction_diversity`). This checks those names without the
slow traced benchmark run.
"""

import importlib
import inspect

import newsdiv

from helpers import load_newsbench

MODULES = ("aspect_model", "cli", "corpus_io", "diversify", "metrics", "oracle", "rules")
for _module in MODULES:
    importlib.import_module(f"newsdiv.{_module}")


def bound_functions():
    return {
        (module, name): value
        for module in MODULES
        for name, value in vars(getattr(newsdiv, module)).items()
        if inspect.isfunction(value)
    }


def test_every_name_the_tracer_patches_is_bound_where_it_patches_it():
    before = bound_functions()
    # install() reads each name from every module it patches, so a name a
    # module no longer binds raises AttributeError here.
    uninstall = load_newsbench("tracing").Tracer().install(newsdiv)
    try:
        patched = {key for key, value in bound_functions().items() if before.get(key) is not value}
    finally:
        uninstall()
    assert bound_functions() == before
    for key in [
        ("diversify", "interaction_diversity"),
        ("diversify", "collection_diversity"),
        ("cli", "interaction_diversity"),
        ("oracle", "collection_diversity"),
        ("cli", "max_diversity_oracle"),
        ("diversify", "select_summary_sources"),
    ]:
        assert key in patched, key


def test_a_traced_rerank_with_rules_records_the_rule_layers_work(fixtures_dir, capsys):
    """The tracer binds apply_rules' `ruleset`, `request_rules` and
    `candidates` by name to count its work, so renaming one fails here."""
    from newsdiv import cli

    argv = ["rerank", "--schema", str(fixtures_dir / "example_schema.json"),
            "--corpus", str(fixtures_dir / "example_corpus.jsonl"), "--mode", "list", "--k", "3",
            "--rules", str(fixtures_dir / "rules.jsonl"), "--context", "election"]
    tracer = load_newsbench("tracing").Tracer()
    uninstall = tracer.install(newsdiv)
    try:
        assert tracer.root(0, cli.main, argv) == 0
    finally:
        uninstall()
    capsys.readouterr()
    by_name = {}
    for request, parent, layer, name, start, end, work in tracer.spans:
        by_name.setdefault(name, []).append((layer, parent, work))
    # 8 candidates, 6 survive the Security exclude, 3 rules active with the election tag
    assert by_name["apply_rules"] == [("rules", 0, (8, 6, 3))]
    assert by_name["check_requirements"] == [("rules", 0, ())]

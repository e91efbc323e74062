import os
import pathlib

import pytest
from hypothesis import HealthCheck, settings

from newsdiv.aspect_model import load_schema
from newsdiv.corpus_io import load_corpus

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# The tests that start `python -m newsdiv` or a script import the package
# from this checkout, as the suite itself does through pyproject's pythonpath.
_SRC = str(FIXTURES.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def schema():
    """Two-aspect schema with the explicit frame distance table."""
    return load_schema((FIXTURES / "example_schema.json").read_text())


@pytest.fixture(scope="session")
def graph_schema():
    """Same schema but with frame distances derived from the cluster graph."""
    return load_schema((FIXTURES / "example_schema_graph.json").read_text())


@pytest.fixture(scope="session")
def corpus(schema):
    return load_corpus(schema, (FIXTURES / "example_corpus.jsonl").read_text())


@pytest.fixture(scope="session")
def pool(corpus):
    """The eight example documents: every (topic, frame) combination."""
    return corpus.docs()


@pytest.fixture(scope="session")
def by_id(pool):
    return {d.id: d for d in pool}


@pytest.fixture(scope="session")
def reference_lists(schema):
    """The four reference lists, keyed a/b/c/d by id prefix."""
    docs = load_corpus(schema, (FIXTURES / "reference_lists.jsonl").read_text()).docs()
    out = {}
    for doc in docs:
        out.setdefault(doc.id[1], []).append(doc)
    return out

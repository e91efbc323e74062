"""Exhaustive reference computations and their guard rails."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from newsdiv.errors import ContractError, GuardExceededError
from newsdiv.metrics import DocumentProfile, Window, collection_diversity
from newsdiv.diversify import next_in_sequence
from newsdiv.oracle import max_diversity_oracle

from helpers import ExactReference, random_docs, random_schema

# Best achievable mean pairwise diversity over the eight-document universe,
# by subset size. Only k=2 reaches 1.0; the ceiling drops as soon as a third
# document is forced in.
UNIVERSE_BEST = {
    1: 0.0,
    2: 1.0,
    3: 3 / 4,
    4: 3 / 4,
    5: 27 / 40,
    6: 2 / 3,
    7: 9 / 14,
    8: 9 / 14,
}


def test_universe_ceiling_by_subset_size(schema, pool):
    for k, want in UNIVERSE_BEST.items():
        result = max_diversity_oracle(schema, pool, k)
        assert result.best_value == pytest.approx(want, abs=1e-9), k
        assert result.evaluated == math.comb(8, k)
        assert len(result.best_subset) == k


def test_only_pairs_reach_full_diversity(schema, pool):
    assert max_diversity_oracle(schema, pool, 2).best_value == pytest.approx(1.0, abs=1e-9)
    for k in range(3, 9):
        assert max_diversity_oracle(schema, pool, k).best_value < 1.0


def test_oracle_k2_and_k4_subsets(schema, pool):
    assert max_diversity_oracle(schema, pool, 2).best_subset == ("a1", "a7")
    assert max_diversity_oracle(schema, pool, 4).best_subset == ("a1", "a2", "a7", "a8")


def test_best_value_matches_recomputed_diversity(schema, pool, by_id):
    result = max_diversity_oracle(schema, pool, 5)
    docs = [by_id[i] for i in result.best_subset]
    assert collection_diversity(schema, docs).overall == result.best_value


def test_oracle_is_pool_order_invariant(schema, pool):
    rng = random.Random(7)
    canonical = max_diversity_oracle(schema, pool, 4)
    for _ in range(5):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        again = max_diversity_oracle(schema, shuffled, 4)
        assert again.best_subset == canonical.best_subset
        assert again.best_value == canonical.best_value


def test_k_bounds_are_contract_errors(schema, pool):
    with pytest.raises(ContractError, match="k must satisfy"):
        max_diversity_oracle(schema, pool, 0)
    with pytest.raises(ContractError, match="k must satisfy"):
        max_diversity_oracle(schema, pool, 9)


def test_enumeration_guard_trips(schema):
    template = {"topic": "Climate", "frame": "Health"}
    big = [DocumentProfile(id=f"g{i:02d}", labels=dict(template)) for i in range(30)]
    # C(30, 15) ~ 1.6e8 exceeds the guard
    with pytest.raises(GuardExceededError, match="greedy_select"):
        max_diversity_oracle(schema, big, 15)


def test_as_dict_shape(schema, pool):
    data = max_diversity_oracle(schema, pool, 2).as_dict()
    assert data == {"best_subset": ["a1", "a7"], "best_value": 1.0, "evaluated": 28}


@given(st.integers(min_value=0, max_value=5_000))
def test_oracle_dominates_every_same_size_subset(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=2, max_labels=4)
    docs = random_docs(rng, schema, rng.randint(2, 7))
    k = rng.randint(1, len(docs))
    result = max_diversity_oracle(schema, docs, k)
    sample = rng.sample(docs, k)
    assert collection_diversity(schema, sample).overall <= result.best_value + 1e-9


# --- exact sequence reference ---


def seq_doc(doc_id, topic, frame, ts=None):
    return DocumentProfile(id=doc_id, labels={"topic": topic, "frame": frame}, timestamp=ts)


def test_sequence_reference_worked_example(schema):
    history = [seq_doc("h1", "Climate", "Health"), seq_doc("h2", "Immigration", "Security")]
    candidates = [seq_doc("c1", "Climate", "Health"), seq_doc("c2", "Immigration", "Economy")]
    window = Window("last", 2)
    # the (Immigration, Economy) candidate
    assert ExactReference(schema).next_in_sequence(history, candidates, window, 0.5) == "c2"
    assert next_in_sequence(schema, history, candidates, window).selected == ("c2",)

"""Exhaustive reference computations and their guard rails."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from newsdiv import oracle
from newsdiv.aspect_model import Aspect, AspectSchema
from newsdiv.errors import ContractError, GuardExceededError, UnknownEntityError
from newsdiv.metrics import TIE_TOLERANCE, DocumentProfile, Window, _by_id, _distance_matrix, collection_diversity
from newsdiv.diversify import next_in_sequence
from newsdiv.oracle import max_diversity_oracle

from helpers import ExactReference, enumerate_oracle, random_docs, random_schema

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


@pytest.mark.parametrize("k", [1.5, True, "2", None])
def test_k_must_be_an_integer(schema, pool, k):
    with pytest.raises(ContractError, match="k must satisfy"):
        max_diversity_oracle(schema, pool, k)


def test_enumeration_guard_trips(schema):
    template = {"topic": "Climate", "frame": "Health"}
    big = [DocumentProfile(id=f"g{i:02d}", labels=dict(template)) for i in range(30)]
    # C(30, 15) ~ 1.6e8 exceeds the guard
    with pytest.raises(GuardExceededError, match="greedy_select"):
        max_diversity_oracle(schema, big, 15)


def test_duplicate_ids_are_contract_errors(schema):
    def doc(doc_id, topic):
        return DocumentProfile(id=doc_id, labels={"topic": topic, "frame": "Health"})

    pool = [doc("x", "Climate"), doc("x", "Immigration"), doc("y", "Climate")]
    with pytest.raises(ContractError, match=r"duplicate document ids: \['x'\]"):
        max_diversity_oracle(schema, pool, 2)


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


# --- branch and bound against plain enumeration ---


def oracle_instance(seed):
    """Seeded schema, pool and k; every third pool repeats label tuples,
    and k cycles through 1, |pool| and a random size."""
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=3, max_labels=5)
    n = rng.randint(1, 11)
    if seed % 3 == 0:
        tuples = random_docs(rng, schema, rng.randint(1, 3))
        docs = [
            DocumentProfile(id=f"r{i:02d}", labels=rng.choice(tuples).labels) for i in range(n)
        ]
    else:
        docs = random_docs(rng, schema, n)
    k = (1, n, rng.randint(1, n), rng.randint(1, n))[seed % 4]
    return schema, docs, k


def test_search_picks_what_enumeration_picks():
    for seed in range(1500):
        schema, docs, k = oracle_instance(seed)
        got = max_diversity_oracle(schema, docs, k).as_dict()
        assert got == enumerate_oracle(schema, docs, k).as_dict(), seed


@pytest.mark.parametrize("k", [5, 6])
def test_search_matches_enumeration_on_bench_shaped_pools(k):
    rng = random.Random(k)
    schema = random_schema(rng, max_aspects=3, max_labels=8, exact=True)
    docs = random_docs(rng, schema, 24)
    got = max_diversity_oracle(schema, docs, k).as_dict()
    assert got == enumerate_oracle(schema, docs, k).as_dict()


def narrow_instance(seed):
    """A bench-shaped narrow pool: 20-26 documents drawn from at most 9 label
    tuples of a 2 x 3 schema. k cycles through 3, 4 and 5, every tenth pool
    takes 6 and every fortieth 7, and the larger k get the smaller pools, so
    plain enumeration stays under 80,000 subsets a pool."""
    rng = random.Random(seed)
    schema = random_schema(rng, max_aspects=2, max_labels=3, exact=True)
    tuples = random_docs(rng, schema, rng.randint(2, 9))
    k = 7 if seed % 40 == 39 else 6 if seed % 10 == 9 else 3 + seed % 3
    n = rng.randint(20, {3: 26, 4: 26, 5: 23}.get(k, 20))
    docs = [DocumentProfile(id=f"n{i:02d}", labels=rng.choice(tuples).labels) for i in range(n)]
    return schema, docs, k


def test_search_matches_enumeration_on_narrow_pools():
    for seed in range(200):
        schema, docs, k = narrow_instance(seed)
        got = max_diversity_oracle(schema, docs, k).as_dict()
        assert got == enumerate_oracle(schema, docs, k).as_dict(), seed


def test_search_work_follows_distinct_tuples(monkeypatch):
    """40 documents over 4 label tuples, k=6: searching every reordering of
    the tied documents took 169,908 bound evaluations (one sort each) and
    summed 309 subsets; without the last pick's row check the canonical
    search still sums 49, and taking a document already ruled out cost 183
    bound evaluations where skipping it costs 146."""
    rng = random.Random(40)
    schema = random_schema(rng, max_aspects=2, max_labels=3)
    tuples = random_docs(rng, schema, 6)
    docs = [DocumentProfile(id=f"r{i:02d}", labels=rng.choice(tuples).labels) for i in range(40)]
    assert len({tuple(sorted(d.labels.items())) for d in docs}) == 4
    sorts, sums, pair_sum = [], [], oracle._pair_sum

    def counting_sort(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    def counting_sum(upper, combo):
        sums.append(combo)
        return pair_sum(upper, combo)

    monkeypatch.setattr(oracle, "sorted", counting_sort, raising=False)
    monkeypatch.setattr(oracle, "_pair_sum", counting_sum)
    result = max_diversity_oracle(schema, docs, 6)
    assert len(sorts) <= 1_000 and len(sums) <= 20, (len(sorts), len(sums))
    assert len(sorts) <= 150, len(sorts)
    # The pick of the search over every subset, which enumeration matches.
    assert result.best_subset == ("r00", "r01", "r02", "r03", "r07", "r09")


@pytest.fixture
def searches(monkeypatch):
    """One entry per _search call, a call from _search itself included."""
    search, calls = oracle._search, []

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(oracle, "_search", counting)
    return calls


def test_sum_on_the_tolerance_edge_keeps_the_first_in_one_search(searches):
    """Dyadic distances and a power-of-two tolerance add exactly: the
    canonical (0, 1, 3) sums to 1.0625, exactly the best (0, 1, 2) plus the
    tolerance, so it does not replace it, and neither does its reordering
    (1, 2, 3), which sums to the same."""
    # Rows p, q, p, r: d(p, q) = 0.5, d(p, r) = 0.25, d(q, r) = 0.3125.
    upper = [[0.5, 0.0, 0.25], [0.5, 0.3125], [0.25], []]
    tolerance = 2.0**-4
    got = oracle._search(upper, 3, tolerance, "pqpr")
    assert len(searches) == 1
    plain, best = None, -1.0  # plain enumeration at this tolerance
    for combo in combinations(range(4), 3):
        s = oracle._pair_sum(upper, combo)
        if s > best + tolerance:
            plain, best = combo, s
    assert got == plain == (0, 1, 2)


def test_reordered_subsets_sum_alike_so_the_first_stays(searches):
    """(d0, d1, d3) and (d1, d2, d3) hold the same label rows. Added
    row-major, their distances land one ulp apart on either side of the
    best (d0, d1, d2) plus the tolerance; correctly rounded, they sum to one
    float, which does not replace the best, and one search finds it."""
    # Labels p, q, p, r: d2 repeats d0's row.
    pq, pr, qr = 0.4, 0.15, 0.2500000030000001
    assert pq + pr + qr != pq + qr + pr  # the two row-major orders
    upper = [[pq, 0.0, pr], [pq, qr], [pr], []]
    assert oracle._pair_sum(upper, (0, 1, 3)) == oracle._pair_sum(upper, (1, 2, 3))
    distances = {("p", "q"): pq, ("p", "r"): pr, ("q", "r"): qr}
    schema = AspectSchema(aspects=(Aspect("t", ["p", "q", "r"], distances),), weights={"t": 1.0})
    docs = [DocumentProfile(id=f"d{i}", labels={"t": label}) for i, label in enumerate("pqpr")]
    got = max_diversity_oracle(schema, docs, 3)
    assert len(searches) == 1
    assert got.best_subset == ("d0", "d1", "d2")
    assert got.as_dict() == enumerate_oracle(schema, docs, 3).as_dict()


def test_canonical_search_equals_the_search_over_every_subset_on_narrow_pools():
    """With every index its own row the search visits every subset; on
    pools that repeat rows, the canonical search picks the same one."""
    for seed in range(200):
        schema, docs, k = narrow_instance(seed)
        _, rows = _by_id(schema, docs, "pool")
        upper = list(_distance_matrix(schema, rows))
        tolerance = TIE_TOLERANCE * (k * (k - 1) // 2)
        every = oracle._search(upper, k, tolerance, range(len(rows)))
        assert oracle._search(upper, k, tolerance, rows) == every, seed


def test_oracle_value_is_the_exact_maximum():
    for seed in range(300):
        schema, docs, k = oracle_instance(seed)
        docs = docs[:9]
        k = min(k, len(docs))
        exact = ExactReference(schema)
        by_id = {d.id: d for d in docs}
        picked = exact.diversity([by_id[i] for i in max_diversity_oracle(schema, docs, k).best_subset])
        best = max(exact.diversity(list(c)) for c in combinations(docs, k))
        assert abs(picked - best) <= 1e-9, seed


@pytest.mark.parametrize("gap, want", [(7e-10, ("a", "b")), (1.5e-9, ("a", "c"))])
def test_later_subset_wins_only_beyond_the_tolerance(gap, want):
    """(a, c) is gap farther apart than (a, b); within TIE_TOLERANCE the
    lexicographically first pair stays."""
    aspect = Aspect("t", ["p", "q", "r"], {("p", "q"): 0.5, ("p", "r"): 0.5 + gap, ("q", "r"): 0.1})
    schema = AspectSchema(aspects=(aspect,), weights={"t": 1.0})
    docs = [DocumentProfile(id=i, labels={"t": label}) for i, label in zip("abc", "pqr")]
    assert max_diversity_oracle(schema, docs, 2).best_subset == want
    assert enumerate_oracle(schema, docs, 2).best_subset == want


def test_oracle_takes_a_whole_pool_of_1100():
    rng = random.Random(1100)
    schema = random_schema(rng, max_aspects=2, max_labels=6)
    docs = random_docs(rng, schema, 1100)
    result = max_diversity_oracle(schema, docs, 1100)
    assert result.best_subset == tuple(sorted(d.id for d in docs))
    assert result.evaluated == 1
    assert result.best_value == collection_diversity(schema, docs).overall


def test_k_of_1_or_n_builds_no_distance_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("distance matrix built")

    monkeypatch.setattr(oracle, "_distance_matrix", refuse)
    rng = random.Random(13)
    schema = random_schema(rng, max_aspects=3, max_labels=8)
    docs = random_docs(rng, schema, 12)
    for k in (1, len(docs)):
        got = max_diversity_oracle(schema, docs, k).as_dict()
        assert got == enumerate_oracle(schema, docs, k).as_dict(), k
    name = schema.aspects[-1].name
    bad = DocumentProfile(id="zz", labels={**docs[0].labels, name: "no-such-label"})
    with pytest.raises(UnknownEntityError, match="no-such-label"):
        max_diversity_oracle(schema, docs + [bad], 1)


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


def test_deep_search_on_1100_tied_documents_runs_without_recursion():
    """k = n - 1 over identical documents walks about a thousand levels down
    before the first subset; every later one ties it and is bounded out."""
    rng = random.Random(1099)
    schema = random_schema(rng, max_aspects=2, max_labels=6)
    labels = random_docs(rng, schema, 1)[0].labels
    docs = [DocumentProfile(id=f"d{i:04d}", labels=labels) for i in range(1100)]
    result = max_diversity_oracle(schema, docs, 1099)
    assert result.best_subset == tuple(d.id for d in docs[:1099])
    assert result.evaluated == 1100
    assert result.best_value == 0.0

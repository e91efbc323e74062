"""Exhaustive reference maximizer for small candidate pools.

It exists to pin down ground truth in tests and experiments. It refuses
pools whose enumeration would be too large instead of silently grinding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .aspect_model import AspectSchema
from .errors import ContractError, GuardExceededError
from .metrics import DocumentProfile, TIE_TOLERANCE, collection_diversity, doc_distance

# Refuse exhaustive subset enumeration beyond this many combinations.
ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class OracleResult:
    best_subset: tuple[str, ...]
    best_value: float
    evaluated: int

    def as_dict(self) -> dict:
        return {
            "best_subset": list(self.best_subset),
            "best_value": self.best_value,
            "evaluated": self.evaluated,
        }


def max_diversity_oracle(schema: AspectSchema, pool: Sequence[DocumentProfile], k: int) -> OracleResult:
    """Exact maximum-diversity k-subset by exhaustive enumeration.

    Pool is sorted by document id and subsets are visited in lexicographic
    index order. A subset replaces the best so far only when its mean
    pairwise distance is more than TIE_TOLERANCE higher, so values within
    TIE_TOLERANCE count as tied and resolve to the lexicographically
    smallest id tuple. Guarded: C(|pool|, k) above ENUMERATION_GUARD raises
    GuardExceededError instead of running.
    """
    n = len(pool)
    if k < 1 or k > n:
        raise ContractError(f"k must satisfy 1 <= k <= |pool| (got k={k}, |pool|={n})")
    total = math.comb(n, k)
    if total > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"C({n}, {k}) = {total} exceeds the enumeration guard "
            f"({ENUMERATION_GUARD}); use greedy_select for pools this large"
        )
    docs = sorted(pool, key=lambda d: d.id)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = doc_distance(schema, docs[i], docs[j])
            matrix[i][j] = d
            matrix[j][i] = d

    pairs = k * (k - 1) // 2
    tolerance = TIE_TOLERANCE * pairs  # on pair sums, not means
    best_combo = None
    best_sum = -1.0
    for combo in combinations(range(n), k):
        s = 0.0
        for a in range(k):
            row = matrix[combo[a]]
            for b in range(a + 1, k):
                s += row[combo[b]]
        if s > best_sum + tolerance:
            best_sum = s
            best_combo = combo
    chosen = [docs[i] for i in best_combo]
    # Recompute through the metric itself so the reported value is exactly
    # what collection_diversity(best_subset) returns.
    value = collection_diversity(schema, chosen).overall if pairs else 0.0
    return OracleResult(
        best_subset=tuple(d.id for d in chosen),
        best_value=value,
        evaluated=total,
    )

"""Exact maximum-diversity subset for small candidate pools.

It exists to pin down ground truth in tests and experiments: the max-sum
dispersion optimum (Hassin, Rubinstein & Tamir 1997) over every k-subset of
a pool. It refuses pools with too many k-subsets instead of silently
grinding.

The search is a depth-first branch and bound over the k-subsets in
lexicographic index order, the order plain enumeration visits them in. A
node of the search tree fixes a prefix of picks whose own pair sum is
`base`; r picks remain, all at indices >= j. With gains[x] the summed
distance from x to the prefix members and reach_j[x] the largest distance
from x to any index >= j, every completion of the prefix sums to at most

    base + the sum of the r largest (gains[x] + (r - 1) / 2 * reach_j[x]), x >= j

because a pair (x, y) of remaining picks is at most
(reach_j[x] + reach_j[y]) / 2 and each pick is in r - 1 such pairs. For
r = 1 the bound is base + gains[x], leaf by leaf. The bound never rises as
j grows, so once it falls below best_sum + tolerance / 2 no later sibling
can win either and the level ends. When r = n - j only one completion is
left; it is bounded once and then summed without descending further. Half
the tie tolerance (5e-10 per pair) is far above the rounding error of these
sums, so a pruned subset could never have beaten the best by more than the
tolerance. A subset that survives is summed correctly rounded, with
math.fsum, as plain enumeration sums it, and compared the same way. It
reads only distances from an index to a larger one: the upper triangle,
half the matrix.

Documents with the same label-index row are interchangeable, so the search
visits only canonical subsets: those that never skip a document and then
take a later one with the same row. Every subset sums the same distances as
the canonical subset with the same count per row, whose picks are each
row's first members, and a correctly rounded sum of the same distances is
the same float in any order. That canonical subset comes first in
lexicographic order. Once the search has passed it, summed or pruned,
best_sum is at least its sum minus the tolerance, and best_sum never falls,
so a later subset with the same sum is never more than the tolerance higher
and cannot replace the best. A frame that skips index j sets the gains of
j's later row members to -inf, which drops them from the bound and from
every leaf, and the search then only skips them; a last pick x needs no
member of its row in [j, x). So the work follows the distinct label tuples
and how many documents share each, not the number of documents, and tied
documents are never searched in every order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Sequence

from .aspect_model import AspectSchema
from .errors import GuardExceededError
from .metrics import DocumentProfile, TIE_TOLERANCE, _by_id, _check_k, _distance_matrix, _diversity
# collection_diversity is unused here; newsbench/tracing.py patches this name.
from .metrics import collection_diversity  # noqa: F401

# Refuse the search beyond this many k-subsets.
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
    """Exact maximum-diversity k-subset by branch and bound.

    Pool is sorted by document id and subsets are considered in
    lexicographic index order. A subset replaces the best so far only when
    its mean pairwise distance is more than TIE_TOLERANCE higher, so values
    within TIE_TOLERANCE count as tied and resolve to the lexicographically
    smallest id tuple. Subsets whose upper bound cannot beat the best are
    skipped, and so is every subset that takes a later document in place of
    an earlier one with the same labels: it has the same pair sum, bit for
    bit, comes later and so cannot win. The result equals that of summing
    every subset, and the cost follows the distinct label tuples, not the
    documents. `evaluated` counts the subsets covered, summed or bounded
    out: always C(|pool|, k). Guarded: C(|pool|, k) above
    ENUMERATION_GUARD raises GuardExceededError instead of running, and
    duplicate document ids raise ContractError.
    """
    n = len(pool)
    _check_k(k, n)
    total = math.comb(n, k)
    if total > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"C({n}, {k}) = {total} exceeds the enumeration guard "
            f"({ENUMERATION_GUARD}); use greedy_select for pools this large"
        )
    docs, rows = _by_id(schema, pool, "pool")  # every label checked, whatever k
    pairs = k * (k - 1) // 2
    if k == 1 or k == n:
        picks = range(k)  # the first id, or the only subset
    else:
        tolerance = TIE_TOLERANCE * pairs  # on pair sums, not means
        picks = _search(list(_distance_matrix(schema, rows)), k, tolerance, rows)
    # The count kernel on the picks' rows: bitwise collection_diversity(best_subset).
    value = _diversity(schema, [rows[i] for i in picks]).overall
    return OracleResult(tuple(docs[i].id for i in picks), value, total)


def _pair_sum(upper: list[list[float]], combo: tuple[int, ...]) -> float:
    """Pair sum of one subset, correctly rounded, as plain enumeration sums
    it: subsets with the same distances get the same float in any order.
    upper[i][y - i - 1] is the distance between i and y > i."""
    return math.fsum(upper[i][y - i - 1] for a, i in enumerate(combo) for y in combo[a + 1:])


def _reach(upper: list[list[float]]) -> list[list[float]]:
    """reach[j][x - j] = max over y >= j of the distance between x and y,
    for every x >= j: 0.0 for y = x, upper[j][x - j - 1] for y = j < x."""
    reach, below = [], []
    for row in reversed(upper):
        below = [max(row, default=0.0)] + [a if a > b else b for a, b in zip(below, row)]
        reach.append(below)
    return reach[::-1]


def _search(upper: list[list[float]], k: int, tolerance: float, rows: Sequence) -> tuple[int, ...]:
    """The k-subset (1 < k < n) plain enumeration keeps: in lexicographic
    order, each subset replaces the best so far when its pair sum is more
    than `tolerance` higher. rows[x] is x's label-index row, and only
    canonical subsets are visited: one pass, whatever the sums. Depth first
    with an explicit stack, because k can reach the thousands, beyond the
    recursion limit."""
    n = len(upper)
    half = tolerance / 2
    reach = _reach(upper)
    # later[x]: the indices after x with x's row; prev[x]: the last one
    # before x, or -1.
    members, prev, place = {}, [], []
    for x, row in enumerate(rows):
        same = members.setdefault(row, [])
        prev.append(same[-1] if same else -1)
        place.append((same, len(same) + 1))
        same.append(x)
    later = [same[a:] for same, a in place]
    best_sum, best_combo = -1.0, ()
    # Frame: next index j, prefix, its pair sum, and gains[x - j] = summed
    # distance from x to the prefix members, for x >= j only: a frame never
    # reads an index below its j, so a deep stack holds no dead prefixes.
    stack = [(0, (), 0.0, [0.0] * n)]
    while stack:
        j, prefix, base, gains = stack.pop()
        r = k - len(prefix)
        if r == 1:
            floor = best_sum + half
            leaves = [prefix + (x,) for x, g in enumerate(gains, j) if base + g >= floor and prev[x] < j]
        else:
            c = (r - 1) / 2
            scores = sorted([g + c * h for g, h in zip(gains, reach[j])])
            if base + sum(scores[-r:]) < best_sum + half:
                continue  # no subset at this level from index j on can win
            if r < n - j:
                rest = skip = gains[1:]
                if gains[0] == -math.inf:  # j is ruled out, and so is the rest of its row
                    stack.append((j + 1, prefix, base, skip))
                    continue
                if later[j]:  # skipping j rules out the later members of its row
                    skip = rest[:]
                    for y in later[j]:
                        skip[y - j - 1] = -math.inf
                stack.append((j + 1, prefix, base, skip))
                stack.append((j + 1, prefix + (j,), base + gains[0], list(map(add, rest, upper[j]))))
                continue
            leaves = [prefix + tuple(range(j, n))]  # the one completion left
        for combo in leaves:
            s = _pair_sum(upper, combo)
            if s > best_sum + tolerance:
                best_sum, best_combo = s, combo
    return best_combo

"""Pipeline-stage partitioning.

The paper uses DeepSpeed's default scheme of "uniformly balancing the number
of trainable parameters on each pipeline stage" (§6.3).  Given the per-layer
parameter counts (including the embedding and final-norm pseudo-layers), we
compute the contiguous partition into ``num_stages`` groups that minimises
the largest group — the classic linear partitioning problem, solved here by
binary search over the bottleneck value with a greedy feasibility check.
"""

from __future__ import annotations

from typing import List, Sequence

from ..exceptions import ShardingError


def _feasible(weights: Sequence[int], num_stages: int, limit: int) -> bool:
    """Can ``weights`` be split into <= num_stages contiguous groups of sum <= limit?"""
    groups = 1
    current = 0
    for weight in weights:
        if weight > limit:
            return False
        if current + weight > limit:
            groups += 1
            current = weight
            if groups > num_stages:
                return False
        else:
            current += weight
    return True


def balanced_contiguous_partition(weights: Sequence[int], num_stages: int) -> List[List[int]]:
    """Split ``weights`` into ``num_stages`` contiguous index groups, minimising the max sum.

    Returns a list of index lists; every index appears exactly once and order
    is preserved.  Stages may be empty only when there are fewer items than
    stages.
    """
    if num_stages <= 0:
        raise ShardingError("num_stages must be positive")
    items = list(weights)
    if any(w < 0 for w in items):
        raise ShardingError("weights must be non-negative")
    if not items:
        return [[] for _ in range(num_stages)]
    if num_stages >= len(items):
        groups = [[i] for i in range(len(items))]
        groups.extend([] for _ in range(num_stages - len(items)))
        return groups

    low = max(items)
    high = sum(items)
    while low < high:
        mid = (low + high) // 2
        if _feasible(items, num_stages, mid):
            high = mid
        else:
            low = mid + 1
    bottleneck = low

    # Greedy assignment against the optimal bottleneck, but keep enough items
    # in reserve so that no trailing stage ends up empty.
    groups: List[List[int]] = []
    index = 0
    remaining_stages = num_stages
    n = len(items)
    for _stage in range(num_stages):
        group: List[int] = []
        total = 0
        remaining_items = n - index
        # Leave at least one item for each of the stages after this one.
        max_take = remaining_items - (remaining_stages - 1)
        while index < n and len(group) < max_take and (not group or total + items[index] <= bottleneck):
            group.append(index)
            total += items[index]
            index += 1
        if not group and index < n:
            group.append(index)
            index += 1
        groups.append(group)
        remaining_stages -= 1
    if index != n:
        # Put any stragglers on the last stage (cannot happen with a correct
        # bottleneck, but keeps the invariant "every index assigned" robust).
        groups[-1].extend(range(index, n))
    return groups

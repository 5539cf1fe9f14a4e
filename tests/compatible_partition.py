"""Exhaustive compatible-partition search on small graphs: the reference
that the order bound and the pipeline's exact plans are checked against."""

from rbminor.errors import InstanceTooLarge
from rbminor.extract import EXACT_PARTITION_CAP, CompatiblePartition, _exact_plan
from rbminor.graphs import Graph
from rbminor.oracles import _order_bound


def find_compatible_partition(
    g: Graph, m: int, cap: int = EXACT_PARTITION_CAP
) -> CompatiblePartition | None:
    """Exhaustive search for m pairwise-joined disjoint subsets, by
    `extract._exact_plan`; None at once when m exceeds
    `oracles._order_bound`, the largest m <= n with C(m, 2) <= e, the edge
    count, and 2m <= n + omega(G[V_m]), V_m the vertices of degree >= m - 1."""
    n = g.vertex_count
    if n > cap:
        raise InstanceTooLarge(f"{n} vertices (cap {cap})")
    if m < 1:
        raise ValueError("m must be positive")
    masks = list(g.adjacency_masks)
    if m > _order_bound(masks):
        return None
    found = _exact_plan(n, masks, m)
    return None if found is None else CompatiblePartition(found)

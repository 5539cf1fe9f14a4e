"""Exhaustive compatible-partition search on small graphs: the reference
that the order bound is checked against."""

from rbminor.errors import InstanceTooLarge
from rbminor.extract import EXACT_PARTITION_CAP, CompatiblePartition, _mask_bits
from rbminor.graphs import Graph
from rbminor.kernels import find_compatible, find_kt_model
from rbminor.oracles import _order_bound


def find_compatible_partition(
    g: Graph, m: int, cap: int = EXACT_PARTITION_CAP
) -> CompatiblePartition | None:
    """Exhaustive search for m pairwise-joined disjoint subsets; None at
    once when m exceeds `oracles._order_bound`, the largest m <= n with
    C(m, 2) <= e, the edge count, and 2m <= n + omega(G[V_m]), V_m the
    vertices of degree >= m - 1.  A K_m model is such a partition, and
    `find_kt_model` finds one far faster than `find_compatible` searches
    all partitions (K_{6,6} with m = 7: milliseconds against seconds), so
    it is asked first."""
    n = g.vertex_count
    if n > cap:
        raise InstanceTooLarge(f"{n} vertices (cap {cap})")
    if m < 1:
        raise ValueError("m must be positive")
    masks = list(g.adjacency_masks)
    if m > _order_bound(masks):
        return None
    found = find_kt_model(n, masks, m)
    if found is None:
        found = find_compatible(n, masks, m)
    return None if found is None else CompatiblePartition(tuple(map(_mask_bits, found)))

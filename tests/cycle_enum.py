"""Every simple cycle of a small graph: the brute-force reference that the
parity certificates and odd-cycle answers are checked against."""

from rbminor.errors import InstanceTooLarge
from rbminor.graphs import Graph
from rbminor.kernels import all_simple_cycles

CYCLE_ENUM_CAP = 16


def enumerate_cycles(g: Graph, max_vertices: int = CYCLE_ENUM_CAP) -> list[tuple[int, ...]]:
    """All simple cycles, each once up to rotation and reflection.

    Cycles come back as vertex tuples starting at their smallest vertex,
    oriented toward the smaller neighbour, sorted by (length, sequence).
    Refuses graphs larger than min(max_vertices, 16).
    """
    cap = min(max_vertices, CYCLE_ENUM_CAP)
    if g.vertex_count > cap:
        raise InstanceTooLarge(
            f"{g.vertex_count} vertices exceeds cycle-enumeration cap {cap}"
        )
    cycles = all_simple_cycles(g.vertex_count, list(g.adjacency_masks))
    return sorted(cycles, key=lambda c: (len(c), c))

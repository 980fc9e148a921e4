"""Traffic topology decomposition.

Splits a traffic matrix into structural categories — isolated links,
supernode leaves, supernodes, core, and core leaves — and counts each
category's sources, packets, links, and destinations.  Supernodes
and categories are found on node ids; names enter only as the reported
``supernode_ids``.  Every matrix cell lands in at most one category or the
supernode-internal class.  With the default core the per-category packet and
link counts tile the matrix totals exactly; a strict core leaves the cells
it drops as a non-negative residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:
    from .matrix import TrafficMatrix

DEFAULT_SUPERNODE_COUNT = 5

CATEGORY_ORDER = (
    "isolated_links",
    "supernode_leaves",
    "supernodes",
    "core",
    "core_leaves",
)


@dataclass(frozen=True)
class CategoryStats:
    """Distinct sources, packets, links and distinct destinations of one set
    of matrix cells: a topology category, or the whole matrix as its totals
    (``TrafficMatrix.aggregates``)."""

    sources: int
    packets: int
    links: int
    destinations: int

    def __post_init__(self):
        for name in ("sources", "packets", "links", "destinations"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.links > self.packets:
            raise ValueError(
                f"links ({self.links}) cannot exceed packets ({self.packets})"
            )


ZERO_STATS = CategoryStats(sources=0, packets=0, links=0, destinations=0)


@dataclass(frozen=True)
class TopologyBreakdown:
    """Full decomposition of one matrix."""

    categories: Dict[str, CategoryStats]
    supernode_ids: Tuple[str, ...]
    supernode_internal: CategoryStats
    totals: CategoryStats
    residual_packets: int
    residual_links: int


def _cell_stats(matrix: TrafficMatrix, cells: np.ndarray) -> CategoryStats:
    """Stats of the selected cells: distinct rows and columns, their sum.

    Cells are sorted by row, so distinct rows are counted as value changes;
    distinct columns are marked in a node mask.
    """
    rows = matrix.row[cells]
    columns = np.zeros(matrix.n_nodes, dtype=bool)
    columns[matrix.col[cells]] = True
    return CategoryStats(
        sources=int(np.count_nonzero(rows[1:] != rows[:-1])) + (len(rows) > 0),
        packets=int(matrix.count[cells].sum()),
        links=len(rows),
        destinations=int(np.count_nonzero(columns)),
    )


def _sided_stats(
    matrix: TrafficMatrix, source_cells: np.ndarray, dest_cells: np.ndarray
) -> CategoryStats:
    """Disjoint cell sets counted by role: one source per source-side cell,
    one destination per destination-side cell."""
    sources = int(np.count_nonzero(source_cells))
    destinations = int(np.count_nonzero(dest_cells))
    count = matrix.count
    return CategoryStats(
        sources=sources,
        packets=int(count[source_cells].sum() + count[dest_cells].sum()),
        links=sources + destinations,
        destinations=destinations,
    )


def find_supernodes(
    matrix: TrafficMatrix, k: int = DEFAULT_SUPERNODE_COUNT
) -> List[int]:
    """Node ids of up to k nodes by combined fan-out + fan-in, found by
    elimination.

    After each pick the node's row and column are removed and degrees are
    recomputed, so later picks reflect the residual graph.  Ties go to the
    larger total packet volume, then the smaller id (id order is name order).
    Selection stops early once the best remaining combined degree is <= 1.
    k = 0 disables supernode extraction entirely.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    row, col, count = matrix.row, matrix.col, matrix.count
    degree = matrix.out_degree + matrix.in_degree
    volume = matrix.out_volume + matrix.in_volume
    alive = np.ones(len(count), dtype=bool)
    chosen: List[int] = []
    for _ in range(k):
        top = degree.max(initial=0)
        if top <= 1:
            break
        tied = np.flatnonzero(degree == top)
        best = int(tied[np.argmax(volume[tied])])  # first maximum: lowest id
        chosen.append(best)
        # Node ids are distinct within a row and within a column, so the
        # fancy-indexed updates below touch each neighbour once.
        out_cells = np.flatnonzero(alive & (row == best))
        alive[out_cells] = False
        in_cells = np.flatnonzero(alive & (col == best))
        alive[in_cells] = False
        degree[col[out_cells]] -= 1
        volume[col[out_cells]] -= count[out_cells]
        degree[row[in_cells]] -= 1
        volume[row[in_cells]] -= count[in_cells]
        degree[best] = 0
    return chosen


def topology_breakdown(
    matrix: TrafficMatrix,
    k: int = DEFAULT_SUPERNODE_COUNT,
    *,
    strict_core: bool = False,
) -> TopologyBreakdown:
    """Full decomposition: all categories, the totals and the tiling residual.

    Each cell's endpoint fans and supernode roles are read once, and each
    category is a boolean mask over the cells.  The masks are disjoint, so
    a cell is counted at most once.  In order of precedence: a cell whose
    source has fan-out 1 and whose destination has fan-in 1 is an isolated
    link; otherwise a fan-1 end next to a supernode is that supernode's
    leaf; a cell joining two supernodes with fan > 1 at both ends is
    supernode-internal; a fan-1 end next to a core node is a core leaf; core
    to core is the core, and a supernode with fan > 1 next to a core node
    on the other side is supernode traffic.  Core nodes have fan > 1 in
    their role and are not supernodes; a strict core also keeps only fans
    below the first supernode's fan on the same side.
    """
    totals = matrix.aggregates()
    supers = find_supernodes(matrix, k)
    out_degree, in_degree = matrix.out_degree, matrix.in_degree
    is_super = np.zeros(matrix.n_nodes, dtype=bool)
    is_super[supers] = True
    i_core = (out_degree > 1) & ~is_super
    j_core = (in_degree > 1) & ~is_super
    if strict_core and supers:
        i_core &= out_degree < out_degree[supers[0]]
        j_core &= in_degree < in_degree[supers[0]]
    row, col, count = matrix.row, matrix.col, matrix.count
    leaf_src, leaf_dst = out_degree[row] == 1, in_degree[col] == 1
    super_src, super_dst = is_super[row], is_super[col]
    core_src, core_dst = i_core[row], j_core[col]
    hub = (super_src & core_dst & ~leaf_src) | (super_dst & core_src & ~leaf_dst)
    categories = {
        "isolated_links": _cell_stats(matrix, leaf_src & leaf_dst),
        "supernode_leaves": _sided_stats(
            matrix, super_dst & leaf_src & ~leaf_dst, super_src & leaf_dst & ~leaf_src
        ),
        "supernodes": CategoryStats(
            sources=int(np.count_nonzero(out_degree[supers])),
            packets=int(count[hub].sum()),
            links=int(np.count_nonzero(hub)),
            destinations=int(np.count_nonzero(in_degree[supers])),
        ),
        "core": _cell_stats(matrix, core_src & core_dst),
        "core_leaves": _sided_stats(matrix, leaf_src & core_dst, leaf_dst & core_src),
    }
    internal = _cell_stats(matrix, super_src & super_dst & ~leaf_src & ~leaf_dst)
    tiled_packets = internal.packets + sum(c.packets for c in categories.values())
    tiled_links = internal.links + sum(c.links for c in categories.values())
    return TopologyBreakdown(
        categories=categories,
        supernode_ids=tuple(matrix.node_names(supers)),
        supernode_internal=internal,
        totals=totals,
        residual_packets=totals.packets - tiled_packets,
        residual_links=totals.links - tiled_links,
    )

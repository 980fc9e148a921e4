"""Traffic topology decomposition.

Splits a traffic matrix into structural categories — isolated links,
supernode leaves, supernodes, core, and core leaves — and reports each
category's share of sources, packets, links, and destinations.  Every matrix
cell lands in exactly one packet-carrying class, so the per-category packet
and link counts tile the matrix totals exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from .matrix import AggregateSummary, TrafficMatrix

DEFAULT_SUPERNODE_COUNT = 5

CATEGORY_ORDER = (
    "isolated_links",
    "supernode_leaves",
    "supernodes",
    "core",
    "core_leaves",
)

TOPOLOGY_CSV_HEADER = (
    "category",
    "sources",
    "packets",
    "links",
    "destinations",
    "frac_sources",
    "frac_packets",
    "frac_links",
    "frac_destinations",
)


@dataclass(frozen=True)
class CategoryStats:
    """Counts attributed to one topology category."""

    sources: int
    packets: int
    links: int
    destinations: int

    def __post_init__(self):
        for name in ("sources", "packets", "links", "destinations"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.links > self.packets:
            raise ValueError(
                f"links ({self.links}) cannot exceed packets ({self.packets})"
            )


ZERO_STATS = CategoryStats(sources=0, packets=0, links=0, destinations=0)


@dataclass(frozen=True)
class TopologyBreakdown:
    """Full decomposition of one matrix plus per-category fractions."""

    categories: Dict[str, CategoryStats]
    supernode_ids: Tuple[str, ...]
    supernode_internal: CategoryStats
    totals: AggregateSummary
    fractions: Dict[str, "CategoryFractions"]
    residual_packets: int
    residual_links: int


@dataclass(frozen=True)
class CategoryFractions:
    """A category's share of each matrix total, each in [0, 1]."""

    sources: float
    packets: float
    links: float
    destinations: float

    def __post_init__(self):
        for name in ("sources", "packets", "links", "destinations"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"fraction {name} must be in [0, 1], got {value}")


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


def isolated_links(matrix: TrafficMatrix) -> CategoryStats:
    """Links whose source has fan-out 1 and whose destination has fan-in 1.

    Structurally, isolated sources, links, and destinations are all equal:
    each surviving cell is its row's and its column's only entry.
    """
    cells = (matrix.out_degree[matrix.row] == 1) & (matrix.in_degree[matrix.col] == 1)
    links = int(np.count_nonzero(cells))
    return CategoryStats(
        sources=links,
        packets=int(matrix.count[cells].sum()),
        links=links,
        destinations=links,
    )


def find_supernodes(
    matrix: TrafficMatrix, k: int = DEFAULT_SUPERNODE_COUNT
) -> List[str]:
    """Up to k nodes by combined fan-out + fan-in, found by elimination.

    After each pick the node's row and column are removed and degrees are
    recomputed, so later picks reflect the residual graph.  Ties go to the
    larger total packet volume, then the lexicographically smaller key.
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
    return matrix.node_names(chosen)


def supernode_leaves(
    matrix: TrafficMatrix, supernodes: Sequence[str]
) -> CategoryStats:
    """Degree-1 nodes whose only link touches a supernode.

    A cell that also qualifies as an isolated link (both endpoints degree 1)
    stays with the isolated category, so degree-1 nodes are never counted
    twice.  A degree-1 node has one cell, so it is the leaf of one supernode.
    """
    is_super = matrix.node_mask(supernodes)
    out_r, in_c = matrix.out_degree[matrix.row], matrix.in_degree[matrix.col]
    source_cells = is_super[matrix.col] & (out_r == 1) & (in_c != 1)
    dest_cells = is_super[matrix.row] & (in_c == 1) & (out_r != 1)
    return _sided_stats(matrix, source_cells, dest_cells)


def _core_masks(
    matrix: TrafficMatrix, supernodes: Sequence[str], strict_inequality: bool
) -> Tuple[np.ndarray, np.ndarray]:
    if strict_inequality and supernodes:
        first = matrix.node_mask(supernodes[:1])
        out_cap = matrix.out_degree[first].max(initial=0)
        in_cap = matrix.in_degree[first].max(initial=0)
        return (
            (1 < matrix.out_degree) & (matrix.out_degree < out_cap),
            (1 < matrix.in_degree) & (matrix.in_degree < in_cap),
        )
    ordinary = ~matrix.node_mask(supernodes)
    return (matrix.out_degree > 1) & ordinary, (matrix.in_degree > 1) & ordinary


def core_membership(
    matrix: TrafficMatrix,
    supernodes: Sequence[str],
    *,
    strict_inequality: bool = False,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Multiply-connected sources and destinations, excluding supernodes.

    Default semantics drop the supernode identities from the fan-above-1
    sets.  The strict_inequality variant instead keeps nodes whose fan lies
    strictly between 1 and the first supernode's fan on the same side, which
    can differ when later supernodes' fans match or trail other core nodes.
    """
    i_core, j_core = _core_masks(matrix, supernodes, strict_inequality)
    return (
        frozenset(matrix.node_names(np.flatnonzero(i_core))),
        frozenset(matrix.node_names(np.flatnonzero(j_core))),
    )


def core_stats(
    matrix: TrafficMatrix, i_core: FrozenSet[str], j_core: FrozenSet[str]
) -> CategoryStats:
    """Stats of the cells from a core source to a core destination."""
    return _core_stats(matrix, matrix.node_mask(i_core), matrix.node_mask(j_core))


def _core_stats(
    matrix: TrafficMatrix, i_core: np.ndarray, j_core: np.ndarray
) -> CategoryStats:
    return _cell_stats(matrix, i_core[matrix.row] & j_core[matrix.col])


def core_leaves(
    matrix: TrafficMatrix,
    i_core: FrozenSet[str],
    j_core: FrozenSet[str],
) -> CategoryStats:
    """Degree-1 nodes whose only link lands on (or comes from) a core node."""
    return _core_leaves(
        matrix, matrix.node_mask(i_core), matrix.node_mask(j_core)
    )


def _core_leaves(
    matrix: TrafficMatrix, i_core: np.ndarray, j_core: np.ndarray
) -> CategoryStats:
    source_cells = (matrix.out_degree[matrix.row] == 1) & j_core[matrix.col]
    dest_cells = (matrix.in_degree[matrix.col] == 1) & i_core[matrix.row]
    return _sided_stats(matrix, source_cells, dest_cells)


def _supernode_category(
    matrix: TrafficMatrix,
    is_super: np.ndarray,
    j_core: np.ndarray,
    i_core: np.ndarray,
) -> CategoryStats:
    """The supernodes' own traffic with the core (leaf cells excluded).

    Sources/destinations count supernode identities active in each role;
    links/packets cover the cells joining a supernode to a core node on the
    other side.  Supernode-to-supernode cells are tracked separately.  With
    a strict core a cell can join two supernodes that are both core nodes;
    it is then counted from each side.
    """
    row, col, count = matrix.row, matrix.col, matrix.count
    outgoing = is_super[row] & j_core[col] & (matrix.out_degree[row] > 1)
    incoming = is_super[col] & i_core[row] & (matrix.in_degree[col] > 1)
    return CategoryStats(
        sources=int(np.count_nonzero(is_super & (matrix.out_degree > 0))),
        packets=int(count[outgoing].sum() + count[incoming].sum()),
        links=int(np.count_nonzero(outgoing) + np.count_nonzero(incoming)),
        destinations=int(np.count_nonzero(is_super & (matrix.in_degree > 0))),
    )


def _supernode_internal(
    matrix: TrafficMatrix, is_super: np.ndarray
) -> CategoryStats:
    """Cells with supernodes at both ends and neither role at degree 1.

    A degree-1 role hands the cell to the isolated or leaf categories even
    between two supernodes, so only fan > 1 on both sides counts here.
    """
    row, col = matrix.row, matrix.col
    cells = (
        is_super[row]
        & is_super[col]
        & (matrix.out_degree[row] > 1)
        & (matrix.in_degree[col] > 1)
    )
    return _cell_stats(matrix, cells)


def _fraction(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _fractions(stats: CategoryStats, totals: AggregateSummary) -> CategoryFractions:
    return CategoryFractions(
        sources=_fraction(stats.sources, totals.unique_sources),
        packets=_fraction(stats.packets, totals.valid_packets),
        links=_fraction(stats.links, totals.unique_links),
        destinations=_fraction(stats.destinations, totals.unique_destinations),
    )


def topology_breakdown(
    matrix: TrafficMatrix,
    k: int = DEFAULT_SUPERNODE_COUNT,
    *,
    strict_core: bool = False,
) -> TopologyBreakdown:
    """Full decomposition: all categories, fractions, and the tiling residual."""
    totals = matrix.aggregates()
    if totals.valid_packets == 0:
        zero = {name: ZERO_STATS for name in CATEGORY_ORDER}
        zero_frac = {
            name: CategoryFractions(0.0, 0.0, 0.0, 0.0) for name in CATEGORY_ORDER
        }
        return TopologyBreakdown(
            categories=zero,
            supernode_ids=(),
            supernode_internal=ZERO_STATS,
            totals=totals,
            fractions=zero_frac,
            residual_packets=0,
            residual_links=0,
        )
    supers = find_supernodes(matrix, k)
    is_super = matrix.node_mask(supers)
    i_core, j_core = _core_masks(matrix, supers, strict_core)
    categories = {
        "isolated_links": isolated_links(matrix),
        "supernode_leaves": supernode_leaves(matrix, supers),
        "supernodes": _supernode_category(matrix, is_super, j_core, i_core),
        "core": _core_stats(matrix, i_core, j_core),
        "core_leaves": _core_leaves(matrix, i_core, j_core),
    }
    internal = _supernode_internal(matrix, is_super)
    tiled_packets = internal.packets + sum(c.packets for c in categories.values())
    tiled_links = internal.links + sum(c.links for c in categories.values())
    fractions = {name: _fractions(stats, totals) for name, stats in categories.items()}
    return TopologyBreakdown(
        categories=categories,
        supernode_ids=tuple(supers),
        supernode_internal=internal,
        totals=totals,
        fractions=fractions,
        residual_packets=totals.valid_packets - tiled_packets,
        residual_links=totals.unique_links - tiled_links,
    )


def write_topology_csv(path, breakdown: TopologyBreakdown) -> int:
    """One row per category, plus supernode-internal and residual accounting.

    Returns the number of data rows written.
    """
    totals = breakdown.totals
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOPOLOGY_CSV_HEADER)
        for name in CATEGORY_ORDER:
            stats = breakdown.categories[name]
            frac = breakdown.fractions[name]
            writer.writerow(
                [
                    name,
                    stats.sources,
                    stats.packets,
                    stats.links,
                    stats.destinations,
                    repr(frac.sources),
                    repr(frac.packets),
                    repr(frac.links),
                    repr(frac.destinations),
                ]
            )
        internal = breakdown.supernode_internal
        writer.writerow(
            [
                "supernode_internal",
                internal.sources,
                internal.packets,
                internal.links,
                internal.destinations,
                repr(_fraction(internal.sources, totals.unique_sources)),
                repr(_fraction(internal.packets, totals.valid_packets)),
                repr(_fraction(internal.links, totals.unique_links)),
                repr(_fraction(internal.destinations, totals.unique_destinations)),
            ]
        )
        writer.writerow(
            [
                "residual",
                0,
                breakdown.residual_packets,
                breakdown.residual_links,
                0,
                repr(0.0),
                repr(_fraction(breakdown.residual_packets, totals.valid_packets)),
                repr(_fraction(breakdown.residual_links, totals.unique_links)),
                repr(0.0),
            ]
        )
    return len(CATEGORY_ORDER) + 2

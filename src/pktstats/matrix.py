"""Hypersparse traffic matrices: sorted coordinate arrays of packet counts.

A matrix row is a source address, a column a destination address, and each
stored entry is a positive packet count.  Both roles share one node id space:
the window's addresses, compacted and numbered in lexicographic order, so id
order is name order.  Entries are three integer arrays (row, col, count)
sorted by (row, col); per-node fan and volume arrays are derived once at
construction.  A matrix is built in one step, from a window of
``CodedPackets`` or from a {(src, dst): count} mapping, and is immutable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .ingest import CodedPackets, intern_addresses


@dataclass(frozen=True)
class AggregateSummary:
    """Window-level totals derivable from one matrix."""

    valid_packets: int
    unique_links: int
    unique_sources: int
    unique_destinations: int


def _cells(packets: CodedPackets, weights: Optional[Sequence[int]] = None) -> tuple:
    """(names, nodes, row, col, count) of the coded packets' matrix.

    Each distinct (src, dst) pair is one entry counting its packets, or
    summing ``weights`` when every pair occurs once.
    """
    n = len(packets.src)
    # Sorting the window's own codes keeps the work O(n log n) in the window,
    # whatever the size of a stream-wide table.
    codes = np.concatenate((packets.src, packets.dst))
    nodes, ids = np.unique(codes, return_inverse=True)
    keys = ids[:n] * len(nodes) + ids[n:]
    if weights is None:
        cells, count = np.unique(keys, return_counts=True)
    else:
        order = np.argsort(keys)
        cells, count = keys[order], np.asarray(weights, dtype=np.int64)[order]
    row, col = np.divmod(cells, max(len(nodes), 1))
    return packets.names, nodes, row, col, count


class TrafficMatrix:
    """Sparse nonnegative integer matrix over address-string keys.

    Built by ``from_window`` or ``from_counts`` and immutable afterwards.
    Equality is by content, so any insertion order of the same multiset of
    triples yields equal matrices.

    Arrays (read-only by convention): ``row``, ``col``, ``count`` per entry;
    ``out_degree``, ``in_degree``, ``out_volume``, ``in_volume`` per node id.
    """

    __slots__ = (
        "_names",
        "_nodes",
        "row",
        "col",
        "count",
        "out_degree",
        "in_degree",
        "out_volume",
        "in_volume",
        "total",
    )

    def __init__(self, names, nodes, row, col, count):
        # The cells of _cells: names is a sorted address table, nodes the
        # table index of each node id.
        self._names = names
        self._nodes = nodes
        self.row = row
        self.col = col
        self.count = count
        n = len(nodes)
        self.out_degree = np.bincount(row, minlength=n)
        self.in_degree = np.bincount(col, minlength=n)
        # Weighted bincount sums in float64: exact while a node's packets
        # stay below 2**53.
        self.out_volume = np.bincount(row, weights=count, minlength=n).astype(np.int64)
        self.in_volume = np.bincount(col, weights=count, minlength=n).astype(np.int64)
        self.total = int(count.sum())

    # -- construction ------------------------------------------------------

    @classmethod
    def from_window(cls, window: CodedPackets) -> "TrafficMatrix":
        """Build the matrix of one window; total entries equal window.n_valid."""
        m = cls(*_cells(window))
        if m.total != window.n_valid:
            raise AssertionError(
                f"conservation violated: {m.total} entries != {window.n_valid} packets"
            )
        return m

    @classmethod
    def from_counts(cls, counts: Dict[Tuple[str, str], int]) -> "TrafficMatrix":
        """Build from a {(src, dst): count} mapping of positive integer counts."""
        for count in counts.values():
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"count must be a positive integer, got {count!r}")
        coded = intern_addresses([src for src, _ in counts], [dst for _, dst in counts])
        return cls(*_cells(coded, list(counts.values())))

    # -- node ids ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def node_names(self, nodes: Iterable[int]) -> list:
        names, table = self._names, self._nodes
        return [names[table[i]] for i in nodes]

    def node_mask(self, names: Iterable[str]) -> np.ndarray:
        """Boolean mask over node ids selecting the given names (unknown
        names select nothing)."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        for name in names:
            node = self._node_id(name)
            if node is not None:
                mask[node] = True
        return mask

    def _node_id(self, name: str) -> Optional[int]:
        at = bisect_left(self._names, name)
        if at == len(self._names) or self._names[at] != name:
            return None
        node = int(np.searchsorted(self._nodes, at))
        if node == self.n_nodes or self._nodes[node] != at:
            return None
        return node

    # -- views -------------------------------------------------------------

    @property
    def rows(self) -> Dict[str, Dict[str, int]]:
        """Row-major view src -> dst -> count (built on each access)."""
        rows: Dict[str, Dict[str, int]] = {}
        for src, dst, count in self.entries():
            rows.setdefault(src, {})[dst] = count
        return rows

    @property
    def nnz(self) -> int:
        """Number of stored entries (unique links)."""
        return len(self.count)

    def entries(self) -> Iterator[Tuple[str, str, int]]:
        """All (src, dst, count) triples in sorted (src, dst) order."""
        names = self.node_names(range(self.n_nodes))
        for i, j, count in zip(self.row.tolist(), self.col.tolist(), self.count.tolist()):
            yield names[i], names[j], count

    # -- reductions --------------------------------------------------------

    def _reduction(self, axis: str, mode: str) -> Tuple[np.ndarray, np.ndarray]:
        """(active node ids, their values) of one per-key reduction."""
        if axis == "row":
            degree, volume = self.out_degree, self.out_volume
        elif axis == "col":
            degree, volume = self.in_degree, self.in_volume
        else:
            raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
        if mode not in ("sum", "nnz"):
            raise ValueError(f"mode must be 'sum' or 'nnz', got {mode!r}")
        nodes = np.flatnonzero(degree)
        return nodes, (volume if mode == "sum" else degree)[nodes]

    def reduce(self, axis: str, mode: str) -> Dict[str, int]:
        """Per-key reduction: axis in {row, col}, mode in {sum, nnz}."""
        nodes, values = self._reduction(axis, mode)
        return dict(zip(self.node_names(nodes), values.tolist()))

    def aggregates(self) -> AggregateSummary:
        return AggregateSummary(
            valid_packets=self.total,
            unique_links=self.nnz,
            unique_sources=int(np.count_nonzero(self.out_degree)),
            unique_destinations=int(np.count_nonzero(self.in_degree)),
        )

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return list(self.entries()) == list(other.entries())

    __hash__ = None  # equal by content, unlike the default identity hash

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(links={self.nnz}, packets={self.total}, "
            f"sources={np.count_nonzero(self.out_degree)})"
        )

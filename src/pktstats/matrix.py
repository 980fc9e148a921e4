"""Hypersparse traffic matrices: sorted coordinate arrays of packet counts.

A matrix row is a source address, a column a destination address, and each
stored entry is a positive packet count.  Both roles share one node id space:
node i is the window's i-th smallest endpoint key, and key order is address
order, so id order is name order.  Entries are three integer arrays (row,
col, count) sorted by (row, col); per-node fan and volume arrays are derived
once at construction.  A matrix is built in one step, from a window of
``CodedPackets``, and is immutable.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .ingest import CodedPackets
from .topology import CategoryStats


def _cells(packets: CodedPackets) -> tuple:
    """(names, nodes, row, col, count) of the packets' matrix: one entry per
    distinct (src, dst) pair; node i is the i-th smallest endpoint key."""
    # Keys are below 2**32, whatever integer type holds them.
    pairs = np.left_shift(packets.src, 32, dtype=np.uint64, casting="unsafe")
    np.bitwise_or(pairs, packets.dst, out=pairs, dtype=np.uint64, casting="unsafe")
    pairs.sort()
    bounds = np.empty(len(pairs) + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    cells, count = pairs[bounds[:-1]], np.diff(bounds)
    del pairs, bounds
    ends = np.concatenate((cells >> 32, cells & 0xFFFFFFFF), dtype=np.uint32)
    nodes, ids = np.unique(ends, return_inverse=True)
    return packets.names, nodes, *ids.reshape(2, -1), count


class TrafficMatrix:
    """Sparse nonnegative integer matrix over address-string keys.

    Built by ``from_window`` and immutable afterwards.

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
        # The cells of _cells: node id i is the address names[nodes[i]].
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

    # -- node ids ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def node_names(self, nodes: Iterable[int]) -> list:
        names, keys = self._names, self._nodes
        return [names[keys[i]] for i in nodes]

    # -- totals ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries (unique links)."""
        return len(self.count)

    def aggregates(self) -> CategoryStats:
        """The whole matrix as one set of cells: its distinct sources, its
        packets, its links (entries) and its distinct destinations."""
        return CategoryStats(
            sources=int(np.count_nonzero(self.out_degree)),
            packets=self.total,
            links=self.nnz,
            destinations=int(np.count_nonzero(self.in_degree)),
        )

"""Hypersparse traffic matrices: sorted coordinate arrays of packet counts.

A matrix row is a source address, a column a destination address, and each
stored entry is a positive packet count.  Both roles share one node id space:
the window's own address table, whose codes already number its addresses in
lexicographic order, so node ids are those codes and id order is name order.
Entries are three integer arrays (row, col, count) sorted by (row, col);
per-node fan and volume arrays are derived once at construction.  A matrix
is built in one step, from a window of ``CodedPackets``, and is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ingest import CodedPackets


@dataclass(frozen=True)
class AggregateSummary:
    """Window-level totals derivable from one matrix."""

    valid_packets: int
    unique_links: int
    unique_sources: int
    unique_destinations: int


def _cells(packets: CodedPackets) -> tuple:
    """(names, row, col, count) of the coded packets' matrix: each distinct
    (src, dst) pair is one entry counting its packets."""
    names = packets.names
    side = max(len(names), 1)
    keys = packets.src.astype(np.intp, copy=False) * side + packets.dst
    cells, count = np.unique(keys, return_counts=True)
    row, col = np.divmod(cells, side)
    return names, row, col, count


class TrafficMatrix:
    """Sparse nonnegative integer matrix over address-string keys.

    Built by ``from_window`` and immutable afterwards.

    Arrays (read-only by convention): ``row``, ``col``, ``count`` per entry;
    ``out_degree``, ``in_degree``, ``out_volume``, ``in_volume`` per node id.
    """

    __slots__ = (
        "_names",
        "row",
        "col",
        "count",
        "out_degree",
        "in_degree",
        "out_volume",
        "in_volume",
        "total",
    )

    def __init__(self, names, row, col, count):
        # The cells of _cells: node id i is the address names[i].
        self._names = names
        self.row = row
        self.col = col
        self.count = count
        n = len(names)
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
        return len(self._names)

    def node_names(self, nodes: Iterable[int]) -> list:
        names = self._names
        return [names[i] for i in nodes]

    # -- totals ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries (unique links)."""
        return len(self.count)

    def aggregates(self) -> AggregateSummary:
        return AggregateSummary(
            valid_packets=self.total,
            unique_links=self.nnz,
            unique_sources=int(np.count_nonzero(self.out_degree)),
            unique_destinations=int(np.count_nonzero(self.in_degree)),
        )

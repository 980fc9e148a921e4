"""Hypersparse traffic matrices: sorted coordinate arrays of packet counts.

A matrix row is a source address, a column a destination address, and each
stored entry is a positive packet count.  Both roles share one node id space:
the window's addresses, compacted and numbered in lexicographic order, so id
order is name order.  Entries are three integer arrays (row, col, count)
sorted by (row, col); per-node fan and volume arrays are derived once at
construction.  Name-keyed dict views are built from the arrays on request.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import countOf, itemgetter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from .fileio import open_text_read, open_text_write
from .ingest import CodedPackets, PacketWindow, intern_addresses, is_valid_packet


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


_CELL_SLOTS = (
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


class TrafficMatrix:
    """Sparse nonnegative integer matrix over address-string keys.

    ``TrafficMatrix()`` is open for ``accumulate`` until ``freeze()``, and
    reading its entries before then raises ``ValueError``; the factory
    methods return frozen matrices.  Equality is by content, so any
    insertion order of the same multiset of triples yields equal matrices.

    Arrays (read-only by convention): ``row``, ``col``, ``count`` per entry;
    ``out_degree``, ``in_degree``, ``out_volume``, ``in_volume`` per node id.
    """

    __slots__ = ("_pending",) + _CELL_SLOTS

    def __init__(self):
        self._pending: Optional[Dict[Tuple[str, str], int]] = {}

    def __getattr__(self, name):
        # Reached only for slots that are still unset: the arrays of a
        # matrix that has not been frozen yet.
        if name in _CELL_SLOTS and self._pending is not None:
            raise ValueError("matrix is not frozen")
        raise AttributeError(name)

    def _set_cells(self, names, nodes, row, col, count) -> None:
        # names: a sorted address table; nodes: table index of each node id.
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

    @classmethod
    def _from_cells(cls, names, nodes, row, col, count) -> "TrafficMatrix":
        m = cls.__new__(cls)
        m._pending = None
        m._set_cells(names, nodes, row, col, count)
        return m

    # -- construction ------------------------------------------------------

    def accumulate(self, src: str, dst: str, count: int = 1) -> "TrafficMatrix":
        """Add ``count`` packets to entry (src, dst); creates it if missing."""
        if self._pending is None:
            raise ValueError("matrix is frozen")
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"count must be a positive integer, got {count!r}")
        key = (src, dst)
        self._pending[key] = self._pending.get(key, 0) + count
        return self

    def freeze(self) -> "TrafficMatrix":
        if self._pending is not None:
            pending, self._pending = self._pending, None
            srcs = [src for src, _ in pending]
            dsts = [dst for _, dst in pending]
            coded = intern_addresses(srcs, dsts)
            self._set_cells(*_cells(coded, list(pending.values())))
        return self

    @classmethod
    def from_window(cls, window) -> "TrafficMatrix":
        """Build the matrix of one window; total entries equal window.n_valid.

        ``window`` is a ``PacketWindow`` of records, whose addresses are coded
        here, or ``CodedPackets`` whose packets are all valid.
        """
        if isinstance(window, PacketWindow):
            records = window.records
            n = len(records)
            if (
                countOf(map(itemgetter(3), records), "TCP") != n
                or countOf(map(itemgetter(4), records), 4) != n
            ):
                bad = next(r for r in records if not is_valid_packet(r))
                raise ValueError(f"window contains an invalid packet: {bad!r}")
            srcs = list(map(itemgetter(1), records))
            dsts = list(map(itemgetter(2), records))
            window = intern_addresses(srcs, dsts)
        m = cls._from_cells(*_cells(window))
        if m.total != window.n_valid:
            raise AssertionError(
                f"conservation violated: {m.total} entries != {window.n_valid} packets"
            )
        return m

    @classmethod
    def from_counts(cls, counts: Dict[Tuple[str, str], int]) -> "TrafficMatrix":
        """Build from a {(src, dst): count} mapping (test/tool convenience)."""
        m = cls()
        for (src, dst), count in counts.items():
            m.accumulate(src, dst, count)
        return m.freeze()

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

    def _nested(self, outer: np.ndarray, inner: np.ndarray) -> Dict[str, Dict[str, int]]:
        names = self.node_names(range(self.n_nodes))
        nested: Dict[str, Dict[str, int]] = {}
        for i, j, count in zip(outer.tolist(), inner.tolist(), self.count.tolist()):
            nested.setdefault(names[i], {})[names[j]] = count
        return nested

    @property
    def rows(self) -> Dict[str, Dict[str, int]]:
        """Row-major view src -> dst -> count (built on each access)."""
        return self._nested(self.row, self.col)

    @property
    def cols(self) -> Dict[str, Dict[str, int]]:
        """Column-major view dst -> src -> count (built on each access)."""
        return self._nested(self.col, self.row)

    @property
    def row_keys(self) -> Tuple[str, ...]:
        return tuple(self.node_names(np.flatnonzero(self.out_degree)))

    @property
    def col_keys(self) -> Tuple[str, ...]:
        return tuple(self.node_names(np.flatnonzero(self.in_degree)))

    @property
    def nnz(self) -> int:
        """Number of stored entries (unique links)."""
        return len(self.count)

    def entry(self, src: str, dst: str) -> int:
        return self.rows.get(src, {}).get(dst, 0)

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

    def submatrix(
        self, row_keys: Optional[Set[str]], col_keys: Optional[Set[str]]
    ) -> "TrafficMatrix":
        """Restriction to the given key sets (None selects everything)."""
        return TrafficMatrix.from_counts(
            {
                (src, dst): count
                for src, dst, count in self.entries()
                if (row_keys is None or src in row_keys)
                and (col_keys is None or dst in col_keys)
            }
        )

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

    __hash__ = None  # mutable-until-frozen; not hashable

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:
        if self._pending is not None:
            return f"TrafficMatrix(unfrozen, pending={len(self._pending)})"
        return (
            f"TrafficMatrix(links={self.nnz}, packets={self.total}, "
            f"sources={np.count_nonzero(self.out_degree)})"
        )


def write_matrix_dump(path, matrix: TrafficMatrix) -> int:
    """Write sorted ``src,dst,count`` triples; returns the row count."""
    n = 0
    with open_text_write(path) as fh:
        for src, dst, count in matrix.entries():
            fh.write(f"{src},{dst},{count}\n")
            n += 1
    return n


def read_matrix_dump(path) -> TrafficMatrix:
    """Read a triple-list dump back into a matrix."""
    counts: Dict[Tuple[str, str], int] = {}
    with open_text_read(path) as fh:
        for line_number, line in enumerate(fh, 1):
            parts = line.rstrip("\r\n").split(",")
            if len(parts) != 3:
                raise ValueError(f"line {line_number}: expected 3 fields")
            src, dst, raw = parts
            count = int(raw)
            if count < 1:
                raise ValueError(f"line {line_number}: count must be positive")
            counts[(src, dst)] = counts.get((src, dst), 0) + count
    return TrafficMatrix.from_counts(counts)

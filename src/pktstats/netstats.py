"""Per-window network quantities and binary-logarithmic pooling.

Five quantities are read from a traffic matrix's arrays (source packets,
source fan-out, link packets, destination fan-in, destination packets).
``pool_quantity`` turns one into a pooled distribution on arrays: each
value's share of the keys, summed in ascending value order, differenced at
power-of-two bin edges; bin 0 covers exactly degree 1 so leaf nodes stay
separated from everything else.  Across windows, per-bin means and population standard
deviations summarize the distribution.  The dict-based definitions of the
same chain live with the tests (``tests/dict_reference.py``), which check
that the pools match them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from .matrix import TrafficMatrix


class QuantityKind(Enum):
    SOURCE_PACKETS = "source_packets"
    SOURCE_FAN_OUT = "source_fan_out"
    LINK_PACKETS = "link_packets"
    DESTINATION_FAN_IN = "destination_fan_in"
    DESTINATION_PACKETS = "destination_packets"


ALL_KINDS: Tuple[QuantityKind, ...] = tuple(QuantityKind)


# The per-node matrix array behind each per-node quantity, whose nonzero
# values are that quantity; links are the entries.
_REDUCTIONS = {
    QuantityKind.SOURCE_PACKETS: "out_volume",
    QuantityKind.SOURCE_FAN_OUT: "out_degree",
    QuantityKind.DESTINATION_FAN_IN: "in_degree",
    QuantityKind.DESTINATION_PACKETS: "in_volume",
}


def bin_edges(d_max: int) -> Tuple[int, ...]:
    """Powers of two 1, 2, 4, ... up to the smallest 2**I >= d_max."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    top = (d_max - 1).bit_length()
    return tuple(1 << i for i in range(top + 1))


@dataclass(frozen=True)
class PooledDistribution:
    """Binary-log pooled distribution, possibly averaged across windows."""

    bin_edges: Tuple[int, ...]
    values: Tuple[float, ...]
    sigmas: Tuple[float, ...]
    n_windows: int
    d_max: int
    kind: Optional[str] = None

    def __post_init__(self):
        if len(self.values) != len(self.bin_edges) or len(self.sigmas) != len(
            self.bin_edges
        ):
            raise ValueError("values/sigmas must align with bin_edges")
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if self.bin_edges != bin_edges(self.d_max):
            raise ValueError("bin edges do not match d_max")

    def total(self) -> float:
        return math.fsum(self.values)


def _pool_cumulative(
    degrees: np.ndarray, cums: np.ndarray, kind: Optional[str]
) -> PooledDistribution:
    """Pool ascending degrees and their cumulative masses into power-of-two
    bins.

    Bin i holds the cumulative difference across (2**(i-1), 2**i]; bin 0 is
    exactly degree 1.  Interior zero bins are stored explicitly.
    """
    d_max = int(degrees[-1])
    edges = bin_edges(d_max)
    at = np.searchsorted(degrees, edges, side="right")
    here = np.where(at > 0, cums[at - 1], 0.0)
    values = np.diff(here, prepend=0.0)
    zeros = (0.0,) * len(edges)
    return PooledDistribution(
        bin_edges=edges,
        values=tuple(values.tolist()),
        sigmas=zeros,
        n_windows=1,
        d_max=d_max,
        kind=kind,
    )


def window_mean_std(pools: Sequence[PooledDistribution]) -> PooledDistribution:
    """Per-bin mean and population sigma across single-window pools.

    Shorter distributions are padded with zero bins up to the longest edge
    list; the result's d_max is the largest input d_max.  Exactly-rounded
    per-bin sums make the reduction independent of input order.
    """
    if not pools:
        raise ValueError("no pooled distributions to reduce")
    kinds = {p.kind for p in pools}
    if len(kinds) != 1:
        raise ValueError(f"mixed quantity kinds {sorted(map(str, kinds))}")
    for p in pools:
        if p.n_windows != 1:
            raise ValueError("inputs must be single-window distributions")
    d_max = max(p.d_max for p in pools)
    edges = bin_edges(d_max)
    width = len(edges)
    n = len(pools)
    columns: List[List[float]] = [[] for _ in range(width)]
    for p in pools:
        vals = p.values
        for i in range(width):
            columns[i].append(vals[i] if i < len(vals) else 0.0)
    means = [math.fsum(col) / n for col in columns]
    sigmas = [
        math.sqrt(math.fsum((x - mean) ** 2 for x in col) / n)
        for col, mean in zip(columns, means)
    ]
    return PooledDistribution(
        bin_edges=edges,
        values=tuple(means),
        sigmas=tuple(sigmas),
        n_windows=n,
        d_max=d_max,
        kind=pools[0].kind,
    )


def pool_quantity(
    matrix: TrafficMatrix, kind: QuantityKind
) -> PooledDistribution:
    """Chain quantity -> histogram -> pmf -> cumulative -> pooled, on arrays:
    each degree's count over the key count, summed in ascending degree
    order."""
    if kind is QuantityKind.LINK_PACKETS:
        values = matrix.count
    else:
        per_node = getattr(matrix, _REDUCTIONS[kind])
        values = per_node[np.flatnonzero(per_node)]
    if not len(values):
        raise ValueError(f"matrix has no {kind.value} entries")
    degrees, counts = np.unique(values, return_counts=True)
    cums = np.cumsum(counts / len(values))
    return _pool_cumulative(degrees, cums, kind.value)

"""Per-window network quantities and binary-logarithmic pooling.

Five quantities are extracted from a traffic matrix (source packets, source
fan-out, link packets, destination fan-in, destination packets).  Their
histograms are normalized to probabilities, summed cumulatively, and pooled
into power-of-two bins; bin 0 covers exactly degree 1 so leaf nodes stay
separated from everything else.  Across windows, per-bin means and population standard
deviations summarize the distribution.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .matrix import TrafficMatrix


class QuantityKind(Enum):
    SOURCE_PACKETS = "source_packets"
    SOURCE_FAN_OUT = "source_fan_out"
    LINK_PACKETS = "link_packets"
    DESTINATION_FAN_IN = "destination_fan_in"
    DESTINATION_PACKETS = "destination_packets"


ALL_KINDS: Tuple[QuantityKind, ...] = tuple(QuantityKind)

POOLED_CSV_HEADER = ("kind", "bin_edge", "mean", "sigma", "n_windows")


# The matrix reduction behind each per-node quantity; links are the entries.
_REDUCTIONS = {
    QuantityKind.SOURCE_PACKETS: ("row", "sum"),
    QuantityKind.SOURCE_FAN_OUT: ("row", "nnz"),
    QuantityKind.DESTINATION_FAN_IN: ("col", "nnz"),
    QuantityKind.DESTINATION_PACKETS: ("col", "sum"),
}


def network_quantity(matrix: TrafficMatrix, kind: QuantityKind) -> Dict[str, int]:
    """Extract one quantity as a key -> positive-count vector.

    Sources are keyed by source address, destinations by destination address,
    and links by the concatenated "src→dst" pair.
    """
    if kind is QuantityKind.LINK_PACKETS:
        return {f"{src}→{dst}": count for src, dst, count in matrix.entries()}
    return matrix.reduce(*_reduction(kind))


def _reduction(kind: QuantityKind) -> Tuple[str, str]:
    if kind not in _REDUCTIONS:
        raise ValueError(f"unknown quantity kind {kind!r}")
    return _REDUCTIONS[kind]


def degree_histogram(vector: Dict[str, int]) -> Dict[int, int]:
    """Count how many keys take each value."""
    return dict(Counter(vector.values()))


def probability(histogram: Dict[int, int]) -> Dict[int, float]:
    """Normalize a histogram to a probability mass function over degrees."""
    if not histogram:
        raise ValueError("empty histogram has no probability distribution")
    total = sum(histogram.values())
    return {degree: count / total for degree, count in sorted(histogram.items())}

def cumulative(pmf: Dict[int, float]) -> Dict[int, float]:
    """Running sum of the pmf in ascending degree order."""
    if not pmf:
        raise ValueError("empty distribution")
    out: Dict[int, float] = {}
    running = 0.0
    for degree in sorted(pmf):
        running += pmf[degree]
        out[degree] = running
    return out


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


def log_pool(
    cumulative_map: Dict[int, float], d_max: int, kind: Optional[str] = None
) -> PooledDistribution:
    """Pool a cumulative distribution into power-of-two bins.

    Bin i holds the cumulative difference across (2**(i-1), 2**i]; bin 0 is
    exactly degree 1.  Interior zero bins are stored explicitly.
    """
    if not cumulative_map:
        raise ValueError("empty cumulative distribution")
    degrees = sorted(cumulative_map)
    if degrees[0] < 1:
        raise ValueError("degrees must be >= 1")
    if d_max != degrees[-1]:
        raise ValueError(
            f"d_max {d_max} does not match the largest degree {degrees[-1]}"
        )
    cums = np.array([cumulative_map[d] for d in degrees], dtype=np.float64)
    return _pool_cumulative(np.array(degrees), cums, kind)


def _pool_cumulative(
    degrees: np.ndarray, cums: np.ndarray, kind: Optional[str]
) -> PooledDistribution:
    """log_pool over ascending degrees and their cumulative masses."""
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
    """Chain quantity -> histogram -> pmf -> cumulative -> pooled, on arrays.

    Same values as network_quantity, degree_histogram, probability,
    cumulative and log_pool: each degree's count over the key count, summed
    in ascending degree order.
    """
    if kind is QuantityKind.LINK_PACKETS:
        values = matrix.count
    else:
        _, values = matrix._reduction(*_reduction(kind))
    if not len(values):
        raise ValueError(f"matrix has no {kind.value} entries")
    degrees, counts = np.unique(values, return_counts=True)
    cums = np.cumsum(counts / len(values))
    return _pool_cumulative(degrees, cums, kind.value)


def write_pooled_csv(path, pooled: PooledDistribution) -> int:
    """Write one pooled distribution; returns the data row count."""
    if pooled.kind is None:
        raise ValueError("pooled distribution must carry a quantity kind")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POOLED_CSV_HEADER)
        for edge, mean, sigma in zip(pooled.bin_edges, pooled.values, pooled.sigmas):
            writer.writerow([pooled.kind, edge, repr(mean), repr(sigma), pooled.n_windows])
    return len(pooled.bin_edges)

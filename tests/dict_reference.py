"""Dict-based reference definitions that the package's array code is checked
against.

- The quantity chain: ``network_quantity`` as a key -> count dict, then
  ``degree_histogram``, ``probability``, ``cumulative`` and ``log_pool``.
  ``pktstats.netstats.pool_quantity`` reproduces it bit for bit.
- Name-keyed views of a ``TrafficMatrix``: ``rows``, ``entries`` and
  ``reduce``, built from its arrays.
- The model density ``rho``, its delta gradient ``rho_grad_delta``, and
  ``rho_sum``, the normalization sum by the package's own range sum
  (exact head plus Euler-Maclaurin tail).
"""

from collections import Counter
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from pktstats.netstats import PooledDistribution, QuantityKind, _pool_cumulative
from pktstats.zm import EXACT_SUM_TERMS, ZmParams, _range_rho_sum

# The matrix reduction behind each per-node quantity; links are the entries.
_REDUCTIONS = {
    QuantityKind.SOURCE_PACKETS: ("row", "sum"),
    QuantityKind.SOURCE_FAN_OUT: ("row", "nnz"),
    QuantityKind.DESTINATION_FAN_IN: ("col", "nnz"),
    QuantityKind.DESTINATION_PACKETS: ("col", "sum"),
}


# -- name-keyed matrix views -------------------------------------------------


def rows(matrix) -> Dict[str, Dict[str, int]]:
    """Row-major view src -> dst -> count."""
    out: Dict[str, Dict[str, int]] = {}
    for src, dst, count in entries(matrix):
        out.setdefault(src, {})[dst] = count
    return out


def entries(matrix) -> Iterator[Tuple[str, str, int]]:
    """All (src, dst, count) triples in sorted (src, dst) order."""
    names = matrix.node_names(range(matrix.n_nodes))
    for i, j, count in zip(matrix.row.tolist(), matrix.col.tolist(), matrix.count.tolist()):
        yield names[i], names[j], count


def reduce(matrix, axis: str, mode: str) -> Dict[str, int]:
    """Per-key reduction: axis in {row, col}, mode in {sum, nnz}."""
    if axis == "row":
        degree, volume = matrix.out_degree, matrix.out_volume
    elif axis == "col":
        degree, volume = matrix.in_degree, matrix.in_volume
    else:
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    if mode not in ("sum", "nnz"):
        raise ValueError(f"mode must be 'sum' or 'nnz', got {mode!r}")
    nodes = np.flatnonzero(degree)
    values = (volume if mode == "sum" else degree)[nodes]
    return dict(zip(matrix.node_names(nodes), values.tolist()))


# -- the quantity chain ------------------------------------------------------


def network_quantity(matrix, kind: QuantityKind) -> Dict[str, int]:
    """Extract one quantity as a key -> positive-count vector.

    Sources are keyed by source address, destinations by destination address,
    and links by the concatenated "src→dst" pair.
    """
    if kind is QuantityKind.LINK_PACKETS:
        return {f"{src}→{dst}": count for src, dst, count in entries(matrix)}
    return reduce(matrix, *_REDUCTIONS[kind])


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


# -- the degree model --------------------------------------------------------


def rho(d: int, alpha: float, delta: float) -> float:
    """Unnormalized model density at degree d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return (d + delta) ** (-alpha)


def rho_grad_delta(d: int, alpha: float, delta: float) -> float:
    """Partial derivative of rho with respect to delta."""
    return -alpha * rho(d, alpha + 1.0, delta)


def rho_sum(params: ZmParams, exact_terms: int = EXACT_SUM_TERMS) -> float:
    """Normalization sum of rho over d = 1..d_max."""
    return _range_rho_sum(params.alpha, params.delta, 0, params.d_max, exact_terms)

"""pktstats: hypersparse traffic-matrix statistics, model fits, topology.

Turns packet-record streams into per-window traffic matrices, extracts
heavy-tailed network quantity distributions with logarithmic pooling, fits a
two-parameter degree model, and decomposes traffic into structural topology
categories.  The CLI entry points are ``pktstats generate`` and
``pktstats analyze``.
"""

__version__ = "0.1.0"

from .ingest import iter_windows, read_packet_csv
from .matrix import TrafficMatrix
from .netstats import (
    ALL_KINDS,
    QuantityKind,
    cumulative,
    degree_histogram,
    log_pool,
    network_quantity,
    pool_quantity,
    probability,
)
from .zm import (
    ZmParams,
    infer_parameters,
    model_distribution,
    rho,
    rho_grad_delta,
    rho_sum,
    train_delta,
)
from .topology import topology_breakdown
from .generator import (
    GeneratorSpec,
    generate_synthetic,
    sample_zm_degrees,
    write_packet_csv,
)
from .pipeline import RunConfig, analyze_window, run_analyze

__all__ = [
    "ALL_KINDS",
    "GeneratorSpec",
    "QuantityKind",
    "RunConfig",
    "TrafficMatrix",
    "ZmParams",
    "analyze_window",
    "cumulative",
    "degree_histogram",
    "generate_synthetic",
    "infer_parameters",
    "iter_windows",
    "log_pool",
    "model_distribution",
    "network_quantity",
    "pool_quantity",
    "probability",
    "read_packet_csv",
    "rho",
    "rho_grad_delta",
    "rho_sum",
    "run_analyze",
    "sample_zm_degrees",
    "topology_breakdown",
    "train_delta",
    "write_packet_csv",
]

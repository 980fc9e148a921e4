"""pktstats: hypersparse traffic-matrix statistics, model fits, topology.

Turns packet-record streams into per-window traffic matrices, extracts
heavy-tailed network quantity distributions with logarithmic pooling, fits a
two-parameter degree model, and decomposes traffic into structural topology
categories.  The CLI entry points are ``pktstats generate`` and
``pktstats analyze``.

The names below load their module on first use, so ``import pktstats``
imports no numpy until one of them is needed.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "ALL_KINDS": "netstats",
    "GeneratorSpec": "generator",
    "QuantityKind": "netstats",
    "RunConfig": "pipeline",
    "TrafficMatrix": "matrix",
    "ZmParams": "zm",
    "analyze_window": "pipeline",
    "generate_synthetic": "generator",
    "infer_parameters": "zm",
    "iter_windows": "ingest",
    "model_distribution": "zm",
    "pool_quantity": "netstats",
    "read_packet_csv": "ingest",
    "run_analyze": "pipeline",
    "sample_zm_degrees": "generator",
    "topology_breakdown": "topology",
    "train_delta": "zm",
    "write_packet_csv": "generator",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


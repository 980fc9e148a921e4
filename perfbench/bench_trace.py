"""Per-layer spans of one pktstats CLI run, recorded from outside the package.

The tracer wraps the public functions the pipeline reaches through module or
class attributes, runs ``pktstats.cli.main`` in this process, and keeps per
label the call count, the total seconds and the seconds spent in wrapped
callees, so a layer's self time is its total minus its children.  Nothing in
``pktstats`` is edited: every patched attribute is put back afterwards.

Run as a script it traces one CLI invocation and writes the spans as JSON:

    PYTHONPATH=src python3 perfbench/bench_trace.py --spans spans.json -- \\
        analyze --input traffic.csv --nv 10000 --out report
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Spans:
    """Per-label count, total and child seconds of nested wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, float] = {}
        # Child seconds collected so far by each span that is still open.
        self._open: List[float] = []

    def wrap(self, label: str, fn: Callable, observe: Optional[Callable] = None):
        """``fn`` timed under ``label``; ``observe(spans, args, result)`` runs
        after each call that returns, outside the timed interval."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            failed = True
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = self.clock() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                rec = self.stats.setdefault(
                    label, {"count": 0, "total": 0.0, "children": 0.0, "errors": 0}
                )
                rec["count"] += 1
                rec["total"] += elapsed
                rec["children"] += children
                rec["errors"] += failed
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def calls(self, label: str) -> int:
        return int(self.stats.get(label, {}).get("count", 0))

    def errors(self, label: str) -> int:
        return int(self.stats.get(label, {}).get("errors", 0))

    def total(self, label: str) -> float:
        return self.stats.get(label, {}).get("total", 0.0)

    def self_time(self, label: str) -> float:
        rec = self.stats.get(label)
        return rec["total"] - rec["children"] if rec else 0.0

    def to_json(self) -> Dict:
        return {"stats": self.stats, "counters": self.counters}

    @classmethod
    def from_json(cls, data: Dict) -> "Spans":
        spans = cls()
        spans.stats = data["stats"]
        spans.counters = data["counters"]
        return spans


def _observe_ingest(spans, args, result):
    _, summary = result
    spans.add("ingest.records_read", summary.total_read)
    spans.add("ingest.records_skipped", summary.total_skipped)


def _observe_matrix(spans, args, matrix):
    spans.add("matrix.links", matrix.nnz)
    spans.add("matrix.packets", matrix.total)


def _observe_supernodes(spans, args, chosen):
    spans.add("topology.supernodes_found", len(chosen))


def _observe_fit(spans, args, fit):
    spans.peak("zm.max_dmax", fit.params.d_max)


def _observe_train(spans, args, trained):
    if trained is None:
        spans.add("zm.alphas_skipped")
    else:
        spans.add("zm.newton_iterations", trained.iterations)


def _observe_write(spans, args, result):
    spans.add("fileio.files")
    spans.add("fileio.bytes", os.path.getsize(args[0]))


def targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span label, observer) for every traced call site.

    Each owner is the namespace the caller looks the name up in, so the
    wrapper is what the pipeline actually calls.
    """
    from pktstats import cli, pipeline, topology, zm
    from pktstats.matrix import TrafficMatrix

    return [
        (pipeline, "load_valid_records", "ingest.parse", _observe_ingest),
        (pipeline, "analyze_window", "pipeline.analyze_window", None),
        (TrafficMatrix, "from_window", "matrix.build", _observe_matrix),
        (pipeline, "pool_quantity", "netstats.pool", None),
        (pipeline, "topology_breakdown", "topology.breakdown", None),
        (topology, "find_supernodes", "topology.supernodes", _observe_supernodes),
        (pipeline, "infer_parameters", "zm.fit", _observe_fit),
        (zm, "train_delta", "zm.train_delta", _observe_train),
        (zm, "model_distribution", "zm.model_distribution", None),
        (pipeline, "write_pooled_csv", "fileio.write", _observe_write),
        (pipeline, "write_fit_json", "fileio.write", _observe_write),
        (pipeline, "write_topology_csv", "fileio.write", _observe_write),
        (cli, "generate_synthetic", "generator.sample", None),
        (cli, "write_packet_csv", "generator.write", None),
    ]


@contextmanager
def traced(spans: Spans) -> Iterator[Spans]:
    """Install span wrappers on every ``targets()`` site and put the
    original attributes back on exit, whatever happens inside."""
    patches = []
    try:
        for owner, name, label, observe in targets():
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(spans.wrap(label, raw.__func__, observe))
            else:
                wrapped = spans.wrap(label, raw, observe)
            setattr(owner, name, wrapped)
            patches.append((owner, name, raw))
        yield spans
    finally:
        for owner, name, raw in reversed(patches):
            setattr(owner, name, raw)


def layer_metrics(spans: Spans, elapsed: Dict[str, float]) -> Dict[str, Tuple]:
    """Per-layer (value, unit) pairs of a traced analyze run.

    ``elapsed`` is the run's ``timings.json`` stage table.  Times are self
    times unless named otherwise: ``zm.fit_s`` includes its training and
    model-evaluation children, which are also reported on their own.
    """
    read = spans.counters.get("ingest.records_read", 0)
    packets = spans.counters.get("matrix.packets", 0)
    parse_s = spans.self_time("ingest.parse")
    build_s = spans.self_time("matrix.build")
    fit_s = spans.total("zm.fit")
    write_s = spans.total("fileio.write")
    return {
        "ingest.parse_s": (parse_s, "s"),
        "ingest.us_per_record": (1e6 * parse_s / read if read else 0.0, "us"),
        "ingest.records_read": (read, "count"),
        "ingest.records_skipped": (
            spans.counters.get("ingest.records_skipped", 0), "count"),
        "pipeline.windows": (spans.calls("pipeline.analyze_window"), "count"),
        # Analysis stage outside the per-window work: slicing and tuple copies.
        "pipeline.window_s": (
            elapsed["analysis_seconds"] - spans.total("pipeline.analyze_window"),
            "s"),
        # Report stage outside fits and file writes: window reductions, manifest.
        "pipeline.report_s": (elapsed["report_seconds"] - fit_s - write_s, "s"),
        "matrix.build_s": (build_s, "s"),
        "matrix.links": (spans.counters.get("matrix.links", 0), "count"),
        "matrix.ns_per_packet": (1e9 * build_s / packets if packets else 0.0, "ns"),
        "netstats.pool_s": (spans.self_time("netstats.pool"), "s"),
        "netstats.pool_calls": (spans.calls("netstats.pool"), "count"),
        "topology.supernodes_s": (spans.self_time("topology.supernodes"), "s"),
        "topology.rest_s": (spans.self_time("topology.breakdown"), "s"),
        "topology.supernodes_found": (
            spans.counters.get("topology.supernodes_found", 0), "count"),
        "zm.fit_s": (fit_s, "s"),
        "zm.fits": (spans.calls("zm.fit"), "count"),
        "zm.fits_failed": (spans.errors("zm.fit"), "count"),
        "zm.train_delta_s": (spans.total("zm.train_delta"), "s"),
        "zm.train_delta_calls": (spans.calls("zm.train_delta"), "count"),
        "zm.alphas_skipped": (spans.counters.get("zm.alphas_skipped", 0), "count"),
        "zm.newton_iterations": (
            spans.counters.get("zm.newton_iterations", 0), "count"),
        "zm.model_distribution_s": (spans.total("zm.model_distribution"), "s"),
        "zm.max_dmax": (spans.counters.get("zm.max_dmax", 0), "count"),
        "fileio.write_s": (write_s, "s"),
        "fileio.files": (spans.counters.get("fileio.files", 0), "count"),
        "fileio.bytes": (spans.counters.get("fileio.bytes", 0), "bytes"),
    }


# Layers whose self times tile a traced analyze run (see layer_metrics).
TILING_LAYERS = (
    "ingest.parse_s",
    "pipeline.window_s",
    "matrix.build_s",
    "netstats.pool_s",
    "topology.supernodes_s",
    "topology.rest_s",
    "zm.fit_s",
    "fileio.write_s",
    "pipeline.report_s",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file for the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from pktstats import cli

    spans = Spans()
    with traced(spans):
        started = time.perf_counter()
        code = cli.main(cli_args)
        main_s = time.perf_counter() - started
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "main_s": main_s, **spans.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

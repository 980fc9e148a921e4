"""End-to-end analysis runs: ingest, window, analyze, fit, report.

A run ingests packet CSVs, cuts the valid stream into fixed-size windows,
analyzes each window (matrix build, per-quantity pooled distributions,
topology decomposition), averages pooled distributions across windows,
fits the degree model to each averaged distribution, and writes a report
directory of CSV/JSON files plus a manifest.

Reports are deterministic: files depend only on the input data and the
configuration, never on worker count, timing, or output location.  Wall-time
diagnostics go to a separate ``timings.json`` that is not part of the report
contract.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .ingest import (
    DOTTED_QUADS,
    CodedPackets,
    IngestSummary,
    intern_addresses,
    read_packet_keys,
)
from .matrix import AggregateSummary, TrafficMatrix
from .netstats import (
    ALL_KINDS,
    PooledDistribution,
    QuantityKind,
    pool_quantity,
    window_mean_std,
    write_pooled_csv,
)
from .topology import (
    DEFAULT_SUPERNODE_COUNT,
    TopologyBreakdown,
    topology_breakdown,
    write_topology_csv,
)
from .zm import (
    AlphaGrid,
    DEFAULT_GRID,
    InferenceError,
    failure_payload,
    fit_payload,
    infer_parameters,
    write_fit_json,
)

DEFAULT_WINDOW_SIZES = (
    10**5,
    3 * 10**5,
    10**6,
    3 * 10**6,
    10**7,
    3 * 10**7,
    10**8,
)


class PipelineConfigError(ValueError):
    """Invalid run configuration (bad sizes, refused output directory, ...)."""


class EmptyRunError(PipelineConfigError):
    """No requested window size yields a single complete window."""

    def __init__(self, message: str, summary: IngestSummary):
        super().__init__(message)
        self.summary = summary


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run depends on.

    ``window_sizes=None`` selects the default ladder, truncated to sizes
    that admit at least two complete windows (so spreads are defined).
    Explicitly listed sizes are honored whenever they admit at least one.
    """

    inputs: Tuple[str, ...]
    out_dir: str
    window_sizes: Optional[Tuple[int, ...]] = None
    quantities: Tuple[QuantityKind, ...] = ALL_KINDS
    grid: AlphaGrid = DEFAULT_GRID
    workers: int = 1
    force: bool = False
    strict_core: bool = False
    supernode_k: int = DEFAULT_SUPERNODE_COUNT

    def __post_init__(self):
        if not self.inputs:
            raise PipelineConfigError("at least one input path is required")
        if self.window_sizes is not None:
            if not self.window_sizes:
                raise PipelineConfigError("window size list cannot be empty")
            for size in self.window_sizes:
                if not isinstance(size, int) or size < 1:
                    raise PipelineConfigError(
                        f"window sizes must be positive integers, got {size!r}"
                    )
        if not self.quantities:
            raise PipelineConfigError("at least one quantity is required")
        seen = set()
        for kind in self.quantities:
            if not isinstance(kind, QuantityKind):
                raise PipelineConfigError(f"not a quantity: {kind!r}")
            if kind in seen:
                raise PipelineConfigError(f"duplicate quantity: {kind.value}")
            seen.add(kind)
        if self.workers < 1:
            raise PipelineConfigError(f"workers must be >= 1, got {self.workers}")
        if self.supernode_k < 1:
            raise PipelineConfigError(
                f"supernode_k must be >= 1, got {self.supernode_k}"
            )


@dataclass(frozen=True)
class WindowAnalysis:
    """Everything computed from one window."""

    index: int
    pooled: Dict[str, PooledDistribution]
    topology: TopologyBreakdown
    aggregates: AggregateSummary


@dataclass
class RunReport:
    """In-memory results of a completed run."""

    out_dir: Path
    manifest: Dict
    mean_pooled: Dict[int, Dict[str, PooledDistribution]]
    fits: Dict[int, Dict[str, Dict]]
    elapsed: Dict[str, float] = field(default_factory=dict)


def analyze_window(
    window: CodedPackets,
    quantities: Sequence[QuantityKind] = ALL_KINDS,
    *,
    supernode_k: int = DEFAULT_SUPERNODE_COUNT,
    strict_core: bool = False,
) -> WindowAnalysis:
    """Single-window analysis; safe to call from any single-threaded host."""
    matrix = TrafficMatrix.from_window(window)
    pooled = {kind.value: pool_quantity(matrix, kind) for kind in quantities}
    breakdown = topology_breakdown(matrix, supernode_k, strict_core=strict_core)
    return WindowAnalysis(
        index=window.index,
        pooled=pooled,
        topology=breakdown,
        aggregates=matrix.aggregates(),
    )


# Workers inherit the coded stream by fork; tasks carry only window offsets.
_SHARED_STREAM: Optional[CodedPackets] = None


def _window_task(args: tuple) -> WindowAnalysis:
    index, size, kind_values, supernode_k, strict_core = args
    window = _SHARED_STREAM.window(index, size)
    kinds = tuple(QuantityKind(value) for value in kind_values)
    return analyze_window(
        window, kinds, supernode_k=supernode_k, strict_core=strict_core
    )


def load_valid_records(
    inputs: Sequence[str],
) -> Tuple[CodedPackets, IngestSummary]:
    """All valid packets from the input files, in order, plus counters.

    Addresses are coded by their dotted-quad keys, so ``DOTTED_QUADS`` is
    the stream's sorted address table.  A stream in which any valid packet
    has another address (IPv6 text in a row marked IPv4) is coded by the
    rank of each address text in its own sorted table instead.
    """
    summary = IngestSummary()
    srcs: List[np.ndarray] = [np.zeros(0, np.uint32)]
    dsts: List[np.ndarray] = [np.zeros(0, np.uint32)]
    texts: List[Tuple[int, str, str]] = []
    for path in inputs:
        for batch in read_packet_keys(path):
            texts.extend((summary.total_valid + i, s, d) for i, s, d in batch.texts)
            summary.total_read += batch.n_read
            summary.total_valid += len(batch.src)
            srcs.append(batch.src)
            dsts.append(batch.dst)
    summary.total_skipped = summary.total_read - summary.total_valid
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    if not texts:
        return CodedPackets(src, dst, DOTTED_QUADS), summary
    src_texts = [DOTTED_QUADS[key] for key in src.tolist()]
    dst_texts = [DOTTED_QUADS[key] for key in dst.tolist()]
    for i, src_text, dst_text in texts:
        src_texts[i] = src_text
        dst_texts[i] = dst_text
    return intern_addresses(src_texts, dst_texts), summary


def _effective_sizes(
    requested: Optional[Tuple[int, ...]], n_valid: int
) -> List[int]:
    if requested is None:
        return [size for size in DEFAULT_WINDOW_SIZES if n_valid // size >= 2]
    return [size for size in requested if n_valid // size >= 1]


def _prepare_out_dir(out_dir: Path, force: bool) -> None:
    if out_dir.exists():
        if any(out_dir.iterdir()):
            if not force:
                raise PipelineConfigError(
                    f"output directory {out_dir} is not empty; pass force to replace"
                )
            for child in sorted(out_dir.iterdir(), reverse=True):
                _remove_tree(child)
    else:
        out_dir.mkdir(parents=True)


def _remove_tree(path: Path) -> None:
    if path.is_dir() and not path.is_symlink():
        for child in path.iterdir():
            _remove_tree(child)
        path.rmdir()
    else:
        path.unlink()


def _analyze_all_windows(
    stream: CodedPackets,
    sizes: Sequence[int],
    cfg: RunConfig,
) -> Dict[int, List[WindowAnalysis]]:
    """Per-size window analyses, reduced in window-index order."""
    global _SHARED_STREAM
    tasks = []
    for size in sizes:
        for index in range(len(stream) // size):
            tasks.append(
                (
                    size,
                    (
                        index,
                        size,
                        tuple(kind.value for kind in cfg.quantities),
                        cfg.supernode_k,
                        cfg.strict_core,
                    ),
                )
            )
    results: Dict[int, List[WindowAnalysis]] = {size: [] for size in sizes}
    _SHARED_STREAM = stream
    try:
        if cfg.workers == 1:
            for size, args in tasks:
                results[size].append(_window_task(args))
        else:
            # Imported here: with what they pull in (socket, logging,
            # selectors) they cost a single-worker run tens of ms at start.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=cfg.workers, mp_context=context
            ) as pool:
                for (size, _), analysis in zip(
                    tasks, pool.map(_window_task, [args for _, args in tasks])
                ):
                    results[size].append(analysis)
    finally:
        _SHARED_STREAM = None
    for size in sizes:
        results[size].sort(key=lambda analysis: analysis.index)
    return results


def run_analyze(cfg: RunConfig) -> RunReport:
    """Execute a full analysis run and write the report directory."""
    out_dir = Path(cfg.out_dir)
    _prepare_out_dir(out_dir, cfg.force)
    started = time.perf_counter()

    stream, summary = load_valid_records(cfg.inputs)
    ingest_done = time.perf_counter()

    sizes = _effective_sizes(cfg.window_sizes, len(stream))
    if not sizes:
        raise EmptyRunError(
            "no window size admits a complete window "
            f"(valid={summary.total_valid}, read={summary.total_read}, "
            f"skipped={summary.total_skipped})",
            summary,
        )

    analyses = _analyze_all_windows(stream, sizes, cfg)
    analysis_done = time.perf_counter()

    files: Dict[str, int] = {}
    mean_pooled: Dict[int, Dict[str, PooledDistribution]] = {}
    fits: Dict[int, Dict[str, Dict]] = {}
    for size in sizes:
        size_dir = out_dir / f"nv_{size:09d}"
        size_dir.mkdir(parents=True, exist_ok=True)
        per_window = analyses[size]
        mean_pooled[size] = {}
        fits[size] = {}
        for kind in cfg.quantities:
            singles = [analysis.pooled[kind.value] for analysis in per_window]
            mean = window_mean_std(singles)
            mean_pooled[size][kind.value] = mean
            pooled_path = size_dir / f"{kind.value}.pooled.csv"
            files[_rel(pooled_path, out_dir)] = write_pooled_csv(pooled_path, mean)
            fit_path = size_dir / f"{kind.value}.fit.json"
            meta = {"kind": kind.value, "n_v": size, "n_windows": mean.n_windows}
            try:
                fit = infer_parameters(mean, cfg.grid)
                payload = fit_payload(fit, cfg.grid, **meta)
            except InferenceError as exc:
                payload = failure_payload(str(exc), cfg.grid, **meta)
            write_fit_json(fit_path, payload)
            files[_rel(fit_path, out_dir)] = 1
            fits[size][kind.value] = payload
        for analysis in per_window:
            topo_path = size_dir / f"window_{analysis.index:06d}.topology.csv"
            files[_rel(topo_path, out_dir)] = write_topology_csv(
                topo_path, analysis.topology
            )

    manifest = {
        "version": __version__,
        "config": {
            "inputs": list(cfg.inputs),
            "window_sizes": sizes,
            "quantities": [kind.value for kind in cfg.quantities],
            "alpha_grid": {
                "start": cfg.grid.start,
                "stop": cfg.grid.stop,
                "step": cfg.grid.step,
            },
            "strict_core": cfg.strict_core,
            "supernode_k": cfg.supernode_k,
        },
        "ingest": {
            "total_read": summary.total_read,
            "total_valid": summary.total_valid,
            "total_skipped": summary.total_skipped,
        },
        "window_counts": {str(size): len(analyses[size]) for size in sizes},
        "files": files,
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")

    finished = time.perf_counter()
    elapsed = {
        "ingest_seconds": ingest_done - started,
        "analysis_seconds": analysis_done - ingest_done,
        "report_seconds": finished - analysis_done,
        "total_seconds": finished - started,
    }
    timings = {"workers": cfg.workers, "elapsed": elapsed}
    with open(out_dir / "timings.json", "w", encoding="utf-8") as fh:
        json.dump(timings, fh, sort_keys=True, indent=2)
        fh.write("\n")

    return RunReport(
        out_dir=out_dir,
        manifest=manifest,
        mean_pooled=mean_pooled,
        fits=fits,
        elapsed=elapsed,
    )


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()

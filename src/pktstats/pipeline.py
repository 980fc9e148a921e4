"""End-to-end analysis runs: ingest, window, analyze, fit, report.

A run ingests packet CSVs into one stream of address keys, cuts it into
fixed-size windows, each a view of the stream's keys, analyzes each
window (matrix build, per-quantity pooled distributions, topology
decomposition), averages pooled distributions across windows, fits the
degree model to each averaged distribution, and writes a report directory
of CSV/JSON files plus a manifest.  Every report file's layout (header,
line ends, float text) is set here; the analysis modules only compute.

Reports are deterministic: files depend only on the input data and the
configuration, never on worker count, timing, or output location.  Wall-time
diagnostics go to a separate ``timings.json`` that is not part of the report
contract.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
import shutil
import signal
import time
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .ingest import CodedPackets, IngestSummary, KeyBatch, read_packet_keys
from .matrix import TrafficMatrix
from .netstats import (
    ALL_KINDS,
    PooledDistribution,
    QuantityKind,
    pool_quantity,
    window_mean_std,
)
from .topology import (
    CATEGORY_ORDER,
    DEFAULT_SUPERNODE_COUNT,
    CategoryStats,
    TopologyBreakdown,
    topology_breakdown,
)
from .zm import AlphaGrid, DEFAULT_GRID, InferenceError, infer_parameters

DEFAULT_WINDOW_SIZES = (
    10**5,
    3 * 10**5,
    10**6,
    3 * 10**6,
    10**7,
    3 * 10**7,
    10**8,
)

POOLED_CSV_HEADER = ("kind", "bin_edge", "mean", "sigma", "n_windows")

TOPOLOGY_CSV_HEADER = (
    "category",
    "sources",
    "packets",
    "links",
    "destinations",
    "frac_sources",
    "frac_packets",
    "frac_links",
    "frac_destinations",
)


class PipelineConfigError(ValueError):
    """Invalid run configuration (bad sizes, refused output directory, ...)."""


class WindowWorkerError(RuntimeError):
    """A forked window worker ended without delivering its analyses."""


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

    def __post_init__(self):
        if not self.inputs:
            raise PipelineConfigError("at least one input path is required")
        if not all(self.inputs):
            raise PipelineConfigError("input paths cannot be empty")
        if self.window_sizes is not None:
            if not self.window_sizes:
                raise PipelineConfigError("window size list cannot be empty")
            for i, size in enumerate(self.window_sizes):
                if type(size) is not int or size < 1:
                    raise PipelineConfigError(
                        f"window sizes must be positive integers, got {size!r}"
                    )
                if size in self.window_sizes[:i]:
                    raise PipelineConfigError(f"duplicate window size {size}")
        if not self.quantities:
            raise PipelineConfigError("at least one quantity is required")
        seen = set()
        for kind in self.quantities:
            if not isinstance(kind, QuantityKind):
                raise PipelineConfigError(f"not a quantity: {kind!r}")
            if kind in seen:
                raise PipelineConfigError(f"duplicate quantity: {kind.value}")
            seen.add(kind)
        if type(self.workers) is not int or self.workers < 1:
            raise PipelineConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class WindowAnalysis:
    """Everything computed from one window."""

    pooled: Dict[str, PooledDistribution]
    topology: TopologyBreakdown


@dataclass
class RunReport:
    """In-memory results of a completed run."""

    out_dir: Path
    manifest: Dict
    mean_pooled: Dict[int, Dict[str, PooledDistribution]]
    fits: Dict[int, Dict[str, Dict]]


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
    return WindowAnalysis(pooled=pooled, topology=breakdown)


def load_valid_records(inputs: Sequence[str]) -> Tuple[KeyBatch, IngestSummary]:
    """All valid packets from the input files, in order, as one key batch,
    plus counters."""
    summary = IngestSummary()
    srcs: List[np.ndarray] = [np.zeros(0, np.uint32)]
    dsts: List[np.ndarray] = [np.zeros(0, np.uint32)]
    for path in inputs:
        for batch in read_packet_keys(path):
            summary.total_read += batch.n_read
            summary.total_valid += len(batch)
            srcs.append(batch.src)
            dsts.append(batch.dst)
    summary.total_skipped = summary.total_read - summary.total_valid
    stream = KeyBatch(np.concatenate(srcs), np.concatenate(dsts), summary.total_read)
    return stream, summary


def _effective_sizes(
    requested: Optional[Tuple[int, ...]], n_valid: int
) -> List[int]:
    if requested is None:
        return [size for size in DEFAULT_WINDOW_SIZES if n_valid // size >= 2]
    return [size for size in requested if n_valid // size >= 1]


def _check_out_dir(out_dir: Path, force: bool) -> None:
    """Refuse a non-empty ``out_dir`` unless ``force`` is set and it holds a
    pktstats report manifest; touches nothing."""
    if not out_dir.exists() or not any(out_dir.iterdir()):
        return
    if not force:
        raise PipelineConfigError(
            f"output directory {out_dir} is not empty; pass force to replace"
        )
    if not _holds_report(out_dir):
        raise PipelineConfigError(
            f"output directory {out_dir} is not a pktstats report "
            '(no manifest.json with a "files" key); refusing to replace it'
        )


def _holds_report(out_dir: Path) -> bool:
    """Whether ``out_dir/manifest.json`` is a JSON object with a "files" key."""
    try:
        with open(out_dir / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return False
    return isinstance(manifest, dict) and "files" in manifest


def _analyze_all_windows(
    stream: KeyBatch,
    sizes: Sequence[int],
    cfg: RunConfig,
) -> Dict[int, List[WindowAnalysis]]:
    """Per-size window analyses in window-index order."""
    tasks = [(size, index) for size in sizes for index in range(len(stream) // size)]

    # Forked workers inherit the stream and the configuration with this
    # closure, so a task is only (size, index).
    def analyze(task: Tuple[int, int]) -> WindowAnalysis:
        size, index = task
        return analyze_window(
            stream.window(index, size),
            cfg.quantities,
            strict_core=cfg.strict_core,
        )

    analyses = _forked_map(analyze, tasks, cfg.workers)
    results: Dict[int, List[WindowAnalysis]] = {size: [] for size in sizes}
    for (size, _), analysis in zip(tasks, analyses):
        results[size].append(analysis)
    return results


def _forked_map(
    task_fn: Callable[[Tuple[int, int]], WindowAnalysis],
    tasks: List[Tuple[int, int]],
    workers: int,
) -> List[WindowAnalysis]:
    """``task_fn`` over ``tasks``, returned in task order.

    With n = min(workers, len(tasks), the CPUs this process may run on),
    share i is every n-th task from task i.  This process forks one child
    for each of shares 1..n-1, analyzes share 0 itself, then reads each
    child's pipe to EOF and reaps it.  A child still running when this
    function leaves is killed and reaped.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    n = min(workers, len(tasks), cpus)
    pipes: Dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for share in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_share(task_fn, tasks[share::n], write_fd)
            os.close(write_fd)
            pipes[pid] = read_fd
        analyses: List[Optional[WindowAnalysis]] = [None] * len(tasks)
        analyses[0::n] = map(task_fn, tasks[0::n])
        for share, pid in enumerate(list(pipes), 1):
            with open(pipes[pid], "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(pipes.pop(pid))
            analyses[share::n] = _delivered(pid, status, payload)
        return analyses
    finally:
        for pid, read_fd in pipes.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_share(
    task_fn: Callable[[Tuple[int, int]], WindowAnalysis],
    share: List[Tuple[int, int]],
    write_fd: int,
) -> NoReturn:
    """In a forked child: run ``task_fn`` over ``share``, write the pickled
    outcome (the analyses, or the exception that stopped them) to
    ``write_fd`` and exit.  Exit status 0 means the whole outcome was
    written."""
    status = 1
    try:
        try:
            outcome = (True, list(map(task_fn, share)))
        except Exception as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _delivered(pid: int, status: int, payload: bytes) -> List[WindowAnalysis]:
    """The analyses a reaped child wrote; raises the exception it wrote."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise WindowWorkerError(f"window worker {pid} was killed by signal {-code}")
    if code:
        raise WindowWorkerError(f"window worker {pid} exited with status {code}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def run_analyze(cfg: RunConfig) -> RunReport:
    """Execute a full analysis run and write the report directory.

    The report is built in a sibling ``.NAME.PID.tmp`` directory, which
    replaces ``cfg.out_dir`` (and whatever report was there) only once it
    is complete; a failed run removes it and leaves ``out_dir`` as it was.
    """
    out_dir = Path(cfg.out_dir)
    _check_out_dir(out_dir, cfg.force)
    # The real path, so a symlinked out_dir keeps its link and "." has a name.
    target = Path(os.path.realpath(out_dir))
    staging = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    staging.mkdir(parents=True)
    try:
        report = _write_report(cfg, staging)
        if target.exists():
            shutil.rmtree(target)
        os.replace(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return report


def _write_report(cfg: RunConfig, out_dir: Path) -> RunReport:
    """Run the analysis of ``cfg`` and write its report into ``out_dir``,
    the staging directory of ``cfg.out_dir``."""
    started = time.perf_counter()

    stream, summary = load_valid_records(cfg.inputs)
    ingest_done = time.perf_counter()

    sizes = _effective_sizes(cfg.window_sizes, len(stream))
    if not sizes:
        raise PipelineConfigError(
            "no window size admits a complete window "
            f"(valid={summary.total_valid}, read={summary.total_read}, "
            f"skipped={summary.total_skipped})"
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
            record = {"kind": kind.value, "n_v": size, "n_windows": mean.n_windows}
            record["grid"] = asdict(cfg.grid)
            try:
                fit = infer_parameters(mean, cfg.grid)
            except InferenceError as exc:
                record["error"] = str(exc)
            else:
                record.update(asdict(fit.params))  # alpha, delta, d_max
                record.update(loss=fit.loss, leaf=fit.leaf, bins_used=fit.bins_used)
            write_fit_json(fit_path, record)
            files[_rel(fit_path, out_dir)] = 1
            fits[size][kind.value] = record
        for index, analysis in enumerate(per_window):
            topo_path = size_dir / f"window_{index:06d}.topology.csv"
            files[_rel(topo_path, out_dir)] = write_topology_csv(
                topo_path, analysis.topology
            )

    manifest = {
        "version": __version__,
        "config": {
            "inputs": list(cfg.inputs),
            "window_sizes": sizes,
            "quantities": [kind.value for kind in cfg.quantities],
            "alpha_grid": asdict(cfg.grid),
            "strict_core": cfg.strict_core,
            "supernode_k": DEFAULT_SUPERNODE_COUNT,
        },
        "ingest": {
            "total_read": summary.total_read,
            "total_valid": summary.total_valid,
            "total_skipped": summary.total_skipped,
        },
        "window_counts": {str(size): len(analyses[size]) for size in sizes},
        "files": files,
    }
    write_fit_json(out_dir / "manifest.json", manifest)

    finished = time.perf_counter()
    elapsed = {
        "ingest_seconds": ingest_done - started,
        "analysis_seconds": analysis_done - ingest_done,
        "report_seconds": finished - analysis_done,
        "total_seconds": finished - started,
    }
    timings = {"workers": cfg.workers, "elapsed": elapsed}
    write_fit_json(out_dir / "timings.json", timings)

    return RunReport(
        out_dir=Path(cfg.out_dir),
        manifest=manifest,
        mean_pooled=mean_pooled,
        fits=fits,
    )


@dataclass(frozen=True)
class CategoryFractions:
    """A category's share of each matrix total, each in [0, 1]."""

    sources: float
    packets: float
    links: float
    destinations: float

    def __post_init__(self):
        for name in ("sources", "packets", "links", "destinations"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"fraction {name} must be in [0, 1], got {value}")


# The four fields, in column order, of a CategoryStats or a CategoryFractions.
_CATEGORY_FIELDS = attrgetter("sources", "packets", "links", "destinations")


def _fractions(stats: CategoryStats, totals: CategoryStats) -> CategoryFractions:
    """Each count of ``stats`` over the total of the same name; 0 where that
    total is 0."""
    return CategoryFractions(
        *(part / whole if whole else 0.0
          for part, whole in zip(_CATEGORY_FIELDS(stats), _CATEGORY_FIELDS(totals)))
    )


def _write_csv(path, header: Sequence[str], rows: List[tuple], line_end: str) -> int:
    """Write ``header`` and then ``rows`` as CSV lines that end in
    ``line_end``; returns the number of rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def write_pooled_csv(path, pooled: PooledDistribution) -> int:
    """Write one pooled distribution, a row per bin with LF line ends;
    returns the row count."""
    if pooled.kind is None:
        raise ValueError("pooled distribution must carry a quantity kind")
    rows = [
        (pooled.kind, edge, repr(mean), repr(sigma), pooled.n_windows)
        for edge, mean, sigma in zip(pooled.bin_edges, pooled.values, pooled.sigmas)
    ]
    return _write_csv(path, POOLED_CSV_HEADER, rows, "\n")


def write_topology_csv(path, breakdown: TopologyBreakdown) -> int:
    """One row per category, then supernode-internal and residual accounting,
    with CRLF line ends.  Returns the number of data rows written."""
    named = [(name, breakdown.categories[name]) for name in CATEGORY_ORDER]
    named.append(("supernode_internal", breakdown.supernode_internal))
    residual = CategoryStats(0, breakdown.residual_packets, breakdown.residual_links, 0)
    named.append(("residual", residual))
    rows = [
        (name, *_CATEGORY_FIELDS(stats),
         *map(repr, _CATEGORY_FIELDS(_fractions(stats, breakdown.totals))))
        for name, stats in named
    ]
    return _write_csv(path, TOPOLOGY_CSV_HEADER, rows, "\r\n")


def write_fit_json(path: Path, record: Dict) -> None:
    """Write ``record`` as JSON with sorted keys, a 2-space indent and a
    final newline.  Every JSON file of a report is written here: the fit
    of each quantity and size, ``manifest.json`` and ``timings.json``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()

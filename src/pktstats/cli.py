"""Command-line interface: ``pktstats generate`` and ``pktstats analyze``.

Exit codes: 0 on success, 1 on configuration errors (bad flags, infeasible
specs, refused output directories), 2 on I/O errors (missing or unreadable
files, unwritable outputs, malformed packet data) and on a window worker that
died without delivering its analyses.

Both subcommands accept ``--config FILE`` holding flat ``key=value`` lines
that mirror the long flag names; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

# pktstats makes no BLAS call, yet importing numpy starts an OpenBLAS thread
# pool whose threads spin for about 0.1 CPU-s per process.  This runs before
# the first import of numpy; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .generator import (
    GeneratorConfigError,
    generate_synthetic,
    read_generator_spec,
    write_packet_csv,
)

if TYPE_CHECKING:
    from .netstats import QuantityKind
    from .zm import AlphaGrid


class CliUsageError(ValueError):
    """Bad command-line usage, reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1
        raise CliUsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pktstats",
        description="Synthetic traffic generation and windowed traffic analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        help="generate a synthetic packet CSV from a mixture spec",
    )
    gen.add_argument("--config", help="key=value file with defaults for these flags")
    gen.add_argument("--spec", help="generator spec file (key=value lines)")
    gen.add_argument("--packets", help="number of packets to generate")
    gen.add_argument("--out", help="output CSV path (.gz for gzip)")

    ana = sub.add_parser(
        "analyze",
        help="run windowed analysis over packet CSVs and write reports",
    )
    ana.add_argument("--config", help="key=value file with defaults for these flags")
    ana.add_argument(
        "--input",
        nargs="+",
        action="extend",
        default=None,
        help="packet CSV file(s), in order; may be repeated",
    )
    ana.add_argument("--nv", help="comma-separated window sizes (default ladder)")
    ana.add_argument(
        "--quantities",
        help="comma-separated quantity names (default: all five)",
    )
    ana.add_argument("--alpha-grid", help="model exponent grid as start:stop:step")
    ana.add_argument("--workers", help="worker process count (default 1)")
    ana.add_argument("--out", help="report output directory")
    ana.add_argument(
        "--force",
        action="store_true",
        default=None,
        help="replace a non-empty output directory",
    )
    ana.add_argument(
        "--core-strict-inequality",
        action="store_true",
        default=None,
        help="bound core membership by the first supernode's fan, exclusively",
    )
    return parser


def read_config_file(path, allowed: Set[str]) -> Dict[str, str]:
    """The ``key=value`` lines of ``path``, with ``-`` in keys read as ``_``.

    A repeated key is refused first, then the first key not in ``allowed``.
    """
    values: Dict[str, str] = {}
    line_of: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, raw_line in enumerate(fh, 1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliUsageError(
                    f"{path}:{line_number}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in values:
                raise CliUsageError(
                    f"{path}:{line_number}: duplicate key {key!r}"
                )
            values[key] = value.strip()
            line_of[key] = line_number
    for key in values:
        if key not in allowed:
            raise CliUsageError(f"{path}:{line_of[key]}: unknown key {key!r}")
    return values


def _read_config(args) -> Dict[str, str]:
    """The ``--config`` file of a subcommand, whose keys are the dests of
    that subcommand's other flags."""
    if not args.config:
        return {}
    return read_config_file(args.config, set(vars(args)) - {"command", "config"})


def _merge(flag_value, config: Dict[str, str], key: str):
    """Flags win; otherwise fall back to the config file's value."""
    if flag_value is not None:
        return flag_value
    return config.get(key)


def parse_alpha_grid(text: str) -> AlphaGrid:
    from .zm import AlphaGrid

    parts = text.split(":")
    if len(parts) != 3:
        raise CliUsageError(
            f"alpha grid must be start:stop:step, got {text!r}"
        )
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError as exc:
        raise CliUsageError(f"alpha grid values must be numbers: {text!r}") from exc
    try:
        return AlphaGrid(start=start, stop=stop, step=step)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def _parse_positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise CliUsageError(f"{what} must be an integer, got {text!r}") from exc
    if value < 1:
        raise CliUsageError(f"{what} must be >= 1, got {value}")
    return value


def _parse_bool(text: str, what: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise CliUsageError(f"{what} must be true or false, got {text!r}")


def _parse_quantities(text: str) -> List[QuantityKind]:
    from .netstats import ALL_KINDS

    by_value = {kind.value: kind for kind in ALL_KINDS}
    kinds: List[QuantityKind] = []
    for name in text.split(","):
        name = name.strip()
        if name not in by_value:
            raise CliUsageError(
                f"unknown quantity {name!r}; valid: {', '.join(sorted(by_value))}"
            )
        kinds.append(by_value[name])
    return kinds


def _cmd_generate(args) -> int:
    config = _read_config(args)
    spec_path = _merge(args.spec, config, "spec")
    packets_text = _merge(args.packets, config, "packets")
    out_path = _merge(args.out, config, "out")
    if not spec_path:
        raise CliUsageError("generate requires --spec")
    if not packets_text:
        raise CliUsageError("generate requires --packets")
    if not out_path:
        raise CliUsageError("generate requires --out")
    n_packets = _parse_positive_int(packets_text, "packets")
    spec = read_generator_spec(spec_path)
    # The records are one tuple per packet and hold no reference cycles, so
    # the cyclic collector would only re-examine millions of them.  They are
    # freed before it resumes, which leaves it nothing to catch up on.
    collecting = gc.isenabled()
    gc.disable()
    try:
        records, truth = generate_synthetic(spec, n_packets)
        rows = write_packet_csv(out_path, records)
        del records
    finally:
        if collecting:
            gc.enable()
    print(
        f"wrote {rows} records ({truth.n_links} links, "
        f"{truth.n_sources} sources, {truth.n_destinations} destinations) "
        f"to {out_path}"
    )
    return 0


def _cmd_analyze(args) -> int:
    from .netstats import ALL_KINDS
    from .pipeline import RunConfig, run_analyze
    from .zm import DEFAULT_GRID

    config = _read_config(args)
    inputs = args.input
    if inputs is None and "input" in config:
        inputs = config["input"].split(",")
    out_dir = _merge(args.out, config, "out")
    if not inputs:
        raise CliUsageError("analyze requires --input")
    if not out_dir:
        raise CliUsageError("analyze requires --out")

    nv_text = _merge(args.nv, config, "nv")
    window_sizes = None
    if nv_text:
        window_sizes = tuple(
            _parse_positive_int(part.strip(), "window size")
            for part in nv_text.split(",")
        )

    quantities_text = _merge(args.quantities, config, "quantities")
    quantities = tuple(_parse_quantities(quantities_text)) if quantities_text else ALL_KINDS

    grid_text = _merge(args.alpha_grid, config, "alpha_grid")
    grid = parse_alpha_grid(grid_text) if grid_text else DEFAULT_GRID

    workers_text = _merge(args.workers, config, "workers")
    workers = _parse_positive_int(workers_text, "workers") if workers_text else 1

    force = args.force
    if force is None:
        force = _parse_bool(config["force"], "force") if "force" in config else False
    strict = args.core_strict_inequality
    if strict is None:
        strict = (
            _parse_bool(config["core_strict_inequality"], "core_strict_inequality")
            if "core_strict_inequality" in config
            else False
        )

    cfg = RunConfig(
        inputs=tuple(str(path).strip() for path in inputs),
        out_dir=str(out_dir),
        window_sizes=window_sizes,
        quantities=quantities,
        grid=grid,
        workers=workers,
        force=force,
        strict_core=strict,
    )
    report = run_analyze(cfg)
    for size in sorted(report.fits):
        for kind in sorted(report.fits[size]):
            payload = report.fits[size][kind]
            if "error" in payload:
                line = f"fit skipped ({payload['error']})"
            else:
                line = (
                    f"alpha={payload['alpha']:.2f} delta={payload['delta']:.6g} "
                    f"loss={payload['loss']:.3g}"
                )
            print(f"nv={size} {kind}: {line}")
    print(f"report written to {report.out_dir}")
    return 0


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run_analyze(args) -> int:
    """``analyze`` with its own errors mapped to exit codes; the analysis
    modules load here, so ``generate`` never imports them."""
    from .ingest import PacketParseError
    from .pipeline import PipelineConfigError, WindowWorkerError

    try:
        return _cmd_analyze(args)
    except PipelineConfigError as exc:
        return _error(exc, 1)
    except PacketParseError as exc:
        return _error(f"malformed input: {exc}", 2)
    except WindowWorkerError as exc:
        return _error(exc, 2)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        return _run_analyze(args)
    except (CliUsageError, GeneratorConfigError) as exc:
        return _error(exc, 1)
    except OSError as exc:
        return _error(exc, 2)


if __name__ == "__main__":
    sys.exit(main())

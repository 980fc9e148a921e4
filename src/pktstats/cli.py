"""Command-line interface: ``pktstats generate`` and ``pktstats analyze``.

Exit codes: 0 on success, 1 on configuration errors (bad flags, infeasible
specs, refused output directories), 2 on I/O errors (missing or unreadable
files, unwritable outputs, malformed packet data) and on a window worker that
died without delivering its analyses.

Both subcommands accept ``--config FILE`` holding flat ``key=value`` lines,
in the grammar of spec files, that mirror the long flag names; explicit
flags override file values.

A program run (``python -m pktstats.cli`` or the ``pktstats`` console
script) turns the cyclic collector off before numpy is imported, and ends
with ``os._exit`` once its output is flushed.  ``main`` called in-process
changes no collector state.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # A program run makes no garbage cycle per window or chunk: the only
    # cycles it leaves are the JSON encoder's, a few dozen objects per report
    # JSON file.  The cyclic collector would only walk what the imports
    # made, over and over.
    gc.disable()

import argparse
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# pktstats makes no BLAS call, yet importing numpy starts an OpenBLAS thread
# pool whose threads spin for about 0.1 CPU-s per process.  This runs before
# the first import of numpy; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .fileio import read_key_values
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
    # Stored as text, like the same key in a --config file.
    ana.add_argument(
        "--force",
        action="store_const",
        const="true",
        help="replace a non-empty output directory",
    )
    ana.add_argument(
        "--core-strict-inequality",
        action="store_const",
        const="true",
        help="bound core membership by the first supernode's fan, exclusively",
    )
    return parser


def _options(args, required: Sequence[str]) -> Dict:
    """Each option of a subcommand: its flag's value, else the value of its
    key in the ``--config`` file, else None.  The keys are the dests of the
    subcommand's flags other than ``--config``; each ``required`` one must
    be set."""
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "config")}
    config = {}
    if args.config:
        config = read_key_values(args.config, set(flags), CliUsageError)
    options = {key: config.get(key) if value is None else value
               for key, value in flags.items()}
    for key in required:
        if not options[key]:
            raise CliUsageError(f"{args.command} requires --{key}")
    return options


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


def _parse_quantities(text: str) -> Tuple[QuantityKind, ...]:
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
    return tuple(kinds)


def _parse_inputs(value) -> Tuple[str, ...]:
    """The files of ``--input`` (a list, taken as given) or of a config
    file's ``input`` (comma-separated text, each name stripped)."""
    if isinstance(value, str):
        return tuple(path.strip() for path in value.split(","))
    return tuple(value)


def _cmd_generate(args) -> int:
    options = _options(args, ("spec", "packets", "out"))
    n_packets = _parse_positive_int(options["packets"], "packets")
    spec = read_generator_spec(options["spec"])
    out_path = options["out"]
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
        f"wrote {rows} records ({truth.totals.links} links, "
        f"{truth.totals.sources} sources, {truth.totals.destinations} destinations) "
        f"to {out_path}"
    )
    return 0


def _cmd_analyze(args) -> int:
    from .pipeline import RunConfig, run_analyze

    # Each option: its RunConfig field and the parser of its value.  An
    # option left unset, or set to empty text, keeps the field's default.
    fields = {
        "input": ("inputs", _parse_inputs),
        "out": ("out_dir", str),
        "nv": ("window_sizes", lambda text: tuple(
            _parse_positive_int(part.strip(), "window size") for part in text.split(",")
        )),
        "quantities": ("quantities", _parse_quantities),
        "alpha_grid": ("grid", parse_alpha_grid),
        "workers": ("workers", lambda text: _parse_positive_int(text, "workers")),
        "force": ("force", lambda text: _parse_bool(text, "force")),
        "core_strict_inequality": (
            "strict_core",
            lambda text: _parse_bool(text, "core_strict_inequality"),
        ),
    }
    options = _options(args, ("input", "out"))
    cfg = RunConfig(**{
        field: parse(options[key])
        for key, (field, parse) in fields.items()
        if options[key]
    })
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
    # Flushed, the output is complete; the interpreter's teardown would only
    # free what the process's exit frees.
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)

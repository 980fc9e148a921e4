"""Benchmark of ``pktstats analyze`` on seeded workloads.

    python3 perfbench/run.py --workload zipf-fit --seed 1 --seconds 50 --trace 0

Run from a checkout that holds ``src/pktstats``.  The run builds the
workload's inputs from the seed (timed as ``setup_s``), makes one untimed
warm-up analyze run so the input sits in the page cache, then times fresh
``pktstats analyze`` subprocesses, each into a fresh output directory, until
``--seconds`` have passed.  Every report is checked (see bench_check.py).
With ``--trace 1`` a traced run (see bench_trace.py) follows the untraced
runs and the per-layer metrics are reported instead.

The last stdout line is the result: ``correct``, ``attempted`` and ``failed``
analyze runs, and the metrics by name with their units.  The line before it
holds the details: host facts, workload properties, per-metric sample
summaries and the report digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import bench_check
import bench_trace
import bench_workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "bench_trace.py"

# set-up is repeated and its median reported, so one slow build does not count
SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3
# A subprocess is killed after this long; normal ones take a few seconds.
RUN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Reaped:
    """Wall time, CPU time and peak RSS of one reaped subprocess."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(cmd: List[str], log: Path) -> Reaped:
    """Run ``cmd`` to completion and take its usage from ``os.wait4``.

    wait4 reports the child's own CPU time plus that of the workers it
    reaped, and the peak RSS of the largest of them; RUSAGE_CHILDREN would
    instead mix in every earlier child of this process.
    """
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [str(part) for part in cmd],
            cwd=ROOT,
            env=_env(),
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Reaped(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class Bench:
    """One workload at one seed inside a private work directory."""

    def __init__(self, workload: bench_workloads.Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.input: Optional[Path] = None
        self.warm_report: Optional[Path] = None
        self.valid = self.invalid = 0
        self.digests: set = set()
        self.problems: List[str] = []
        self.attempted = self.failed = 0
        self._serial = 0

    def _fresh(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{stem}{self._serial:03d}"

    # -- inputs ----------------------------------------------------------

    def build_inputs(self, trace_spans: Optional[Path] = None) -> float:
        """Generate, inject and return the seconds taken (generate traced
        into ``trace_spans`` when given)."""
        w = self.workload
        spec = self.work / "workload.spec"
        generated = self._fresh("generated").with_suffix(".csv")
        final = self._fresh("input").with_suffix(".csv")
        started = time.perf_counter()
        bench_workloads.write_spec(w, self.seed, spec)
        args = ["generate", "--spec", spec, "--packets", w.packets, "--out", generated]
        if trace_spans is None:
            cmd = [sys.executable, "-m", "pktstats.cli", *args]
        else:
            cmd = [sys.executable, TRACER, "--spans", trace_spans, "--", *args]
        reaped = spawn(cmd, self.work / "generate.log")
        if reaped.code != 0:
            raise RuntimeError(
                f"generate exited {reaped.code}: "
                + (self.work / "generate.log").read_text(errors="replace")[-2000:]
            )
        valid, invalid = bench_workloads.inject(generated, final, w.invalid, self.seed)
        elapsed = time.perf_counter() - started
        generated.unlink()
        if (valid, invalid) != (w.packets, w.invalid):
            raise RuntimeError(f"inputs hold {valid}/{invalid} rows, not "
                               f"{w.packets}/{w.invalid}")
        if self.input is not None:
            if final.read_bytes() != self.input.read_bytes():
                self.problems.append("inputs differ between builds of one seed")
            self.input.unlink()
        self.input, self.valid, self.invalid = final, valid, invalid
        return elapsed

    # -- analyze runs ----------------------------------------------------

    def analyze_args(self, out: Path, workers: int) -> list:
        return [
            "analyze", "--input", self.input,
            "--nv", ",".join(str(size) for size in self.workload.nv),
            "--workers", workers, "--out", out, *self.workload.options,
        ]

    def analyze(self, *, trace_spans: Optional[Path] = None, keep: bool = False):
        """One checked analyze subprocess; returns (Reaped, out dir, passed)."""
        out = self._fresh("report")
        if trace_spans is None:
            cmd = [sys.executable, "-m", "pktstats.cli",
                   *self.analyze_args(out, self.workload.workers)]
        else:
            # Spans of forked workers would be lost, so traced runs use one.
            cmd = [sys.executable, TRACER, "--spans", trace_spans, "--",
                   *self.analyze_args(out, 1)]
        reaped = spawn(cmd, out.with_suffix(".log"))
        self.attempted += 1
        if reaped.code != 0:
            problems = [f"exit code {reaped.code}"]
        else:
            problems = bench_check.check_report(
                out, valid=self.valid, invalid=self.invalid,
                nv=self.workload.nv, alpha_check=self.workload.alpha_check,
            )
            self.digests.add(bench_check.report_digest(out))
            if len(self.digests) > 1:
                problems.append("report digest differs from an earlier run")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return reaped, out, not problems

    def warm_up(self) -> None:
        """Untimed checked run: fills the page cache, compiles bytecode, and
        keeps its report for the workload's recorded properties."""
        _, self.warm_report, _ = self.analyze(keep=True)

    def timed_runs(self, seconds: float) -> List[Reaped]:
        """Checked runs for ``seconds`` (at least MIN_TIMED_RUNS); stops at
        the first failure, whose time would mean nothing."""
        runs = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
            reaped, _, passed = self.analyze()
            if not passed:
                break
            runs.append(reaped)
        return runs


def summary(values: List[float]) -> Dict:
    """Median plus the highest percentile with at least ten samples beyond
    it (none below eleven samples), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered),
           "min": ordered[0], "max": ordered[-1]}
    if n >= 11:
        rank = n - 11  # ten samples lie above index n - 11
        out[f"p{100 * (rank + 1) // n}"] = ordered[rank]
    return out


def host_facts() -> Dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def bench_untraced(bench: Bench, seconds: float, details: Dict) -> Dict:
    setups = [bench.build_inputs() for _ in range(SETUP_REPEATS)]
    bench.warm_up()
    runs = bench.timed_runs(seconds)
    if not runs:
        return {}
    details["samples"] = {
        "setup_s": summary(setups),
        "analyze_s": summary([r.wall_s for r in runs]),
        "analyze_cpu_s": summary([r.cpu_s for r in runs]),
        "peak_rss_mb": summary([r.rss_mb for r in runs]),
    }
    med = statistics.median
    return {
        "analyze_s": (med([r.wall_s for r in runs]), "s"),
        "analyze_cpu_s": (med([r.cpu_s for r in runs]), "s"),
        "valid_pkts_per_s": (med([bench.valid / r.wall_s for r in runs]), "1/s"),
        "peak_rss_mb": (med([r.rss_mb for r in runs]), "MB"),
        "setup_s": (med(setups), "s"),
        "success_rate": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }


def bench_traced(bench: Bench, seconds: float, details: Dict) -> Dict:
    gen_path = bench.work / "generate.spans.json"
    bench.build_inputs(trace_spans=gen_path)
    gen = bench_trace.Spans.from_json(json.loads(gen_path.read_text()))
    bench.warm_up()
    runs = bench.timed_runs(seconds)
    if not runs:
        return {}
    untraced = statistics.median(r.wall_s for r in runs)
    spans_path = bench.work / "analyze.spans.json"
    reaped, out, passed = bench.analyze(trace_spans=spans_path, keep=True)
    if not passed:
        return {}
    traced = json.loads(spans_path.read_text())
    elapsed = json.loads((out / "timings.json").read_text())["elapsed"]
    spans = bench_trace.Spans.from_json(traced)
    metrics = bench_trace.layer_metrics(spans, elapsed)
    tiled = sum(metrics[name][0] for name in bench_trace.TILING_LAYERS)
    metrics.update({
        "generator.sample_s": (gen.total("generator.sample"), "s"),
        "generator.write_s": (gen.total("generator.write"), "s"),
        "trace.wall_s": (reaped.wall_s, "s"),
        "trace.overhead_s": (reaped.wall_s - untraced, "s"),
        # interpreter start-up, imports and exit: outside cli.main
        "trace.startup_s": (reaped.wall_s - traced["main_s"], "s"),
        # inside cli.main but in no named layer
        "trace.unaccounted_s": (traced["main_s"] - tiled, "s"),
    })
    details["layer_share_of_main"] = {
        name: metrics[name][0] / traced["main_s"] for name in bench_trace.TILING_LAYERS
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pktstats analyze benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pktstats" / "cli.py").is_file():
        print(f"error: no pktstats sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must be a non-negative 63-bit integer", file=sys.stderr)
        return 2

    workload = bench_workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    details: Dict = {"workload": workload.name, "seed": args.seed,
                     "trace": args.trace, "host": host_facts(),
                     "load_before": os.getloadavg()}
    bench = Bench(workload, args.seed, work)
    try:
        if args.trace:
            metrics = bench_traced(bench, args.seconds, details)
        else:
            metrics = bench_untraced(bench, args.seconds, details)
        details["properties"] = {
            **bench_workloads.input_properties(bench.input),
            "windows": {str(size): bench.valid // size for size in workload.nv},
            "fits": bench_check.fitted_params(bench.warm_report),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    details["load_after"] = os.getloadavg()
    details["digests"] = sorted(bench.digests)
    details["problems"] = bench.problems[:20]
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not bench.problems and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

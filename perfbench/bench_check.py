"""Output checks for one ``pktstats analyze`` report directory.

A run passes when its counts match the rows the benchmark wrote, every
window size has floor(valid / n_v) windows, every topology table tiles the
matrix (zero residual), every pooled distribution sums to 1, the optional
fitted exponent lies within tolerance of the generator's, and every file the
manifest lists exists.  The digest of everything except ``timings.json``
must then agree across all runs of a workload, whatever the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

POOLED_SUM_TOLERANCE = 1e-12


def report_digest(out_dir: Path) -> str:
    """SHA-256 over every report file's relative path and bytes, except the
    wall-clock sidecar ``timings.json``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel == "timings.json":
            continue
        digest.update(rel.encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def check_report(
    out_dir: Path,
    *,
    valid: int,
    invalid: int,
    nv: Sequence[int],
    alpha_check: Optional[Tuple[str, float, float]] = None,
) -> List[str]:
    """Problems found in one report; an empty list means the run passed."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = []
    ingest = manifest["ingest"]
    if ingest["total_read"] != ingest["total_valid"] + ingest["total_skipped"]:
        problems.append(f"read != valid + skipped: {ingest}")
    if (ingest["total_valid"], ingest["total_skipped"]) != (valid, invalid):
        problems.append(f"counts {ingest} differ from written {valid}/{invalid}")
    expected_windows = {str(size): valid // size for size in nv}
    if manifest["window_counts"] != expected_windows:
        problems.append(
            f"window_counts {manifest['window_counts']} != {expected_windows}"
        )
    for rel in manifest["files"]:
        if not (out_dir / rel).is_file():
            problems.append(f"manifest lists missing file {rel}")
    for path in sorted(out_dir.glob("nv_*/*.topology.csv")):
        residual = _topology_residual(path)
        if residual != (0, 0):
            problems.append(f"{path.name}: residual packets/links {residual}")
    for path in sorted(out_dir.glob("nv_*/*.pooled.csv")):
        total = _pooled_total(path)
        if not abs(total - 1.0) <= POOLED_SUM_TOLERANCE:
            problems.append(f"{path.parent.name}/{path.name}: mean sums to {total!r}")
    if alpha_check is not None:
        kind, expected, tolerance = alpha_check
        fit_path = out_dir / f"nv_{nv[0]:09d}" / f"{kind}.fit.json"
        fit = (
            json.loads(fit_path.read_text(encoding="utf-8"))
            if fit_path.is_file() else {}
        )
        if "alpha" not in fit or not abs(fit["alpha"] - expected) <= tolerance:
            problems.append(f"{kind} fit {fit} not within {tolerance} of {expected}")
    return problems


def fitted_params(out_dir: Path) -> Dict[str, Dict[str, Dict]]:
    """Fitted d_max and alpha per window size and quantity (failed fits
    are absent)."""
    result: Dict[str, Dict[str, Dict]] = {}
    for path in sorted(out_dir.glob("nv_*/*.fit.json")):
        fit = json.loads(path.read_text(encoding="utf-8"))
        if "d_max" in fit:
            result.setdefault(str(fit["n_v"]), {})[fit["kind"]] = {
                "d_max": fit["d_max"], "alpha": fit["alpha"]}
    return result


def _topology_residual(path: Path) -> Optional[Tuple[int, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["category"] == "residual":
                return int(row["packets"]), int(row["links"])
    return None


def _pooled_total(path: Path) -> float:
    with open(path, newline="", encoding="utf-8") as fh:
        return math.fsum(float(row["mean"]) for row in csv.DictReader(fh))

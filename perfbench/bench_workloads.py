"""Benchmark workloads: what each one feeds ``pktstats analyze``.

Every input is made from the run's seed: ``pktstats generate`` writes the
valid TCP/IPv4 stream from a spec that carries the seed, and ``inject``
interleaves parseable invalid rows (UDP or ICMP over IPv4, TCP over IPv6) at
seeded positions.  The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """Inputs and flags of one workload; why each exists is in NOTES.md."""

    name: str
    spec: Dict[str, str]
    packets: int  # valid rows written by the generator
    invalid: int  # invalid rows the injector adds
    nv: Tuple[int, ...]
    workers: int
    # (quantity, expected alpha, tolerance) checked on the first window size.
    alpha_check: Optional[Tuple[str, float, float]] = None
    options: Tuple[str, ...] = ()  # further ``pktstats analyze`` flags


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="zipf-fit",
            spec={
                "degree_model_alpha": "1.5",
                "degree_model_delta": "0.5",
                "degree_model_d_max": "1024",
            },
            packets=40_000,
            invalid=800,
            nv=(40_000,),
            workers=1,
            # Seeds 1-40 fit 1.415-1.61 (sd 0.044); 0.3 is about 7 sd.
            alpha_check=("source_fan_out", 1.5, 0.3),
            # Twice the default grid resolution makes the fit the largest layer.
            options=("--alpha-grid", "0.10:4.00:0.005"),
        ),
        Workload(
            name="wide-ingest",
            spec={
                "n_isolated_pairs": "20000",
                "supernode_leaf_count": "1000",
                "core_size": "100",
                "core_density": "0.15",
                "core_leaf_count": "400",
            },
            packets=45_000,
            invalid=45_000,
            nv=(1_500,),
            workers=2,
        ),
    )
}


def write_spec(workload: Workload, seed: int, path: Path) -> None:
    lines = [f"{key} = {value}" for key, value in workload.spec.items()]
    lines.append(f"seed = {seed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _invalid_row(rng: random.Random, timestamp: int, pool: int) -> bytes:
    a, b = rng.randrange(pool), rng.randrange(pool)
    kind = rng.randrange(3)
    if kind == 2:
        return f"{timestamp},fd00::{a:x},fd00::{b:x},TCP,6\r\n".encode()
    protocol = "UDP" if kind == 0 else "ICMP"
    src = f"172.{16 + (a >> 16 & 15)}.{a >> 8 & 255}.{a & 255}"
    dst = f"172.{16 + (b >> 16 & 15)}.{b >> 8 & 255}.{b & 255}"
    return f"{timestamp},{src},{dst},{protocol},4\r\n".encode()


def inject(source: Path, dest: Path, n_invalid: int, seed: int) -> Tuple[int, int]:
    """Copy ``source`` to ``dest`` with ``n_invalid`` invalid rows interleaved.

    Rows are inserted at seeded positions and carry the timestamp of the row
    before them; their endpoints come from a pool of ``n_invalid`` addresses
    per family.  Returns (valid rows copied, invalid rows written).
    """
    rng = random.Random(f"invalid-rows:{seed}")
    valid = source.read_bytes().splitlines(keepends=True)
    slots = sorted(rng.randrange(len(valid) + 1) for _ in range(n_invalid))
    pool = max(1, min(n_invalid, 1 << 20))
    out = []
    taken = 0
    timestamp = 0
    for position, line in enumerate(valid):
        while taken < n_invalid and slots[taken] == position:
            out.append(_invalid_row(rng, timestamp, pool))
            taken += 1
        out.append(line)
        timestamp = int(line.split(b",", 1)[0])
    while taken < n_invalid:
        out.append(_invalid_row(rng, timestamp, pool))
        taken += 1
    dest.write_bytes(b"".join(out))
    return len(valid), taken


def input_properties(path: Path) -> Dict[str, float]:
    """Lines, valid share and distinct addresses of one input file."""
    lines = valid = 0
    addresses = set()
    with open(path, "rb") as fh:
        for line in fh:
            _, src, dst, protocol, version = line.rstrip(b"\r\n").split(b",")
            lines += 1
            valid += protocol == b"TCP" and version == b"4"
            addresses.add(src)
            addresses.add(dst)
    return {
        "lines": lines,
        "valid_share": valid / lines if lines else 0.0,
        "distinct_addresses": len(addresses),
    }

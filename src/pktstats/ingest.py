"""Packet-record ingest: CSV parsing, validity filtering, and fixed-size windowing.

A packet stream is a sequence of records ``(timestamp_us, src, dst, protocol,
ip_version)``.  Only TCP-over-IPv4 records are *valid*; windowing groups every
``n_valid`` consecutive valid records into an immutable window, skipping (but
counting) invalid ones.  A trailing partial window is discarded.

Valid packets can also be held as ``CodedPackets``: two integer arrays of
source and destination codes into one sorted address table, so a window is a
slice of the arrays and code order is lexicographic address order.
"""

from __future__ import annotations

import gzip
import ipaddress
import operator
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

PROTOCOLS = frozenset({"TCP", "UDP", "ICMP", "OTHER"})
# Each protocol name maps to itself, so parsed records share one str per name.
_PROTOCOL_NAMES = {name: name for name in PROTOCOLS}
IP_VERSIONS = frozenset({4, 6})

CANONICAL_FIELDS = ("timestamp", "src", "dst", "protocol", "ip_version")


class PacketParseError(ValueError):
    """A packet CSV line that cannot be turned into a record."""

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class PacketRecord(NamedTuple):
    """One observed packet.

    Index layout (0..4) is part of the contract: bulk producers may emit plain
    tuples with the same field order, and hot paths access fields by index.
    """

    timestamp: int
    src: str
    dst: str
    protocol: str
    ip_version: int


@dataclass(frozen=True)
class FormatSpec:
    """Column layout of a packet CSV file."""

    fields: tuple = CANONICAL_FIELDS
    header: bool = False

    def __post_init__(self):
        if sorted(self.fields) != sorted(CANONICAL_FIELDS):
            raise ValueError(f"fields must be a permutation of {CANONICAL_FIELDS}")


CANONICAL_FORMAT = FormatSpec()


@dataclass
class IngestSummary:
    """Counters accumulated while consuming a stream."""

    total_read: int = 0
    total_valid: int = 0
    total_skipped: int = 0


@dataclass(frozen=True)
class PacketWindow:
    """Exactly ``n_valid`` consecutive valid packets, immutable once built."""

    index: int
    records: tuple
    n_valid: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("window index must be >= 0")
        if self.n_valid < 1:
            raise ValueError("n_valid must be >= 1")
        if len(self.records) != self.n_valid:
            raise ValueError(
                f"window holds {len(self.records)} records, expected {self.n_valid}"
            )


@dataclass(frozen=True, eq=False)
class CodedPackets:
    """Valid packets as codes into a sorted address table.

    Packet i goes from ``names[src[i]]`` to ``names[dst[i]]``.  A whole stream
    and each of its windows share one table; ``window`` slices without copying.
    """

    src: np.ndarray
    dst: np.ndarray
    names: Tuple[str, ...]
    index: int = 0

    @property
    def n_valid(self) -> int:
        return len(self.src)

    def __len__(self) -> int:
        return len(self.src)

    def window(self, index: int, size: int) -> "CodedPackets":
        """The index-th run of ``size`` consecutive packets."""
        start = index * size
        stop = start + size
        return CodedPackets(self.src[start:stop], self.dst[start:stop], self.names, index)


def intern_addresses(srcs: Sequence[str], dsts: Sequence[str]) -> CodedPackets:
    """Code each packet's endpoints by their rank among the sorted addresses."""
    names = sorted(set(srcs).union(dsts))
    rank = dict(zip(names, range(len(names))))
    n = len(srcs)
    src = np.fromiter(map(rank.__getitem__, srcs), np.intp, n)
    dst = np.fromiter(map(rank.__getitem__, dsts), np.intp, n)
    return CodedPackets(src, dst, tuple(names))


_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
# Exactly the IPv4 strings ipaddress accepts: ASCII digits, no leading zeros.
_DOTTED_QUAD = re.compile(rf"(?:{_OCTET}\.){{3}}{_OCTET}")


def _is_address(text: str) -> bool:
    if _DOTTED_QUAD.fullmatch(text):
        return True
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True


def parse_packet_line(
    line: str, line_number: int = 0, fmt: FormatSpec = CANONICAL_FORMAT
) -> PacketRecord:
    """Parse one CSV line into a PacketRecord.

    Raises PacketParseError on wrong field count, malformed timestamp or
    addresses, unknown protocol, or unknown IP version.
    """
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != len(CANONICAL_FIELDS):
        raise PacketParseError(
            f"expected {len(CANONICAL_FIELDS)} fields, got {len(parts)}", line_number
        )
    by_name = dict(zip(fmt.fields, parts))
    raw_ts = by_name["timestamp"]
    try:
        timestamp = int(raw_ts)
    except ValueError:
        raise PacketParseError(f"bad timestamp {raw_ts!r}", line_number) from None
    if timestamp < 0:
        raise PacketParseError(f"negative timestamp {timestamp}", line_number)
    src = by_name["src"]
    dst = by_name["dst"]
    for label, addr in (("src", src), ("dst", dst)):
        if not addr or not _is_address(addr):
            raise PacketParseError(f"invalid {label} address {addr!r}", line_number)
    protocol = by_name["protocol"]
    if protocol not in PROTOCOLS:
        raise PacketParseError(f"unknown protocol {protocol!r}", line_number)
    raw_ver = by_name["ip_version"]
    try:
        ip_version = int(raw_ver)
    except ValueError:
        raise PacketParseError(f"bad ip_version {raw_ver!r}", line_number) from None
    if ip_version not in IP_VERSIONS:
        raise PacketParseError(f"unknown ip_version {ip_version}", line_number)
    return PacketRecord(timestamp, src, dst, protocol, ip_version)


def is_valid_packet(record) -> bool:
    """A packet enters windows iff it is TCP over IPv4."""
    return record[3] == "TCP" and record[4] == 4


def _learn_address(known: Dict[str, str], text: str) -> Optional[str]:
    """Validate an address not yet in known; a valid one is added and returned."""
    if _is_address(text):
        known[text] = text
        return text
    return None


def read_packet_csv(path, fmt: FormatSpec = CANONICAL_FORMAT) -> Iterator[PacketRecord]:
    """Stream records from a packet CSV file (gzip-transparent by suffix).

    Each distinct address is validated once per file, and every record that
    holds it shares one str object.  A line that fails any check is handed to
    parse_packet_line, which raises its error.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    n_fields = len(CANONICAL_FIELDS)
    pick = operator.itemgetter(*(fmt.fields.index(name) for name in CANONICAL_FIELDS))
    known: Dict[str, str] = {}
    with opener(path, "rt", encoding="utf-8") as fh:
        lines = iter(enumerate(fh, 1))
        if fmt.header:
            next(lines, None)
        for line_number, line in lines:
            parts = line.rstrip("\r\n").split(",")
            if len(parts) == n_fields:
                raw_ts, src, dst, protocol, raw_ver = pick(parts)
                src = known.get(src) or _learn_address(known, src)
                dst = known.get(dst) or _learn_address(known, dst)
                protocol = _PROTOCOL_NAMES.get(protocol)
                if src and dst and protocol:
                    try:
                        timestamp = int(raw_ts)
                        ip_version = int(raw_ver)
                    except ValueError:
                        pass
                    else:
                        if timestamp >= 0 and ip_version in IP_VERSIONS:
                            yield PacketRecord(
                                timestamp, src, dst, protocol, ip_version
                            )
                            continue
            yield parse_packet_line(line, line_number, fmt)


def next_window(
    stream: Iterable,
    n_valid: int,
    *,
    index: int = 0,
    summary: Optional[IngestSummary] = None,
) -> Optional[PacketWindow]:
    """Consume the stream until one complete window is filled.

    Returns None when the stream ends first (the partial batch is discarded;
    its records still count in the summary).
    """
    if n_valid < 1:
        raise ValueError("n_valid must be >= 1")
    batch: list = []
    append = batch.append
    if summary is None:
        for record in stream:
            if record[3] == "TCP" and record[4] == 4:
                append(record)
                if len(batch) == n_valid:
                    return PacketWindow(index, tuple(batch), n_valid)
        return None
    for record in stream:
        summary.total_read += 1
        if record[3] == "TCP" and record[4] == 4:
            summary.total_valid += 1
            append(record)
            if len(batch) == n_valid:
                return PacketWindow(index, tuple(batch), n_valid)
        else:
            summary.total_skipped += 1
    return None


def iter_windows(
    stream: Iterable,
    n_valid: int,
    summary: Optional[IngestSummary] = None,
) -> Iterator[PacketWindow]:
    """Yield every complete window of the stream in order."""
    it = iter(stream)
    index = 0
    while True:
        window = next_window(it, n_valid, index=index, summary=summary)
        if window is None:
            return
        yield window
        index += 1

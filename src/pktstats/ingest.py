"""Packet-record ingest: CSV parsing, validity filtering, and fixed-size windowing.

A packet stream is a sequence of records ``(timestamp_us, src, dst, protocol,
ip_version)``.  Only TCP-over-IPv4 records are *valid*.  Valid packets are
held as ``CodedPackets``: two integer arrays of source and destination codes
into one sorted address table, so code order is lexicographic address order.
Windowing groups every ``n_valid`` consecutive valid records into one
``CodedPackets`` window, skipping (but counting) invalid ones; a trailing
partial window is discarded.  A coded stream is cut into windows by slicing
its arrays.  ``read_packet_keys`` reads a packet CSV as byte chunks and codes
each dotted quad by its key, its index in ``DOTTED_QUADS``, with no str per
packet.
"""

from __future__ import annotations

import gzip
import ipaddress
import operator
import re
import zlib
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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
    """Counters of the records a stream has delivered."""

    total_read: int = 0
    total_valid: int = 0
    total_skipped: int = 0


@dataclass(frozen=True, eq=False)
class CodedPackets:
    """Valid packets as codes into a sorted address table: a coded stream,
    or one window of it (``index`` counts windows from 0).

    Packet i goes from ``names[src[i]]`` to ``names[dst[i]]``.  A stream and
    the windows ``window`` slices from it, without copying, share one table.
    The table is a tuple of addresses, or ``DOTTED_QUADS``.
    """

    src: np.ndarray
    dst: np.ndarray
    names: Sequence[str]
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


# The 256 octet strings in text order.  A dotted quad's key packs the ranks
# of its four octets in this order, so key order is address text order.
_OCTET_TEXTS = tuple(sorted(map(str, range(256))))
_OCTET_RANKS = [_OCTET_TEXTS.index(str(value)) for value in range(256)]


def quad_key(text: str) -> int:
    """The key of a dotted quad: its index in ``DOTTED_QUADS``."""
    key = 0
    for octet in text.split("."):
        key = key << 8 | _OCTET_RANKS[int(octet)]
    return key


class _DottedQuads:
    """All 2**32 dotted quads in text order, built on request: item k is the
    quad whose key is k.  It serves as the sorted address table of a stream
    of keys, so bisecting it for a name works as for a tuple of names."""

    __slots__ = ()

    def __len__(self) -> int:
        return 1 << 32

    def __getitem__(self, key) -> str:
        key = operator.index(key)
        if not 0 <= key < 1 << 32:
            raise IndexError("dotted-quad key out of range")
        texts = _OCTET_TEXTS
        return (
            f"{texts[key >> 24]}.{texts[key >> 16 & 255]}."
            f"{texts[key >> 8 & 255]}.{texts[key & 255]}"
        )

    def __repr__(self) -> str:
        return "DOTTED_QUADS"


DOTTED_QUADS = _DottedQuads()


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


def _line_parser(fmt: FormatSpec) -> Callable[[str, int], PacketRecord]:
    """A parser of one file's lines: ``parse(line, line_number)``.

    Each distinct address is validated once per parser, and every record
    that holds it shares one str object.  A line that fails any check is
    handed to parse_packet_line, which raises its error.
    """
    n_fields = len(CANONICAL_FIELDS)
    pick = operator.itemgetter(*(fmt.fields.index(name) for name in CANONICAL_FIELDS))
    known: Dict[str, str] = {}

    def parse(line: str, line_number: int) -> PacketRecord:
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
                        return PacketRecord(timestamp, src, dst, protocol, ip_version)
        return parse_packet_line(line, line_number, fmt)

    return parse


def read_packet_csv(path, fmt: FormatSpec = CANONICAL_FORMAT) -> Iterator[PacketRecord]:
    """Stream records from a packet CSV file (gzip-transparent by suffix).

    Each distinct address is validated once per file, and every record that
    holds it shares one str object.  The first bad line raises its
    PacketParseError.  So does undecodable input (text that is not UTF-8,
    compressed data that is cut short or corrupt); text is decoded in
    blocks, so the error names the first line not yet delivered.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    parse = _line_parser(fmt)
    with opener(path, "rt", encoding="utf-8") as fh:
        lines = iter(fh)
        line_number = 0
        while True:
            try:
                line = next(lines)
            except StopIteration:
                return
            except UnicodeDecodeError as exc:
                raise PacketParseError(
                    f"undecodable text at or after this line ({exc})", line_number + 1
                ) from None
            except (EOFError, zlib.error) as exc:
                raise PacketParseError(
                    f"compressed data is cut short or corrupt at or after "
                    f"this line ({exc})",
                    line_number + 1,
                ) from None
            line_number += 1
            if line_number > 1 or not fmt.header:
                yield parse(line, line_number)


# Bytes read per step of read_packet_keys.  Every per-line array of a chunk
# is live at once, so peak memory grows with this size.
CHUNK_BYTES = 1 << 18

# The non-digit bytes of a canonical line up to its protocol field.
_SEPARATORS = np.frombuffer(b",...,...,", dtype=np.uint8)
_LF, _CR = b"\n\r"
# Chunks are padded so that 8 bytes can be read from any offset.
_PADDING = bytes(8)


def _octet_lookup() -> np.ndarray:
    """The rank of each octet string, looked up by its width (0-4, where 0
    and 4 hold no octet) and the low nibbles of the three bytes at its
    start, as ``((width * 16 + n2) * 16 + n1) * 16 + n0``.  Nibbles past the
    width do not matter; 256 marks a text that is no octet string."""
    table = np.full((5, 16, 16, 16), 256, dtype=np.uint32)
    for value, rank in enumerate(_OCTET_RANKS):
        digits = tuple(int(digit) for digit in reversed(str(value)))
        table[(len(digits),) + (slice(None),) * (3 - len(digits)) + digits] = rank
    return table.ravel()


_OCTET_LOOKUP = _octet_lookup()
# _MASKS[width] keeps the first ``width`` bytes of a little-endian word;
# _MASKS[8], for texts too long to code, keeps none.
_MASKS = np.array([(1 << 8 * width) - 1 for width in range(8)] + [0], dtype=np.uint64)


def _text_code(text: bytes) -> int:
    """A text as one integer: its bytes little-endian, and its length in the
    top byte, so that no two texts of up to 7 bytes share a code."""
    return int.from_bytes(text, "little") | len(text) << 56


# What may follow a canonical line's destination, after its comma.
_TAIL_CODES = np.array(
    [
        _text_code(f"{name},{version}".encode())
        for name in PROTOCOLS
        for version in IP_VERSIONS
    ],
    dtype=np.uint64,
)
_TCP_V4_CODE = _text_code(b"TCP,4")


class KeyBatch(NamedTuple):
    """The valid packets of one chunk's lines, as dotted-quad keys.

    A valid packet with an address that is not a dotted quad (text mode
    takes ``0,fd00::1,fd00::2,TCP,4`` as TCP over IPv4) has keys 0 here and
    is listed in ``texts`` as (position in the batch, src, dst).
    """

    src: np.ndarray
    dst: np.ndarray
    n_read: int
    texts: Tuple[Tuple[int, str, str], ...]


def _scan_canonical(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """(canonical, tcp_v4, src key, dst key) of each line ``buf[start:stop]``.

    A canonical line is ``timestamp,quad,quad,protocol,version``: a timestamp
    of ASCII digits, dotted quads whose octets are among the 256 octet
    strings (1-3 digits, no leading zero, value <= 255), one of the four
    protocol names, and ``4`` or ``6``.  ``buf`` ends with LF and then
    ``_PADDING``.  Keys of other lines are arbitrary.
    """
    # Up to the protocol, a canonical line's non-digit bytes are exactly the
    # separators.  Indices clipped past the last line land on its LF, a
    # non-digit, and fail the check.
    body = buf[: -len(_PADDING)]
    nondigits = np.flatnonzero(body - np.uint8(ord("0")) > 9)
    first = np.searchsorted(nondigits, starts)
    seps = np.take(nondigits, first[:, None] + np.arange(9), mode="clip")
    ok = (buf[seps] == _SEPARATORS).all(axis=1) & (seps[:, 0] > starts)

    # The eight octets, four per address, lie between the separators.
    lo = seps[:, :-1] + 1
    index = np.clip(seps[:, 1:] - lo, 0, 4)
    for i in (2, 1, 0):
        index = index * 16 + (buf[lo + i] & 15)
    ranks = _OCTET_LOOKUP[index]
    ok &= (ranks < 256).all(axis=1)

    # The tail, ``protocol,version``, as its _text_code.
    at = seps[:, 8] + 1
    width = np.clip(stops - at, 0, 255).astype(np.uint64)
    tails = buf[at[:, None] + np.arange(8)].view("<u8")[:, 0]
    tails = tails & _MASKS[np.minimum(width, 8)] | width << np.uint64(56)
    ok &= np.isin(tails, _TAIL_CODES)

    ranks <<= np.array([24, 16, 8, 0] * 2, np.uint32)
    keys = np.bitwise_or.reduce(ranks.reshape(len(starts), 2, 4), axis=2)
    return ok, tails == _TCP_V4_CODE, keys[:, 0], keys[:, 1]


def _chunk_batch(
    data: bytes, first: int, parse: Callable[[str, int], PacketRecord]
) -> Tuple[KeyBatch, Optional[PacketParseError]]:
    """The valid packets of ``data``, whole lines numbered from ``first``.

    Canonical lines are checked and keyed as arrays; every other line goes
    through ``parse``.  Text mode also ends a line at a CR that no LF
    follows, so a chunk holding such a CR is split as text mode splits it
    and parsed line by line.  At the first bad line the batch stops, and
    that line's error is returned beside it.
    """
    if data.count(b"\r") != data.count(b"\r\n"):
        lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")[:-1]
        n = len(lines)
        canonical = tcp_v4 = np.zeros(n, dtype=bool)
        src = np.zeros(n, np.uint32)
        dst = np.zeros(n, np.uint32)
    else:
        lines = None
        buf = np.frombuffer(data + _PADDING, dtype=np.uint8)
        ends = np.flatnonzero(buf[: len(data)] == _LF)
        starts = np.concatenate(([0], ends[:-1] + 1))
        stops = ends - (buf[ends - 1] == _CR)
        canonical, tcp_v4, src, dst = _scan_canonical(buf, starts, stops)
        n = len(ends)
    valid = canonical & tcp_v4
    texts = []
    error = None
    for i in np.flatnonzero(~canonical).tolist():
        line = data[starts[i] : ends[i]] if lines is None else lines[i]
        try:
            record = parse(line.decode("utf-8"), first + i)
        except UnicodeDecodeError as exc:
            error = PacketParseError(f"undecodable text ({exc})", first + i)
        except PacketParseError as exc:
            error = exc
        if error is not None:
            n = i
            break
        if is_valid_packet(record):
            valid[i] = True
            if _DOTTED_QUAD.fullmatch(record[1]) and _DOTTED_QUAD.fullmatch(record[2]):
                src[i] = quad_key(record[1])
                dst[i] = quad_key(record[2])
            else:
                texts.append((i, record[1], record[2]))
    valid = valid[:n]
    if texts:
        positions = np.cumsum(valid) - 1
        texts = [(int(positions[i]), src_text, dst_text) for i, src_text, dst_text in texts]
    return KeyBatch(src[:n][valid], dst[:n][valid], n, tuple(texts)), error


def read_packet_keys(path, *, _chunk_size: int = CHUNK_BYTES) -> Iterator[KeyBatch]:
    """Stream the valid packets of a canonical packet CSV as key batches.

    The file (gzip-transparent by suffix) is read as byte chunks cut at
    their last LF.  Reads, skips, records, errors and line numbers are those
    of ``read_packet_csv``, whose line logic handles every line that is not
    canonical.  Undecodable input raises PacketParseError as well.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    parse = _line_parser(CANONICAL_FORMAT)
    first = 1
    carry = b""
    with opener(path, "rb") as fh:
        while True:
            try:
                data = fh.read(_chunk_size)
            except (EOFError, zlib.error) as exc:
                raise PacketParseError(
                    f"compressed data is cut short or corrupt at or after "
                    f"this line ({exc})",
                    first,
                ) from None
            if data:
                data = carry + data
                cut = data.rfind(b"\n") + 1
                data, carry = data[:cut], data[cut:]
                if not data:
                    continue
            elif carry:
                data, carry = carry + b"\n", b""
            else:
                return
            batch, error = _chunk_batch(data, first, parse)
            yield batch
            if error is not None:
                raise error
            first += batch.n_read


def next_window(
    stream: Iterable,
    n_valid: int,
    *,
    index: int = 0,
    summary: Optional[IngestSummary] = None,
) -> Optional[CodedPackets]:
    """Consume the stream until one complete window is filled.

    The window's packets are coded by their own sorted address table.
    Returns None when the stream ends first (the partial batch is discarded;
    its records still count in the summary).
    """
    if n_valid < 1:
        raise ValueError("n_valid must be >= 1")
    srcs: list = []
    dsts: list = []
    add_src, add_dst = srcs.append, dsts.append
    read = 0
    try:
        for read, record in enumerate(stream, 1):
            if record[3] == "TCP" and record[4] == 4:
                add_src(record[1])
                add_dst(record[2])
                if len(srcs) == n_valid:
                    break
    finally:
        if summary is not None:
            summary.total_read += read
            summary.total_valid += len(srcs)
            summary.total_skipped += read - len(srcs)
    if len(srcs) < n_valid:
        return None
    return replace(intern_addresses(srcs, dsts), index=index)


def iter_windows(
    stream: Iterable,
    n_valid: int,
    summary: Optional[IngestSummary] = None,
) -> Iterator[CodedPackets]:
    """Yield every complete window of the stream in order."""
    it = iter(stream)
    index = 0
    while True:
        window = next_window(it, n_valid, index=index, summary=summary)
        if window is None:
            return
        yield window
        index += 1

"""Packet-record ingest: CSV parsing, validity filtering, and fixed-size windowing.

A packet stream is a sequence of records ``(timestamp_us, src, dst, protocol,
ip_version)``, whose addresses are of the family ip_version names.  Only
TCP-over-IPv4 records, two dotted quads each, are *valid*.  Windowing groups
every ``n_valid`` consecutive valid records into one window, skipping (but
counting) invalid ones; a trailing partial window is discarded.  Every
window is a ``CodedPackets``: source and destination keys whose order is
lexicographic address order, and the table of their addresses.
``parse_packet_line`` is the one parser of a CSV line.  ``read_packet_csv``
runs it on every line; ``read_packet_keys`` reads a packet CSV as byte
chunks, takes each chunk's line ends and separators from one pass over its
non-digit bytes, keys each dotted quad by a uint32 whose order is its text
order, with no str per packet, skips rows of plain IPv6 text by one regular
expression, and runs it only on the other lines.
"""

from __future__ import annotations

import gzip
import ipaddress
import re
import zlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

PROTOCOLS = frozenset({"TCP", "UDP", "ICMP", "OTHER"})
# Each protocol name maps to itself, so parsed records share one str per name.
_PROTOCOL_NAMES = {name: name for name in PROTOCOLS}
IP_VERSIONS = frozenset({4, 6})
_IP_VERSIONS = {str(version): version for version in IP_VERSIONS}

CANONICAL_FIELDS = ("timestamp", "src", "dst", "protocol", "ip_version")
# A timestamp field longer than this is a bad timestamp; every nonnegative
# int64 fits.
MAX_TIMESTAMP_DIGITS = 19


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


@dataclass
class IngestSummary:
    """Counters of the records a stream has delivered."""

    total_read: int = 0
    total_valid: int = 0
    total_skipped: int = 0


@dataclass(frozen=True, eq=False)
class CodedPackets:
    """One window of valid packets (``index`` counts windows from 0).

    Packet i goes from ``names[src[i]]`` to ``names[dst[i]]``: the keys are
    integers below 2**32 whose order is address order.
    """

    src: np.ndarray
    dst: np.ndarray
    names: Any
    index: int = 0

    @property
    def n_valid(self) -> int:
        return len(self.src)

    def __len__(self) -> int:
        return len(self.src)


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


def quad_text(key: int) -> str:
    """The dotted quad whose key is ``key``."""
    texts = _OCTET_TEXTS
    return (
        f"{texts[key >> 24]}.{texts[key >> 16 & 255]}."
        f"{texts[key >> 8 & 255]}.{texts[key & 255]}"
    )


class _QuadTexts:
    """The address table of dotted-quad keys: each str is built on request."""

    # Iterating by __getitem__ would count keys up to 2**32 and beyond.
    __iter__ = None

    def __getitem__(self, key) -> str:
        return quad_text(int(key))


QUAD_TEXTS = _QuadTexts()


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


def _validated(known: Dict[str, str], text: str, label: str, line_number: int) -> str:
    """An address not yet in ``known``, validated and added to it."""
    if not text or not _is_address(text):
        raise PacketParseError(f"invalid {label} address {_echo(text)}", line_number)
    known[text] = text
    return text


def _echo(field: str, show=repr) -> str:
    """``show`` of at most the first 32 characters of a bad field, plus the
    field's length when it is longer, so an error stays one short line."""
    shown = show(field[:32])
    if len(field) > 32:
        shown += f"... ({len(field)} characters)"
    return shown


def _timestamp_error(raw: str) -> str:
    """Why ``raw`` is no timestamp of 1 to MAX_TIMESTAMP_DIGITS ASCII digits."""
    digits = raw[1:]
    if raw[:1] == "-" and digits.isascii() and digits.isdigit():
        if len(digits) <= MAX_TIMESTAMP_DIGITS and int(digits):
            return f"negative timestamp -{int(digits)}"
    return f"bad timestamp {_echo(raw)}"


def parse_packet_line(
    line: str, line_number: int = 0, known: Optional[Dict[str, str]] = None
) -> PacketRecord:
    """Parse one CSV line ``timestamp,src,dst,protocol,ip_version``.

    The timestamp is 1 to MAX_TIMESTAMP_DIGITS ASCII digits, src and dst
    are addresses, the protocol is one of PROTOCOLS and ip_version is
    exactly ``4`` or ``6``: the family of src and dst, where an address
    with a colon is IPv6 text and any other is a dotted quad.  ``known``
    maps each address already validated to the str that records share; an
    address not in it is validated and added, so a file's parser validates
    each distinct address once.  Raises PacketParseError naming the first
    field that fails; a family that differs from ip_version fails last.
    """
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != len(CANONICAL_FIELDS):
        raise PacketParseError(
            f"expected {len(CANONICAL_FIELDS)} fields, got {len(parts)}", line_number
        )
    raw_ts, src, dst, protocol, raw_ver = parts
    if not (
        raw_ts.isascii() and raw_ts.isdigit() and len(raw_ts) <= MAX_TIMESTAMP_DIGITS
    ):
        raise PacketParseError(_timestamp_error(raw_ts), line_number)
    if known is None:
        known = {}
    src = known.get(src) or _validated(known, src, "src", line_number)
    dst = known.get(dst) or _validated(known, dst, "dst", line_number)
    name = _PROTOCOL_NAMES.get(protocol)
    if name is None:
        raise PacketParseError(f"unknown protocol {_echo(protocol)}", line_number)
    ip_version = _IP_VERSIONS.get(raw_ver)
    if ip_version is None:
        if raw_ver.isascii() and raw_ver.isdigit():
            raise PacketParseError(
                f"unknown ip_version {_echo(raw_ver, str)}", line_number
            )
        raise PacketParseError(f"bad ip_version {_echo(raw_ver)}", line_number)
    for label, address in (("src", src), ("dst", dst)):
        if (":" in address) != (ip_version == 6):
            message = f"{label} address {_echo(address)} is not IPv{ip_version}"
            raise PacketParseError(message, line_number)
    return PacketRecord(int(raw_ts), src, dst, name, ip_version)


def is_valid_packet(record) -> bool:
    """A packet enters windows iff it is TCP over IPv4."""
    return record[3] == "TCP" and record[4] == 4


def _damaged(exc: Exception, line_number: int) -> PacketParseError:
    """The error of compressed input that fails to decompress before
    ``line_number`` is delivered."""
    return PacketParseError(
        f"compressed data is cut short or corrupt at or after this line ({exc})",
        line_number,
    )


def read_packet_csv(path) -> Iterator[PacketRecord]:
    """Stream records from a packet CSV file (gzip-transparent by suffix).

    Each distinct address is validated once per file, and every record that
    holds it shares one str object.  The first bad line raises its
    PacketParseError.  So does undecodable input (text that is not UTF-8,
    compressed data that is cut short or corrupt); text is decoded in
    blocks, so the error names the first line not yet delivered.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    known: Dict[str, str] = {}
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
                raise _damaged(exc, line_number + 1) from None
            line_number += 1
            yield parse_packet_line(line, line_number, known)


# Bytes read per step of read_packet_keys.  Every per-line array of a chunk
# is live at once, so peak memory grows with this size.
CHUNK_BYTES = 1 << 18

_LF, _CR = b"\n\r"
# Chunks are padded so that a word can be read from any byte up to one past
# the last LF, where every word read of _scan_canonical starts.
_PADDING = bytes(8)

# Plain IPv6 text: eight groups of 1-4 hex digits (H) joined by colons, or
# at most seven such groups and one "::", which may start or end the text.
# ipaddress accepts every text this matches.  It also accepts some that
# this rejects (an embedded IPv4 tail, a scope), which are left to it.
_PLAIN_V6 = "(?:" + "|".join(
    alternative.replace("H", "[0-9a-fA-F]{1,4}")
    for alternative in (
        "(?:H:){7}H",
        "(?:H:){1,7}:",
        "(?:H:){1,6}:H",
        "(?:H:){1,5}(?::H){1,2}",
        "(?:H:){1,4}(?::H){1,3}",
        "(?:H:){1,3}(?::H){1,4}",
        "(?:H:){1,2}(?::H){1,5}",
        "H:(?::H){1,6}",
        ":(?:(?::H){1,7}|:)",
    )
) + ")"
# A plain line, ``timestamp,address,address,protocol,6`` with a timestamp of
# 1 to MAX_TIMESTAMP_DIGITS ASCII digits and two plain IPv6 texts, is
# skipped without parse_packet_line: it is never valid, and never bad.
_PLAIN_LINE = re.compile(
    rf"[0-9]{{1,{MAX_TIMESTAMP_DIGITS}}},{_PLAIN_V6},{_PLAIN_V6},"
    rf"(?:{'|'.join(sorted(PROTOCOLS))}),6".encode()
)


def _octet_lookup() -> np.ndarray:
    """The rank of each octet string, looked up by its width (0-4, where 0
    and 4 hold no octet) and the low nibbles of the three bytes at its
    start, as ``((width * 16 + n2) * 16 + n1) * 16 + n0``.  Nibbles past the
    width do not matter; 256 marks a text that is no octet string."""
    table = np.full((5, 16, 16, 16), 256, dtype="<u2")
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


# What may follow the destination of a canonical line, after its comma.
_V4_TAILS = np.array(
    [_text_code(f"{name},4".encode()) for name in PROTOCOLS], np.uint64
)
_TCP_V4_CODE = _text_code(b"TCP,4")
# The first eight non-digit bytes of a canonical line, as one word.
_SEPARATORS_CODE = int.from_bytes(b",...,...", "little")


@dataclass(frozen=True, eq=False)
class KeyBatch:
    """Valid packets as dotted-quad keys: those of one chunk's lines, or of
    a whole stream, read from ``n_read`` lines."""

    src: np.ndarray
    dst: np.ndarray
    n_read: int

    def __len__(self) -> int:
        return len(self.src)

    def window(self, index: int, size: int) -> CodedPackets:
        """The index-th run of ``size`` packets: views of the batch's keys."""
        run = slice(index * size, (index + 1) * size)
        return CodedPackets(self.src[run], self.dst[run], QUAD_TEXTS, index)


def _words(buf: np.ndarray, dtype: str) -> np.ndarray:
    """The overlapping words of ``buf``: entry i is the word whose first
    byte is ``buf[i]``.  Gather from it by indexing; np.take would first
    copy it whole, since it is not contiguous."""
    size = np.dtype(dtype).itemsize
    return np.ndarray((len(buf) - size + 1,), dtype, buf, 0, (1,))


def _tail_codes(buf: np.ndarray, at: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The _text_code of each tail ``buf[at:stop]`` of up to 7 bytes; a
    longer tail's code is that of no such text."""
    width = np.clip(stops - at, 0, 255).astype(np.uint64)
    tails = _words(buf, "<u8")[at]
    return tails & _MASKS[np.minimum(width, 8)] | width << np.uint64(56)


def _line_table(buf: np.ndarray):
    """(seps, ends, stops, lone_cr) of the lines of a chunk ``buf``, whose
    text ends with LF and then ``_PADDING``.

    Row i of ``seps`` holds the offsets of the first nine non-digit bytes
    at or after line i's start.  LF and CR are non-digits, so one pass over
    the text gives the rest: the line ends are its LF bytes, a line's first
    non-digit follows the previous line's LF, a line stops before its CRLF
    or LF end, and ``lone_cr`` says whether some CR is followed by no LF.
    """
    body = buf[: -len(_PADDING)]
    nondigits = np.flatnonzero(body - np.uint8(ord("0")) > 9)
    marks = np.take(body, nondigits)
    lfs = np.flatnonzero(marks == _LF)
    ends = np.take(nondigits, lfs)
    crlf = np.take(buf, ends - 1) == _CR
    lone_cr = np.count_nonzero(marks == _CR) > np.count_nonzero(crlf)
    # Offsets clipped past the last line land on its LF.
    first = np.concatenate(([0], lfs[:-1] + 1))
    seps = np.take(nondigits, first[:, None] + np.arange(9), mode="clip")
    return seps, ends, ends - crlf, lone_cr


def _scan_canonical(
    buf: np.ndarray, seps: np.ndarray, starts: np.ndarray, stops: np.ndarray
):
    """(canonical, tcp_v4, src key, dst key) of each line ``buf[start:stop]``
    whose first nine non-digit bytes are at ``seps`` (see ``_line_table``).

    A canonical line is ``timestamp,quad,quad,protocol,4``: a timestamp of 1
    to MAX_TIMESTAMP_DIGITS ASCII digits, dotted quads whose octets are
    among the 256 octet strings (1-3 digits, no leading zero, value <= 255),
    and one of the four protocol names.  ``buf`` ends with LF and then
    ``_PADDING``.  Keys of other lines are arbitrary.
    """
    # Up to the protocol, a canonical line's non-digit bytes are exactly the
    # separators ``,...,...,``.  A line with fewer non-digits has its own LF
    # among its nine, and fails the check.
    digits = seps[:, 0] - starts
    ok = (digits > 0) & (digits <= MAX_TIMESTAMP_DIGITS)
    ok &= np.take(buf, seps[:, :8]).view("<u8")[:, 0] == _SEPARATORS_CODE
    ok &= np.take(buf, seps[:, 8]) == ord(",")

    # The eight octets, four per address, lie between the separators.  The
    # word at an octet's start holds the three bytes the lookup reads.
    lo = seps[:, :-1] + 1
    words = _words(buf, "<u4")[lo]
    index = np.clip(seps[:, 1:] - lo, 0, 4) << 12
    index |= words & 0xF | words >> 4 & 0xF0 | words >> 8 & 0xF00
    # Each rank's low byte is the rank and its high byte is 0, or 1 for no
    # octet string.
    rank_bytes = np.take(_OCTET_LOOKUP, index).view(np.uint8).reshape(len(starts), 8, 2)
    ok &= np.ascontiguousarray(rank_bytes[:, :, 1]).view("<u8")[:, 0] == 0

    tails = _tail_codes(buf, seps[:, 8] + 1, stops)
    ok &= np.isin(tails, _V4_TAILS)

    keys = np.ascontiguousarray(rank_bytes[:, :, 0]).view(">u4").astype(np.uint32)
    return ok, tails == _TCP_V4_CODE, keys[:, 0], keys[:, 1]


def _chunk_batch(
    data: bytes, first: int, known: Dict[str, str]
) -> Tuple[KeyBatch, Optional[PacketParseError]]:
    """The valid packets of ``data``, whole lines numbered from ``first``.

    Canonical lines are checked and keyed as arrays.  Of the rest, plain
    lines (``_PLAIN_LINE``, all of them IPv6) are skipped.  Every other line
    goes through parse_packet_line with the file's address table ``known``;
    none of them is valid, since a valid row of two dotted quads is
    canonical.  Text mode also ends a line at a CR that no LF follows, so
    such a CR is read as an LF.  At the first bad line the batch stops, and
    that line's error is returned beside it.
    """
    buf = np.frombuffer(data + _PADDING, dtype=np.uint8)
    seps, ends, stops, lone_cr = _line_table(buf)
    if lone_cr:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        buf = np.frombuffer(data + _PADDING, dtype=np.uint8)
        seps, ends, stops, _ = _line_table(buf)
    starts = np.concatenate(([0], ends[:-1] + 1))
    canonical, tcp_v4, src, dst = _scan_canonical(buf, seps, starts, stops)
    n = len(ends)
    error = None
    rest = np.flatnonzero(~canonical)
    for i, start, stop, end in zip(
        rest.tolist(), starts[rest].tolist(), stops[rest].tolist(), ends[rest].tolist()
    ):
        if _PLAIN_LINE.fullmatch(data, start, stop):
            continue
        try:
            line = data[start:end].decode("utf-8")
            record = parse_packet_line(line, first + i, known)
        except UnicodeDecodeError as exc:
            error = PacketParseError(f"undecodable text ({exc})", first + i)
        except PacketParseError as exc:
            error = exc
        if error is not None:
            n = i
            break
        assert not is_valid_packet(record)
    valid = (canonical & tcp_v4)[:n]
    return KeyBatch(src[:n][valid], dst[:n][valid], n), error


def read_packet_keys(path, *, _chunk_size: int = CHUNK_BYTES) -> Iterator[KeyBatch]:
    """Stream the valid packets of a canonical packet CSV as key batches.

    The file (gzip-transparent by suffix) is read as byte chunks cut at
    their last LF.  Reads, skips, records, errors and line numbers are those
    of ``read_packet_csv``: its parser, parse_packet_line, reads every line
    that ``_chunk_batch`` neither accepts as canonical nor skips as plain.
    Undecodable input raises PacketParseError as well.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    known: Dict[str, str] = {}
    first = 1
    carry = b""
    with opener(path, "rb") as fh:
        while True:
            try:
                data = fh.read(_chunk_size)
            except (EOFError, zlib.error) as exc:
                raise _damaged(exc, first) from None
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
            batch, error = _chunk_batch(data, first, known)
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

"""Reference definitions of the chunk reader's line table and canonical-line
scan.

``line_table`` takes a chunk's line ends from a pass of its own over the LF
bytes, each line's first non-digit by ``searchsorted`` and the lone-CR
test by ``bytes.count``.  ``pktstats.ingest._line_table`` takes all of it
from the one non-digit pass, and is checked against this.

``scan_canonical`` gathers every byte it checks one at a time: the nine
separators as a (lines, 9) array, three bytes per octet, and eight bytes
per tail.  ``pktstats.ingest._scan_canonical`` reads the same bytes as
words, and is checked against this.
"""

import numpy as np

from pktstats.ingest import (
    MAX_TIMESTAMP_DIGITS,
    _MASKS,
    _OCTET_LOOKUP,
    _PADDING,
    _TCP_V4_CODE,
    _V4_TAILS,
)

# The non-digit bytes of a canonical line up to its protocol field.
SEPARATORS = np.frombuffer(b",...,...,", dtype=np.uint8)


def tail_codes(buf, at, stops):
    """The _text_code of each tail ``buf[at:stop]`` of up to 7 bytes; a
    longer tail's code is that of no such text."""
    width = np.clip(stops - at, 0, 255).astype(np.uint64)
    tails = buf[at[:, None] + np.arange(8)].view("<u8")[:, 0]
    return tails & _MASKS[np.minimum(width, 8)] | width << np.uint64(56)


def line_table(buf):
    """(seps, ends, stops, lone_cr) of a chunk ``buf``, as ``_line_table``
    defines them."""
    body = buf[: -len(_PADDING)]
    nondigits = np.flatnonzero(body - np.uint8(ord("0")) > 9)
    ends = np.flatnonzero(body == ord("\n"))
    crlf = buf[ends - 1] == ord("\r")
    starts = np.concatenate(([0], ends[:-1] + 1))
    first = np.searchsorted(nondigits, starts)
    seps = np.take(nondigits, first[:, None] + np.arange(9), mode="clip")
    lone_cr = body.tobytes().count(b"\r") > np.count_nonzero(crlf)
    return seps, ends, ends - crlf, lone_cr


def scan_canonical(buf, seps, starts, stops):
    """(canonical, tcp_v4, src key, dst key) of each line ``buf[start:stop]``,
    as ``_scan_canonical`` defines them."""
    digits = seps[:, 0] - starts
    ok = (buf[seps] == SEPARATORS).all(axis=1) & (digits > 0)
    ok &= digits <= MAX_TIMESTAMP_DIGITS

    lo = seps[:, :-1] + 1
    index = np.clip(seps[:, 1:] - lo, 0, 4)
    for i in (2, 1, 0):
        index = index * 16 + (buf[lo + i] & 15)
    ranks = _OCTET_LOOKUP[index].astype(np.uint32)
    ok &= (ranks < 256).all(axis=1)

    tails = tail_codes(buf, seps[:, 8] + 1, stops)
    ok &= (tails[:, None] == _V4_TAILS).any(axis=1)

    ranks <<= np.array([24, 16, 8, 0] * 2, np.uint32)
    keys = np.bitwise_or.reduce(ranks.reshape(len(starts), 2, 4), axis=2)
    return ok, tails == _TCP_V4_CODE, keys[:, 0], keys[:, 1]

"""Property tests: the fast ingest paths accept and reject exactly what the
reference definitions (ipaddress, parse_packet_line, read_packet_csv) accept
and reject."""

import ipaddress
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import byte_scan  # noqa: E402
from pktstats import read_packet_csv  # noqa: E402
from pktstats.ingest import (  # noqa: E402
    CANONICAL_FIELDS,
    CHUNK_BYTES,
    MAX_TIMESTAMP_DIGITS,
    PacketParseError,
    _DOTTED_QUAD,
    _OCTET_RANKS,
    _PADDING,
    _PLAIN_V6,
    _is_address,
    _scan_canonical,
    is_valid_packet,
    parse_packet_line,
    quad_text,
    read_packet_keys,
)


def quad_key(text: str) -> int:
    """The key of a dotted quad: keys sort as the texts do."""
    key = 0
    for octet in text.split("."):
        key = key << 8 | _OCTET_RANKS[int(octet)]
    return key


def _accepted(text: str) -> bool:
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True


OCTET_LIKE = st.one_of(
    st.integers(0, 999).map(str),
    st.sampled_from(
        ["0", "00", "000", "01", "001", "010", "255", "256", "+1", "-1", " 1",
         "1 ", "٣", "²", "1٣", "", "a", "0x1", "1e1", "１"]
    ),
)
DOTTED = st.lists(OCTET_LIKE, min_size=1, max_size=5).map(".".join)


@settings(max_examples=1000, deadline=None)
@given(DOTTED)
def test_dotted_quad_rule_is_what_ipaddress_accepts(text):
    matched = _DOTTED_QUAD.fullmatch(text) is not None
    accepted = _accepted(text)
    if matched:
        assert accepted
    if accepted and ":" not in text:
        assert matched
    assert _is_address(text) == accepted


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=40), st.ip_addresses().map(str)))
def test_is_address_agrees_with_ipaddress(text):
    assert _is_address(text) == _accepted(text)


HEX_GROUP = st.one_of(
    st.integers(0, 0xFFFF).map("{:x}".format),
    st.sampled_from(["", "0", "00000", "FFFF", "fffff", "g", " 1", "1.2.3.4", "٣"]),
)
COLON_TEXT = st.one_of(
    st.lists(HEX_GROUP, min_size=2, max_size=10).map(":".join),
    st.tuples(
        st.ip_addresses(v=6).map(str),
        st.sampled_from(["", "%eth0", "%", "%1", ":", "::", ":1", ".1", " "]),
    ).map("".join),
    st.tuples(st.text(max_size=20), st.text(max_size=20)).map(":".join),
    st.text(alphabet="0123456789abcdefABCDEF:.%", max_size=45).filter(
        lambda text: ":" in text
    ),
)


@settings(max_examples=500, deadline=None)
@given(COLON_TEXT)
def test_text_with_a_colon_is_accepted_as_ipaddress_does(text):
    assert ":" in text
    assert _DOTTED_QUAD.fullmatch(text) is None
    assert _is_address(text) == _accepted(text)


PLAIN_V6 = re.compile(_PLAIN_V6.encode())


def _plain(texts):
    """Whether _PLAIN_V6 matches the whole of each text's UTF-8 bytes."""
    return [PLAIN_V6.fullmatch(text.encode("utf-8")) is not None for text in texts]


def _accepted_v6(text: str) -> bool:
    try:
        ipaddress.IPv6Address(text)
    except ValueError:
        return False
    return True


PLAIN_ALPHABET = "0123456789abcdefABCDEF:"
GRAMMAR_TEXT = st.one_of(
    COLON_TEXT,
    DOTTED,
    st.text(max_size=45),
    st.text(alphabet=PLAIN_ALPHABET, max_size=41),
    st.lists(HEX_GROUP, min_size=1, max_size=10).map(":".join),
    st.lists(st.sampled_from(["", "0", "1", "ffff", "FfFf", "12345"]), max_size=10).map(":".join),
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(GRAMMAR_TEXT, min_size=1, max_size=8))
def test_plain_grammar_accepts_only_what_ipaddress_accepts(texts):
    for text, plain in zip(texts, _plain(texts)):
        if ":" in text:
            # Complete, too, on text of hex digits and colons.
            if set(text) <= set(PLAIN_ALPHABET):
                assert plain == _accepted_v6(text), text
            elif plain:
                assert _accepted_v6(text), text
        else:
            assert not plain, text


EDGE_TEXTS = [
    "::", ":", ":::", "1::", "::1", ":1", "1:", "1:::2", "1::2::3", ":1::2", "1::2:",
    "1:2:3:4::5:6:7::8", "::1:2:3:4:5:6:7", "1:2:3:4:5:6:7::", "1:2:3::4:5:6:7",
    "::1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8::", "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7",
    "1:2:3:4:5:6:7:8:9", "12345::", "::fffff", "0000:0000:0000:0000:0000:0000:0000:0000",
    "0000:0000:0000:0000:0000:0000:0000:00000", "1.2.3.4", "01.2.3.4", "1.2.3.256",
    "255.255.255.255", "1..2.3", ".1.2.3", "1.2.3.", "1.2.3.4.5", "1.2.3", "1.2.3.4:",
    "::1.2.3.4", "fe80::1%eth0", "1:2:3:4:5:6:7:8\x00", "", "1\x00::",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_plain_grammar_on_edge_texts(text):
    (plain,) = _plain([text])
    if ":" in text and set(text) <= set(PLAIN_ALPHABET):
        assert plain == _accepted_v6(text)
    else:
        assert not plain


@settings(max_examples=500, deadline=None)
@given(st.lists(st.ip_addresses(v=6), min_size=1, max_size=8))
def test_plain_grammar_accepts_every_plain_form_of_an_address(addresses):
    forms = []
    for address in addresses:
        forms += [address.compressed, address.exploded, address.compressed.upper()]
    assert _plain(forms) == [True] * len(forms)


def _mostly(good, bad):
    """Values that are good about three times in four, so that most files
    parse several lines before any error."""
    return st.one_of(good, good, good, bad)


ADDRESSES = _mostly(
    st.one_of(
        st.sampled_from(["10.0.0.1", "10.0.0.2", "2001:db8::1", "fe80::1%eth0"]),
        st.ip_addresses().map(str),
    ),
    st.one_of(DOTTED, st.sampled_from(["", "not-an-ip", "10.0.0", "::g", "10.0.0.1 "])),
)
FIELD_VALUES = {
    "timestamp": _mostly(
        st.integers(0, 10**12).map(str),
        st.one_of(
            st.integers(-5, -1).map(str),
            st.sampled_from(["", "x", " 7", "+3", "1_000", "٣", "1.5", "-0"]),
        ),
    ),
    "src": ADDRESSES,
    "dst": ADDRESSES,
    "protocol": _mostly(
        st.sampled_from(["TCP", "UDP", "ICMP", "OTHER"]),
        st.sampled_from(["tcp", "GRE", "", "TCP "]),
    ),
    "ip_version": _mostly(
        st.sampled_from(["4", "6"]),
        st.sampled_from(["5", "four", "", " 4", "04", "+6", "٤"]),
    ),
}


@st.composite
def csv_lines(draw, fields):
    values = [draw(FIELD_VALUES[name]) for name in fields]
    extra = draw(st.sampled_from([0] * 10 + [-1, 1]))
    if extra < 0:
        values.pop(draw(st.integers(0, len(values) - 1)))
    elif extra > 0:
        values.append(draw(FIELD_VALUES["protocol"]))
    return ",".join(values)


@st.composite
def csv_files(draw):
    lines = draw(st.lists(csv_lines(CANONICAL_FIELDS), min_size=1, max_size=12))
    # Repeat lines so the per-file address table is hit as well as missed.
    lines += draw(st.lists(st.sampled_from(lines), max_size=6))
    return lines


def _reference(lines):
    """What parse_packet_line makes of each line on its own: the records
    before the first bad line, and that line's error text (None if all
    parse)."""
    records = []
    for number, line in enumerate(lines, 1):
        try:
            records.append(parse_packet_line(line, number))
        except PacketParseError as exc:
            return records, str(exc)
    return records, None


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_read_packet_csv_matches_parse_packet_line(lines):
    expected, error = _reference(lines)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pkts.csv"
        body = "".join(line + "\n" for line in lines)
        path.write_text(body, encoding="utf-8")
        try:
            records.extend(read_packet_csv(path))
        except PacketParseError as exc:
            assert str(exc) == error
        else:
            assert error is None
    assert [tuple(r) for r in records] == [tuple(r) for r in expected]
    assert [type(r.timestamp) for r in records] == [int] * len(records)


OCTETS = st.integers(0, 255).map(str)
QUADS = st.lists(OCTETS, min_size=4, max_size=4).map(".".join)


@st.composite
def quad_pairs(draw):
    """Two dotted quads, often sharing their first octets."""
    a = draw(QUADS)
    shared = draw(st.integers(0, 4))
    rest = draw(st.lists(OCTETS, min_size=4 - shared, max_size=4 - shared))
    b = ".".join(a.split(".")[:shared] + rest)
    return a, b


@settings(max_examples=1000, deadline=None)
@given(quad_pairs())
def test_quad_keys_sort_as_the_texts_do(pair):
    a, b = pair
    assert (quad_key(a) < quad_key(b)) == (a < b)
    assert (quad_key(a) == quad_key(b)) == (a == b)
    assert quad_text(quad_key(a)) == a


def _rarely(good, bad, one_in):
    """``bad`` once in ``one_in`` draws, else ``good``."""
    return st.integers(0, one_in - 1).flatmap(lambda i: bad if i == 0 else good)


# Timestamps at and past MAX_TIMESTAMP_DIGITS, up to more digits than int()
# reads by default.
LONG_TIMESTAMPS = [
    "9" * MAX_TIMESTAMP_DIGITS,
    "0" * MAX_TIMESTAMP_DIGITS,
    "1" * (MAX_TIMESTAMP_DIGITS + 1),
    "0" * (MAX_TIMESTAMP_DIGITS + 1),
    "1" * 5000,
]
# Rows that are canonical but for a rare field or octet just outside the
# canonical form, so that files read many lines before any error.
ROW_OCTETS = _rarely(
    OCTETS, st.sampled_from(["00", "01", "010", "256", "999", "1000", "", "٣", "1 "]), 40
)
ROW_ADDRESSES = _rarely(
    st.one_of(
        st.lists(ROW_OCTETS, min_size=4, max_size=4).map(".".join),
        st.sampled_from(["10.0.0.1", "0.0.0.0", "255.255.255.255"]),
    ),
    st.sampled_from(["fd00::1", "::ffff:10.0.0.1"]),
    40,
)
ROWS = st.tuples(
    _rarely(
        st.integers(0, 10**20).map(str),
        st.sampled_from(
            ["", "+1", " 7", "1_0", "-0", "-1", "٣", "1.5"] + LONG_TIMESTAMPS
        ),
        12,
    ),
    ROW_ADDRESSES,
    ROW_ADDRESSES,
    _rarely(
        st.sampled_from(["TCP", "TCP", "UDP", "ICMP", "OTHER"]),
        st.sampled_from(["tcp", "GRE", "", "TCP ", "TC", "OTHERS"]),
        12,
    ),
    _rarely(st.just("4"), st.sampled_from(["", "5", "04", " 4", "+4", "6"]), 12),
).map(",".join)
# IPv6 rows: plain text that the arrays skip, rows that take the line path
# (an embedded IPv4 tail, a scope), and rarely bad text or a dotted quad.
V6_TEXTS = st.one_of(
    st.ip_addresses(v=6).flatmap(
        lambda a: st.sampled_from([a.compressed, a.exploded, a.exploded.upper()])
    ),
    st.sampled_from(["fd00::1", "fd00::2", "::", "1:2:3:4:5:6:7:8"]),
)
V6_ROW_ADDRESSES = st.one_of(
    *[V6_TEXTS] * 6,
    st.sampled_from(["::ffff:10.0.0.1", "fe80::1%eth0", "1::2.3.4.5"]),
    _rarely(
        V6_TEXTS,
        st.sampled_from(
            ["fd00:::1", "12345::1", "1:2:3:4:5:6:7:8:9", ":1::2", "1::2::3", "::g",
             "1:2", "10.0.0.1"]
        ),
        8,
    ),
)
V6_ROWS = st.tuples(
    _rarely(
        st.integers(0, 10**6).map(str),
        st.sampled_from(["", "-1", "1a", " 1"] + LONG_TIMESTAMPS),
        20,
    ),
    V6_ROW_ADDRESSES,
    V6_ROW_ADDRESSES,
    st.sampled_from(["TCP", "UDP", "ICMP", "OTHER"]),
    _rarely(st.just("6"), st.just("4"), 12),
).map(",".join)
LINES = st.one_of(*[ROWS] * 6, *[V6_ROWS] * 4, csv_lines(CANONICAL_FIELDS), st.just(""))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(ROWS, V6_ROWS, csv_lines(CANONICAL_FIELDS)))
def test_every_valid_line_of_two_dotted_quads_is_canonical(line):
    """Every line accepted as TCP over IPv4 has two dotted quads and is
    canonical, so the chunk reader's line path never yields a valid packet."""
    try:
        record = parse_packet_line(line)
    except PacketParseError:
        return
    if not is_valid_packet(record):
        return
    assert _DOTTED_QUAD.fullmatch(record.src) and _DOTTED_QUAD.fullmatch(record.dst)
    data = line.encode("utf-8")
    buf = np.frombuffer(data + b"\n" + _PADDING, dtype=np.uint8)
    canonical, tcp_v4, src, dst = _scan_canonical(
        buf, np.array([0]), np.array([len(data)])
    )
    assert canonical[0] and tcp_v4[0]
    assert (int(src[0]), int(dst[0])) == (quad_key(record.src), quad_key(record.dst))


@st.composite
def packet_files(draw):
    """File bytes: rows that parse, rows that do not, and blank lines, with
    LF, CRLF or lone-CR ends and sometimes no end on the last line."""
    lines = draw(st.lists(LINES, max_size=40))
    # Most files have no lone CR, which makes its chunk be split anew.
    ends = ["\n", "\n", "\r\n"]
    if draw(st.integers(0, 3)) == 0:
        ends.append("\r")
    ends = [draw(st.sampled_from(ends)) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def _by_lines(path):
    """Valid (src, dst) pairs, lines read and the first error of read_packet_csv."""
    pairs, n_read = [], 0
    try:
        for record in read_packet_csv(path):
            n_read += 1
            if record[3] == "TCP" and record[4] == 4:
                pairs.append((record[1], record[2]))
    except PacketParseError as exc:
        return pairs, n_read, str(exc)
    return pairs, n_read, None


def _by_chunks(path, chunk_size):
    """The same, from read_packet_keys with the given chunk size."""
    pairs, n_read = [], 0
    try:
        for batch in read_packet_keys(path, _chunk_size=chunk_size):
            srcs, dsts = batch.src.tolist(), batch.dst.tolist()
            pairs += zip(map(quad_text, srcs), map(quad_text, dsts))
            n_read += batch.n_read
    except PacketParseError as exc:
        return pairs, n_read, str(exc)
    return pairs, n_read, None


@settings(max_examples=300, deadline=None)
@given(packet_files(), st.integers(4, 40))
def test_chunked_reader_matches_read_packet_csv(data, chunk_size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pkts.csv"
        path.write_bytes(data)
        expected = _by_lines(path)
        # Chunks of a few bytes split lines, CRLF pairs and octets.
        for size in (1, 2, 3, 7, chunk_size, CHUNK_BYTES):
            assert _by_chunks(path, size) == expected


def _scans(data):
    """The word scan and the byte-at-a-time scan of ``data``, lines that end
    with LF or CRLF, laid out as the chunk reader lays out a chunk."""
    buf = np.frombuffer(data + _PADDING, dtype=np.uint8)
    ends = np.flatnonzero(buf[: len(data)] == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    stops = ends - (buf[ends - 1] == ord("\r"))
    return _scan_canonical(buf, starts, stops), byte_scan.scan_canonical(
        buf, starts, stops
    )


def _assert_scans_agree(data):
    """Both scans give the same verdicts, and the same keys wherever the
    line is canonical; returns the word scan."""
    (canonical, tcp_v4, src, dst), expected = _scans(data)
    assert canonical.tolist() == expected[0].tolist()
    assert tcp_v4.tolist() == expected[1].tolist()
    assert src.dtype == dst.dtype == np.uint32
    assert src[canonical].tolist() == expected[2][canonical].tolist()
    assert dst[canonical].tolist() == expected[3][canonical].tolist()
    return canonical, tcp_v4, src, dst


def _with_byte(line, at, byte, insert):
    """``line`` as UTF-8 with ``byte`` put in at ``at`` (modulo its length),
    in place of the byte there unless ``insert``."""
    data = line.encode("utf-8")
    at %= len(data) + 1
    return data[:at] + bytes([byte]) + data[at + (not insert) :]


CHUNK_LINES = st.one_of(
    LINES.map(lambda line: line.encode("utf-8")),
    st.builds(
        _with_byte,
        ROWS,
        st.integers(0, 60),
        st.one_of(
            st.integers(ord("0"), ord("9")),
            st.integers(0, 255).filter(lambda byte: byte not in b"\r\n"),
        ),
        st.booleans(),
    ),
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(CHUNK_LINES, st.sampled_from([b"\n", b"\r\n"])),
        min_size=1,
        max_size=20,
    )
)
def test_word_scan_matches_the_byte_scan(lines):
    _assert_scans_agree(b"".join(line + end for line, end in lines))


# The longest canonical row: a 19-digit timestamp, two 15-character quads
# and the longest protocol name.
LONGEST_ROW = "9" * MAX_TIMESTAMP_DIGITS + ",255.255.255.255,199.199.199.199,OTHER,4"


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize(
    "row", [LONGEST_ROW, LONGEST_ROW.replace("OTHER", "TCP")], ids=["OTHER", "TCP"]
)
def test_word_scan_of_a_last_row_before_the_padding(row, end):
    # Every word read of the last row starts inside the chunk; the tail read
    # of a short protocol name reaches into the padding.
    data = b"1,10.0.0.1,10.0.0.2,UDP,4\n" + row.encode() + end
    canonical, tcp_v4, src, dst = _assert_scans_agree(data)
    assert canonical.tolist() == [True, True]
    assert tcp_v4.tolist() == [False, row.endswith("TCP,4")]
    _, src_text, dst_text, _, _ = row.split(",")
    assert (int(src[1]), int(dst[1])) == (quad_key(src_text), quad_key(dst_text))


NEAR_MISSES = [
    "0,01.2.3.4,5.6.7.8,TCP,4",
    "0,1.2.3.256,5.6.7.8,TCP,4",
    "0,1.2.3.1000,5.6.7.8,TCP,4",
    "0,1..3.4,5.6.7.8,TCP,4",
    "0,1.2.3.4.5,6.7.8,TCP,4",
    "0,1.2.3,4.5.6.7.8,TCP,4",
    ",1.2.3.4,5.6.7.8,TCP,4",
    "00,0.0.0.0,255.255.255.255,OTHER,6",
    "99999999999999999999,1.2.3.4,5.6.7.8,TCP,4",
    "9999999999999999999,1.2.3.4,5.6.7.8,TCP,4",
    pytest.param("1" * 5000 + ",1.2.3.4,5.6.7.8,TCP,4", id="5000-digit ts,TCP,4"),
    pytest.param("1" * 5000 + ",1.2.3.4,5.6.7.8,UDP,4", id="5000-digit ts,UDP,4"),
    "0,1.2.3.4,5.6.7.8,TCP,44",
    "0,1.2.3.4,5.6.7.8,TCP,4,",
    "0,1.2.3.4,5.6.7.8,TCP,4\x00",
    "0,1.2.3.4,5.6.7.8,TCP\x00,4",
    "0,1.2.3.4,5.6.7.8,TCPTCP,4",
    "0,1.2.3.4,5.6.7.8,OTHERS,4",
    "0,1.2.3.4,5.6.7.8,,4",
    "0,1.2.3.4,fd00::1,TCP,4",
    "0,1.2.3.4,5.6.7.8,TCP,6",
    "0,1.2.3.4,5.6.7.8,UDP,6",
    "0,1.2.3.4,::1.2.3.4,UDP,4",
    # IPv6 rows that the arrays skip, take the line path, or reject.
    "0,fd00::1,fd00::2,TCP,4",
    "0,fd00::1,fd00::2,OTHER,4",
    "0,fd00::1,10.0.0.1,TCP,4",
    "0,fd00::1,10.0.0.1,UDP,6",
    "0,::ffff:10.0.0.1,fd00::2,UDP,6",
    "0,::ffff:10.0.0.1,fd00::2,TCP,4",
    "0,fe80::1%eth0,fd00::2,UDP,6",
    "0,fd00::1,fe80::1%eth0,TCP,4",
    "0,fd00:::1,fd00::2,UDP,6",
    "0,12345::1,fd00::2,UDP,6",
    "0,fd00::2,1:2:3:4:5:6:7:8:9,TCP,6",
    "0,fd00::1,fd00::2,TCP,5",
    "x,fd00::1,fd00::2,TCP,6",
    ",fd00::1,fd00::2,TCP,6",
    "0,fd00::1,fd00::2,tcp,6",
    "0,fd00::1,fd00::2,TCP,6,",
    "9999999999999999999,fd00::1,fd00::2,UDP,6",
    "1" * 20 + ",fd00::1,fd00::2,UDP,6",
    pytest.param("1" * 5000 + ",fd00::1,fd00::2,UDP,6", id="5000-digit ts,ipv6"),
    # Long IPv6-like fields, which the plain-line pattern must reject
    # without runaway backtracking.
    pytest.param("0," + "1:" * 5000 + "1,fd00::2,UDP,6", id="5000-group src"),
    pytest.param("0," + "1::" * 2500 + "1,fd00::2,UDP,6", id="2500-double-colon src"),
    pytest.param("0,fd00::1," + "f" * 5000 + ",UDP,6", id="5000-hex-digit dst"),
    pytest.param("0,fd00::1,1:" + "f" * 5000 + "::,TCP,6", id="5000-hex-digit group"),
    # Fields that int() reads but the grammar does not allow.
    "\u0663,10.0.0.1,10.0.0.2,TCP, 4",
    "1_0,10.0.0.2,10.0.0.3,TCP,+4",
    " 7 ,10.0.0.1,10.0.0.2,TCP,4",
    "0,10.0.0.1,10.0.0.2,TCP,\u0664",
    "-0,10.0.0.1,10.0.0.2,TCP,4",
    "0,10.0.0.1,10.0.0.2,TCP,04",
]


@pytest.mark.parametrize("line", NEAR_MISSES)
def test_near_canonical_lines_read_alike(tmp_path, line):
    path = tmp_path / "pkts.csv"
    path.write_bytes(
        f"1,10.0.0.1,10.0.0.2,TCP,4\n1,fd00::1,fd00::3,UDP,6\n{line}\r\n"
        f"2,::2,fd00::1,ICMP,6\n2,10.0.0.2,10.0.0.1,TCP,4\n".encode()
    )
    expected = _by_lines(path)
    for size in (1, 7, CHUNK_BYTES):
        assert _by_chunks(path, size) == expected

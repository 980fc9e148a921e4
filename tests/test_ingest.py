"""Packet parsing, validity filtering, and fixed-size window assembly."""

import gzip
import ipaddress
import tracemalloc
from collections import Counter

import pytest

from pktstats import ingest, iter_windows, read_packet_csv
from pktstats.ingest import (
    CANONICAL_FIELDS,
    IngestSummary,
    PacketParseError,
    PacketRecord,
    is_valid_packet,
    next_window,
    parse_packet_line,
)

from conftest import make_records, window_pairs


class TestParsePacketLine:
    def test_valid_line_round_trip(self):
        rec = parse_packet_line("17,10.0.0.1,10.0.0.2,TCP,4\n")
        assert rec == PacketRecord(17, "10.0.0.1", "10.0.0.2", "TCP", 4)
        assert rec.timestamp == 17 and rec[0] == 17
        assert rec.protocol == "TCP" and rec[3] == "TCP"

    def test_field_indices_match_names(self):
        rec = parse_packet_line("3,2001:db8::3,2001:db8::4,UDP,6")
        assert tuple(rec) == (3, "2001:db8::3", "2001:db8::4", "UDP", 6)
        assert rec._fields == CANONICAL_FIELDS

    @pytest.mark.parametrize(
        "line",
        [
            "1,10.0.0.1,10.0.0.2,TCP",
            "1,10.0.0.1,10.0.0.2,TCP,4,extra",
            "",
        ],
    )
    def test_wrong_field_count(self, line):
        with pytest.raises(PacketParseError):
            parse_packet_line(line)

    @pytest.mark.parametrize(
        "line",
        [
            "x,10.0.0.1,10.0.0.2,TCP,4",
            "-1,10.0.0.1,10.0.0.2,TCP,4",
            "1,not-an-ip,10.0.0.2,TCP,4",
            "1,10.0.0.1,,TCP,4",
            "1,10.0.0.1,10.0.0.2,GRE,4",
            "1,10.0.0.1,10.0.0.2,TCP,5",
            "1,10.0.0.1,10.0.0.2,TCP,four",
        ],
    )
    def test_malformed_values(self, line):
        with pytest.raises(PacketParseError):
            parse_packet_line(line)

    def test_timestamps_have_at_most_nineteen_digits(self):
        record = parse_packet_line("9" * 19 + ",10.0.0.1,10.0.0.2,TCP,4")
        assert record.timestamp == 10**19 - 1
        with pytest.raises(PacketParseError, match="bad timestamp"):
            parse_packet_line("0" * 20 + ",10.0.0.1,10.0.0.2,TCP,4")

    def test_error_carries_line_number(self):
        with pytest.raises(PacketParseError) as excinfo:
            parse_packet_line("bad", line_number=42)
        assert excinfo.value.line_number == 42


# A row whose address family differs from its ip_version, and its error:
# the family is checked after every other field.
FAMILY_MISMATCHES = [
    ("1,fd00::1,10.0.0.2,TCP,4", "src address 'fd00::1' is not IPv4"),
    ("1,10.0.0.1,fd00::2,TCP,4", "dst address 'fd00::2' is not IPv4"),
    ("1,fd00::1,fd00::2,UDP,4", "src address 'fd00::1' is not IPv4"),
    ("1,10.0.0.1,fd00::2,UDP,6", "src address '10.0.0.1' is not IPv6"),
    ("1,fd00::1,10.0.0.2,ICMP,6", "dst address '10.0.0.2' is not IPv6"),
    ("1,10.0.0.1,10.0.0.2,TCP,6", "src address '10.0.0.1' is not IPv6"),
    ("1,fe80::1%eth0,10.0.0.2,TCP,4", "src address 'fe80::1%eth0' is not IPv4"),
    ("1,10.0.0.1,::ffff:10.0.0.1,TCP,4", "dst address '::ffff:10.0.0.1' is not IPv4"),
    ("1,1::2.3.4.5,10.0.0.2,OTHER,4", "src address '1::2.3.4.5' is not IPv4"),
    pytest.param(
        "1,10.0.0.1,fe80::1%" + "x" * 40 + ",TCP,4",
        "dst address 'fe80::1%" + "x" * 24 + "'... (48 characters) is not IPv4",
        id="48-character scoped dst",
    ),
    ("1,fd00::1,10.0.0.2,GRE,4", "unknown protocol 'GRE'"),
    ("1,fd00::1,10.0.0.2,TCP,5", "unknown ip_version 5"),
    ("1,fd00::1,10.0.0.256,TCP,4", "invalid dst address '10.0.0.256'"),
]


class TestAddressFamily:
    @pytest.mark.parametrize("line, message", FAMILY_MISMATCHES)
    def test_mismatch_raises_alike_in_both_readers(self, tmp_path, line, message):
        good = "".join(
            f"{i},10.0.0.{i % 7},10.0.1.{i % 5},TCP,4\n{i},fd00::{i % 3},::1,UDP,6\n"
            for i in range(100)
        )
        path = tmp_path / "pkts.csv"
        path.write_text(good + line + "\n" + good, encoding="utf-8")
        with pytest.raises(PacketParseError) as excinfo:
            list(read_packet_csv(path))
        assert str(excinfo.value) == f"line 201: {message}"
        for chunk_size in (1, 7, ingest.CHUNK_BYTES):
            batches = []
            with pytest.raises(PacketParseError) as excinfo:
                batches.extend(ingest.read_packet_keys(path, _chunk_size=chunk_size))
            assert str(excinfo.value) == f"line 201: {message}"
            assert sum(len(batch) for batch in batches) == 100
            assert sum(batch.n_read for batch in batches) == 200


class TestValidity:
    def test_only_tcp_over_ipv4_is_valid(self):
        assert is_valid_packet((0, "10.0.0.1", "10.0.0.2", "TCP", 4))
        assert not is_valid_packet((0, "10.0.0.1", "10.0.0.2", "TCP", 6))
        assert not is_valid_packet((0, "10.0.0.1", "10.0.0.2", "UDP", 4))
        assert not is_valid_packet((0, "10.0.0.1", "10.0.0.2", "ICMP", 4))

    def test_accepts_namedtuple_and_plain_tuple(self):
        assert is_valid_packet(PacketRecord(0, "10.0.0.1", "10.0.0.2", "TCP", 4))
        assert is_valid_packet((0, "a", "b", "TCP", 4))


class TestReadPacketCsv:
    LINES = "0,10.0.0.1,10.0.0.2,TCP,4\n1,10.0.0.3,10.0.0.4,UDP,4\n"

    def test_plain_file(self, tmp_path):
        path = tmp_path / "pkts.csv"
        path.write_text(self.LINES)
        records = list(read_packet_csv(path))
        assert records == [
            PacketRecord(0, "10.0.0.1", "10.0.0.2", "TCP", 4),
            PacketRecord(1, "10.0.0.3", "10.0.0.4", "UDP", 4),
        ]

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "pkts.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(self.LINES)
        assert len(list(read_packet_csv(path))) == 2

    def test_malformed_line_raises_with_position(self, tmp_path):
        path = tmp_path / "pkts.csv"
        path.write_text(self.LINES + "garbage\n")
        with pytest.raises(PacketParseError) as excinfo:
            list(read_packet_csv(path))
        assert excinfo.value.line_number == 3

    def test_undecodable_text_raises_parse_error(self, tmp_path):
        path = tmp_path / "pkts.csv"
        path.write_bytes(b"0,10.0.0.1,10.0.0.2,TCP,4\n1,10.0.0.\xff,10.0.0.2,TCP,4\n")
        with pytest.raises(PacketParseError, match="undecodable text") as excinfo:
            list(read_packet_csv(path))
        # Text is decoded in blocks: the error names the first line not
        # yet delivered, here the first.
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize("damage", ["truncated", "bad block type"])
    def test_damaged_gzip_raises_parse_error(self, tmp_path, damage):
        rows = b"".join(
            b"%d,10.0.%d.%d,10.1.0.1,TCP,4\n" % (i, i >> 8 & 255, i & 255)
            for i in range(5000)
        )
        data = bytearray(gzip.compress(rows, mtime=0))
        if damage == "truncated":
            del data[len(data) // 2 :]
        else:
            data[10] = 0b111  # the first deflate block (after a 10-byte header)
        path = tmp_path / "pkts.csv.gz"
        path.write_bytes(bytes(data))
        records = []
        with pytest.raises(PacketParseError, match="compressed data") as excinfo:
            records.extend(read_packet_csv(path))
        assert excinfo.value.line_number == len(records) + 1
        assert [record.timestamp for record in records] == list(range(len(records)))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1,10.0.0.1,10.0.0.2,TCP", "expected 5 fields, got 4"),
            ("x,10.0.0.1,10.0.0.2,TCP,4", "bad timestamp 'x'"),
            ("-1,10.0.0.1,10.0.0.2,TCP,4", "negative timestamp -1"),
            ("1,10.0.0.1,10.0.0.256,TCP,4", "invalid dst address '10.0.0.256'"),
            ("1,10.0.0.01,10.0.0.2,TCP,4", "invalid src address '10.0.0.01'"),
            ("1,10.0.0.1,10.0.0.2,GRE,4", "unknown protocol 'GRE'"),
            ("1,10.0.0.1,10.0.0.2,TCP,four", "bad ip_version 'four'"),
            ("1,10.0.0.1,10.0.0.2,TCP,5", "unknown ip_version 5"),
            ("1,10.0.0.1,10.0.0.2,TCP,04", "unknown ip_version 04"),
            ("\u0663,10.0.0.1,10.0.0.2,TCP, 4", "bad timestamp '\u0663'"),
            ("1_0,10.0.0.2,10.0.0.3,TCP,+4", "bad timestamp '1_0'"),
            (" 7 ,10.0.0.1,10.0.0.2,TCP,4", "bad timestamp ' 7 '"),
            ("+7,10.0.0.1,10.0.0.2,TCP,4", "bad timestamp '+7'"),
            ("-0,10.0.0.1,10.0.0.2,TCP,4", "bad timestamp '-0'"),
            ("1,10.0.0.1,10.0.0.2,TCP, 4", "bad ip_version ' 4'"),
            ("1,10.0.0.1,10.0.0.2,TCP,+4", "bad ip_version '+4'"),
            ("1,10.0.0.1,10.0.0.2,TCP,\u0664", "bad ip_version '\u0664'"),
            ("1" * 20 + ",10.0.0.1,10.0.0.2,TCP,4", f"bad timestamp '{'1' * 20}'"),
            pytest.param(
                "1" * 5000 + ",10.0.0.1,10.0.0.2,TCP,4",
                f"bad timestamp '{'1' * 32}'... (5000 characters)",
                id="5000-digit timestamp",
            ),
            pytest.param(
                "1," + "9" * 5000 + ",10.0.0.2,TCP,4",
                f"invalid src address '{'9' * 32}'... (5000 characters)",
                id="5000-character src",
            ),
            pytest.param(
                "1,10.0.0.1," + "9" * 5000 + ",TCP,4",
                f"invalid dst address '{'9' * 32}'... (5000 characters)",
                id="5000-character dst",
            ),
            pytest.param(
                "1,10.0.0.1,10.0.0.2," + "P" * 5000 + ",4",
                f"unknown protocol '{'P' * 32}'... (5000 characters)",
                id="5000-character protocol",
            ),
            pytest.param(
                "1,10.0.0.1,10.0.0.2," + "P" * 32 + ",4",
                f"unknown protocol '{'P' * 32}'",
                id="32-character protocol",
            ),
            pytest.param(
                "1,10.0.0.1,10.0.0.2," + "P" * 33 + ",4",
                f"unknown protocol '{'P' * 32}'... (33 characters)",
                id="33-character protocol",
            ),
            pytest.param(
                "1,10.0.0.1,10.0.0.2,TCP," + "4" * 5000,
                f"unknown ip_version {'4' * 32}... (5000 characters)",
                id="5000-digit ip_version",
            ),
            pytest.param(
                "1,10.0.0.1,10.0.0.2,TCP," + "v" * 5000,
                f"bad ip_version '{'v' * 32}'... (5000 characters)",
                id="5000-character ip_version",
            ),
        ],
    )
    def test_malformed_line_after_good_lines(self, tmp_path, bad, message):
        path = tmp_path / "pkts.csv"
        good = "".join(
            f"{i},10.0.0.{i % 7},10.0.1.{i % 5},TCP,4\n" for i in range(1000)
        )
        path.write_text(good + bad + "\n" + good, encoding="utf-8")
        records = []
        with pytest.raises(PacketParseError) as excinfo:
            records.extend(read_packet_csv(path))
        assert len(records) == 1000
        assert excinfo.value.line_number == 1001
        assert str(excinfo.value) == f"line 1001: {message}"

    def test_repeated_values_share_one_object(self, tmp_path):
        path = tmp_path / "pkts.csv"
        path.write_text(
            "0,10.0.0.1,10.0.0.2,TCP,4\n"
            "1,10.0.0.2,10.0.0.1,TCP,4\n"
            "2,10.0.0.3,10.0.0.1,TCP,4\n"
            "3,10.0.0.1,10.0.0.3,UDP,4\n"
            "4,2001:db8::1,fe80::2,TCP,6\n"
            "5,fe80::2,2001:db8::1,UDP,6\n"
        )
        records = list(read_packet_csv(path))
        assert records[0].src is records[1].dst is records[2].dst is records[3].src
        assert records[0].dst is records[1].src
        assert records[2].src is records[3].dst
        assert records[4].src is records[5].dst and records[4].dst is records[5].src
        assert records[0].protocol is records[1].protocol is records[2].protocol

    def test_each_distinct_address_is_validated_once(self, tmp_path, monkeypatch):
        assert not hasattr(ingest._is_address, "cache_info")
        calls = Counter()
        ip_address = ipaddress.ip_address

        def counted(text):
            calls[text] += 1
            return ip_address(text)

        monkeypatch.setattr(ipaddress, "ip_address", counted)
        v6 = ["2001:db8::1", "fe80::2", "::ffff:10.0.0.1"]
        lines = [
            f"{i},{v6[i % 3]},{v6[(i + 1) % 3]},TCP,6\n"
            f"{i},10.0.0.{i % 9},192.168.1.1,UDP,4\n"
            for i in range(300)
        ]
        path = tmp_path / "pkts.csv"
        path.write_text("".join(lines))
        assert len(list(read_packet_csv(path))) == 600
        assert calls == Counter(v6)
        # A second file starts from an empty table.
        assert len(list(read_packet_csv(path))) == 600
        assert calls == Counter({addr: 2 for addr in v6})


class TestReadPacketKeys:
    def test_ipaddress_sees_each_text_the_arrays_reject_once_per_file(
        self, tmp_path, monkeypatch
    ):
        calls = Counter()
        ip_address = ipaddress.ip_address

        def counted(text):
            calls[text] += 1
            return ip_address(text)

        monkeypatch.setattr(ipaddress, "ip_address", counted)
        plain = ["2001:db8::1", "fe80::2", "FD00:0:0:0:0:0:0:A"]
        other = ["::ffff:10.0.0.1", "fe80::1%eth0"]
        v6 = plain + other
        lines = [
            f"{i},{v6[i % 5]},{v6[(i + 1) % 5]},TCP,6\n"
            f"{i},10.0.0.{i % 9},192.168.1.1,UDP,4\n"
            f"{i},{plain[i % 3]},{other[i % 2]},TCP,6\n"
            f"{i},fd00::{i % 4},2001:db8::99,UDP,6\n"
            for i in range(300)
        ]
        path = tmp_path / "pkts.csv"
        path.write_text("".join(lines))
        # Chunks of 7 bytes hold one line or none; the table spans them all.
        # Rows of plain IPv6 text are skipped as arrays, so fd00::0-3 and
        # 2001:db8::99 never reach ipaddress; every other IPv6 text reaches it
        # once per file, on its first line-path row.
        for chunk_size in (7, ingest.CHUNK_BYTES):
            calls.clear()
            batches = list(ingest.read_packet_keys(path, _chunk_size=chunk_size))
            assert sum(batch.n_read for batch in batches) == 1200
            assert calls == Counter(v6)

    def test_only_lines_that_no_array_pass_accepts_take_the_line_path(
        self, tmp_path, monkeypatch
    ):
        parsed = []
        parse_packet_line = ingest.parse_packet_line

        def recording(line, line_number, known):
            parsed.append(line_number)
            return parse_packet_line(line, line_number, known)

        monkeypatch.setattr(ingest, "parse_packet_line", recording)
        path = tmp_path / "pkts.csv"
        path.write_bytes(
            b"0,10.0.0.1,10.0.0.2,TCP,4\n"
            b"1,0.0.0.0,255.255.255.255,UDP,4\r\n"
            b"2,2001:db8::1,fd00::3,TCP,6\n"
            b"3,192.168.100.10,10.0.0.1,ICMP,4\r"
            b"4,::,1:2:3:4:5:6:7:8,OTHER,6\n"
            b"5,1::2.3.4.5,fd00::2,TCP,6\n"
            b"6,::ffff:10.0.0.1,fd00::2,UDP,6\n"
            b"7,fe80::1%eth0,fd00::2,UDP,6\n"
            b"8,fd00:::1,fd00::2,UDP,6\n"
            b"9,10.0.0.1,10.0.0.2,TCP,5\n"
            b"10,10.0.0.1,10.0.0.2,OTHER,4"
        )
        with pytest.raises(PacketParseError, match="line 9: invalid src address"):
            list(ingest.read_packet_keys(path))
        assert parsed == [6, 7, 8, 9]

    def test_peak_memory_does_not_grow_with_the_stream(self, tmp_path):
        # A chunk's per-line arrays come to about 12.3 times its bytes (15.6
        # while line ends took a pass of their own); all of them are freed
        # before the next chunk is read.
        rows = b"".join(
            b"%d,10.%d.%d.1,192.168.%d.%d,%s,4\n"
            % (i, i % 250, i % 7, i % 199, i % 97, (b"TCP", b"UDP")[i % 3 == 0])
            for i in range(20000)
        )
        peaks = {}
        for chunks in (10, 40):
            path = tmp_path / f"{chunks}.csv"
            path.write_bytes(rows * (chunks * ingest.CHUNK_BYTES // len(rows) + 1))
            tracemalloc.start()
            try:
                for batch in ingest.read_packet_keys(path):
                    del batch
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40] <= 1.1 * peaks[10]
        assert peaks[10] <= 15.6 * ingest.CHUNK_BYTES


class TestWindows:
    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            next_window(iter(()), 0)

    def test_exact_windows_and_discarded_tail(self):
        records = make_records([(f"s{i}", f"d{i % 2}") for i in range(7)])
        windows = list(iter_windows(records, 3))
        assert [w.index for w in windows] == [0, 1]
        assert all(w.n_valid == 3 and len(w) == 3 for w in windows)
        # 7 = 2 full windows + 1 leftover record, which is dropped.
        assert window_pairs(windows[0]) == [(r[1], r[2]) for r in records[:3]]
        assert window_pairs(windows[1]) == [(r[1], r[2]) for r in records[3:6]]

    def test_each_window_is_coded_by_its_own_table(self):
        records = make_records([("b", "a"), ("c", "a"), ("a", "d"), ("e", "f")])
        first, second = iter_windows(records, 2)
        assert first.names == ("a", "b", "c")
        assert (first.src.tolist(), first.dst.tolist()) == ([1, 2], [0, 0])
        assert second.names == ("a", "d", "e", "f")
        assert (second.src.tolist(), second.dst.tolist()) == ([0, 2], [1, 3])

    def test_invalid_packets_are_skipped_not_windowed(self):
        valid = make_records([("a", "b")] * 4)
        noise = make_records([("c", "d")] * 3, protocol="UDP", start_ts=100)
        interleaved = [valid[0], noise[0], valid[1], noise[1], valid[2], noise[2], valid[3]]
        summary = IngestSummary()
        windows = list(iter_windows(interleaved, 2, summary))
        assert len(windows) == 2
        assert all(window_pairs(w) == [("a", "b")] * 2 for w in windows)
        assert summary.total_read == 7
        assert summary.total_valid == 4
        assert summary.total_skipped == 3

    def test_next_window_returns_none_on_short_stream(self):
        records = make_records([("a", "b")] * 2)
        summary = IngestSummary()
        assert next_window(iter(records), 5, summary=summary) is None
        assert summary.total_read == 2 and summary.total_valid == 2

    def test_summary_counts_records_read_before_a_stream_error(self):
        def stream():
            yield from make_records([("a", "b")] * 2)
            yield from make_records([("c", "d")], protocol="UDP")
            raise PacketParseError("bad row", 4)

        summary = IngestSummary()
        with pytest.raises(PacketParseError):
            next_window(stream(), 5, summary=summary)
        assert (summary.total_read, summary.total_valid, summary.total_skipped) == (
            3, 2, 1
        )

    def test_windows_are_consecutive_slices(self):
        records = make_records([(f"s{i}", f"d{i}") for i in range(9)])
        windows = list(iter_windows(records, 3))
        flat = [pair for w in windows for pair in window_pairs(w)]
        assert flat == [(r[1], r[2]) for r in records]

"""Packet parsing, validity filtering, and fixed-size window assembly."""

import gzip
import ipaddress
from collections import Counter

import pytest

from pktstats import ingest, iter_windows, read_packet_csv
from pktstats.ingest import (
    CANONICAL_FIELDS,
    FormatSpec,
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
        rec = parse_packet_line("3,10.1.2.3,10.4.5.6,UDP,6")
        assert tuple(rec) == (3, "10.1.2.3", "10.4.5.6", "UDP", 6)
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

    def test_error_carries_line_number(self):
        with pytest.raises(PacketParseError) as excinfo:
            parse_packet_line("bad", line_number=42)
        assert excinfo.value.line_number == 42

    def test_reordered_fields(self):
        fmt = FormatSpec(fields=("src", "dst", "timestamp", "protocol", "ip_version"))
        rec = parse_packet_line("10.0.0.1,10.0.0.2,9,ICMP,4", fmt=fmt)
        assert rec == PacketRecord(9, "10.0.0.1", "10.0.0.2", "ICMP", 4)

    def test_format_fields_must_be_permutation(self):
        with pytest.raises(ValueError):
            FormatSpec(fields=("timestamp", "src", "dst", "protocol"))


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

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "pkts.csv"
        path.write_text("timestamp,src,dst,protocol,ip_version\n" + self.LINES)
        fmt = FormatSpec(header=True)
        assert len(list(read_packet_csv(path, fmt))) == 2

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
        ],
    )
    def test_malformed_line_after_good_lines(self, tmp_path, bad, message):
        path = tmp_path / "pkts.csv"
        good = "".join(
            f"{i},10.0.0.{i % 7},10.0.1.{i % 5},TCP,4\n" for i in range(1000)
        )
        path.write_text(good + bad + "\n" + good)
        records = []
        with pytest.raises(PacketParseError) as excinfo:
            records.extend(read_packet_csv(path))
        assert len(records) == 1000
        assert excinfo.value.line_number == 1001
        assert str(excinfo.value) == f"line 1001: {message}"

    def test_permuted_fields_with_header(self, tmp_path):
        fmt = FormatSpec(
            fields=("ip_version", "dst", "protocol", "timestamp", "src"), header=True
        )
        path = tmp_path / "pkts.csv"
        path.write_text(
            "ip_version,dst,protocol,timestamp,src\n"
            "4,10.0.0.2,TCP,0,10.0.0.1\n"
            "6,::1,UDP,1,fe80::2\n"
            "4,10.0.0.1,ICMP,2,10.0.0.2\n"
        )
        assert list(read_packet_csv(path, fmt)) == [
            PacketRecord(0, "10.0.0.1", "10.0.0.2", "TCP", 4),
            PacketRecord(1, "fe80::2", "::1", "UDP", 6),
            PacketRecord(2, "10.0.0.2", "10.0.0.1", "ICMP", 4),
        ]

    def test_repeated_values_share_one_object(self, tmp_path):
        path = tmp_path / "pkts.csv"
        path.write_text(
            "0,10.0.0.1,10.0.0.2,TCP,4\n"
            "1,10.0.0.2,10.0.0.1,TCP,4\n"
            "2,2001:db8::1,10.0.0.1,TCP,6\n"
            "3,10.0.0.1,2001:db8::1,UDP,6\n"
        )
        records = list(read_packet_csv(path))
        assert records[0].src is records[1].dst is records[2].dst is records[3].src
        assert records[0].dst is records[1].src
        assert records[2].src is records[3].dst
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
    def test_each_distinct_address_is_validated_once_per_file(
        self, tmp_path, monkeypatch
    ):
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
        # Chunks of 7 bytes hold one line or none; the table spans them all.
        for chunk_size in (7, ingest.CHUNK_BYTES):
            calls.clear()
            batches = list(ingest.read_packet_keys(path, _chunk_size=chunk_size))
            assert sum(batch.n_read for batch in batches) == 600
            assert calls == Counter(v6)


    def test_only_lines_that_are_not_canonical_take_the_line_path(
        self, tmp_path, monkeypatch
    ):
        parsed = []
        line_parser = ingest._line_parser

        def recording(fmt):
            parse = line_parser(fmt)

            def recorded(line, line_number):
                parsed.append(line_number)
                return parse(line, line_number)

            return recorded

        monkeypatch.setattr(ingest, "_line_parser", recording)
        path = tmp_path / "pkts.csv"
        path.write_bytes(
            b"0,10.0.0.1,10.0.0.2,TCP,4\n"
            b"1,0.0.0.0,255.255.255.255,UDP,6\r\n"
            b"2,2001:db8::1,10.0.0.1,TCP,6\n"
            b"3,192.168.100.10,10.0.0.1,ICMP,4\n"
            b"4,10.0.0.1,10.0.0.2,TCP,5\n"
            b"5,10.0.0.1,10.0.0.2,OTHER,4"
        )
        with pytest.raises(PacketParseError, match="line 5: unknown ip_version 5"):
            list(ingest.read_packet_keys(path))
        assert parsed == [3, 5]


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

"""Sparse traffic-matrix construction, views, reductions, and dumps."""

import numpy as np
import pytest

from pktstats import AggregateSummary, PacketWindow, TrafficMatrix
from pktstats import read_matrix_dump, write_matrix_dump

import dense_oracle
from conftest import STAR_COUNTS, make_records, random_cells


class TestConstruction:
    def test_from_counts_round_trip(self, star_matrix):
        assert star_matrix.entry("s1", "d1") == 2
        assert star_matrix.entry("s1", "d2") == 1
        assert star_matrix.entry("s2", "d1") == 1
        assert star_matrix.entry("s2", "d9") == 0
        assert star_matrix.total == 5
        assert star_matrix.nnz == 4

    def test_from_window_counts_duplicates(self, star_window, star_matrix):
        assert TrafficMatrix.from_window(star_window) == star_matrix

    def test_from_window_conserves_packets(self, star_window):
        assert TrafficMatrix.from_window(star_window).total == star_window.n_valid

    def test_from_window_rejects_invalid_packets(self):
        records = make_records([("a", "b")], protocol="UDP")
        window = PacketWindow(0, tuple(records), 1)
        with pytest.raises(ValueError):
            TrafficMatrix.from_window(window)

    def test_accumulate_then_freeze(self):
        m = TrafficMatrix().accumulate("a", "b").accumulate("a", "b", 2).freeze()
        assert m.entry("a", "b") == 3
        with pytest.raises(ValueError):
            m.accumulate("a", "b")

    def test_accumulate_rejects_nonpositive_counts(self):
        m = TrafficMatrix()
        with pytest.raises(ValueError):
            m.accumulate("a", "b", 0)
        with pytest.raises(ValueError):
            m.accumulate("a", "b", -2)

    def test_reads_before_freeze_raise(self):
        m = TrafficMatrix().accumulate("a", "b")
        reads = (
            lambda: m.total,
            lambda: m.nnz,
            lambda: m.rows,
            lambda: list(m.entries()),
            lambda: m.reduce("row", "sum"),
            lambda: m.aggregates(),
            lambda: m == TrafficMatrix.from_counts({("a", "b"): 1}),
        )
        for read in reads:
            with pytest.raises(ValueError, match="not frozen"):
                read()
        assert "unfrozen" in repr(m)
        assert m.freeze().total == 1

    def test_equality_is_by_content(self):
        a = TrafficMatrix().accumulate("a", "b").accumulate("c", "d", 2).freeze()
        b = TrafficMatrix().accumulate("c", "d", 2).accumulate("a", "b").freeze()
        assert a == b
        assert a != TrafficMatrix.from_counts({("a", "b"): 1})


class TestViews:
    def test_rows_and_cols_are_transposes(self, star_matrix):
        assert star_matrix.rows == {
            "s1": {"d1": 2, "d2": 1, "d3": 1},
            "s2": {"d1": 1},
        }
        assert star_matrix.cols == {
            "d1": {"s1": 2, "s2": 1},
            "d2": {"s1": 1},
            "d3": {"s1": 1},
        }

    def test_sorted_key_views(self, star_matrix):
        assert star_matrix.row_keys == ("s1", "s2")
        assert star_matrix.col_keys == ("d1", "d2", "d3")

    def test_entries_sorted(self, star_matrix):
        assert list(star_matrix.entries()) == [
            ("s1", "d1", 2),
            ("s1", "d2", 1),
            ("s1", "d3", 1),
            ("s2", "d1", 1),
        ]

    def test_reduce_modes(self, star_matrix):
        assert star_matrix.reduce("row", "sum") == {"s1": 4, "s2": 1}
        assert star_matrix.reduce("row", "nnz") == {"s1": 3, "s2": 1}
        assert star_matrix.reduce("col", "sum") == {"d1": 3, "d2": 1, "d3": 1}
        assert star_matrix.reduce("col", "nnz") == {"d1": 2, "d2": 1, "d3": 1}

    def test_reduce_rejects_bad_arguments(self, star_matrix):
        with pytest.raises(ValueError):
            star_matrix.reduce("diag", "sum")
        with pytest.raises(ValueError):
            star_matrix.reduce("row", "max")

    def test_aggregates(self, star_matrix):
        assert star_matrix.aggregates() == AggregateSummary(
            valid_packets=5, unique_links=4, unique_sources=2, unique_destinations=3
        )

    def test_submatrix(self, star_matrix):
        sub = star_matrix.submatrix({"s1"}, {"d1", "d3"})
        assert sub == TrafficMatrix.from_counts({("s1", "d1"): 2, ("s1", "d3"): 1})
        assert star_matrix.submatrix(None, None) == star_matrix
        assert star_matrix.submatrix({"s2"}, {"d2"}).total == 0


class TestDumps:
    def test_round_trip_plain_and_gzip(self, tmp_path, star_matrix):
        for name in ("m.csv", "m.csv.gz"):
            path = tmp_path / name
            assert write_matrix_dump(path, star_matrix) == 4
            assert read_matrix_dump(path) == star_matrix

    def test_gzip_output_is_reproducible(self, tmp_path, star_matrix):
        a = tmp_path / "a.csv.gz"
        b = tmp_path / "b.csv.gz"
        write_matrix_dump(a, star_matrix)
        write_matrix_dump(b, star_matrix)
        assert a.read_bytes() == b.read_bytes()

    def test_read_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            read_matrix_dump(path)
        path.write_text("a,b,0\n")
        with pytest.raises(ValueError):
            read_matrix_dump(path)


class TestAgainstDenseOracle:
    def test_random_matrices_match_dense_aggregates(self):
        rng = np.random.Generator(np.random.Philox(key=20260823))
        for _ in range(50):
            cells = random_cells(rng)
            matrix = TrafficMatrix.from_counts(cells)
            dense, row_names, col_names = dense_oracle.from_cells(cells)
            packets, links, sources, dests = dense_oracle.aggregates(dense)
            agg = matrix.aggregates()
            assert agg.valid_packets == packets
            assert agg.unique_links == links
            assert agg.unique_sources == sources
            assert agg.unique_destinations == dests
            assert matrix.reduce("row", "sum") == dense_oracle.quantity_maps(
                dense, row_names, col_names
            )["source_packets"]

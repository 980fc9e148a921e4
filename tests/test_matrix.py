"""Sparse traffic-matrix construction and totals, and the name-keyed
reference views of ``dict_reference`` over it."""

import tracemalloc

import numpy as np
import pytest

from pktstats import TrafficMatrix
from pktstats.ingest import KeyBatch
from pktstats.topology import CategoryStats

import dense_oracle
from conftest import STAR_COUNTS, matrix_of, random_cells
from dict_reference import entries, reduce, rows


class TestConstruction:
    def test_matrix_of_round_trip(self, star_matrix):
        counts = {(src, dst): count for src, dst, count in entries(star_matrix)}
        assert counts == STAR_COUNTS
        assert star_matrix.total == 5
        assert star_matrix.nnz == 4

    def test_from_window_counts_duplicates(self, star_window, star_matrix):
        matrix = TrafficMatrix.from_window(star_window)
        assert list(entries(matrix)) == list(entries(star_matrix))

    def test_from_window_conserves_packets(self, star_window):
        assert TrafficMatrix.from_window(star_window).total == star_window.n_valid

    def test_key_window_build_holds_few_bytes_per_packet(self):
        # A million packets over at most 1e4 links: the cells are few, so the
        # peak is what the build holds per packet.
        n = 10**6
        rng = np.random.default_rng(26)
        src, dst = rng.integers(0, 2**32, size=(2, 10**4), dtype=np.uint32)
        link = rng.integers(0, 10**4, size=n)
        stream = KeyBatch(src[link], dst[link], n)
        tracemalloc.start()
        try:
            matrix = TrafficMatrix.from_window(stream.window(0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.total == n and matrix.nnz <= 10**4
        assert peak < 24 * n


class TestViews:
    def test_rows_and_cols_are_transposes(self, star_matrix):
        assert rows(star_matrix) == {
            "s1": {"d1": 2, "d2": 1, "d3": 1},
            "s2": {"d1": 1},
        }
        # The rows of the transposed matrix are the column-major view.
        transposed = matrix_of(
            {(dst, src): count for src, dst, count in entries(star_matrix)}
        )
        assert rows(transposed) == {
            "d1": {"s1": 2, "s2": 1},
            "d2": {"s1": 1},
            "d3": {"s1": 1},
        }

    def test_sorted_key_views(self):
        m = matrix_of(
            {("s2", "d3"): 1, ("s10", "d1"): 2, ("s1", "d2"): 1}
        )
        assert list(rows(m)) == ["s1", "s10", "s2"]
        assert list(reduce(m, "row", "sum")) == ["s1", "s10", "s2"]
        assert list(reduce(m, "col", "nnz")) == ["d1", "d2", "d3"]

    def test_entries_sorted(self, star_matrix):
        assert list(entries(star_matrix)) == [
            ("s1", "d1", 2),
            ("s1", "d2", 1),
            ("s1", "d3", 1),
            ("s2", "d1", 1),
        ]

    def test_reduce_modes(self, star_matrix):
        assert reduce(star_matrix, "row", "sum") == {"s1": 4, "s2": 1}
        assert reduce(star_matrix, "row", "nnz") == {"s1": 3, "s2": 1}
        assert reduce(star_matrix, "col", "sum") == {"d1": 3, "d2": 1, "d3": 1}
        assert reduce(star_matrix, "col", "nnz") == {"d1": 2, "d2": 1, "d3": 1}

    def test_reduce_rejects_bad_arguments(self, star_matrix):
        with pytest.raises(ValueError):
            reduce(star_matrix, "diag", "sum")
        with pytest.raises(ValueError):
            reduce(star_matrix, "row", "max")

    def test_aggregates(self, star_matrix):
        assert star_matrix.aggregates() == CategoryStats(
            sources=2, packets=5, links=4, destinations=3
        )


class TestAgainstDenseOracle:
    def test_random_matrices_match_dense_aggregates(self):
        rng = np.random.Generator(np.random.Philox(key=20260823))
        for _ in range(50):
            cells = random_cells(rng)
            matrix = matrix_of(cells)
            dense, row_names, col_names = dense_oracle.from_cells(cells)
            packets, links, sources, dests = dense_oracle.aggregates(dense)
            agg = matrix.aggregates()
            assert agg.packets == packets
            assert agg.links == links
            assert agg.sources == sources
            assert agg.destinations == dests
            assert reduce(matrix, "row", "sum") == dense_oracle.quantity_maps(
                dense, row_names, col_names
            )["source_packets"]

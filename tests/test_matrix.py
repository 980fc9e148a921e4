"""Sparse traffic-matrix construction, views, and reductions."""

import numpy as np
import pytest

from pktstats import TrafficMatrix
from pktstats.matrix import AggregateSummary

import dense_oracle
from conftest import STAR_COUNTS, random_cells


class TestConstruction:
    def test_from_counts_round_trip(self, star_matrix):
        counts = {(src, dst): count for src, dst, count in star_matrix.entries()}
        assert counts == STAR_COUNTS
        assert star_matrix.total == 5
        assert star_matrix.nnz == 4

    def test_from_window_counts_duplicates(self, star_window, star_matrix):
        assert TrafficMatrix.from_window(star_window) == star_matrix

    def test_from_window_conserves_packets(self, star_window):
        assert TrafficMatrix.from_window(star_window).total == star_window.n_valid

    def test_from_counts_rejects_nonpositive_counts(self):
        for count in (0, -2, 1.0):
            with pytest.raises(ValueError):
                TrafficMatrix.from_counts({("a", "b"): 1, ("c", "d"): count})

    def test_equality_is_by_content(self):
        a = TrafficMatrix.from_counts({("a", "b"): 1, ("c", "d"): 2})
        b = TrafficMatrix.from_counts({("c", "d"): 2, ("a", "b"): 1})
        assert a == b
        assert a != TrafficMatrix.from_counts({("a", "b"): 1})


class TestViews:
    def test_rows_and_cols_are_transposes(self, star_matrix):
        assert star_matrix.rows == {
            "s1": {"d1": 2, "d2": 1, "d3": 1},
            "s2": {"d1": 1},
        }
        # The rows of the transposed matrix are the column-major view.
        transposed = TrafficMatrix.from_counts(
            {(dst, src): count for src, dst, count in star_matrix.entries()}
        )
        assert transposed.rows == {
            "d1": {"s1": 2, "s2": 1},
            "d2": {"s1": 1},
            "d3": {"s1": 1},
        }

    def test_sorted_key_views(self):
        m = TrafficMatrix.from_counts(
            {("s2", "d3"): 1, ("s10", "d1"): 2, ("s1", "d2"): 1}
        )
        assert list(m.rows) == ["s1", "s10", "s2"]
        assert list(m.reduce("row", "sum")) == ["s1", "s10", "s2"]
        assert list(m.reduce("col", "nnz")) == ["d1", "d2", "d3"]

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

"""Quantity extraction, histogram normalization, and binary-log pooling."""

import csv
import math

import numpy as np
import pytest

from pktstats import (
    ALL_KINDS,
    QuantityKind,
    TrafficMatrix,
    cumulative,
    degree_histogram,
    log_pool,
    network_quantity,
    pool_quantity,
    probability,
)
from pktstats.netstats import (
    POOLED_CSV_HEADER,
    PooledDistribution,
    bin_edges,
    window_mean_std,
    write_pooled_csv,
)

import dense_oracle
from conftest import random_cells


def read_pooled_csv(path, d_max):
    """A written pooled CSV as a PooledDistribution; the file holds no d_max."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == POOLED_CSV_HEADER
    return PooledDistribution(
        bin_edges=tuple(int(row[1]) for row in rows),
        values=tuple(float(row[2]) for row in rows),
        sigmas=tuple(float(row[3]) for row in rows),
        n_windows=int(rows[0][4]),
        d_max=d_max,
        kind=rows[0][0],
    )


class TestNetworkQuantity:
    def test_star_quantities(self, star_matrix):
        expect = {
            QuantityKind.SOURCE_PACKETS: {"s1": 4, "s2": 1},
            QuantityKind.SOURCE_FAN_OUT: {"s1": 3, "s2": 1},
            QuantityKind.LINK_PACKETS: {
                "s1→d1": 2,
                "s1→d2": 1,
                "s1→d3": 1,
                "s2→d1": 1,
            },
            QuantityKind.DESTINATION_FAN_IN: {"d1": 2, "d2": 1, "d3": 1},
            QuantityKind.DESTINATION_PACKETS: {"d1": 3, "d2": 1, "d3": 1},
        }
        for kind, vector in expect.items():
            assert network_quantity(star_matrix, kind) == vector

    def test_random_matrices_match_dense_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(40):
            cells = random_cells(rng)
            matrix = TrafficMatrix.from_counts(cells)
            dense, rows, cols = dense_oracle.from_cells(cells)
            expect = dense_oracle.quantity_maps(dense, rows, cols)
            for kind in ALL_KINDS:
                assert network_quantity(matrix, kind) == expect[kind.value]


class TestHistogramToCumulative:
    def test_degree_histogram(self):
        assert degree_histogram({"a": 3, "b": 1, "c": 1}) == {3: 1, 1: 2}

    def test_probability_normalizes_and_sorts(self):
        pmf = probability({3: 1, 1: 2})
        assert list(pmf) == [1, 3]
        assert pmf[1] == pytest.approx(2 / 3)
        assert pmf[3] == pytest.approx(1 / 3)
        assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-15)

    def test_probability_rejects_empty(self):
        with pytest.raises(ValueError):
            probability({})

    def test_cumulative_is_running_sum(self):
        cum = cumulative({1: 0.5, 2: 0.25, 4: 0.25})
        assert cum == {1: 0.5, 2: 0.75, 4: 1.0}
        with pytest.raises(ValueError):
            cumulative({})


class TestBinEdges:
    @pytest.mark.parametrize(
        "d_max,edges",
        [
            (1, (1,)),
            (2, (1, 2)),
            (3, (1, 2, 4)),
            (4, (1, 2, 4)),
            (5, (1, 2, 4, 8)),
            (8, (1, 2, 4, 8)),
            (9, (1, 2, 4, 8, 16)),
            (1000, (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)),
        ],
    )
    def test_edges_table(self, d_max, edges):
        assert bin_edges(d_max) == edges

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bin_edges(0)


class TestLogPool:
    def test_star_destination_packets(self, star_matrix):
        pooled = pool_quantity(star_matrix, QuantityKind.DESTINATION_PACKETS)
        assert pooled.bin_edges == (1, 2, 4)
        assert pooled.values == pytest.approx((2 / 3, 0.0, 1 / 3), abs=1e-15)
        assert pooled.d_max == 3
        assert pooled.n_windows == 1
        assert pooled.sigmas == (0.0, 0.0, 0.0)
        assert pooled.kind == "destination_packets"

    def test_star_fan_out(self, star_matrix):
        pooled = pool_quantity(star_matrix, QuantityKind.SOURCE_FAN_OUT)
        assert pooled.bin_edges == (1, 2, 4)
        assert pooled.values == pytest.approx((0.5, 0.0, 0.5), abs=0)

    def test_star_link_packets(self, star_matrix):
        pooled = pool_quantity(star_matrix, QuantityKind.LINK_PACKETS)
        assert pooled.bin_edges == (1, 2)
        assert pooled.values == pytest.approx((0.75, 0.25), abs=0)

    def test_interior_zero_bins_are_explicit(self):
        pooled = log_pool({1: 0.5, 8: 1.0}, 8)
        assert pooled.bin_edges == (1, 2, 4, 8)
        assert pooled.values == (0.5, 0.0, 0.0, 0.5)

    def test_bin_zero_is_exactly_degree_one(self):
        # Degree 2 lands in bin 1, so bin 0 carries only the degree-1 mass.
        pooled = log_pool({1: 0.25, 2: 1.0}, 2)
        assert pooled.values == (0.25, 0.75)

    def test_pool_total_is_one(self, star_matrix):
        for kind in ALL_KINDS:
            pooled = pool_quantity(star_matrix, kind)
            assert abs(pooled.total() - 1.0) <= 1e-12

    def test_d_max_must_match_largest_degree(self):
        with pytest.raises(ValueError):
            log_pool({1: 0.5, 3: 1.0}, 4)

    def test_rejects_degree_below_one(self):
        with pytest.raises(ValueError):
            log_pool({0: 0.5, 2: 1.0}, 2)

    def test_matches_manual_chain(self, star_matrix):
        vector = network_quantity(star_matrix, QuantityKind.DESTINATION_FAN_IN)
        pmf = probability(degree_histogram(vector))
        manual = log_pool(cumulative(pmf), max(pmf), kind="destination_fan_in")
        assert manual == pool_quantity(star_matrix, QuantityKind.DESTINATION_FAN_IN)


class TestPooledDistribution:
    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            PooledDistribution((1, 2), (1.0,), (0.0, 0.0), 1, 2)
        with pytest.raises(ValueError):
            PooledDistribution((1, 2), (0.5, 0.5), (0.0,), 1, 2)

    def test_edges_must_match_d_max(self):
        with pytest.raises(ValueError):
            PooledDistribution((1, 2), (0.5, 0.5), (0.0, 0.0), 1, 5)

    def test_n_windows_positive(self):
        with pytest.raises(ValueError):
            PooledDistribution((1,), (1.0,), (0.0,), 0, 1)


class TestWindowMeanStd:
    def test_two_window_mean_and_population_sigma(self):
        w1 = PooledDistribution((1, 2, 4), (0.5, 0.25, 0.25), (0.0,) * 3, 1, 4, "k")
        w2 = PooledDistribution((1, 2, 4), (0.75, 0.25, 0.0), (0.0,) * 3, 1, 3, "k")
        pooled = window_mean_std([w1, w2])
        assert pooled.values == (0.625, 0.25, 0.125)
        assert pooled.sigmas == (0.125, 0.0, 0.125)
        assert pooled.n_windows == 2
        assert pooled.d_max == 4
        assert pooled.kind == "k"

    def test_shorter_windows_padded_with_zero_bins(self):
        w1 = PooledDistribution((1,), (1.0,), (0.0,), 1, 1, "k")
        w2 = PooledDistribution((1, 2), (0.5, 0.5), (0.0, 0.0), 1, 2, "k")
        pooled = window_mean_std([w1, w2])
        assert pooled.bin_edges == (1, 2)
        assert pooled.values == (0.75, 0.25)
        assert pooled.sigmas == (0.25, 0.25)

    def test_reduction_is_order_independent(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        pools = []
        for _ in range(9):
            d_max = int(rng.integers(1, 65))
            edges = bin_edges(d_max)
            raw = rng.random(len(edges))
            vals = tuple((raw / raw.sum()).tolist())
            pools.append(
                PooledDistribution(edges, vals, (0.0,) * len(edges), 1, d_max, "k")
            )
        forward = window_mean_std(pools)
        backward = window_mean_std(list(reversed(pools)))
        assert forward.values == backward.values
        assert forward.sigmas == backward.sigmas

    def test_mixed_kinds_rejected(self):
        w1 = PooledDistribution((1,), (1.0,), (0.0,), 1, 1, "a")
        w2 = PooledDistribution((1,), (1.0,), (0.0,), 1, 1, "b")
        with pytest.raises(ValueError):
            window_mean_std([w1, w2])

    def test_multi_window_inputs_rejected(self):
        w1 = PooledDistribution((1,), (1.0,), (0.0,), 2, 1, "a")
        with pytest.raises(ValueError):
            window_mean_std([w1])
        with pytest.raises(ValueError):
            window_mean_std([])


class TestPooledCsv:
    def test_round_trip_exact(self, tmp_path, star_matrix):
        pooled = pool_quantity(star_matrix, QuantityKind.DESTINATION_PACKETS)
        path = tmp_path / "pool.csv"
        assert write_pooled_csv(path, pooled) == 3
        again = read_pooled_csv(path, d_max=3)
        assert again == pooled

    def test_kind_required_for_writing(self, tmp_path):
        pooled = PooledDistribution((1,), (1.0,), (0.0,), 1, 1, None)
        with pytest.raises(ValueError):
            write_pooled_csv(tmp_path / "pool.csv", pooled)


class TestObservedDmax:
    def test_tracks_pool_maximum(self, star_matrix):
        pooled = pool_quantity(star_matrix, QuantityKind.DESTINATION_PACKETS)
        assert pooled.d_max == 3
        assert pooled.bin_edges[-1] == 4

    def test_rejects_empty_mass(self):
        empty = TrafficMatrix.from_counts({})
        for kind in ALL_KINDS:
            with pytest.raises(ValueError):
                pool_quantity(empty, kind)

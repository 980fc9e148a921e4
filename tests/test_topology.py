"""Topology decomposition: category tiling, supernode selection, CSV I/O."""

import csv

import numpy as np
import pytest

from pktstats import topology_breakdown
from pktstats.pipeline import TOPOLOGY_CSV_HEADER, CategoryFractions, write_topology_csv
from pktstats.topology import CATEGORY_ORDER, ZERO_STATS, CategoryStats, find_supernodes

import dense_oracle
from conftest import STRICT_CELLS, matrix_of, random_cells


def csv_rows(path):
    """The data rows of a written topology CSV, by their first column."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == TOPOLOGY_CSV_HEADER
    return {row[0]: row[1:] for row in rows}


def read_topology_csv(path):
    """The category rows of a written topology CSV, residual row aside."""
    return {
        name: CategoryStats(*map(int, row[:4]))
        for name, row in csv_rows(path).items()
        if name != "residual"
    }


def assert_written_fractions(path, breakdown):
    """Each row's frac_* column is its count over the matrix total of the
    same name (0.0 where that total is 0), in [0, 1]."""
    totals = stats_tuple(breakdown.totals)
    rows = csv_rows(path)
    assert list(rows) == [*CATEGORY_ORDER, "supernode_internal", "residual"]
    for name, row in rows.items():
        counts = tuple(map(int, row[:4]))
        fractions = tuple(map(float, row[4:]))
        assert fractions == tuple(
            count / total if total else 0.0 for count, total in zip(counts, totals)
        ), name
        assert all(0.0 <= f <= 1.0 for f in fractions), name
    residual = rows["residual"][:4]
    assert residual == ["0", str(breakdown.residual_packets),
                        str(breakdown.residual_links), "0"]


def supernode_names(matrix, k=5):
    return matrix.node_names(find_supernodes(matrix, k))


def stats_tuple(stats):
    return (stats.sources, stats.packets, stats.links, stats.destinations)


def assert_tiling(matrix, breakdown):
    packets = breakdown.supernode_internal.packets + sum(
        c.packets for c in breakdown.categories.values()
    )
    links = breakdown.supernode_internal.links + sum(
        c.links for c in breakdown.categories.values()
    )
    assert packets == matrix.total
    assert links == matrix.nnz
    assert breakdown.residual_packets == 0
    assert breakdown.residual_links == 0


class TestStatsValidation:
    def test_rejects_negative_and_inconsistent_counts(self):
        with pytest.raises(ValueError):
            CategoryStats(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            CategoryStats(0, 1, 2, 0)

    @pytest.mark.parametrize(
        "counts", [(True, 1, 1, 1), (1, True, 1, 1), (1, 1, False, 1), (1, 1, 1, 1.0)]
    )
    def test_rejects_bools_and_floats_as_counts(self, counts):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            CategoryStats(*counts)

    def test_fractions_bounded(self):
        CategoryFractions(0.0, 1.0, 0.5, 0.25)
        with pytest.raises(ValueError):
            CategoryFractions(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CategoryFractions(0.0, -0.1, 0.0, 0.0)


class TestStarBreakdown:
    def test_fans(self, star_matrix):
        # The per-node fan arrays the categories read, by node id.
        names = star_matrix.node_names(range(star_matrix.n_nodes))
        assert names == ["d1", "d2", "d3", "s1", "s2"]
        assert star_matrix.out_degree.tolist() == [0, 0, 0, 3, 1]
        assert star_matrix.in_degree.tolist() == [2, 1, 1, 0, 0]

    def test_supernode_is_the_hub(self, star_matrix):
        assert supernode_names(star_matrix) == ["s1"]

    def test_category_stats(self, star_matrix):
        b = topology_breakdown(star_matrix)
        assert b.supernode_ids == ("s1",)
        assert b.categories["isolated_links"] == ZERO_STATS
        assert b.categories["supernode_leaves"] == CategoryStats(0, 2, 2, 2)
        assert b.categories["supernodes"] == CategoryStats(1, 2, 1, 0)
        assert b.categories["core"] == ZERO_STATS
        assert b.categories["core_leaves"] == CategoryStats(1, 1, 1, 0)
        assert b.supernode_internal == ZERO_STATS
        assert_tiling(star_matrix, b)

    def test_fractions(self, tmp_path, star_matrix):
        # The written shares: on the star, then on random matrices, with the
        # default and the strict core.
        path = tmp_path / "topo.csv"
        write_topology_csv(path, topology_breakdown(star_matrix))
        rows = csv_rows(path)
        assert rows["supernode_leaves"][4:] == ["0.0", repr(2 / 5), "0.5", repr(2 / 3)]
        assert rows["supernodes"][4] == rows["core_leaves"][4] == "0.5"
        matrices = [star_matrix, matrix_of(STRICT_CELLS), matrix_of({})]
        rng = np.random.Generator(np.random.Philox(key=5))
        matrices += [matrix_of(random_cells(rng, 30, 100)) for _ in range(20)]
        for matrix in matrices:
            for strict in (False, True):
                b = topology_breakdown(matrix, strict_core=strict)
                write_topology_csv(path, b)
                assert_written_fractions(path, b)

    def test_isolated_pair_joins_cleanly(self, star_matrix):
        cells = {("s1", "d1"): 2, ("s1", "d2"): 1, ("s1", "d3"): 1,
                 ("s2", "d1"): 1, ("s3", "d4"): 2}
        m = matrix_of(cells)
        b = topology_breakdown(m)
        assert b.categories["isolated_links"] == CategoryStats(1, 2, 1, 1)
        # All other categories are unchanged by the disjoint pair.
        base = topology_breakdown(star_matrix)
        for name in ("supernode_leaves", "supernodes", "core", "core_leaves"):
            assert b.categories[name] == base.categories[name]
        assert_tiling(m, b)


class TestArbitration:
    def test_isolated_beats_supernode_source_leaf(self):
        # s's only link lands on the hub whose fan-in is also 1, so the cell
        # is isolated and must not be double counted as a supernode leaf.
        cells = {("s", "h"): 5, ("h", "x"): 1, ("h", "y"): 1, ("h", "z"): 1}
        m = matrix_of(cells)
        b = topology_breakdown(m)
        assert b.supernode_ids == ("h",)
        assert b.categories["isolated_links"] == CategoryStats(1, 5, 1, 1)
        assert b.categories["supernode_leaves"] == CategoryStats(0, 3, 3, 3)
        assert b.categories["supernodes"] == CategoryStats(1, 0, 0, 1)
        assert_tiling(m, b)

    def test_isolated_beats_supernode_dest_leaf(self):
        # The hub's single outgoing link is isolated; its inbound leaves are
        # still supernode leaves.
        cells = {("a", "h"): 1, ("b", "h"): 1, ("c", "h"): 1, ("h", "t"): 2}
        m = matrix_of(cells)
        b = topology_breakdown(m)
        assert b.supernode_ids == ("h",)
        assert b.categories["isolated_links"] == CategoryStats(1, 2, 1, 1)
        assert b.categories["supernode_leaves"] == CategoryStats(3, 3, 3, 0)
        assert b.categories["supernodes"] == CategoryStats(1, 0, 0, 1)
        assert_tiling(m, b)

    def test_degree_one_link_between_two_supernodes_counts_once(self):
        # A has in-degree 9 / out-degree 1 and B is also a supernode: the
        # A->B cell belongs to B's leaves, not to the internal bucket.
        cells = {(f"x{i}", "A"): 1 for i in range(9)}
        cells[("A", "B")] = 3
        cells[("z", "B")] = 1
        cells.update({("B", f"y{i}"): 1 for i in range(5)})
        m = matrix_of(cells)
        b = topology_breakdown(m, k=2)
        assert set(b.supernode_ids) == {"A", "B"}
        assert b.supernode_internal == ZERO_STATS
        assert b.categories["supernode_leaves"].packets == 18
        assert_tiling(m, b)

    def test_internal_cell_between_busy_supernodes(self):
        # Both hubs have fan > 1 on the shared cell, so it stays internal.
        cells = {("A", f"p{i}"): 1 for i in range(4)}
        cells.update({(f"q{i}", "B"): 1 for i in range(4)})
        cells[("A", "B")] = 7
        cells[("A", "C")] = 1
        cells[("D", "B")] = 1
        m = matrix_of(cells)
        b = topology_breakdown(m, k=2)
        assert set(b.supernode_ids) == {"A", "B"}
        assert b.supernode_internal.packets == 7
        assert b.supernode_internal.links == 1
        assert_tiling(m, b)


class TestSupernodeSelection:
    def test_elimination_changes_later_ranks(self):
        # M outranks N before the hub H is removed, but M's degree collapses
        # once H's row and column are gone, so N takes the second slot.
        cells = {("H", f"x{i}"): 1 for i in range(6)}
        cells.update({("M", "H"): 1, ("H", "M"): 1})
        cells.update({("M", f"z{i}"): 1 for i in range(3)})
        cells.update({("N", f"y{i}"): 1 for i in range(4)})
        m = matrix_of(cells)
        assert supernode_names(m, 2) == ["H", "N"]

    def test_volume_breaks_degree_ties(self):
        cells = {("a", "u1"): 1, ("a", "u2"): 1, ("b", "v1"): 2, ("b", "v2"): 3}
        m = matrix_of(cells)
        assert supernode_names(m, 1) == ["b"]

    def test_lexicographic_breaks_full_ties(self):
        cells = {("b", "u1"): 1, ("b", "u2"): 1, ("a", "v1"): 1, ("a", "v2"): 1}
        m = matrix_of(cells)
        assert supernode_names(m, 1) == ["a"]

    def test_stops_when_only_leaves_remain(self):
        cells = {("a", "b"): 1, ("c", "d"): 2, ("e", "f"): 3}
        m = matrix_of(cells)
        assert find_supernodes(m, 5) == []

    def test_k_zero_selects_nothing(self, star_matrix):
        assert find_supernodes(star_matrix, 0) == []

    def test_negative_k_is_refused(self, star_matrix):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            find_supernodes(star_matrix, -1)

    def test_disjoint_stars_rank_by_size(self):
        cells = {("c9", f"a{i}"): 1 for i in range(9)}
        cells.update({("c7", f"b{i}"): 1 for i in range(7)})
        m = matrix_of(cells)
        assert supernode_names(m, 5) == ["c9", "c7"]
        b = topology_breakdown(m)
        assert b.categories["supernode_leaves"] == CategoryStats(0, 16, 16, 16)
        assert_tiling(m, b)


class TestCoreMembership:
    CELLS = {
        ("a", "p"): 1, ("a", "q"): 1, ("a", "r"): 1,
        ("s1", "a"): 1, ("s2", "a"): 1, ("s3", "a"): 1,
        ("x", "p"): 1, ("x", "q"): 1, ("x", "r"): 1,
    }

    def test_default_excludes_only_supernodes(self):
        # a's fans exceed 1 on both sides, but as a supernode it is no core
        # node: the core is x -> {p, q, r}, and a -> {p, q, r} is a's own
        # traffic with the core.
        m = matrix_of(self.CELLS)
        assert supernode_names(m, 1) == ["a"]
        b = topology_breakdown(m, k=1)
        assert b.categories["core"] == CategoryStats(1, 3, 3, 3)
        assert b.categories["supernodes"].links == 3

    def test_strict_caps_at_first_supernode_fan(self):
        # x matches the first supernode's fan-out exactly, so the strict
        # variant drops it from the core while the default keeps it; p, q
        # and r (fan-in 2 < 3) stay core destinations.
        m = matrix_of(self.CELLS)
        b = topology_breakdown(m, k=1, strict_core=True)
        assert b.categories["core"] == ZERO_STATS
        assert b.categories["supernodes"] == CategoryStats(1, 3, 3, 1)

    def test_default_breakdown_tiles_exactly(self):
        m = matrix_of(self.CELLS)
        b = topology_breakdown(m, k=1)
        assert b.categories["core"] == CategoryStats(1, 3, 3, 3)
        assert b.categories["supernodes"] == CategoryStats(1, 3, 3, 1)
        assert b.categories["supernode_leaves"] == CategoryStats(3, 3, 3, 0)
        assert_tiling(m, b)

    def test_strict_breakdown_reports_residual(self):
        m = matrix_of(self.CELLS)
        b = topology_breakdown(m, k=1, strict_core=True)
        assert b.categories["core"] == ZERO_STATS
        assert b.residual_packets == 3
        assert b.residual_links == 3

    def test_strict_core_excludes_later_supernodes(self):
        # The later supernodes' fans trail the first one's (n3).  A strict
        # core that took them in counted cells between supernodes from both
        # sides: the supernodes' category came to 91 of the 88 packets.
        m = matrix_of(STRICT_CELLS)
        b = topology_breakdown(m, strict_core=True)
        assert b.supernode_ids == ("n3", "n4", "n5", "n2", "n6")
        assert b.categories["supernodes"] == CategoryStats(4, 28, 5, 5)
        tiled = sum(c.packets for c in b.categories.values())
        assert tiled + b.supernode_internal.packets + b.residual_packets == 88
        assert b.residual_packets >= 0 and b.residual_links >= 0


class TestCoreHelpers:
    def test_core_stats_counts_submatrix(self):
        cells = {("u", "v"): 2, ("u", "w"): 1, ("t", "v"): 1, ("t", "w"): 3}
        m = matrix_of(cells)
        # Without supernodes every fan-2 node is a core node.
        b = topology_breakdown(m, k=0)
        assert b.categories["core"] == CategoryStats(2, 7, 4, 2)
        assert_tiling(m, b)

    def test_core_leaves_both_sides(self):
        # c1 is a core source; m1 is a core destination.  leafin feeds the
        # core from a degree-1 source while m2 and leafout receive from the
        # core on degree-1 destinations.
        cells = {
            ("c1", "m1"): 1, ("c1", "m2"): 1,
            ("leafin", "m1"): 4,
            ("c1", "leafout"): 2,
        }
        m = matrix_of(cells)
        b = topology_breakdown(m, k=0)
        # The core is c1 -> m1 alone.
        assert b.categories["core"] == CategoryStats(1, 1, 1, 1)
        assert b.categories["core_leaves"] == CategoryStats(1, 7, 3, 2)
        assert_tiling(m, b)


class TestEmptyMatrix:
    def test_all_zero_breakdown(self):
        b = topology_breakdown(matrix_of({}))
        assert b.supernode_ids == ()
        assert all(stats == ZERO_STATS for stats in b.categories.values())
        assert b.residual_packets == 0 and b.residual_links == 0

    def test_isolated_needs_matching_fans(self):
        m = matrix_of({("a", "b"): 1, ("c", "b"): 1})
        assert topology_breakdown(m).categories["isolated_links"] == ZERO_STATS

    def test_supernode_leaves_empty_without_supernodes(self, star_matrix):
        b = topology_breakdown(star_matrix, k=0)
        assert b.categories["supernode_leaves"] == ZERO_STATS


class TestTopologyCsv:
    def test_round_trip(self, tmp_path, star_matrix):
        b = topology_breakdown(star_matrix)
        path = tmp_path / "topo.csv"
        assert write_topology_csv(path, b) == len(CATEGORY_ORDER) + 2
        read = read_topology_csv(path)
        for name in CATEGORY_ORDER:
            assert read[name] == b.categories[name]
        assert read["supernode_internal"] == b.supernode_internal


class TestAgainstDenseOracle:
    @staticmethod
    def check_random_breakdowns(seed, trials, strict):
        rng = np.random.Generator(np.random.Philox(key=seed))
        for trial in range(trials):
            cells = random_cells(rng, max_side=40, max_cells=150)
            matrix = matrix_of(cells)
            dense, rows, cols = dense_oracle.from_cells(cells)
            k = int(rng.integers(0, 7))
            stats, supers, leftovers = dense_oracle.classify(
                dense, rows, cols, k, strict=strict
            )
            b = topology_breakdown(matrix, k=k, strict_core=strict)
            assert list(b.supernode_ids) == supers
            for name in CATEGORY_ORDER:
                assert stats_tuple(b.categories[name]) == stats[name], (
                    f"trial {trial} category {name}"
                )
            assert stats_tuple(b.supernode_internal) == stats["supernode_internal"]
            assert b.residual_packets == sum(count for _, _, count in leftovers)
            assert b.residual_links == len(leftovers)
            if not strict:
                assert leftovers == []

    def test_random_breakdowns_match_cellwise_classification(self):
        self.check_random_breakdowns(seed=99, trials=30, strict=False)

    def test_random_strict_breakdowns_match_cellwise_classification(self):
        # A strict core only drops nodes from the default core, so each
        # cell is counted at most once and the residual is what it drops.
        self.check_random_breakdowns(seed=7, trials=300, strict=True)

"""Synthetic stream generation with exact construction-time bookkeeping."""

import numpy as np
import pytest

from pktstats import (
    GeneratorSpec,
    TrafficMatrix,
    ZmParams,
    generate_synthetic,
    iter_windows,
    read_packet_csv,
    sample_zm_degrees,
    topology_breakdown,
    write_packet_csv,
)
from pktstats.generator import (
    GeneratorConfigError,
    read_generator_spec,
    spec_from_mapping,
)
from pktstats.ingest import is_valid_packet
from pktstats.topology import ZERO_STATS, CategoryStats

from dict_reference import entries, reduce


def record_matrix(records):
    window = next(iter_windows(records, len(records)))
    return TrafficMatrix.from_window(window)


class TestSpecValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(n_isolated_pairs=-1)
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(supernode_leaf_count=-2)

    def test_tiny_cores_rejected(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(core_size=1)
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(core_size=2)
        GeneratorSpec(core_size=3)

    def test_density_bounds(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(core_size=3, core_density=0.0)
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(core_size=3, core_density=1.1)

    def test_core_leaves_require_core(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(core_leaf_count=2)

    def test_degree_model_excludes_structure(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(n_isolated_pairs=1, degree_model=ZmParams(1.0, 0.0, 4))

    def test_seed_range(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(n_isolated_pairs=1, seed=-1)
        with pytest.raises(GeneratorConfigError):
            GeneratorSpec(n_isolated_pairs=1, seed=1 << 64)

    def test_empty_spec_cannot_generate(self):
        with pytest.raises(GeneratorConfigError):
            generate_synthetic(GeneratorSpec(), 10)

    def test_packet_budget_must_cover_links(self):
        with pytest.raises(GeneratorConfigError):
            generate_synthetic(GeneratorSpec(n_isolated_pairs=5), 4)
        with pytest.raises(GeneratorConfigError):
            generate_synthetic(GeneratorSpec(n_isolated_pairs=1), 0)

    def test_dense_core_is_not_built_for_too_few_packets(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("core links built before the coverage check")

        monkeypatch.setattr("pktstats.generator._core_links", unreachable)
        spec = GeneratorSpec(n_isolated_pairs=1, core_size=2000, core_density=1.0)
        with pytest.raises(GeneratorConfigError, match="cannot cover 3998001 links"):
            generate_synthetic(spec, 10)
        # A sparse core still takes its double ring: 2 * 2000 links.
        sparse = GeneratorSpec(core_size=2000, core_density=0.0001)
        with pytest.raises(GeneratorConfigError, match="cannot cover 4000 links"):
            generate_synthetic(sparse, 3999)

    def test_node_ids_must_fit_the_address_space(self, monkeypatch):
        monkeypatch.setattr("pktstats.generator._ADDRESS_SPACE_BITS", 4)
        model = GeneratorSpec(degree_model=ZmParams(1.2, 0.5, 4))
        assert len(generate_synthetic(model, 8)[0]) == 8
        with pytest.raises(GeneratorConfigError):
            generate_synthetic(model, 9)
        # No fan-out can exceed the 8 packets such a stream holds.
        widest = GeneratorSpec(degree_model=ZmParams(1.2, 0.5, 8))
        assert len(generate_synthetic(widest, 8)[0]) == 8
        with pytest.raises(GeneratorConfigError, match="degree_model_d_max=9"):
            generate_synthetic(GeneratorSpec(degree_model=ZmParams(1.2, 0.5, 9)), 2)
        # 2 * 4 pairs + a hub with 3 leaves + 4 core nodes = 16 ids.
        spec = GeneratorSpec(n_isolated_pairs=4, supernode_leaf_count=3, core_size=4)
        assert generate_synthetic(spec, 40)[1].totals.links == 4 + 3 + 8 + 4
        with pytest.raises(GeneratorConfigError):
            generate_synthetic(GeneratorSpec(n_isolated_pairs=9), 40)


class TestIsolatedPairs:
    def test_truth_and_matrix(self):
        records, truth = generate_synthetic(GeneratorSpec(n_isolated_pairs=3), 6)
        assert len(records) == 6
        assert all(is_valid_packet(r) for r in records)
        assert [r[0] for r in records] == list(range(6))
        matrix = record_matrix(records)
        assert matrix.total == 6 and matrix.nnz == 3
        assert truth.categories["isolated_links"] == CategoryStats(3, 6, 3, 3)
        assert truth.totals.links == 3 and truth.totals.sources == 3
        assert truth.exact_categories
        b = topology_breakdown(matrix, k=truth.recommended_k)
        assert b.categories == truth.categories

    def test_round_robin_packet_split(self):
        records, truth = generate_synthetic(GeneratorSpec(n_isolated_pairs=4), 14)
        counts = sorted(c for _, _, c in entries(record_matrix(records)))
        assert counts == [3, 3, 4, 4]
        assert truth.totals.packets == 14


class TestStar:
    def test_truth_matches_breakdown(self):
        records, truth = generate_synthetic(
            GeneratorSpec(supernode_leaf_count=10), 10
        )
        matrix = record_matrix(records)
        assert truth.supernode_ids != ()
        assert truth.categories["supernode_leaves"] == CategoryStats(10, 10, 10, 0)
        assert truth.categories["supernodes"] == CategoryStats(0, 0, 0, 1)
        b = topology_breakdown(matrix, k=truth.recommended_k)
        assert b.categories == truth.categories
        assert tuple(b.supernode_ids) == truth.supernode_ids


class TestCore:
    def test_full_density_is_complete_digraph(self):
        records, truth = generate_synthetic(
            GeneratorSpec(core_size=4, core_density=1.0), 24
        )
        matrix = record_matrix(records)
        assert truth.totals.links == 12  # 4 * 3 ordered pairs
        assert matrix.nnz == 12
        assert all(count == 2 for _, _, count in entries(matrix))
        assert truth.categories["core"] == CategoryStats(4, 24, 12, 4)
        assert not truth.exact_categories

    def test_density_scales_link_budget(self):
        _, ring_only = generate_synthetic(
            GeneratorSpec(core_size=5, core_density=0.5), 10
        )
        assert ring_only.totals.links == 10  # double ring exactly
        _, denser = generate_synthetic(
            GeneratorSpec(core_size=5, core_density=0.8), 16
        )
        assert denser.totals.links == 16  # ring plus round(0.8 * 20) - 10 extras

    def test_extras_never_duplicate_links(self):
        for seed in range(5):
            _, truth = generate_synthetic(
                GeneratorSpec(core_size=6, core_density=0.9, seed=seed), 27
            )
            assert truth.totals.links == 27  # round(0.9 * 30); duplicates would shrink nnz
            records, _ = generate_synthetic(
                GeneratorSpec(core_size=6, core_density=0.9, seed=seed), 27
            )
            assert record_matrix(records).nnz == 27


class TestMixture:
    SPEC = GeneratorSpec(
        supernode_leaf_count=6, core_size=3, core_density=1.0, core_leaf_count=4
    )

    def test_ground_truth_is_exact(self):
        records, truth = generate_synthetic(self.SPEC, 16)
        assert truth.recommended_k == 1
        assert truth.exact_categories
        matrix = record_matrix(records)
        b = topology_breakdown(matrix, k=truth.recommended_k)
        assert b.categories == truth.categories
        assert b.residual_packets == 0 and b.residual_links == 0
        assert truth.categories["supernode_leaves"] == CategoryStats(6, 6, 6, 0)
        assert truth.categories["core"] == CategoryStats(3, 6, 6, 3)
        assert truth.categories["core_leaves"] == CategoryStats(2, 4, 4, 2)
        assert truth.categories["isolated_links"] == ZERO_STATS

    def test_with_isolated_pairs(self):
        spec = GeneratorSpec(
            n_isolated_pairs=5,
            supernode_leaf_count=6,
            core_size=3,
            core_leaf_count=4,
        )
        records, truth = generate_synthetic(spec, 42)  # 21 links, 2 packets each
        matrix = record_matrix(records)
        b = topology_breakdown(matrix, k=truth.recommended_k)
        assert b.categories == truth.categories
        assert truth.categories["isolated_links"] == CategoryStats(5, 10, 5, 5)


@pytest.mark.parametrize(
    "spec, n_packets",
    [
        (GeneratorSpec(n_isolated_pairs=7), 20),
        (GeneratorSpec(supernode_leaf_count=9), 13),
        (GeneratorSpec(core_size=5, core_density=0.7, seed=3), 31),
        (GeneratorSpec(core_size=4, core_leaf_count=5), 40),
        (
            GeneratorSpec(
                n_isolated_pairs=5, supernode_leaf_count=6, core_size=3, core_leaf_count=4
            ),
            42,
        ),
        (
            GeneratorSpec(
                n_isolated_pairs=2,
                supernode_leaf_count=1,
                core_size=6,
                core_density=0.4,
                core_leaf_count=3,
                seed=7,
            ),
            29,
        ),
        (GeneratorSpec(degree_model=ZmParams(1.2, 0.5, 8), seed=9), 500),
    ],
    ids=["isolated", "star", "core", "core_leaves", "mixture", "sparse_mixture", "zm"],
)
def test_ground_truth_totals_are_the_matrix_totals(spec, n_packets):
    records, truth = generate_synthetic(spec, n_packets)
    assert truth.totals == record_matrix(records).aggregates()


class TestDeterminism:
    def test_same_seed_same_records(self):
        spec = GeneratorSpec(n_isolated_pairs=10, supernode_leaf_count=5, seed=42)
        first, _ = generate_synthetic(spec, 60)
        second, _ = generate_synthetic(spec, 60)
        assert first == second

    def test_different_seed_changes_interleaving(self):
        a, _ = generate_synthetic(GeneratorSpec(n_isolated_pairs=30, seed=1), 90)
        b, _ = generate_synthetic(GeneratorSpec(n_isolated_pairs=30, seed=2), 90)
        assert a != b
        # Same topology, different order.
        assert list(entries(record_matrix(a))) == list(entries(record_matrix(b)))


class TestDegreeModel:
    PARAMS = ZmParams(1.2, 0.5, 8)

    def test_fan_outs_are_exact(self):
        spec = GeneratorSpec(degree_model=self.PARAMS, seed=9)
        records, truth = generate_synthetic(spec, 500)
        assert truth.fan_outs is not None
        assert sum(truth.fan_outs) == 500
        assert all(1 <= f <= 8 for f in truth.fan_outs[:-1])
        matrix = record_matrix(records)
        assert matrix.total == 500
        assert matrix.nnz == 500  # one packet per link
        observed = sorted(reduce(matrix, "row", "nnz").values())
        assert observed == sorted(truth.fan_outs)

    def test_sample_bounds_and_determinism(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        degrees = sample_zm_degrees(self.PARAMS, 10_000, rng)
        assert degrees.min() >= 1 and degrees.max() <= 8
        rng2 = np.random.Generator(np.random.Philox(key=5))
        assert (degrees == sample_zm_degrees(self.PARAMS, 10_000, rng2)).all()


class TestPacketCsv:
    def test_round_trip(self, tmp_path):
        records, _ = generate_synthetic(GeneratorSpec(n_isolated_pairs=4), 8)
        path = tmp_path / "stream.csv"
        assert write_packet_csv(path, records) == 8
        again = [tuple(r) for r in read_packet_csv(path)]
        assert again == [tuple(r) for r in records]

    def test_gzip_round_trip_is_deterministic(self, tmp_path):
        records, _ = generate_synthetic(GeneratorSpec(n_isolated_pairs=4), 8)
        a = tmp_path / "a.csv.gz"
        b = tmp_path / "b.csv.gz"
        write_packet_csv(a, records)
        write_packet_csv(b, records)
        assert a.read_bytes() == b.read_bytes()
        assert [tuple(r) for r in read_packet_csv(a)] == [tuple(r) for r in records]


class TestSpecParsing:
    def test_mapping_round_trip(self):
        spec = spec_from_mapping(
            {"n_isolated_pairs": "3", "core_size": "4", "core_density": "0.75"}
        )
        assert spec == GeneratorSpec(n_isolated_pairs=3, core_size=4, core_density=0.75)

    def test_degree_model_triplet(self):
        spec = spec_from_mapping(
            {
                "degree_model_alpha": "1.5",
                "degree_model_delta": "0.25",
                "degree_model_d_max": "64",
            }
        )
        assert spec.degree_model == ZmParams(1.5, 0.25, 64)

    def test_incomplete_degree_model_rejected(self):
        with pytest.raises(GeneratorConfigError):
            spec_from_mapping({"degree_model_alpha": "1.5"})

    def test_unknown_key_rejected(self):
        with pytest.raises(GeneratorConfigError):
            spec_from_mapping({"volume": "11"})

    def test_bad_number_rejected(self):
        with pytest.raises(GeneratorConfigError):
            spec_from_mapping({"core_size": "three"})

    def test_spec_file(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text(
            "# mixture under test\n"
            "n_isolated_pairs = 2\n"
            "\n"
            "supernode_leaf_count=7\n"
            "seed = 11\n"
        )
        assert read_generator_spec(path) == GeneratorSpec(
            n_isolated_pairs=2, supernode_leaf_count=7, seed=11
        )

    def test_spec_file_rejects_bare_words(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("isolated\n")
        with pytest.raises(GeneratorConfigError):
            read_generator_spec(path)

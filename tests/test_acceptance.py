"""Acceptance gate: twelve end-to-end correctness and performance criteria.

Each test prints one ``criterion NN [...]: PASS`` line (with its runtime when
a budget applies).  A failing criterion surfaces as a normal pytest failure.
Criterion 9 audits every pooled distribution produced by criteria 1-7, so the
tests in this file must run in definition order (pytest's default).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from pktstats import (
    ALL_KINDS,
    GeneratorSpec,
    QuantityKind,
    RunConfig,
    TrafficMatrix,
    ZmParams,
    analyze_window,
    generate_synthetic,
    infer_parameters,
    iter_windows,
    model_distribution,
    pool_quantity,
    run_analyze,
    sample_zm_degrees,
    topology_breakdown,
    train_delta,
    write_packet_csv,
)

import dense_oracle
from conftest import make_records, matrix_of, random_cells
from dict_reference import (
    cumulative,
    degree_histogram,
    log_pool,
    network_quantity,
    probability,
    reduce,
    rho,
    rho_grad_delta,
    rho_sum,
    rows,
)

# Every pooled distribution built by criteria 1-7 lands here for criterion 9.
PRODUCED_POOLS = []

# Criteria 2 and 3 share the same corpus of random matrices.
_RANDOM_MATRICES = None


def _report(capsys, number, label, elapsed=None, budget=None):
    suffix = ""
    if budget is not None:
        suffix = f" ({elapsed:.2f}s < {budget:.0f}s)"
    with capsys.disabled():
        print(f"\ncriterion {number:02d} [{label}]: PASS{suffix}")


def shared_random_matrices():
    global _RANDOM_MATRICES
    if _RANDOM_MATRICES is None:
        rng = np.random.Generator(np.random.Philox(key=20260823))
        _RANDOM_MATRICES = [
            matrix_of(random_cells(rng, max_side=80, max_cells=300))
            for _ in range(1000)
        ]
    return _RANDOM_MATRICES


def test_criterion_01_window_conservation(capsys):
    """100 windows of exactly 1e5 valid packets each conserve their totals."""
    budget = 10.0
    started = time.perf_counter()
    spec_base = dict(
        n_isolated_pairs=3000,
        supernode_leaf_count=800,
        core_size=40,
        core_density=0.2,
        core_leaf_count=500,
    )
    n_windows = 0
    for chunk in range(10):
        records, _ = generate_synthetic(
            GeneratorSpec(seed=1000 + chunk, **spec_base), 1_000_000
        )
        # Interleave invalid traffic so windowing has to skip packets.
        noise = make_records([("10.9.9.1", "10.9.9.2")] * 64, protocol="UDP")

        def stream():
            for i, record in enumerate(records):
                if i % 16384 == 0:
                    yield noise[(i // 16384) % len(noise)]
                yield record

        for window in iter_windows(stream(), 100_000):
            matrix = TrafficMatrix.from_window(window)
            assert matrix.aggregates().packets == 100_000
            for kind in (QuantityKind.SOURCE_FAN_OUT, QuantityKind.LINK_PACKETS):
                PRODUCED_POOLS.append(pool_quantity(matrix, kind))
            n_windows += 1
    elapsed = time.perf_counter() - started
    assert n_windows == 100
    assert elapsed < budget
    _report(capsys, 1, "window conservation", elapsed, budget)


def test_criterion_02_isolated_triple_equality(capsys):
    """Isolated sources, links, and destinations coincide on 1000 matrices."""
    for matrix in shared_random_matrices():
        stats = topology_breakdown(matrix).categories["isolated_links"]
        assert stats.sources == stats.links == stats.destinations
        # Independent recount from the fan vectors.
        d_out = reduce(matrix, "row", "nnz")
        d_in = reduce(matrix, "col", "nnz")
        recount = sum(
            1
            for src, row in rows(matrix).items()
            if d_out[src] == 1
            for dst in row
            if d_in[dst] == 1
        )
        assert stats.links == recount
    _report(capsys, 2, "isolated triple equality")


def test_criterion_03_degree_one_partition(capsys):
    """Every degree-1 endpoint lands in exactly one leaf-like category."""
    for matrix in shared_random_matrices():
        breakdown = topology_breakdown(matrix)
        d_out = reduce(matrix, "row", "nnz")
        d_in = reduce(matrix, "col", "nnz")
        degree_one_sources = sum(1 for deg in d_out.values() if deg == 1)
        degree_one_dests = sum(1 for deg in d_in.values() if deg == 1)
        cats = breakdown.categories
        assert degree_one_sources == (
            cats["isolated_links"].sources
            + cats["supernode_leaves"].sources
            + cats["core_leaves"].sources
        )
        assert degree_one_dests == (
            cats["isolated_links"].destinations
            + cats["supernode_leaves"].destinations
            + cats["core_leaves"].destinations
        )
        assert breakdown.residual_packets == 0
        assert breakdown.residual_links == 0
    _report(capsys, 3, "degree-1 partition")


def test_criterion_04_dense_oracle_equivalence(capsys):
    """Sparse aggregates, quantities, and categories match a dense recount."""
    rng = np.random.Generator(np.random.Philox(key=50))
    for trial in range(200):
        p = float(rng.uniform(0.01, 0.15))
        mask = rng.random((50, 50)) < p
        counts = rng.integers(1, 20, size=(50, 50))
        if trial % 2:
            row_names = [f"n{i:02d}" for i in range(50)]
            col_names = [f"n{i + 25:02d}" for i in range(50)]
        else:
            row_names = [f"r{i:02d}" for i in range(50)]
            col_names = [f"c{i:02d}" for i in range(50)]
        cells = {}
        for i in range(50):
            for j in range(50):
                if mask[i, j]:
                    cells[(row_names[i], col_names[j])] = int(counts[i, j])
        if not cells:
            cells[(row_names[0], col_names[0])] = 1
        matrix = matrix_of(cells)
        dense, rows, cols = dense_oracle.from_cells(cells)

        packets, links, sources, dests = dense_oracle.aggregates(dense)
        agg = matrix.aggregates()
        assert (
            agg.packets,
            agg.links,
            agg.sources,
            agg.destinations,
        ) == (packets, links, sources, dests)

        expected = dense_oracle.quantity_maps(dense, rows, cols)
        for kind in ALL_KINDS:
            assert network_quantity(matrix, kind) == expected[kind.value]

        stats, supers, leftovers = dense_oracle.classify(dense, rows, cols, k=5)
        assert leftovers == []
        breakdown = topology_breakdown(matrix, k=5)
        assert list(breakdown.supernode_ids) == supers
        for name, st in breakdown.categories.items():
            assert (st.sources, st.packets, st.links, st.destinations) == stats[name]
        internal = breakdown.supernode_internal
        assert (
            internal.sources,
            internal.packets,
            internal.links,
            internal.destinations,
        ) == stats["supernode_internal"]
    _report(capsys, 4, "dense oracle equivalence")


def test_criterion_05_offset_training_round_trip(capsys):
    """Training recovers known offsets within 1e-3, usually in <= 5 steps."""
    fast = 0
    total = 0
    for alpha in (0.5, 1.5, 2.5):
        for delta in (0.3, 1.0, 3.0, 9.0):
            for d_max in (100, 10_000):
                target = model_distribution(ZmParams(alpha, delta, d_max)).values[0]
                trained = train_delta(target, alpha, d_max)
                assert trained is not None, (alpha, delta, d_max)
                assert abs(trained.delta - delta) < 1e-3, (alpha, delta, d_max)
                total += 1
                if trained.iterations <= 5:
                    fast += 1
    assert total == 24
    assert fast / total >= 0.9
    _report(capsys, 5, "offset training round trip")


def test_criterion_06_self_consistent_inference(capsys):
    """Model-generated data returns its own grid exponent with ~zero loss."""
    budget = 60.0
    started = time.perf_counter()
    for alpha in [round(0.2 * k, 2) for k in range(1, 21)]:
        data = model_distribution(ZmParams(alpha, 0.5, 512))
        PRODUCED_POOLS.append(data)
        fit = infer_parameters(data)
        assert fit.params.alpha == alpha
        assert fit.loss <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(capsys, 6, "self-consistent inference", elapsed, budget)


def test_criterion_07_statistical_fit_recovery(capsys):
    """1e6 sampled degrees from a known heavy tail recover its exponent."""
    budget = 120.0
    started = time.perf_counter()
    params = ZmParams(1.8, 2.0, 10_000)
    rng = np.random.Generator(np.random.Philox(key=2026))
    degrees = sample_zm_degrees(params, 10**6, rng)
    histogram = degree_histogram(
        {i: int(d) for i, d in enumerate(degrees.tolist())}
    )
    pmf = probability(histogram)
    data = log_pool(cumulative(pmf), max(pmf), kind="sampled_degrees")
    PRODUCED_POOLS.append(data)
    fit = infer_parameters(data)
    assert 1.75 <= fit.params.alpha <= 1.85
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(capsys, 7, "statistical fit recovery", elapsed, budget)


def test_criterion_08_tail_sum_accuracy(capsys):
    """The integral tail path tracks compensated summation to 1e-9."""
    for alpha in (1.1, 1.5, 2.5):
        for delta in (0.5, 5.0):
            params = ZmParams(alpha, delta, 10**6)
            terms = (np.arange(1, 10**6 + 1, dtype=np.float64) + delta) ** -alpha
            reference = math.fsum(terms.tolist())
            tailed = rho_sum(params, exact_terms=10_000)
            assert abs(tailed - reference) / reference <= 1e-9, (alpha, delta)
    _report(capsys, 8, "tail sum accuracy")


def test_criterion_09_pooling_normalization(capsys):
    """Every pooled distribution produced so far sums to 1 within 1e-12."""
    assert len(PRODUCED_POOLS) >= 200, "criteria 1-7 must run before this check"
    for pooled in PRODUCED_POOLS:
        assert abs(pooled.total() - 1.0) <= 1e-12
    _report(capsys, 9, f"pooling normalization over {len(PRODUCED_POOLS)} pools")


def test_criterion_10_gradient_correctness(capsys):
    """Analytic offset gradient matches central differences at 1e3 points."""
    rng = np.random.Generator(np.random.Philox(key=10))
    for _ in range(1000):
        alpha = float(rng.uniform(0.2, 3.5))
        delta = float(rng.uniform(0.0, 8.0))
        d = int(rng.integers(1, 10_001))
        h = 1e-5 * (d + delta)
        numeric = (rho(d, alpha, delta + h) - rho(d, alpha, delta - h)) / (2 * h)
        analytic = rho_grad_delta(d, alpha, delta)
        assert abs(analytic - numeric) / abs(analytic) <= 1e-6
    _report(capsys, 10, "gradient correctness")


def test_criterion_11_worker_determinism(tmp_path, capsys):
    """Reports are byte-identical for 1 and 8 workers.

    The timing sidecar records wall-clock measurements and worker count and
    is deliberately outside the deterministic report bundle.
    """
    spec = GeneratorSpec(degree_model=ZmParams(1.6, 0.8, 64), seed=7)
    records, _ = generate_synthetic(spec, 60_000)
    stream = tmp_path / "stream.csv"
    write_packet_csv(stream, records)
    bundles = {}
    fits = {}
    for workers in (1, 8):
        out = tmp_path / f"out_w{workers}"
        report = run_analyze(
            RunConfig(
                inputs=(str(stream),),
                out_dir=str(out),
                window_sizes=(10_000, 20_000),
                workers=workers,
            )
        )
        fits[workers] = report.fits
        bundles[workers] = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timings.json"
        }
    assert bundles[1] == bundles[8]
    assert "alpha" in fits[1][10_000]["source_fan_out"]
    _report(capsys, 11, "worker determinism")


def test_criterion_12_single_window_throughput(capsys):
    """A full 1e6-packet window (five quantities + topology) fits the budget."""
    budget = 10.0
    spec = GeneratorSpec(
        n_isolated_pairs=30_000,
        supernode_leaf_count=20_000,
        core_size=300,
        core_density=0.15,
        core_leaf_count=10_000,
        seed=12,
    )
    records, _ = generate_synthetic(spec, 1_000_000)
    window = next(iter_windows(records, 1_000_000))
    started = time.perf_counter()
    analysis = analyze_window(window)
    elapsed = time.perf_counter() - started
    assert set(analysis.pooled) == {kind.value for kind in ALL_KINDS}
    assert analysis.topology.totals.packets == 1_000_000
    assert analysis.topology.residual_packets == 0
    assert elapsed <= budget
    _report(capsys, 12, "single-window throughput", elapsed, budget)

"""Self-tests of the benchmark harness: span arithmetic, the invalid-row
injector, attribute restoration by the tracer, and the report checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_check  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from pktstats import cli  # noqa: E402
from pktstats.generator import GeneratorSpec, generate_synthetic, write_packet_csv  # noqa: E402
from pktstats.ingest import is_valid_packet, read_packet_csv  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpans:
    def test_self_time_is_total_minus_children(self):
        clock = FakeClock()
        spans = bench_trace.Spans(clock)

        def leaf(seconds):
            clock.now += seconds

        leaf_w = spans.wrap("leaf", leaf)

        def middle():
            clock.now += 0.25
            leaf_w(1.0)

        middle_w = spans.wrap("middle", middle)

        def outer():
            clock.now += 1.0
            middle_w()
            leaf_w(3.0)
            clock.now += 0.5

        spans.wrap("outer", outer)()

        assert spans.total("outer") == 5.75
        assert spans.self_time("outer") == 1.5  # 5.75 - (1.25 + 3.0)
        assert spans.total("middle") == 1.25
        assert spans.self_time("middle") == 0.25
        assert spans.calls("leaf") == 2
        assert spans.total("leaf") == spans.self_time("leaf") == 4.0

    def test_failed_call_is_counted_and_unwinds(self):
        clock = FakeClock()
        spans = bench_trace.Spans(clock)

        def boom():
            clock.now += 2.0
            raise ValueError("no fit")

        boom_w = spans.wrap("boom", boom)

        def outer():
            with pytest.raises(ValueError):
                boom_w()
            clock.now += 1.0

        spans.wrap("outer", outer)()
        assert spans.errors("boom") == 1
        assert spans.self_time("outer") == 1.0
        assert spans._open == []

    def test_observer_sees_arguments_and_result(self):
        spans = bench_trace.Spans()
        wrapped = spans.wrap(
            "double", lambda x: 2 * x,
            lambda s, args, result: s.add("seen", args[0] + result),
        )
        assert wrapped(3) == 6
        assert spans.counters["seen"] == 9

    def test_json_round_trip(self):
        spans = bench_trace.Spans()
        spans.wrap("f", lambda: None)()
        spans.add("n", 4)
        again = bench_trace.Spans.from_json(json.loads(json.dumps(spans.to_json())))
        assert again.calls("f") == 1 and again.counters == {"n": 4}


def _write_stream(path, packets=300, seed=5):
    spec = GeneratorSpec(
        n_isolated_pairs=40, supernode_leaf_count=30, core_size=6,
        core_density=0.5, core_leaf_count=8, seed=seed,
    )
    records, _ = generate_synthetic(spec, packets)
    write_packet_csv(path, records)
    return records


class TestInjector:
    def test_counts_and_valid_order(self, tmp_path):
        source = tmp_path / "source.csv"
        records = _write_stream(source)
        dest = tmp_path / "dest.csv"
        assert bench_workloads.inject(source, dest, 137, seed=3) == (300, 137)

        parsed = list(read_packet_csv(dest))  # raises on any malformed row
        valid = [r for r in parsed if is_valid_packet(r)]
        invalid = [r for r in parsed if not is_valid_packet(r)]
        assert len(valid) == 300 and len(invalid) == 137
        assert [tuple(r) for r in valid] == [tuple(r) for r in records]
        assert {(r.protocol, r.ip_version) for r in invalid} <= {
            ("UDP", 4), ("ICMP", 4), ("TCP", 6)}

        props = bench_workloads.input_properties(dest)
        assert props["lines"] == 437
        assert props["valid_share"] == 300 / 437

    def test_same_seed_same_bytes(self, tmp_path):
        source = tmp_path / "source.csv"
        _write_stream(source)
        outputs = []
        for name, seed in (("a", 9), ("b", 9), ("c", 10)):
            dest = tmp_path / f"{name}.csv"
            bench_workloads.inject(source, dest, 50, seed=seed)
            outputs.append(dest.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_zero_invalid_rows_copies_the_stream(self, tmp_path):
        source = tmp_path / "source.csv"
        _write_stream(source)
        dest = tmp_path / "dest.csv"
        assert bench_workloads.inject(source, dest, 0, seed=1) == (300, 0)
        assert dest.read_bytes() == source.read_bytes()


def _snapshot():
    return {
        id(owner): dict(vars(owner)) for owner, *_ in bench_trace.targets()
    }


def _analyze(tmp_path):
    stream = tmp_path / "stream.csv"
    _write_stream(stream, packets=600)
    out = tmp_path / "report"
    argv = ["analyze", "--input", str(stream), "--nv", "200,300", "--out", str(out)]
    assert cli.main(argv) == 0
    return out


class TestTracer:
    def test_restores_every_patched_attribute(self, tmp_path, capsys):
        before = _snapshot()
        originals = {
            (id(owner), name): vars(owner)[name]
            for owner, name, *_ in bench_trace.targets()
        }
        spans = bench_trace.Spans()
        with bench_trace.traced(spans):
            for owner, name, *_ in bench_trace.targets():
                assert vars(owner)[name] is not originals[(id(owner), name)]
            _analyze(tmp_path)
        after = _snapshot()
        assert after.keys() == before.keys()
        for key, namespace in before.items():
            assert after[key].keys() == namespace.keys()
            for name, value in namespace.items():
                assert after[key][name] is value, name
        assert spans.calls("ingest.parse") == 1
        assert spans.calls("pipeline.analyze_window") == 5
        assert spans.calls("matrix.build") == 5
        assert spans.calls("netstats.pool") == 25
        assert spans.calls("topology.supernodes") == 5
        assert spans.calls("zm.fit") == 10
        assert spans.counters["matrix.packets"] == 1200
        assert spans.counters["fileio.files"] == spans.calls("fileio.write")

    def test_restores_after_an_error(self):
        before = _snapshot()
        with pytest.raises(RuntimeError):
            with bench_trace.traced(bench_trace.Spans()):
                raise RuntimeError("inside the traced block")
        after = _snapshot()
        for key, namespace in before.items():
            for name, value in namespace.items():
                assert after[key][name] is value, name

    def test_layer_metrics_match_benchmark_json(self, tmp_path, capsys):
        spans = bench_trace.Spans()
        with bench_trace.traced(spans):
            out = _analyze(tmp_path)
        elapsed = json.loads((out / "timings.json").read_text())["elapsed"]
        metrics = bench_trace.layer_metrics(spans, elapsed)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        for name, (value, unit) in metrics.items():
            assert units[name] == unit
        assert set(bench_trace.TILING_LAYERS) <= set(metrics)
        assert metrics["ingest.records_read"][0] == 600
        assert metrics["pipeline.windows"][0] == 5


class TestReportCheck:
    def test_clean_report_passes_and_digest_ignores_timings(self, tmp_path, capsys):
        out = _analyze(tmp_path)
        assert bench_check.check_report(out, valid=600, invalid=0, nv=(200, 300)) == []
        digest = bench_check.report_digest(out)
        (out / "timings.json").write_text("{}")
        assert bench_check.report_digest(out) == digest

    def test_detects_broken_reports(self, tmp_path, capsys):
        out = _analyze(tmp_path)
        problems = bench_check.check_report(out, valid=601, invalid=0, nv=(200, 300))
        assert any("differ from written" in p for p in problems)

        pooled = next(out.glob("nv_*/source_packets.pooled.csv"))
        lines = pooled.read_text().splitlines()
        kind, edge, mean, sigma, n = lines[1].split(",")
        lines[1] = ",".join([kind, edge, repr(float(mean) + 0.25), sigma, n])
        pooled.write_text("\n".join(lines) + "\n")
        topo = next(out.glob("nv_*/*.topology.csv"))
        topo.write_text(topo.read_text().replace("residual,0,0,0", "residual,0,1,0"))
        problems = bench_check.check_report(out, valid=600, invalid=0, nv=(200, 300))
        assert any("mean sums to" in p for p in problems)
        assert any("residual" in p for p in problems)

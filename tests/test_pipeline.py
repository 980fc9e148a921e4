"""End-to-end analysis runs: windowing, reports, determinism, failure paths."""

import ast
import gc
import gzip
import json
import os
import signal
from collections import Counter
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
    read_packet_csv,
    run_analyze,
    write_packet_csv,
)
from pktstats import pipeline
from pktstats.ingest import PacketParseError, next_window, read_packet_keys
from pktstats.pipeline import (
    PipelineConfigError,
    WindowWorkerError,
    _effective_sizes,
    load_valid_records,
    write_topology_csv,
)
from pktstats.topology import CATEGORY_ORDER, CategoryStats
from pktstats.zm import AlphaGrid, InferenceError

import dense_oracle
from conftest import make_records, random_cells, window_pairs
from dict_reference import (
    cumulative,
    degree_histogram,
    log_pool,
    network_quantity,
    probability,
)

SMALL_GRID = AlphaGrid(1.0, 2.5, 0.05)


def write_stream(tmp_path, spec, n_packets, name="stream.csv"):
    records, truth = generate_synthetic(spec, n_packets)
    path = tmp_path / name
    write_packet_csv(path, records)
    return path, truth


class TestRunConfig:
    def test_requires_inputs_and_quantities(self):
        with pytest.raises(PipelineConfigError):
            RunConfig(inputs=(), out_dir="x")
        with pytest.raises(PipelineConfigError):
            RunConfig(inputs=("a",), out_dir="x", quantities=())

    def test_window_size_validation(self):
        with pytest.raises(PipelineConfigError):
            RunConfig(inputs=("a",), out_dir="x", window_sizes=())
        with pytest.raises(PipelineConfigError):
            RunConfig(inputs=("a",), out_dir="x", window_sizes=(0,))
        with pytest.raises(PipelineConfigError):
            RunConfig(inputs=("a",), out_dir="x", window_sizes=(1.5,))
        with pytest.raises(PipelineConfigError, match="duplicate window size 10$"):
            RunConfig(inputs=("a",), out_dir="x", window_sizes=(10, 20, 10))

    def test_quantity_validation(self):
        with pytest.raises(PipelineConfigError):
            RunConfig(inputs=("a",), out_dir="x", quantities=("source_packets",))
        with pytest.raises(PipelineConfigError):
            RunConfig(
                inputs=("a",),
                out_dir="x",
                quantities=(QuantityKind.SOURCE_PACKETS, QuantityKind.SOURCE_PACKETS),
            )

    def test_worker_validation(self):
        with pytest.raises(PipelineConfigError):
            RunConfig(inputs=("a",), out_dir="x", workers=0)

    def test_bools_are_not_counts(self):
        with pytest.raises(
            PipelineConfigError, match="window sizes must be positive integers, got True"
        ):
            RunConfig(inputs=("a",), out_dir="x", window_sizes=(True,))
        with pytest.raises(PipelineConfigError, match="workers must be >= 1, got True"):
            RunConfig(inputs=("a",), out_dir="x", workers=True)


class TestEffectiveSizes:
    def test_defaults_need_two_windows(self):
        assert _effective_sizes(None, 250_000) == [100_000]
        assert _effective_sizes(None, 199_999) == []
        assert _effective_sizes(None, 700_000) == [100_000, 300_000]

    def test_explicit_sizes_need_one_window(self):
        assert _effective_sizes((10, 100), 99) == [10]
        assert _effective_sizes((10, 100), 100) == [10, 100]
        assert _effective_sizes((7,), 6) == []


class TestLoadValidRecords:
    def test_concatenates_inputs_and_counts(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv.gz"
        valid = make_records([("10.0.0.1", "10.0.0.2")] * 3)
        noise = make_records([("10.0.0.3", "10.0.0.4")] * 2, protocol="UDP")
        write_packet_csv(a, valid + noise)
        write_packet_csv(b, valid)
        records, summary = load_valid_records([str(a), str(b)])
        assert len(records) == 6
        assert summary.total_read == 8
        assert summary.total_valid == 6
        assert summary.total_skipped == 2


A, B, C = "10.0.0.1", "10.0.0.2", "10.0.0.3"
ROWS = b"0,10.0.0.1,10.0.0.2,TCP,4\n1,10.0.0.2,10.0.0.3,UDP,4\n2,10.0.0.3,10.0.0.1,TCP,4\n"

# name: (input files as (suffix, bytes), valid (src, dst) pairs in order,
# lines read before the first error, that error's text)
EDGE_CASES = {
    "crlf ends": (
        [(".csv", ROWS.replace(b"\n", b"\r\n"))], [(A, B), (C, A)], 3, None
    ),
    "lone cr ends a line": (
        [(".csv", b"0,10.0.0.1,10.0.0.2,TCP,4\r1,10.0.0.2,10.0.0.3,TCP,4\n"
                  b"2,10.0.0.3,10.0.0.1,TCP,4\r")],
        [(A, B), (B, C), (C, A)], 3, None,
    ),
    "lone cr before crlf": (
        [(".csv", b"0,10.0.0.1,10.0.0.2,TCP,4\r\r\n1,10.0.0.2,10.0.0.3,TCP,4\n")],
        [(A, B)], 1, "line 2: expected 5 fields, got 1",
    ),
    "no final newline": ([(".csv", ROWS[:-1])], [(A, B), (C, A)], 3, None),
    "empty file": ([(".csv", b"")], [], 0, None),
    "blank line": (
        [(".csv", ROWS.replace(b"\n", b"\n\n", 1))],
        [(A, B)], 1, "line 2: expected 5 fields, got 1",
    ),
    "utf-8 bom": (
        [(".csv", b"\xef\xbb\xbf" + ROWS)], [], 0, "line 1: bad timestamp '\\ufeff0'"
    ),
    "gzip": ([(".csv.gz", gzip.compress(ROWS, mtime=0))], [(A, B), (C, A)], 3, None),
    "two inputs, lines counted per file": (
        [(".csv", ROWS), (".csv", ROWS.replace(b"UDP", b"GRE"))],
        [(A, B), (C, A), (A, B)], 4, "line 2: unknown protocol 'GRE'",
    ),
    "ipv6 text in rows marked ipv4": (
        [(".csv", ROWS + b"3,fd00::1,fd00::2,TCP,4\n4,10.0.0.2,fd00::1,TCP,4\n"
                         b"5,fd00::1,10.0.0.1,TCP,6\n")],
        [(A, B), (C, A)], 3, "line 4: src address 'fd00::1' is not IPv4",
    ),
}


class TestEdgeCases:
    @pytest.mark.parametrize("name", list(EDGE_CASES))
    def test_both_readers_agree(self, tmp_path, name):
        files, pairs, n_read, error = EDGE_CASES[name]
        paths = []
        for i, (suffix, data) in enumerate(files):
            path = tmp_path / f"input{i}{suffix}"
            path.write_bytes(data)
            paths.append(str(path))

        records, raised = [], None
        try:
            for path in paths:
                records.extend(read_packet_csv(path))
        except PacketParseError as exc:
            raised = str(exc)
        valid = [record for record in records if record[3] == "TCP" and record[4] == 4]
        assert [(r[1], r[2]) for r in valid] == pairs
        assert (len(records), raised) == (n_read, error)

        if error is not None:
            with pytest.raises(PacketParseError) as excinfo:
                load_valid_records(paths)
            assert str(excinfo.value) == error
            return
        stream, summary = load_valid_records(paths)
        assert window_pairs(stream.window(0, len(stream))) == pairs
        assert summary.total_read == n_read
        assert summary.total_valid == len(pairs)
        assert summary.total_skipped == n_read - len(pairs)
        if pairs:
            coded = analyze_window(stream.window(0, len(pairs)))
            assert coded == analyze_window(next_window(iter(records), len(pairs)))


class TestAnalyzeWindow:
    def test_computes_requested_quantities_only(self, tmp_path):
        records, _ = generate_synthetic(GeneratorSpec(n_isolated_pairs=10), 20)
        window = next(iter_windows(records, 20))
        analysis = analyze_window(window, quantities=(QuantityKind.SOURCE_FAN_OUT,))
        assert set(analysis.pooled) == {"source_fan_out"}
        assert analysis.topology.totals.packets == 20
        assert analysis.topology.categories["isolated_links"].links == 10

    def test_pooled_totals_are_normalized(self):
        records, _ = generate_synthetic(
            GeneratorSpec(supernode_leaf_count=12, n_isolated_pairs=3), 30
        )
        window = next(iter_windows(records, 30))
        analysis = analyze_window(window)
        for pooled in analysis.pooled.values():
            assert abs(pooled.total() - 1.0) <= 1e-12


class TestRunAnalyze:
    def run(self, tmp_path, n_isolated=40, sizes=(50,), **kwargs):
        spec = GeneratorSpec(n_isolated_pairs=n_isolated, supernode_leaf_count=10)
        path, _ = write_stream(tmp_path, spec, 150)
        cfg = RunConfig(
            inputs=(str(path),),
            out_dir=str(tmp_path / "out"),
            window_sizes=sizes,
            grid=SMALL_GRID,
            **kwargs,
        )
        return run_analyze(cfg)

    def test_report_directory_layout(self, tmp_path):
        report = self.run(tmp_path)
        out = Path(report.out_dir)
        size_dir = out / "nv_000000050"
        assert (out / "manifest.json").is_file()
        assert (out / "timings.json").is_file()
        for kind in ALL_KINDS:
            assert (size_dir / f"{kind.value}.pooled.csv").is_file()
            assert (size_dir / f"{kind.value}.fit.json").is_file()
        for index in range(3):
            assert (size_dir / f"window_{index:06d}.topology.csv").is_file()

    def test_manifest_contents(self, tmp_path):
        report = self.run(tmp_path)
        manifest = json.loads(
            (Path(report.out_dir) / "manifest.json").read_text()
        )
        assert manifest == report.manifest
        assert manifest["config"]["window_sizes"] == [50]
        assert manifest["config"]["quantities"] == [k.value for k in ALL_KINDS]
        assert manifest["config"]["alpha_grid"] == {
            "start": 1.0,
            "stop": 2.5,
            "step": 0.05,
        }
        assert manifest["ingest"]["total_valid"] == 150
        assert manifest["window_counts"] == {"50": 3}
        assert "workers" not in manifest["config"]
        rel = "nv_000000050/source_fan_out.pooled.csv"
        assert manifest["files"][rel] >= 1

    def test_mean_pooled_spans_windows(self, tmp_path):
        report = self.run(tmp_path)
        pooled = report.mean_pooled[50]
        assert set(pooled) == {k.value for k in ALL_KINDS}
        for mean in pooled.values():
            assert mean.n_windows == 3
            assert abs(mean.total() - 1.0) <= 1e-12

    def test_multiple_sizes(self, tmp_path):
        report = self.run(tmp_path, sizes=(50, 150))
        assert sorted(report.mean_pooled) == [50, 150]
        assert report.mean_pooled[150]["source_packets"].n_windows == 1

    def test_quantity_subset(self, tmp_path):
        report = self.run(tmp_path, quantities=(QuantityKind.LINK_PACKETS,))
        assert set(report.mean_pooled[50]) == {"link_packets"}
        out_files = {p.name for p in (Path(report.out_dir) / "nv_000000050").iterdir()}
        assert "link_packets.pooled.csv" in out_files
        assert "source_packets.pooled.csv" not in out_files

    def test_refuses_nonempty_out_dir(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("old")
        spec = GeneratorSpec(n_isolated_pairs=10)
        path, _ = write_stream(tmp_path, spec, 20)
        cfg = RunConfig(inputs=(str(path),), out_dir=str(out), window_sizes=(10,))
        with pytest.raises(PipelineConfigError):
            run_analyze(cfg)

    def test_force_replaces_out_dir(self, tmp_path):
        out = tmp_path / "out"
        (out / "deep").mkdir(parents=True)
        (out / "deep" / "stale.txt").write_text("old")
        (out / "manifest.json").write_text('{"files": {}}')
        # A link to a directory elsewhere is removed, not followed.
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "data.txt").write_text("keep")
        (out / "link").symlink_to(kept, target_is_directory=True)
        spec = GeneratorSpec(n_isolated_pairs=10)
        path, _ = write_stream(tmp_path, spec, 20)
        cfg = RunConfig(
            inputs=(str(path),),
            out_dir=str(out),
            window_sizes=(10,),
            grid=SMALL_GRID,
            force=True,
        )
        run_analyze(cfg)
        assert not (out / "deep").exists()
        assert not (out / "link").exists()
        assert (kept / "data.txt").read_text() == "keep"
        assert "files" in json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize(
        "manifest", [None, "not json", "[]", '{"version": "0.1.0"}']
    )
    def test_force_refuses_a_directory_that_is_no_report(self, tmp_path, manifest):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        if manifest is not None:
            (out / "manifest.json").write_text(manifest)
        before = sorted(p.name for p in out.iterdir())
        spec = GeneratorSpec(n_isolated_pairs=10)
        path, _ = write_stream(tmp_path, spec, 20)
        cfg = RunConfig(
            inputs=(str(path),), out_dir=str(out), window_sizes=(10,), force=True
        )
        with pytest.raises(PipelineConfigError, match="not a pktstats report"):
            run_analyze(cfg)
        assert sorted(p.name for p in out.iterdir()) == before
        assert (out / "notes.txt").read_text() == "mine"

    def test_empty_run_raises_with_summary(self, tmp_path):
        spec = GeneratorSpec(n_isolated_pairs=3)
        path, _ = write_stream(tmp_path, spec, 6)
        cfg = RunConfig(
            inputs=(str(path),), out_dir=str(tmp_path / "out"), window_sizes=(10,)
        )
        with pytest.raises(PipelineConfigError) as excinfo:
            run_analyze(cfg)
        assert str(excinfo.value) == (
            "no window size admits a complete window (valid=6, read=6, skipped=0)"
        )

    def test_degenerate_data_writes_error_payload(self, tmp_path):
        # Isolated-only traffic: every quantity is identically 1, so no model
        # can be fitted; the run still completes with error payloads.
        spec = GeneratorSpec(n_isolated_pairs=20)
        path, _ = write_stream(tmp_path, spec, 20)
        cfg = RunConfig(
            inputs=(str(path),), out_dir=str(tmp_path / "out"), window_sizes=(20,)
        )
        report = run_analyze(cfg)
        for kind in ALL_KINDS:
            payload = report.fits[20][kind.value]
            assert "error" in payload
            assert "alpha" not in payload
            on_disk = json.loads(
                (Path(report.out_dir) / "nv_000000020" / f"{kind.value}.fit.json")
                .read_text()
            )
            assert on_disk == payload


class TestFitsOnSampledStreams:
    def test_degree_model_stream_recovers_heavy_tail(self, tmp_path):
        spec = GeneratorSpec(degree_model=ZmParams(1.8, 0.0, 30), seed=3)
        path, _ = write_stream(tmp_path, spec, 3000)
        cfg = RunConfig(
            inputs=(str(path),),
            out_dir=str(tmp_path / "out"),
            window_sizes=(1000,),
            quantities=(QuantityKind.SOURCE_FAN_OUT,),
            grid=SMALL_GRID,
        )
        report = run_analyze(cfg)
        payload = report.fits[1000]["source_fan_out"]
        assert "error" not in payload
        assert 1.5 <= payload["alpha"] <= 2.1
        assert payload["n_windows"] == 3
        assert payload["kind"] == "source_fan_out"
        assert payload["n_v"] == 1000


class TestReportJson:
    """Fit records, manifest.json and timings.json as a run writes them."""

    GRID = {"start": 1.0, "stop": 2.5, "step": 0.05}

    @pytest.fixture
    def report(self, tmp_path):
        # Each packet is its own link to its own destination: the fan-outs
        # follow the model and fit, destination fan-ins are all 1 and fail.
        spec = GeneratorSpec(degree_model=ZmParams(1.8, 0.0, 30), seed=3)
        path, _ = write_stream(tmp_path, spec, 3000)
        cfg = RunConfig(
            inputs=(str(path),),
            out_dir=str(tmp_path / "out"),
            window_sizes=(1000,),
            grid=SMALL_GRID,
        )
        return run_analyze(cfg)

    @staticmethod
    def on_disk(report, kind):
        path = Path(report.out_dir) / "nv_000001000" / f"{kind}.fit.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def test_fitted_quantity_record(self, report):
        fit = infer_parameters(report.mean_pooled[1000]["source_fan_out"], SMALL_GRID)
        expected = {
            "alpha": fit.params.alpha,
            "delta": fit.params.delta,
            "d_max": fit.params.d_max,
            "loss": fit.loss,
            "leaf": fit.leaf,
            "bins_used": fit.bins_used,
            "grid": self.GRID,
            "kind": "source_fan_out",
            "n_v": 1000,
            "n_windows": 3,
        }
        assert self.on_disk(report, "source_fan_out") == expected
        assert report.fits[1000]["source_fan_out"] == expected

    def test_failed_quantity_record(self, report):
        with pytest.raises(InferenceError) as failure:
            infer_parameters(report.mean_pooled[1000]["destination_fan_in"], SMALL_GRID)
        expected = {
            "error": str(failure.value),
            "grid": self.GRID,
            "kind": "destination_fan_in",
            "n_v": 1000,
            "n_windows": 3,
        }
        assert self.on_disk(report, "destination_fan_in") == expected
        assert report.fits[1000]["destination_fan_in"] == expected

    def test_every_json_file_is_strict_sorted_and_ends_with_a_newline(self, report):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        paths = sorted(Path(report.out_dir).rglob("*.json"))
        names = {path.name for path in paths}
        assert names == {"manifest.json", "timings.json"} | {
            f"{kind.value}.fit.json" for kind in ALL_KINDS
        }
        for path in paths:
            text = path.read_text(encoding="utf-8")
            record = json.loads(text, parse_constant=refuse)
            assert text == json.dumps(record, sort_keys=True, indent=2) + "\n"


class TestWorkerDeterminism:
    def test_reports_identical_across_worker_counts(self, tmp_path):
        spec = GeneratorSpec(
            n_isolated_pairs=30, supernode_leaf_count=8, core_size=4, seed=17
        )
        path, _ = write_stream(tmp_path, spec, 300)
        reports = {}
        for workers in (1, 3):
            out = tmp_path / f"out_w{workers}"
            cfg = RunConfig(
                inputs=(str(path),),
                out_dir=str(out),
                window_sizes=(75,),
                grid=SMALL_GRID,
                workers=workers,
            )
            run_analyze(cfg)
            reports[workers] = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "timings.json"
            }
        assert reports[1] == reports[3]


def garbage_after(run) -> int:
    """The objects that ``gc.collect()`` frees after ``run()`` ran with the
    cyclic collector off: what the garbage cycles that it made held."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestWithoutTheCollector:
    """A program run of the CLI turns the cyclic collector off.  That is safe
    because no garbage cycle is made per window or per chunk: a stream four
    times as long leaves the same garbage.  The only cycles a run leaves are
    the JSON encoder's, the same for each report JSON file, so they grow by
    one step per window size (its fit files) and not with the windows."""

    def test_no_cycle_per_window(self, tmp_path):
        spec = GeneratorSpec(n_isolated_pairs=30, supernode_leaf_count=8, seed=5)
        sizes = (50, 25, 10)
        garbage = {}
        # The first runs fill the caches that every run shares.
        for windows in (10, 10, 40):
            path, _ = write_stream(tmp_path, spec, windows * 50, f"{windows}.csv")
            for n_sizes in (1, 2, 3):
                cfg = RunConfig(
                    inputs=(str(path),),
                    out_dir=str(tmp_path / f"report{windows}"),
                    window_sizes=sizes[:n_sizes],
                    grid=SMALL_GRID,
                    force=True,
                )
                garbage[windows, n_sizes] = garbage_after(lambda: run_analyze(cfg))
        for n_sizes in (1, 2, 3):
            assert garbage[40, n_sizes] == garbage[10, n_sizes] < 1000
        step = garbage[40, 2] - garbage[40, 1]
        assert 0 < step == garbage[40, 3] - garbage[40, 2]

    def test_no_cycle_per_chunk(self, tmp_path):
        # A canonical row, a plain IPv6 row, and one for parse_packet_line.
        rows = (
            b"1,10.0.0.1,10.0.0.2,TCP,4\r\n2,fd00::1,fd00::2,UDP,6\n"
            b"3,::ffff:10.0.0.1,fd00::2,UDP,6\n"
        )
        garbage = {}
        for chunks in (10, 10, 40):
            path = tmp_path / f"{chunks}.csv"
            path.write_bytes(rows * chunks)
            batches = read_packet_keys(path, _chunk_size=len(rows))
            garbage[chunks] = garbage_after(lambda: list(batches))
        assert garbage[40] == garbage[10] < 1000


class TestReportLayout:
    def test_only_the_pipeline_writes_files(self):
        # The report's layout (file formats, headers, line ends) is decided
        # in pipeline alone; the analysis modules compute and write nothing.
        src = Path(pipeline.__file__).parent
        for name in ("matrix.py", "netstats.py", "topology.py", "zm.py"):
            tree = ast.parse((src / name).read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    modules = []
                assert not {"csv", "json"} & {m.split(".")[0] for m in modules}, name
                if isinstance(node, ast.Call):
                    func = node.func
                    called = getattr(func, "id", None) or getattr(func, "attr", None)
                    assert called != "open", f"{name} line {node.lineno} calls open"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """Four windows of 75; with two workers this process analyzes windows
    0 and 2 and one forked child analyzes windows 1 and 3."""

    def config(self, tmp_path, workers):
        spec = GeneratorSpec(n_isolated_pairs=30, supernode_leaf_count=8, seed=17)
        path, _ = write_stream(tmp_path, spec, 300)
        return RunConfig(
            inputs=(str(path),),
            out_dir=str(tmp_path / "out"),
            window_sizes=(75,),
            grid=SMALL_GRID,
            workers=workers,
        )

    @pytest.mark.parametrize("bad_index", [1, 2], ids=["in a child", "in this process"])
    def test_window_errors_reach_the_caller(self, tmp_path, monkeypatch, bad_index):
        analyze = pipeline.analyze_window
        cfg = self.config(tmp_path, workers=2)
        stream, _ = load_valid_records(cfg.inputs)
        keys = [(w.src.tobytes(), w.dst.tobytes())
                for w in (stream.window(index, 75) for index in range(4))]
        assert len(set(keys)) == 4  # the keys tell the windows apart

        def failing(window, *args, **kwargs):
            index = keys.index((window.src.tobytes(), window.dst.tobytes()))
            if index == bad_index:
                raise ArithmeticError(f"window {index} is bad")
            return analyze(window, *args, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_window", failing)
        with pytest.raises(ArithmeticError) as excinfo:
            run_analyze(cfg)
        assert type(excinfo.value) is ArithmeticError
        assert str(excinfo.value) == f"window {bad_index} is bad"
        assert_no_child_left()

    def test_forks_at_most_one_child_per_task_beyond_the_first(
        self, tmp_path, monkeypatch
    ):
        forks = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        report = run_analyze(self.config(tmp_path, workers=8))
        assert len(forks) == 3
        assert report.manifest["window_counts"] == {"75": 4}
        assert_no_child_left()

    @pytest.mark.parametrize(
        "affinity, cpu_count, children",
        [({0}, 64, 0), ({0, 1, 2}, 1, 2), (None, 4, 3), (None, None, 0)],
        ids=["one CPU", "three CPUs", "no affinity, four CPUs", "no CPU count"],
    )
    def test_children_are_bounded_by_the_usable_cpus(
        self, monkeypatch, affinity, cpu_count, children
    ):
        # No process starts: a fork returns a made-up pid above any pid
        # Linux hands out, and each one is reaped as killed by signal 9.
        forked, killed = [], []

        def fork():
            forked.append((1 << 22) + len(forked))
            return forked[-1]

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: affinity, raising=False
            )
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", lambda pid, options: (pid, signal.SIGKILL))
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))
        tasks = list(range(10))
        if children:
            with pytest.raises(WindowWorkerError, match="killed by signal 9$"):
                pipeline._forked_map(str, tasks, 1000)
        else:
            assert pipeline._forked_map(str, tasks, 1000) == list(map(str, tasks))
        assert len(forked) == children
        # The first child is reaped; the others are killed when the error leaves.
        assert killed == forked[1:]

    def test_killed_worker_raises_a_worker_error(self, tmp_path, monkeypatch):
        analyze = pipeline.analyze_window
        parent = os.getpid()

        def dying(window, *args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return analyze(window, *args, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_window", dying)
        with pytest.raises(WindowWorkerError, match="killed by signal 9$"):
            run_analyze(self.config(tmp_path, workers=3))
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert_no_child_left()

    def test_worker_exiting_with_a_status_raises_a_worker_error(
        self, tmp_path, monkeypatch
    ):
        analyze = pipeline.analyze_window
        parent = os.getpid()

        def exiting(window, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return analyze(window, *args, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_window", exiting)
        message = r"^window worker \d+ exited with status 3$"
        with pytest.raises(WindowWorkerError, match=message):
            run_analyze(self.config(tmp_path, workers=3))
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert_no_child_left()


def _address(name: str) -> str:
    """random_cells names n0, n1, ... as addresses whose text order differs
    from their numeric order (10.0.0.10 sorts before 10.0.0.9)."""
    return f"10.0.0.{int(name[1:])}"


class TestCodedWindows:
    def test_supernode_ties_go_to_the_smaller_address_on_every_path(self, tmp_path):
        # Two hubs tie on degree 3 and volume 3.  10.0.0.9 is seen first but
        # 10.0.0.10 sorts first, so with k = 1 it is the supernode, and its
        # three feeders (not 10.0.0.9's three receivers) are supernode leaves.
        pairs = [("10.0.0.9", f"10.0.1.{i}") for i in range(3)]
        pairs += [(f"10.0.2.{i}", "10.0.0.10") for i in range(3)]
        records = make_records(pairs)
        path = tmp_path / "ties.csv"
        write_packet_csv(path, records)

        expected = analyze_window(next_window(iter(records), 6), supernode_k=1)
        assert expected.topology.supernode_ids == ("10.0.0.10",)
        leaves = expected.topology.categories["supernode_leaves"]
        assert leaves == CategoryStats(3, 3, 3, 0)
        stream, _ = load_valid_records([str(path)])
        coded = analyze_window(stream.window(0, 6), supernode_k=1)
        assert coded.topology == expected.topology

        # Runs use the default k, under which both hubs are supernodes.
        default = analyze_window(next_window(iter(records), 6))
        assert default.topology.supernode_ids == ("10.0.0.10", "10.0.0.9")
        expected_csv = tmp_path / "expected.topology.csv"
        write_topology_csv(expected_csv, default.topology)
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            cfg = RunConfig(
                inputs=(str(path),),
                out_dir=str(out),
                window_sizes=(6,),
                grid=SMALL_GRID,
                workers=workers,
            )
            run_analyze(cfg)
            written = out / "nv_000000006" / "window_000000.topology.csv"
            assert written.read_bytes() == expected_csv.read_bytes()

    def test_a_window_is_a_view_of_the_stream_keys(self, tmp_path):
        path = tmp_path / "stream.csv"
        pairs = [(f"10.0.0.{i}", "10.0.1.1") for i in range(9)]
        write_packet_csv(path, make_records(pairs))
        stream, _ = load_valid_records([str(path)])
        window = stream.window(1, 3)
        assert np.shares_memory(window.src, stream.src)
        assert np.shares_memory(window.dst, stream.dst)
        assert window_pairs(window) == pairs[3:6]

    def test_extreme_keys_and_self_loops_match_the_record_path(self, tmp_path):
        # 0.0.0.0 is key 0 and 99.99.99.99 is key 2**32 - 1 ("99" is the
        # last octet text), so a cell key of theirs fills all 64 bits.
        low, high = "0.0.0.0", "99.99.99.99"
        pairs = [(high, low), (low, high), (high, high), (low, low), (high, high)]
        pairs += [("10.0.0.1", high), (high, "255.0.0.1"), ("10.0.0.1", low)]
        records = make_records(pairs)
        path = tmp_path / "extremes.csv"
        write_packet_csv(path, records)
        (stream,) = read_packet_keys(path)
        assert (int(stream.src.min()), int(stream.src.max())) == (0, 2**32 - 1)
        window = stream.window(0, len(pairs))
        record_window = next_window(iter(records), len(pairs))
        coded = TrafficMatrix.from_window(window)
        expected = TrafficMatrix.from_window(record_window)
        for name in ("row", "col", "count", "out_volume", "in_volume"):
            assert np.array_equal(getattr(coded, name), getattr(expected, name)), name
        assert coded.node_names(range(coded.n_nodes)) == [
            low, "10.0.0.1", "255.0.0.1", high
        ]
        for k in (1, 2):
            assert analyze_window(window, supernode_k=k) == analyze_window(
                record_window, supernode_k=k
            )

    def test_coded_windows_match_record_windows_and_dense_oracle(self, tmp_path):
        # Two windows per stream over partly shared addresses.  In every
        # other stream a trailing partial window of fresh addresses follows,
        # which no window's table may hold.
        rng = np.random.Generator(np.random.Philox(key=20261018))
        for trial in range(200):
            draws = []
            for _ in range(2):
                cells = random_cells(rng, max_side=30, max_cells=100)
                pairs = [
                    (_address(src), _address(dst))
                    for (src, dst), count in cells.items()
                    for _ in range(count)
                ]
                draws.append([pairs[i] for i in rng.permutation(len(pairs))])
            size = min(len(draw) for draw in draws)
            tail = [
                (f"10.1.{j >> 8}.{j & 255}", f"10.2.{j >> 8}.{j & 255}")
                for j in range((size - 1) * (trial % 2))
            ]
            records = make_records(draws[0][:size] + draws[1][:size] + tail)
            noise = make_records(draws[1][:5], protocol="UDP")
            path = tmp_path / f"stream{trial}.csv"
            write_packet_csv(path, records[:size] + noise + records[size:])
            stream, summary = load_valid_records([str(path)])
            assert len(stream) == len(records)
            assert summary.total_skipped == len(noise)
            k = int(rng.integers(0, 7))
            for index in range(2):
                run = slice(index * size, (index + 1) * size)
                window_records = records[run]
                window = stream.window(index, size)
                # The window's keys are the stream's, and its table names
                # each row's addresses.
                assert np.array_equal(window.src, stream.src[run])
                assert np.array_equal(window.dst, stream.dst[run])
                assert window_pairs(window) == [(r[1], r[2]) for r in window_records]
                coded = analyze_window(window, supernode_k=k)
                record_window = next_window(iter(window_records), size)
                assert coded == analyze_window(record_window, supernode_k=k)

                cells = Counter((r[1], r[2]) for r in window_records)
                dense, rows, cols = dense_oracle.from_cells(cells)
                aggregates = coded.topology.totals
                assert (
                    aggregates.packets,
                    aggregates.links,
                    aggregates.sources,
                    aggregates.destinations,
                ) == dense_oracle.aggregates(dense)
                matrix = TrafficMatrix.from_window(window)
                expected = dense_oracle.quantity_maps(dense, rows, cols)
                for kind in ALL_KINDS:
                    vector = expected[kind.value]
                    assert network_quantity(matrix, kind) == vector
                    pmf = probability(degree_histogram(vector))
                    pooled = log_pool(cumulative(pmf), max(pmf), kind=kind.value)
                    assert coded.pooled[kind.value] == pooled
                stats, supers, leftovers = dense_oracle.classify(dense, rows, cols, k)
                assert leftovers == []
                topology = coded.topology
                assert list(topology.supernode_ids) == supers
                for name in CATEGORY_ORDER:
                    got = topology.categories[name]
                    assert (
                        got.sources, got.packets, got.links, got.destinations
                    ) == stats[name], f"trial {trial} window {index} {name}"
                internal = topology.supernode_internal
                assert (
                    internal.sources,
                    internal.packets,
                    internal.links,
                    internal.destinations,
                ) == stats["supernode_internal"]
